"""Exact complex-rational arithmetic.

The exact backend represents a complex number as a Gaussian-integer
numerator over one positive denominator, ``(a + b i) / d`` on Python
ints, kept in lowest terms: ``d > 0``, ``gcd(a, b, d) = 1``, and zero is
``(0, 0, 1)``.  An operation is a few int products and one three-way
gcd; the parts are handed out as ``fractions.Fraction`` values.  It is
used wherever a test or an operation promises exact results
(coefficient identities, polynomial algebra, Moebius maps with rational
entries).  Transcendental charts (exp, log, tan) are float-only by
design.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import gcd, lcm


def _to_fraction(x) -> Fraction:
    if isinstance(x, float) and not x.is_integer():
        raise TypeError("refusing to coerce a non-integral float to a Fraction; "
                        "construct the Fraction explicitly")
    return Fraction(x)


def _complex_hash(hr: int, hi: int) -> int:
    """The hash of a complex from the hashes of its parts (the recipe of
    the Python reference, "Hashing of numeric types"), so that a QC
    hashes like the complex it equals."""
    h = hr + sys.hash_info.imag * hi
    m = 1 << (sys.hash_info.width - 1)
    h = (h & (m - 1)) - (h & m)
    return -2 if h == -1 else h


class QC:
    """Complex number with exact rational real and imaginary parts,
    stored as (a + b i)/d on ints in lowest terms."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _to_fraction(re), _to_fraction(im)
        # with both parts in lowest terms, (a, b, lcm) has no common factor
        d = lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the default
        # slot-state restore would go through __setattr__
        return QC, (self.re, self.im)

    # -- conversions -------------------------------------------------

    def to_complex(self) -> complex:
        d = self._d
        return complex(self._a / d, self._b / d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    real = re
    imag = im

    # -- arithmetic --------------------------------------------------
    #
    # An exact operand enters as (c + e i)/f (see _parts); float and
    # complex operands demote to complex.

    def __add__(self, other):
        if isinstance(other, _EXACT):
            a, b, d = self._a, self._b, self._d
            c, e, f = _parts(other)
            if f == d:
                return _make(a + c, b + e, d)
            return _make(a * f + c * d, b * f + e * d, d * f)
        if isinstance(other, (float, complex)):
            return self.to_complex() + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _EXACT):
            a, b, d = self._a, self._b, self._d
            c, e, f = _parts(other)
            return _make(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, (float, complex)):
            return self.to_complex() * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT):
            # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
            a, b, d = self._a, self._b, self._d
            c, e, f = _parts(other)
            n = c * c + e * e
            if n == 0:
                raise ZeroDivisionError("division by exact zero")
            return _make((a * c + b * e) * f, (b * c - a * e) * f, d * n)
        if isinstance(other, (float, complex)):
            return self.to_complex() / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT):
            return _new(*_parts(other)) / self
        if isinstance(other, (float, complex)):
            return other / self.to_complex()
        return NotImplemented

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # (a + bi)^n by squaring on ints; one reduction at the end
        ra, rb = 1, 0
        a, b = self._a, self._b
        k = n
        while k:
            if k & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            a, b = a * a - b * b, 2 * a * b
            k >>= 1
        return _make(ra, rb, self._d ** n)

    def conjugate(self) -> "QC":
        return _new(self._a, -self._b, self._d)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (float, complex)):
            # exactly, as a Fraction compares with a float: NaN and the
            # infinities equal no QC
            if not cmath.isfinite(other):
                return False
            other = _exact(other)
        if isinstance(other, _EXACT):
            # both sides in lowest terms
            return _parts(other) == (self._a, self._b, self._d)
        return NotImplemented

    def __hash__(self):
        hr = hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        if self._b == 0:
            return hr
        return _complex_hash(hr, hash(Fraction(self._b, self._d)))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


_set_a, _set_b, _set_d = QC._a.__set__, QC._b.__set__, QC._d.__set__


def _new(a: int, b: int, d: int) -> QC:
    """QC from a numerator and denominator already in lowest terms."""
    out = object.__new__(QC)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _make(a: int, b: int, d: int) -> QC:
    """QC (a + b i)/d for d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def _parts(x) -> tuple:
    """(a, b, d) with x = (a + b i)/d in lowest terms, d > 0, for an int,
    Fraction or QC."""
    if isinstance(x, QC):
        return x._a, x._b, x._d
    return x.numerator, 0, x.denominator


def conj(x):
    """Complex conjugate that works for complex, QC, int, Fraction, float."""
    return x.conjugate()


_EXACT = (QC, int, Fraction)


def is_exact(x) -> bool:
    return isinstance(x, _EXACT)


def _exact(x):
    """x as an exact value; a finite float or complex converts exactly, to a
    dyadic QC."""
    return x if is_exact(x) else QC(Fraction(x.real), Fraction(x.imag))


def to_complex(x) -> complex:
    if isinstance(x, QC):
        return x.to_complex()
    return complex(x)
