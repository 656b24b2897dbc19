"""Exact complex-rational arithmetic.

The exact backend represents a complex number as a pair of
``fractions.Fraction`` values.  It is used wherever a test or an
operation promises exact results (coefficient identities, polynomial
algebra, Moebius maps with rational entries).  Transcendental charts
(exp, log, tan) are float-only by design.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError("refusing to coerce a non-integral float to a Fraction; "
                            "construct the Fraction explicitly")
        return Fraction(int(x))
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    # -- conversions -------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        """QC for exact operands, None for float/complex (demote to float),
        NotImplemented otherwise."""
        if isinstance(other, QC):
            return other
        if isinstance(other, (int, Fraction)):
            return QC(other)
        if isinstance(other, (float, complex)):
            return None
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() + other
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() - other
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - self.to_complex()
        if o is NotImplemented:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a real rational scales both parts
            return QC(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is None:
            return self.to_complex() * other
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.to_complex() / other
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / self.to_complex()
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QC(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return self.to_complex() == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


def conj(x):
    """Complex conjugate that works for complex, QC, int, Fraction, float."""
    return x.conjugate()


def is_exact(x) -> bool:
    return isinstance(x, (QC, int, Fraction))


def to_complex(x) -> complex:
    if isinstance(x, QC):
        return x.to_complex()
    return complex(x)
