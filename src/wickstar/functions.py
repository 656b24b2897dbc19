"""Entire functions, bivariate polynomials and truncated Taylor jets.

Entire functions come in three shapes: exact polynomials, exponentials
(exact derivatives in closed form) and truncated power series carrying
a mandatory geometric tail certificate |a_k| <= C / rho^k for k > M.
A truncated series never silently drops its truncation error: every
evaluation returns (value, bound).

A coefficient list takes its arithmetic from its scalar kind alone: exact
(int, Fraction, QC) or float.  Polynomials and jets share one truncated
product (:func:`_mul`), which convolves integer numerators when every
coefficient is exact and sums term by term otherwise, and a jet's
reciprocal is one power-series recurrence for both kinds.

Everything here runs on Python scalars.  The closed-form towers that the
float sums read, arrays over a batch of points, are in
:mod:`wickstar.towers`, the one module that imports numpy.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import inf, lcm
from sys import float_info

from .errors import DomainError
from .exact import QC, _make, _parts, conj, is_exact, to_complex


# ---------------------------------------------------------------------------
# truncated Taylor jets, and the truncated product they share with the
# polynomials
# ---------------------------------------------------------------------------

def _kind(x) -> int:
    """0 for int, 1 for Fraction, 2 for QC: the wider kind wins a product."""
    return 2 if isinstance(x, QC) else 0 if isinstance(x, int) else 1


def _numerators(coeffs: list):
    """The exact coefficients as Gaussian-integer numerators (re, im) over
    their least common denominator."""
    parts = [_parts(c) for c in coeffs]
    den = 1
    for _, _, d in parts:
        # pairwise: lcm(*generator) grew the heap without bound on CPython 3.11
        den = lcm(den, d)
    return ([a * (den // d) for a, _, d in parts],
            [b * (den // d) for _, b, d in parts], den)


def _mul(a: list, b: list, size: int | None = None) -> list:
    """Cauchy product of two coefficient lists, truncated to its first
    ``size`` coefficients when ``size`` is given.

    When every coefficient is exact, the denominators are cleared once,
    the integer (or Gaussian-integer) numerators are convolved on ints,
    and each output coefficient is rebuilt once (:func:`_exact_coeffs`).
    Otherwise it is the schoolbook sum, term by term in order."""
    full = len(a) + len(b) - 1
    size = full if size is None else min(size, full)
    if all(map(is_exact, a)) and all(map(is_exact, b)):
        ar, ai, da = _numerators(a)
        br, bi, db = _numerators(b)
        return _exact_coeffs(*_convolve(ar, ai, br, bi, size), da * db, a, b)
    out = [0] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[:size - i]):
            out[i + j] = out[i + j] + x * y
    return out


def _exact_coeffs(re: list, im, den: int, *inputs) -> list:
    """The exact coefficients (re + i im)/den, im None for zero, all of one
    kind: the widest (int < Fraction < QC) among the coefficients of the
    input lists, so an exact result never depends on which products or
    cancellations reached a position."""
    kind = max(_kind(x) for xs in inputs for x in xs)
    if kind == 2:
        return [_make(r, m, den) for r, m in zip(re, im or itertools.repeat(0))]
    # below QC every imaginary part is zero, and with int inputs den is 1
    return [Fraction(r, den) for r in re] if kind else re


def _convolve(ar: list, ai: list, br: list, bi: list, size: int):
    """The first ``size`` coefficients (re, im) of the product of two
    Gaussian-integer coefficient lists given by their parts; im is None
    when both imaginary parts are zero."""
    re = [0] * size
    if any(ai) or any(bi):
        im = [0] * size
        for i in range(min(len(ar), size)):
            x, y = ar[i], ai[i]
            for j in range(min(len(br), size - i)):
                u, v = br[j], bi[j]
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
        return re, im
    for i in range(min(len(ar), size)):
        x = ar[i]
        if x:
            for j in range(min(len(br), size - i)):
                re[i + j] += x * br[j]
    return re, None


def _reciprocal(a: list) -> list:
    """Coefficients of 1/a by the recurrence b_n = -b_0 sum_k a_k b_{n-k}."""
    b0 = Fraction(1) / a[0]
    out = [b0]
    for n in range(1, len(a)):
        acc = a[0] * 0
        for k in range(1, n + 1):
            acc = acc + a[k] * out[n - k]
        out.append(-b0 * acc)
    return out


class Jet:
    """Truncated Taylor expansion sum_k c_k u^k, exact in the scalar type.

    The coefficients are a list, and their scalar type alone picks the
    arithmetic.  When every coefficient is exact (QC, Fraction, int) they
    stay exact: products run the truncated integer convolution (:func:`_mul`)
    and reciprocals the power-series recurrence (:func:`_reciprocal`).
    Otherwise every coefficient is a Python complex, and the same two
    functions run on floats.  An operation that mixes the two kinds gives
    a float jet."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("jet needs at least the constant coefficient")
        if not all(map(is_exact, coeffs)):
            coeffs = [to_complex(c) for c in coeffs]
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def exact(self) -> bool:
        """True for exact coefficients, False for a float jet."""
        return is_exact(self.coeffs[0])

    @staticmethod
    def constant(x, order: int) -> "Jet":
        return Jet([x] + [x * 0] * order)

    @staticmethod
    def variable(x0, order: int) -> "Jet":
        """Jet of u -> x0 + u."""
        jet = Jet.constant(x0, order)
        if order > 0:
            jet.coeffs[1] = jet.coeffs[0] * 0 + 1
        return jet

    def _operands(self, other: "Jet"):
        """The two coefficient lists, which must be of one order."""
        if other.order != self.order:
            raise ValueError("jet order mismatch")
        return self.coeffs, other.coeffs

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([x + y for x, y in zip(*self._operands(other))])
        c = self.coeffs
        return Jet([c[0] + other] + c[1:])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet([-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([a * other for a in self.coeffs])
        a, b = self._operands(other)
        return Jet(_mul(a, b, len(a)))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        a = self.coeffs
        if a[0] == 0:
            raise ZeroDivisionError("jet has vanishing constant term")
        return Jet(_reciprocal(a))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet([a / other for a in self.coeffs])

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def exp(self) -> "Jet":
        """Jet of exp(self); float scalars only (divides by integers)."""
        a = [complex(c) for c in self.coeffs]
        out = [cmath.exp(a[0])]
        for n in range(1, self.order + 1):
            acc = 0j
            for k in range(1, n + 1):
                acc += k * a[k] * out[n - k]
            out.append(acc / n)
        return Jet(out)

    def tolist(self, start: int = 0) -> list:
        """[c_n for n = start..order]."""
        return self.coeffs[start:]

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


def moebius_jet(m, zjet: Jet) -> Jet:
    """Apply a Moebius map coefficientwise to a jet: (a j + b)/(c j + d)."""
    num = zjet * m.a + m.b
    den = zjet * m.c + m.d
    return num / den


# ---------------------------------------------------------------------------
# entire functions
# ---------------------------------------------------------------------------


def _strip(coeffs):
    # no coefficients is the zero polynomial
    coeffs = list(coeffs) or [0]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class EntireFn:
    """Common surface for the entire-function forms."""

    def derivative(self, n: int) -> "EntireFn":
        raise NotImplementedError

    def eval(self, t):
        """Return (value, error_bound)."""
        raise NotImplementedError

    def __call__(self, t):
        return self.eval(t)[0]


class PolyFn(EntireFn):
    """Polynomial with ascending coefficients; exact calculus."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _strip(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def derivative(self, n: int = 1) -> "PolyFn":
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        c = self.coeffs
        for _ in range(n):
            c = _strip([k * c[k] for k in range(1, len(c))]) if len(c) > 1 else [c[0] * 0]
        return PolyFn(c)

    def eval(self, t):
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = acc * t + a
        return acc, 0.0

    def eval_jet(self, j: Jet) -> Jet:
        """Horner in the jet j."""
        c = self.coeffs
        if len(c) == 1:
            return Jet.constant(j.coeffs[0] * 0 + c[0], j.order)
        # the first Horner step scales the jet: no product with a constant jet
        acc = j * c[-1] + c[-2]
        for a in reversed(c[:-2]):
            acc = acc * j + a
        return acc

    def __add__(self, other):
        if not isinstance(other, PolyFn):
            other = PolyFn([other])
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return PolyFn([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                       for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, PolyFn):
            other = PolyFn([other])
        return self + PolyFn([-c for c in other.coeffs])

    def __mul__(self, other):
        if not isinstance(other, PolyFn):
            return PolyFn([c * other for c in self.coeffs])
        return PolyFn(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PolyFn) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolyFn({self.coeffs!r})"


class ExpFn(EntireFn):
    """amp * e^{scale t}; n-th derivative is scale^n amp e^{scale t}."""

    __slots__ = ("scale", "amp")

    def __init__(self, scale, amp=1):
        self.scale = scale
        self.amp = amp

    def derivative(self, n: int = 1) -> "ExpFn":
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        return ExpFn(self.scale, self.amp * self.scale ** n)

    def eval(self, t):
        return self.amp * cmath.exp(complex(self.scale) * complex(t)), 0.0

    def __mul__(self, c):
        return ExpFn(self.scale, self.amp * c)

    def __repr__(self):
        return f"ExpFn(scale={self.scale!r}, amp={self.amp!r})"


def _order_error(top: int, n: int) -> DomainError:
    """The error of a series of usable order ``top`` asked for derivative
    order n > top."""
    return DomainError(f"series of usable order {top} cannot supply derivative "
                       f"order {n}; extend the series to order >= {n}")


class SeriesFn(EntireFn):
    """Truncated power series with a certified geometric tail.

    The certificate asserts |a_k| <= C / rho^k for every k beyond the
    stored order M; evaluation inside |t| < rho returns the Horner value
    of the stored part together with the geometric remainder bound.
    """

    __slots__ = ("coeffs", "rho", "C")

    def __init__(self, coeffs, rho: float, C: float):
        rho, C = float(rho), float(C)
        # a NaN fails both comparisons
        if not (0 < rho < inf and 0 <= C < inf):
            raise ValueError("tail certificate needs finite rho > 0 and C >= 0")
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coeffs = coeffs
        self.rho = rho
        self.C = C

    @property
    def max_order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, n: int = 1) -> "SeriesFn":
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        if n > self.max_order:
            raise _order_error(self.max_order, n)
        coeffs, rho, c = self.coeffs, self.rho, self.C
        for _ in range(n):
            coeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
            # |a'_k| = (k+1)|a_{k+1}| <= (k+1) C rho^{-(k+1)} <= (C/rho) (rho/2)^{-k}
            c = c / rho
            rho = rho / 2
        return SeriesFn(coeffs, rho, c)

    def eval(self, t):
        x = abs(complex(t))
        if x >= self.rho:
            raise DomainError(
                f"|t| = {x:.6g} outside the certified radius rho = {self.rho:.6g}")
        acc = complex(self.coeffs[-1])
        for a in reversed(self.coeffs[:-1]):
            acc = acc * complex(t) + complex(a)
        r = x / self.rho
        tail = self.C * r ** (self.max_order + 1) / (1 - r)
        return acc, tail

    def __mul__(self, c):
        return SeriesFn([a * c for a in self.coeffs], self.rho, self.C * abs(c))

    def __repr__(self):
        return f"SeriesFn(order={self.max_order}, rho={self.rho}, C={self.C})"


# JSON mini-language ---------------------------------------------------------


def json_field(obj: dict, key: str, kind, default=None):
    """obj[key], which must be of the JSON type ``kind`` (a type or a tuple
    of types); an absent key takes the default when there is one."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        if key not in obj:
            raise DomainError(f"missing field {key!r}")
        raise DomainError(f"field {key!r} has the wrong type: {value!r}")
    return value


def json_complex(p) -> complex:
    """A complex number written as [re, im], with parts in the float range:
    json reads NaN, Infinity and ints of any size."""
    if not (isinstance(p, list) and len(p) == 2
            and all(type(x) in (int, float) and abs(x) <= float_info.max for x in p)):
        raise DomainError(f"expected a complex number [re, im] with finite parts, "
                          f"got {p!r}")
    return complex(p[0], p[1])


def json_real(obj: dict, key: str) -> float:
    """obj[key], a JSON number in the float range, as a float: json reads
    NaN, Infinity and ints of any size."""
    value = json_field(obj, key, (int, float))
    if not abs(value) <= float_info.max:
        raise DomainError(f"field {key!r} must be a finite number in the float range, "
                          f"got {value!r}")
    return float(value)


def entire_from_json(obj: dict) -> EntireFn:
    """{"type":"poly","coeffs":[[re,im],...]} | {"type":"exp","scale":[re,im]}
    | {"type":"series","coeffs":[...],"rho":r,"C":c}"""
    if not isinstance(obj, dict):
        raise DomainError(f"an entire function is a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "poly":
        return PolyFn([json_complex(p) for p in json_field(obj, "coeffs", list)])
    if kind == "exp":
        return ExpFn(json_complex(json_field(obj, "scale", list)))
    if kind == "series":
        return SeriesFn([json_complex(p) for p in json_field(obj, "coeffs", list)],
                        rho=json_real(obj, "rho"), C=json_real(obj, "C"))
    raise DomainError(f"unknown function type {kind!r}")


# ---------------------------------------------------------------------------
# sparse bivariate polynomials F(z, w)
# ---------------------------------------------------------------------------


class BiPoly:
    """Sparse bivariate polynomial sum a_ij z^i w^j; no zero entries stored.

    On the disk the second slot plays the role of conj(z): the function
    value at z is eval(z, conj(z))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for (i, j), a in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if a == 0:
                    continue
                key = (int(i), int(j))
                cur = d.get(key)
                val = a if cur is None else cur + a
                if val == 0:
                    d.pop(key, None)
                else:
                    d[key] = val
        self.coeffs = d

    # constructors -----------------------------------------------------

    @staticmethod
    def constant(a) -> "BiPoly":
        return BiPoly({(0, 0): a})

    @staticmethod
    def z(exact: bool = False) -> "BiPoly":
        return BiPoly({(1, 0): QC(1) if exact else 1.0})

    @staticmethod
    def w(exact: bool = False) -> "BiPoly":
        return BiPoly({(0, 1): QC(1) if exact else 1.0})

    # structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def zdeg(self) -> int:
        """Degree in the holomorphic slot; -1 for the zero polynomial."""
        return max((i for i, _ in self.coeffs), default=-1)

    @property
    def wdeg(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = ", ".join(f"({i},{j}): {a!r}" for (i, j), a in sorted(self.coeffs.items()))
        return f"BiPoly({{{terms}}})"

    # ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.constant(other)
        d = dict(self.coeffs)
        for k, a in other.coeffs.items():
            v = d.get(k, 0) + a
            if v == 0:
                d.pop(k, None)
            else:
                d[k] = v
        out = BiPoly()
        out.coeffs = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = BiPoly()
        out.coeffs = {k: -a for k, a in self.coeffs.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return BiPoly.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            out = BiPoly()
            if other != 0:
                out.coeffs = {k: a * other for k, a in self.coeffs.items()}
            return out
        d = {}
        for (i1, j1), a1 in self.coeffs.items():
            for (i2, j2), a2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                v = d.get(k, 0) + a1 * a2
                if v == 0:
                    d.pop(k, None)
                else:
                    d[k] = v
        out = BiPoly()
        out.coeffs = d
        return out

    __rmul__ = __mul__

    def pow(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = BiPoly.constant(1 if not self.coeffs else next(iter(self.coeffs.values())) * 0 + 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # calculus and evaluation --------------------------------------------

    def wirtinger(self, slot: str) -> "BiPoly":
        """Formal partial derivative in the chosen slot ('z' or 'w')."""
        if slot not in ("z", "w"):
            raise ValueError("slot must be 'z' or 'w'")
        d = {}
        for (i, j), a in self.coeffs.items():
            if slot == "z":
                if i == 0:
                    continue
                d[(i - 1, j)] = a * i
            else:
                if j == 0:
                    continue
                d[(i, j - 1)] = a * j
        out = BiPoly()
        out.coeffs = d
        return out

    def eval(self, z, w):
        if not self.coeffs:
            return z * 0
        if ((isinstance(z, QC) or isinstance(w, QC)) and is_exact(z) and is_exact(w)
                and all(map(is_exact, self.coeffs.values()))):
            return self._eval_exact(z, w)
        # one power per distinct exponent, shared by the terms that use it
        zp, wp = {}, {}
        acc = None
        for (i, j), a in self.coeffs.items():
            zi = zp.get(i)
            if zi is None:
                zi = zp[i] = z ** i
            wj = wp.get(j)
            if wj is None:
                wj = wp[j] = w ** j
            term = a * zi * wj
            acc = term if acc is None else acc + term
        return acc

    def _eval_exact(self, z, w) -> QC:
        """F(z, w) at exact points, one of them a QC, with exact coefficients:
        the sum of the Gaussian-integer numerators over the common
        denominator D dz^I dw^J (I, J the degrees), reduced once."""
        coeffs = self.coeffs
        ar, ai, den = _numerators(list(coeffs.values()))
        zs, dz = _scaled_powers(z, max(i for i, _ in coeffs))
        ws, dw = _scaled_powers(w, max(j for _, j in coeffs))
        re = im = 0
        for (i, j), x, y in zip(coeffs, ar, ai):
            p, q = zs[i]
            u, v = ws[j]
            s, t = p * u - q * v, p * v + q * u
            re += x * s - y * t
            im += x * t + y * s
        return _make(re, im, den * dz * dw)

    def eval_diag(self, z):
        """Value of the disk function: F(z, conj z)."""
        return self.eval(z, conj(z))

    def eval_jet(self, jet: Jet, frozen, slot: str = "z") -> Jet:
        """Evaluate with a jet in the slot ("z" or "w", as in pm_step) and
        the scalar ``frozen`` in the other slot: F collapses to a
        polynomial in the jet's slot, evaluated by Horner."""
        if slot not in ("z", "w"):
            raise ValueError("slot must be 'z' or 'w'")
        coeffs = {}
        for (i, j), a in self.coeffs.items():
            k, e = (i, j) if slot == "z" else (j, i)
            coeffs[k] = coeffs.get(k, 0) + a * frozen ** e
        top = max(coeffs, default=0)
        return PolyFn([coeffs.get(k, 0) for k in range(top + 1)]).eval_jet(jet)

    def swap_conj(self) -> "BiPoly":
        """BiPoly of the conjugate disk function:
        conj(F(z, conj z)) = G(z, conj z) with G(z, w) = conj(a_ij) z^j w^i."""
        out = BiPoly()
        out.coeffs = {(j, i): conj(a) for (i, j), a in self.coeffs.items()}
        return out


def _scaled_powers(x, top: int):
    """The powers x^k, k = 0..top, of an exact x = (a + b i)/d over the one
    denominator d^top: the int pairs of (a + b i)^k d^(top - k), and d^top."""
    a, b, d = _parts(x)
    pows = [(1, 0)]
    for _ in range(top):
        r, m = pows[-1]
        pows.append((r * a - m * b, r * b + m * a))
    if d != 1:
        scale = 1
        for k in range(top, -1, -1):
            r, m = pows[k]
            pows[k] = (r * scale, m * scale)
            scale *= d
    return pows, d ** top


# ---------------------------------------------------------------------------
# the basis family f_{p,q}(z, w) = z^p w^q / (1 - zw)^max(p,q)
# ---------------------------------------------------------------------------


class BasisFpq:
    """Basis element f_{p,q}; spans (its closure) the bivariate model space."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("indices must be non-negative")
        self.p = p
        self.q = q

    def eval(self, z, w):
        den = 1 - z * w
        if den == 0:
            raise DomainError("f_{p,q} undefined on the hypersurface zw = 1")
        m = max(self.p, self.q)
        return z ** self.p * w ** self.q / den ** m

    def __eq__(self, other):
        return isinstance(other, BasisFpq) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"BasisFpq({self.p}, {self.q})"
