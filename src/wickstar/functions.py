"""Entire functions, bivariate polynomials and truncated Taylor jets.

Entire functions come in three shapes: exact polynomials, exponentials
(exact derivatives in closed form) and truncated power series carrying
a mandatory geometric tail certificate |a_k| <= C / rho^k for k > M.
A truncated series never silently drops its truncation error: every
evaluation returns (value, bound).

Truncated Taylor jets compute in their scalar type: float jets run on
numpy (products by np.convolve, reciprocals by Newton doubling), and the
jet of a Moebius map comes in closed form (:func:`moebius_matrix_jet`).  Exact
jets (QC, Fraction, int coefficients) and exact polynomials multiply by
one kernel, :func:`_mul_exact`, that convolves integer (or
Gaussian-integer) numerators over a common denominator; exact
reciprocals run the truncated recurrence in QC.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import DomainError, SeriesOrderError
from .exact import QC, _make, _parts, conj, is_exact, to_complex


# ---------------------------------------------------------------------------
# truncated Taylor jets (the Peschl-Minda towers of polynomials and
# pullbacks, and the definitional oracle of the closed-form towers)
# ---------------------------------------------------------------------------

def _float_coeffs(coeffs) -> np.ndarray:
    if isinstance(coeffs, np.ndarray):
        return coeffs
    return np.array([to_complex(c) for c in coeffs], dtype=complex)


def _kind(x) -> int:
    """0 for int, 1 for Fraction, 2 for QC: the wider kind wins a product."""
    return 2 if isinstance(x, QC) else 0 if isinstance(x, int) else 1


def _reach(kinds: list, width: int, size: int) -> list:
    """For each k < size, the widest of kinds[k - width + 1 .. k]: the kind
    of the products that one factor sends to output k."""
    out, last1, last2 = [], -width, -width
    for k in range(size):
        t = kinds[k] if k < len(kinds) else 0
        if t:
            last1 = k
            if t == 2:
                last2 = k
        out.append(2 if k - last2 < width else 1 if k - last1 < width else 0)
    return out


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


def _mul_exact(a: list, b: list, size: int | None = None) -> list:
    """Cauchy product of two exact coefficient lists, truncated to its
    first ``size`` coefficients when ``size`` is given.

    The denominators are cleared once, the integer (or Gaussian-integer)
    numerators are convolved on ints, and each output coefficient is
    rebuilt once.  Its scalar type is the one the schoolbook sum of
    products gives: the widest kind (int < Fraction < QC) among the
    products that reach it.  (A jet's sum starts from a[0] * 0, but with
    len(b) >= size the product a[0] b[k] reaches every output k anyway.)"""
    full = len(a) + len(b) - 1
    size = full if size is None else min(size, full)
    ka, kb = [_kind(x) for x in a], [_kind(x) for x in b]
    top = max(max(ka), max(kb))
    if top == max(min(ka), min(kb)):
        # every output meets a product of the widest kind
        kinds = itertools.repeat(top)
    else:
        kinds = [max(x, y) for x, y in zip(_reach(ka, len(b), size),
                                           _reach(kb, len(a), size))]
    ar, ai, da = _numerators(a)
    br, bi, db = _numerators(b)
    re = [0] * size
    if any(ai) or any(bi):
        im = [0] * size
        for i in range(min(len(a), size)):
            x, y = ar[i], ai[i]
            for j in range(min(len(b), size - i)):
                u, v = br[j], bi[j]
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
    else:
        im = itertools.repeat(0)
        for i in range(min(len(a), size)):
            x = ar[i]
            if x:
                for j in range(min(len(b), size - i)):
                    re[i + j] += x * br[j]
    den = da * db
    out = []
    for k, r, m in zip(kinds, re, im):
        out.append(_make(r, m, den) if k == 2 else Fraction(r, den) if k else r // den)
    return out


def _reciprocal_exact(a: list) -> list:
    """Coefficients of 1/a by the recurrence b_n = -b_0 sum_k a_k b_{n-k}."""
    b0 = QC(1) / a[0] if isinstance(a[0], QC) else Fraction(1) / a[0]
    out = [b0]
    for n in range(1, len(a)):
        acc = a[0] * 0
        for k in range(1, n + 1):
            acc = acc + a[k] * out[n - k]
        out.append(-b0 * acc)
    return out


def _reciprocal_float(a: np.ndarray) -> np.ndarray:
    """Coefficients of 1/a by Newton doubling b <- b (2 - a b): each step
    doubles the number of correct coefficients, two convolutions a step."""
    b = np.array([1 / a[0]])
    m = 1
    while m < len(a):
        m = min(2 * m, len(a))
        e = -np.convolve(a[:m], b)[:m]
        e[0] += 2
        b = np.convolve(b, e)[:m]
    return b


class Jet:
    """Truncated Taylor expansion sum_k c_k u^k, exact in the scalar type.

    The scalar type alone picks the arithmetic.  When every coefficient is
    exact (QC, Fraction, int) they stay in a list; products run the
    truncated integer convolution and reciprocals the Python recurrence.
    Otherwise the jet is a float jet: its coefficients are a complex128
    numpy array, products are truncated np.convolve calls and reciprocals
    Newton doubling over convolutions.  An operation that mixes the two
    kinds gives a float jet."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray):
            coeffs = coeffs.astype(complex, copy=False)
        else:
            coeffs = list(coeffs)
            if not all(is_exact(c) for c in coeffs):
                coeffs = _float_coeffs(coeffs)
        if not len(coeffs):
            raise ValueError("jet needs at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def exact(self) -> bool:
        """True for a list of exact coefficients, False for a float jet."""
        return not isinstance(self.coeffs, np.ndarray)

    @staticmethod
    def constant(x, order: int) -> "Jet":
        if is_exact(x):
            return Jet([x] + [x * 0] * order)
        out = np.zeros(order + 1, dtype=complex)
        out[0] = x
        return Jet(out)

    @staticmethod
    def variable(x0, order: int) -> "Jet":
        """Jet of u -> x0 + u."""
        jet = Jet.constant(x0, order)
        if order > 0:
            jet.coeffs[1] = x0 * 0 + 1
        return jet

    def _operands(self, other: "Jet"):
        """The two coefficient sequences, as lists when both jets are
        exact and as complex arrays otherwise."""
        if other.order != self.order:
            raise ValueError("jet order mismatch")
        if self.exact and other.exact:
            return self.coeffs, other.coeffs
        return _float_coeffs(self.coeffs), _float_coeffs(other.coeffs)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._operands(other)
            return Jet(a + b if isinstance(a, np.ndarray) else [x + y for x, y in zip(a, b)])
        c = self.coeffs
        if self.exact:
            return Jet([c[0] + other] + c[1:])
        out = c.copy()
        out[0] += to_complex(other)
        return Jet(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet([-a for a in self.coeffs] if self.exact else -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if self.exact:
                return Jet([a * other for a in self.coeffs])
            return Jet(self.coeffs * to_complex(other))
        a, b = self._operands(other)
        if isinstance(a, np.ndarray):
            return Jet(np.convolve(a, b)[:len(a)])
        return Jet(_mul_exact(a, b, len(a)))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        a = self.coeffs
        if a[0] == 0:
            raise ZeroDivisionError("jet has vanishing constant term")
        return Jet(_reciprocal_exact(a) if self.exact else _reciprocal_float(a))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if self.exact:
            return Jet([a / other for a in self.coeffs])
        return Jet(self.coeffs / to_complex(other))

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
        """[c_n for n = start..order] as Python scalars."""
        tail = self.coeffs[start:]
        return tail if self.exact else tail.tolist()

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


def moebius_jet(m, zjet: Jet) -> Jet:
    """Apply a Moebius map coefficientwise to a jet: (a j + b)/(c j + d)."""
    num = zjet * m.a + m.b
    den = zjet * m.c + m.d
    return num / den


def moebius_matrix_jet(m, order: int) -> Jet:
    """Jet of u -> (a u + b)/(c u + d) for the matrix m = (a, b, c, d).

    In closed form, a geometric series: the constant b/d, then coefficient
    k >= 1 is det/d^2 (-c/d)^{k-1}, det = ad - bc.  Exact entries give a
    list of QC; otherwise a float jet, its powers by multiply.accumulate."""
    if m[3] == 0:
        raise ZeroDivisionError("Moebius jet has a pole at u = 0")
    if all(map(is_exact, m)):
        a, b, c, d = (x if isinstance(x, QC) else QC(x) for x in m)
        r, x = -c / d, (a * d - b * c) / (d * d)
        out = [b / d]
        for _ in range(order):
            out.append(x)
            x = x * r
        return Jet(out)
    a, b, c, d = map(to_complex, m)
    out = np.empty(order + 1, dtype=complex)
    out[0] = b / d
    if order:
        out[1:] = -c / d
        out[1] = (a * d - b * c) / (d * d)
        np.multiply.accumulate(out[1:], out=out[1:])
    return Jet(out)


# ---------------------------------------------------------------------------
# entire functions
# ---------------------------------------------------------------------------


def _strip(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class EntireFn:
    """Common surface for the entire-function forms."""

    kind = "abstract"

    def derivative(self, n: int) -> "EntireFn":
        raise NotImplementedError

    def eval(self, t):
        """Return (value, error_bound)."""
        raise NotImplementedError

    def __call__(self, t):
        return self.eval(t)[0]


class PolyFn(EntireFn):
    """Polynomial with ascending coefficients; exact calculus."""

    kind = "poly"
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
        a, b = self.coeffs, other.coeffs
        if all(map(is_exact, a)) and all(map(is_exact, b)):
            return PolyFn(_mul_exact(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return PolyFn(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PolyFn) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolyFn({self.coeffs!r})"


class ExpFn(EntireFn):
    """amp * e^{scale t}; n-th derivative is scale^n amp e^{scale t}."""

    kind = "exp"
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


class SeriesFn(EntireFn):
    """Truncated power series with a certified geometric tail.

    The certificate asserts |a_k| <= C / rho^k for every k beyond the
    stored order M; evaluation inside |t| < rho returns the Horner value
    of the stored part together with the geometric remainder bound.
    """

    kind = "series"
    __slots__ = ("coeffs", "rho", "C")

    def __init__(self, coeffs, rho: float, C: float):
        if rho <= 0 or C < 0:
            raise ValueError("tail certificate needs rho > 0 and C >= 0")
        self.coeffs = list(coeffs)
        self.rho = float(rho)
        self.C = float(C)

    @property
    def max_order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, n: int = 1) -> "SeriesFn":
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        if n > self.max_order:
            raise SeriesOrderError(
                f"series of usable order {self.max_order} cannot supply "
                f"derivative order {n}; extend the series to order >= {n}")
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
        acc = complex(self.coeffs[-1]) if self.coeffs else 0j
        for a in reversed(self.coeffs[:-1]):
            acc = acc * complex(t) + complex(a)
        r = x / self.rho
        tail = self.C * r ** (self.max_order + 1) / (1 - r)
        return acc, tail

    def __mul__(self, c):
        return SeriesFn([a * c for a in self.coeffs], self.rho, self.C * abs(c))

    def __repr__(self):
        return f"SeriesFn(order={self.max_order}, rho={self.rho}, C={self.C})"


def taylor_tower(g: EntireFn, c=1):
    """Yield g_n = c^n g^(n)/n!, n = 0, 1, ...: g_n(t) is the n-th Taylor
    coefficient of u -> g(t + c u).  Each step is g_n = g_{n-1}' (c/n), so
    neither n! nor c^n is formed; c = Fraction(1) keeps polynomials exact."""
    for n in itertools.count():
        if n:
            g = g.derivative() * (c / n)
        yield g


# JSON mini-language ---------------------------------------------------------


def _c_from_pair(p):
    return complex(p[0], p[1])


def entire_from_json(obj: dict) -> EntireFn:
    """{"type":"poly","coeffs":[[re,im],...]} | {"type":"exp","scale":[re,im]}
    | {"type":"series","coeffs":[...],"rho":r,"C":c}"""
    kind = obj.get("type")
    if kind == "poly":
        return PolyFn([_c_from_pair(p) for p in obj["coeffs"]])
    if kind == "exp":
        return ExpFn(_c_from_pair(obj["scale"]))
    if kind == "series":
        return SeriesFn([_c_from_pair(p) for p in obj["coeffs"]],
                        rho=float(obj["rho"]), C=float(obj["C"]))
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

    @staticmethod
    def monomial(i: int, j: int, a=1) -> "BiPoly":
        return BiPoly({(i, j): a})

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
        if acc is None:
            return z * 0
        return acc

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

    def is_real_symmetric(self) -> bool:
        """True iff the disk function is real-valued: a_ij = conj(a_ji)."""
        for (i, j), a in self.coeffs.items():
            if self.coeffs.get((j, i), 0) != conj(a):
                return False
        return True


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
