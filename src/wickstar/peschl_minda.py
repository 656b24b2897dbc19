"""Peschl-Minda derivatives on the unit disk, carried as Taylor coefficients.

D^n f(z) = d_u^n F(T_z(u), conj z)|_0, T_z(u) = (z + u)/(1 + conj(z) u),
grows like n!, so every tower carries a_n = D^n f(z)/n!, the n-th Taylor
coefficient of u -> F(T_z(u), conj z).  Dbar^n f(z)/n! is the n-th
coefficient of u -> F(z, T_{conj z}(u)): the same jet in the
antiholomorphic slot, with z frozen in the holomorphic one.  D^n f
appears only at the public edge (``pm``/``pm_bar``, :func:`pm_bipoly`,
:func:`pm_definitional`), which multiplies by n!.

A variant describes its towers once, by ``moebius_eval_jet``: the jet of
u -> F(M(u), w0), or with ``bar`` of u -> F(w0, M(u)), for the Moebius
map M of a matrix (a, b, c, d).  T_z is (1, z, conj z, 1) and T_{conj z}
is (1, conj z, z, 1).  A variant multiplies the matrix of the map it puts
in front into the one it is handed, and the jet of the product comes in
closed form (:func:`moebius_matrix_jet`): no jet is divided and no
operand is conjugated.  ``pm_sequence`` and ``pm_bar_sequence`` read
a_n, n = start..nmax, off one such jet of order nmax: a complex array
at a float point, a list at an exact one.

* ``PolyDisk``      -- F(z, conj z) for a bivariate polynomial F, which
  collapses to a polynomial in the jet's slot, evaluated on the Moebius
  jet by Horner.  Its exact symbolic towers E_n = D^n F/n! are stepped
  one order at a time by
  E_{n+1} = [(1 - zw) d_z E_n - n w E_n]/(n + 1)   (w standing for conj z),
  and the same step with the slots swapped for Dbar.  It holds because
  d_z T_z = (1 + wu)/(1 - zw) d_u T_z; Leibniz on the factor (1 + wu)
  gives the term -n w E_n.  They serve the symbolic products and are the
  independent oracle of the jet towers.
* ``MoebiusPullback`` -- precomposition with a disk automorphism phi,
  which acts on (Z, W) as (phi(Z), psi(W)) with psi = 1/phi(1/.): the
  map of the jet's slot joins the matrix, and the frozen value moves by
  the other.
* ``ComposedP``     -- g(p(z)) with p(z) = (z - conj z)/(1 - |z|^2), and
* ``ComposedQ``     -- g(q(z)) with q(z) = |1-z|^2 / (1 - |z|^2).  With
  one slot frozen the chart is a Moebius map (``chart_matrix``), and its
  product with T_z (or T_{conj z}) has c = 0: the chart's jet is t + c u.
  So a_n = c^n g^(n)(t)/n!, stepped by :func:`taylor_tower` and streamed
  as (a_n, error bound) pairs; they carry the tail bound of a series g
  and form no order past the one a sum stops at.  The jet is their
  independent oracle (:func:`pm_definitional`).  A certified series
  enters no jet, which would drop its tail bound.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError, NonRepresentableError
from .exact import conj, is_exact, to_complex
from .functions import (BiPoly, EntireFn, ExpFn, Jet, PolyFn, moebius_matrix_jet,
                        taylor_tower)
from .sphere import MoebiusMap


def p_aux(z):
    """p(z) = (z - conj z)/(1 - |z|^2), the annulus chart pulled back to D."""
    zb = conj(z)
    return (z - zb) / (1 - z * zb)


def q_aux(z):
    """q(z) = |1 - z|^2 / (1 - |z|^2), the punctured-disk chart pulled back."""
    zb = conj(z)
    return (1 - z) * (1 - zb) / (1 - z * zb)


def _check_disk(z):
    if abs(to_complex(z)) >= 1:
        raise DomainError("point must lie in the open unit disk")


def _check_order(n):
    if n < 0:
        raise ValueError("derivative order must be >= 0")


def _scalar(a):
    """A tower entry as a Python scalar (numpy hands out complex128)."""
    return a if is_exact(a) else complex(a)


# ---------------------------------------------------------------------------
# exact polynomial path
# ---------------------------------------------------------------------------


def pm_step(en: BiPoly, n: int, slot: str) -> BiPoly:
    """E_{n+1} from E_n = D^n f/n!: [(1 - zw) d_z E_n - n w E_n]/(n + 1).

    With slot "w" the roles of z and w swap, which steps Dbar^n f/n!.  Per
    monomial a z^i w^j the bracket gives a i z^{i-1} w^j - a (i + n) z^i w^{j+1},
    so it is one pass over the terms; the BiPoly constructor merges equal
    exponents and drops the zero coefficients of terms constant in the slot.
    Each merged coefficient is then divided by n + 1: exactly, through
    Fraction(1, n + 1), when the coefficients are exact, else in floating
    point.  The E_n of a polynomial with integer coefficients are integer."""
    if slot not in ("z", "w"):
        raise ValueError("slot must be 'z' or 'w'")
    terms = []
    for (i, j), a in en.coeffs.items():
        if slot == "z":
            terms += [((i - 1, j), a * i), ((i, j + 1), a * -(i + n))]
        else:
            terms += [((i, j - 1), a * j), ((i + 1, j), a * -(j + n))]
    out = BiPoly(terms)
    c = out.coeffs
    if c and is_exact(next(iter(c.values()))):
        inv = Fraction(1, n + 1)
        out.coeffs = {k: a * inv for k, a in c.items()}
    else:
        m = n + 1
        out.coeffs = {k: a / m for k, a in c.items()}
    return out


def _tower_to(tower: list, n: int, slot: str) -> BiPoly:
    """tower[n], first extending tower = [E_0, E_1, ...] one step at a time."""
    _check_order(n)
    while len(tower) <= n:
        tower.append(pm_step(tower[-1], len(tower) - 1, slot))
    return tower[n]


def pm_bipoly(f: BiPoly, n: int) -> BiPoly:
    """D^n of a polynomial disk function, as an exact BiPoly.

    n! E_n, where E_n comes from n steps of :func:`pm_step`.  Equal to the
    closed form (1 - zw) d_z^n [ (1 - zw)^{n-1} F ] for n >= 1."""
    return _tower_to([f], n, "z") * math.factorial(n)


def pm_bar_bipoly(f: BiPoly, n: int) -> BiPoly:
    """Dbar^n of a polynomial disk function: the same steps with the
    Wirtinger derivative acting on the antiholomorphic slot."""
    return _tower_to([f], n, "w") * math.factorial(n)


# ---------------------------------------------------------------------------
# disk-function variants
# ---------------------------------------------------------------------------


def _matmul(m, n):
    """The 2x2 product m n of matrices (a, b, c, d): the Moebius map m o n."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _ambient(z, bar):
    """The matrix of T_z, or of T_{conj z} with ``bar``, and the value
    frozen in the other slot."""
    zb = conj(z)
    return ((1, zb, z, 1), z) if bar else ((1, z, zb, 1), zb)


class DiskFunction:
    """Common surface of the disk-function variants.

    A variant implements ``value`` and ``moebius_eval_jet``, the one
    description of its towers.  The towers of Taylor coefficients
    D^n f(z)/n! and Dbar^n f(z)/n! are then read off one definitional jet
    each, its Moebius map in the holomorphic or in the antiholomorphic
    slot, and everything else derives from ``_sequence``."""

    def value(self, z):
        raise NotImplementedError

    def moebius_eval_jet(self, m, w0, order: int, bar: bool = False) -> Jet:
        """Jet of u -> F(M(u), w0), or with ``bar`` of u -> F(w0, M(u)):
        the bivariate extension F(Z, W) with the Moebius map M(u) =
        (au + b)/(cu + d), m = (a, b, c, d), in the holomorphic slot (the
        antiholomorphic one with ``bar``) and the scalar w0 frozen in the
        other."""
        raise NotImplementedError

    def ambient_jet(self, z, order: int, bar: bool = False) -> Jet:
        """Jet of u -> F(T_z(u), conj z), or with ``bar`` of
        u -> F(z, T_{conj z}(u)); its n-th coefficient is D^n f(z)/n!, or
        Dbar^n f(z)/n!, by definition.  T_z(u) = (u + z)/(zb u + 1)."""
        m, w0 = _ambient(z, bar)
        return self.moebius_eval_jet(m, w0, order, bar)

    def _sequence(self, nmax, z, start, bar):
        """D^n f(z)/n!, or Dbar^n f(z)/n! with ``bar``, for n = start..nmax,
        read off one jet of order nmax: a complex array for a float z, a
        list for an exact z."""
        _check_disk(z)
        return self.ambient_jet(z, nmax, bar).coeffs[start:]

    def _with_bound(self, n, z, bar):
        _check_order(n)
        a = next(iter(self._sequence(n, z, n, bar)))
        # a jet coefficient carries no truncation error; a stream yields pairs
        return a if isinstance(a, tuple) else (_scalar(a), 0.0)

    def pm_sequence(self, nmax: int, z, start: int = 0):
        """D^n f(z)/n! for n = start..nmax."""
        return self._sequence(nmax, z, start, False)

    def pm_bar_sequence(self, nmax: int, z, start: int = 0):
        """Dbar^n f(z)/n! for n = start..nmax."""
        return self._sequence(nmax, z, start, True)

    def pm_with_bound(self, n, z):
        """(D^n f(z)/n!, error bound)."""
        return self._with_bound(n, z, False)

    def pm_bar_with_bound(self, n, z):
        return self._with_bound(n, z, True)

    def pm(self, n: int, z):
        """D^n f(z)."""
        return math.factorial(n) * self.pm_with_bound(n, z)[0]

    def pm_bar(self, n: int, z):
        """Dbar^n f(z)."""
        return math.factorial(n) * self.pm_bar_with_bound(n, z)[0]


class PolyDisk(DiskFunction):
    """z -> F(z, conj z) for a bivariate polynomial F; ``pm_poly`` and
    ``pm_bar_poly`` are its exact symbolic towers."""

    __slots__ = ("f", "_pm_tower", "_pm_bar_tower")

    def __init__(self, f: BiPoly):
        self.f = f
        # [E_0, E_1, ...] with E_n = D^n F/n!, extended on demand
        self._pm_tower = [f]
        self._pm_bar_tower = [f]

    def value(self, z):
        return self.f.eval_diag(z)

    def pm_poly(self, n: int) -> BiPoly:
        """E_n = D^n F/n! as a polynomial in (z, w)."""
        return _tower_to(self._pm_tower, n, "z")

    def pm_bar_poly(self, n: int) -> BiPoly:
        return _tower_to(self._pm_bar_tower, n, "w")

    def moebius_eval_jet(self, m, w0, order, bar=False):
        return self.f.eval_jet(moebius_matrix_jet(m, order), w0, "w" if bar else "z")


def _entire_eval_jet(g: EntireFn, t: Jet) -> Jet:
    if isinstance(g, PolyFn):
        return g.eval_jet(t)
    if isinstance(g, ExpFn):
        return (t * g.scale).exp() * g.amp
    # a SeriesFn too: a jet of its stored part would drop its tail bound
    raise NonRepresentableError(f"cannot build jets of {type(g).__name__}")


class _Composed(DiskFunction):
    """g o chart for an entire g.  With one slot frozen at w0 the chart is
    the Moebius map ``chart_matrix(w0, bar)`` of the other; times T_z (or
    T_{conj z}) its c entry is 0, so u -> chart is t + c u, and the towers
    are c^n g^(n)(t)/n!, the Taylor coefficients of u -> g(t + c u)."""

    __slots__ = ("g",)

    def __init__(self, g: EntireFn):
        self.g = g

    def _affine(self, z, bar):
        """(t, c) with t + c u the chart on T_z(u), or on T_{conj z}(u)."""
        m, w0 = _ambient(z, bar)
        a, b, _, d = _matmul(self.chart_matrix(w0, bar), m)
        return b / d, a / d

    def value(self, z):
        return self.g.eval(self._affine(z, False)[0])[0]

    def _sequence(self, nmax, z, start, bar):
        # streamed: a tower term is formed only when the sum asks for it, so
        # a SeriesFn g is never asked for a derivative the sum does not use
        _check_disk(z)
        t, c = self._affine(z, bar)
        towers = itertools.islice(taylor_tower(self.g, c), start, nmax + 1)
        return (gn.eval(t) for gn in towers)

    def moebius_eval_jet(self, m, w0, order, bar=False):
        return _entire_eval_jet(self.g, moebius_matrix_jet(
            _matmul(self.chart_matrix(w0, bar), m), order))


class ComposedP(_Composed):
    """g o p, the disk lift of an annulus-algebra element."""

    __slots__ = ()

    @staticmethod
    def chart_matrix(w0, bar=False):
        """p(Z, w0) = (Z - w0)/(1 - Z w0); p is antisymmetric, so with
        ``bar`` p(w0, W) = (-W + w0)/(-w0 W + 1)."""
        return (-1, w0, -w0, 1) if bar else (1, -w0, -w0, 1)


class ComposedQ(_Composed):
    """g o q, the disk lift of a punctured-disk-algebra element."""

    __slots__ = ()

    @staticmethod
    def chart_matrix(w0, bar=False):
        """q(Z, w0) = (1 - Z)(1 - w0)/(1 - Z w0); q is symmetric, so both
        slots have this matrix."""
        return (w0 - 1, 1 - w0, -w0, 1)


class MoebiusPullback(DiskFunction):
    """f o phi for phi in Aut(D)."""

    __slots__ = ("inner", "phi")

    def __init__(self, inner: DiskFunction, phi: MoebiusMap):
        if phi.domain != "D":
            raise DomainError("pullback requires a map designated Aut(D)")
        self.inner = inner
        self.phi = phi

    def value(self, z):
        return self.inner.value(self.phi.apply(z))

    def moebius_eval_jet(self, m, w0, order, bar=False):
        # the induced map of (Z, W) is (phi(Z), psi(W)), where
        # psi(w) = 1/phi(1/w) = (dw + c)/(bw + a)
        p = self.phi
        phi, psi = (p.a, p.b, p.c, p.d), (p.d, p.c, p.b, p.a)
        outer, (a, b, c, d) = (psi, phi) if bar else (phi, psi)
        den = c * w0 + d
        if den == 0:
            raise DomainError("pullback ambient hits a pole of the induced map")
        return self.inner.moebius_eval_jet(_matmul(outer, m), (a * w0 + b) / den,
                                           order, bar)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def pm_definitional(f: DiskFunction, n: int, z):
    """Independent oracle for the closed-form towers: D^n f(z) as n! times
    coefficient n of the order-n jet of u -> f(T_z(u)) at 0."""
    _check_order(n)
    _check_disk(z)
    return math.factorial(n) * f.ambient_jet(z, n).tolist(n)[0]


def pm_bar_definitional(f: DiskFunction, n: int, z):
    """Dbar^n f(z) the same way, the jet in the antiholomorphic slot."""
    _check_order(n)
    _check_disk(z)
    return math.factorial(n) * f.ambient_jet(z, n, bar=True).tolist(n)[0]
