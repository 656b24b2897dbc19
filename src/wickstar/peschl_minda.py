"""Peschl-Minda derivatives on the unit disk, carried as Taylor coefficients.

D^n f(z) = d_u^n F(T_z(u), conj z)|_0, T_z(u) = (z + u)/(1 + conj(z) u),
grows like n!, so every tower carries a_n = D^n f(z)/n!, the n-th Taylor
coefficient of u -> F(T_z(u), conj z).  Dbar^n f(z)/n! is the n-th
coefficient of u -> F(z, T_{conj z}(u)): the same coefficients in the
antiholomorphic slot, with z frozen in the holomorphic one.  D^n f
appears only at the public edge (``pm``/``pm_bar``, :func:`pm_bipoly`),
which multiplies by n!.

A variant describes its towers once, by its Moebius matrices: the
closed-form tower ``_tower`` of the coefficients of u -> F(M(u), w0), or
with ``bar`` of u -> F(w0, M(u)), for the map M of a matrix (a, b, c, d),
one row per point of a batch.  T_z is (1, z, conj z, 1) and T_{conj z}
is (1, conj z, z, 1).  A variant multiplies the matrix of the map it puts
in front into the one it is handed: no operand is conjugated.  The
towers are read at float points (``pm_tower``, and ``pm_sequence``/
``pm_bar_sequence`` for one point); an exact point is read as its float.
The arrays are formed in :mod:`wickstar.towers`, which the ``_tower``
methods import on their first call; the exact symbolic towers below need
no numpy.

The closed form: write M(u) = M(0) + delta v with v = u/(1 - r u),
M(0) = b/d, r = -c/d and delta = det/d^2.  For a polynomial p in the
varying slot, p(M(u)) = sum_k e_k delta^k v^k, e_k the Taylor coefficients
of p at M(0) (a binomial shift), so
a_n = sum_{k=1}^{deg} e_k delta^k C(n-1, k-1) r^{n-k}  (n >= 1).

* ``PolyDisk``      -- F(z, conj z) for a bivariate polynomial F, which
  collapses to a polynomial in the slot.  Its exact symbolic towers
  E_n = D^n F/n! are stepped one order at a time by
  E_{n+1} = [(1 - zw) d_z E_n - n w E_n]/(n + 1)   (w standing for conj z),
  and the same step with the slots swapped for Dbar.  It holds because
  d_z T_z = (1 + wu)/(1 - zw) d_u T_z; Leibniz on the factor (1 + wu)
  gives the term -n w E_n.  They serve the symbolic products and are an
  independent oracle of the float towers.
* ``MoebiusPullback`` -- precomposition with a disk automorphism phi,
  which acts on (Z, W) as (phi(Z), psi(W)) with psi = 1/phi(1/.): the
  map of the slot joins the matrix, and the frozen value moves by the
  other.
* ``ComposedP``     -- g(p(z)) with p(z) = (z - conj z)/(1 - |z|^2), and
* ``ComposedQ``     -- g(q(z)) with q(z) = |1-z|^2 / (1 - |z|^2).  With
  one slot frozen the chart is a Moebius map (``chart_matrix``), and its
  product with T_z (or T_{conj z}) has c = 0, so r = 0: the chart is
  t + delta u and a_n = delta^n g^(n)(t)/n!, the entire-function tower
  of :func:`wickstar.towers.entire_tower`, shared with the surface
  products.  A series g carries its tail bound into every entry, and a
  row faults where the series cannot give an order.  Under a pullback by
  phi the ambient map is phi o T_z = T_{phi(z)} o rotation, so the chart
  is again affine: r is 0 up to rounding, and the tower, certificate
  included, is the same entire-function tower at (t, delta).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError
from .exact import conj, is_exact, to_complex
from .functions import BiPoly, EntireFn
from .sphere import _OUTSIDE_DISK, MoebiusMap, _matmul

if TYPE_CHECKING:
    from .towers import Tower


def p_aux(z):
    """p(z) = (z - conj z)/(1 - |z|^2), the annulus chart pulled back to D."""
    zb = conj(z)
    return (z - zb) / (1 - z * zb)


def q_aux(z):
    """q(z) = |1 - z|^2 / (1 - |z|^2), the punctured-disk chart pulled back."""
    zb = conj(z)
    return (1 - z) * (1 - zb) / (1 - z * zb)


def _check_order(n):
    if n < 0:
        raise ValueError("derivative order must be >= 0")


# ---------------------------------------------------------------------------
# exact polynomial path
# ---------------------------------------------------------------------------


def pm_step(en: BiPoly, n: int, slot: str) -> BiPoly:
    """E_{n+1} from E_n = D^n f/n!: [(1 - zw) d_z E_n - n w E_n]/(n + 1).

    With slot "w" the roles of z and w swap, which steps Dbar^n f/n!.  Per
    monomial a z^i w^j the bracket gives a i z^{i-1} w^j - a (i + n) z^i w^{j+1},
    so it is one pass over the terms, which fills the output dict as it
    goes: it skips zero products, merges equal exponents and drops the sums
    that cancel to zero, in the order and with the arithmetic of the BiPoly
    constructor.  Each merged coefficient is then divided by n + 1: exactly,
    through Fraction(1, n + 1), when the coefficients are exact, else in
    floating point.  The E_n of a polynomial with integer coefficients are
    integer."""
    if slot not in ("z", "w"):
        raise ValueError("slot must be 'z' or 'w'")
    d = {}
    get = d.get
    for (i, j), a in en.coeffs.items():
        if slot == "z":
            k1, a1, k2, a2 = (i - 1, j), a * i, (i, j + 1), a * -(i + n)
        else:
            k1, a1, k2, a2 = (i, j - 1), a * j, (i + 1, j), a * -(j + n)
        for key, val in ((k1, a1), (k2, a2)):
            if val == 0:
                continue
            cur = get(key)
            if cur is not None:
                val = cur + val
                if val == 0:
                    del d[key]
                    continue
            d[key] = val
    out = BiPoly()
    if d and is_exact(next(iter(d.values()))):
        inv = Fraction(1, n + 1)
        out.coeffs = {k: a * inv for k, a in d.items()}
    else:
        m = n + 1
        out.coeffs = {k: a / m for k, a in d.items()}
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


def _ambient(z, bar):
    """The matrix of T_z, or of T_{conj z} with ``bar``, and the value
    frozen in the other slot."""
    zb = conj(z)
    return ((1, zb, z, 1), z) if bar else ((1, z, zb, 1), zb)


def _chart(m):
    """(M(0), delta, r) of the Moebius map M of m = (a, b, c, d): with
    v = u/(1 - r u), M(u) = M(0) + delta v, where M(0) = b/d, r = -c/d and
    delta = det/d^2 = (a + b r)/d."""
    a, b, c, d = m
    r = -c / d
    return b / d, (a + b * r) / d, r


class DiskFunction:
    """Common surface of the disk-function variants.

    A variant implements ``value`` and ``_tower``, the one description of
    its towers: the Taylor coefficients D^n f(z)/n! and Dbar^n f(z)/n!, in
    closed form over a batch of points (``pm_tower``).  The per-point API
    reads one row of it."""

    def value(self, z):
        raise NotImplementedError

    def _tower(self, frames: list, width: int, bar: bool) -> Tower:
        """Coefficients 0..width-1 of u -> F(M(u), w0), or with ``bar`` of
        u -> F(w0, M(u)), at each frame (m, w0) of complex scalars: the
        bivariate extension F(Z, W) with the Moebius map M(u) =
        (au + b)/(cu + d), m = (a, b, c, d), in the holomorphic slot (the
        antiholomorphic one with ``bar``) and w0 frozen in the other, in
        closed form, one row per frame."""
        raise NotImplementedError

    def pm_tower(self, nmax: int, zs, bar: bool = False) -> Tower:
        """D^n f(z)/n!, or Dbar^n f(z)/n! with ``bar``, for n = 0..nmax at
        each float point of the 1-D sequence zs: one row per point, in
        closed form (:meth:`_tower`), the rows of a lift faulting where its
        series cannot give an order.  The row of a point outside the disk
        faults at order 0 (and is built at 0), so a batch raises what
        its first failing point would raise alone."""
        zs = [to_complex(z) for z in zs]
        outside = [not abs(z) < 1 for z in zs]
        tower = self._tower([_ambient(0j if out else z, bar) for z, out in zip(zs, outside)],
                            nmax + 1, bar)
        if not any(outside):
            return tower
        faults = tower.faults or [None] * len(zs)
        return tower._replace(faults=[
            (0, DomainError(_OUTSIDE_DISK)) if out else fault
            for out, fault in zip(outside, faults)])

    def _row(self, nmax, z, bar):
        """(values, bounds) of orders 0..nmax at the one point z
        (:func:`wickstar.towers.one_row`)."""
        _check_order(nmax)
        import wickstar.towers as towers
        return towers.one_row(self, nmax, z, bar)

    def pm_sequence(self, nmax: int, z):
        """D^n f(z)/n! for n = 0..nmax."""
        return self._row(nmax, z, False)[0]

    def pm_bar_sequence(self, nmax: int, z):
        """Dbar^n f(z)/n! for n = 0..nmax."""
        return self._row(nmax, z, True)[0]

    def pm_with_bound(self, n, z):
        """(D^n f(z)/n!, error bound)."""
        values, bounds = self._row(n, z, False)
        return complex(values[n]), float(bounds[n])

    def pm_bar_with_bound(self, n, z):
        values, bounds = self._row(n, z, True)
        return complex(values[n]), float(bounds[n])

    def pm(self, n: int, z):
        """D^n f(z)."""
        return math.factorial(n) * self.pm_with_bound(n, z)[0]

    def pm_bar(self, n: int, z):
        """Dbar^n f(z)."""
        return math.factorial(n) * self.pm_bar_with_bound(n, z)[0]


class PolyDisk(DiskFunction):
    """z -> F(z, conj z) for a bivariate polynomial F; ``pm_poly`` and
    ``pm_bar_poly`` are its exact symbolic towers."""

    __slots__ = ("f", "_pm_tower", "_pm_bar_tower", "_tables")

    def __init__(self, f: BiPoly):
        self.f = f
        # [E_0, E_1, ...] with E_n = D^n F/n!, extended on demand
        self._pm_tower = [f]
        self._pm_bar_tower = [f]
        # bar -> the float term table of F with the varying slot first,
        # two (terms, rows) arrays (:func:`wickstar.towers.bipoly_table`),
        # built on first use
        self._tables = {}

    def value(self, z):
        return self.f.eval_diag(z)

    def pm_poly(self, n: int) -> BiPoly:
        """E_n = D^n F/n! as a polynomial in (z, w)."""
        return _tower_to(self._pm_tower, n, "z")

    def pm_bar_poly(self, n: int) -> BiPoly:
        return _tower_to(self._pm_bar_tower, n, "w")

    def _tower(self, frames, width, bar):
        # the Taylor coefficients of u -> F(M(0) + delta u, w0), composed
        # with v = u/(1 - r u)
        import wickstar.towers as towers
        table = self._tables.get(bar)
        if table is None:
            table = self._tables[bar] = towers.bipoly_table(self.f.coeffs, bar)
        return towers.moebius_tower(table, [_chart(m) for m, _ in frames],
                                    [w for _, w in frames], width)


class _Composed(DiskFunction):
    """g o chart for an entire g.  With one slot frozen at w0 the chart is
    the Moebius map ``chart_matrix(w0, bar)`` of the other; times T_z (or
    T_{conj z}) its c entry is 0, and times a pullback's phi o T_z =
    T_{phi(z)} o rotation it is 0 up to rounding, so u -> chart is t + c u,
    and the towers are c^n g^(n)(t)/n!, the Taylor coefficients of
    u -> g(t + c u)."""

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

    def _tower(self, frames, width, bar):
        # the Taylor coefficients of u -> g(M(0) + delta u); r is 0, or
        # rounding under a pullback
        import wickstar.towers as towers
        t, delta, _ = towers.chart_rows([_chart(_matmul(self.chart_matrix(w0, bar), m))
                                         for m, w0 in frames])
        return towers.entire_tower(self.g, t, delta, width)


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

    def _move(self, m, w0, bar, phi):
        """(outer m, moved w0): the induced map of (Z, W) is (phi(Z), psi(W)),
        psi(w) = 1/phi(1/w) = (dw + c)/(bw + a), for phi = (a, b, c, d);
        the map of the varying slot joins the matrix, and the frozen value
        moves by the other."""
        psi = phi[::-1]
        outer, (a, b, c, d) = (psi, phi) if bar else (phi, psi)
        den = c * w0 + d
        if den == 0:
            raise DomainError("pullback ambient hits a pole of the induced map")
        return _matmul(outer, m), (a * w0 + b) / den

    def _tower(self, frames, width, bar):
        p = self.phi
        phi = tuple(to_complex(x) for x in (p.a, p.b, p.c, p.d))
        return self.inner._tower([self._move(m, w0, bar, phi) for m, w0 in frames],
                                 width, bar)
