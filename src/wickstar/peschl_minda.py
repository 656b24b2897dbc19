"""Peschl-Minda derivatives on the unit disk, carried as Taylor coefficients.

D^n f(z) = d_u^n F(T_z(u), conj z)|_0, T_z(u) = (z + u)/(1 + conj(z) u),
grows like n!, so every tower carries a_n = D^n f(z)/n!, the n-th Taylor
coefficient of u -> F(T_z(u), conj z).  D^n f appears only at the public
edge (``pm``/``pm_bar``, :func:`pm_bipoly`, :func:`pm_definitional`), which
multiplies by n!.  ``pm_sequence`` and ``pm_bar_sequence`` give the pairs
(a_n, error bound) for n = start..nmax, by default read off one truncated
Taylor jet of order nmax of that function (conjugated for Dbar):

* ``PolyDisk``      -- F(z, conj z) for a bivariate polynomial F.  Its
  exact symbolic towers E_n = D^n F/n! are stepped one order at a time by
  E_{n+1} = [(1 - zw) d_z E_n - n w E_n]/(n + 1)   (w standing for conj z),
  and the same step with the slots swapped for Dbar.  It holds because
  d_z T_z = (1 + wu)/(1 - zw) d_u T_z; Leibniz on the factor (1 + wu)
  gives the term -n w E_n.  They serve the symbolic products and are the
  independent oracle of the jet towers.
* ``MoebiusPullback`` -- precomposition with a disk automorphism.
* ``ComposedP``     -- g(p(z)) with p(z) = (z - conj z)/(1 - |z|^2), and
* ``ComposedQ``     -- g(q(z)) with q(z) = |1-z|^2 / (1 - |z|^2): closed
  forms a_n = c^n g^(n)(chart)/n!, stepped by :func:`taylor_tower` and
  streamed, so they carry the tail bound of a series g and form no order
  past the one a sum stops at.  The jet is their independent oracle
  (:func:`pm_definitional`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError, NonRepresentableError
from .exact import conj, is_exact, to_complex
from .functions import (BiPoly, EntireFn, ExpFn, Jet, PolyFn, SeriesFn, moebius_jet,
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


class DiskFunction:
    """Common surface of the disk-function variants.

    A variant implements ``value``, ``conj_fn`` and ``ambient_eval_jet``;
    its towers of Taylor coefficients D^n f(z)/n! and Dbar^n f(z)/n! then
    come from one definitional jet each, and everything else derives from
    ``pm_sequence`` and ``pm_bar_sequence``."""

    def value(self, z):
        raise NotImplementedError

    def pm_sequence(self, nmax: int, z, start: int = 0):
        """(D^n f(z)/n!, error bound) for n = start..nmax."""
        # one jet of order nmax yields every coefficient at once
        _check_disk(z)
        return [(a, 0.0) for a in self.ambient_jet(z, nmax).tolist(start)]

    def pm_bar_sequence(self, nmax: int, z, start: int = 0):
        """(Dbar^n f(z)/n!, error bound) for n = start..nmax."""
        _check_disk(z)
        return [(conj(a), 0.0) for a in self.conj_fn().ambient_jet(z, nmax).tolist(start)]

    def pm_with_bound(self, n, z):
        """(D^n f(z)/n!, error bound)."""
        _check_order(n)
        return next(iter(self.pm_sequence(n, z, start=n)))

    def pm_bar_with_bound(self, n, z):
        _check_order(n)
        return next(iter(self.pm_bar_sequence(n, z, start=n)))

    def pm(self, n: int, z):
        """D^n f(z)."""
        return math.factorial(n) * self.pm_with_bound(n, z)[0]

    def pm_bar(self, n: int, z):
        """Dbar^n f(z)."""
        return math.factorial(n) * self.pm_bar_with_bound(n, z)[0]

    def conj_fn(self) -> "DiskFunction":
        raise NotImplementedError

    def ambient_eval_jet(self, zjet: Jet, w0) -> Jet:
        """Evaluate the bivariate extension F(Z, W) with a jet in the
        holomorphic slot and the scalar w0 frozen in the other slot."""
        raise NotImplementedError

    def ambient_jet(self, z, order: int) -> Jet:
        """Jet of u -> F(T_z(u), conj z); its n-th coefficient is
        D^n f(z)/n! by definition."""
        # T_z(u) = (u + z)/(zb u + 1) = z + (1 - |z|^2) u / (1 + zb u),
        # whose coefficients past the constant are (1 - |z|^2)(-zb)^{k-1}
        zb = conj(z)
        coeffs = [z]
        c = 1 - z * zb
        for _ in range(order):
            coeffs.append(c)
            c = c * -zb
        return self.ambient_eval_jet(Jet(coeffs), zb)


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

    def conj_fn(self):
        return PolyDisk(self.f.swap_conj())

    def ambient_eval_jet(self, zjet, w0):
        return self.f.eval_jet(zjet, w0)


def _entire_eval_jet(g: EntireFn, t: Jet) -> Jet:
    if isinstance(g, PolyFn):
        return g.eval_jet(t)
    if isinstance(g, ExpFn):
        return (t * g.scale).exp() * g.amp
    if isinstance(g, SeriesFn):
        # oracle-only path: Horner of the stored part, tail not certified
        acc = Jet.constant(t.coeffs[0] * 0 + g.coeffs[-1], t.order)
        for a in reversed(g.coeffs[:-1]):
            acc = acc * t + a
        return acc
    raise NonRepresentableError(f"cannot build jets of {type(g).__name__}")


class _Composed(DiskFunction):
    """g o chart for an entire g.  Its towers are c^n g^(n)(chart z)/n!:
    the n-th Taylor coefficient of u -> g(chart z + c u), where c is the
    factor the chart contributes per order of D (or of Dbar)."""

    __slots__ = ("g",)

    def __init__(self, g: EntireFn):
        self.g = g

    def value(self, z):
        return self.g.eval(self.chart(z))[0]

    def pm_sequence(self, nmax, z, start=0):
        return self._sequence(nmax, z, start, bar=False)

    def pm_bar_sequence(self, nmax, z, start=0):
        return self._sequence(nmax, z, start, bar=True)

    def _sequence(self, nmax, z, start, bar):
        # streamed: a tower term is formed only when the sum asks for it, so
        # a SeriesFn g is never asked for a derivative the sum does not use
        _check_disk(z)
        t, towers = self.chart(z), taylor_tower(self.g, self.factor(z, bar))
        return (gn.eval(t) for gn in itertools.islice(towers, start, nmax + 1))

    def conj_fn(self):
        # conj(g o p) would need the entire function t -> conj(g(conj -t));
        # the closed-form towers make this unnecessary for derivatives.
        raise NonRepresentableError(f"conjugate of {type(self).__name__} is "
                                    "not representable; use pm_bar directly")


class ComposedP(_Composed):
    """g o p, the disk lift of an annulus-algebra element."""

    __slots__ = ()
    chart = staticmethod(p_aux)

    @staticmethod
    def factor(z, bar):
        zb = conj(z)
        return -(1 - z * z) / (1 - z * zb) if bar else (1 - zb * zb) / (1 - z * zb)

    def ambient_eval_jet(self, zjet, w0):
        return _entire_eval_jet(self.g, (zjet - w0) / (1 - zjet * w0))


class ComposedQ(_Composed):
    """g o q, the disk lift of a punctured-disk-algebra element."""

    __slots__ = ()
    chart = staticmethod(q_aux)

    @staticmethod
    def factor(z, bar):
        zb = conj(z)
        return -(1 - (z if bar else zb)) ** 2 / (1 - z * zb)

    def ambient_eval_jet(self, zjet, w0):
        return _entire_eval_jet(self.g, (1 - zjet) * (1 - w0) / (1 - zjet * w0))


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

    def conj_fn(self):
        return MoebiusPullback(self.inner.conj_fn(), self.phi)

    def ambient_eval_jet(self, zjet, w0):
        phi = self.phi
        zjet2 = moebius_jet(phi, zjet)
        # second slot of the induced Omega map: 1/phi(1/w) = (c + dw)/(a + bw)
        den = phi.a + phi.b * w0
        if den == 0:
            raise DomainError("pullback ambient hits the pole of 1/phi(1/w)")
        w02 = (phi.c + phi.d * w0) / den
        return self.inner.ambient_eval_jet(zjet2, w02)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def pm_derivative(f: DiskFunction, n: int, z):
    """D^n f(z); n = 0 returns the value."""
    _check_order(n)
    _check_disk(z)
    return f.value(z) if n == 0 else f.pm(n, z)


def pm_bar_derivative(f: DiskFunction, n: int, z):
    """Dbar^n f(z) = conj(D^n (conj f)(z))."""
    _check_order(n)
    _check_disk(z)
    return f.value(z) if n == 0 else f.pm_bar(n, z)


def pm_closed_form_p(g: EntireFn, n: int, z):
    """Closed-form pair (D^n (g o p)(z), Dbar^n (g o p)(z))."""
    fn = ComposedP(g)
    return fn.pm(n, z), fn.pm_bar(n, z)


def pm_closed_form_q(g: EntireFn, n: int, z):
    """Closed-form pair (D^n (g o q)(z), Dbar^n (g o q)(z))."""
    fn = ComposedQ(g)
    return fn.pm(n, z), fn.pm_bar(n, z)


def pm_definitional(f: DiskFunction, n: int, z):
    """Independent oracle for the closed-form towers: D^n f(z) as n! times
    coefficient n of the order-n jet of u -> f(T_z(u)) at 0."""
    _check_order(n)
    _check_disk(z)
    return math.factorial(n) * f.ambient_jet(z, n).tolist(n)[0]


def pm_bar_definitional(f: DiskFunction, n: int, z):
    return conj(math.factorial(n) * f.conj_fn().ambient_jet(z, n).tolist(n)[0])
