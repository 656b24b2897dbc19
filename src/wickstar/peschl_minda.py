"""Peschl-Minda derivatives on the unit disk.

Four function variants are supported:

* ``PolyDisk``      -- F(z, conj z) for a bivariate polynomial F; the
  derivatives are computed exactly, one order at a time, by the step
  D^{n+1} f = (1 - zw) d_z D^n f - n w D^n f   (w standing for conj z),
  and the same step with the slots swapped for Dbar.  It holds because
  D^n f(z) = d_u^n F(T_z(u), w)|_0 with T_z(u) = (z + u)/(1 + wu), and
  d_z T_z = (1 + wu)/(1 - zw) d_u T_z; Leibniz on the factor (1 + wu)
  gives the term -n w D^n f.
* ``ComposedP``     -- g(p(z)) with p(z) = (z - conj z)/(1 - |z|^2);
  closed-form derivatives.
* ``ComposedQ``     -- g(q(z)) with q(z) = |1-z|^2 / (1 - |z|^2);
  closed-form derivatives.
* ``MoebiusPullback`` -- precomposition with a disk automorphism,
  evaluated through truncated Taylor jets of the definitional formula
  D^n f(z) = d^n (f o T_z)(0), T_z(u) = (z+u)/(1+conj(z) u).

The jet route doubles as an independent oracle for every variant
(:func:`pm_definitional`).
"""

from __future__ import annotations

from .errors import DomainError, NonRepresentableError
from .exact import conj, to_complex
from .functions import BiPoly, EntireFn, ExpFn, Jet, PolyFn, SeriesFn, moebius_jet
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


def pm_step(dn: BiPoly, n: int, slot: str) -> BiPoly:
    """D^{n+1} f from D^n f: (1 - zw) d_z D^n f - n w D^n f.

    With slot "w" the roles of z and w swap, which steps Dbar^n f.  Per
    monomial a z^i w^j the step gives a i z^{i-1} w^j - a (i + n) z^i w^{j+1},
    so it is one pass over the terms; the BiPoly constructor merges equal
    exponents and drops the zero coefficients of terms constant in the slot."""
    if slot not in ("z", "w"):
        raise ValueError("slot must be 'z' or 'w'")
    terms = []
    for (i, j), a in dn.coeffs.items():
        if slot == "z":
            terms += [((i - 1, j), a * i), ((i, j + 1), a * -(i + n))]
        else:
            terms += [((i, j - 1), a * j), ((i + 1, j), a * -(j + n))]
    return BiPoly(terms)


def _tower_to(tower: list, n: int, slot: str) -> BiPoly:
    """tower[n], first extending tower = [f, D f, ...] one step at a time."""
    _check_order(n)
    while len(tower) <= n:
        tower.append(pm_step(tower[-1], len(tower) - 1, slot))
    return tower[n]


def pm_bipoly(f: BiPoly, n: int) -> BiPoly:
    """D^n of a polynomial disk function, as an exact BiPoly.

    Built by n steps D^{k+1} f = (1 - zw) d_z D^k f - k w D^k f
    (:func:`pm_step`), which hold because d_z T_z = (1 + wu)/(1 - zw) d_u T_z
    for T_z(u) = (z + u)/(1 + wu); Leibniz's rule on the factor (1 + wu)
    gives the term -k w D^k f.  Equal to the closed form
    (1 - zw) d_z^n [ (1 - zw)^{n-1} F ] for n >= 1."""
    return _tower_to([f], n, "z")


def pm_bar_bipoly(f: BiPoly, n: int) -> BiPoly:
    """Dbar^n of a polynomial disk function: the same steps with the
    Wirtinger derivative acting on the antiholomorphic slot."""
    return _tower_to([f], n, "w")


# ---------------------------------------------------------------------------
# disk-function variants
# ---------------------------------------------------------------------------


class DiskFunction:
    """Common surface of the disk-function variants."""

    def value(self, z):
        raise NotImplementedError

    def pm(self, n: int, z):
        """D^n f(z)."""
        return self.pm_with_bound(n, z)[0]

    def pm_bar(self, n: int, z):
        """Dbar^n f(z)."""
        return self.pm_bar_with_bound(n, z)[0]

    def pm_with_bound(self, n, z):
        raise NotImplementedError

    def pm_bar_with_bound(self, n, z):
        raise NotImplementedError

    def conj_fn(self) -> "DiskFunction":
        raise NotImplementedError

    def pm_sequence(self, nmax: int, z, start: int = 0):
        """[(D^n f(z), bound) for n = start..nmax]; variants may batch this."""
        return [self.pm_with_bound(n, z) for n in range(start, nmax + 1)]

    def pm_bar_sequence(self, nmax: int, z, start: int = 0):
        return [self.pm_bar_with_bound(n, z) for n in range(start, nmax + 1)]

    def ambient_eval_jet(self, zjet: Jet, w0) -> Jet:
        """Evaluate the bivariate extension F(Z, W) with a jet in the
        holomorphic slot and the scalar w0 frozen in the other slot."""
        raise NotImplementedError

    def ambient_jet(self, z, order: int) -> Jet:
        """Jet of u -> F(T_z(u), conj z); its n-th coefficient times n!
        is D^n f(z) by definition."""
        # T_z(u) = (u + z)/(zb u + 1) = z + (1 - |z|^2) u / (1 + zb u),
        # whose coefficients past the constant are (1 - |z|^2)(-zb)^{k-1}
        zb = conj(z)
        coeffs = [z]
        c = 1 - z * zb
        for _ in range(order):
            coeffs.append(c)
            c = c * -zb
        return self.ambient_eval_jet(Jet(coeffs), zb)

    def compose_moebius(self, phi: MoebiusMap) -> "DiskFunction":
        return MoebiusPullback(self, phi)


class PolyDisk(DiskFunction):
    """z -> F(z, conj z) for a bivariate polynomial F; exact derivatives."""

    __slots__ = ("f", "_pm_tower", "_pm_bar_tower")

    def __init__(self, f: BiPoly):
        self.f = f
        # [D^0 f, D^1 f, ...], extended on demand
        self._pm_tower = [f]
        self._pm_bar_tower = [f]

    def value(self, z):
        return self.f.eval_diag(z)

    def pm_poly(self, n: int) -> BiPoly:
        return _tower_to(self._pm_tower, n, "z")

    def pm_bar_poly(self, n: int) -> BiPoly:
        return _tower_to(self._pm_bar_tower, n, "w")

    def pm_with_bound(self, n, z):
        _check_order(n)
        _check_disk(z)
        return self.pm_poly(n).eval_diag(z), 0.0

    def pm_bar_with_bound(self, n, z):
        _check_order(n)
        _check_disk(z)
        return self.pm_bar_poly(n).eval_diag(z), 0.0

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


class ComposedP(DiskFunction):
    """g o p, the disk lift of an annulus-algebra element."""

    __slots__ = ("g",)

    def __init__(self, g: EntireFn):
        self.g = g

    def value(self, z):
        return self.g.eval(p_aux(z))[0]

    def pm_with_bound(self, n, z):
        _check_order(n)
        _check_disk(z)
        zb = conj(z)
        factor = ((1 - zb * zb) / (1 - z * zb)) ** n
        val, bound = self.g.derivative(n).eval(p_aux(z))
        return factor * val, abs(factor) * bound

    def pm_bar_with_bound(self, n, z):
        _check_order(n)
        _check_disk(z)
        factor = (-1) ** n * ((1 - z * z) / (1 - z * conj(z))) ** n
        val, bound = self.g.derivative(n).eval(p_aux(z))
        return factor * val, abs(factor) * bound

    def conj_fn(self):
        # conj(g o p) would need the entire function t -> conj(g(conj -t));
        # the closed forms above make this unnecessary for derivatives.
        raise NonRepresentableError("conjugate of a composed-p function is "
                                    "not representable; use pm_bar directly")

    def ambient_eval_jet(self, zjet, w0):
        t = (zjet - w0) / (1 - zjet * w0)
        return _entire_eval_jet(self.g, t)


class ComposedQ(DiskFunction):
    """g o q, the disk lift of a punctured-disk-algebra element."""

    __slots__ = ("g",)

    def __init__(self, g: EntireFn):
        self.g = g

    def value(self, z):
        return self.g.eval(q_aux(z))[0]

    def pm_with_bound(self, n, z):
        _check_order(n)
        _check_disk(z)
        zb = conj(z)
        factor = (-1) ** n * (1 - zb) ** (2 * n) / (1 - z * zb) ** n
        val, bound = self.g.derivative(n).eval(q_aux(z))
        return factor * val, abs(factor) * bound

    def pm_bar_with_bound(self, n, z):
        _check_order(n)
        _check_disk(z)
        zb = conj(z)
        factor = (-1) ** n * (1 - z) ** (2 * n) / (1 - z * zb) ** n
        val, bound = self.g.derivative(n).eval(q_aux(z))
        return factor * val, abs(factor) * bound

    def conj_fn(self):
        raise NonRepresentableError("conjugate of a composed-q function is "
                                    "not representable; use pm_bar directly")

    def ambient_eval_jet(self, zjet, w0):
        t = (1 - zjet) * (1 - w0) / (1 - zjet * w0)
        return _entire_eval_jet(self.g, t)


class MoebiusPullback(DiskFunction):
    """f o phi for phi in Aut(D); derivatives via the definitional jets."""

    __slots__ = ("inner", "phi")

    def __init__(self, inner: DiskFunction, phi: MoebiusMap):
        if phi.domain != "D":
            raise DomainError("pullback requires a map designated Aut(D)")
        self.inner = inner
        self.phi = phi

    def value(self, z):
        return self.inner.value(self.phi.apply(z))

    def pm_with_bound(self, n, z):
        _check_order(n)
        return self.pm_sequence(n, z, start=n)[0]

    def pm_bar_with_bound(self, n, z):
        _check_order(n)
        return self.pm_bar_sequence(n, z, start=n)[0]

    def conj_fn(self):
        return MoebiusPullback(self.inner.conj_fn(), self.phi)

    def pm_sequence(self, nmax, z, start=0):
        # one jet of order nmax yields every D^n at once
        _check_disk(z)
        return [(d, 0.0) for d in self.ambient_jet(z, nmax).derivatives(start)]

    def pm_bar_sequence(self, nmax, z, start=0):
        _check_disk(z)
        return [(conj(d), 0.0) for d in self.conj_fn().ambient_jet(z, nmax).derivatives(start)]

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
    if n == 0:
        return f.value(z)
    return f.pm(n, z)


def pm_bar_derivative(f: DiskFunction, n: int, z):
    """Dbar^n f(z) = conj(D^n (conj f)(z))."""
    _check_order(n)
    _check_disk(z)
    if n == 0:
        return f.value(z)
    return f.pm_bar(n, z)


def pm_closed_form_p(g: EntireFn, n: int, z):
    """Closed-form pair (D^n (g o p)(z), Dbar^n (g o p)(z))."""
    fn = ComposedP(g)
    return fn.pm(n, z), fn.pm_bar(n, z)


def pm_closed_form_q(g: EntireFn, n: int, z):
    """Closed-form pair (D^n (g o q)(z), Dbar^n (g o q)(z))."""
    fn = ComposedQ(g)
    return fn.pm(n, z), fn.pm_bar(n, z)


def pm_definitional(f: DiskFunction, n: int, z, guard: int = 2):
    """Independent oracle: D^n f(z) from the jet of u -> f(T_z(u)) at 0.

    The jet is computed at order n + guard; the extra terms only guard
    against indexing mistakes, the coefficient itself is exact at order n."""
    _check_order(n)
    _check_disk(z)
    return f.ambient_jet(z, n + guard).derivatives(n)[0]


def pm_bar_definitional(f: DiskFunction, n: int, z, guard: int = 2):
    return conj(f.conj_fn().ambient_jet(z, n + guard).derivatives(n)[0])
