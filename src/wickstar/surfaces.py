"""Function algebras on the annulus A_R and the punctured disk D*.

Both algebras consist of radially symmetric functions: every element is
an entire function composed with the chart

    f_R(z) = -i tan(pi / (2 log R) * log|z|)     (annulus, R > 1)
    f_0(z) = -1 / log|z|                          (punctured disk)

Elements store their entire function g symbolically, so the transport
inverses are structural (unwrap g) rather than numeric.  Lifting through
the universal coverings pi_R, pi_0 turns an element into a disk function
of ComposedP / ComposedQ shape, which is where the star products live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .exact import to_complex
from .functions import BasisFpq, BiPoly, EntireFn
from .peschl_minda import ComposedP, ComposedQ, DiskFunction
from .sphere import GPoint, MoebiusMap, check_modulus, gamma_hat


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def chart_f_R(radius: float, z) -> complex:
    """f_R(z) = -i tan(pi/(2 log R) log|z|) on the annulus 1/R < |z| < R."""
    check_modulus(radius)
    r = abs(to_complex(z))
    if not (1 / radius < r < radius):
        raise DomainError(f"|z| = {r:.6g} outside the open annulus (1/R, R)")
    return -1j * math.tan(math.pi / (2 * math.log(radius)) * math.log(r))


def chart_f_0(z) -> float:
    """f_0(z) = -1/log|z| on the punctured disk 0 < |z| < 1."""
    r = abs(to_complex(z))
    if not 0 < r < 1:
        raise DomainError(f"|z| = {r:.6g} outside the punctured unit disk")
    return -1 / math.log(r)


# ---------------------------------------------------------------------------
# surface elements
# ---------------------------------------------------------------------------


class AnnulusElement:
    """g o f_R on the annulus A_R = {1/R < |z| < R}."""

    __slots__ = ("radius", "g")

    def __init__(self, radius: float, g: EntireFn):
        check_modulus(radius)
        self.radius = float(radius)
        self.g = g

    def value(self, z):
        return self.g.eval(chart_f_R(self.radius, z))[0]

    def __repr__(self):
        return f"AnnulusElement(R={self.radius}, g={self.g!r})"


class PuncturedElement:
    """g o f_0 on the punctured disk D* = {0 < |z| < 1}."""

    __slots__ = ("g",)

    def __init__(self, g: EntireFn):
        self.g = g

    def value(self, z):
        return self.g.eval(chart_f_0(z))[0]

    def __repr__(self):
        return f"PuncturedElement(g={self.g!r})"


def transport_T(g: EntireFn, surface: str, radius: float | None = None):
    """T_R(g) = g o f_R or T_0(g) = g o f_0."""
    if surface == "annulus":
        if radius is None:
            raise DomainError("annulus transport needs the modulus R")
        return AnnulusElement(radius, g)
    if surface == "punctured":
        return PuncturedElement(g)
    raise DomainError(f"unknown surface {surface!r}")


def iso_psi(e: AnnulusElement, radius: float) -> AnnulusElement:
    """Psi_{R',R} = T_R o T_{R'}^{-1}: keep g, swap the chart modulus."""
    return AnnulusElement(radius, e.g)


def lift_to_disk(e) -> DiskFunction:
    """Pull an element back through the universal covering of its surface:
    the annulus lift is g o p, the punctured-disk lift is g o q."""
    if isinstance(e, AnnulusElement):
        return ComposedP(e.g)
    if isinstance(e, PuncturedElement):
        return ComposedQ(e.g)
    raise DomainError(f"cannot lift {type(e).__name__}")


# ---------------------------------------------------------------------------
# finite spans of the f_{p,q} family and the Z2 involution
# ---------------------------------------------------------------------------


class FpqCombo:
    """Finite combination sum a_{p,q} f_{p,q} with
    f_{p,q}(z,w) = z^p w^q / (1-zw)^max(p,q)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # a sparse sum over (p, q), merged as a BiPoly's over (i, j)
        self.terms = BiPoly(terms).coeffs

    @staticmethod
    def of(x) -> "FpqCombo":
        if isinstance(x, FpqCombo):
            return x
        if isinstance(x, BasisFpq):
            return FpqCombo({(x.p, x.q): 1})
        raise DomainError(
            f"{type(x).__name__} is not a finite f_pq combination")

    def eval(self, z, w):
        acc = 0
        for (p, q), a in self.terms.items():
            acc = acc + a * BasisFpq(p, q).eval(z, w)
        return acc

    def __add__(self, other):
        return FpqCombo((BiPoly(self.terms) + BiPoly(FpqCombo.of(other).terms)).coeffs)

    def scale(self, a) -> "FpqCombo":
        return FpqCombo({k: a * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FpqCombo) and self.terms == other.terms

    def __repr__(self):
        return f"FpqCombo({self.terms!r})"


def _z2_basis_image(p: int, q: int) -> FpqCombo:
    # f_{p,q}(1/z, 1/w) = (-1)^m z^{m-p} w^{m-q} / (1-zw)^m, m = max(p,q);
    # expanding 1/(1-zw)^{m - (m-p) ...} with the binomial theorem gives
    # a finite combination again:
    #   p >= q: (-1)^p sum_k C(q,k) f_{k, p-q+k}
    #   p <  q: (-1)^q sum_k C(p,k) f_{q-p+k, k}
    sign = (-1) ** max(p, q)
    if p >= q:
        return FpqCombo({(k, p - q + k): sign * math.comb(q, k)
                         for k in range(q + 1)})
    return FpqCombo({(q - p + k, k): sign * math.comb(p, k)
                     for k in range(p + 1)})


def z2_involution(x) -> FpqCombo:
    """The substitution (z, w) -> (1/z, 1/w) on a finite f_pq span."""
    combo = FpqCombo.of(x)
    out = FpqCombo()
    for (p, q), a in combo.terms.items():
        out = out + _z2_basis_image(p, q).scale(a)
    return out


# ---------------------------------------------------------------------------
# invariance predicate on the configuration space
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    max_residual: float
    passed: bool
    samples: int


def gamma_hat_invariant(f, gamma: MoebiusMap, samples) -> InvarianceReport:
    """Check f(gamma_hat P) == f(P) over sampled GPoints.

    f is a callable on GPoint; a sample where f or gamma_hat fails is
    skipped rather than aborting the sweep, and not counted in
    ``samples``."""
    worst = 0.0
    used = 0
    for p in samples:
        try:
            r = abs(f(gamma_hat(gamma, p)) - f(p))
        except (DomainError, ZeroDivisionError):
            continue
        worst = max(worst, r)
        used += 1
    return InvarianceReport(worst, worst == 0 and used > 0, used)


# kernels on G used by the invariance theorems --------------------------------


def scaling_kernel(g: EntireFn):
    """F(z, w) = g(w / (z - w)): invariant under (z,w) -> (cz, cw)."""
    def f(p: GPoint):
        if p.z.is_infinite:
            return g.eval(0)[0]
        if p.w.is_infinite:
            return g.eval(-1)[0]
        z, w = p.z.value(), p.w.value()
        return g.eval(w / (z - w))[0]
    return f


def translation_kernel(g: EntireFn):
    """F(z, w) = g(1 / (z - w)): invariant under (z,w) -> (z+1, w+1)."""
    def f(p: GPoint):
        if p.z.is_infinite or p.w.is_infinite:
            return g.eval(0)[0]
        z, w = p.z.value(), p.w.value()
        return g.eval(1 / (z - w))[0]
    return f
