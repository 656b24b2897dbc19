"""Desk-scale experiments behind the rigidity statements.

Three experiments:

* :func:`invariant_dimension` -- certified dimension of the subspace of
  the transported f_{p,q} basis on the configuration space that is
  invariant under a set of exact Moebius generators (acting
  componentwise).  The rank of the difference system mod a prime
  p = 1 (mod 4) is at most its rank over Q(i), which bounds the
  dimension from above; the constants bound it from below by 1.
* :func:`elliptic_invariant_indices` -- the f_{p,q} invariant under an
  n-fold elliptic rotation of the bivariate disk model.
* :func:`obstruction_check` -- the annulus and punctured-disk algebras
  admit no uniform-in-hbar isomorphism: matching powers of hbar in
  Psi(f * f) = Psi(f) * Psi(f) forces the transported chart function to
  be constant.  The identity is tested exactly, on polynomial candidates
  at the sampled hbar.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .exact import QC, _parts, is_exact, to_complex
from .functions import PolyFn
from .sphere import MoebiusMap, SpherePoint, t_gamma_omega
from .star import Hbar, star_punctured_poly


def _check_degree(degree: int):
    if degree < 0:
        raise DomainError(f"the polynomial degree must be >= 0, got {degree}")


# ---------------------------------------------------------------------------
# basis functions on the configuration space
# ---------------------------------------------------------------------------


def fpq_proj(p: int, q: int, z: SpherePoint, w: SpherePoint):
    """f_{p,q}(z, w) = z^p w^q / (1-zw)^max(p,q) on projective pairs.

    Written projectively the expression is polynomial in (u, v) pairs, so
    it extends to the points at infinity (poles only on zw = 1)."""
    m = max(p, q)
    u1, v1 = to_complex(z.u), to_complex(z.v)
    u2, v2 = to_complex(w.u), to_complex(w.v)
    den = (v1 * v2 - u1 * u2) ** m
    if den == 0:
        raise DomainError("f_{p,q} undefined on the hypersurface zw = 1")
    return u1 ** p * u2 ** q * v1 ** (m - p) * v2 ** (m - q) / den


# ---------------------------------------------------------------------------
# invariant dimension: an exact certificate from the rank mod p
# ---------------------------------------------------------------------------

# p = 1 (mod 4), so -1 has a square root mod p and Q(i) reduces to F_p
PRIME = 1_000_000_009


def _sqrt_minus_one(p: int) -> int:
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:     # a quadratic non-residue
        g += 1
    return pow(g, (p - 1) // 4, p)


SQRT_MINUS_ONE = _sqrt_minus_one(PRIME)


def _mod_p(x) -> int:
    """Image in F_p of an exact Gaussian rational (a + b i)/d,
    i -> SQRT_MINUS_ONE."""
    if not is_exact(x):
        raise DomainError(f"cannot reduce a {type(x).__name__} matrix entry mod p; "
                          "the certificate needs exact (int, Fraction, QC) entries")
    a, b, d = _parts(x)
    if d % PRIME == 0:
        raise DomainError(f"{x!r} has no image mod {PRIME}")
    return (a + SQRT_MINUS_ONE * b) * pow(d, -1, PRIME) % PRIME


def _matrix_mod_p(m: MoebiusMap) -> tuple:
    a, b, c, d = (_mod_p(x) for x in (m.a, m.b, m.c, m.d))
    if (a * d - b * c) % PRIME == 0:
        # every moved point would leave the projective line mod p
        raise DomainError(f"Moebius matrix is singular mod {PRIME}")
    return a, b, c, d


def _powers(x: int, n: int) -> list:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x % PRIME)
    return out


def _act(m, pt) -> tuple:
    """A 2x2 matrix mod p acting on a projective pair over F_p."""
    a, b, c, d = m
    return (a * pt[0] + b * pt[1]) % PRIME, (c * pt[0] + d * pt[1]) % PRIME


def _basis_values_mod_p(degree: int, t_inv, z, w):
    """f_{p,q}(T^{-1} z, 1/T^{-1} w) mod p for p, q <= degree, row-major,
    at the projective pairs z, w over F_p; None on the hypersurface."""
    u1, v1 = _act(t_inv, z)
    v2, u2 = _act(t_inv, w)          # the reciprocal swaps the pair
    den = (v1 * v2 - u1 * u2) % PRIME
    if den == 0:
        return None
    pu1, pv1, pu2, pv2 = (_powers(x, degree) for x in (u1, v1, u2, v2))
    pinv = _powers(pow(den, -1, PRIME), degree)
    row = []
    for p in range(degree + 1):
        for q in range(degree + 1):
            m = max(p, q)
            row.append(pu1[p] * pu2[q] % PRIME * pv1[m - p] % PRIME
                       * pv2[m - q] % PRIME * pinv[m] % PRIME)
    return row


def _rank_mod_p(rows: list) -> int:
    """Rank over F_p by Gaussian elimination; the rows are consumed."""
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, PRIME)
        prow = [x * inv % PRIME for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


@dataclass(frozen=True)
class InvariantDimension:
    """Certified bounds on the dimension of the invariant span.

    ``rank`` is the rank mod PRIME of the difference system; it is at most
    the rank over Q(i), so ``basis_size - rank`` bounds the dimension from
    above, and the invariant constant bounds it from below by 1."""
    rank: int
    basis_size: int

    @property
    def prime(self) -> int:
        return PRIME

    @property
    def bounds(self) -> tuple:
        return (1, self.basis_size - self.rank)

    @property
    def dimension(self):
        """The dimension when the bounds meet, else None (inconclusive)."""
        lower, upper = self.bounds
        return lower if lower == upper else None


def invariant_dimension(generators, degree: int, seed: int) -> InvariantDimension:
    """Certify the dimension of {sum a_{p,q} F_{p,q} : p, q <= degree,
    invariant under every generator acting componentwise}, where
    F_{p,q}(z, w) = f_{p,q}(T^{-1} z, 1/(T^{-1} w)) with the exact Cayley map T.

    The difference system [F_k(gamma P) - F_k(P)] is evaluated mod PRIME at
    |basis| + 4 random projective points per generator, drawn from ``seed``;
    points where a denominator vanishes mod p are skipped.  Generator
    entries must be exact; a float entry raises DomainError."""
    _check_degree(degree)
    n_basis = (degree + 1) ** 2
    t_inv = _matrix_mod_p(MoebiusMap.cayley(exact=True).inverse())
    gens = [_matrix_mod_p(g) for g in generators]
    rng = random.Random(seed)
    rows = []
    points = 0
    while points < n_basis + 4:
        z, w = [(rng.randrange(PRIME), rng.randrange(PRIME)) for _ in range(2)]
        base = _basis_values_mod_p(degree, t_inv, z, w)
        moved = [_basis_values_mod_p(degree, t_inv, _act(g, z), _act(g, w))
                 for g in gens]
        if base is None or None in moved:
            continue
        rows.extend([(x - y) % PRIME for x, y in zip(row, base)] for row in moved)
        points += 1
    return InvariantDimension(rank=_rank_mod_p(rows), basis_size=n_basis)


def elliptic_invariant_indices(n_fold: int, dmax: int, samples):
    """Indices (p, q), p,q <= dmax, whose f_{p,q} is invariant under the
    n-fold elliptic rotation acting on the bivariate disk model, to a
    residual of at most 1e-9 over the samples.

    ``samples`` are OmegaPoints, at least one; the expected answer is the
    congruence filter {(p, q) : p - q divisible by n_fold}."""
    if n_fold < 2:
        raise DomainError(f"an elliptic rotation needs n_fold >= 2, got {n_fold}")
    _check_degree(dmax)
    if not samples:
        # the worst residual over no samples is 0: every index would pass
        raise DomainError("the elliptic filter needs at least one sample point")
    if n_fold == 2:
        # negating a float is exact, so invariant indices give residual 0.0
        gen = MoebiusMap(-1, 0, 0, 1, domain="D")
    else:
        gen = MoebiusMap.rotation(2 * math.pi / n_fold)
    kept = []
    for p in range(dmax + 1):
        for q in range(dmax + 1):
            worst = 0.0
            for pt in samples:
                moved = t_gamma_omega(gen, pt)
                worst = max(worst, abs(fpq_proj(p, q, moved.z, moved.w)
                                       - fpq_proj(p, q, pt.z, pt.w)))
            if worst <= 1e-9:
                kept.append((p, q))
    return kept


# ---------------------------------------------------------------------------
# the annulus / punctured-disk obstruction
# ---------------------------------------------------------------------------


@dataclass
class ObstructionReport:
    alpha: complex
    beta: complex
    residuals: dict = field(default_factory=dict)
    verdict: str = "inconclusive"


def _exact_hbar(h):
    """The sampled hbar as an exact value (a float converts exactly),
    checked against the poles before any sum runs at it."""
    if not is_exact(h):
        h = complex(h)
        h = QC(Fraction(h.real), Fraction(h.imag))
    return Hbar.of(h).value


def _defect(g: PolyFn, h) -> PolyFn:
    """(g*g) - g^2 - hbar (g^2 - 1) on the punctured disk, exact in w at an
    exact hbar; the annulus identity f*f = f^2 + hbar (f^2 - 1) carried
    over to g o f_0 needs it to vanish."""
    g2 = g * g
    return star_punctured_poly(g, g, h) - g2 - h * (g2 - 1)


def obstruction_check(radius: float, hs, degree: int) -> ObstructionReport:
    """Reproduce the power-matching argument that no single linear map can
    intertwine the annulus and punctured-disk products for every hbar.

    A hypothetical intertwiner sends the annulus chart function to g o f_0
    with g entire; the annulus identity f * f = f^2 + hbar (f^2 - 1) then
    forces (g*g)(w) to be affine in hbar with slope (g*g)|_{h=0} - 1.
    Matching hbar-powers of the punctured-disk series:

      hbar^2:  w^4 g''(w)^2 / 2 = 0          -> g'' = 0, so g = alpha t + beta
      hbar^1:  w^2 alpha^2 = (g^2 - 1)(w)     -> 2 alpha beta w + beta^2 - 1 = 0
                                              -> alpha = 0, beta = +/- 1.

    For a polynomial g the punctured product g*g has deg g + 1 terms, so
    the defect (g*g) - g^2 - hbar (g^2 - 1) is an exact polynomial at each
    sampled hbar (a float sample converts exactly).  The candidates t^m,
    2 <= m <= degree, and alpha t + beta must leave a nonzero defect at
    some sample, and the constant 1 none; then the verdict is
    "obstructed".  The residuals are, per family, the smallest over the
    candidates of the largest defect coefficient over the samples."""
    if radius <= 1:
        raise DomainError("annulus modulus must satisfy R > 1")
    _check_degree(degree)
    hs = [_exact_hbar(h) for h in hs]
    if not hs:
        raise DomainError("need at least one deformation sample")

    def defects(g: PolyFn) -> list:
        return [_defect(g, h) for h in hs]

    def size(ds) -> float:
        return max(float(abs(c)) for d in ds for c in d.coeffs)

    # as a series in hbar the defect of t^m has the hbar^2 part
    # w^4 g''^2 / 2, which is not zero
    monomial = [defects(PolyFn([0] * m + [1])) for m in range(2, degree + 1)]
    # the affine defect is -hbar (2 alpha beta w + beta^2 - 1)
    affine = [defects(PolyFn([beta, alpha]))
              for alpha, beta in [(1, 0), (1, 1), (1, -1), (2, Fraction(1, 2))]]
    # the constant solutions beta = +/- 1 satisfy the identity exactly
    constant = defects(PolyFn([1]))

    residuals = {}
    if monomial:
        residuals["nonlinear_defect"] = min(map(size, monomial))
    residuals["affine_defect"] = min(map(size, affine))
    residuals["constant_defect"] = size(constant)

    if degree == 0:
        verdict = "constant-only"
    elif (all(d.is_zero for d in constant)
          and all(any(not d.is_zero for d in ds) for ds in monomial + affine)):
        verdict = "obstructed"
    else:
        verdict = "inconclusive"
    return ObstructionReport(alpha=0j, beta=1 + 0j,
                             residuals=residuals, verdict=verdict)
