"""Desk-scale experiments behind the rigidity statements.

Three experiments, all exact:

* :func:`invariant_dimension` -- certified dimension of the subspace of
  the transported f_{p,q} basis on the configuration space that is
  invariant under a set of exact Moebius generators (acting
  componentwise).  The rank of the difference system mod a prime
  p = 1 (mod 4) is at most its rank over Q(i), which bounds the
  dimension from above; the constants bound it from below by 1.
* :func:`elliptic_invariant_indices` -- the f_{p,q} invariant under an
  n-fold elliptic rotation of the bivariate disk model: the zero columns
  of the same difference system, mod a prime with an n-th root of unity.
* :func:`obstruction_check` -- the annulus and punctured-disk algebras
  admit no uniform-in-hbar isomorphism: matching powers of hbar in
  Psi(f * f) = Psi(f) * Psi(f) forces the transported chart function to
  be constant.  The identity is tested exactly, on polynomial candidates
  at the sampled hbar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exact import _exact, _parts, is_exact
from .functions import PolyFn
from .sampling import _integer, rng_for
from .sphere import MoebiusMap
from .star import Hbar, star_punctured_poly


def _check_degree(degree: int):
    if degree < 0:
        raise DomainError(f"the polynomial degree must be >= 0, got {degree}")


# ---------------------------------------------------------------------------
# the difference system mod p: the invariant dimension and the elliptic filter
# ---------------------------------------------------------------------------

# p = 1 (mod 4), so -1 has a square root mod p and Q(i) reduces to F_p
PRIME = 1_000_000_009


@functools.lru_cache(maxsize=None)
def _sqrt_minus_one(p: int) -> int:
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:     # a quadratic non-residue
        g += 1
    return pow(g, (p - 1) // 4, p)


def _mod_p(x, p: int = PRIME) -> int:
    """Image in F_p of an exact Gaussian rational (a + b i)/d,
    i -> a square root of -1 mod p (p = 1 mod 4)."""
    if not is_exact(x):
        raise DomainError(f"cannot reduce a {type(x).__name__} matrix entry mod p; "
                          "the certificate needs exact (int, Fraction, QC) entries")
    a, b, d = _parts(x)
    if d % p == 0:
        raise DomainError(f"{x!r} has no image mod {p}")
    return (a + _sqrt_minus_one(p) * b) * pow(d, -1, p) % p


def _matrix_mod_p(m: MoebiusMap) -> tuple:
    a, b, c, d = (_mod_p(x) for x in (m.a, m.b, m.c, m.d))
    if (a * d - b * c) % PRIME == 0:
        # every moved point would leave the projective line mod p
        raise DomainError(f"Moebius matrix is singular mod {PRIME}")
    return a, b, c, d


def _powers(x: int, n: int, p: int = PRIME) -> list:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x % p)
    return out


def _act(m, pt, p: int = PRIME) -> tuple:
    """A 2x2 matrix mod p acting on a projective pair over F_p."""
    a, b, c, d = m
    return (a * pt[0] + b * pt[1]) % p, (c * pt[0] + d * pt[1]) % p


def _basis_values_mod_p(degree: int, t_inv, z, w, p: int = PRIME):
    """f_{i,j}(T^{-1} z, 1/T^{-1} w) mod p for i, j <= degree, row-major,
    at the projective pairs z, w over F_p; None on the hypersurface."""
    u1, v1 = _act(t_inv, z, p)
    v2, u2 = _act(t_inv, w, p)       # the reciprocal swaps the pair
    den = (v1 * v2 - u1 * u2) % p
    if den == 0:
        return None
    pu1, pv1, pu2, pv2 = (_powers(x, degree, p) for x in (u1, v1, u2, v2))
    pinv = _powers(pow(den, -1, p), degree, p)
    row = []
    for i in range(degree + 1):
        for j in range(degree + 1):
            m = max(i, j)
            row.append(pu1[i] * pu2[j] % p * pv1[m - i] % p
                       * pv2[m - j] % p * pinv[m] % p)
    return row


def _difference_rows(degree: int, t_inv, gens, z, w, p: int = PRIME):
    """[F_k(gamma P) - F_k(P)] mod p, a row per generator gamma, at the pairs
    P = (z, w) over F_p (:func:`_basis_values_mod_p`); None on the hypersurface."""
    base = _basis_values_mod_p(degree, t_inv, z, w, p)
    moved = [_basis_values_mod_p(degree, t_inv, _act(g, z, p), _act(g, w, p), p)
             for g in gens]
    if base is None or None in moved:
        return None
    return [[(x - y) % p for x, y in zip(row, base)] for row in moved]


def _rank_mod_p(rows: list, p: int = PRIME) -> int:
    """Rank over F_p by Gaussian elimination; the rows are consumed."""
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def _sampled_rows(count: int, degree: int, t_inv, gens, seed: int, p: int = PRIME) -> list:
    """The rows of :func:`_difference_rows` at ``count`` projective pairs over
    F_p off the hypersurface, each coordinate int(p * random()) < p from
    ``rng_for(seed)``: random() alone has a stream promised across versions."""
    rng = rng_for(seed)
    rows = []
    while len(rows) < count * len(gens):
        z0, z1, w0, w1 = (_integer(rng, 0, p) for _ in range(4))
        rows += _difference_rows(degree, t_inv, gens, (z0, z1), (w0, w1), p) or []
    return rows


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
    |basis| + 4 random projective pairs over F_p (:func:`_sampled_rows`).
    Generator entries must be exact; a float entry raises DomainError."""
    _check_degree(degree)
    n_basis = (degree + 1) ** 2
    t_inv = _matrix_mod_p(MoebiusMap.cayley(exact=True).inverse())
    gens = [_matrix_mod_p(g) for g in generators]
    rows = _sampled_rows(n_basis + 4, degree, t_inv, gens, seed)
    return InvariantDimension(rank=_rank_mod_p(rows), basis_size=n_basis)


def _prime_factors(n: int) -> set:
    f = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)
    return {f} | _prime_factors(n // f) if f < n else {n} - {1}


@functools.lru_cache(maxsize=None)
def _rotation_mod_p(n_fold: int) -> tuple:
    """(p, zeta): the least prime p = 1 (mod lcm(4, n_fold)) above 10^9,
    which is PRIME whenever lcm(4, n_fold) divides PRIME - 1, and a
    primitive n_fold-th root of unity zeta mod p."""
    step = math.lcm(4, n_fold)
    p = 10 ** 9 // step * step + 1
    while _prime_factors(p) != {p}:
        p += step
    orders = _prime_factors(n_fold)
    for g in range(2, p):
        zeta = pow(g, (p - 1) // n_fold, p)
        if all(pow(zeta, n_fold // f, p) != 1 for f in orders):
            return p, zeta


def elliptic_invariant_indices(n_fold: int, dmax: int, samples: int, seed: int):
    """Indices (i, j), i, j <= dmax, whose f_{i,j} is invariant under the
    n-fold rotation (z, w) -> (zeta z, w/zeta) of the bivariate disk model.

    On (z, 1/w) the rotation is diag(zeta, 1) in both slots, so an index is
    invariant iff its column of :func:`_difference_rows` is 0 at all
    ``samples`` pairs of :func:`_sampled_rows`, mod the least prime
    p = 1 (mod lcm(4, n_fold)) above 10^9, zeta a primitive n-th root of
    unity mod p.  f_{i,j} moves by zeta^(i-j), so each index with
    n_fold | i - j is kept; another only where f_{i,j}, of numerator degree
    <= 2 dmax, vanishes at every sample, with probability about
    (2 dmax/p)^samples at most (Schwartz-Zippel).  n_fold > 10^6 is
    refused, and so is samples < 1, which would keep every index."""
    if not 2 <= n_fold <= 10 ** 6:
        raise DomainError(f"an elliptic rotation needs 2 <= n_fold <= 10^6, got {n_fold}")
    _check_degree(dmax)
    if samples < 1:
        raise DomainError(f"the elliptic filter needs samples >= 1, got {samples}")
    p, zeta = _rotation_mod_p(n_fold)
    rows = _sampled_rows(samples, dmax, (1, 0, 0, 1), [(zeta, 0, 0, 1)], seed, p)
    # column k is the index divmod(k, dmax + 1), row-major
    return [divmod(k, dmax + 1) for k, col in enumerate(zip(*rows)) if not any(col)]


# ---------------------------------------------------------------------------
# the annulus / punctured-disk obstruction
# ---------------------------------------------------------------------------


@dataclass
class ObstructionReport:
    residuals: dict
    verdict: str


def _defect(g: PolyFn, h) -> PolyFn:
    """(g*g) - g^2 - hbar (g^2 - 1) on the punctured disk, exact in w at an
    exact hbar; the annulus identity f*f = f^2 + hbar (f^2 - 1) carried
    over to g o f_0 needs it to vanish."""
    g2 = g * g
    return star_punctured_poly(g, g, h) - g2 - h * (g2 - 1)


def obstruction_check(hs, degree: int) -> ObstructionReport:
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
    candidates of the largest defect coefficient over the samples.  No
    product here involves the annulus modulus."""
    _check_degree(degree)
    # exact, and checked against the poles before any sum runs at it
    hs = [Hbar.of(_exact(h)).value for h in hs]
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
    return ObstructionReport(residuals=residuals, verdict=verdict)
