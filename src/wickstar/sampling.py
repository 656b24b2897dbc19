"""Seeded sample generators for the verification suites.

Every draw is random() of the generator :func:`rng_for` builds, which the
rigidity experiments draw from too: the Python docs promise its stream for
a seed across versions, so a seed pins a whole run, without numpy.  Regions
stay away from chart blow-up zones (disk samples default to |z| <= 0.8,
annulus moduli are log-uniform strictly inside (1/R, R))."""

from __future__ import annotations

import cmath
import math
import random

from .errors import DomainError
from .sphere import GPoint, OmegaPoint, SpherePoint


def rng_for(seed: int) -> random.Random:
    """The generator of this seed, random.Random(seed).  A seed is an int
    >= 0: Random(-s) repeats the stream of Random(s)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise DomainError(f"a seed is an integer >= 0, got {seed!r}")
    return random.Random(seed)


def _integer(rng, lo: int, hi: int) -> int:
    """An int drawn uniformly from [lo, hi)."""
    return lo + int((hi - lo) * rng.random())


def _gaussian(rng) -> complex:
    """x + iy with x and y independent N(0, 1): a Box-Muller pair."""
    return cmath.rect(math.sqrt(-2.0 * math.log(1.0 - rng.random())),
                      2 * math.pi * rng.random())


def sample_disk(rng, n: int, rmax: float = 0.8):
    """n points of the open disk, area-uniform within |z| <= rmax."""
    return [cmath.rect(rmax * math.sqrt(rng.random()), 2 * math.pi * rng.random())
            for _ in range(n)]


def sample_annulus(rng, n: int, radius: float):
    """n points of A_R, log-uniform in modulus over the middle 0.9 of
    (1/R, R) in log scale."""
    return [cmath.rect(radius ** (0.9 * (2 * rng.random() - 1)),
                       2 * math.pi * rng.random()) for _ in range(n)]


def sample_punctured(rng, n: int):
    """n points of D*, log-uniform in modulus over [1e-3, 0.9]."""
    return [cmath.rect(1e-3 * 900 ** rng.random(), 2 * math.pi * rng.random())
            for _ in range(n)]


def sample_half_plane(rng, n: int):
    """n points x + iy of the upper half plane, x ~ N(0, 2^2), log y ~ N(0, 0.7^2)."""
    return [complex(2.0 * g.real, math.exp(0.7 * g.imag))
            for g in (_gaussian(rng) for _ in range(n))]


def sample_gpoints(rng, n: int):
    """n pairs of finite sphere points at least 0.05 apart, coordinates N(0, 2^2)."""
    out = []
    while len(out) < n:
        z, w = 2.0 * _gaussian(rng), 2.0 * _gaussian(rng)
        if abs(z - w) >= 0.05:
            out.append(GPoint(SpherePoint.finite(z), SpherePoint.finite(w)))
    return out


def sample_omega_points(rng, n: int):
    """n points of the bivariate disk model with both slots in |z| <= 0.85
    (then zw != 1 automatically)."""
    zs = sample_disk(rng, n, 0.85)
    ws = sample_disk(rng, n, 0.85)
    return [OmegaPoint(SpherePoint.finite(z), SpherePoint.finite(w))
            for z, w in zip(zs, ws)]
