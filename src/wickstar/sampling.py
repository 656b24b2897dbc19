"""Seeded sample generators for the verification and rigidity suites.

All samplers take a numpy Generator so a single seed pins the whole run;
regions deliberately stay away from chart blow-up zones (disk samples
default to |z| <= 0.8, annulus moduli are log-uniform strictly inside
(1/R, R)).  numpy is imported inside the samplers, so that importing this
module (as ``wickstar.cli`` does) loads no numpy; the first sample does."""

from __future__ import annotations

import math

from .sphere import GPoint, OmegaPoint, SpherePoint


def rng_for(seed: int):
    """The numpy Generator of this seed."""
    import numpy as np
    return np.random.default_rng(seed)


def sample_disk(rng, n: int, rmax: float = 0.8):
    """n points of the open disk, area-uniform within |z| <= rmax."""
    import numpy as np
    r = rmax * np.sqrt(rng.random(n))
    th = 2 * math.pi * rng.random(n)
    return [complex(x) for x in r * np.exp(1j * th)]


def sample_annulus(rng, n: int, radius: float):
    """n points of A_R, log-uniform in modulus over the middle 0.9 of
    (1/R, R) in log scale."""
    import numpy as np
    u = 0.9 * math.log(radius) * (2 * rng.random(n) - 1)
    th = 2 * math.pi * rng.random(n)
    return [complex(x) for x in np.exp(u) * np.exp(1j * th)]


def sample_punctured(rng, n: int):
    """n points of D*, log-uniform in modulus over [1e-3, 0.9]."""
    import numpy as np
    u = rng.uniform(math.log(1e-3), math.log(0.9), n)
    th = 2 * math.pi * rng.random(n)
    return [complex(x) for x in np.exp(u) * np.exp(1j * th)]


def sample_half_plane(rng, n: int):
    """n points of the upper half plane."""
    import numpy as np
    x = 2.0 * rng.standard_normal(n)
    y = np.exp(0.7 * rng.standard_normal(n))
    return [complex(a, b) for a, b in zip(x, y)]


def sample_gpoints(rng, n: int):
    """n pairs of finite sphere points at least 0.05 apart."""
    out = []
    while len(out) < n:
        # one draw per round for the candidates still missing: the same
        # stream, in the same order, as a draw per number
        draws = 2.0 * rng.standard_normal(4 * (n - len(out)))
        for zr, zi, wr, wi in draws.reshape(-1, 4).tolist():
            z, w = complex(zr, zi), complex(wr, wi)
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
