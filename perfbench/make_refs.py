"""Write perfbench/refs.json, the stored references of the point-sweep pool.

The pool holds a few polynomial operand pairs, each with a disk
automorphism and a fixed set of points.  For every point it stores

* ``disk``     -- (f * g)(z), the product of the polynomial disk functions;
* ``pullback`` -- (f o phi * g o phi)(z) = (f * g)(phi(z)), by the conformal
  invariance of the product.

Both come from ``oracles.bipoly_star`` (towers from the binomial
expansion, summed in 40-digit mpmath arithmetic), rounded to doubles.
The pool depends on nothing but the constants below, so rerunning the
script reproduces the file byte for byte:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

import oracles

POOL_SEED = 20230802
HBARS = [0.5, complex(0.35, 0.25), 0.8]
POINTS_PER_PAIR = 64
RADIUS = 0.8
MAX_SHIFT = 0.3
OUT = Path(__file__).resolve().parent / "refs.json"


def _pair(x: complex) -> list:
    return [x.real, x.imag]


def nonzero_coeff(rng: random.Random) -> complex:
    while True:
        c = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        if c:
            return c


def dense_bipoly(rng: random.Random, deg: int) -> dict:
    """F(z, w) of bidegree <= (deg, deg) with every coefficient nonzero,
    so the cost of its towers depends on the degree alone."""
    return {(i, j): nonzero_coeff(rng) for i in range(deg + 1) for j in range(deg + 1)}


def stratified_disk_points(rng: random.Random, n: int, radius: float) -> list:
    """n points with area-uniform radii, one per equal-area ring."""
    pts = []
    for k in range(n):
        r = radius * math.sqrt((k + rng.random()) / n)
        pts.append(r * cmath.exp(2j * math.pi * rng.random()))
    return pts


def build_pool() -> dict:
    rng = random.Random(POOL_SEED)
    pairs = []
    for h in HBARS:
        f, g = dense_bipoly(rng, 2), dense_bipoly(rng, 2)
        a = MAX_SHIFT * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        theta = 2 * math.pi * rng.random()
        points = stratified_disk_points(rng, POINTS_PER_PAIR, RADIUS)
        disk = [oracles.bipoly_star(f, g, h, z) for z in points]
        pull = [oracles.bipoly_star(f, g, h, oracles.moebius_disk(a, theta, z))
                for z in points]
        pairs.append({
            "f": [[i, j, *_pair(c)] for (i, j), c in sorted(f.items())],
            "g": [[i, j, *_pair(c)] for (i, j), c in sorted(g.items())],
            "hbar": _pair(complex(h)),
            "phi": {"a": _pair(a), "theta": theta},
            "points": [_pair(z) for z in points],
            "disk": [_pair(v) for v in disk],
            "pullback": [_pair(v) for v in pull],
        })
    return {
        "generator": "perfbench/make_refs.py",
        "pool_seed": POOL_SEED,
        "digits": oracles.DPS,
        "pairs": pairs,
    }


if __name__ == "__main__":
    OUT.write_text(json.dumps(build_pool(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
