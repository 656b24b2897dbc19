"""The four benchmark workloads, generated from a seed.

Each workload is a fixed list of operations (one "pass").  The runner
repeats the pass, one caller and one operation at a time (a closed
loop), and checks every output against a reference that does not come
from the code path under test (see ``oracles.py``).

The schedule of a pass -- which operand shapes, term budgets, |z| bands
and hbar classes appear, and how often -- is fixed; the seed draws the
coefficients, points and hbar values inside each slot.  That keeps the
cost of a pass steady from seed to seed while every seed still feeds the
program different numbers.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import wickstar
from wickstar import (BiPoly, ComposedP, ComposedQ, ExpFn, MoebiusMap, MoebiusPullback,
                      NonTerminatingError, PolyDisk, PolyFn, QC, SeriesFn, StarConfig, cli)

import oracles
from make_refs import OUT as REFS
from make_refs import dense_bipoly, nonzero_coeff, stratified_disk_points

# A float result whose error exceeds its own tail_estimate by more than
# this share of max(1, |reference|) is a tail miss (the allowance covers
# double rounding in the sum, not truncation).
ROUNDING = 1e-12
# A float result that claims convergence and misses its reference by more
# than this share of max(1, |reference|) is a wrong answer: a failure.
ACCURACY = 1e-3


@dataclass
class Verdict:
    failed: bool
    tail_checked: bool = False
    tail_miss: bool = False
    false_converged: bool = False
    known_defect: bool = False


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    name: str
    ops: list
    tail_q: float          # the latency_tail_ms percentile, as a fraction

    @property
    def min_samples(self) -> int:
        """Samples needed for at least ten beyond the tail percentile."""
        return math.ceil(10 / (1 - self.tail_q))


# Operations look wickstar's entry points up when they run, so that the
# span recorder's wrappers are the ones called.

# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_float(ref: complex) -> Callable[[object], Verdict]:
    """Check a truncated StarResult against a reference value."""

    def check(out) -> Verdict:
        try:
            value = complex(out.value)
            tail = float(out.tail_estimate)
            converged = bool(out.converged)
        except (AttributeError, TypeError, ValueError):
            return Verdict(failed=True)
        if not (cmath.isfinite(value) and not math.isnan(tail)):
            return Verdict(failed=True)
        err = abs(value - ref)
        scale = max(1.0, abs(ref))
        miss = err > tail + ROUNDING * scale
        return Verdict(failed=converged and err > ACCURACY * scale,
                       tail_checked=True, tail_miss=miss,
                       false_converged=converged and miss)

    return check


def check_exact_value(ref: tuple) -> Callable[[object], Verdict]:
    def check(out) -> Verdict:
        try:
            return Verdict(failed=oracles.cq(out.value) != ref)
        except (AttributeError, TypeError):
            return Verdict(failed=True)

    return check


def check_exact_poly(ref: list) -> Callable[[object], Verdict]:
    def check(out) -> Verdict:
        try:
            got = [oracles.cq(c) for c in out.coeffs]
        except (AttributeError, TypeError):
            return Verdict(failed=True)
        return Verdict(failed=got != ref)

    return check


def check_raises(kind: type) -> Callable[[object], Verdict]:
    def check(out) -> Verdict:
        return Verdict(failed=not isinstance(out, kind))

    return check


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _point(rng, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


def _hbar(rng, kind: str) -> complex:
    if kind == "real":
        return complex(rng.uniform(0.2, 1.5))
    if kind == "complex":
        return rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(-math.pi / 3, math.pi / 3))
    if kind == "near-pole":
        # within 1e-3..1e-2 of -1/k; the k-th recurrence divisor is tiny
        k = rng.choice((2, 3, 4))
        return complex(-1 / k + rng.choice((-1, 1)) * rng.uniform(1e-3, 1e-2))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# disk-cold: a new PolyDisk pair per request, so every tower is built cold
# ---------------------------------------------------------------------------

# (max_terms, operands, |z| band, hbar class); a band of None pins
# z = 0.95, hbar = 0.5, where the tail estimate is known to under-report.
# The bands are narrow enough that each slot stops at about the same term
# count for every seed: near |z| = 1 the sum runs to its budget (N = 64)
# or to the underflow of c_n/n! near n = 100 (N = 128).
DISK_COLD_SLOTS = [
    (64, "zbar-z", None, None),
    (128, "zbar-z", None, None),
    (64, "zbar-z", (0.90, 0.95), "complex"),
    (64, "zbar-z", (0.85, 0.95), "near-pole"),
    (64, 2, (0.10, 0.40), "real"),
    (64, 2, (0.40, 0.70), "complex"),
    (64, 2, (0.90, 0.95), "real"),
    (64, 1, (0.85, 0.95), "near-pole"),
    (128, 2, (0.20, 0.50), "complex"),
    (64, 1, (0.92, 0.95), "real"),
    (64, 2, (0.85, 0.95), "near-pole"),
]


def _disk_cold_op(f: dict, g: dict, h, z, max_terms: int, ref: complex, label: str) -> Op:
    cfg = StarConfig(max_terms=max_terms)
    return Op(label,
              lambda: wickstar.star_disk(PolyDisk(BiPoly(f)), PolyDisk(BiPoly(g)), h, z, cfg),
              check_float(ref))


def disk_cold(seed: int) -> Workload:
    rng = _rng("disk-cold", seed)
    ops = []
    for max_terms, shape, band, hkind in DISK_COLD_SLOTS:
        if band is None:
            z, h = complex(0.95), 0.5
        else:
            z, h = _point(rng, *band), _hbar(rng, hkind)
        if shape == "zbar-z":
            f, g = {(0, 1): 1 + 0j}, {(1, 0): 1 + 0j}
            ref = oracles.zbar_star_z(z, h)
        else:
            f, g = dense_bipoly(rng, shape), dense_bipoly(rng, shape)
            ref = oracles.bipoly_star(f, g, h, z)
        ops.append(_disk_cold_op(f, g, h, z, max_terms, ref,
                                 f"disk/{shape}/N{max_terms}"))
    return Workload("disk-cold", ops, tail_q=0.75)


# ---------------------------------------------------------------------------
# point-sweep: a few operand pairs of every float shape, many points each
# ---------------------------------------------------------------------------

SWEEP_POOL_POINTS = 16      # drawn per stored pair, one per ring group
SWEEP_POINTS = 24           # per generated pair
SWEEP_RADIUS = 0.8
PINNED_TERMS = (64, 128)    # the tail defect's term budgets


def _sweep(label, make_call, points, refs) -> list:
    return [Op(label, make_call(p), check_float(r)) for p, r in zip(points, refs)]


def _pool_ops(rng, cfg) -> list:
    pool = json.loads(REFS.read_text(encoding="utf-8"))
    ops = []
    for pair in pool["pairs"]:
        f = {(i, j): complex(re, im) for i, j, re, im in pair["f"]}
        g = {(i, j): complex(re, im) for i, j, re, im in pair["g"]}
        h = complex(*pair["hbar"])
        phi = MoebiusMap.disk_automorphism(complex(*pair["phi"]["a"]), pair["phi"]["theta"])
        fd, gd = PolyDisk(BiPoly(f)), PolyDisk(BiPoly(g))
        fp, gp = MoebiusPullback(PolyDisk(BiPoly(f)), phi), MoebiusPullback(PolyDisk(BiPoly(g)), phi)
        group = len(pair["points"]) // SWEEP_POOL_POINTS
        picks = [k * group + rng.randrange(group) for k in range(SWEEP_POOL_POINTS)]
        pts = [complex(*pair["points"][k]) for k in picks]
        ops += _sweep("sweep/polydisk",
                      lambda z, fd=fd, gd=gd, h=h: lambda: wickstar.star_disk(fd, gd, h, z, cfg),
                      pts, [complex(*pair["disk"][k]) for k in picks])
        ops += _sweep("sweep/pullback",
                      lambda z, fp=fp, gp=gp, h=h: lambda: wickstar.star_disk(fp, gp, h, z, cfg),
                      pts, [complex(*pair["pullback"][k]) for k in picks])
    return ops


def _exp_taylor(scale: complex, order: int, rho: float) -> SeriesFn:
    """e^{scale t} cut after ``order`` with the certificate
    |a_k| <= C rho^-k for k > order, C = max_k (|scale| rho)^k / k!."""
    coeffs = [scale ** k / math.factorial(k) for k in range(order + 1)]
    x = abs(scale) * rho
    peak = max(order + 1, int(x))
    c = math.exp(peak * math.log(x) - math.lgamma(peak + 1)) if x > 0 else 0.0
    return SeriesFn(coeffs, rho, c)


def _scale(rng, mag: float) -> complex:
    return rng.uniform(0.2, mag) * cmath.exp(2j * math.pi * rng.random())


def point_sweep(seed: int) -> Workload:
    rng = _rng("point-sweep", seed)
    cfg = StarConfig(max_terms=64)
    ops = _pool_ops(rng, cfg)

    # the known tail defect, on warm towers: zbar*z at z = 0.95, hbar = 0.5
    zbar, z = PolyDisk(BiPoly({(0, 1): 1 + 0j})), PolyDisk(BiPoly({(1, 0): 1 + 0j}))
    for max_terms in PINNED_TERMS:
        pinned = StarConfig(max_terms=max_terms)
        ops.append(Op(f"sweep/zbar-z/N{max_terms}",
                      lambda c=pinned: wickstar.star_disk(zbar, z, 0.5, 0.95, c),
                      check_float(oracles.zbar_star_z(0.95, 0.5))))

    # lifts g o p and g o q: one polynomial pair and one exponential pair each
    for cls, chart, surface in ((ComposedP, oracles.chart_p, "annulus"),
                                (ComposedQ, oracles.chart_q, "punctured")):
        h = _hbar(rng, "complex")
        g = [nonzero_coeff(rng) for _ in range(4)]
        gt = [nonzero_coeff(rng) for _ in range(4)]
        fa, fb = cls(PolyFn(g)), cls(PolyFn(gt))
        pts = stratified_disk_points(rng, SWEEP_POINTS, SWEEP_RADIUS)
        ops += _sweep(f"sweep/{cls.__name__}/poly",
                      lambda z, fa=fa, fb=fb, h=h: lambda: wickstar.star_disk(fa, fb, h, z, cfg),
                      pts, [oracles.surface_poly_star(g, gt, h, chart(z), surface) for z in pts])
        a, b = _scale(rng, 0.5), _scale(rng, 0.5)
        ea, eb = cls(ExpFn(a)), cls(ExpFn(b))
        pts = stratified_disk_points(rng, SWEEP_POINTS, SWEEP_RADIUS)
        ops += _sweep(f"sweep/{cls.__name__}/exp",
                      lambda z, ea=ea, eb=eb, h=h: lambda: wickstar.star_disk(ea, eb, h, z, cfg),
                      pts, [oracles.surface_exp_star(a, b, h, chart(z), surface) for z in pts])

    # the surface products in the chart variable; the certified series
    # reaches only small |w|, since its radius halves with each derivative
    for surface, series in (("annulus", False), ("annulus", False),
                            ("punctured", False), ("punctured", True)):
        h = _hbar(rng, "complex")
        a, b = _scale(rng, 1.0), _scale(rng, 1.0)
        if series:
            ga, gb = _exp_taylor(a, 40, 64.0), _exp_taylor(b, 40, 64.0)
        else:
            ga, gb = ExpFn(a), ExpFn(b)
        pts = stratified_disk_points(rng, SWEEP_POINTS, 0.2 if series else 1.5)
        ops += _sweep(f"sweep/{surface}/{'series' if series else 'exp'}",
                      lambda w, op=f"star_{surface}", ga=ga, gb=gb, h=h:
                      lambda: getattr(wickstar, op)(ga, gb, h, w, cfg),
                      pts, [oracles.surface_exp_star(a, b, h, w, surface) for w in pts])
    return Workload("point-sweep", ops, tail_q=0.99)


# ---------------------------------------------------------------------------
# exact: QC / Fraction requests on the exact paths
# ---------------------------------------------------------------------------

EXACT_DISK_OPS = 40
EXACT_SURFACE_OPS = 40
EXACT_HBARS = [Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), QC(Fraction(1, 2), Fraction(1, 3)),
               QC(Fraction(1, 4), Fraction(-2, 3))]


def _exact_point(rng) -> QC:
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if a * a + b * b < 90:
            return QC(Fraction(a, 10), Fraction(b, 10))


def _exact_coeff(rng) -> QC:
    while True:
        c = QC(rng.randint(-3, 3), rng.randint(-3, 3))
        if c:
            return c


def _exact_bipoly(rng, slots) -> dict:
    return {k: _exact_coeff(rng) for k in slots}


def _exact_polyfn(rng, deg: int) -> list:
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
    return coeffs + [Fraction(rng.choice((-2, -1, 1, 2)))]


def exact(seed: int) -> Workload:
    rng = _rng("exact", seed)
    ops = []
    # one request that never terminates: must raise NonTerminatingError.
    # Its cost grows with the size of z's numerators, so z keeps them fixed.
    z = QC(Fraction(rng.choice((-3, 3)), 10), Fraction(rng.choice((-4, 4)), 10))
    zbar, zz = BiPoly.w(exact=True), BiPoly.z(exact=True)
    ops.append(Op("exact/non-terminating",
                  lambda: wickstar.star_disk(PolyDisk(zbar), PolyDisk(zz), Fraction(1, 2), z,
                                    StarConfig(mode="exact-finite")),
                  check_raises(NonTerminatingError)))

    # terminating disk products: f holomorphic or g antiholomorphic
    cfg = StarConfig(mode="exact-finite")
    general = [(i, j) for i in range(3) for j in range(3)]
    for k in range(EXACT_DISK_OPS):
        if k % 2 == 0:
            f = _exact_bipoly(rng, [(0, 0), (1, 0), (2, 0)])
            g = _exact_bipoly(rng, rng.sample(general, 4))
        else:
            f = _exact_bipoly(rng, rng.sample(general, 4))
            g = _exact_bipoly(rng, [(0, 0), (0, 1), (0, 2)])
        z = _exact_point(rng)
        h = EXACT_HBARS[k % len(EXACT_HBARS)]
        ref = oracles.exact_pointwise({key: oracles.cq(a) for key, a in f.items()},
                                      {key: oracles.cq(a) for key, a in g.items()},
                                      oracles.cq(z))
        ops.append(Op("exact/disk",
                      lambda f=f, g=g, h=h, z=z: wickstar.star_disk(PolyDisk(BiPoly(f)), PolyDisk(BiPoly(g)),
                                                           h, z, cfg),
                      check_exact_value(ref)))

    # exact surface polynomials, degrees 2..8
    for k in range(EXACT_SURFACE_OPS):
        surface = "annulus" if k % 2 == 0 else "punctured"
        deg = 2 + (k // 2) % 7
        g, gt = _exact_polyfn(rng, deg), _exact_polyfn(rng, deg)
        h = EXACT_HBARS[k % len(EXACT_HBARS)]
        ref = oracles.exact_surface_poly([oracles.cq(c) for c in g], [oracles.cq(c) for c in gt],
                                         oracles.cq(h), surface)
        ops.append(Op(f"exact/{surface}-poly",
                      lambda op=f"star_{surface}_poly", g=g, gt=gt, h=h:
                      getattr(wickstar, op)(PolyFn(g), PolyFn(gt), h),
                      check_exact_poly(ref)))
    return Workload("exact", ops, tail_q=0.90)


# ---------------------------------------------------------------------------
# verify-rigidity: every verification suite and the bundled rigidity specs
# ---------------------------------------------------------------------------

SUITE_NAMES = ["unit", "cn", "commutativity", "noncommutativity", "associativity",
               "conformal", "lift", "charts", "deck", "danielewski", "psi", "invariance"]
# verify checks whose float tolerance ignores the size of the sampled
# coordinates, so that they fail on some seeds (danielewski-chart on 41 of
# seeds 0-399, translation-invariant-kernel on 1); counted, not failed
SEED_DEPENDENT_CHECKS = {"danielewski-chart", "translation-invariant-kernel"}
# suite seeds per benchmark seed: a suite's cost depends on its seed
# (associativity takes 20-160 ms), so one seed alone would make the cost
# of a pass vary from seed to seed.  The specs run once per suite seed;
# the median latency falls on one of them.
VERIFY_SEEDS = 4
SPEC_EXPECT = {
    "two-hyperbolic-d3": ("dimension", 1),
    "elliptic-N2-d2": ("invariant_indices", [[0, 0], [0, 2], [1, 1], [2, 0], [2, 2]]),
    "annulus-punctured-obstruction": ("verdict", "obstructed"),
}


def _cli_call(argv: list) -> Callable[[], tuple]:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return call


def _check_report(content_ok: Callable[[dict], bool]) -> Callable[[object], Verdict]:
    """The expected content, its exit code, and byte-identical text on
    every call (the first call fixes the text)."""
    first = []

    def check(out) -> Verdict:
        try:
            code, text = out
            body = json.loads(text)
        except (TypeError, ValueError):
            return Verdict(failed=True)
        if not first:
            first.append(text)
        failing = {c["name"] for c in body.get("checks", []) if c["status"] != "pass"}
        known = bool(failing) and failing <= SEED_DEPENDENT_CHECKS
        return Verdict(failed=(code != (1 if failing else 0) or text != first[0]
                               or not content_ok(body) or bool(failing) and not known),
                       known_defect=known)

    return check


def verify_rigidity(seed: int) -> Workload:
    ops = []
    for suite_seed in range(seed * VERIFY_SEEDS, (seed + 1) * VERIFY_SEEDS):
        for name in SUITE_NAMES:
            ops.append(Op(f"verify/{name}",
                          _cli_call(["verify", "--suite", name, "--seed", str(suite_seed)]),
                          _check_report(lambda body: bool(body["checks"]))))
        for spec, (key, want) in SPEC_EXPECT.items():
            ops.append(Op(f"rigidity/{spec}", _cli_call(["rigidity", "--spec", spec]),
                          _check_report(lambda body, key=key, want=want:
                                        body.get(key) == want)))
    return Workload("verify-rigidity", ops, tail_q=0.90)


WORKLOADS = {
    "disk-cold": disk_cold,
    "point-sweep": point_sweep,
    "exact": exact,
    "verify-rigidity": verify_rigidity,
}
