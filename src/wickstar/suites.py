"""The registered verification suites behind ``verify``.

Every suite returns a list of CheckResult records; a suite passes when
all its checks do.  Reports are deterministic for a fixed seed: each suite
draws random() alone, on its own stream from ``sampling.rng_for``; timings
default to 0 (opt-in via the timing flag, breaking byte-identity on purpose).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .exact import QC
from .errors import DomainError
from .functions import BiPoly, PolyFn
from .peschl_minda import (ComposedP, ComposedQ, MoebiusPullback, PolyDisk,
                           p_aux, q_aux)
from .sampling import _integer, rng_for, sample_disk, sample_gpoints, sample_half_plane
from .sphere import (MoebiusMap, annulus_deck_multiplier,
                     covering_disk_to_annulus, covering_disk_to_punctured,
                     covering_half_to_annulus, danielewski_chart, gamma_hat)
from .star import (Hbar, StarConfig, c_direct_sequence, c_n, c_sequence,
                   star_annulus, star_annulus_poly, star_disk,
                   star_disk_poly_truncated, star_punctured, star_punctured_poly)
from .surfaces import (AnnulusElement, chart_f_0, chart_f_R,
                       gamma_hat_invariant, iso_psi, scaling_kernel,
                       translation_kernel)


@dataclass
class CheckResult:
    name: str
    statement: str
    status: str          # "pass" | "fail"
    max_residual: float
    samples: int
    runtime_ms: int = 0
    # perf_counter() when the check was decided; not part of the report
    done_at: float = field(default_factory=time.perf_counter, repr=False)


def _check(name, statement, residual, tol, samples):
    status = "pass" if residual <= tol else "fail"
    return CheckResult(name, statement, status, float(residual), samples)


def _rand_bipoly(rng, deg: int, exact: bool = False) -> BiPoly:
    d = {}
    for i in range(deg + 1):
        for j in range(deg + 1):
            re = _integer(rng, -3, 4)
            im = _integer(rng, -3, 4)
            if re or im:
                d[(i, j)] = QC(re, im) if exact else complex(re, im)
    if not d:
        d[(0, 0)] = QC(1) if exact else 1.0 + 0j
    return BiPoly(d)


def _sparse_bipoly(rng, deg: int) -> BiPoly:
    d = {}
    while len(d) < 2:
        i = _integer(rng, 0, deg + 1)
        j = _integer(rng, 0, deg + 1)
        d[(i, j)] = complex(_integer(rng, -3, 4), _integer(rng, -3, 4))
    return BiPoly(d) if BiPoly(d).coeffs else BiPoly.constant(1.0 + 0j)


def _rand_polyfn(rng, deg: int, exact: bool = False) -> PolyFn:
    coeffs = [_integer(rng, -3, 4) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = 1
    if exact:
        coeffs = [Fraction(c) for c in coeffs]
    return PolyFn(coeffs)


def _exact_disk_points(rng, n):
    pts = []
    while len(pts) < n:
        a = _integer(rng, -6, 7)
        b = _integer(rng, -6, 7)
        if a * a + b * b < 90:
            pts.append(QC(Fraction(a, 10), Fraction(b, 10)))
    return pts


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_unit(rng):
    cfg = StarConfig(mode="exact-finite")
    one = PolyDisk(BiPoly.constant(QC(1)))
    h = Fraction(1, 2)
    bad = 0
    n_s = 0
    for _ in range(5):
        f = PolyDisk(_rand_bipoly(rng, 2, exact=True))
        for z in _exact_disk_points(rng, 5):
            n_s += 2
            if star_disk(one, f, h, z, cfg).value != f.value(z):
                bad += 1
            if star_disk(f, one, h, z, cfg).value != f.value(z):
                bad += 1
    c1 = _check("disk-unit", "1 is a two-sided unit of the disk product",
                float(bad), 0, n_s)

    onep = PolyFn([Fraction(1)])
    bad = 0
    for _ in range(6):
        g = _rand_polyfn(rng, 4, exact=True)
        if star_annulus_poly(onep, g, h) != g or star_annulus_poly(g, onep, h) != g:
            bad += 1
        if star_punctured_poly(onep, g, h) != g or star_punctured_poly(g, onep, h) != g:
            bad += 1
    c2 = _check("surface-unit",
                "1 is a two-sided unit of the annulus and punctured products",
                float(bad), 0, 24)
    return [c1, c2]


def suite_cn(rng):
    hs = [Fraction(1), Fraction(1, 2), QC(1, 1)]
    bad = 0
    for h in hs:
        bad += sum(c != d for c, d in zip(c_sequence(h, 30), c_direct_sequence(h, 30)))
    for n, c in enumerate(c_sequence(Fraction(1), 30)):
        if c != Fraction(1, math.factorial(n)):
            bad += 1
    c1 = _check("cn-recurrence-vs-product",
                "coefficient recurrence equals the product formula; "
                "c_n(1) = 1/n!", float(bad), 0, 31 * 4)

    rejected = 0
    poles = [0, Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), QC(-1),
             -0.5, -1.0 / 3.0]
    for h in poles:
        try:
            Hbar(h)
        except DomainError:
            rejected += 1
    c2 = _check("cn-domain-guard",
                "deformation poles 0, -1, -1/2, -1/3 are rejected",
                float(len(poles) - rejected), 0, len(poles))
    return [c1, c2, _check(
        "cn-value", "spot value c_2 = h^2/(1+h) at h = 1+i",
        0.0 if c_n(QC(1, 1), 2) == QC(1, 1) ** 2 / QC(2, 1) else 1.0, 0, 1)]


def suite_commutativity(rng):
    bad = 0
    n_s = 0
    for h in [Fraction(1, 2), QC(1, 1)]:
        for _ in range(5):
            g = _rand_polyfn(rng, 4, exact=True)
            gt = _rand_polyfn(rng, 4, exact=True)
            n_s += 2
            if star_annulus_poly(g, gt, h) != star_annulus_poly(gt, g, h):
                bad += 1
            if star_punctured_poly(g, gt, h) != star_punctured_poly(gt, g, h):
                bad += 1
    return [_check("surface-commutativity",
                   "annulus and punctured products are commutative, "
                   "exactly on polynomial coefficients", float(bad), 0, n_s)]


def suite_noncommutativity(rng):
    """The disk product is noncommutative: conj z and z do not commute."""
    f = PolyDisk(BiPoly.w())   # conj z
    g = PolyDisk(BiPoly.z())
    cfg = StarConfig(max_terms=80, tol=1e-14)
    worst = 0.0
    min_mag = float("inf")
    n_s = 0
    for h in [0.5, 1 + 1j]:
        zs = sample_disk(rng, 20, rmax=0.7)
        for z, lhs, rhs in zip(zs, star_disk(f, g, h, zs, cfg), star_disk(g, f, h, zs, cfg)):
            comm = lhs.value - rhs.value
            # independent series: sum_{n>=1} c_n n! (1-|z|^2)^2 |z|^{2(n-1)}
            r2 = abs(z) ** 2
            c = 1 + 0j
            oracle = 0j
            for n in range(1, 81):
                c = c * h / (1 + (n - 1) * h)
                oracle += c * math.factorial(n) * (1 - r2) ** 2 * r2 ** (n - 1)
            worst = max(worst, abs(comm - oracle))
            min_mag = min(min_mag, abs(comm))
            n_s += 1
    checks = [_check("disk-commutator-series",
                     "the commutator of conj z and z matches its "
                     "independently summed series", worst, 1e-12, n_s)]
    checks.append(_check("disk-commutator-nonzero",
                         "the commutator is bounded away from zero",
                         0.0 if min_mag > 1e-6 else 1.0, 0, n_s))
    return checks


def suite_associativity(rng):
    n_terms = 24
    h = 0.4
    worst = 0.0
    n_s = 0
    for _ in range(3):
        f = _sparse_bipoly(rng, 1)
        g = _sparse_bipoly(rng, 1)
        k = _sparse_bipoly(rng, 1)
        fg = star_disk_poly_truncated(f, g, h, n_terms)
        gk = star_disk_poly_truncated(g, k, h, n_terms)
        lhs = star_disk_poly_truncated(fg, k, h, n_terms)
        rhs = star_disk_poly_truncated(f, gk, h, n_terms)
        for z in sample_disk(rng, 8, rmax=0.5):
            worst = max(worst, abs(lhs.eval_diag(z) - rhs.eval_diag(z)))
            n_s += 1
    c1 = _check("disk-associativity-numeric",
                "the disk product is associative on polynomial triples "
                "up to series truncation", worst, 1e-12, n_s)

    # terminating triples stay exact: holomorphic operands multiply pointwise
    bad = 0
    cfg = StarConfig(mode="exact-finite")
    hq = Fraction(1, 2)
    zq = QC(Fraction(1, 4), Fraction(1, 5))
    fz = PolyDisk(BiPoly.z(exact=True))
    prod = star_disk(fz, fz, hq, zq, cfg).value
    if prod != zq * zq:
        bad += 1
    c2 = _check("disk-holomorphic-pointwise",
                "holomorphic operands multiply pointwise, exactly",
                float(bad), 0, 1)
    return [c1, c2]


def suite_conformal(rng):
    cfg = StarConfig(max_terms=64, tol=1e-13)
    h = 0.3
    worst = 0.0
    n_s = 0
    for _ in range(10):
        a = 0.15 * (rng.random() + 1j * rng.random())
        phi = MoebiusMap.disk_automorphism(a, 2 * math.pi * rng.random())
        f = PolyDisk(_rand_bipoly(rng, 1))
        g = PolyDisk(_rand_bipoly(rng, 1))
        fp = MoebiusPullback(f, phi)
        gp = MoebiusPullback(g, phi)
        zs = sample_disk(rng, 5, rmax=0.6)
        lhs = star_disk(fp, gp, h, zs, cfg)
        rhs = star_disk(f, g, h, [phi.apply(z) for z in zs], cfg)
        for x, y in zip(lhs, rhs):
            worst = max(worst, abs(x.value - y.value))
            n_s += 1
    return [_check("disk-conformal-invariance",
                   "precomposition with a disk automorphism intertwines "
                   "the disk product", worst, 1e-8, n_s)]


def suite_lift(rng, punctured_weight="derived"):
    cfg = StarConfig(max_terms=48, tol=1e-14)
    h = 0.35
    radius = 2.0
    worst_a = 0.0
    worst_p = 0.0
    n_s = 0
    for _ in range(5):
        g = _rand_polyfn(rng, 2)
        gt = _rand_polyfn(rng, 2)
        fa, fta = ComposedP(g), ComposedP(gt)
        fp, ftp = ComposedQ(g), ComposedQ(gt)
        zs = sample_disk(rng, 10, rmax=0.6)
        w_a = [chart_f_R(radius, covering_disk_to_annulus(radius, z)) for z in zs]
        w_p = [chart_f_0(covering_disk_to_punctured(z)) for z in zs]
        for lhs, rhs in zip(star_annulus(g, gt, h, w_a, cfg), star_disk(fa, fta, h, zs, cfg)):
            worst_a = max(worst_a, abs(lhs.value - rhs.value))
        for lhs, rhs in zip(star_punctured(g, gt, h, w_p, cfg, weight_variant=punctured_weight),
                            star_disk(fp, ftp, h, zs, cfg)):
            worst_p = max(worst_p, abs(lhs.value - rhs.value))
        n_s += len(zs)
    return [
        _check("annulus-lift-coherence",
               "the annulus product agrees with the disk product on "
               "lifted functions at covering-related points", worst_a, 1e-9, n_s),
        _check("punctured-lift-coherence",
               "the punctured-disk product agrees with the disk product "
               "on lifted functions", worst_p, 1e-9, n_s),
    ]


def suite_charts(rng):
    radius = 2.0
    worst_p = 0.0
    worst_q = 0.0
    for z in sample_disk(rng, 100, rmax=0.95):
        worst_p = max(worst_p, abs(
            chart_f_R(radius, covering_disk_to_annulus(radius, z)) - p_aux(z)))
        worst_q = max(worst_q, abs(
            chart_f_0(covering_disk_to_punctured(z)) - q_aux(z)))
    return [
        _check("annulus-chart-coherence",
               "chart of the annulus covering equals the bivariate "
               "auxiliary function p", worst_p, 1e-10, 100),
        _check("punctured-chart-coherence",
               "chart of the punctured covering equals the auxiliary "
               "function q", worst_q, 1e-10, 100),
    ]


def suite_deck(rng):
    radius = 2.0
    c = annulus_deck_multiplier(radius)
    worst = 0.0
    for z in sample_half_plane(rng, 100):
        a = covering_half_to_annulus(radius, c * z)
        b = covering_half_to_annulus(radius, z)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return [_check("annulus-deck-relation",
                   "the half-plane covering of the annulus is invariant "
                   "under its deck scaling", worst, 1e-10, 100)]


def suite_danielewski(rng):
    u = 2.0 ** -53
    worst = 0.0
    pts = sample_gpoints(rng, 1000)
    for p in pts:
        a, b, c = danielewski_chart(p)
        scale = u * (abs(b) ** 2 + 4 * abs(a) * abs(c) + 1)
        worst = max(worst, abs(b * b - 4 * a * c - 1) / scale)
    return [_check("danielewski-chart",
                   "the pair chart lands on the surface b^2 - 4ac = 1: the float "
                   "residual, in units of u(|b|^2 + 4|a||c| + 1) with u = 2^-53, is at "
                   "most 24. To first order a complex sum errs by u, a product by "
                   "2 sqrt(2) u (Higham, Lemma 3.5) and a Smith quotient by 7u, so "
                   "a = 1/(z-w), b = (z+w)/(z-w) and c = zw/(z-w) err by 8u, 9u and "
                   "(8 + 2 sqrt(2))u; b^2 errs by (18 + 2 sqrt(2))u|b|^2, 4ac by "
                   "(16 + 4 sqrt(2))u 4|a||c|, and the two subtractions by u each; "
                   "every coefficient is below 22, and 24 leaves room for the higher "
                   "orders",
                   worst, 24, len(pts))]


def suite_psi(rng):
    cfg = StarConfig(max_terms=48, tol=1e-14)
    h = 0.3
    r_from, r_to = 2.0, 3.0
    worst = 0.0
    n_s = 0
    for _ in range(5):
        g = _rand_polyfn(rng, 3)
        gt = _rand_polyfn(rng, 3)
        prod_g = star_annulus_poly(g, gt, h)
        lhs_el = iso_psi(AnnulusElement(r_from, prod_g), r_to)
        zs = []
        for _ in range(10):
            mod = math.exp(0.8 * math.log(r_to) * (2 * rng.random() - 1))
            theta = 2 * math.pi * rng.random()
            zs.append(mod * complex(math.cos(theta), math.sin(theta)))
        rhs = star_annulus(g, gt, h, [chart_f_R(r_to, z) for z in zs], cfg)
        for z, res in zip(zs, rhs):
            worst = max(worst, abs(lhs_el.value(z) - res.value))
            n_s += 1
    c1 = _check("psi-morphism",
                "the modulus-change map intertwines the annulus products",
                worst, 1e-9, n_s)

    e = AnnulusElement(2.0, PolyFn([0, 1]))
    same = iso_psi(e, 2.0)
    c2 = _check("psi-identity", "modulus-change to the same modulus is the "
                "identity", 0.0 if (same.radius == e.radius and same.g == e.g)
                else 1.0, 0, 1)
    return [c1, c2]


def suite_invariance(rng):
    pts = sample_gpoints(rng, 60)
    g = PolyFn([0, 1, 1])     # t + t^2

    r1 = gamma_hat_invariant(scaling_kernel(g), MoebiusMap.scaling(2.0), pts, 0)
    kernel, shift = translation_kernel(g), MoebiusMap.translation(1.0)
    u = 2.0 ** -53
    worst = 0.0
    for p in pts:
        z, w = p.z.value(), p.w.value()
        t = 1 / (z - w)
        scale = u * abs(t) * (abs(1 + 2 * t) * (16 + (abs(z + 1) + abs(w + 1)) * abs(t))
                              + 8 * abs(1 + t))
        worst = max(worst, abs(kernel(gamma_hat(shift, p)) - kernel(p)) / scale)
    witness = gamma_hat_invariant(lambda p: p.z.value(), MoebiusMap.scaling(2.0), pts, 0)
    return [
        _check("scaling-invariant-kernel",
               "g(w/(z-w)) is invariant under the scaling action, exactly: scaling by "
               "2 is exact in binary floating point, and so is every step of the "
               "kernel at the doubled point, since z - w doubles and a Smith quotient "
               "of doubled operands equals the undoubled one",
               r1.max_residual, 0, r1.samples),
        _check("translation-invariant-kernel",
               "g(1/(z-w)) is invariant under the translation action: the float "
               "residual, in units of u|t|(|1+2t|(16 + (|z+1| + |w+1|)|t|) + 8|1+t|) "
               "with t = 1/(z-w) and u = 2^-53, is at most 2. Translating by 1 rounds "
               "z + 1 and w + 1 by u|z+1| and u|w+1|, which moves t by "
               "(|z+1| + |w+1|)u|t|^2; z - w errs by u and a Smith quotient by 7u, so "
               "each computed t errs by 8u|t| more, and g' = 1 + 2t carries these "
               "errors to g(t); the Horner steps t + 1 and (t + 1)t err by u and "
               "2 sqrt(2) u (Higham, Lemma 3.5), below 4u|t||1+t| for each of the two "
               "values. To first order the residual is at most 1 in these units, and "
               "2 leaves room for the higher orders",
               worst, 2, len(pts)),
        _check("non-invariant-witness",
               "the coordinate function is detected as non-invariant",
               0.0 if not witness.passed else 1.0, 0, witness.samples),
    ]


SUITES = {
    "unit": suite_unit,
    "cn": suite_cn,
    "commutativity": suite_commutativity,
    "noncommutativity": suite_noncommutativity,
    "associativity": suite_associativity,
    "conformal": suite_conformal,
    "lift": suite_lift,
    "charts": suite_charts,
    "deck": suite_deck,
    "danielewski": suite_danielewski,
    "psi": suite_psi,
    "invariance": suite_invariance,
}


def run_suites(names=None, seed: int = 0, timing: bool = False, inject_bug: str | None = None) -> dict:
    """Run the selected suites and assemble the report dictionary."""
    if names is None:
        names = list(SUITES)
    checks = []
    rng = rng_for(seed)
    for name in names:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}; "
                              f"available: {', '.join(sorted(SUITES))}")
        rng.seed(int.from_bytes(f"{seed}:{name}".encode(), "big"))
        prev = time.perf_counter()
        if name == "lift" and inject_bug == "printed-weight":
            results = suite_lift(rng, punctured_weight="printed")
        else:
            results = SUITES[name](rng)
        if timing:
            # each check's own time: since the previous check of its suite
            for r in sorted(results, key=lambda r: r.done_at):
                r.runtime_ms = int((r.done_at - prev) * 1000)
                prev = r.done_at
        checks.extend(results)
    return {
        "metadata": {"seed": seed, "version": __version__},
        "checks": [{k: v for k, v in vars(c).items() if k != "done_at"}
                   for c in checks],
    }
