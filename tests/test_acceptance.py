"""End-to-end acceptance checks, one test per contract line.

Each test prints one pass/fail line under ``pytest -v``.  The disk
product terminates, with value ``f * g``, exactly when the first factor
is holomorphic or the second antiholomorphic; every other product of
polynomials is an infinite series.  The checks of the commutator
(``test_02``) and of associativity (``test_03``) therefore assert exact
values only where the series terminates, and compare the infinite
series with an independently summed closed form or with a residual
bounded by the truncation rate.
"""

import io
import itertools
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from oracles import exact_gpoints, star_surface_by_terms

from wickstar.cli import main
from wickstar.errors import DomainError, NonTerminatingError
from wickstar.exact import QC
from wickstar.functions import BiPoly, PolyFn
from wickstar.peschl_minda import (ComposedP, ComposedQ, MoebiusPullback,
                                   PolyDisk)
from wickstar.sampling import _integer, rng_for, sample_disk, sample_gpoints
from wickstar.sphere import (MoebiusMap, annulus_deck_multiplier,
                             covering_disk_to_annulus, covering_disk_to_punctured,
                             covering_half_to_annulus, danielewski_chart)
from wickstar.peschl_minda import p_aux, q_aux
from wickstar.rigidity import elliptic_invariant_indices, obstruction_check
from wickstar.sampling import sample_half_plane
from wickstar.star import (Hbar, StarConfig, c_n, c_n_direct, star_annulus,
                           star_annulus_poly, star_disk, star_disk_poly_exact,
                           star_disk_poly_truncated, star_punctured,
                           star_punctured_poly)
from wickstar.surfaces import (AnnulusElement, chart_f_0, chart_f_R,
                               gamma_hat_invariant, iso_psi, scaling_kernel,
                               translation_kernel)

EXACT = StarConfig(mode="exact-finite")


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _commutator_closed_form(h, z):
    """h (1-|z|^2)^2 2F1(1, 2; 1 + 1/h; |z|^2), summed from the
    hypergeometric term ratio (m + 2) |z|^2 / (m + 1 + 1/h)."""
    x = abs(z) ** 2
    a = 1 + 1 / h
    term = total = 1 + 0j
    m = 0
    while abs(term) > 1e-17 * abs(total):
        term *= (m + 2) / (m + a) * x
        total += term
        m += 1
    return h * (1 - x) ** 2 * total


def _terminates(f, g):
    """Dbar^n f dies at n = 1 iff f is holomorphic, D^n g iff g is
    antiholomorphic; otherwise both towers of a polynomial pair stay
    nonzero at every order."""
    return (all(j == 0 for _, j in f.coeffs)
            or all(i == 0 for i, _ in g.coeffs))


def test_01_coefficient_recurrence_product_value_and_guard():
    for h in (Fraction(1), Fraction(1, 2), QC(1, 1)):
        for n in range(31):
            assert c_n(h, n) == c_n_direct(h, n)
    for n in range(31):
        assert c_n(Fraction(1), n) == Fraction(1, math.factorial(n))
    for bad in (0, -1, Fraction(-1, 2), Fraction(-1, 3)):
        with pytest.raises(DomainError):
            Hbar(bad)


def test_02_disk_unit_and_exact_commutator():
    rng = rng_for(2)
    one = PolyDisk(BiPoly.constant(1 + 0j))
    zs = sample_disk(rng, 100, rmax=0.8)
    for h in (0.5, 1 + 1j):
        f = PolyDisk(BiPoly({(1, 1): 2 - 1j, (2, 0): 0.5j, (0, 1): 1 + 0j}))
        for z in zs:
            assert star_disk(one, f, h, z, EXACT).value == f.value(z)
            assert star_disk(f, one, h, z, EXACT).value == f.value(z)
    # z * conj z terminates (z is holomorphic) and equals z conj z
    # exactly.  conj z * z is an infinite series: term n is
    # c_n n! (1-|z|^2)^2 |z|^{2(n-1)}, and c_n n! = n!/(1/h)_n, so the
    # commutator is h (1-|z|^2)^2 2F1(1, 2; 1 + 1/h; |z|^2) (DLMF 15.2),
    # not its order-h term h (1-|z|^2)^2 (the hyperbolic Poisson bracket).
    zp = PolyDisk(BiPoly.z(exact=True))
    zb = PolyDisk(BiPoly({(0, 1): QC(1)}))
    zb_float, zp_float = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    cfg = StarConfig(max_terms=96, tol=1e-13)

    def commutator(h, z):
        direct_order = star_disk(zp, zb, h, z, EXACT).value
        assert direct_order == zp.value(z) * zb.value(z)
        res = star_disk(zb_float, zp_float, h, z, cfg)
        assert res.converged
        return res.value - direct_order

    for h in (0.5, 1 + 1j):
        for z in zs:
            comm = commutator(h, z)
            assert comm == pytest.approx(_commutator_closed_form(h, z),
                                         rel=1e-10)
    # the old expected value is the order-h term: the remainder is
    # 2 h^2 |z|^2 (1-|z|^2)^2 (1 + O(h))
    h = 1e-3
    for z in zs:
        r2 = abs(z) ** 2
        second_order = (commutator(h, z) - h * (1 - r2) ** 2) / h ** 2
        assert second_order == pytest.approx(2 * r2 * (1 - r2) ** 2, rel=1e-2)


def test_03_disk_associativity_exact_on_monomials():
    h = Fraction(1, 2)
    monomials = [BiPoly.constant(QC(1)), BiPoly.z(exact=True),
                 BiPoly({(0, 1): QC(1)}), BiPoly({(2, 0): QC(1)}),
                 BiPoly({(1, 1): QC(1)}), BiPoly({(0, 2): QC(1)})]
    floats = [BiPoly({e: 1.0 for e in m.coeffs}) for m in monomials]
    infinite = {}

    def product(f, g):
        """f * g where the series terminates; None (pair recorded) else."""
        if not _terminates(f, g):
            infinite[tuple(f.coeffs), tuple(g.coeffs)] = (f, g)
            return None
        out = star_disk_poly_exact(f, g, h)
        assert out == f * g
        return out

    # exact wherever all four products terminate
    truncated = []
    for a, b, c in itertools.product(range(len(monomials)), repeat=3):
        f, g, k = monomials[a], monomials[b], monomials[c]
        fg, gk = product(f, g), product(g, k)
        left = None if fg is None else product(fg, k)
        right = None if gk is None else product(f, gk)
        if left is None or right is None:
            truncated.append((a, b, c))
        else:
            assert left == right == f * g * k
    assert len(truncated) == 108

    # a product the rule calls infinite has no exact value; both towers
    # of such a pair are alive past order 1, where the others all die
    for f, g in infinite.values():
        with pytest.raises(NonTerminatingError):
            star_disk_poly_exact(f, g, h)

    # the remaining triples agree through the truncated products.  At
    # |z| = r the dropped terms fall like r^{2N}: the Dbar^n of conj(z)^j
    # carries z^{n-j} and the D^n of z^i carries conj(z)^{n-i}, so
    # degree-2 operands lift the rate by r^{-4}, and the towers of the
    # nested products (degree up to N + 2) add a factor polynomial in N.
    # Measured on |z| = 0.3 and |z| = 0.5 for N = 8..24, the residual
    # stays below a tenth of N^3 |z|^{2N-4} (worst 2.1e-11 at N = 24,
    # |z| = 0.5), hence tol = N^3 r^{2N-4}, about 7.9e-10, far below
    # the O(h^2) size a non-associative product would leave.
    n_terms, r = 24, 0.5
    tol = n_terms ** 3 * r ** (2 * n_terms - 4)
    zs = sample_disk(rng_for(3), 8, rmax=r)
    inner = {(a, b): star_disk_poly_truncated(f, g, h, n_terms)
             for (a, f), (b, g) in itertools.product(enumerate(floats),
                                                     repeat=2)}
    for a, b, c in truncated:
        left = star_disk_poly_truncated(inner[a, b], floats[c], h, n_terms)
        right = star_disk_poly_truncated(floats[a], inner[b, c], h, n_terms)
        for z in zs:
            assert abs(left.eval_diag(z) - right.eval_diag(z)) < tol


def test_04_conformal_invariance_of_the_disk_product():
    rng = rng_for(4)
    cfg = StarConfig(max_terms=96, tol=1e-13)
    h = 0.5
    worst = 0.0
    for _ in range(50):
        coeffs_f = {(_integer(rng, 0, 4), _integer(rng, 0, 4)):
                    complex(_integer(rng, -2, 3), _integer(rng, -2, 3))
                    for _ in range(4)}
        coeffs_g = {(_integer(rng, 0, 4), _integer(rng, 0, 4)):
                    complex(_integer(rng, -2, 3), _integer(rng, -2, 3))
                    for _ in range(4)}
        f = PolyDisk(BiPoly(coeffs_f) + 1)
        g = PolyDisk(BiPoly(coeffs_g) + 1)
        a = 0.15 * complex(2 * rng.random() - 1, 2 * rng.random() - 1)
        phi = MoebiusMap.disk_automorphism(a, 6.28 * rng.random())
        z = sample_disk(rng, 1, rmax=0.7)[0]
        lhs = star_disk(MoebiusPullback(f, phi), MoebiusPullback(g, phi),
                        h, z, cfg).value
        rhs = star_disk(f, g, h, phi.apply(z), cfg).value
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst < 1e-8


def test_05_annulus_closed_form_and_commutativity():
    t = PolyFn([Fraction(0), Fraction(1)])
    for h in (Fraction(1, 2), Fraction(3), QC(1, 2)):
        assert star_annulus_poly(t, t, h).coeffs == [-h, h * 0, 1 + h]
    rng = rng_for(5)
    for _ in range(8):
        g = PolyFn([Fraction(_integer(rng, -3, 4)) for _ in range(5)])
        gt = PolyFn([Fraction(_integer(rng, -3, 4)) for _ in range(5)])
        h = Fraction(1, 2)
        assert star_annulus_poly(g, gt, h) == star_annulus_poly(gt, g, h)


def test_06_punctured_closed_form_and_commutativity():
    t = PolyFn([Fraction(0), Fraction(1)])
    for h in (Fraction(1, 2), Fraction(2), QC(0, 1)):
        assert star_punctured_poly(t, t, h).coeffs == [h * 0, h * 0, 1 + h]
    rng = rng_for(6)
    for _ in range(8):
        g = PolyFn([Fraction(_integer(rng, -3, 4)) for _ in range(5)])
        gt = PolyFn([Fraction(_integer(rng, -3, 4)) for _ in range(5)])
        h = Fraction(1, 3)
        assert star_punctured_poly(g, gt, h) == star_punctured_poly(gt, g, h)


def test_07_lift_coherence_and_weight_discrimination():
    rng = rng_for(7)
    cfg = StarConfig(max_terms=64, tol=1e-14)
    h = 0.3
    g = PolyFn([0, 1, -1])
    gt = PolyFn([1, 2])
    worst_a = worst_p = 0.0
    for z in sample_disk(rng, 50, rmax=0.6):
        wa = chart_f_R(2.0, covering_disk_to_annulus(2.0, z))
        lhs = star_annulus(g, gt, h, wa, cfg).value
        rhs = star_disk(ComposedP(g), ComposedP(gt), h, z, cfg).value
        worst_a = max(worst_a, abs(lhs - rhs))
        wp = chart_f_0(covering_disk_to_punctured(z))
        lhs = star_punctured(g, gt, h, wp, cfg).value
        rhs = star_disk(ComposedQ(g), ComposedQ(gt), h, z, cfg).value
        worst_p = max(worst_p, abs(lhs - rhs))
    assert worst_a < 1e-9
    assert worst_p < 1e-9
    # the wrong punctured weights 1, w^2, w^2, ... (the oracle's "printed"
    # sum) are wrong from order two on: degree-2 operands expose them
    g2 = PolyFn([0, 0, 1])
    worst_bug = 0.0
    for z in sample_disk(rng, 20, rmax=0.6):
        wp = chart_f_0(covering_disk_to_punctured(z))
        lhs = star_surface_by_terms(g2, g2, h, wp, cfg, "printed")[0]
        rhs = star_disk(ComposedQ(g2), ComposedQ(g2), h, z, cfg).value
        worst_bug = max(worst_bug, abs(lhs - rhs))
    assert worst_bug > 1e-3


def test_08_chart_covering_and_deck_identities():
    rng = rng_for(8)
    for z in sample_disk(rng, 100, rmax=0.95):
        assert abs(chart_f_R(2.0, covering_disk_to_annulus(2.0, z))
                   - p_aux(z)) < 1e-10
        assert abs(chart_f_0(covering_disk_to_punctured(z))
                   - q_aux(z)) < 1e-10
    c = annulus_deck_multiplier(2.0)
    for z in sample_half_plane(rng, 100):
        ref = covering_half_to_annulus(2.0, z)
        assert abs(covering_half_to_annulus(2.0, c * z) - ref) \
            < 1e-10 * max(1.0, abs(ref))


def test_09_modulus_change_is_a_morphism():
    rng = rng_for(9)
    cfg = StarConfig(max_terms=48, tol=1e-14)
    h = 0.3
    r_from, r_to = 2.0, 3.0
    worst = 0.0
    for _ in range(5):
        g = PolyFn([_integer(rng, -3, 4) for _ in range(4)])
        gt = PolyFn([_integer(rng, -3, 4) for _ in range(4)])
        prod = star_annulus_poly(g, gt, h)
        moved = iso_psi(AnnulusElement(r_from, prod), r_to)
        for _ in range(10):
            mod = math.exp(0.8 * math.log(r_to) * (2 * rng.random() - 1))
            theta = 2 * math.pi * rng.random()
            z = mod * complex(math.cos(theta), math.sin(theta))
            lhs = moved.value(z)
            rhs = star_annulus(g, gt, h, chart_f_R(r_to, z), cfg).value
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9
    e = AnnulusElement(2.0, PolyFn([0, 1]))
    same = iso_psi(e, 2.0)
    assert same.radius == e.radius and same.g == e.g


def test_10_invariance_predicates_on_the_configuration_space():
    # the kernel identities are rational: they hold exactly at the exact
    # values of the sampled floats
    pts = exact_gpoints(sample_gpoints(rng_for(10), 60))
    g = PolyFn([0, 1, 1])
    r1 = gamma_hat_invariant(scaling_kernel(g), MoebiusMap.scaling(2), pts)
    r2 = gamma_hat_invariant(translation_kernel(g), MoebiusMap.translation(1), pts)
    assert r1.passed and r1.max_residual == 0 and r1.samples == 60
    assert r2.passed and r2.max_residual == 0 and r2.samples == 60
    witness = gamma_hat_invariant(lambda p: p.z.value(), MoebiusMap.scaling(2), pts)
    assert not witness.passed


def test_11_two_hyperbolic_generators_leave_only_constants():
    code, out = _run_cli("rigidity", "--spec", "two-hyperbolic-d3")
    assert code == 0
    body = json.loads(out)
    # an exact certificate: the rank mod p bounds the rank over Q(i) from
    # below, and the constants give dimension >= 1
    assert body["dimension"] == 1
    assert body["rank"] == 15 and body["basis_size"] == 16
    assert body["dimension_bounds"] == [1, 1]


def test_12_elliptic_filter_keeps_even_index_differences():
    kept = elliptic_invariant_indices(2, 2)
    assert set(kept) == {(p, q) for p in range(3) for q in range(3)
                         if (p - q) % 2 == 0}


def test_13_no_uniform_isomorphism_between_the_surface_algebras():
    rep = obstruction_check(degree=3)
    assert rep.verdict == "obstructed"


def test_14_pair_chart_lands_on_the_surface():
    u = 2.0 ** -53
    pts = sample_gpoints(rng_for(14), 1000)
    for p, exact in zip(pts, exact_gpoints(pts)):
        a, b, c = danielewski_chart(p)
        # the forward-error bound that danielewski-chart derives
        assert abs(b * b - 4 * a * c - 1) <= 24 * u * (abs(b) ** 2 + 4 * abs(a) * abs(c) + 1)
        a, b, c = danielewski_chart(exact)
        assert b * b - 4 * a * c == 1


def test_15_verification_reports_are_byte_identical():
    code1, out1 = _run_cli("verify", "--seed", "42")
    code2, out2 = _run_cli("verify", "--seed", "42")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
