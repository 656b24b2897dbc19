import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import surface_poly_by_terms

from wickstar import peschl_minda, star
from wickstar.errors import DomainError, NonTerminatingError, WickstarError
from wickstar.exact import QC
from wickstar.functions import BiPoly, ExpFn, PolyFn, SeriesFn
from wickstar.peschl_minda import (ComposedP, MoebiusPullback, PolyDisk,
                                   pm_bar_bipoly, pm_bipoly)
from wickstar.sampling import _integer
from wickstar.sphere import MoebiusMap
from wickstar.star import (Hbar, StarConfig, c_n, c_n_direct, c_sequence,
                           star_annulus, star_annulus_poly, star_disk,
                           star_disk_poly_exact, star_disk_poly_truncated,
                           star_hbar_profile, star_punctured,
                           star_punctured_poly)

EXACT = StarConfig(mode="exact-finite")


# coefficients ----------------------------------------------------------------


def test_coefficient_recurrence_equals_product_formula():
    for h in (Fraction(1), Fraction(1, 2), QC(1, 1), 0.7 + 0.3j):
        seq = c_sequence(h, 12)
        for n in range(13):
            direct = c_n_direct(h, n)
            if isinstance(h, float) or isinstance(h, complex):
                assert seq[n] == pytest.approx(direct)
            else:
                assert seq[n] == direct


def test_coefficients_at_one_are_inverse_factorials():
    for n in range(15):
        assert c_n(Fraction(1), n) == Fraction(1, math.factorial(n))


def test_strict_guard_rejects_every_pole():
    for h in (0, -1, Fraction(-1, 2), Fraction(-1, 3), QC(Fraction(-1, 5)),
              -0.25, 0.0 + 0j):
        with pytest.raises(DomainError):
            Hbar(h)
    # every scalar kind names the same pole: an exact hbar exactly, a float
    # one within the rounding slack of its divisor 1 + k hbar
    for k in (1, 3, 20, 10**20):
        for h in (Fraction(-1, k), QC(Fraction(-1, k)), -1 / k, complex(-1 / k, 1e-16 / k)):
            with pytest.raises(DomainError, match=f"excluded pole -1/{k}$"):
                Hbar(h)
            assert star._pole_of(h) == k
        Hbar(QC(Fraction(-1, k), Fraction(1, 10**30)))
    assert star._pole_of(Fraction(-1, 10**20)) == star._pole_of(-1e-20) == 10**20
    Hbar(Fraction(1, 2))
    Hbar(QC(-1, 1))    # off the real pole ray
    Hbar(-0.3)         # negative but not a reciprocal integer


def test_product_paths_check_poles_lazily():
    t = PolyFn([Fraction(0), Fraction(1)])
    # -1/20 is a pole of the 21st coefficient only; degree-1 operands
    # never form it
    out = star_annulus_poly(t, t, Fraction(-1, 20))
    assert out.coeffs == [Fraction(1, 20), Fraction(0), Fraction(19, 20)]
    high = PolyFn([Fraction(0)] * 25 + [Fraction(1)])
    with pytest.raises(DomainError):
        star_annulus_poly(high, high, Fraction(-1, 20))
    with pytest.raises(DomainError):
        star_annulus_poly(t, t, 0)
    # the float sums too: kappa_21 divides by 1 + 20 hbar, so a sum to term
    # 20 is fine and one that reaches term 21 raises
    zbar, z = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    for max_terms in (10, 20):
        res = star_disk(zbar, z, -0.05, 0.5, StarConfig(max_terms=max_terms, tol=0))
        assert res.terms_used == max_terms + 1
    for max_terms in (21, 64):
        with pytest.raises(DomainError, match="-1/20"):
            star_disk(zbar, z, -0.05, 0.5, StarConfig(max_terms=max_terms, tol=0))


def test_hbar_and_the_sums_share_one_float_pole_rule():
    zbar, z = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    budget = StarConfig(max_terms=64, tol=0)
    # near a pole but off it by more than the divisor test's rounding slack
    for h in (-1 / 3 + 1e-13, -0.05 + 5e-13):
        Hbar(h)
        res = star_disk(zbar, z, h, 0.5, budget)
        assert res.terms_used == 65 and math.isfinite(abs(res.value))
    for k in (4, 3, 20):
        for h in (-1 / k, Fraction(-1, k), QC(Fraction(-1, k))):
            with pytest.raises(DomainError, match=f"-1/{k}"):
                Hbar(h)
            # the sum reaches the divisor 1 + k hbar at term k + 1
            res = star_disk(zbar, z, h, 0.5, StarConfig(max_terms=k, tol=0))
            assert res.terms_used == k + 1
            with pytest.raises(DomainError, match=f"-1/{k}"):
                star_disk(zbar, z, h, 0.5, StarConfig(max_terms=k + 1, tol=0))
    # a pole past any term count: both kinds name it, and the sums run
    for h in (Fraction(-1, 10**20), -1e-20):
        with pytest.raises(DomainError, match=f"-1/{10**20}$"):
            Hbar(h)
        assert star_disk(zbar, z, h, 0.5, budget).terms_used == 65
    with pytest.raises(DomainError, match="pole 0"):
        Hbar(0.0)
    for h in (float("nan"), complex(0.5, float("inf"))):
        with pytest.raises(DomainError, match="not finite"):
            Hbar(h)
    # 0 is refused up front, before any divisor is formed
    with pytest.raises(DomainError, match="pole 0"):
        star_disk(zbar, z, 0.0, 0.5, StarConfig(max_terms=1, tol=0))


def test_negative_coefficient_index_rejected():
    with pytest.raises(ValueError):
        c_n(Fraction(1, 2), -1)


# the disk product -------------------------------------------------------------


def test_constant_is_a_two_sided_unit():
    one = PolyDisk(BiPoly.constant(QC(1)))
    f = PolyDisk(BiPoly({(1, 1): QC(2), (2, 0): QC(0, 1)}))
    z = QC(Fraction(1, 4), Fraction(1, 8))
    h = Fraction(1, 2)
    assert star_disk(one, f, h, z, EXACT).value == f.value(z)
    assert star_disk(f, one, h, z, EXACT).value == f.value(z)


def test_holomorphic_times_antiholomorphic_is_pointwise():
    # z * conj(z): the conjugate tower of the first operand dies at once
    f = PolyDisk(BiPoly.z(exact=True))
    g = PolyDisk(BiPoly({(0, 1): QC(1)}))
    z = QC(Fraction(1, 3), Fraction(-1, 4))
    res = star_disk(f, g, Fraction(1, 2), z, EXACT)
    assert res.value == f.value(z) * g.value(z)
    assert res.converged and res.tail_estimate == 0.0


def test_reversed_order_does_not_terminate():
    zbar = PolyDisk(BiPoly({(0, 1): QC(1)}))
    zpoly = PolyDisk(BiPoly.z(exact=True))
    with pytest.raises(NonTerminatingError):
        star_disk(zbar, zpoly, Fraction(1, 2), QC(Fraction(1, 4)),
                  StarConfig(max_terms=12, mode="exact-finite"))


def test_exact_finite_mode_requires_polynomials():
    from wickstar.peschl_minda import ComposedP
    with pytest.raises(NonTerminatingError):
        star_disk(ComposedP(PolyFn([0, 1])), PolyDisk(BiPoly.z()),
                  Fraction(1, 2), 0.1, EXACT)


def test_truncated_series_sums_the_reversed_commutator():
    # conj(z) * z at hbar = 1 sums to exactly 1 for every z in the disk
    zbar = PolyDisk(BiPoly({(0, 1): 1 + 0j}))
    zpoly = PolyDisk(BiPoly.z())
    cfg = StarConfig(max_terms=80, tol=1e-14)
    for zv in (0.3 + 0.1j, 0.5j, -0.2 - 0.4j):
        res = star_disk(zbar, zpoly, 1.0, zv, cfg)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)


def test_truncated_matches_independent_series_oracle():
    # conj(z) * z = |z|^2 + (1-|z|^2)^2 sum_{n>=1} c_n n! |z|^{2(n-1)}
    zbar = PolyDisk(BiPoly({(0, 1): 1 + 0j}))
    zpoly = PolyDisk(BiPoly.z())
    h = 0.4
    zv = 0.35 - 0.2j
    r2 = abs(zv) ** 2
    oracle = r2 + (1 - r2) ** 2 * sum(
        complex(c_n(h, n)) * math.factorial(n) * r2 ** (n - 1)
        for n in range(1, 80))
    res = star_disk(zbar, zpoly, h, zv, StarConfig(max_terms=80, tol=1e-14))
    assert res.value == pytest.approx(oracle, abs=1e-12)


def test_disk_product_rejects_points_outside_the_disk():
    f = PolyDisk(BiPoly.z())
    with pytest.raises(DomainError):
        star_disk(f, f, 0.5, 1.1)
    # a NaN fails |z| >= 1 as it fails |z| < 1: both modes refuse it
    zbar, z = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    for p in (complex("nan"), complex(0.1, float("nan"))):
        with pytest.raises(DomainError, match="open unit disk"):
            star_disk(zbar, z, 0.5, p)
        with pytest.raises(DomainError, match="open unit disk"):
            star_disk(z, zbar, 0.5, p, EXACT)


def test_symbolic_disk_product_terminates_on_split_operands():
    z, w = BiPoly.z(exact=True), BiPoly({(0, 1): QC(1)})
    h = Fraction(1, 2)
    out = star_disk_poly_exact(z, w, h)
    assert out == BiPoly({(1, 1): QC(1)})
    with pytest.raises(NonTerminatingError):
        star_disk_poly_exact(w, z, h)


def test_symbolic_truncation_agrees_with_numeric_path():
    f = BiPoly({(1, 1): 1 + 0j, (0, 1): 0.5j})
    g = BiPoly({(1, 0): 1 + 0j, (1, 1): -0.25})
    h = 0.3
    trunc = star_disk_poly_truncated(f, g, h, 24)
    res = star_disk(PolyDisk(f), PolyDisk(g), h, 0.3 + 0.2j,
                    StarConfig(max_terms=48, tol=1e-14))
    assert trunc.eval_diag(0.3 + 0.2j) == pytest.approx(res.value, abs=1e-10)


def test_truncation_refuses_a_negative_term_count():
    # as c_n refuses a negative index; the first term alone is n_terms = 0
    w, z = BiPoly.w(True), BiPoly.z(True)
    assert star_disk_poly_truncated(w, z, 0.5, 0) == w * z
    with pytest.raises(ValueError):
        star_disk_poly_truncated(w, z, 0.5, -1)


# the surface products ----------------------------------------------------------


def test_annulus_product_of_the_chart_function():
    t = PolyFn([Fraction(0), Fraction(1)])
    for h in (Fraction(1, 2), Fraction(2), QC(1, 1)):
        out = star_annulus_poly(t, t, h)
        assert out.coeffs == [-h, h * 0, 1 + h]


def test_punctured_product_of_the_chart_function():
    t = PolyFn([Fraction(0), Fraction(1)])
    h = Fraction(1, 3)
    assert star_punctured_poly(t, t, h).coeffs == [Fraction(0), Fraction(0),
                                                   Fraction(4, 3)]


def test_cubic_identities_on_both_surfaces():
    # t^3 * t = (1 + 3h) w^4 - 3h w^2 on the annulus and (1 + 3h) w^4 on
    # the punctured disk
    t3 = PolyFn([Fraction(0)] * 3 + [Fraction(1)])
    t = PolyFn([Fraction(0), Fraction(1)])
    h = Fraction(1, 2)
    ann = star_annulus_poly(t3, t, h)
    assert ann.coeffs == [Fraction(0), Fraction(0), -3 * h, Fraction(0), 1 + 3 * h]
    pun = star_punctured_poly(t3, t, h)
    assert pun.coeffs == [Fraction(0)] * 4 + [1 + 3 * h]


def test_surface_products_commute_symbolically(rng):
    for _ in range(5):
        g = PolyFn([_integer(rng, -3, 4) for _ in range(5)])
        gt = PolyFn([_integer(rng, -3, 4) for _ in range(5)])
        h = Fraction(1, 2)
        assert star_annulus_poly(g, gt, h) == star_annulus_poly(gt, g, h)
        assert star_punctured_poly(g, gt, h) == star_punctured_poly(gt, g, h)


def test_printed_weight_variant_differs_from_second_order_on():
    g = PolyFn([Fraction(0), Fraction(0), Fraction(1)])
    h = Fraction(1, 2)
    derived = star_punctured_poly(g, g, h)
    printed = star_punctured_poly(g, g, h, weight_variant="printed")
    assert derived != printed
    # degree-1 operands agree: the variants only split at order two
    t = PolyFn([Fraction(0), Fraction(1)])
    assert star_punctured_poly(t, t, h) == star_punctured_poly(
        t, t, h, weight_variant="printed")
    with pytest.raises(ValueError):
        star_punctured_poly(t, t, h, weight_variant="folklore")


small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
coefficients = st.one_of(st.integers(-3, 3), small_fractions,
                         st.builds(QC, small_fractions, small_fractions))
# degrees 0 to 8; PolyFn drops trailing zeros, so zero polynomials occur
polynomials = st.lists(coefficients, min_size=1, max_size=9).map(PolyFn)
nonzero = st.one_of(
    small_fractions,
    st.builds(QC, small_fractions, small_fractions),
    st.floats(-2, 2, allow_subnormal=False).map(Fraction),   # a float, exactly
    st.floats(-2, 2, allow_subnormal=False).map(
        lambda x: QC(Fraction(x), Fraction(x / 3)))).filter(bool)


def _surface_kind(g, gt, h):
    """The one kind of every coefficient of an exact surface product: QC
    when hbar or a coefficient is one, else Fraction, as kappa is."""
    return QC if any(isinstance(x, QC) for x in (h, *g.coeffs, *gt.coeffs)) else Fraction


@settings(max_examples=200, deadline=None)
@given(g=polynomials, gt=polynomials, variant=st.sampled_from(["annulus", "derived", "printed"]),
       data=st.data())
def test_one_pass_surface_product_matches_the_term_by_term_sum(g, gt, variant, data):
    # the last divisor a sum of m + 1 terms forms is 1 + (m - 1) hbar, so
    # hbar = -1/(m - 1) is a pole it reaches and -1/m one it does not
    m = min(g.degree, gt.degree)
    poles = [Fraction(-1, k) for k in (m - 1, m) if k >= 1]
    h = data.draw(st.one_of(nonzero, st.sampled_from(poles)) if poles else nonzero)
    try:
        want = surface_poly_by_terms(g, gt, h, variant)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            star._surface_poly(g, gt, h, variant)
        return
    got = star._surface_poly(g, gt, h, variant)
    assert got.value.coeffs == want.value.coeffs
    assert {type(c) for c in got.value.coeffs} == {_surface_kind(g, gt, h)}
    assert (got.terms_used, got.stop_reason) == (want.terms_used, want.stop_reason)
    assert got.terms_used == m + 1


def test_one_pass_surface_product_keeps_the_kinds_a_cancelled_sum_drops():
    # at hbar = -1/4 the first two terms cancel at w^4 and w^3, so the
    # term-by-term sum drops both before the last term adds them back, and
    # w^3 and w^4 take their kind from the last term alone, which no QC
    # reaches; the one-pass product has the same values, all of one kind
    g, gt = PolyFn([0, QC(1), 1]), PolyFn([0, -1, 1])
    h = Fraction(-1, 4)
    got = star._surface_poly(g, gt, h, "annulus").value.coeffs
    want = surface_poly_by_terms(g, gt, h, "annulus").value.coeffs
    assert got == want
    assert list(map(type, want)) == [QC, QC, QC, Fraction, Fraction]
    assert list(map(type, got)) == [QC] * 5


def test_float_surface_product_runs_the_same_pass():
    # integer coefficients at a float hbar: every term is exact in floats,
    # so the pass rounds only kappa_n t_n and the sum, as the term-by-term
    # sum does
    g, gt = PolyFn([1, -2, 3, 1]), PolyFn([2, 0, -1, 1])
    for h in (0.3, 0.7 + 0.2j):
        for variant in ("annulus", "derived", "printed"):
            got = star._surface_poly(g, gt, h, variant)
            want = surface_poly_by_terms(g, gt, h, variant)
            assert got.value.coeffs == want.value.coeffs
            assert all(isinstance(c, complex) for c in got.value.coeffs)
    g, gt = PolyFn([0.5 + 0.1j, 1.0, 0.3 - 0.2j]), PolyFn([1.0, 0.7])
    got = star._surface_poly(g, gt, Fraction(1, 3), "annulus").value.coeffs
    want = surface_poly_by_terms(g, gt, Fraction(1, 3), "annulus").value.coeffs
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_numeric_and_symbolic_surface_paths_agree():
    g = PolyFn([1, 2, -1])
    gt = PolyFn([0, 1, 1])
    h = 0.3 + 0.1j
    w = 0.7 - 0.2j
    sym = star_annulus_poly(g, gt, h).eval(w)[0]
    num = star_annulus(g, gt, h, w, StarConfig(mode="exact-finite"))
    assert num.value == pytest.approx(sym)
    sym_p = star_punctured_poly(g, gt, h).eval(w)[0]
    num_p = star_punctured(g, gt, h, w, StarConfig(mode="exact-finite"))
    assert num_p.value == pytest.approx(sym_p)


def test_truncated_surface_product_with_entire_operand():
    from wickstar.functions import ExpFn
    g = ExpFn(0.5)
    res = star_annulus(g, g, 0.25, 0.3, StarConfig(max_terms=64, tol=1e-13))
    assert res.converged
    assert res.tail_estimate < 1e-10


def test_star_config_validation():
    with pytest.raises(ValueError):
        StarConfig(mode="adaptive")
    with pytest.raises(ValueError):
        StarConfig(max_terms=0)
    # every comparison with NaN is false, so a NaN tol would sum each row
    # to the budget
    for tol in (float("nan"), -1e-12, float("-inf")):
        with pytest.raises(ValueError):
            StarConfig(tol=tol)


def test_profile_collects_domain_errors_per_sample():
    t = PolyFn([Fraction(0), Fraction(1)])
    out = star_hbar_profile(star_annulus, (t, t, 0.5),
                            [Fraction(1, 2), 0, Fraction(1)],
                            StarConfig(mode="exact-finite"))
    assert len(out) == 3
    assert isinstance(out[1], WickstarError)
    assert out[0].value is not None and out[2].value is not None


def test_truncated_disk_sum_evaluates_each_tower_order_once(monkeypatch):
    # terms 0..64 take coefficients 0..64 of each tower: one tower of order
    # 64 per operand, and no order is built twice
    orders = []
    pm_tower = peschl_minda.DiskFunction.pm_tower

    def counting(self, nmax, zs, bar=False):
        orders.append((nmax, bar))
        return pm_tower(self, nmax, zs, bar)

    monkeypatch.setattr(peschl_minda.DiskFunction, "pm_tower", counting)
    phi = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    zbar, z = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    for f, g in ((zbar, z), (MoebiusPullback(zbar, phi), MoebiusPullback(z, phi))):
        orders.clear()
        res = star_disk(f, g, 0.5, 0.9, StarConfig(max_terms=64, tol=0))
        assert res.terms_used == 65
        assert orders == [(64, True), (64, False)]


def test_closed_form_towers_stop_with_the_sum():
    # e^{t/2} stored to order 9: the sum stops by tol after term 9, so no
    # tower may ask for the tenth derivative, which the series cannot give.
    # 2^-k/k! <= C/64^k holds for every k since 32^k/k! < 5.6e12.
    s = SeriesFn([Fraction(1, 2 ** k * math.factorial(k)) for k in range(10)],
                 rho=64.0, C=1e13)
    cfg = StarConfig(max_terms=64, tol=1e-12)
    res = star_disk(ComposedP(s), ComposedP(s), 0.5, 0.05j, cfg)
    ref = star_disk(ComposedP(ExpFn(0.5)), ComposedP(ExpFn(0.5)), 0.5, 0.05j, cfg)
    assert res.stop_reason == ref.stop_reason == "tol"
    assert res.terms_used == ref.terms_used == 10
    assert res.value == pytest.approx(ref.value, rel=1e-14)


# the summation kernel ----------------------------------------------------------


def test_long_sums_do_not_underflow_into_false_convergence():
    # conj(z) * z = |z|^2 + h (1-|z|^2)^2 2F1(1, 2; 1 + 1/h; |z|^2); at
    # h = 1/2 term n is (1-x)^2 x^{n-1}/(n+1) with x = |z|^2, so the terms
    # past n = 128 sum to at most (1-x) x^128/130.  c_n/n! underflows near
    # n = 103, and a sum scaled by it stopped there, converged, tail 0.
    h, z = 0.5, 0.95
    x = z * z
    term = series = 1.0
    m = 0
    while term > 1e-17 * series:
        term *= (m + 2) / (m + 1 + 1 / h) * x
        series += term
        m += 1
    oracle = x + h * (1 - x) ** 2 * series
    remainder = (1 - x) * x ** 128 / 130
    zbar, zpoly = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    for tol in (1e-12, 0):
        res = star_disk(zbar, zpoly, h, z, StarConfig(max_terms=128, tol=tol))
        assert res.terms_used == 129
        assert not res.converged and res.stop_reason == "budget"
        assert 0 < oracle.real - res.value.real <= remainder * (1 + 1e-9)


def test_zero_tolerance_sums_to_the_budget():
    from wickstar.functions import ExpFn
    g = ExpFn(0.5)
    res = star_annulus(g, g, 0.25, 0.3, StarConfig(max_terms=128, tol=0))
    assert res.terms_used == 129 and res.stop_reason == "budget"
    early = star_annulus(g, g, 0.25, 0.3, StarConfig(max_terms=128, tol=1e-13))
    assert early.stop_reason == "tol" and early.terms_used < 129
    assert res.value == pytest.approx(early.value, rel=1e-13)


def test_stop_reason_names_how_the_sum_ended():
    z, zbar = BiPoly.z(exact=True), BiPoly({(0, 1): QC(1)})
    point = QC(Fraction(1, 3), Fraction(-1, 4))
    res = star_disk(PolyDisk(z), PolyDisk(zbar), Fraction(1, 2), point, EXACT)
    assert res.stop_reason == "terminated" and res.terms_used == 1
    t2 = PolyFn([Fraction(0), Fraction(0), Fraction(1)])
    res = star_annulus(t2, t2, Fraction(1, 2), Fraction(1, 3), EXACT)
    assert res.stop_reason == "terminated" and res.terms_used == 3
    assert res.tail_estimate == 0  # an exact sum rounds nothing
    assert res.value == star_annulus_poly(t2, t2, Fraction(1, 2)).eval(Fraction(1, 3))[0]
    zbar_f, z_f = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    res = star_disk(zbar_f, z_f, 0.5, 0.3, StarConfig(max_terms=64, tol=1e-12))
    assert res.stop_reason == "tol" and res.converged
    res = star_disk(zbar_f, z_f, 0.5, 0.9, StarConfig(max_terms=8))
    assert res.stop_reason == "budget" and res.terms_used == 9


def test_float_tail_covers_the_rounding_of_a_cancelling_sum():
    # e^{sw} * e^{tw} on the punctured disk is e^{(s+t)w} 0F1(; 1/h; s t w^2);
    # at w = q(-0.97) ~ 65.7 the terms reach about 1e22 times the sum, so
    # the float sum stops by tol with a value off by a relative 5.7.  Only
    # the rounding bound gamma_n sum |kappa_k t_k| covers that error.
    mpmath = pytest.importorskip("mpmath")
    s, t, h = 0.5, -0.3 + 0.2j, 0.5
    w = peschl_minda.q_aux(-0.97)
    res = star_punctured(ExpFn(s), ExpFn(t), h, w, StarConfig(max_terms=400, tol=1e-12))
    with mpmath.workdps(50):
        ww = mpmath.mpc(w)
        ref = complex(mpmath.exp((s + t) * ww) * mpmath.hyp0f1(1 / h, s * t * ww * ww))
    assert res.stop_reason == "tol"
    assert abs(res.value - ref) > abs(ref)
    assert abs(res.value - ref) <= res.tail_estimate


# structural termination of the disk product -------------------------------------


def _towers_die(f, g, order=30):
    # a dead tower stays dead: the step maps 0 to 0
    return pm_bar_bipoly(f, order).is_zero or pm_bipoly(g, order).is_zero


def _assert_rule_matches_towers(f, g):
    h = Fraction(1, 2)
    if _towers_die(f, g):
        out = star_disk_poly_exact(f, g, h)
        assert out == f * g == star_disk_poly_truncated(f, g, h, 30)
    else:
        with pytest.raises(NonTerminatingError):
            star_disk_poly_exact(f, g, h)


def test_termination_rule_agrees_with_the_towers_on_monomials():
    monomials = [BiPoly.monomial(i, j, QC(1)) for i in range(3) for j in range(3)]
    for f in monomials:
        for g in monomials:
            _assert_rule_matches_towers(f, g)


def test_termination_rule_agrees_with_the_towers_on_random_polynomials(rng):
    def random_bipoly(shape):
        rows = range(1) if shape == "anti" else range(4)
        cols = range(1) if shape == "holo" else range(4)
        return BiPoly({(i, j): QC(_integer(rng, -3, 4), _integer(rng, -3, 4))
                       for i in rows for j in cols if rng.random() < 0.6})

    shapes = ("holo", "anti", "full", "full")
    for _ in range(20):
        f = random_bipoly(shapes[_integer(rng, 0, 4)])
        g = random_bipoly(shapes[_integer(rng, 0, 4)])
        _assert_rule_matches_towers(f, g)


def test_non_termination_is_decided_without_towers(monkeypatch):
    steps = []
    step = peschl_minda.pm_step

    def counting_step(*args):
        steps.append(args[1:])
        return step(*args)

    monkeypatch.setattr(peschl_minda, "pm_step", counting_step)
    monkeypatch.setattr(star, "pm_step", counting_step)
    zbar, z = BiPoly({(0, 1): QC(1)}), BiPoly.z(exact=True)
    with pytest.raises(NonTerminatingError):
        star_disk_poly_exact(zbar, z, Fraction(1, 2))
    with pytest.raises(NonTerminatingError):
        star_disk(PolyDisk(zbar), PolyDisk(z), Fraction(1, 2), QC(Fraction(1, 4)), EXACT)
    assert steps == []
