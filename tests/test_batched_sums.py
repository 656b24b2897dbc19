"""The array kernel and the closed-form towers against the float sums
taken one term and one point at a time (``tests/oracles.py``)."""

import cmath
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (definitional_jet, star_disk_by_terms, star_surface_by_terms,
                     sum_series_loop, taylor_tower)

from wickstar import star, towers
from wickstar.cli import main
from wickstar.errors import (DomainError, FloatRangeError, NonTerminatingError,
                             WickstarError)
from wickstar.exact import QC, to_complex
from wickstar.functions import BiPoly, ExpFn, PolyFn, SeriesFn
from wickstar.peschl_minda import ComposedP, ComposedQ, MoebiusPullback, PolyDisk
from wickstar.sphere import MoebiusMap
from wickstar.star import (StarConfig, star_annulus, star_disk, star_disk_poly_truncated,
                           star_punctured)
from wickstar.towers import entire_tower

coeffs = st.complex_numbers(max_magnitude=2.0)
# a generic deformation parameter, or one within 1e-3 of a pole -1/k
hbars = st.one_of(
    st.complex_numbers(min_magnitude=0.05, max_magnitude=2.0),
    st.builds(lambda k, eps: complex(-1 / k + eps), st.integers(2, 20),
              st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3))))
disk_points = st.builds(lambda r, a: r * cmath.exp(1j * a),
                        st.floats(0.0, 0.97), st.floats(0.0, 2 * math.pi))
# mostly inside the disk; a point outside it fails at order 0
batch_points = st.one_of(disk_points, disk_points, disk_points,
                         st.builds(lambda r, a: r * cmath.exp(1j * a),
                                   st.floats(1.0, 1.5), st.floats(0.0, 2 * math.pi)))
chart_points = st.complex_numbers(max_magnitude=2.0)
configs = st.builds(StarConfig, max_terms=st.integers(1, 400),
                    tol=st.sampled_from([0.0, 1e-14, 1e-12, 1e-8]))


def _exp_series(s: complex, order: int, rho: float) -> SeriesFn:
    """e^{st} cut after ``order``, with the certificate |a_k| <= C/rho^k
    that the coefficients past the order satisfy."""
    x = abs(s) * rho
    big = max(math.exp(k * math.log(x) - math.lgamma(k + 1)) if x else 0.0
              for k in range(order + 1, order + 200))
    return SeriesFn([s ** k / math.factorial(k) for k in range(order + 1)], rho, big)


entire = st.one_of(
    st.lists(coeffs, min_size=1, max_size=5).map(PolyFn),
    st.builds(ExpFn, st.complex_numbers(max_magnitude=0.8), coeffs),
    st.builds(_exp_series, st.complex_numbers(max_magnitude=0.8), st.integers(2, 40),
              st.sampled_from([4.0, 16.0, 64.0])))
# dense polynomials of low degree, the zero polynomial and constants
low_bipolys = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs,
                    min_size=1, max_size=6).map(BiPoly),
    st.just(BiPoly()), coeffs.map(BiPoly.constant))
# and sparse ones up to degree 30 in each slot
bipolys = st.one_of(
    low_bipolys,
    st.dictionaries(st.tuples(st.integers(0, 30), st.integers(0, 30)), coeffs,
                    min_size=1, max_size=6).map(BiPoly))
automorphisms = st.builds(lambda a, t: MoebiusMap.disk_automorphism(a, t),
                          st.complex_numbers(max_magnitude=0.6), st.floats(0.0, 2 * math.pi))


def _disk_operands(polys):
    return st.one_of(
        polys.map(PolyDisk),
        st.builds(lambda f, phi: MoebiusPullback(PolyDisk(f), phi), polys, automorphisms),
        st.builds(ComposedP, entire), st.builds(ComposedQ, entire))


disk_operands = _disk_operands(bipolys)
# the closed-form tower of a polynomial of high degree composed with a
# Moebius map cancels (ROADMAP item 26): 0.75 zbar^29 * z at z = 0.75,
# hbar = 1 and 13 terms misses the jets' sum by 1.02e-13 of its mass
low_disk_operands = _disk_operands(low_bipolys)
variants = st.sampled_from(["annulus", "punctured"])


def _outcome(call, message=False):
    try:
        return call()
    except WickstarError as exc:
        return (type(exc), str(exc)) if message else type(exc)


def _surface(variant):
    return star_annulus if variant == "annulus" else star_punctured


def _loop_row(terms, bounds, faults, p):
    """Row p as the (t_n, err_n) pairs of the loop, raising its fault
    where the term cannot be formed."""
    fault = faults[p] if faults else None
    for n in range(terms.shape[1] + 1):
        if fault is not None and n == fault[0]:
            raise fault[1]
        if n < terms.shape[1]:
            yield complex(terms[p, n]), 0.0 if bounds is None else float(bounds[p, n])


# below the normal range of a float no relative precision is left
TINY = 1e-300


def _assert_close(got, want, mass):
    """A row of the kernel against the loop's sum of the same terms: a
    cancelling sum is only defined to the scale its terms are rounded at,
    the mass sum_n |kappa_n t_n|."""
    value, used, tail, stop, _ = want
    assert (got.terms_used, got.stop_reason) == (used, stop)
    assert abs(got.value - value) <= 1e-14 * max(abs(value), mass) + TINY
    assert abs(got.tail_estimate - tail) <= 1e-14 * tail + TINY


def _check_rows(h, rows, cfg, batch, solo):
    """Every row of the kernel against the loop, the batch against its
    points one at a time (the same error, message and all), and a batch
    of one against the scalar call."""
    terms, bounds, faults = rows
    hv = complex(h)
    for p in range(len(terms)):
        want = _outcome(lambda: sum_series_loop(hv, _loop_row(terms, bounds, faults, p),
                                                cfg.max_terms, cfg.tol))
        with np.errstate(all="ignore"):
            got = _outcome(lambda: towers._sum_rows(
                hv, terms[p:p + 1], None if bounds is None else bounds[p:p + 1],
                faults[p:p + 1] if faults else None, cfg.max_terms, cfg.tol))
        if isinstance(want, type) or isinstance(got, type):
            assert got == want
        else:
            _assert_close(got[0], want, want[4])
    alone = [_outcome(lambda: solo(p), True) for p in range(len(terms))]
    raised = [a for a in alone if isinstance(a, tuple)]
    together = _outcome(batch, True)
    if raised:
        assert together == raised[0]
    else:
        assert together == alone
    assert _outcome(lambda: solo(0, batched=True)[0], True) == alone[0]


@settings(max_examples=120, deadline=None)
@given(f=disk_operands, g=disk_operands, h=hbars, cfg=configs,
       zs=st.lists(batch_points, min_size=1, max_size=4))
def test_disk_kernel_matches_the_loop_row_by_row(f, g, h, cfg, zs):
    def solo(p, batched=False):
        return star_disk(f, g, h, [zs[p]] if batched else zs[p], cfg)

    with np.errstate(all="ignore"):
        rows = towers._disk_rows(f, g, zs, cfg.max_terms)
    _check_rows(h, rows, cfg, lambda: star_disk(f, g, h, zs, cfg), solo)


@settings(max_examples=120, deadline=None)
@given(g=entire, gt=entire, h=hbars, cfg=configs, variant=variants,
       ws=st.lists(chart_points, min_size=1, max_size=4))
def test_surface_kernel_matches_the_loop_row_by_row(g, gt, h, cfg, variant, ws):
    op = _surface(variant)

    def solo(p, batched=False):
        return op(g, gt, h, [ws[p]] if batched else ws[p], cfg)

    with np.errstate(all="ignore"):
        rows = towers._surface_rows(g, gt, ws, cfg.max_terms, variant)
    _check_rows(h, rows, cfg, lambda: op(g, gt, h, ws, cfg), solo)


# z-bar^2 and the pullback of z, at hbar within 1e-3 of the poles -1/6 and
# -1/5, where |kappa_n| reaches 1e6: a tower entry rounded at the scale of
# its tower's largest entry, not of its own, moves the sum past 1e-13 mass
NEAR_POLE_F = PolyDisk(BiPoly({(0, 2): 1}))
NEAR_POLE_G = MoebiusPullback(PolyDisk(BiPoly({(1, 0): 1})),
                              MoebiusMap(1, -0.59375, -0.59375, 1, domain="D"))
NEAR_POLE_HBARS = (-0.16599215560068337, -0.19932548893401672)
NEAR_POLE_CFG = StarConfig(max_terms=14, tol=0.0)


@settings(max_examples=80, deadline=None)
@given(f=low_disk_operands, g=low_disk_operands, h=hbars, cfg=configs, z=disk_points)
@example(f=NEAR_POLE_F, g=NEAR_POLE_G, h=NEAR_POLE_HBARS[0], cfg=NEAR_POLE_CFG, z=0.75)
@example(f=NEAR_POLE_F, g=NEAR_POLE_G, h=NEAR_POLE_HBARS[1], cfg=NEAR_POLE_CFG, z=0.75)
# a row of mass 6.9e18 whose sum, some 5e2, is rounding noise: the stop
# test tol |sum| reads that noise, and the loop stops on "tol" at the term
# where the kernel runs out its budget
@example(f=ComposedQ(ExpFn(0.5j, 1)), g=ComposedQ(ExpFn(0.0625 + 0.75j, 1)),
         h=0.0546875 + 0j, cfg=StarConfig(max_terms=82, tol=1e-8),
         z=0.9699999999999999 * cmath.exp(2.5j))
def test_disk_products_match_the_old_float_sums(f, g, h, cfg, z):
    # the closed-form towers against the jets and the stepped Taylor
    # towers: the same error, the same stop where the sum keeps precision,
    # and the value to the rounding of the sum.  The oracle composes an
    # operand's maps before its one jet division, so each entry of both
    # towers is rounded at its own scale.  A series tower is compared in
    # its own test below: its Horner sums and the shift differ at the
    # scale of their cancellation.
    want = _outcome(lambda: star_disk_by_terms(f, g, h, z, cfg))
    got = _outcome(lambda: star_disk(f, g, h, z, cfg))
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    value, used, tail, stop, mass = want
    if 1e-13 * mass < max(1, abs(value)):
        assert (got.terms_used, got.stop_reason) == (used, stop)
    series = any(isinstance(getattr(x, "g", None), SeriesFn) for x in (f, g))
    if not series:
        assert abs(got.value - value) <= 1e-13 * max(abs(value), mass) + TINY
        assert abs(got.tail_estimate - tail) <= 1e-13 * max(tail, mass) + TINY


def _mp(x):
    """An exact scalar (int, Fraction or QC) in mpmath, at the working
    precision."""
    import mpmath
    return mpmath.mpc(mpmath.mpf(x.real.numerator) / x.real.denominator,
                      mpmath.mpf(x.imag.numerator) / x.imag.denominator)


@pytest.mark.parametrize("h", NEAR_POLE_HBARS)
def test_disk_kernel_near_a_pole_matches_a_40_digit_sum(h):
    # the towers exact, the definitional jets at the exact values of the
    # float point and of the pullback's entries, and the sum of
    # kappa_n t_n in 40-digit arithmetic at the exact value of hbar.  A
    # float recurrence divides by the rounded 1 + k hbar; near the pole
    # -1/k that rounding is a large relative error (8e-15 for 1 + 5 hbar
    # at the second hbar), which every later kappa_n carries: the
    # allowance adds it, term by term, to 1e-15 relative.
    mpmath = pytest.importorskip("mpmath")
    got = star_disk(NEAR_POLE_F, NEAR_POLE_G, h, 0.75, NEAR_POLE_CFG)
    assert (got.terms_used, got.stop_reason) == (15, "budget")
    phi = NEAR_POLE_G.phi
    exact_g = MoebiusPullback(NEAR_POLE_G.inner, MoebiusMap(
        *(QC(Fraction(x)) for x in (phi.a, phi.b, phi.c, phi.d)), domain="D"))
    z = QC(Fraction(0.75))
    a = definitional_jet(NEAR_POLE_F, z, 14, bar=True).coeffs
    b = definitional_jet(exact_g, z, 14).coeffs
    with mpmath.workdps(40):
        hv, kappa, total = mpmath.mpf(h), mpmath.mpf(1), mpmath.mpf(0)
        drift = moved = mpmath.mpf(0)
        for n, (an, bn) in enumerate(zip(a, b)):
            if n:
                den = 1 + (n - 1) * hv
                drift += abs((1 + (n - 1) * h) - den) / abs(den)
                kappa = kappa * n * hv / den
            term = kappa * _mp(an * bn)
            total += term
            moved += abs(term) * drift
        want = complex(total)
    assert abs(got.value - want) <= 1e-15 * abs(want) + float(moved)


@settings(max_examples=80, deadline=None)
@given(g=entire, gt=entire, h=hbars, cfg=configs, variant=variants, w=chart_points)
# |w| sits on the certified radius 4/2 of order 1, where numpy's abs and
# Python's differ in the last place: both paths must refuse it
@example(g=PolyFn([0j]), gt=_exp_series(0j, 2, 4.0), h=-0.5,
         cfg=StarConfig(max_terms=1, tol=0.0), variant="annulus",
         w=1.450872934050051 + 1.3765782684762229j)
def test_surface_products_match_the_old_float_sums(g, gt, h, cfg, variant, w):
    want = _outcome(lambda: star_surface_by_terms(g, gt, h, w, cfg, variant))
    got = _outcome(lambda: _surface(variant)(g, gt, h, w, cfg))
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    value, used, tail, stop, mass = want
    assert (got.terms_used, got.stop_reason) == (used, stop)
    if not any(isinstance(x, SeriesFn) for x in (g, gt)):
        assert abs(got.value - value) <= 1e-13 * max(abs(value), mass) + TINY
        assert abs(got.tail_estimate - tail) <= 1e-13 * max(tail, mass) + TINY


@settings(max_examples=60, deadline=None)
@given(s=st.complex_numbers(max_magnitude=0.8), order=st.integers(2, 40),
       rho=st.sampled_from([4.0, 16.0, 64.0]), t=st.complex_numbers(max_magnitude=3.0),
       c=st.complex_numbers(max_magnitude=3.0), width=st.integers(1, 60))
def test_series_towers_carry_the_stepped_certificate(s, order, rho, t, c, width):
    # entry n: c^n g^(n)(t)/n! and its bound, as SeriesFn.eval gives them
    # for the stepped derivative, up to the order or the radius; the values
    # agree to the rounding of the absolute series sum_j |a_j| |t|^j
    g = _exp_series(s, order, rho)
    size = SeriesFn([abs(a) for a in g.coeffs], rho, g.C)
    tower = entire_tower(g, np.array([t]), np.array([c]), width)
    fault = tower.faults[0] if tower.faults else None
    steps, sizes = taylor_tower(g, c), taylor_tower(size, abs(c))
    for n in range(width):
        want = _outcome(lambda: next(steps).eval(t))
        if isinstance(want, type):
            assert fault is not None and fault[0] == n and type(fault[1]) is want
            return
        scale = next(sizes).eval(abs(t))[0].real
        assert fault is None or fault[0] > n
        assert abs(tower.values[0, n] - want[0]) <= 1e-13 * scale + TINY
        assert tower.bounds[0, n] == pytest.approx(want[1], rel=1e-12, abs=TINY)


def test_a_batch_raises_the_error_of_its_first_failing_point():
    zbar, z = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    # at hbar = -1/20 only a sum that reaches term 21 meets the pole: the
    # point near 0 stops by tol before, the one near the rim does not
    cfg = StarConfig(max_terms=64, tol=1e-12)
    assert star_disk(zbar, z, -0.05, 0.01, cfg).terms_used < 21
    with pytest.raises(WickstarError, match="-1/20"):
        star_disk(zbar, z, -0.05, [0.01, 0.9], cfg)
    with pytest.raises(WickstarError, match="open unit disk"):
        star_disk(zbar, z, 0.5, [0.1, 1.5], cfg)
    # the point that meets the pole comes first, so its error wins over
    # that of the point outside the disk, and the other way round
    with pytest.raises(DomainError, match="-1/20"):
        star_disk(zbar, z, -0.05, [0.9, 1.5], cfg)
    with pytest.raises(DomainError, match="open unit disk"):
        star_disk(zbar, z, -0.05, [1.5, 0.9], cfg)
    # in exact-finite mode the operands are checked at each point in turn
    exact = StarConfig(mode="exact-finite")
    with pytest.raises(NonTerminatingError):
        star_disk(zbar, z, 0.5, [0.5, 1.5], exact)
    with pytest.raises(DomainError, match="open unit disk"):
        star_disk(zbar, z, 0.5, [1.5, 0.5], exact)
    # a certified series faults only at the point outside its radius
    s = _exp_series(0.5, 12, 4.0)
    assert all(r.converged for r in star_punctured(s, s, 0.5, [0.01, 0.02],
                                                   StarConfig(max_terms=64)))
    with pytest.raises(WickstarError, match="certified radius"):
        star_punctured(s, s, 0.5, [0.01, 3.0], StarConfig(max_terms=64))


@pytest.mark.parametrize("surface", [star_annulus, star_punctured])
def test_a_surface_term_takes_the_first_operand_before_the_second(surface):
    # at order 3 the first series leaves the radius rho/2^3 of its
    # derivative and the second has run out of terms: the first operand's
    # error wins, as on the disk, in either order of the operands
    g = SeriesFn([1, 1, 1 / 2, 1 / 6, 1 / 24], rho=2, C=1)
    gt = SeriesFn([1, 1, 1 / 2], rho=100, C=1)
    cfg = StarConfig(max_terms=8, tol=0)
    with pytest.raises(DomainError, match="outside the certified radius .* of "
                                          "derivative order 3"):
        surface(g, gt, 0.3, 0.4, cfg)
    with pytest.raises(DomainError, match="usable order 2"):
        surface(gt, g, 0.3, 0.4, cfg)


def test_scalar_and_sequence_points_give_a_result_and_a_list():
    zbar, z = PolyDisk(BiPoly.w()), PolyDisk(BiPoly.z())
    one = star_disk(zbar, z, 0.5, 0.3)
    assert isinstance(one, star.StarResult)
    for pts in ([0.3], (0.3,), np.array([0.3])):
        assert star_disk(zbar, z, 0.5, pts) == [one]
    assert star_disk(zbar, z, 0.5, []) == []
    with pytest.raises(ValueError):
        star_disk(zbar, z, 0.5, np.zeros((2, 2)))
    exact = StarConfig(mode="exact-finite")
    zq = QC(1, 4)
    t = PolyFn([0, 1])
    assert star_annulus(t, t, 0.5, [zq, zq], exact) == [star_annulus(t, t, 0.5, zq, exact)] * 2


def test_star_eval_sums_all_points_in_one_call(monkeypatch, capsys):
    calls = []
    disk = star_disk

    def counting(*args, **kwargs):
        calls.append(args[3])
        return disk(*args, **kwargs)

    monkeypatch.setattr("wickstar.cli.star_disk", counting)
    code = main(["star", "eval", "--surface", "disk",
                 "--f", '{"type":"bipoly","coeffs":[[0,1,[1,0]]]}',
                 "--g", '{"type":"bipoly","coeffs":[[1,0,[1,0]]]}',
                 "--hbar", "0.5", "--point", "0.3", "--point", "[0.1,0.2]", "--point", "0"])
    assert code == 0
    assert calls == [[0.3, 0.1 + 0.2j, 0j]]
    assert len(json.loads(capsys.readouterr().out)["results"]) == 3


@pytest.mark.parametrize("h", [Fraction(1), Fraction(1, 2), QC(1, 1), QC(-3, 1), 0.7 + 0.3j])
def test_direct_coefficients_in_one_pass(h):
    # c_n = hbar^n / prod_{j<n} (1 + j hbar) from two running products:
    # each entry is c_n_direct, and the recurrence agrees (exactly for an
    # exact hbar)
    seq = star.c_direct_sequence(h, 30)
    assert [star.c_n_direct(h, n) for n in range(31)] == seq
    if isinstance(h, complex):
        assert seq == pytest.approx(star.c_sequence(h, 30), rel=1e-13)
    else:
        assert seq == star.c_sequence(h, 30)
    if h == 1:
        assert seq == [Fraction(1, math.factorial(n)) for n in range(31)]


def test_a_sum_that_leaves_the_float_range_is_refused():
    # e^{800 w} overflows at w = 1: no value and no tail bound is left
    with pytest.raises(FloatRangeError):
        star_annulus(ExpFn(800), ExpFn(1), 0.5, 1.0)
    with pytest.raises(FloatRangeError):
        star_annulus(ExpFn(1), ExpFn(1), 0.5, [0.5, 1.0 + 0j, 1e300])
    # a large sum that stays in range is kept
    res = star_annulus(ExpFn(300), ExpFn(1), 0.5, 0.5)
    assert res.stop_reason == "tol" and abs(res.value) > 1e60
    assert math.isfinite(res.tail_estimate)
    # the CLI reports it as an internal error, as it did OverflowError
    code = main(["star", "eval", "--surface", "annulus",
                 "--f", '{"type":"exp","scale":[800,0]}', "--g", '{"type":"exp","scale":[1,0]}',
                 "--hbar", "0.5", "--point", "1.0"])
    assert code == 4


def test_a_large_operand_is_contracted_from_its_terms_in_small_memory():
    # the associativity check's operands: products of degree 26 in each
    # slot, 28 terms in a 27 x 27 grid, at 8 points.  A cold call builds
    # each operand's term table and contracts it in one step; the dense
    # (points, rows, 27 x 27) product of a full shift table would be
    # 2.4 MB of complex
    f = BiPoly({(0, 1): QC(1, 2), (1, 0): QC(-1)})
    g = BiPoly({(1, 1): QC(2, -1), (0, 0): QC(3)})
    a = PolyDisk(star_disk_poly_truncated(f, g, Fraction(2, 5), 24))
    b = PolyDisk(star_disk_poly_truncated(g, f, Fraction(2, 5), 24))
    assert max(max(key) for key in a.f.coeffs) == 26
    zs = [0.45 * cmath.exp(0.8j * k) for k in range(8)]
    tracemalloc.start()
    try:
        terms = towers._disk_rows(a, b, zs, 24)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19
    # each term against the exact symbolic towers at the exact value of
    # the float point; the terms fall from 31 to 2e-15 along a row, and
    # the worst relative error, 1.2e-12, is at the last
    for p, z in enumerate(zs):
        zq = QC(Fraction(z.real), Fraction(z.imag))
        for n in range(25):
            want = to_complex(a.pm_bar_poly(n).eval_diag(zq) * b.pm_poly(n).eval_diag(zq))
            assert abs(terms[p, n] - want) <= 5e-12 * abs(want)
