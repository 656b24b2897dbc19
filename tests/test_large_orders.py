"""Long sums on every operand shape.

The towers carry Taylor coefficients, D^n f/n! and g^(n)/n!, so no float
path forms n! (or a power of a surface weight) that overflows while the
coefficients it scales underflow.  Each sum is checked against a closed
form summed here from its term ratio, or against a second product that
has the same terms: conformal invariance for pullbacks, the surface
product in the chart for lifts.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickstar.functions import BiPoly, ExpFn, PolyFn
from wickstar.peschl_minda import (ComposedP, ComposedQ, MoebiusPullback,
                                   PolyDisk, p_aux, q_aux)
from wickstar.sphere import MoebiusMap
from wickstar.star import (StarConfig, star_annulus, star_disk,
                           star_disk_poly_truncated, star_punctured)

ZBAR, Z = BiPoly.w(), BiPoly.z()


def _zbar_star_z(h, x, n_terms=4000):
    """conj(z) * z at |z|^2 = x, summed through term n_terms.

    The sum is x + h (1-x)^2 2F1(1, 2; 1 + 1/h; x): term n >= 1 of the star
    series is h (1-x)^2 t_{n-1}, where the hypergeometric terms t_m have the
    ratio (m + 2) x/(m + 1 + 1/h).  The default sums to convergence for
    x <= 0.97^2."""
    term, series = 1 + 0j, 0j
    for m in range(n_terms):
        series += term
        term *= (m + 2) / (m + 1 + 1 / h) * x
    return x + h * (1 - x) ** 2 * series


def _budget(n):
    return StarConfig(max_terms=n, tol=0)


def test_long_truncated_polynomial_products_stay_finite():
    # a product of two factors of size n! overflows to NaN from
    # n_terms = 100 on, so the terms must be products of D^n f/n!
    x = 0.95 ** 2
    for n in (100, 200):
        v = star_disk_poly_truncated(ZBAR, Z, 0.5, n).eval_diag(0.95)
        assert v == pytest.approx(_zbar_star_z(0.5, x, n), rel=1e-13)
    # at h = 1/2 the terms past n = 200 sum to at most (1 - x) x^200/202
    assert abs(v - _zbar_star_z(0.5, x)) <= (1 - x) * x ** 200 / 202 + 1e-14


def test_long_disk_sums_stay_finite():
    x = 0.97 ** 2
    for n in (180, 400):
        res = star_disk(PolyDisk(ZBAR), PolyDisk(Z), 0.5, 0.97, _budget(n))
        assert res.terms_used == n + 1
        assert res.value == pytest.approx(_zbar_star_z(0.5, x, n), rel=1e-13)
    assert abs(res.value - _zbar_star_z(0.5, x)) <= 1e-13


def test_pullback_sums_run_past_170_terms():
    # 171! exceeds the double range: the jets' coefficients must be
    # summed as they are, never times n!
    phi = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    fp, gp = MoebiusPullback(PolyDisk(ZBAR), phi), MoebiusPullback(PolyDisk(Z), phi)
    z = 0.2 + 0.1j
    v170 = star_disk(fp, gp, 0.5, z, _budget(170)).value
    for n in (171, 300):
        assert star_disk(fp, gp, 0.5, z, _budget(n)).value == pytest.approx(v170, abs=1e-15)
    # conformal invariance: (f o phi) * (g o phi) = (f * g) o phi
    assert v170 == pytest.approx(_zbar_star_z(0.5, abs(phi.apply(z)) ** 2), abs=1e-14)


PAIRS = ((ExpFn(0.5), ExpFn(-0.3 + 0.2j)), (PolyFn([1, 2j, -1]), PolyFn([0.5, 1, 0, 1j])))


def _log_taylor(g, w, n):
    """log |g^(n)(w)/n!| for ExpFn, a bound of it for PolyFn; -inf for 0."""
    if isinstance(g, ExpFn):
        return n * math.log(abs(g.scale)) + (g.scale * w).real - math.lgamma(n + 1)
    s = sum(math.comb(k, n) * abs(a) * abs(w) ** (k - n)
            for k, a in enumerate(g.coeffs) if k >= n)
    return math.log(s) if s else -math.inf


def _term_scale(g, gt, h, rho, w, n_terms):
    """sum_n |kappa_n rho^n g^(n)(w)/n! gt^(n)(w)/n!|, in log space: the
    size of the terms, which bounds the rounding error of either sum."""
    total, log_kappa = 0.0, 0.0
    for n in range(n_terms + 1):
        if n:
            log_kappa += math.log(abs(n * h / (1 + (n - 1) * h)))
        e = (log_kappa + n * math.log(abs(rho)) + _log_taylor(g, w, n)
             + _log_taylor(gt, w, n))
        total += math.exp(e) if e > -math.inf else 0.0
    return total


def _assert_lift_matches_the_chart(g, gt, h, z, n, annulus):
    # the chart factors of D and Dbar multiply to the surface weight, so
    # the disk series of the lifts and the surface series agree term by
    # term; they round differently, by at most a few ulps of each term
    cls, chart, surface = ((ComposedP, p_aux, star_annulus) if annulus
                           else (ComposedQ, q_aux, star_punctured))
    w = chart(z)
    lifted = star_disk(cls(g), cls(gt), h, z, _budget(n))
    direct = surface(g, gt, h, w, _budget(n)).value
    assert lifted.terms_used == n + 1
    rho = w * w - 1 if annulus else w * w
    assert abs(lifted.value - direct) <= 1e-14 * (n + 1) * _term_scale(g, gt, h, rho, w, n)


def test_lifts_run_to_400_terms():
    for annulus in (True, False):
        for g, gt in PAIRS:
            _assert_lift_matches_the_chart(g, gt, 0.5, -0.6 + 0.7j, 400, annulus)


def _exp_surface_closed_form(s, t, w, rho):
    """e^{(s+t) w} 0F1(; 2; rho s t), the exponential surface product at
    h = 1/2, where kappa_n = 1/(n+1); the term ratio is x/((n+1)(n+2))."""
    x = rho * s * t
    term, series = 1 + 0j, 0j
    for n in range(400):
        series += term
        term *= x / ((n + 1) * (n + 2))
    return cmath.exp((s + t) * w) * series


def test_surface_sums_run_to_400_terms():
    # at |w| = 3 the weight (w^2-1)^n or w^{2n} alone overflows by
    # n = 400, while g^(n)/n! underflows
    s, t = 0.5, -0.25
    for w in (3.0, 3j, 0.3):
        for surface, rho in ((star_annulus, w * w - 1), (star_punctured, w * w)):
            res = surface(ExpFn(s), ExpFn(t), 0.5, w, _budget(400))
            assert res.value == pytest.approx(
                _exp_surface_closed_form(s, t, w, rho), rel=1e-13)


# property tests at large term counts --------------------------------------------

radii = st.floats(0.0, 0.97)
angles = st.floats(0.0, 2 * math.pi)
orders = st.integers(1, 400)
hbars = st.sampled_from([0.5, 0.25, 1.0, 0.3 + 0.2j])
bipolys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=1, max_size=5).map(BiPoly)


@settings(max_examples=12, deadline=None)
@given(r=radii, theta=angles, n=orders, h=hbars)
def test_zbar_star_z_matches_the_closed_form(r, theta, n, h):
    z = cmath.rect(r, theta)
    res = star_disk(PolyDisk(ZBAR), PolyDisk(Z), h, z, _budget(n))
    assert res.value == pytest.approx(_zbar_star_z(h, r * r, n), rel=1e-12, abs=1e-14)


@settings(max_examples=12, deadline=None)
@given(f=bipolys, g=bipolys, r=radii, theta=angles, a=st.floats(0.0, 0.5),
       alpha=angles, turn=angles, n=orders, h=hbars)
def test_pullbacks_match_the_product_at_the_image_point(f, g, r, theta, a, alpha,
                                                        turn, n, h):
    # D^n (f o phi)(z) = D^n f(phi z) e^{i n arg}, Dbar with the conjugate
    # phase: the two series agree term by term
    phi = MoebiusMap.disk_automorphism(cmath.rect(a, alpha), turn)
    w = cmath.rect(r, theta)
    z = phi.inverse().apply(w)
    pulled = star_disk(MoebiusPullback(PolyDisk(f), phi), MoebiusPullback(PolyDisk(g), phi),
                       h, z, _budget(n)).value
    direct = star_disk(PolyDisk(f), PolyDisk(g), h, w, _budget(n)).value
    assert pulled == pytest.approx(direct, rel=1e-10, abs=1e-10)


@settings(max_examples=12, deadline=None)
@given(r=radii, theta=angles, n=orders, h=hbars, annulus=st.booleans(),
       exp=st.booleans())
def test_lifts_match_the_surface_product_in_the_chart(r, theta, n, h, annulus, exp):
    g, gt = PAIRS[0] if exp else PAIRS[1]
    _assert_lift_matches_the_chart(g, gt, h, cmath.rect(r, theta), n, annulus)
