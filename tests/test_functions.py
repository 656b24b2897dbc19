import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bipoly_eval_by_terms

from wickstar.errors import DomainError, SeriesOrderError
from wickstar.exact import QC, to_complex
from wickstar.functions import (BasisFpq, BiPoly, ExpFn, Jet, PolyFn,
                                SeriesFn, entire_from_json, moebius_jet)
from wickstar.peschl_minda import _chart, _matmul
from wickstar.sphere import MoebiusMap
from wickstar.towers import moebius_compose


# jets -----------------------------------------------------------------------


def test_jet_of_polynomial_reproduces_taylor_coefficients():
    p = PolyFn([1, -2, 0, 3])  # 1 - 2t + 3t^3
    x0 = 0.4 - 0.2j
    jet = p.eval_jet(Jet.variable(x0, 4))
    for n in range(5):
        expected = p.derivative(n).eval(x0)[0] / math.factorial(n)
        assert jet.coeffs[n] == pytest.approx(expected)


def test_jet_reciprocal_and_division():
    j = PolyFn([2, 1, -1]).eval_jet(Jet.variable(0.3, 5))
    one = j * j.reciprocal()
    assert one.coeffs[0] == pytest.approx(1)
    for c in one.coeffs[1:]:
        assert c == pytest.approx(0)
    with pytest.raises(ZeroDivisionError):
        Jet([0, 1, 1]).reciprocal()


def test_jet_exp_matches_derivatives():
    x0 = 0.2 + 0.1j
    jet = (Jet.variable(x0, 4) * (2 - 1j)).exp()
    for n in range(5):
        expected = (2 - 1j) ** n * cmath.exp((2 - 1j) * x0) / math.factorial(n)
        assert jet.coeffs[n] == pytest.approx(expected)


def test_jet_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        Jet([1, 2]) + Jet([1, 2, 3])


def test_jet_arithmetic_stays_exact_on_exact_scalars():
    j = Jet.variable(QC(Fraction(1, 3)), 3)
    out = (j * j + 1) / QC(2)
    assert out.coeffs[0] == QC(Fraction(10, 18))
    assert all(isinstance(c, QC) for c in out.coeffs)


def _exact_jet(rng: random.Random, order: int, a0) -> Jet:
    """QC jet with constant term a0 and coefficients (p + qi)/8, |p|, |q| <= 8."""
    return Jet([a0] + [QC(Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8))
                       for _ in range(order)])


def _as_float(jet: Jet) -> Jet:
    return Jet([to_complex(c) for c in jet.coeffs])


def _assert_close(got: Jet, exact: Jet, rel: float):
    """Normwise: max_k |got_k - exact_k| <= rel * max_k |exact_k|."""
    want = [to_complex(c) for c in exact.coeffs]
    scale = max(abs(c) for c in want)
    assert max(abs(g - w) for g, w in zip(got.coeffs, want)) <= rel * scale


@pytest.mark.parametrize("order", [0, 1, 7, 8, 33, 64])
def test_float_jets_match_exact_jets(order):
    # |b_0| = sqrt(17) against coefficients of modulus <= sqrt(2) keeps the
    # zeros of b outside |u| = 0.74, so 1/b grows by at most 1.35 per order
    rng = random.Random(order)
    a = _exact_jet(rng, order, QC(Fraction(1, 2), Fraction(-3, 4)))
    b = _exact_jet(rng, order, QC(4, 1))
    fa, fb = _as_float(a), _as_float(b)
    assert a.exact and b.exact and not fa.exact and not fb.exact
    for got, exact in ((fa * fb, a * b), (fb.reciprocal(), b.reciprocal()),
                       (fa / fb, a / b)):
        assert not got.exact and got.order == order
        _assert_close(got, exact, 1e-12)


def test_mixed_jets_compute_in_floats():
    exact = Jet.variable(QC(Fraction(1, 3)), 4)
    floating = Jet.variable(0.25 + 0.5j, 4)
    for out in (exact * floating, floating + exact, exact - floating, exact * 0.5,
                exact + 0.5j, floating * QC(2), floating / Fraction(3)):
        assert not out.exact
    assert (exact * floating).coeffs[0] == pytest.approx((0.25 + 0.5j) / 3)
    assert (floating / Fraction(3)).coeffs[1] == pytest.approx(1 / 3)


def test_moebius_jet_matches_pointwise_action():
    m = MoebiusMap.disk_automorphism(0.2 - 0.3j, 0.5)
    x0 = 0.1 + 0.2j
    jet = moebius_jet(m, Jet.variable(x0, 3))
    assert jet.coeffs[0] == pytest.approx(m.apply(x0))
    eps = 1e-6
    fd = (m.apply(x0 + eps) - m.apply(x0 - eps)) / (2 * eps)
    assert jet.coeffs[1] == pytest.approx(fd, rel=1e-5)


def _matrix(m):
    return (m.a, m.b, m.c, m.d)


def _exact_disk_map(a, unit=QC(1)):
    """u (z - a)/(1 - conj(a) z) with exact entries."""
    return MoebiusMap(unit, -unit * a, -a.conjugate(), QC(1), domain="D")


def _closed_form_jet(m, order: int) -> list:
    """The jet of u -> (a u + b)/(c u + d) from the closed form the towers
    compose with (``peschl_minda._chart``): M(0) = b/d, then coefficient
    k >= 1 is delta r^{k-1}."""
    t, delta, r = _chart(m)
    out = [t]
    for _ in range(order):
        out.append(delta)
        delta = delta * r
    return out


def test_closed_form_moebius_jet_is_exact_for_a_pullback_of_a_pullback():
    # the jet of u -> phi1(phi2(T_z(u))) from the product matrix in closed
    # form equals the jet divisions of moebius_jet, coefficient for
    # coefficient, in QC
    z = QC(Fraction(1, 4), Fraction(-1, 5))
    zb = z.conjugate()
    phi1 = _exact_disk_map(QC(Fraction(1, 3), Fraction(-1, 4)), QC(Fraction(3, 5), Fraction(4, 5)))
    phi2 = _exact_disk_map(QC(Fraction(-2, 7), Fraction(1, 2)))
    order = 12
    t_z = moebius_jet(MoebiusMap(QC(1), z, zb, QC(1)), Jet.variable(QC(0), order))
    oracle = moebius_jet(phi1, moebius_jet(phi2, t_z))
    m = _matmul(_matrix(phi1), _matmul(_matrix(phi2), (1, z, zb, 1)))
    jet = _closed_form_jet(m, order)
    assert oracle.exact
    assert all(isinstance(c, QC) for c in jet)
    assert jet == oracle.coeffs


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 0.97])
def test_closed_form_moebius_jet_matches_jet_division_in_float(r):
    # moebius_compose of the rows [M(0), delta] is the closed-form jet
    rng = random.Random(int(100 * r))
    order = 400
    for _ in range(4):
        z = r * cmath.exp(2j * math.pi * rng.random())
        zb = z.conjugate()
        phi = MoebiusMap.disk_automorphism(
            0.9 * rng.random() * cmath.exp(2j * math.pi * rng.random()), rng.uniform(0, 6))
        oracle = moebius_jet(phi, moebius_jet(MoebiusMap(1, z, zb, 1),
                                              Jet.variable(0j, order))).coeffs
        t, delta, ratio = _chart(_matmul(_matrix(phi), (1, z, zb, 1)))
        jet = moebius_compose(np.array([[t, delta]]), np.array([ratio]), order + 1)[0]
        assert len(jet) == order + 1
        scale = np.abs(oracle).max()
        assert np.abs(jet - oracle).max() <= 1e-13 * scale


def test_closed_form_moebius_jet_edge_cases():
    # c = 0 is a polynomial map; order 0 keeps the constant; d = 0 is a pole
    t, delta, r = _chart((2.0, 1.0, 0.0, 4.0))
    assert moebius_compose(np.array([[t, delta]]), np.array([r]), 4)[0].tolist() == [
        0.25, 0.5, 0, 0]
    assert _closed_form_jet((1, QC(1, 2), QC(3), 2), 0) == [QC(Fraction(1, 2), 1)]
    with pytest.raises(ZeroDivisionError):
        _chart((1.0, 1.0, 1.0, 0.0))


# the exact convolution kernel ------------------------------------------------

_fracs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
exact_scalars = {
    "int": st.integers(-5, 5),
    "Fraction": _fracs,
    "QC": st.builds(QC, _fracs, _fracs),
}
# uniform lists of each kind, and lists that mix the kinds (a PolyFn sum pads
# with int 0, so mixed lists occur); zeros at the ends test the stripping
exact_lists = st.one_of(
    *(st.lists(s, min_size=1, max_size=9) for s in exact_scalars.values()),
    st.lists(st.one_of(*exact_scalars.values()), min_size=1, max_size=9),
    st.lists(st.sampled_from([0, Fraction(0), QC(0), 1, Fraction(1), QC(0, 1)]),
             min_size=1, max_size=6))


def _schoolbook(a, b, size=None):
    """The Cauchy product as sums of scalar products: from int 0 for a
    polynomial, from a[0] * 0 and truncated to ``size`` for a jet."""
    if size is None:
        out = [0] * (len(a) + len(b) - 1)
    else:
        out = [a[0] * 0] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < len(out):
                out[i + j] = out[i + j] + x * y
    return out


def _widest_kind(*lists):
    kinds = {type(x) for xs in lists for x in xs}
    return next(k for k in (QC, Fraction, int) if k in kinds)


def _same_values_in_the_widest_kind(got, want, *inputs):
    # the values of the schoolbook sum, each in the widest kind among the
    # inputs, whatever kind the schoolbook sum left at that position
    assert got == want
    assert {type(x) for x in got} == {_widest_kind(*inputs)}


@settings(max_examples=150, deadline=None)
@given(a=exact_lists, b=exact_lists)
def test_exact_polyfn_product_is_the_schoolbook_product(a, b):
    pa, pb = PolyFn(a), PolyFn(b)
    got = (pa * pb).coeffs
    want = PolyFn(_schoolbook(pa.coeffs, pb.coeffs)).coeffs
    _same_values_in_the_widest_kind(got, want, pa.coeffs, pb.coeffs)
    assert len(got) == 1 or got[-1] != 0


@settings(max_examples=150, deadline=None)
@given(a=exact_lists, b=exact_lists)
def test_exact_jet_product_is_the_truncated_schoolbook_product(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    got = Jet(a) * Jet(b)
    assert got.exact
    _same_values_in_the_widest_kind(got.coeffs, _schoolbook(a, b, n), a, b)


def test_exact_kernel_keeps_the_scalar_type():
    ints = PolyFn([1, -2, 3]) * PolyFn([2, 0, 1])
    assert ints.coeffs == [2, -4, 7, -2, 3]
    assert all(type(c) is int for c in ints.coeffs)
    fr = PolyFn([Fraction(1, 2), 1]) * PolyFn([2, Fraction(-1, 3)])
    assert fr.coeffs == [1, Fraction(11, 6), Fraction(-1, 3)]
    assert all(type(c) is Fraction for c in fr.coeffs)
    qc = PolyFn([QC(1, 1)]) * PolyFn([1, Fraction(1, 2)])
    assert qc.coeffs == [QC(1, 1), QC(Fraction(1, 2), Fraction(1, 2))]
    assert all(type(c) is QC for c in qc.coeffs)
    # (1 + t)(1 - t) = 1 - t^2, and (1 + i t)(1 - i t) = 1 + t^2: trailing
    # zeros of a product that cancels are stripped
    assert (PolyFn([1, 1, 0]) * PolyFn([1, -1])).coeffs == [1, 0, -1]
    assert (PolyFn([Fraction(1, 2), 1]) * PolyFn([0])).coeffs == [Fraction(0)]
    assert (PolyFn([QC(1), QC(0, 1)]) * PolyFn([QC(1), QC(0, -1)])).coeffs == [1, 0, 1]


def test_exact_times_float_takes_the_float_path():
    p = PolyFn([Fraction(1, 2), QC(1, 1)]) * PolyFn([0.5, 1.0])
    assert p.coeffs == [0.25, pytest.approx(1.0 + 0.5j), pytest.approx(1.0 + 1.0j)]
    assert all(isinstance(c, (float, complex)) for c in p.coeffs)
    jet = Jet([Fraction(1, 2), QC(1, 1)]) * Jet([0.5, 1.0])
    assert not jet.exact and isinstance(jet.coeffs, list)
    assert all(type(c) is complex for c in jet.coeffs)
    assert jet.coeffs == [0.25, 1.0 + 0.5j]


# entire functions ------------------------------------------------------------


def test_polyfn_calculus():
    p = PolyFn([0, 0, 0, 1])  # t^3
    assert p.degree == 3
    assert p.derivative(2) == PolyFn([0, 6])
    assert p.derivative(5).is_zero
    assert p.eval(2)[0] == 8
    assert (p + PolyFn([1]) * 2).eval(1)[0] == 3
    assert (PolyFn([0, 1]) * PolyFn([0, 1])).coeffs == [0, 0, 1]
    # no coefficients is the zero polynomial, as all-zero ones are
    empty = PolyFn([])
    assert empty == PolyFn([0, 0]) and empty.is_zero and empty.degree == 0
    assert empty.eval(0.3) == (0, 0.0)
    assert (empty * p).is_zero and (empty + p) == p


def test_polyfn_exact_coefficients_stay_exact():
    p = PolyFn([Fraction(1, 3), Fraction(1, 2)])
    assert p.derivative().coeffs == [Fraction(1, 2)]
    assert p.eval(Fraction(2))[0] == Fraction(4, 3)


def test_expfn_closed_form_derivatives():
    g = ExpFn(2 - 1j)
    v, err = g.derivative(3).eval(0.1)
    assert err == 0.0
    assert v == pytest.approx((2 - 1j) ** 3 * cmath.exp((2 - 1j) * 0.1))


def test_series_tail_certificate():
    # exp(t) truncated at order 6 with the true tail bound |a_k| <= 1/2^k... use
    # C = 1, rho = 2: |1/k!| <= 1/2^k fails for small k but holds past order 6
    g = SeriesFn([1 / math.factorial(k) for k in range(7)], rho=2.0, C=1.0)
    v, bound = g.eval(0.5)
    assert abs(v - math.exp(0.5)) <= bound
    with pytest.raises(DomainError):
        g.eval(2.5)
    with pytest.raises(SeriesOrderError):
        g.derivative(8)
    d = g.derivative(1)
    assert d.rho == 1.0 and d.C == 0.5
    # a NaN or infinite certificate bounds nothing
    for rho, C in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError):
            SeriesFn(g.coeffs, rho=rho, C=C)
    # a series has at least its constant coefficient
    with pytest.raises(ValueError):
        SeriesFn([], rho=2.0, C=1.0)


def test_entire_json_roundtrip():
    # the three types the CLI reads, parsed from literal specs
    poly = entire_from_json({"type": "poly", "coeffs": [[1, 0], [2, -1]]})
    assert type(poly) is PolyFn and poly.coeffs == [1 + 0j, 2 - 1j]
    exp = entire_from_json({"type": "exp", "scale": [0.5, 0.25]})
    assert type(exp) is ExpFn and exp.scale == 0.5 + 0.25j and exp.amp == 1
    series = entire_from_json({"type": "series", "coeffs": [[1, 0], [0.5, 0]],
                               "rho": 3, "C": 2})
    assert type(series) is SeriesFn and series.coeffs == [1 + 0j, 0.5 + 0j]
    assert (series.rho, series.C) == (3.0, 2.0)
    assert series.eval(0.2)[0] == pytest.approx(1.1)
    with pytest.raises(DomainError):
        entire_from_json({"type": "mystery"})


# bivariate polynomials --------------------------------------------------------


def test_bipoly_ring_operations():
    z, w = BiPoly.z(), BiPoly.w()
    f = (1 - z * w).pow(2)
    assert f.coeffs[(2, 2)] == 1 and f.coeffs[(1, 1)] == -2
    assert (f - f).is_zero
    assert (z * 0).is_zero
    assert f.zdeg == 2 and f.wdeg == 2


def test_bipoly_wirtinger_derivatives():
    f = BiPoly({(2, 1): 3})
    assert f.wirtinger("z") == BiPoly({(1, 1): 6})
    assert f.wirtinger("w") == BiPoly({(2, 0): 3})
    assert f.wirtinger("z").wirtinger("w") == f.wirtinger("w").wirtinger("z")


def test_bipoly_diagonal_evaluation_and_conjugation():
    f = BiPoly({(1, 0): 1, (0, 1): 1j})  # z + i conj(z)
    zv = 0.3 + 0.4j
    assert f.eval_diag(zv) == pytest.approx(zv + 1j * zv.conjugate())
    g = f.swap_conj()
    assert g.eval_diag(zv) == pytest.approx((zv + 1j * zv.conjugate()).conjugate())
    assert f.swap_conj().swap_conj() == f


_qc_points = st.builds(QC, _fracs, _fracs)
_bipolys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           st.one_of(*exact_scalars.values()), max_size=10)


@settings(max_examples=200, deadline=None)
@given(coeffs=_bipolys, z=_qc_points,
       w=st.one_of(st.none(), _qc_points, exact_scalars["int"], _fracs))
def test_bipoly_eval_equals_the_termwise_sum_exactly(coeffs, z, w):
    # on the diagonal when w is None, else off it with the QC in either slot
    f = BiPoly(coeffs)
    assert f.eval_diag(z) == f.eval(z, z.conjugate())
    for x, y in [(z, z.conjugate())] if w is None else [(z, w), (w, z)]:
        got, want = f.eval(x, y), bipoly_eval_by_terms(f, x, y)
        assert got == want and type(got) is type(want)
        # the zero polynomial gives x * 0, whatever the other slot is
        assert type(got) is QC or (f.is_zero and type(got) is type(x))


def test_bipoly_jet_evaluation_freezes_second_slot():
    f = BiPoly({(2, 1): 1, (0, 2): -1})
    w0 = 0.2 - 0.1j
    jet = f.eval_jet(Jet.variable(0.3, 2), w0)
    assert jet.coeffs[0] == pytest.approx(f.eval(0.3, w0))
    assert jet.coeffs[1] == pytest.approx(2 * 0.3 * w0)  # d/dz of z^2 w0
    assert jet.coeffs[2] == pytest.approx(w0)


def test_basis_family_values_and_pole():
    b = BasisFpq(2, 1)
    assert b.eval(0.5, 0.5) == pytest.approx(0.5 ** 3 / 0.75 ** 2)
    with pytest.raises(DomainError):
        b.eval(2, 0.5)
    with pytest.raises(ValueError):
        BasisFpq(-1, 0)
