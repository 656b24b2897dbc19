import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickstar.functions as functions
import wickstar.peschl_minda as peschl_minda
import wickstar.star as star
from wickstar.errors import DomainError, NonRepresentableError
from wickstar.exact import QC, conj
from wickstar.functions import BiPoly, ExpFn, Jet, PolyFn, SeriesFn
from wickstar.peschl_minda import (ComposedP, ComposedQ, MoebiusPullback,
                                   PolyDisk, p_aux, pm_bar_bipoly,
                                   pm_bar_definitional, pm_bipoly,
                                   pm_definitional, q_aux)
from wickstar.sphere import MoebiusMap

disk_points = st.tuples(
    st.floats(-0.75, 0.75), st.floats(-0.75, 0.75)
).map(lambda t: complex(*t)).filter(lambda z: abs(z) < 0.8)

small_ints = st.integers(-3, 3)


def test_chart_pullbacks_at_reference_points():
    assert p_aux(0) == 0
    assert q_aux(0) == 1
    z = 0.3 + 0.4j
    assert p_aux(z) == pytest.approx((z - z.conjugate()) / (1 - abs(z) ** 2))
    assert q_aux(z) == pytest.approx(abs(1 - z) ** 2 / (1 - abs(z) ** 2))


def test_first_derivatives_of_the_coordinate_function():
    # the coordinate function z: first derivative (1-|z|^2), conjugate
    # tower dies immediately
    f = PolyDisk(BiPoly.z(exact=True))
    z = QC(Fraction(1, 4), Fraction(-1, 5))
    r2 = z * conj(z)
    assert f.pm(1, z) == QC(1) - r2
    assert f.pm(2, z) == -2 * conj(z) * (QC(1) - r2)
    assert f.pm_bar(1, z) == QC(0)


def _stepped(f: PolyDisk, n: int, z, bar: bool = False):
    """Independent oracle for the jet towers: n! E_n(z, conj z) from the
    stepped symbolic tower."""
    e_n = f.pm_bar_poly(n) if bar else f.pm_poly(n)
    return math.factorial(n) * e_n.eval_diag(z)


def test_polynomial_towers_against_the_stepped_oracle():
    f = PolyDisk(BiPoly({(2, 1): 1 + 1j, (0, 2): -2, (1, 0): 3j}))
    for z in (0.3 - 0.2j, -0.5 + 0.1j):
        for n in range(5):
            assert f.pm(n, z) == pytest.approx(_stepped(f, n, z))
            assert f.pm_bar(n, z) == pytest.approx(_stepped(f, n, z, bar=True))


@settings(max_examples=30, deadline=None)
@given(z=disk_points, i=st.integers(0, 2), j=st.integers(0, 2),
       a=small_ints, n=st.integers(0, 4))
def test_monomial_towers_match_the_oracle(z, i, j, a, n):
    f = PolyDisk(BiPoly({(i, j): complex(a, 1)}))
    assert f.pm(n, z) == pytest.approx(_stepped(f, n, z), abs=1e-9)


def test_exact_polynomial_towers_on_exact_points():
    f = PolyDisk(BiPoly({(1, 1): QC(1), (2, 0): QC(0, 1)}))
    z = QC(Fraction(1, 3), Fraction(1, 7))
    for n in range(4):
        assert f.pm(n, z) == _stepped(f, n, z)
        assert f.pm_bar(n, z) == _stepped(f, n, z, bar=True)


# a complex-coefficient polynomial and an exponential: neither lift is
# real-valued, so no conjugate symmetry stands in for the Dbar oracle
_LIFT_GS = [PolyFn([0.5 - 1j, 1 + 0.25j, -2j, 0.75]), ExpFn(0.4 - 0.7j, 1.5 + 0.5j)]
_LIFT_POINTS = (0.2 + 0.3j, -0.4 - 0.1j, 0.55j)


def _assert_lift_towers_match_the_jets(cls):
    for g in _LIFT_GS:
        f = cls(g)
        for z in _LIFT_POINTS:
            for n in range(7):
                assert f.pm(n, z) == pytest.approx(pm_definitional(f, n, z), rel=1e-12)
                assert f.pm_bar(n, z) == pytest.approx(pm_bar_definitional(f, n, z),
                                                       rel=1e-12)


def test_annulus_lift_closed_form_matches_oracle():
    _assert_lift_towers_match_the_jets(ComposedP)


def test_punctured_lift_closed_form_matches_oracle():
    _assert_lift_towers_match_the_jets(ComposedQ)


def test_exponential_lift_derivatives():
    g = ExpFn(0.5)
    f = ComposedP(g)
    z = 0.1 + 0.2j
    for n in range(4):
        assert f.pm(n, z) == pytest.approx(pm_definitional(f, n, z))


@pytest.mark.parametrize("z", [QC(Fraction(1, 4), Fraction(-1, 5)), QC(Fraction(-2, 3)),
                               QC(Fraction(1, 7), Fraction(5, 8))])
def test_chart_matrices_give_the_hand_derived_chart_factors(z):
    # with T_z (T_{conj z} for Dbar) the chart is t + c u: exactly the chart
    # value and the factor each order of D (or Dbar) contributes
    zb = conj(z)
    r = 1 - z * zb
    factors = {
        (ComposedP, False): (p_aux(z), (1 - zb * zb) / r),
        (ComposedP, True): (p_aux(z), -(1 - z * z) / r),
        (ComposedQ, False): (q_aux(z), -(1 - zb) ** 2 / r),
        (ComposedQ, True): (q_aux(z), -(1 - z) ** 2 / r),
    }
    for (cls, bar), (t, c) in factors.items():
        ambient, w0 = ((1, zb, z, 1), z) if bar else ((1, z, zb, 1), zb)
        a, b, c_entry, d = peschl_minda._matmul(cls.chart_matrix(w0, bar), ambient)
        assert c_entry == 0
        assert (b / d, a / d) == (t, c)


def test_pullback_towers_match_oracle_and_chain_rule():
    phi = MoebiusMap.disk_automorphism(0.2 - 0.1j, 0.3)
    inner = PolyDisk(BiPoly({(1, 1): 1, (2, 0): -1j}))
    f = MoebiusPullback(inner, phi)
    z = 0.25 - 0.15j
    assert f.value(z) == pytest.approx(inner.value(phi.apply(z)))
    for n in range(4):
        assert f.pm(n, z) == pytest.approx(pm_definitional(f, n, z))
        assert f.pm_bar(n, z) == pytest.approx(pm_bar_definitional(f, n, z))
    # batched towers agree with the one-at-a-time path
    seq = f.pm_sequence(3, z)
    for n in range(4):
        assert math.factorial(n) * seq[n] == pytest.approx(f.pm(n, z))


@pytest.mark.parametrize("cls", [ComposedP, ComposedQ])
def test_pullbacks_of_lifts_intertwine_the_disk_product(cls):
    phi = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    cfg = star.StarConfig(max_terms=64, tol=1e-14)
    pairs = [(PolyFn([0.2, 1 - 0.5j, 0.3j]), PolyFn([1j, -0.4, 0.25 + 0.1j])),
             (ExpFn(0.3 - 0.2j), ExpFn(-0.25 + 0.4j, 0.5j))]
    for g, gt in pairs:
        f, ft = MoebiusPullback(cls(g), phi), MoebiusPullback(cls(gt), phi)
        for z in (0.1 + 0.2j, -0.35 + 0.15j, 0.4j):
            got = star.star_disk(f, ft, 0.35, z, cfg).value
            want = star.star_disk(cls(g), cls(gt), 0.35, phi.apply(z), cfg).value
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_a_certified_series_enters_no_jet():
    s = SeriesFn([1, 0.5, 0.125], rho=4.0, C=1.0)
    f = MoebiusPullback(ComposedP(s), MoebiusMap.disk_automorphism(0.2, 0.3))
    with pytest.raises(NonRepresentableError):
        star.star_disk(f, f, 0.35, 0.1j)
    with pytest.raises(NonRepresentableError):
        f.pm_sequence(8, 0.1j)
    with pytest.raises(NonRepresentableError):
        pm_definitional(ComposedQ(s), 1, 0.1j)


def test_polynomial_dbar_towers_build_no_conjugate_operand(monkeypatch):
    # Dbar^n f/n! = conj(D^n conj(f)/n!): the same numbers, bit for bit, as
    # the towers of the conjugate operand, but read off the jet in the
    # antiholomorphic slot
    f = BiPoly({(2, 1): 1 + 1j, (0, 2): -2, (1, 0): 3j, (2, 2): 0.5, (0, 3): 0.1 - 0.7j})
    zq = QC(Fraction(1, 4), Fraction(-1, 5))
    fq = BiPoly({(1, 2): QC(2, -1), (3, 0): QC(0, 1), (0, 1): QC(Fraction(1, 3))})
    cases = [(f, z) for z in (0.9, -0.6 + 0.6j, 0.3 - 0.8j)] + [(fq, zq)]
    want = [PolyDisk(g.swap_conj()).pm_sequence(64, z) for g, z in cases]

    def refuse(self):
        raise AssertionError("a Dbar tower built a conjugate operand")

    monkeypatch.setattr(BiPoly, "swap_conj", refuse)
    for (g, z), ref in zip(cases, want):
        got = PolyDisk(g).pm_bar_sequence(64, z)
        if isinstance(got, list):
            assert got == [conj(a) for a in ref]
        else:
            assert got.tolist() == ref.conj().tolist()


def test_first_pullback_derivative_is_conformally_covariant():
    # D(f o phi)(z) = D f(phi z) * phi'(z) (1-|z|^2)/(1-|phi z|^2)
    phi = MoebiusMap.disk_automorphism(0.3, 0.0)
    inner = PolyDisk(BiPoly({(2, 1): 1}))
    z = 0.2 + 0.3j
    w = phi.apply(z)
    eps = 1e-6
    dphi = (phi.apply(z + eps) - phi.apply(z - eps)) / (2 * eps)
    factor = dphi * (1 - abs(z) ** 2) / (1 - abs(w) ** 2)
    lhs = MoebiusPullback(inner, phi).pm(1, z)
    assert lhs == pytest.approx(inner.pm(1, w) * factor, rel=1e-5)


def test_pullback_requires_a_disk_designation():
    with pytest.raises(DomainError):
        MoebiusPullback(PolyDisk(BiPoly.z()), MoebiusMap.scaling(2.0))


def test_derivatives_reject_points_outside_the_disk():
    f = PolyDisk(BiPoly.z())
    with pytest.raises(DomainError):
        f.pm(1, 1.2)
    with pytest.raises(ValueError):
        f.pm(-1, 0.1)


def test_symbolic_towers_of_the_coordinate_functions():
    one_minus = BiPoly({(0, 0): 1, (1, 1): -1})
    assert pm_bipoly(BiPoly.z(), 1) == one_minus
    assert pm_bar_bipoly(BiPoly.z(), 1).is_zero
    assert pm_bar_bipoly(BiPoly.w(), 1) == one_minus
    assert pm_bipoly(BiPoly.w(), 1).is_zero


def _closed_form_tower(f: BiPoly, n: int, slot: str) -> BiPoly:
    """Independent oracle: (1 - zw) d^n [ (1 - zw)^{n-1} F ] in the slot."""
    if n == 0:
        return f
    one_minus = BiPoly({(0, 0): 1, (1, 1): -1})
    inner = one_minus.pow(n - 1) * f
    for _ in range(n):
        inner = inner.wirtinger(slot)
    return one_minus * inner


def _random_exact_bipoly(rng: random.Random) -> BiPoly:
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): QC(q(), q())
                   for _ in range(rng.randint(1, 6))})


def test_stepped_towers_equal_the_closed_form_exactly():
    rng = random.Random(11)
    for _ in range(3):
        f = _random_exact_bipoly(rng)
        disk = PolyDisk(f)
        # fill the cached towers out of order: a high order first
        disk.pm_poly(17)
        disk.pm_bar_poly(17)
        # the closed form costs O(n^2) work per order, so sample the orders
        for n in (5, 0, 1, 2, 3, 4, 6, 7, 8, 11, 17, 23, 30):
            d, dbar = _closed_form_tower(f, n, "z"), _closed_form_tower(f, n, "w")
            assert pm_bipoly(f, n) == d
            assert pm_bar_bipoly(f, n) == dbar
            assert disk.pm_poly(n) * math.factorial(n) == d
            assert disk.pm_bar_poly(n) * math.factorial(n) == dbar


exact_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(QC, st.fractions(-6, 6, max_denominator=5), st.fractions(-6, 6, max_denominator=5)),
    min_size=1, max_size=6).map(BiPoly)


@settings(max_examples=15, deadline=None)
@given(f=exact_bipolys, n=st.integers(0, 24), slot=st.sampled_from(["z", "w"]))
def test_normalized_exact_towers_times_n_factorial_are_the_closed_form(f, n, slot):
    disk = PolyDisk(f)
    e_n = disk.pm_poly(n) if slot == "z" else disk.pm_bar_poly(n)
    assert e_n * math.factorial(n) == _closed_form_tower(f, n, slot)


def test_normalized_towers_of_integer_polynomials_are_integer():
    # E_n = D^n f/n! are the Taylor coefficients of u -> F(T_z(u), w), a
    # power series in u over Z[z, w] when F has integer coefficients
    disk = PolyDisk(BiPoly({(2, 1): QC(3, -1), (0, 2): QC(-2), (1, 0): QC(0, 5)}))
    for n in range(31):
        for e_n in (disk.pm_poly(n), disk.pm_bar_poly(n)):
            assert all(a.re.denominator == a.im.denominator == 1 for a in e_n.coeffs.values())


def test_float_towers_match_the_stepped_oracle_to_high_order():
    f = PolyDisk(BiPoly({(2, 1): 1 + 1j, (0, 2): -2, (1, 0): 3j, (2, 2): 0.5}))
    for z in (0.9, -0.6 + 0.6j, 0.3 - 0.8j):
        for n in range(41):
            assert f.pm(n, z) == pytest.approx(_stepped(f, n, z), rel=1e-12)
            assert f.pm_bar(n, z) == pytest.approx(_stepped(f, n, z, bar=True), rel=1e-12)


def test_tower_work_grows_linearly_with_the_order(monkeypatch):
    # a rebuild of every order from scratch costs O(N^2) steps or products
    counts = {"mul": 0, "step": 0}
    mul, step = BiPoly.__mul__, peschl_minda.pm_step

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_step(*args):
        counts["step"] += 1
        return step(*args)

    monkeypatch.setattr(BiPoly, "__mul__", counting_mul)
    monkeypatch.setattr(BiPoly, "__rmul__", counting_mul)
    monkeypatch.setattr(peschl_minda, "pm_step", counting_step)
    monkeypatch.setattr(star, "pm_step", counting_step)
    f = BiPoly({(i, j): complex(i + 1, j - 1) for i in range(3) for j in range(3)})
    disk = PolyDisk(f)
    disk.pm_poly(64)
    disk.pm_bar_poly(64)
    disk.pm_poly(30)
    assert counts["step"] == 2 * 64
    assert counts["mul"] <= 4 * 64
    counts.update(mul=0, step=0)
    star.star_disk_poly_truncated(f, f, 0.5, 64)
    assert counts["step"] == 2 * 64
    assert counts["mul"] <= 4 * 64


def test_definitional_oracle_guard_order():
    # a jet of higher order leaves coefficient n unchanged
    f = PolyDisk(BiPoly({(2, 2): 1}))
    z = 0.3 + 0.1j
    jet = f.ambient_jet(z, 3)
    assert math.factorial(2) * jet.coeffs[2] == pytest.approx(f.pm(2, z))


def test_closed_form_t_z_jet_equals_the_quotient_exactly():
    # F(z, w) = z makes ambient_jet the jet of T_z(u) itself
    z = QC(Fraction(1, 4), Fraction(-1, 5))
    jet = PolyDisk(BiPoly.z(exact=True)).ambient_jet(z, 12)
    u = Jet.variable(QC(0), 12)
    assert jet.exact
    assert jet.coeffs == ((u + z) / (u * conj(z) + 1)).coeffs


def test_float_pullback_towers_never_enter_the_exact_loops(monkeypatch):
    def refuse(*args):
        raise AssertionError("float jet arithmetic entered an exact loop")

    monkeypatch.setattr(functions, "_mul_exact", refuse)
    monkeypatch.setattr(functions, "_reciprocal_exact", refuse)
    phi = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    f = MoebiusPullback(PolyDisk(BiPoly({(2, 1): 1 + 1j, (0, 2): -2, (1, 0): 3j})), phi)
    z = 0.9j
    seq, bar = f.pm_sequence(64, z), f.pm_bar_sequence(64, z)
    assert len(seq) == len(bar) == 65
    assert list(f.pm_sequence(64, z, start=60)) == list(seq[60:])
    assert seq[0] == pytest.approx(f.value(z))
    assert bar[0] == pytest.approx(f.value(z))


def test_pullback_towers_run_no_jet_division(monkeypatch):
    # a pullback multiplies its map into the Moebius matrix of T_z, so its
    # towers come from a closed-form jet with no reciprocal
    def refuse(*args):
        raise AssertionError("a pullback tower divided jets")

    monkeypatch.setattr(functions, "_reciprocal_float", refuse)
    monkeypatch.setattr(functions, "_reciprocal_exact", refuse)
    phi = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    inner = PolyDisk(BiPoly({(2, 1): 1 + 1j, (0, 2): -2, (1, 0): 3j}))
    f = MoebiusPullback(MoebiusPullback(inner, phi), phi)
    z = 0.6 - 0.3j
    assert f.pm_sequence(64, z)[0] == pytest.approx(f.value(z))
    assert f.pm_bar_sequence(64, z)[0] == pytest.approx(f.value(z))
    zq = QC(Fraction(1, 4), Fraction(-1, 5))
    phi_q = MoebiusMap(QC(1), QC(Fraction(-1, 3)), QC(Fraction(-1, 3)), QC(1), domain="D")
    fq = MoebiusPullback(PolyDisk(BiPoly({(1, 1): QC(2), (0, 2): QC(0, 1)})), phi_q)
    assert fq.pm_sequence(8, zq)[0] == fq.value(zq)


# values of the mixed pairs (a jet operand with a streamed closed form),
# pinned from the implementation that built the pullback jets by jet
# division: (first operand, second operand, [(point, value), ...])
_MIXED_PHI = MoebiusMap.disk_automorphism(0.3 - 0.4j, 0.9)
_MIXED = [
    (PolyDisk(BiPoly({(1, 1): 0.5 - 0.2j, (0, 2): 1j, (2, 0): 0.3})),
     ComposedP(PolyFn([0.1, -0.4j, 0.25, 0.2 + 0.1j])),
     [(0.35 - 0.2j, 0.19333600454558098 + 0.09610098572247676j),
      (-0.6 + 0.5j, -1.7399230809580324 + 2.0688835004791866j)]),
    (ComposedQ(ExpFn(0.3 - 0.2j)),
     MoebiusPullback(PolyDisk(BiPoly({(2, 1): 1 - 0.5j, (0, 1): 0.7})), _MIXED_PHI),
     [(0.35 - 0.2j, -0.16981150119214947 - 0.12380474434374845j),
      (-0.6 + 0.5j, 2.269169868897138 + 14.311403932310041j)]),
]


@pytest.mark.parametrize("f, g, cases", _MIXED)
def test_mixed_jet_and_stream_pairs_keep_their_values(f, g, cases):
    for z, value in cases:
        res = star.star_disk(f, g, 0.4 + 0.1j, z, star.StarConfig(max_terms=64, tol=0))
        assert res.terms_used == 65
        assert res.value == pytest.approx(value, rel=1e-14, abs=0)
