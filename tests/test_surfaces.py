import math

import pytest
from oracles import exact_gpoints

import wickstar.suites as suites
from wickstar.errors import DomainError
from wickstar.functions import BasisFpq, PolyFn
from wickstar.peschl_minda import ComposedP, ComposedQ, p_aux, q_aux
from wickstar.sampling import sample_disk, sample_gpoints
from wickstar.sphere import (MoebiusMap, annulus_deck_multiplier,
                             covering_disk_to_annulus, covering_disk_to_punctured,
                             covering_half_to_annulus)
from wickstar.surfaces import (AnnulusElement, FpqCombo, PuncturedElement,
                               chart_f_0, chart_f_R, gamma_hat_invariant, iso_psi,
                               lift_to_disk, scaling_kernel, transport_T,
                               translation_kernel, z2_involution)
from wickstar.suites import run_suites


# charts -----------------------------------------------------------------------


def test_annulus_chart_domain_and_values():
    assert chart_f_R(2.0, 1.0) == 0
    assert chart_f_R(2.0, math.sqrt(2)) == pytest.approx(-1j, abs=1e-12)
    for bad in (0.4, 2.1):
        with pytest.raises(DomainError):
            chart_f_R(2.0, bad)
    with pytest.raises(DomainError):
        chart_f_R(0.8, 1.0)


# every entry point that takes the annulus modulus R
MODULUS_USES = {
    "covering_disk_to_annulus": lambda r: covering_disk_to_annulus(r, 0.3),
    "covering_half_to_annulus": lambda r: covering_half_to_annulus(r, 1j),
    "annulus_deck_multiplier": annulus_deck_multiplier,
    "chart_f_R": lambda r: chart_f_R(r, 1.0),
    "AnnulusElement": lambda r: AnnulusElement(r, PolyFn([1])),
}


# an int past the float range would overflow log R and exp
@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 1.0,
                                    pytest.param(10 ** 400, id="int-past-float-range")])
@pytest.mark.parametrize("use", MODULUS_USES.values(), ids=MODULUS_USES.keys())
def test_annulus_modulus_is_a_finite_number_above_one(use, radius):
    with pytest.raises(DomainError):
        use(radius)
    use(2.0)


def test_punctured_chart_domain_and_values():
    assert chart_f_0(math.exp(-2)) == pytest.approx(0.5)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            chart_f_0(bad)


def test_charts_compose_with_the_coverings(rng):
    for z in sample_disk(rng, 40, rmax=0.9):
        assert chart_f_R(2.0, covering_disk_to_annulus(2.0, z)) == \
            pytest.approx(p_aux(z), abs=1e-10)
        assert chart_f_0(covering_disk_to_punctured(z)) == \
            pytest.approx(q_aux(z), abs=1e-10)


# elements and transports --------------------------------------------------------


def test_elements_evaluate_through_their_charts():
    g = PolyFn([1, 0, 2])
    e = AnnulusElement(2.0, g)
    w = chart_f_R(2.0, 1.3 + 0.2j)
    assert e.value(1.3 + 0.2j) == pytest.approx(1 + 2 * w ** 2)
    p = PuncturedElement(g)
    w0 = chart_f_0(0.3)
    assert p.value(0.3) == pytest.approx(1 + 2 * w0 ** 2)
    with pytest.raises(DomainError):
        AnnulusElement(0.5, g)


def test_transport_and_modulus_change():
    g = PolyFn([0, 1])
    e = transport_T(g, "annulus", radius=2.0)
    assert isinstance(e, AnnulusElement) and e.radius == 2.0
    assert isinstance(transport_T(g, "punctured"), PuncturedElement)
    with pytest.raises(DomainError):
        transport_T(g, "annulus")
    with pytest.raises(DomainError):
        transport_T(g, "torus")

    moved = iso_psi(e, 3.0)
    assert moved.radius == 3.0 and moved.g is e.g
    same = iso_psi(e, 2.0)
    assert same.radius == e.radius and same.g == e.g


def test_lift_to_disk_shapes():
    g = PolyFn([0, 1, 1])
    assert isinstance(lift_to_disk(AnnulusElement(2.0, g)), ComposedP)
    assert isinstance(lift_to_disk(PuncturedElement(g)), ComposedQ)
    with pytest.raises(DomainError):
        lift_to_disk(g)


def test_lift_values_match_the_covering(rng):
    g = PolyFn([1, -2, 1])
    e = AnnulusElement(2.0, g)
    lift = lift_to_disk(e)
    for z in sample_disk(rng, 20, rmax=0.85):
        assert lift.value(z) == pytest.approx(
            e.value(covering_disk_to_annulus(2.0, z)), abs=1e-10)


# the index-swap involution -------------------------------------------------------


def test_involution_on_the_diagonal_basis_element():
    image = z2_involution(BasisFpq(1, 1))
    assert image == FpqCombo({(0, 0): -1, (1, 1): -1})


def test_involution_agrees_with_the_substitution(rng):
    zs = sample_disk(rng, 8, rmax=0.7)
    ws = sample_disk(rng, 8, rmax=0.7)
    for p in range(4):
        for q in range(4):
            image = z2_involution(BasisFpq(p, q))
            for z, w in zip(zs, ws):
                if abs(z) < 1e-3 or abs(w) < 1e-3:
                    continue
                direct = BasisFpq(p, q).eval(1 / z, 1 / w)
                assert image.eval(z, w) == pytest.approx(direct, rel=1e-9)


def test_involution_is_an_involution():
    for p in range(4):
        for q in range(4):
            once = z2_involution(BasisFpq(p, q))
            twice = FpqCombo()
            for key, a in once.terms.items():
                twice = twice + z2_involution(BasisFpq(*key)).scale(a)
            assert twice == FpqCombo({(p, q): 1})


def test_combo_algebra():
    c = FpqCombo({(1, 0): 2}) + BasisFpq(0, 1)
    assert c.terms == {(1, 0): 2, (0, 1): 1}
    assert (c + c.scale(-1)).terms == {}
    with pytest.raises(DomainError):
        FpqCombo.of("not a combination")


# invariance kernels ---------------------------------------------------------------


def test_invariant_kernels_and_witness(rng):
    # both kernels exactly, at the exact values of the sampled floats
    floats = sample_gpoints(rng, 40)
    pts = exact_gpoints(floats)
    g = PolyFn([0, 1, 1])
    r1 = gamma_hat_invariant(scaling_kernel(g), MoebiusMap.scaling(2), pts, 0)
    assert r1.passed and r1.max_residual == 0 and r1.samples == 40
    r2 = gamma_hat_invariant(translation_kernel(g), MoebiusMap.translation(1), pts, 0)
    assert r2.passed and r2.max_residual == 0 and r2.samples == 40
    witness = gamma_hat_invariant(lambda p: p.z.value(), MoebiusMap.scaling(2), pts, 0)
    assert not witness.passed
    # scaling by 2 is exact in binary floating point, so on the floats too
    assert gamma_hat_invariant(scaling_kernel(g), MoebiusMap.scaling(2.0), floats, 0).passed


def _invariance_report(seed):
    return {c["name"]: c for c in run_suites(names=["invariance"], seed=seed)["checks"]}


@pytest.mark.parametrize("seed", [23, 415, 937])
def test_translation_check_passes_where_a_literal_tolerance_failed(seed):
    # residuals of 1.3e-12 to 3.3e-12 here fail an absolute 1e-12
    report = _invariance_report(seed)
    check = report["translation-invariant-kernel"]
    # the report prints the scaled residual it compares with 2
    assert check["status"] == "pass" and 0 < check["max_residual"] <= 2
    # scaling by 2 is exact, and so is every step of the kernel
    assert report["scaling-invariant-kernel"]["max_residual"] == 0


def test_translation_check_catches_a_kernel_moved_by_1e_12(monkeypatch):
    def moved(g):
        kernel = translation_kernel(g)
        # the translation moves Re z by 1, and so this kernel by 1e-12
        return lambda p: kernel(p) + 1e-12 * p.z.value().real

    monkeypatch.setattr(suites, "translation_kernel", moved)
    for seed in (0, 23):
        assert _invariance_report(seed)["translation-invariant-kernel"]["status"] == "fail"


def test_invariance_sweep_collects_pointwise_failures():
    g = PolyFn([0, 1])
    pts = sample_gpoints(rng_like(), 5)
    from wickstar.sphere import GPoint, SpherePoint
    pts.append(GPoint(SpherePoint.infinity(), SpherePoint.finite(0)))
    rep = gamma_hat_invariant(scaling_kernel(g), MoebiusMap.scaling(2.0),
                              pts, 1e-12)
    assert rep.samples == 6 and rep.passed


def rng_like():
    from wickstar.sampling import rng_for
    return rng_for(7)
