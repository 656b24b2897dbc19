import cmath
import math
from fractions import Fraction

import pytest

import wickstar.suites as suites
from wickstar.suites import run_suites
from wickstar.errors import DomainError
from wickstar.exact import QC
from wickstar.sampling import sample_disk, sample_gpoints, sample_half_plane
from wickstar.sphere import (GPoint, MoebiusMap, OmegaPoint,
                             SpherePoint, annulus_deck_multiplier,
                             covering_disk_to_annulus,
                             covering_disk_to_punctured,
                             covering_half_to_annulus, danielewski_chart,
                             gamma_hat, moebius_fixed_points,
                             moebius_multiplier_at, psi_g_to_omega,
                             psi_omega_to_g, t_gamma_omega)


def test_sphere_point_projective_basics():
    p = SpherePoint(2 + 2j, 2)
    assert p.value() == 1 + 1j
    assert p.proj_eq(SpherePoint.finite(1 + 1j))
    inf = SpherePoint.infinity()
    assert inf.is_infinite
    with pytest.raises(DomainError):
        inf.value()
    with pytest.raises(DomainError):
        SpherePoint(0, 0)
    assert inf.reciprocal().value() == 0


def test_moebius_rejects_singular_matrix():
    with pytest.raises(DomainError):
        MoebiusMap(1, 2, 2, 4)


def test_rescaled_float_inputs_are_accepted():
    # a float is tested against 0 itself: no absolute floor refuses a
    # matrix or a projective pair for its scale alone
    m = MoebiusMap(1e-150, 0, 0, 1e-150)
    assert m.apply(0.3) == 0.3
    p = GPoint(SpherePoint(1e-160, 1e-160), SpherePoint(2e-160, 1e-160))
    assert (p.z.value(), p.w.value()) == (1.0, 2.0)
    assert not p.z.proj_eq(p.w)
    assert p.z.proj_eq(SpherePoint(3e-160, 3e-160))


def test_disk_designation_validated():
    MoebiusMap.disk_automorphism(0.3 + 0.1j, theta=0.7)  # fine
    with pytest.raises(DomainError):
        MoebiusMap(2, 0, 0, 1, domain="D")  # scaling is not in Aut(D)
    with pytest.raises(DomainError):
        MoebiusMap.disk_automorphism(1.2)
    # exact entries of mixed kinds: int, Fraction and QC
    MoebiusMap(1, QC(Fraction(-19, 32)), QC(Fraction(-19, 32)), 1, domain="D")
    MoebiusMap(1, Fraction(-1, 3), QC(Fraction(-1, 3)), 1, domain="D")
    with pytest.raises(DomainError):
        MoebiusMap(1, QC(2), QC(2), 1, domain="D")  # maps D onto the exterior


def test_exact_maps_and_points_give_exact_values():
    # int 0s and 1s keep the kind of the other entries, and an int over
    # an int divides exactly
    assert MoebiusMap.identity().apply(QC(1, 2)) == QC(1, 2)
    for value in (MoebiusMap(2, 1, 0, 3).apply(1), MoebiusMap.scaling(2).apply(3),
                  MoebiusMap.translation(Fraction(1, 3)).apply(2), SpherePoint(1, 3).value()):
        assert type(value) is Fraction
    assert MoebiusMap(2, 1, 0, 3).apply(1) == 1 and SpherePoint(1, 3).value() == Fraction(1, 3)
    assert danielewski_chart(GPoint.of(1, 3)) == (Fraction(-1, 2), -2, Fraction(-3, 2))


def test_half_plane_designation_validated():
    MoebiusMap.scaling(2.0)
    MoebiusMap.translation(1.0)
    with pytest.raises(DomainError):
        MoebiusMap(1j, 0, 0, 1, domain="H")
    with pytest.raises(DomainError):
        MoebiusMap(-1, 0, 0, 1, domain="H")  # negative determinant
    # exact entries are read exactly, also past the float range
    MoebiusMap(Fraction(10 ** 400, 3), 1, 0, 1, domain="H")
    with pytest.raises(DomainError):
        MoebiusMap(1, QC(0, 1), 0, 1, domain="H")
    with pytest.raises(DomainError):
        MoebiusMap(Fraction(10 ** 400), 0, QC(0, 1), 1, domain="H")


def test_compose_matches_function_composition(rng):
    m1 = MoebiusMap.disk_automorphism(0.2 - 0.1j, 0.4)
    m2 = MoebiusMap.disk_automorphism(-0.3j, 1.1)
    for z in sample_disk(rng, 20):
        assert m1.compose(m2).apply(z) == pytest.approx(m1.apply(m2.apply(z)))


def test_inverse_roundtrip(rng):
    m = MoebiusMap.disk_automorphism(0.4, 0.9)
    for z in sample_disk(rng, 20):
        assert m.inverse().apply(m.apply(z)) == pytest.approx(z)


def test_apply_point_extends_apply_through_the_pole():
    m = MoebiusMap(1, 1, 1, -1)  # pole at z = 1
    with pytest.raises(DomainError):
        m.apply(1)
    img = m.apply_point(SpherePoint.finite(1))
    assert img.is_infinite
    assert m.apply_point(SpherePoint.infinity()).value() == 1


def test_cayley_maps_disk_to_half_plane(rng):
    t = MoebiusMap.cayley()
    assert t.apply(0) == 1j
    # one map for both kinds: exact at an exact point, and at a float point
    # the values of the map with complex entries
    assert t.apply(Fraction(1, 2)) == QC(0, 3) and isinstance(t.apply(Fraction(1, 2)), QC)
    floats = MoebiusMap(1j, 1j, -1, 1)
    for z in sample_disk(rng, 20):
        assert t.apply(z).imag > 0
        assert t.apply(z) == floats.apply(z)
        assert t.inverse().apply(t.apply(z)) == floats.inverse().apply(floats.apply(z))


def test_gpoint_requires_distinct_points():
    with pytest.raises(DomainError):
        GPoint.of(1, 1)
    p = GPoint.of(1, 2)
    q = gamma_hat(MoebiusMap.translation(1.0), p)
    assert q.z.value() == pytest.approx(2) and q.w.value() == pytest.approx(3)


def test_omega_point_excludes_the_hypersurface():
    with pytest.raises(DomainError):
        OmegaPoint.of(2, 0.5)
    with pytest.raises(DomainError):
        OmegaPoint(SpherePoint.finite(0), SpherePoint.infinity())
    OmegaPoint.of(0.3, 0.4)


def test_induced_omega_action_is_phi_and_reciprocal_conjugate():
    phi = MoebiusMap.disk_automorphism(0.2 + 0.1j, 0.3)
    pt = OmegaPoint.of(0.3 - 0.2j, 0.1 + 0.4j)
    moved = t_gamma_omega(phi, pt)
    assert moved.z.value() == pytest.approx(phi.apply(pt.z.value()))
    assert moved.w.value() == pytest.approx(1 / phi.apply(1 / pt.w.value()))


def test_model_conversion_roundtrip(rng):
    for z, w in zip(sample_disk(rng, 10), sample_disk(rng, 10)):
        pt = OmegaPoint.of(z, w)
        back = psi_g_to_omega(psi_omega_to_g(pt))
        assert back.z.value() == pytest.approx(z)
        assert back.w.value() == pytest.approx(w)


def test_danielewski_chart_lands_on_the_surface(rng):
    for p in sample_gpoints(rng, 50):
        a, b, c = danielewski_chart(p)
        assert abs(b * b - 4 * a * c - 1) < 1e-10
    with pytest.raises(DomainError):
        danielewski_chart(GPoint(SpherePoint.infinity(), SpherePoint.finite(0)))


def _danielewski_report(seed):
    (check,) = run_suites(names=["danielewski"], seed=seed)["checks"]
    return check


@pytest.mark.parametrize("seed", [9, 20, 23, 46, 54])
def test_danielewski_check_passes_where_a_literal_tolerance_failed(seed):
    # residuals of 1.0e-12 to 1.8e-12 here failed the old absolute 1e-12
    check = _danielewski_report(seed)
    assert check["status"] == "pass" and check["samples"] == 1000
    # the report prints the scaled residual it compares with 24
    assert 0 < check["max_residual"] <= 24


def test_danielewski_check_catches_a_relative_error_in_b(monkeypatch):
    def skewed(p):
        a, b, c = danielewski_chart(p)
        return a, b * (1 + 1e-13), c

    monkeypatch.setattr(suites, "danielewski_chart", skewed)
    for seed in (1, 9):
        assert _danielewski_report(seed)["status"] == "fail"


def test_coverings_land_in_their_targets(rng):
    for z in sample_disk(rng, 50, rmax=0.95):
        wa = covering_disk_to_annulus(2.0, z)
        assert 0.5 < abs(wa) < 2.0
        wp = covering_disk_to_punctured(z)
        assert 0 < abs(wp) < 1
    with pytest.raises(DomainError):
        covering_disk_to_annulus(2.0, 1.5)
    with pytest.raises(DomainError):
        covering_disk_to_annulus(0.9, 0.1)


@pytest.mark.parametrize("cover", [lambda z: covering_disk_to_annulus(2.0, z),
                                   covering_disk_to_punctured,
                                   lambda z: covering_half_to_annulus(2.0, z),
                                   MoebiusMap.disk_automorphism])
@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 0.5), complex(0.1, math.nan),
                               complex(math.inf, 0.5)])
def test_coverings_and_the_disk_guard_refuse_nan_and_infinity(cover, z):
    # NaN fails every comparison, so "not inside" refuses it
    with pytest.raises(DomainError):
        cover(z)


def test_half_plane_covering_and_deck_relation(rng):
    radius = 2.0
    c = annulus_deck_multiplier(radius)
    assert math.log(c) == pytest.approx(math.pi ** 2 / math.log(radius))
    for z in sample_half_plane(rng, 30):
        assert covering_half_to_annulus(radius, c * z) == pytest.approx(
            covering_half_to_annulus(radius, z))
    with pytest.raises(DomainError):
        covering_half_to_annulus(radius, 1 - 1j)


def test_fixed_points_and_multipliers():
    m = MoebiusMap.scaling(2.0)
    fps = moebius_fixed_points(m)
    assert len(fps) == 2
    finite = [p for p in fps if not p.is_infinite][0]
    at_inf = [p for p in fps if p.is_infinite][0]
    assert finite.value() == pytest.approx(0)
    assert moebius_multiplier_at(m, finite) == pytest.approx(2)
    assert moebius_multiplier_at(m, at_inf) == pytest.approx(0.5)

    parabolic = MoebiusMap.translation(1.0)
    assert len(moebius_fixed_points(parabolic)) == 1

    rot = MoebiusMap(cmath.exp(0.7j), 0, 0, 1, domain="D")
    fps = moebius_fixed_points(rot)
    mult = moebius_multiplier_at(rot, fps[0])
    assert abs(mult) == pytest.approx(1)
    assert cmath.phase(mult) == pytest.approx(0.7) or \
        cmath.phase(mult) == pytest.approx(-0.7)


def test_fixed_points_decide_c_and_a_minus_d_exactly():
    # z -> z/(1e-301 z + 1) fixes 0 alone and moves infinity to 1e301
    fps = moebius_fixed_points(MoebiusMap(1, 0, 1e-301, 1))
    assert [(p.is_infinite, p.value()) for p in fps] == [(False, 0j)]
    # z -> (3 z + 10^301)/2 at the scale 10^-301: a - d = 1e-301 is not
    # 0, so the affine map fixes -1e301 besides infinity
    tiny = Fraction(1, 10**301)
    fps = moebius_fixed_points(MoebiusMap(3 * tiny, 1, 0, 2 * tiny))
    assert [p.is_infinite for p in fps] == [False, True]
    assert fps[0].value() == pytest.approx(-1e301)
    fps = moebius_fixed_points(MoebiusMap(tiny, 1, 0, tiny))
    assert [p.is_infinite for p in fps] == [True]
    # z -> 2 z/(1e-320 z + 1) fixes 0 and 1e320, finite past the float range
    fps = moebius_fixed_points(MoebiusMap(2, 0, 1e-320, 1))
    assert [p.is_infinite for p in fps] == [False, False]
    assert fps[0].proj_eq(SpherePoint(1, 1e-320)) and fps[1].value() == 0
