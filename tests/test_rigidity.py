import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fpq_proj, rank_mod_p_by_elimination

import wickstar.rigidity as rigidity
import wickstar.star as star
from wickstar.errors import DomainError
from wickstar.exact import QC
from wickstar.functions import BasisFpq, PolyFn
from wickstar.rigidity import (PRIME, elliptic_invariant_indices,
                               _defect, invariant_dimension, obstruction_check)
from wickstar.sphere import MoebiusMap, SpherePoint
from wickstar.star import star_punctured_poly

SCALING = MoebiusMap(2, 0, 0, 1, domain="H")
TWO_HYPERBOLIC = [SCALING, MoebiusMap(2, -1, 0, 1, domain="H")]


def test_projective_basis_matches_affine_values():
    z, w = SpherePoint.finite(0.3 + 0.1j), SpherePoint.finite(-0.2 + 0.4j)
    for p in range(3):
        for q in range(3):
            assert fpq_proj(p, q, z, w) == pytest.approx(
                BasisFpq(p, q).eval(z.value(), w.value()))


def test_projective_basis_extends_to_infinity():
    # f_{0,1}(z, w) = w/(1-zw) tends to 0 as z -> inf; the projective
    # formula reaches that point without a limit
    val = fpq_proj(0, 1, SpherePoint.infinity(), SpherePoint.finite(0.5))
    assert val == pytest.approx(0.0)
    # f_{1,0}(inf, w) = z/(1-zw) -> -1/w
    val = fpq_proj(1, 0, SpherePoint.infinity(), SpherePoint.finite(0.5))
    assert val == pytest.approx(-2.0)
    with pytest.raises(DomainError):
        fpq_proj(1, 1, SpherePoint.finite(2.0), SpherePoint.finite(0.5))


def test_invariant_dimension_refuses_float_generators():
    for p in (PRIME, SECOND_PRIME):
        assert p % 4 == 1 and rigidity._sqrt_minus_one(p) ** 2 % p == p - 1
    with pytest.raises(DomainError):
        invariant_dimension([MoebiusMap.scaling(2.0)], 1)
    with pytest.raises(DomainError):
        invariant_dimension([MoebiusMap(2, 0.5, 0, 1)], 1)
    # nor is a map that is singular mod p
    with pytest.raises(DomainError):
        invariant_dimension([MoebiusMap(PRIME, 0, 0, PRIME)], 1)


def test_invariant_dimension_small_case():
    cert = invariant_dimension(TWO_HYPERBOLIC, 1)
    assert (cert.dimension, cert.rank, cert.basis_size) == (1, 3, 4)
    assert cert.bounds == (1, 1)


def test_a_bad_draw_loosens_the_bounds_but_gives_no_wrong_dimension(monkeypatch):
    # every draw repeats one projective pair (off the hypersurface), so the
    # system has one distinct row per generator: its rank mod p falls from 15
    # to at most 2, and the certificate widens instead of naming a dimension
    class OnePair:
        def __init__(self, seed):
            self.draws = itertools.cycle([0.1, 0.2, 0.3, 0.7])

        def random(self):
            return next(self.draws)

    monkeypatch.setattr(rigidity, "rng_for", OnePair)
    cert = invariant_dimension(TWO_HYPERBOLIC, 3)
    lower, upper = cert.bounds
    assert lower == 1 and upper >= 1 and cert.rank <= 2
    assert cert.dimension is None


CAYLEY_INVERSE = MoebiusMap.cayley().inverse()
# the elliptic filter's prime for n_fold = 5, the least p = 1 (mod 20) above 10^9
SECOND_PRIME = 1_000_000_021


def _transported_basis_exact(degree, z, w, t_inv=CAYLEY_INVERSE):
    """f_{p,q}(T^-1 z, 1/T^-1 w) in exact QC arithmetic, or None on the
    hypersurface; T^-1 = t_inv, the inverse Cayley map by default."""
    a = t_inv.apply_point(z)
    b = t_inv.apply_point(w).reciprocal()
    den = a.v * b.v - a.u * b.u
    if den == 0:
        return None
    return [a.u ** p * b.u ** q * a.v ** (max(p, q) - p) * b.v ** (max(p, q) - q)
            / den ** max(p, q)
            for p in range(degree + 1) for q in range(degree + 1)]


def _rank_exact(rows):
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("generators", [TWO_HYPERBOLIC, [SCALING]],
                         ids=["two-hyperbolic", "scaling"])
def test_modular_rank_equals_the_rank_over_gaussian_rationals(generators, degree):
    # oracle: the difference system at Gaussian-integer projective points,
    # eliminated in exact QC arithmetic
    rng = random.Random(degree)
    rows = []
    while len(rows) < len(generators) * ((degree + 1) ** 2 + 4):
        z, w = [SpherePoint(QC(rng.randint(-4, 4), rng.randint(-4, 4)),
                            QC(rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(2)]
        base = _transported_basis_exact(degree, z, w)
        moved = [_transported_basis_exact(degree, g.apply_point(z), g.apply_point(w))
                 for g in generators]
        if base is None or None in moved:
            continue
        rows += [[x - y for x, y in zip(m, base)] for m in moved]
    cert = invariant_dimension(generators, degree)
    assert cert.rank == _rank_exact(rows)
    if len(generators) == 2:
        assert cert.dimension == 1


def _pair_mod_p(pt, p):
    return tuple(rigidity._mod_p(x, p) for x in (pt.u, pt.v))


@pytest.mark.parametrize("p", [PRIME, SECOND_PRIME])
def test_basis_values_mod_p_are_the_images_of_the_exact_values(p):
    # the transported basis, and with the identity for T^-1 and w given
    # as 1/w the plain f_{i,j}(z, w) of the elliptic filter, mod either
    # prime, at Gaussian-rational projective points
    identity = MoebiusMap.identity()
    rng = random.Random(p)
    checked = 0
    while checked < 12:
        z, w = [SpherePoint(QC(rng.randint(-9, 9), rng.randint(-9, 9)),
                            QC(rng.randint(1, 9), rng.randint(-9, 9))) for _ in range(2)]
        for t_inv, w_in in ((CAYLEY_INVERSE, w), (identity, w.reciprocal())):
            exact = _transported_basis_exact(3, z, w_in, t_inv)
            if exact is None:
                continue
            t_mod = tuple(rigidity._mod_p(x, p) for x in (t_inv.a, t_inv.b, t_inv.c, t_inv.d))
            got = rigidity._basis_values_mod_p(3, t_mod, _pair_mod_p(z, p),
                                               _pair_mod_p(w_in, p), p)
            assert got == [rigidity._mod_p(x, p) for x in exact]
            checked += 1
            if t_inv is identity:
                floats = [fpq_proj(i, j, z, w) for i in range(4) for j in range(4)]
                assert floats == pytest.approx([x.to_complex() for x in exact], rel=1e-12)


@pytest.mark.parametrize("degree,count", [(1, 2), (2, 5), (3, 8)])
def test_rotation_upper_bound_is_the_congruence_count(degree, count):
    # the disk rotation z -> -z moved to the configuration space by the
    # Cayley map keeps exactly the f_{p,q} with p - q even
    cayley = MoebiusMap.cayley()
    rotation = cayley.compose(MoebiusMap(QC(-1), QC(0), QC(0), QC(1))).compose(
        cayley.inverse())
    cert = invariant_dimension([rotation], degree)
    assert cert.bounds == (1, count)
    assert cert.dimension is None


def test_identity_generator_is_inconclusive():
    cert = invariant_dimension([MoebiusMap.identity()], 2)
    assert cert.rank == 0 and cert.bounds == (1, 9)
    assert cert.dimension is None


GENERATOR_SETS = {
    "two-hyperbolic": TWO_HYPERBOLIC,
    # Gamma(2), free on two parabolics
    "gamma-2": [MoebiusMap(1, 2, 0, 1, domain="H"), MoebiusMap(1, 0, 2, 1, domain="H")],
    # z -> 9z and its conjugate by z -> (2z + 1)/(z + 1), a Schottky pair
    "schottky": [MoebiusMap(3, 0, 0, Fraction(1, 3)),
                 MoebiusMap(Fraction(17, 3), Fraction(-16, 3), Fraction(8, 3), Fraction(-7, 3))],
    "scaling": [SCALING],
    "translation": [MoebiusMap(1, 1, 0, 1, domain="H")],
}


@pytest.mark.parametrize("name", list(GENERATOR_SETS))
def test_rank_that_stops_at_its_ceiling_is_the_rank_of_every_pair(name):
    # oracle: all (degree + 1)^2 + 4 pairs drawn, then eliminated at once
    generators = GENERATOR_SETS[name]
    t_inv = rigidity._matrix_mod_p(CAYLEY_INVERSE)
    gens = [rigidity._matrix_mod_p(g) for g in generators]
    for degree in range(6):
        rows = list(rigidity._sampled_rows((degree + 1) ** 2 + 4, degree, t_inv, gens))
        assert (invariant_dimension(generators, degree).rank
                == rank_mod_p_by_elimination(rows, PRIME))


def test_the_draw_stops_when_the_rank_reaches_its_ceiling(monkeypatch):
    drawn = []
    real = rigidity._difference_rows

    def spy(*args):
        drawn.append(args[3:5])
        return real(*args)

    monkeypatch.setattr(rigidity, "_difference_rows", spy)
    # the constant's column is zero, so 16 - 1 = 15 is the most the rank can be
    assert invariant_dimension(TWO_HYPERBOLIC, 3).rank == 15
    assert len(drawn) < 20
    # one generator, and degree 0, never raise the rank to the ceiling: every
    # pair is drawn
    for generators, degree, pairs in ((TWO_HYPERBOLIC, 0, 5), ([SCALING], 3, 20)):
        drawn.clear()
        invariant_dimension(generators, degree)
        assert len(drawn) >= pairs


@pytest.mark.parametrize("degree", [2, 6])
@pytest.mark.parametrize("n_fold", [2, 3, 4, 5, 7, 11, 12])
def test_elliptic_congruence_filter(n_fold, degree):
    # n_fold = 5 and 11 take primes other than PRIME
    assert elliptic_invariant_indices(n_fold, degree) == [
        (p, q) for p in range(degree + 1) for q in range(degree + 1)
        if (p - q) % n_fold == 0]


def test_elliptic_filter_draws_the_same_pairs_on_every_call(monkeypatch):
    drawn = []
    real = rigidity._difference_rows

    def spy(degree, t_inv, gens, z, w, p):
        drawn.append((z, w))
        return real(degree, t_inv, gens, z, w, p)

    monkeypatch.setattr(rigidity, "_difference_rows", spy)
    first = elliptic_invariant_indices(3, 4)
    pairs = drawn.copy()
    drawn.clear()
    assert elliptic_invariant_indices(3, 4) == first
    assert drawn == pairs and len(pairs) == 40
    # random() of random.Random(0) starts 0.8444218515250481, a stream the
    # Python docs promise across versions
    assert pairs[0][0][0] == int(PRIME * 0.8444218515250481)


def test_elliptic_filter_draws_with_random_alone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("only random() has a stream promised across versions")
    for name in ("randrange", "randint", "getrandbits", "choice", "uniform"):
        monkeypatch.setattr(random.Random, name, refuse)
    assert elliptic_invariant_indices(4, 2) == [(0, 0), (1, 1), (2, 2)]
    assert invariant_dimension(TWO_HYPERBOLIC, 1).dimension == 1


def test_elliptic_filter_needs_a_sample_off_the_hypersurface_mod_p(monkeypatch):
    # four equal draws give z = w = (k, k), on the hypersurface mod p; the
    # pair gives no row and is redrawn, so every sample keeps its weight
    scripted = iter([0.5] * 4)

    class Scripted(random.Random):
        def random(self):
            return next(scripted, None) or super().random()

    on_hypersurface = []
    real = rigidity._difference_rows

    def spy(*args):
        rows = real(*args)
        on_hypersurface.append(rows is None)
        return rows

    monkeypatch.setattr(random, "Random", Scripted)
    monkeypatch.setattr(rigidity, "_difference_rows", spy)
    assert elliptic_invariant_indices(3, 2) == [(0, 0), (1, 1), (2, 2)]
    assert on_hypersurface == [True] + [False] * 40


def test_obstruction_verdicts():
    rep = obstruction_check(degree=3)
    assert rep.verdict == "obstructed"
    # the largest hbar sampled is 4, where the defect of t^2,
    # (3 hbar + 2 hbar^2/(1 + hbar)) w^4 + hbar, has 92/5 at w^4, and the
    # defect of t is the constant hbar
    assert rep.residuals == {"nonlinear_defect": 18.4, "affine_defect": 4.0,
                             "constant_defect": 0.0}
    assert obstruction_check(degree=2).verdict == "obstructed"
    assert obstruction_check(degree=0).verdict == "constant-only"
    with pytest.raises(DomainError):
        obstruction_check(degree=-1)


@pytest.mark.parametrize("degree", range(5))
def test_obstruction_samples_only_the_derived_hbar(monkeypatch, degree):
    seen = set()
    real = rigidity._defect

    def spy(g, h):
        seen.add(h)
        return real(g, h)

    monkeypatch.setattr(rigidity, "_defect", spy)
    obstruction_check(degree)
    assert seen == set(range(1, max(degree, 1) + 2))


def _finite_difference(values: list, order: int):
    return sum((-1) ** (order - i) * math.comb(order, i) * v
               for i, v in enumerate(values[:order + 1]))


exact_scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(-3, 3, max_denominator=5),
    st.builds(QC, st.fractions(-3, 3, max_denominator=5),
              st.fractions(-3, 3, max_denominator=5)))


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(exact_scalars, min_size=1, max_size=7))
def test_cleared_defect_has_degree_at_most_max_m_1_in_hbar(coeffs):
    # D_m Delta_g, D_m = prod_{j=1}^{m-1} (1 + j hbar), is a polynomial of
    # degree <= max(m, 1) in hbar, so max(m, 1) + 1 samples decide it
    m = len(coeffs) - 1
    bound = max(m, 1)
    g = PolyFn(coeffs)
    rows = []
    for h in range(1, bound + 4):
        cleared = math.prod(1 + j * h for j in range(1, m)) * _defect(g, h)
        rows.append(cleared.coeffs + [0] * (2 * m + 1 - len(cleared.coeffs)))
    for column in zip(*rows):
        for order in range(bound + 1, len(column)):
            for start in range(len(column) - order):
                assert _finite_difference(column[start:], order) == 0


def test_obstruction_runs_no_float_sum_and_no_fit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the obstruction must not take a float sum or fit")
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(star, "star_punctured", refuse)
    monkeypatch.setattr(star, "_star_entire", refuse)
    monkeypatch.setattr(rigidity, "star_punctured", refuse, raising=False)
    assert obstruction_check(3).verdict == "obstructed"


@pytest.mark.parametrize("h", [Fraction(1, 3), QC(Fraction(1, 4), Fraction(-2, 5))])
def test_finite_punctured_products_in_closed_form(h):
    def mono(k, c=1):
        return PolyFn([0] * k + [c])
    # the hbar^2 coefficients 2 and 18 are the w^4 g''^2 / 2 of power matching
    t2t2 = mono(4, 1 + 4 * h + 2 * h ** 2 / (1 + h))
    t3t3 = mono(6, 1 + 9 * h + 18 * h ** 2 / (1 + h)
                + 6 * h ** 3 / ((1 + h) * (1 + 2 * h)))
    assert star_punctured_poly(mono(2), mono(2), h) == t2t2
    assert star_punctured_poly(mono(3), mono(3), h) == t3t3
    assert _defect(mono(2), h) == t2t2 - mono(4) - h * (mono(4) - 1)
    assert _defect(mono(3), h) == t3t3 - mono(6) - h * (mono(6) - 1)


@pytest.mark.parametrize("h", [Fraction(1, 3), QC(Fraction(1, 4), Fraction(-2, 5))])
def test_affine_defect_is_exact(h):
    for alpha, beta in [(1, 0), (1, 1), (1, -1), (2, Fraction(1, 2)), (0, 1), (0, -1)]:
        g = PolyFn([beta, alpha])
        assert _defect(g, h) == PolyFn([-h * (beta * beta - 1), -h * 2 * alpha * beta])
    assert _defect(PolyFn([1]), h) == PolyFn([0])
