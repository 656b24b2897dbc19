"""Mutations that the checks must catch.

Each mutation is applied by ``monkeypatch`` at a layer boundary, and none
lives in ``src``: the wrong variant of a layer is summed by the oracles
(``tests/oracles.py``), or is the other surface's product, and put in the
place of the real one, or a wrong entry is put in the one table a rule is
stated in (``star._WEIGHT_SHIFT``).
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from oracles import star_surface_by_terms, surface_poly_by_terms

from wickstar import cli, rigidity, star, suites, towers
from wickstar.functions import PolyFn
from wickstar.star import (StarConfig, StarResult, star_annulus, star_annulus_poly,
                           star_punctured_poly)


def _printed_punctured(g, gt, h, ws, cfg):
    """The punctured product with the wrong weights 1, w^2, w^2, ... in
    place of w^{2n}, at each point of ws."""
    return [StarResult(*star_surface_by_terms(g, gt, h, w, cfg, "printed")[:4])
            for w in ws]


def test_printed_weights_split_from_the_punctured_product_at_order_two():
    h = Fraction(1, 2)
    # degree-1 operands end at order one, where w^2 and w^{2n} agree
    t = PolyFn([Fraction(0), Fraction(1)])
    assert surface_poly_by_terms(t, t, h, "printed").value == star_punctured_poly(t, t, h)
    g = PolyFn([Fraction(0), Fraction(0), Fraction(1)])
    assert surface_poly_by_terms(g, g, h, "printed").value != star_punctured_poly(g, g, h)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_lift_coherence_catches_the_printed_weights(monkeypatch, seed):
    monkeypatch.setattr(suites, "star_punctured", _printed_punctured)
    checks = {c["name"]: c for c in suites.run_suites(names=["lift"], seed=seed)["checks"]}
    assert checks["punctured-lift-coherence"]["status"] == "fail"
    assert checks["punctured-lift-coherence"]["max_residual"] > 1
    assert checks["annulus-lift-coherence"]["status"] == "pass"


def test_verify_exits_1_on_the_printed_weights(monkeypatch):
    monkeypatch.setattr(suites, "star_punctured", _printed_punctured)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "lift", "--seed", "42"])
    assert code == cli.EXIT_CHECK_FAILED
    statuses = {c["name"]: c["status"] for c in json.loads(buf.getvalue())["checks"]}
    assert statuses == {"punctured-lift-coherence": "fail", "annulus-lift-coherence": "pass"}


def test_the_obstruction_is_inconclusive_on_the_annulus_product(monkeypatch):
    # g = t satisfies the annulus identity t*t = t^2 + hbar (t^2 - 1) for
    # every hbar, so with the annulus product in place of the punctured
    # one the affine family leaves no defect
    monkeypatch.setattr(rigidity, "star_punctured_poly", star_annulus_poly)
    rep = rigidity.obstruction_check(3)
    assert rep.verdict == "inconclusive"
    assert rep.residuals["affine_defect"] == 0.0


@pytest.fixture
def scaled_kappa(monkeypatch):
    """scale(n) puts kappa_n times 1 + 10^-30 into every kappa row that
    star._kappas forms; the memoized rows and pole tests are cleared
    before and after, so no row formed elsewhere is read."""
    caches = (star._pole_of, star._exact_kappas, towers._kappa_row)
    kappas = star._kappas

    def scaled(n, hv, m):
        row = kappas(hv, m)
        if n <= m:
            row[n] = row[n] * (1 + Fraction(1, 10**30))
        return row

    def scale(n):
        for cached in caches:
            cached.cache_clear()
        monkeypatch.setattr(star, "_kappas", lambda hv, m: scaled(n, hv, m))

    yield scale
    monkeypatch.undo()
    for cached in caches:
        cached.cache_clear()


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cn_recurrence_check_catches_a_kappa_off_by_one_part_in_1e30(scaled_kappa, seed, n):
    # c_n is read off the kappa row that the sums use, so the exact check
    # against the product formula sees a defect far below any float bound
    scaled_kappa(n)
    checks = {c["name"]: c for c in suites.run_suites(names=["cn"], seed=seed)["checks"]}
    assert checks["cn-recurrence-vs-product"]["status"] == "fail"


def test_the_exact_surface_product_reads_the_patched_kappa_row(scaled_kappa):
    # the oracle steps its own kappa, so a product that moves with the patch
    # reads the row that cn-recurrence-vs-product checks
    g = PolyFn([Fraction(1), Fraction(-2), Fraction(3)])
    gt = PolyFn([Fraction(2), Fraction(1, 3), Fraction(-1)])
    h = Fraction(1, 2)
    want = surface_poly_by_terms(g, gt, h, "annulus").value
    assert star_annulus_poly(g, gt, h) == want
    scaled_kappa(2)
    assert star_annulus_poly(g, gt, h) != want


@pytest.fixture
def scaled_float_kappa3(monkeypatch):
    """kappa_3 times 1 + 10^-9 in every row of the float engine
    (``towers._kappa_row``) and nowhere else; the memoized rows are
    cleared before and after."""
    row_of = towers._kappa_row

    def scaled(hv, width):
        row = row_of(hv, width).copy()
        if width > 3:
            row[3] *= 1 + 1e-9
        return row

    row_of.cache_clear()
    monkeypatch.setattr(towers, "_kappa_row", scaled)
    yield
    monkeypatch.undo()
    row_of.cache_clear()


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_associativity_catches_float_kappa3_off_by_1e_9(scaled_float_kappa3, seed):
    # the outer products are summed on the float engine; the inner ones
    # are symbolic, on the kappas of star._kappas, which the patch does not touch
    checks = {c["name"]: c for c in suites.run_suites(names=["associativity"],
                                                      seed=seed)["checks"]}
    assert checks["disk-associativity-numeric"]["status"] == "fail"
    assert checks["disk-holomorphic-pointwise"]["status"] == "pass"


# the weight of term n is (w^2 - s)^n with s = star._WEIGHT_SHIFT[surface]:
# (a) the annulus weight (w^2 + 1)^n, (b) the two surfaces' weights swapped.
# Each is again an associative and commutative product, so only the lift
# checks catch them, and the obstruction only the swap.
WEIGHT_MUTATIONS = {
    "annulus-plus-one": ({"annulus": -1},
                         {"annulus-lift-coherence"}, "obstructed"),
    "swapped": ({"annulus": 0, "punctured": 1},
                {"annulus-lift-coherence", "punctured-lift-coherence"}, "inconclusive"),
}


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("mutation", sorted(WEIGHT_MUTATIONS))
def test_lift_coherence_catches_a_wrong_weight_shift(monkeypatch, mutation, seed):
    table, caught, _ = WEIGHT_MUTATIONS[mutation]
    for surface, s in table.items():
        monkeypatch.setitem(star._WEIGHT_SHIFT, surface, s)
    failed = {c["name"] for c in suites.run_suites(seed=seed)["checks"]
              if c["status"] != "pass"}
    assert failed == caught


@pytest.mark.parametrize("mutation", sorted(WEIGHT_MUTATIONS))
def test_the_obstruction_under_a_wrong_weight_shift(monkeypatch, mutation):
    table, _, verdict = WEIGHT_MUTATIONS[mutation]
    for surface, s in table.items():
        monkeypatch.setitem(star._WEIGHT_SHIFT, surface, s)
    assert rigidity.obstruction_check(3).verdict == verdict


@pytest.mark.parametrize("s", [-1, 2])
def test_both_engines_read_the_weight_table(monkeypatch, s):
    # the oracles state the weight (w^2 - s)^n on their own; the exact pass
    # and the float kernel follow the table's entry
    monkeypatch.setitem(star._WEIGHT_SHIFT, "annulus", s)
    g = PolyFn([Fraction(1, 2), -1, Fraction(3, 4), 2])
    gt = PolyFn([0, Fraction(2, 3), 1, Fraction(-1, 5)])
    h = Fraction(1, 3)
    exact = star_annulus_poly(g, gt, h)
    assert exact == surface_poly_by_terms(g, gt, h, s).value
    cfg = StarConfig(max_terms=16, tol=1e-14)
    for w in (0.3, -0.45 + 0.2j, 1.7j):
        want = complex(exact.eval(w)[0])
        got = star_annulus(g, gt, float(h), w, cfg)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)
