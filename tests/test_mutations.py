"""Mutations that the checks must catch.

Each mutation is applied by ``monkeypatch`` at a layer boundary, and none
lives in ``src``: the wrong variant of a layer is summed by the oracles
(``tests/oracles.py``), or is the other surface's product, and put in the
place of the real one.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from oracles import star_surface_by_terms, surface_poly_by_terms

from wickstar import cli, rigidity, suites
from wickstar.functions import PolyFn
from wickstar.star import StarResult, star_annulus_poly, star_punctured_poly


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
