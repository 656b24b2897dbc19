"""Reference implementations that the tests check the program against."""

from __future__ import annotations

from fractions import Fraction

from wickstar.functions import PolyFn, taylor_tower
from wickstar.star import _sum_series


def _poly_weights(variant: str):
    """w_0, w_1, ... as PolyFns in w: (w^2-1)^n on the annulus, w^{2n} on
    the punctured disk, and 1, w^2, w^2, ... for its printed variant."""
    x = PolyFn([0, 1])
    step = x * x - 1 if variant == "annulus" else x * x
    wn = step * 0 + 1
    while True:
        yield wn
        wn = step if variant == "printed" else wn * step


def surface_poly_by_terms(g: PolyFn, gt: PolyFn, hv, variant: str):
    """The exact surface product summed term by term, as a StarResult.

    Each term w_n (g^(n)/n!) (gt^(n)/n!) is a PolyFn product, with the
    Taylor coefficients stepped by ``taylor_tower`` on Fractions, and the
    summation kernel adds kappa_n times it to the running PolyFn.  It
    checks ``star._surface_poly``'s one-pass integer sum: the same
    coefficients of the same kinds, the same term count, and the same
    error at a pole the sum reaches."""
    def terms():
        towers = zip(_poly_weights(variant),
                     taylor_tower(g, Fraction(1)), taylor_tower(gt, Fraction(1)))
        for n, (wn, dg, dgt) in enumerate(towers):
            if n and (dg.is_zero or dgt.is_zero):
                return
            yield wn * dg * dgt, 0.0
    return _sum_series(hv, terms())
