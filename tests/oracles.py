"""Reference implementations that the tests check the program against."""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from wickstar.errors import DomainError, FloatRangeError
from wickstar.exact import _exact, conj, is_exact, to_complex
from wickstar.functions import ExpFn, Jet, PolyFn, moebius_jet
from wickstar.peschl_minda import MoebiusPullback, PolyDisk, _Composed
from wickstar.sphere import GPoint, MoebiusMap, SpherePoint
from wickstar.star import StarConfig, StarResult, _c_divisor, _one_like

# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0 ** -53


def taylor_tower(g, c=1):
    """Yield g_n = c^n g^(n)/n!, n = 0, 1, ...: g_n(t) is the n-th Taylor
    coefficient of u -> g(t + c u).  Each step is g_n = g_{n-1}' (c/n), so
    neither n! nor c^n is formed; c = Fraction(1) keeps polynomials exact.
    The stepped oracle of ``towers.entire_tower``: a SeriesFn raises
    SeriesOrderError past its order and DomainError outside the radius of
    a derivative, when the term is asked for."""
    for n in itertools.count():
        if n:
            g = g.derivative() * (c / n)
        yield g


def bipoly_eval_by_terms(f, z, w):
    """F(z, w) as the terms a_ij z^i w^j summed in turn, one scalar product
    at a time, and ``z * 0`` for the zero polynomial: the oracle of
    ``BiPoly.eval`` at exact points, which sums Gaussian-integer numerators
    over one denominator instead."""
    acc = None
    for (i, j), a in f.coeffs.items():
        term = a * z ** i * w ** j
        acc = term if acc is None else acc + term
    return z * 0 if acc is None else acc


# ---------------------------------------------------------------------------
# the definitional Peschl-Minda jets: the oracle of the closed-form towers
# ---------------------------------------------------------------------------


def _operand_jet(f, m: MoebiusMap, x: Jet, w0, bar: bool) -> Jet:
    """Jet of u -> F(m(u), w0), or with ``bar`` of u -> F(w0, m(u)), for
    the bivariate extension F of the disk operand f and the variable jet
    x = u: the maps of the operand are composed into m from outside, and
    the composite is applied to x by one jet division.  Applying each map
    to the jet in turn would leave each entry with the rounding of the
    largest one, which terms near a pole of hbar magnify past the rounding
    of the sum."""
    if isinstance(f, MoebiusPullback):
        # (Z, W) -> (phi(Z), psi(W)), psi(w) = 1/phi(1/w) = (dw + c)/(bw + a)
        phi = f.phi
        psi = MoebiusMap(phi.d, phi.c, phi.b, phi.a)
        inner, frozen = (psi, phi) if bar else (phi, psi)
        w = (frozen.a * w0 + frozen.b) / (frozen.c * w0 + frozen.d)
        return _operand_jet(f.inner, inner.compose(m), x, w, bar)
    if isinstance(f, PolyDisk):
        return f.f.eval_jet(moebius_jet(m, x), w0, "w" if bar else "z")
    if isinstance(f, _Composed):
        t = moebius_jet(MoebiusMap(*f.chart_matrix(w0, bar)).compose(m), x)
        if isinstance(f.g, PolyFn):
            return f.g.eval_jet(t)
        if isinstance(f.g, ExpFn):
            return (t * f.g.scale).exp() * f.g.amp
        raise DomainError(f"a jet of a {type(f.g).__name__} drops its tail bound")
    raise TypeError(f"no definitional jet for {type(f).__name__}")


def definitional_jet(f, z, order: int, bar: bool = False) -> Jet:
    """The jet of u -> F(T_z(u), conj z) to ``order``, or with ``bar`` of
    u -> F(z, T_{conj z}(u)): its n-th coefficient is D^n f(z)/n!, or
    Dbar^n f(z)/n!, by definition.  T_z(u) = (u + z)/(conj(z) u + 1),
    after the operand's maps, is applied to Jet.variable(0) by jet
    division; at a Gaussian-rational z with exact operands every
    coefficient is exact."""
    zb = conj(z)
    zero = z * 0
    one = zero + 1
    t_z = MoebiusMap(one, zb, z, one) if bar else MoebiusMap(one, z, zb, one)
    return _operand_jet(f, t_z, Jet.variable(zero, order), z if bar else zb, bar)


def pm_definitional(f, n: int, z):
    """D^n f(z) as n! times coefficient n of the definitional jet."""
    return math.factorial(n) * definitional_jet(f, z, n).tolist(n)[0]


def pm_bar_definitional(f, n: int, z):
    """Dbar^n f(z) the same way, the jet in the antiholomorphic slot."""
    return math.factorial(n) * definitional_jet(f, z, n, bar=True).tolist(n)[0]


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
    Taylor coefficients stepped by ``taylor_tower`` on Fractions, and a
    loop adds kappa_n times it to the running PolyFn, one term at a time:
    kappa by the recurrence, each divisor 1 + (n-1) hbar formed only when
    term n arrives.  It checks ``star._surface_poly``'s one-pass integer
    sum: the same coefficient values, the same term count, and the same
    error at a pole the sum reaches."""
    one, exact = _one_like(hv), is_exact(hv)
    kappa, total, used = one, None, 0
    towers = zip(_poly_weights(variant),
                 taylor_tower(g, Fraction(1)), taylor_tower(gt, Fraction(1)))
    for n, (wn, dg, dgt) in enumerate(towers):
        if n:
            if dg.is_zero or dgt.is_zero:
                break
            kappa = kappa * (n * hv) / _c_divisor(one, hv, n - 1, exact)
        term = wn * dg * dgt * kappa
        total = term if total is None else total + term
        used = n + 1
    return StarResult(total, used, 0.0, "terminated")


# ---------------------------------------------------------------------------
# the float star products term by term: the reference of the array kernel
# ---------------------------------------------------------------------------


def sum_series_loop(hv, terms, max_terms: int, tol: float):
    """sum_n kappa_n t_n over the (t_n, err_n) pairs of ``terms``, one term
    at a time: kappa by the recurrence with its lazy pole test at each
    divisor, the stop test of three successive terms below
    tol * max(1, |sum|), and the tail of the last three terms, the bounds
    err_n and the rounding bound gamma_m sum_k |kappa_k t_k|.  The
    reference of ``towers._sum_rows``.  Returns (value, terms used, tail
    estimate, stop reason, sum_k |kappa_k t_k|); a value or tail that is
    not finite raises FloatRangeError."""
    one, exact = _one_like(hv), is_exact(hv)
    kappa = one
    total, err, mass = None, 0.0, 0.0
    r1 = r2 = r3 = 0.0
    stop, used = "terminated", 0
    for n, (t, t_err) in enumerate(terms):
        if n:
            kappa = kappa * (n * hv) / _c_divisor(one, hv, n - 1, exact)
        term = t * kappa
        total = term if total is None else total + term
        used = n + 1
        if t_err:
            err += abs(kappa) * t_err
        r1, r2, r3 = r2, r3, abs(term)
        mass += r3
        if n >= 2 and max(r1, r2, r3) < tol * max(1.0, abs(total)):
            stop = "tol"
            break
        if n == max_terms:
            stop = "budget"
            break
    tail = r1 + r2 + r3 + err
    gamma = used * _UNIT_ROUNDOFF
    tail += gamma / (1 - gamma) * mass
    if not (cmath.isfinite(total) and math.isfinite(tail)):
        raise FloatRangeError("the float star sum leaves the range of double precision")
    return total, used, tail, stop, mass


def _float_term(a, a_err, b, b_err, weight=1.0):
    a, b = to_complex(a), to_complex(b)
    if not (a_err or b_err):
        return weight * a * b, 0.0
    return weight * a * b, abs(weight) * (abs(a) * b_err + abs(b) * a_err + a_err * b_err)


def _disk_stream(f, z, max_terms, bar):
    """(a_n, err_n) of one disk operand: the lifts step ``taylor_tower`` at
    their chart t + c u, every other operand reads its definitional jet."""
    if isinstance(f, _Composed):
        t, c = f._affine(z, bar)
        return (gn.eval(t) for gn in taylor_tower(f.g, c))
    return zip(definitional_jet(f, z, max_terms, bar).tolist(), itertools.repeat(0.0))


def star_disk_by_terms(f, g, h, z, cfg: StarConfig):
    """The float disk product at one point, term by term."""
    z = to_complex(z)
    towers = zip(_disk_stream(f, z, cfg.max_terms, True),
                 _disk_stream(g, z, cfg.max_terms, False))
    terms = (_float_term(*x, *y) for x, y in towers)
    return sum_series_loop(to_complex(h), terms, cfg.max_terms, cfg.tol)


def star_surface_by_terms(g, gt, h, w, cfg: StarConfig, variant: str):
    """The float annulus ("annulus") or punctured-disk ("derived",
    "printed") product at one point, term by term."""
    w = to_complex(w)
    if variant == "printed":
        r, weights = 1.0, itertools.chain([1.0], itertools.repeat(w * w))
    else:
        r = cmath.sqrt(w * w - 1) if variant == "annulus" else w
        weights = itertools.repeat(1.0)
    terms = (_float_term(*gn.eval(w), *gtn.eval(w), wn)
             for wn, gn, gtn in zip(weights, taylor_tower(g, r), taylor_tower(gt, r)))
    return sum_series_loop(to_complex(h), terms, cfg.max_terms, cfg.tol)


# ---------------------------------------------------------------------------
# the float basis f_{p,q}: the oracle of the exact values that the rigidity
# experiments reduce mod p
# ---------------------------------------------------------------------------


def exact_gpoints(pts):
    """The GPoints at the exact values of float ones: a float is a dyadic
    rational.  The kernel identities are rational, so they hold exactly
    there."""
    return [GPoint(*(SpherePoint.finite(_exact(x.value())) for x in (p.z, p.w)))
            for p in pts]


def fpq_proj(p: int, q: int, z: SpherePoint, w: SpherePoint):
    """f_{p,q}(z, w) = z^p w^q / (1-zw)^max(p,q) on projective pairs, in
    floats.  The reference for ``rigidity._basis_values_mod_p``, whose
    exact values it approximates.

    Written projectively the expression is polynomial in (u, v) pairs, so
    it extends to the points at infinity (poles only on zw = 1)."""
    m = max(p, q)
    u1, v1 = to_complex(z.u), to_complex(z.v)
    u2, v2 = to_complex(w.u), to_complex(w.v)
    den = (v1 * v2 - u1 * u2) ** m
    if den == 0:
        raise DomainError("f_{p,q} undefined on the hypersurface zw = 1")
    return u1 ** p * u2 ** q * v1 ** (m - p) * v2 ** (m - q) / den
