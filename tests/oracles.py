"""Reference implementations that the tests check the program against."""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from fractions import Fraction

from wickstar.errors import DomainError, FloatRangeError
from wickstar.exact import _exact, conj, is_exact, to_complex
from wickstar.functions import BiPoly, ExpFn, Jet, PolyFn, moebius_jet
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
    DomainError past its order or outside the radius of a derivative, when
    the term is asked for."""
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


def _poly_weights(variant):
    """w_0, w_1, ... as PolyFns in w: (w^2 - s)^n with s = 1 on the annulus,
    0 on the punctured disk, or the number ``variant`` itself, which a
    mutation test patches into the program; and 1, w^2, w^2, ... for the
    wrong ("printed") punctured weights that a mutation test puts in their
    place."""
    x = PolyFn([0, 1])
    s = {"annulus": 1, "punctured": 0, "printed": 0}.get(variant, variant)
    step = x * x - s
    wn = step * 0 + 1
    while True:
        yield wn
        wn = step if variant == "printed" else wn * step


def kappa_by_steps(hv):
    """Yield kappa_0, kappa_1, ... of hbar by the recurrence
    kappa_n = kappa_{n-1} n hbar/(1 + (n-1) hbar), each divisor tested by
    ``star._c_divisor`` when its kappa_n is asked for: the per-step
    reference of ``star._kappas``, which decides the pole once per hbar."""
    kappa = _one_like(hv)
    for n in itertools.count():
        if n:
            kappa = kappa * (n * hv) / _c_divisor(hv, n - 1)
        yield kappa


def surface_poly_by_terms(g: PolyFn, gt: PolyFn, hv, variant):
    """The exact surface product summed term by term, as a StarResult.

    Each term w_n (g^(n)/n!) (gt^(n)/n!) is a PolyFn product, with the
    Taylor coefficients stepped by ``taylor_tower`` on Fractions, and a
    loop adds kappa_n times it to the running PolyFn, one term at a time:
    kappa by the recurrence, each divisor 1 + (n-1) hbar formed only when
    term n arrives.  It checks ``star._surface_poly``'s one-pass integer
    sum: the same coefficient values, the same term count, and the same
    error at a pole the sum reaches."""
    kappas, total, used = kappa_by_steps(hv), None, 0
    towers = zip(_poly_weights(variant),
                 taylor_tower(g, Fraction(1)), taylor_tower(gt, Fraction(1)))
    for n, (wn, dg, dgt) in enumerate(towers):
        if n and (dg.is_zero or dgt.is_zero):
            break
        term = wn * dg * dgt * next(kappas)
        total = term if total is None else total + term
        used = n + 1
    return StarResult(total, used, 0.0, "terminated")


def pm_step_by_constructor(en: BiPoly, n: int, slot: str) -> BiPoly:
    """E_{n+1} from E_n: the two terms of every monomial listed, then
    merged by the BiPoly constructor, then divided by n + 1.  The reference
    of ``peschl_minda.pm_step``, which merges as it goes."""
    terms = []
    for (i, j), a in en.coeffs.items():
        if slot == "z":
            terms += [((i - 1, j), a * i), ((i, j + 1), a * -(i + n))]
        else:
            terms += [((i, j - 1), a * j), ((i + 1, j), a * -(j + n))]
    out = BiPoly(terms)
    c = out.coeffs
    if c and is_exact(next(iter(c.values()))):
        inv = Fraction(1, n + 1)
        out.coeffs = {k: a * inv for k, a in c.items()}
    else:
        out.coeffs = {k: a / (n + 1) for k, a in c.items()}
    return out


def star_disk_poly_truncated_by_terms(f: BiPoly, g: BiPoly, hv, n_terms: int) -> BiPoly:
    """The symbolic disk product as a list of BiPoly terms
    (Dbar^n f/n!) (D^n g/n!), stepped by :func:`pm_step_by_constructor`,
    each scaled by its kappa_n and summed by ``reduce(operator.add)``:
    kappa by the recurrence, past the towers' end, so each divisor
    1 + k hbar is formed only for a term that exists.  The reference of
    ``star.star_disk_poly_truncated``, which adds every term into one dict."""
    f_bar, g_d = f, g
    terms = [f * g]
    for n in range(1, n_terms + 1):
        f_bar = pm_step_by_constructor(f_bar, n - 1, "w")
        g_d = pm_step_by_constructor(g_d, n - 1, "z")
        if f_bar.is_zero or g_d.is_zero:
            break
        terms.append(f_bar * g_d)
    return functools.reduce(operator.add, map(operator.mul, terms, kappa_by_steps(hv)))


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
    kappas = kappa_by_steps(hv)
    total, err, mass = None, 0.0, 0.0
    r1 = r2 = r3 = 0.0
    stop, used = "terminated", 0
    for n, (t, t_err) in enumerate(terms):
        kappa = next(kappas)
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
    """The float annulus ("annulus") or punctured-disk ("punctured") product
    at one point, term by term, or with the wrong punctured weights
    1, w^2, w^2, ... ("printed") that a mutation test puts in its place."""
    w = to_complex(w)
    if variant == "printed":
        r, weights = 1.0, itertools.chain([1.0], itertools.repeat(w * w))
    else:
        r = cmath.sqrt(w * w - 1) if variant == "annulus" else w
        weights = itertools.repeat(1.0)
    # each operand's term before the next operand's, as in _disk_stream
    a = (gn.eval(w) for gn in taylor_tower(g, r))
    b = (gn.eval(w) for gn in taylor_tower(gt, r))
    terms = (_float_term(*x, *y, wn) for wn, x, y in zip(weights, a, b))
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


def rank_mod_p_by_elimination(rows: list, p: int) -> int:
    """Rank over F_p of all the rows at once, by Gaussian elimination column
    by column; the rows are consumed.  The reference of
    ``rigidity._rank_mod_p``, which eliminates each row as it arrives and
    stops at a ceiling."""
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank
