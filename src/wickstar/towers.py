"""The float engine: closed-form towers over a batch of points, and the
array kernel that sums their products.

This is the one module of wickstar that imports numpy at its top, and no
exact path imports it: the float star products and the disk operands'
float towers load it on their first call (a function-level import), so
``import wickstar``, an exact-finite product and the rigidity
experiments decided exactly or mod p never load numpy.  The callers write
``import wickstar.towers as towers``: once the module is loaded, that
absolute form costs about 0.3 us a call on CPython 3.11 (x86_64), against
0.7 us for ``from . import towers``, which a float disk product runs
three times (once in ``star_disk``, once per operand tower).

Towers.  Each operand gives a :class:`Tower`, an array with one row per
point: :func:`entire_tower` gives the Taylor coefficients of
u -> g(t + c u) for each entire-function shape, and :func:`shifted_rows`
and :func:`moebius_compose` give those of a polynomial composed with a
Moebius map (:func:`moebius_tower`).  Every polynomial, of one variable
or two, is shifted from its nonzero terms (:func:`term_table`): the cost
follows its terms, not its degree squared.

The kernel.  The product of two towers is the (points, max_terms + 1)
term array, and :func:`_sum_rows` sums every row against kappa, formed
once per hbar and width: each row's partial sums are one cumsum, and each
row stops, reports its tail and raises exactly as a sum taken one term
at a time would.  :func:`disk_sums` and :func:`surface_sums` are the
float branches of ``star_disk`` and of the surface products.

Every array is formed by elementwise operations and reductions along one
axis, never by a matrix product, whose summation order can depend on the
shape of the batch: a point's row is the same number whatever batch it
rides in.
"""

from __future__ import annotations

import cmath
import functools
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FloatRangeError
from .exact import to_complex
from .functions import EntireFn, ExpFn, PolyFn, SeriesFn, _order_error
from .star import _WEIGHT_SHIFT, StarResult, _kappas, _pole_error, _pole_of

# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0 ** -53


# ---------------------------------------------------------------------------
# closed-form towers over a batch of points
# ---------------------------------------------------------------------------


class Tower(NamedTuple):
    """Taylor coefficients over a batch of points, in closed form.

    ``values[p, n]`` is the n-th coefficient at point p.  ``bounds`` bounds
    the error of each value the way ``SeriesFn.eval`` does, or is None
    when the values carry none.  ``faults`` is None when every row reaches
    the width; otherwise ``faults[p]`` is None or the fault ``(n, error)``:
    coefficient n and later cannot be formed at point p, because the
    derivative of order n does not exist or cannot be evaluated there,
    and a sum that reaches term n raises the error.  A tower narrower
    than asked for faults in every row."""
    values: np.ndarray
    bounds: np.ndarray | None = None
    faults: list | None = None


@functools.lru_cache(maxsize=16)
def _exponents(n: int) -> np.ndarray:
    out = np.arange(n, dtype=complex)
    out.setflags(write=False)
    return out


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0, ..., x^{n-1} for every entry of the 1-D array x: shape
    (len(x), n).  numpy raises a complex number to an integer power below
    100 by repeated squaring, and above through exp and log."""
    return x[:, None] ** _exponents(n)


@functools.lru_cache(maxsize=64)
def _pascal(m: int) -> np.ndarray:
    """C(k, n) at [k, n] for 0 <= n, k <= m, 0 where n > k, by Pascal's
    rule, which is exact in floats below 2^53.  Read-only, as every caller
    shares it."""
    pascal = np.zeros((m + 1, m + 1))
    pascal[:, 0] = 1.0
    with np.errstate(over="ignore"):
        for i in range(1, m + 1):
            pascal[i, 1:i + 1] = pascal[i - 1, :i] + pascal[i - 1, 1:i + 1]
    pascal.setflags(write=False)
    return pascal


def term_table(terms: list, rows: int | None = None):
    """The Taylor shift of the polynomial p(Z, w) = sum a Z^k w^e of the
    nonzero terms ((k, e), a), as (B, idx, K, E) with K and E one more
    than the largest k and e: B[i, n] = C(k, n) a and
    idx[i, n] = max(k - n, 0) E + e for term i and n < rows (default K),
    so that p^(n)(t, w)/n! = sum_i B[i, n] t^j w^e at the flat index
    j E + e = idx[i, n], with p^(n) the n-th derivative in Z
    (:func:`shifted_rows`).  B is 0 where n > k.  Read-only, as every
    caller shares them."""
    k_top = max((k for (k, _), _ in terms), default=0) + 1
    e_top = max((e for (_, e), _ in terms), default=0) + 1
    rows = k_top if rows is None else rows
    ks = np.array([k for (k, _), _ in terms], dtype=int)
    es = np.array([e for (_, e), _ in terms], dtype=int)
    a = np.array([to_complex(x) for _, x in terms], dtype=complex)
    n = np.arange(rows)
    binom = _pascal(max(k_top, rows) - 1)[ks, :rows] * a[:, None]
    idx = np.maximum(ks[:, None] - n, 0) * e_top + es[:, None]
    for x in (binom, idx):
        x.setflags(write=False)
    return binom, idx, k_top, e_top


def shifted_rows(table, t: np.ndarray, delta: np.ndarray,
                 w: np.ndarray | None = None) -> np.ndarray:
    """delta^n p^(n)(t, w)/n! for the polynomial of the term table
    (:func:`term_table`) at each point, w frozen at the points w: shape
    (P, rows), the Taylor coefficients of u -> p(t + delta u, w).  Each
    point's monomials t^j w^e are taken at the terms' indices, times B,
    and summed along the term axis in the terms' order: one
    (P, terms, rows) array, 0.1 MB for the associativity check's operands
    of 28 terms and 27 rows at 8 points."""
    binom, idx, k_top, e_top = table
    mono = _powers(t, k_top)
    if e_top > 1:
        mono = (mono[:, :, None] * _powers(w, e_top)[:, None, :]).reshape(len(t), -1)
    terms = mono.take(idx, axis=1)
    terms *= binom
    return np.add.reduce(terms, axis=1) * _powers(delta, idx.shape[1])


# large enough for every table of one pass of the verify suites and the
# bundled specs, which read about 75 distinct coefficient tuples
@functools.lru_cache(maxsize=256)
def _coefficient_table(coeffs: tuple, rows: int):
    """The term table of a polynomial in one variable with these
    coefficients, to ``rows`` rows."""
    return term_table([((k, 0), a) for k, a in enumerate(coeffs) if a != 0], rows)


@functools.lru_cache(maxsize=16)
def _compose_table(k_top: int, width: int):
    """(B, idx) with B[k, n] = C(n-1, k-1) for 1 <= k <= n, B[0, 0] = 1
    and 0 elsewhere, and idx[k, n] = max(n - k, 0).  B comes from a
    cumprod in n of (n-1)/(n-k), so it overflows to inf only where the
    binomial does.  Read-only, as every caller shares it."""
    n = np.arange(width)
    k = np.arange(k_top)[:, None]
    with np.errstate(over="ignore"):
        b = np.where(n > k, (n - 1) / np.maximum(n - k, 1), 1.0)
        np.multiply.accumulate(b, axis=1, out=b)
    b = np.where((n >= k) & (k >= 1), b, 0.0).astype(complex)
    b[0, 0] = 1.0
    idx = np.maximum(n - k, 0)
    for a in (b, idx):
        a.setflags(write=False)
    return b, idx


def moebius_compose(e: np.ndarray, r: np.ndarray, width: int) -> np.ndarray:
    """Coefficients 0..width-1 of sum_k e_k v^k, v = u/(1 - r u), for the
    rows e (P, K) and the 1-D array of ratios r: a_0 = e_0 and
    a_n = sum_{k=1}^{min(n, K-1)} e_k C(n-1, k-1) r^{n-k}."""
    k_top = min(e.shape[1], width)
    b, idx = _compose_table(k_top, width)
    return np.add.reduce(e[:, :k_top, None] * b * _powers(r, width)[:, idx], axis=1)


def entire_tower(g: EntireFn, t: np.ndarray, c: np.ndarray, width: int) -> Tower:
    """c^n g^(n)(t)/n!, n < width, at each pair of the 1-D complex arrays
    t and c: the Taylor coefficients of u -> g(t + c u), in closed form.

    * PolyFn: the binomial Taylor shift C(k, n) a_k t^{k-n} times c^n,
      zero past the degree.
    * ExpFn: amp e^{st} (sc)^n/n!, by a cumprod of sc/n.
    * SeriesFn: the shift of the stored part, to order min(width - 1, M),
      with the bound its certificate gives to each derivative: g^(n)/n!
      times c^n has the certificate (C_n, rho/2^n), C_n = C prod_{i<n}
      |c/(i+1)|/(rho/2^i), and at t the bound C_n q^{M-n+1}/(1 - q),
      q = |t|/(rho/2^n).  Row p faults at the first n with q >= 1, and
      every row at M + 1 when the width asks for it.
    No n! or c^n is formed alone."""
    if isinstance(g, ExpFn):
        s = to_complex(g.scale)
        steps = np.empty((len(t), width), dtype=complex)
        steps[:, 0] = to_complex(g.amp) * np.exp(s * t)
        steps[:, 1:] = (s * c)[:, None] / _exponents(width)[1:]
        np.multiply.accumulate(steps, axis=1, out=steps)
        return Tower(steps)
    m = min(len(g.coeffs) - 1, width - 1)
    values = shifted_rows(_coefficient_table(tuple(g.coeffs), m + 1), t, c)
    if isinstance(g, PolyFn):
        out = np.zeros((len(t), width), dtype=complex)
        out[:, :m + 1] = values
        return Tower(out)
    return _series_tower(g, t, c, values, width)


def _series_tower(g: SeriesFn, t, c, values, width) -> Tower:
    """The tower of a SeriesFn from the values of its stored part: the
    bounds and faults its certificate gives (:func:`entire_tower`)."""
    top = g.max_order
    n = np.arange(values.shape[1])
    rho_n = g.rho / 2.0 ** n
    with np.errstate(all="ignore"):
        steps = np.empty(values.shape)
        steps[:, 0] = g.C
        steps[:, 1:] = np.abs(c[:, None] / n[1:]) / rho_n[:-1]
        np.multiply.accumulate(steps, axis=1, out=steps)
        # hypot, not np.abs: it agrees with the abs of SeriesFn.eval to the last place
        q = np.hypot(t.real, t.imag)[:, None] / rho_n
        bounds = steps * q ** (top - n + 1) / (1 - q)
    outside = q >= 1
    order = (top + 1, _order_error(top, top + 1)) if width > top + 1 else None
    faults = [order] * len(t)
    for p in np.flatnonzero(outside.any(axis=1)).tolist():
        k = int(outside[p].argmax())
        faults[p] = (k, DomainError(
            f"|t| = {abs(t[p]):.6g} outside the certified radius "
            f"rho = {rho_n[k]:.6g} of derivative order {k}"))
    return Tower(values, bounds, faults if any(faults) else None)


# the disk operands' towers (``peschl_minda``), on complex scalars --------------


def bipoly_table(coeffs: dict, bar: bool):
    """The term table (:func:`term_table`) of the bivariate polynomial
    {(i, j): a} with the varying slot first: the holomorphic one, or the
    antiholomorphic one with ``bar``."""
    return term_table([((j, i) if bar else (i, j), a) for (i, j), a in coeffs.items()])


def chart_rows(charts: list):
    """The charts (M(0), delta, r), one per point, as three 1-D complex
    arrays."""
    return np.array(charts, dtype=complex).T


def moebius_tower(table, charts: list, frozen: list, width: int) -> Tower:
    """The tower of the polynomial of ``table`` (:func:`bipoly_table`) at
    each chart (M(0), delta, r) with its frozen value: the Taylor
    coefficients of u -> F(M(0) + delta u, w0), composed with
    v = u/(1 - r u)."""
    t, delta, r = chart_rows(charts)
    e = shifted_rows(table, t, delta, np.array(frozen, dtype=complex))
    return Tower(moebius_compose(e, r, width))


def one_row(fn, nmax: int, z, bar: bool):
    """(values, bounds) of orders 0..nmax of the disk function fn at the
    one point z, read as a float, the bounds 0 where the tower carries
    none; raises the error of the row when it cannot reach nmax."""
    # past a float's range an entry is inf, as in scalar arithmetic
    with np.errstate(all="ignore"):
        tower = fn.pm_tower(nmax, [z], bar)
    fault = tower.faults[0] if tower.faults else None
    if fault is not None and fault[0] <= nmax:
        raise fault[1]
    bounds = np.zeros(nmax + 1) if tower.bounds is None else tower.bounds[0]
    return tower.values[0], bounds


# ---------------------------------------------------------------------------
# the summation kernel
# ---------------------------------------------------------------------------


def _sum_rows(hv: complex, terms: np.ndarray, bounds, faults, max_terms: int,
              tol: float) -> list:
    """sum_n kappa_n t_n for every row of the float term array ``terms``
    (P, width), one StarResult per row.

    kappa_n = kappa_{n-1} n hbar/(1 + (n-1) hbar) is formed once for all
    rows (:func:`_kappa_row`), and each row's partial sums are one cumsum.
    Row p stops at the first n >= 2 where three successive terms fall
    below tol * max(1, |sum|) ("tol"), else at n = max_terms ("budget").
    Its tail estimate is the last three terms, plus
    sum_k |kappa_k| bounds[p, k], plus the rounding bound
    gamma_m sum_k |kappa_k t_k| of m terms summed in turn,
    gamma_m = m u/(1 - m u) with u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 4.2).

    A row raises the error of its fault ``faults[p] = (n, error)`` when it
    reaches term n.  The pole -1/k is one more fault of every row, at
    term k + 1, whose kappa divides by 1 + k hbar, merged after the
    towers' fault, which wins a tie (:func:`_first_fault`); the only k
    that can fail the float pole test is read off hbar once
    (:func:`wickstar.star._pole_of`).  The first row that raises decides,
    as in a loop over the points.  A narrower array than max_terms + 1
    faults in every row.  A row whose sum or tail up to its stop is not
    finite (a term it reaches overflowed) raises FloatRangeError.  Callers
    ignore numpy's float errors: the entries a raising row leaves behind
    may be NaN."""
    size, width = terms.shape
    k = _pole_of(hv)
    pole = None if k is None else (k + 1, _pole_error(k))
    kappa = _kappa_row(hv, width)
    kt = terms * kappa
    total = np.add.accumulate(kt, axis=1)
    mag = np.abs(kt)
    mass = np.add.accumulate(mag, axis=1)
    err = None if bounds is None else np.add.accumulate(np.abs(kappa) * bounds, axis=1)
    if width > 2:
        pair = np.maximum(mag[:, :-1], mag[:, 1:])
        small = (np.maximum(pair[:, :-1], pair[:, 1:])
                 < tol * np.maximum(np.abs(total[:, 2:]), 1.0))
        firsts = small.argmax(axis=1).tolist()
    out = []
    for p in range(size):
        hit = width > 2 and small.item(p, firsts[p])
        stop = firsts[p] + 2 if hit else max_terms
        fault = _first_fault(faults[p] if faults else None, pole)
        if fault is not None and fault[0] <= stop:
            raise fault[1]
        row = mag[p]
        tail = ((row.item(stop - 2) if stop > 1 else 0.0) + row.item(stop - 1)
                + row.item(stop))
        if err is not None:
            tail += err.item(p, stop)
        gamma = (stop + 1) * _UNIT_ROUNDOFF
        tail += gamma / (1 - gamma) * mass.item(p, stop)
        value = total.item(p, stop)
        if not (cmath.isfinite(value) and isfinite(tail)):
            raise FloatRangeError(
                f"the float star sum leaves the range of double precision within "
                f"{stop + 1} terms")
        out.append(StarResult(value, stop + 1, tail, "tol" if hit else "budget"))
    return out


@functools.lru_cache(maxsize=16)
def _kappa_row(hv: complex, width: int) -> np.ndarray:
    """[kappa_0, ..., kappa_{width-1}] at a float hbar by the recurrence of
    :func:`wickstar.star._kappas`, step for step, up to the pole: past the
    term whose kappa divides by the pole's 1 + k hbar the entries are NaN,
    and no sum reads them (:func:`_sum_rows`).  Read-only, as every caller
    shares it."""
    pole = _pole_of(hv)
    top = width - 1 if pole is None else min(width - 1, pole)
    row = np.full(width, complex("nan"))
    row[:top + 1] = _kappas(hv, top)
    row.setflags(write=False)
    return row


def _first_fault(x, y):
    """The fault a sum meets first: the lower order, and on a tie x, the
    earlier source; None for neither."""
    return y if x is None or (y is not None and y[0] < x[0]) else x


def _merge_faults(fa, fb):
    """Per row, the fault of two towers that a term meets first
    (:func:`_first_fault`): each term takes the first operand's
    coefficient before the second's."""
    if fa is None or fb is None:
        return fa or fb
    return [_first_fault(x, y) for x, y in zip(fa, fb)]


def _product_rows(a: Tower, b: Tower):
    """(terms, bounds) of a_n b_n over the common width of two towers,
    with the bound |a_n| eb_n + |b_n| ea_n + ea_n eb_n."""
    width = min(a.values.shape[1], b.values.shape[1])
    x, y = a.values[:, :width], b.values[:, :width]
    if a.bounds is None and b.bounds is None:
        return x * y, None
    ea = np.zeros(x.shape) if a.bounds is None else a.bounds[:, :width]
    eb = np.zeros(y.shape) if b.bounds is None else b.bounds[:, :width]
    return x * y, np.abs(x) * eb + np.abs(y) * ea + ea * eb


def _disk_rows(f, g, zs: list, max_terms: int):
    """(terms, bounds, faults) of the disk product at the points zs, for
    :func:`_sum_rows`: one tower per operand, a row per point, the first
    operand taking Dbar.  A point outside the disk faults at order 0."""
    a = f.pm_tower(max_terms, zs, bar=True)
    b = g.pm_tower(max_terms, zs)
    return (*_product_rows(a, b), _merge_faults(a.faults, b.faults))


def _surface_rows(g, gt, points: list, max_terms: int, surface: str):
    """(terms, bounds, faults) of a surface product at the points, for
    :func:`_sum_rows`: the towers of g and gt at (w, r), a row per point."""
    ws = np.array(points, dtype=complex)
    width = max_terms + 1
    # a geometric weight rho^n is split as r^n r^n with r^2 = rho, and
    # r rides in both towers (Taylor coefficients of u -> g(w + r u)),
    # so no power of rho is formed alone, to overflow while the towers
    # underflow; rho = w^2 - s (star._WEIGHT_SHIFT), and r = w when s = 0
    s = _WEIGHT_SHIFT[surface]
    r = np.sqrt(ws * ws - s) if s else ws
    a, b = entire_tower(g, ws, r, width), entire_tower(gt, ws, r, width)
    return (*_product_rows(a, b), _merge_faults(a.faults, b.faults))


# a row that leaves the float range, or runs past its pole or fault, may
# hold any value: it raises, so numpy's float errors are ignored


def disk_sums(f, g, hv: complex, zs: list, max_terms: int, tol: float) -> list:
    """The float disk product f * g at each complex point of zs, one
    StarResult per point."""
    with np.errstate(all="ignore"):
        return _sum_rows(hv, *_disk_rows(f, g, zs, max_terms), max_terms, tol)


def surface_sums(g, gt, hv: complex, ws: list, max_terms: int, tol: float,
                 surface: str) -> list:
    """The float product g * gt on the ``surface`` ("annulus" or
    "punctured") at each complex point of ws, one StarResult per point."""
    with np.errstate(all="ignore"):
        return _sum_rows(hv, *_surface_rows(g, gt, ws, max_terms, surface),
                         max_terms, tol)
