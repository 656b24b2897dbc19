"""The coefficient family c_n(hbar) and the three Wick-type star products.

Every product is the series sum_n c_n/n! w_n D^n g Dbar^n f of the paper,
summed in the normalized form

    sum_n kappa_n t_n,   kappa_n = c_n n! = n!/(1/hbar)_n,
    kappa_{n+1} = kappa_n (n + 1) hbar / (1 + n hbar),

kappa_n grows or decays only polynomially in n (it is 1/(n+1) at
hbar = 1/2), where c_n/n! underflows near n = 100.  The terms t_n are
products of the Taylor coefficients that the towers carry, so no n! is
formed anywhere:

* :func:`star_disk`      -- t_n = (Dbar^n f(z)/n!) (D^n g(z)/n!) on the unit
  disk; note the operand order: the FIRST factor takes Dbar, the SECOND
  takes D.
* :func:`star_annulus`   -- t_n = (w^2-1)^n (g^(n)(w)/n!) (gt^(n)(w)/n!).
* :func:`star_punctured` -- t_n = w^{2n}    (g^(n)(w)/n!) (gt^(n)(w)/n!).
  The historically circulated display carries a fixed w^2 factor instead
  of w^{2n}; that variant is kept behind ``weight_variant="printed"`` so
  the lift-coherence check can discriminate the two.

Termination is read from structure.  A disk product of polynomials
terminates iff f is holomorphic or g is antiholomorphic, and then
f * g = f g.  Otherwise both towers live at every order: a step of Dbar
sends a z^i w^j to a j z^i w^{j-1} - a (j + n) z^{i+1} w^j, so the
monomial of Dbar^n f with j >= 1 and the largest z-exponent leaves a
coefficient -a (j + n) != 0 that no other monomial reaches, again with
j >= 1; the same holds for D^n g with the slots swapped.  A surface
product of polynomials ends after min(deg g, deg gt) + 1 terms, and
:func:`star_annulus_poly`, :func:`star_punctured_poly` and the
exact-finite surface mode sum them in one pass over integer numerators
(:func:`_surface_poly`): g^(n)/n! is the binomial row C(k, n) a_k at
w^{k-n}, the products are integer convolutions, the weights integer rows,
and kappa_0..kappa_m share one denominator.  Every coefficient of an
exact result takes one kind, the widest among its inputs: int < Fraction
< QC.

Float products are summed over a batch of points at once, by the float
engine of :mod:`wickstar.towers`, which a float branch imports on its
first call; this module imports no numpy.  Each operand gives a
closed-form tower, an array with one row per point: on the disk
(``DiskFunction.pm_tower``) a polynomial or a pullback of one has
a_n = sum_k e_k delta^k C(n-1, k-1) r^{n-k} from the Moebius matrix of
its map, and a lift the entire-function tower c^n g^(n)(t)/n!, which the
surfaces use too (a binomial Taylor shift for a polynomial or a series,
which carries its certificate into every entry, and a cumprod for an
exponential).  Their product is the (points, max_terms + 1) term array,
and one array kernel sums every row: kappa is formed once per hbar and
width, each row's partial sums are one cumsum, and each row stops,
reports its tail and raises exactly as a sum taken one term at a time
would; a row whose sum or tail is not finite raises FloatRangeError.  A
point's row does not depend on the batch it is in, and ``star_disk``,
``star_annulus`` and ``star_punctured`` take one point (giving a
StarResult) or a 1-D sequence of them (giving a list).  The symbolic
disk product (:func:`star_disk_poly_truncated`) sums its BiPoly terms
against kappa_0..kappa_m (:func:`_kappas`), and the exact surface
products of polynomials take their one integer pass (above).

The deformation parameter lives in C minus {0, -1, -1/2, -1/3, ...};
:class:`Hbar` guards the poles by one rule for every scalar kind, the test
that the sums apply to each divisor 1 + k hbar (:func:`_c_divisor`): exact
for an exact hbar, relative for a float; a non-finite float is refused
too.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import operator
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .errors import DomainError, NonTerminatingError, WickstarError
from .exact import QC, _make, is_exact, to_complex
from .functions import BiPoly, PolyFn, _convolve, _exact_coeffs, _numerators
from .peschl_minda import DiskFunction, PolyDisk, pm_step
from .sphere import _check_disk


# ---------------------------------------------------------------------------
# deformation parameter
# ---------------------------------------------------------------------------


def _pole_of(hv):
    """The k of the pole -1/k that hbar hits, 0 for the pole 0, else None;
    a non-finite float raises DomainError.

    Only the k nearest the real part of -1/hbar can be hit, and it is hit
    when its divisor 1 + k hbar fails the test of :func:`_c_divisor`:
    exactly 0 for an exact hbar, within 1e-14 (1 + k |hbar|) for a float,
    which puts k within 1e-14 (k + 1/|hbar|) of -1/hbar."""
    exact = is_exact(hv)
    if not (exact or cmath.isfinite(complex(hv))):
        raise DomainError(f"deformation parameter {hv!r} is not finite")
    if hv == 0:
        return 0
    one = _one_like(hv)
    x = -(one / hv).real
    if 0 < x < cmath.inf:
        k = round(x)
        try:
            _c_divisor(one, hv, k, exact)
        except DomainError:
            return k
    return None


class Hbar:
    """Deformation parameter; rejects the poles of the coefficient family."""

    __slots__ = ("value",)

    def __init__(self, value):
        pole = _pole_of(value)
        if pole is not None:
            raise DomainError(f"deformation parameter {value!r} hits the excluded "
                              f"pole {f'-1/{pole}' if pole else 0}")
        self.value = value

    @staticmethod
    def of(h) -> "Hbar":
        return h if isinstance(h, Hbar) else Hbar(h)

    def __repr__(self):
        return f"Hbar({self.value!r})"


def _one_like(hv):
    if isinstance(hv, QC):
        # from its parts: QC(1) goes through Fraction and costs ~7x as much
        return _make(1, 0, 1)
    if is_exact(hv):
        return Fraction(1)
    return complex(1)


def _lenient_value(h):
    """Deformation value for the product loops.

    Only the pole at 0 is rejected up front; a pole -1/k is rejected
    lazily, at the moment the k-th recurrence divisor is actually formed.
    A finite sum that never reaches that divisor (polynomial operands of
    low degree) is a legitimate evaluation even when the full coefficient
    family has a pole further out."""
    v = h.value if isinstance(h, Hbar) else h
    if _pole_of(v) == 0:
        raise DomainError(
            f"deformation parameter {v!r} hits the excluded pole 0")
    return v


def _c_divisor(one, hv, n, exact):
    """1 + n*hbar, the divisor of the step c_n -> c_{n+1}; raises at the
    pole hbar = -1/n: exactly at 0 when ``exact`` (hbar is exact), else
    within a relative distance of 1e-14."""
    den = one + n * hv
    if den == 0 if exact else abs(den) <= 1e-14 * (1.0 + n * abs(hv)):
        raise _pole_error(n)
    return den


def _pole_error(n: int) -> DomainError:
    return DomainError(f"deformation parameter hits the excluded pole -1/{n}")


def _c_stream(hv, nmax: int):
    """[c_0, ..., c_nmax] with lazy pole checks (see _lenient_value)."""
    one, exact = _one_like(hv), is_exact(hv)
    out = [one]
    for n in range(nmax):
        out.append(out[-1] * hv / _c_divisor(one, hv, n, exact))
    return out


def c_sequence(h, nmax: int):
    """[c_0, ..., c_nmax] via the recurrence c_{n+1} = c_n h / (1 + n h)."""
    return _c_stream(Hbar.of(h).value, nmax)


def c_n(h, n: int):
    """c_0 = 1, c_n = hbar^n / prod_{j=0}^{n-1} (1 + j hbar)."""
    if n < 0:
        raise ValueError("coefficient index must be >= 0")
    return c_sequence(h, n)[n]


def c_direct_sequence(h, nmax: int):
    """[c_0, ..., c_nmax] from the product formula, independent of the
    recurrence: hbar^n and prod_{j<n} (1 + j hbar) are two running
    products, divided once per n."""
    hv = Hbar.of(h).value
    one = _one_like(hv)
    num = den = one
    out = [num / den]
    for j in range(nmax):
        num, den = num * hv, den * (one + j * hv)
        out.append(num / den)
    return out


def c_n_direct(h, n: int):
    """Independent evaluation of c_n from the product formula."""
    if n < 0:
        raise ValueError("coefficient index must be >= 0")
    return c_direct_sequence(h, n)[n]


# ---------------------------------------------------------------------------
# configuration / results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarConfig:
    """max_terms bounds the truncated sum to terms 0..max_terms; it stops
    earlier once three successive terms fall below tol * max(1, |sum|),
    so tol = 0 sums to the budget."""
    max_terms: int = 64
    tol: float = 1e-12
    mode: str = "truncated"  # "exact-finite" | "truncated"

    def __post_init__(self):
        if self.mode not in ("exact-finite", "truncated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        # a NaN tol would fail every stop test and silently sum to the budget
        if not self.tol >= 0:
            raise ValueError("tol must be a number >= 0")


@dataclass(frozen=True)
class StarResult:
    value: object
    terms_used: int
    tail_estimate: float
    stop_reason: str  # "terminated" | "tol" | "budget"

    @property
    def converged(self) -> bool:
        return self.stop_reason != "budget"


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def _points(z):
    """(the points as a list, batched): a 1-D sequence is a batch, anything
    else one point.  An ndarray can only come from a loaded numpy, so an
    exact call never imports it."""
    if isinstance(z, (list, tuple)):
        return list(z), True
    np = sys.modules.get("numpy")
    if np is not None and isinstance(z, np.ndarray) and z.ndim:
        if z.ndim > 1:
            raise ValueError("points must be a scalar or a 1-D sequence")
        return list(z), True
    return [z], False


# ---------------------------------------------------------------------------
# the disk product
# ---------------------------------------------------------------------------


def _require_termination(f: BiPoly, g: BiPoly):
    """Raise unless f * g terminates: f holomorphic or g antiholomorphic."""
    if f.wdeg > 0 and g.zdeg > 0:
        raise NonTerminatingError(
            "the star series does not terminate for these operands: the "
            "first is not holomorphic and the second not antiholomorphic; "
            "use truncated mode")


def star_disk(f: DiskFunction, g: DiskFunction, h, z, cfg: StarConfig | None = None):
    """(f * g)(z) = sum_n c_n/n! D^n g(z) Dbar^n f(z).

    z is one point, giving one StarResult, or a 1-D sequence of points,
    giving a list of them; a batch raises what its first failing point
    would raise alone."""
    cfg = cfg if cfg is not None else StarConfig()
    hv = _lenient_value(h)
    points, batched = _points(z)
    if not points:
        return []
    if cfg.mode == "exact-finite":
        out = [_exact_disk(f, g, p) for p in points]
    else:
        import wickstar.towers as towers
        out = towers.disk_sums(f, g, to_complex(hv), [to_complex(p) for p in points],
                               cfg.max_terms, cfg.tol)
    return out if batched else out[0]


def _exact_disk(f, g, z) -> StarResult:
    """f g at z, checked as a batch of points checks each in turn."""
    _check_disk(z)
    if not (isinstance(f, PolyDisk) and isinstance(g, PolyDisk)):
        raise NonTerminatingError(
            "exact-finite mode requires polynomial disk functions")
    _require_termination(f.f, g.f)
    return StarResult(f.value(z) * g.value(z), 1, 0.0, "terminated")


# ---------------------------------------------------------------------------
# the annulus and punctured-disk products (entire-function model)
# ---------------------------------------------------------------------------


def _weight_row(n: int, variant: str) -> list:
    """The weight w_n as (shift, coefficient) pairs of an integer
    polynomial in w: (w^2-1)^n = sum_j (-1)^{n-j} C(n, j) w^{2j} on the
    annulus, w^{2n} on the punctured disk, and w^2 (w^0 at n = 0) for its
    printed variant."""
    if variant == "annulus":
        return [(2 * j, (-1) ** (n - j) * comb(n, j)) for j in range(n + 1)]
    return [(2 * n if variant == "derived" else 2 * min(n, 1), 1)]


def _kappas(hv, m: int) -> list:
    """[kappa_0, ..., kappa_m] by the recurrence
    kappa_n = kappa_{n-1} n hbar/(1 + (n-1) hbar), with the lazy pole test:
    the divisors 1 + k hbar for k < m, no other."""
    one, exact = _one_like(hv), is_exact(hv)
    out = [one]
    for n in range(1, m + 1):
        out.append(out[-1] * (n * hv) / _c_divisor(one, hv, n - 1, exact))
    return out


def _taylor_shift(a: list, n: int) -> list:
    """The coefficients C(k, n) a_k of g^(n)/n! = sum_k C(k, n) a_k w^{k-n}."""
    return [comb(k, n) * x for k, x in enumerate(a[n:], n)]


def _weigh(x: list, rows: list):
    """(shift, coefficients) of sum_rows c w^s x(w) for an integer row."""
    if len(rows) == 1 and rows[0][1] == 1:
        return rows[0][0], x
    out = [0] * (len(x) + rows[-1][0])
    for s, c in rows:
        for k, v in enumerate(x):
            out[s + k] += c * v
    return 0, out


def _surface_sum(a, b, k, variant: str):
    """Numerators of sum_n K_n w_n A_n B_n for coefficient lists given by
    parts, a = (re, im), b and k alike: A_n and B_n are the Taylor shifts
    of a and b, K_n = k[n].  Returns (re, im), with im None when every
    part it sums is zero."""
    (ar, ai), (br, bi), (kr, ki) = a, b, k
    size = len(ar) + len(br) - 1
    complex_ab = any(ai) or any(bi)
    re = [0] * size
    im = [0] * size if complex_ab or any(ki) else None
    for n, (u, v) in enumerate(zip(kr, ki)):
        xr, yr = _taylor_shift(ar, n), _taylor_shift(br, n)
        xi, yi = (_taylor_shift(ai, n), _taylor_shift(bi, n)) if complex_ab else ((), ())
        pr, pi = _convolve(xr, xi, yr, yi, len(xr) + len(yr) - 1)
        rows = _weight_row(n, variant)
        s, tr = _weigh(pr, rows)
        if pi is not None:
            _, ti = _weigh(pi, rows)
            for j, (p, q) in enumerate(zip(tr, ti), s):
                re[j] += p * u - q * v
                im[j] += p * v + q * u
        else:
            for j, p in enumerate(tr, s):
                re[j] += p * u
            if im is not None:
                for j, p in enumerate(tr, s):
                    im[j] += p * v
    return re, im


def _float_parts(coeffs: list):
    zs = [to_complex(c) for c in coeffs]
    return [z.real for z in zs], [z.imag for z in zs]


def _surface_poly(g: PolyFn, gt: PolyFn, hv, variant: str) -> StarResult:
    """The surface product of two polynomials as a PolyFn in w, in one pass.

    Term n is kappa_n w_n g_n gt_n, with g_n = g^(n)/n!, and the terms end
    after min(deg g, deg gt) + 1.  For exact operands the denominators of
    g, gt and kappa_0..kappa_m are cleared once, g_n is the integer row
    C(k, n) a_k at w^{k-n}, the products are integer (or Gaussian-integer)
    convolutions, w_n is an integer row (:func:`_weight_row`), and each
    output coefficient is built once over the product of the three
    denominators, every one a QC when hbar or a coefficient is one, else a
    Fraction, as kappa is at least a Fraction (the widest kind among the
    inputs, :func:`wickstar.functions._exact_coeffs`).  A float or complex
    hbar or coefficient runs the same pass on floats and gives complex
    coefficients."""
    a, b = g.coeffs, gt.coeffs
    kappas = _kappas(hv, min(len(a), len(b)) - 1)
    if not (is_exact(hv) and all(map(is_exact, a)) and all(map(is_exact, b))):
        re, im = _surface_sum(_float_parts(a), _float_parts(b),
                              _float_parts(kappas), variant)
        coeffs = [complex(r, m) for r, m in zip(re, im or itertools.repeat(0.0))]
        return StarResult(PolyFn(coeffs), len(kappas), 0.0, "terminated")
    (ar, ai, da), (br, bi, db), (kr, ki, dk) = map(_numerators, (a, b, kappas))
    re, im = _surface_sum((ar, ai), (br, bi), (kr, ki), variant)
    coeffs = _exact_coeffs(re, im, dk * da * db, kappas, a, b)
    return StarResult(PolyFn(coeffs), len(kappas), 0.0, "terminated")


def _star_entire(g, gt, h, w, cfg, variant):
    cfg = cfg if cfg is not None else StarConfig()
    hv = _lenient_value(h)
    points, batched = _points(w)
    if not points:
        return []
    if cfg.mode == "exact-finite":
        if not (isinstance(g, PolyFn) and isinstance(gt, PolyFn)):
            raise NonTerminatingError(
                "exact-finite mode requires polynomial operands")
        res = _surface_poly(g, gt, hv, variant)
        out = [replace(res, value=res.value.eval(p)[0]) for p in points]
    else:
        import wickstar.towers as towers
        out = towers.surface_sums(g, gt, to_complex(hv), [to_complex(p) for p in points],
                                  cfg.max_terms, cfg.tol, variant)
    return out if batched else out[0]


def star_annulus(g, gt, h, w, cfg: StarConfig | None = None):
    """(g o f_R) * (gt o f_R) evaluated in the chart variable w = f_R: at
    one point, or at each of a 1-D sequence of points as a list."""
    return _star_entire(g, gt, h, w, cfg, "annulus")


def star_punctured(g, gt, h, w, cfg: StarConfig | None = None,
                   weight_variant: str = "derived"):
    """(g o f_0) * (gt o f_0) in the chart variable w = f_0, at one point
    or at each of a 1-D sequence of points as a list."""
    if weight_variant not in ("derived", "printed"):
        raise ValueError(f"unknown weight variant {weight_variant!r}")
    return _star_entire(g, gt, h, w, cfg, weight_variant)


# symbolic (coefficientwise) products on polynomials --------------------------


def star_disk_poly_exact(f: BiPoly, g: BiPoly, h) -> BiPoly:
    """The disk product of two polynomial functions as an exact BiPoly.

    Only possible when a derivative tower dies: the first operand f is
    holomorphic or the second operand g is antiholomorphic (so z * z**2
    and conj z * conj z terminate, conj z * z does not), and then the
    product is f g.  Otherwise the series has infinitely many nonzero
    polynomial terms and NonTerminatingError is raised; the decision
    reads the exponents and builds no tower."""
    _lenient_value(h)
    _require_termination(f, g)
    return f * g


def star_disk_poly_truncated(f: BiPoly, g: BiPoly, h, n_terms: int) -> BiPoly:
    """The first n_terms+1 polynomial terms of the disk product.

    Each term of the series is again a polynomial in (z, conj z); the
    truncation error at |z| <= r decays like r^{2 n_terms}.  The terms end
    early when a tower dies, and only the divisors of the kappa_n of the
    terms that exist are formed (:func:`_kappas`)."""
    if n_terms < 0:
        raise ValueError("the number of terms must be >= 0")
    hv = _lenient_value(h)
    f_bar, g_d = f, g
    terms = [f * g]
    for n in range(1, n_terms + 1):
        f_bar = pm_step(f_bar, n - 1, "w")
        g_d = pm_step(g_d, n - 1, "z")
        if f_bar.is_zero or g_d.is_zero:
            break
        terms.append(f_bar * g_d)
    return functools.reduce(operator.add, map(operator.mul, terms,
                                              _kappas(hv, len(terms) - 1)))


def star_annulus_poly(g: PolyFn, gt: PolyFn, h) -> PolyFn:
    """The annulus product of two polynomials as an exact polynomial in w."""
    return _surface_poly(g, gt, _lenient_value(h), "annulus").value


def star_punctured_poly(g: PolyFn, gt: PolyFn, h,
                        weight_variant: str = "derived") -> PolyFn:
    """The punctured-disk product of two polynomials, exact in w."""
    if weight_variant not in ("derived", "printed"):
        raise ValueError(f"unknown weight variant {weight_variant!r}")
    return _surface_poly(g, gt, _lenient_value(h), weight_variant).value


# batch evaluation over deformation samples ----------------------------------


def star_hbar_profile(op, inputs, hs, cfg: StarConfig | None = None):
    """Evaluate one of the star products over a list of deformation samples.

    ``inputs`` is the (first operand, second operand, point) triple; each
    entry of the returned list is a StarResult, or the domain error raised
    for that sample (collected, not fatal)."""
    f, g, point = inputs
    out = []
    for h in hs:
        try:
            out.append(op(f, g, h, point, cfg))
        except WickstarError as exc:
            out.append(exc)
    return out
