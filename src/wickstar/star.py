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
* :func:`star_annulus`, :func:`star_punctured` -- t_n = (w^2 - s)^n
  (g^(n)(w)/n!) (gt^(n)(w)/n!) in the chart variable w, with s = 1 on the
  annulus and s = 0 on the punctured disk: the one table
  ``_WEIGHT_SHIFT``, which both engines read.

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
w^{k-n}, kappa_0..kappa_m share one denominator, kappa_n meets each
term of the rows' convolution once (through the row of g when the rows
are complex, per coefficient of their integer product when they are
real), and the weight enters by Horner's rule in n, one integer
accumulator multiplied by w^2 - s in place per term.  Every
coefficient of an exact result takes one kind, the widest among its
inputs: int < Fraction < QC.  A float coefficient, hbar or point enters
the pass as its exact binary value, and the result is rounded once, per
coefficient or, in exact-finite mode, the value, whose tail_estimate
bounds that rounding.
On the disk exact-finite mode multiplies f(z) g(z) as given: float inputs
give a float product, whose tail_estimate bounds its distance from the
exact product of the binary inputs.

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
products of polynomials take their one integer pass (above).  There is
one kappa recurrence: an exact hbar's row is stepped on Gaussian-integer
numerators and each entry reduced once, a float hbar's is stepped in
float arithmetic.

The deformation parameter lives in C minus {0, -1, -1/2, -1/3, ...}.
Its pole is decided once per hbar (:func:`_pole_of`) by the test of the
divisor 1 + k hbar (:func:`_c_divisor`), exact or relative to a float
hbar, which must be finite.  :class:`Hbar` rejects every pole; a kappa
row, which c_n is read from too, raises exactly when it forms that divisor.
"""

from __future__ import annotations

import cmath
import functools
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, hypot, inf, nextafter, ulp

from .errors import DomainError, FloatRangeError, NonTerminatingError, WickstarError
from .exact import QC, _exact, _make, _parts, is_exact, to_complex
from .functions import BiPoly, PolyFn, _exact_coeffs, _numerators
from .peschl_minda import DiskFunction, PolyDisk, pm_step
from .sphere import _check_disk


# ---------------------------------------------------------------------------
# deformation parameter
# ---------------------------------------------------------------------------


# The pole test and the exact kappa rows are memoized per (hbar as given, m)
# and typed, so 1, Fraction(1), QC(1), 1.0 and 1+0j are kept apart, as the
# kind of a row's entries follows hbar's; a pole raises and is not cached.  A
# pass of the verify suites and the bundled specs reads about 50 entries.
# Code that patches kappa must cache_clear() these caches.  A float row is
# not memoized: equal complex hbar that differ in the sign of a zero
# imaginary part give rows that differ in the signs of zeros.
_ROW_CACHE = 256


@functools.lru_cache(maxsize=_ROW_CACHE, typed=True)
def _pole_of(hv):
    """The k of the pole -1/k that hbar hits, 0 for the pole 0, else None;
    a non-finite float raises DomainError.  Memoized per hbar.

    Only the k nearest the real part of -1/hbar can be hit, and it is hit
    when its divisor 1 + k hbar fails the test of :func:`_c_divisor`:
    exactly 0 for an exact hbar, within 1e-14 (1 + k |hbar|) for a float,
    which puts k within 1e-14 (k + 1/|hbar|) of -1/hbar."""
    if not (is_exact(hv) or cmath.isfinite(complex(hv))):
        raise DomainError(f"deformation parameter {hv!r} is not finite")
    if hv == 0:
        return 0
    x = -(_one_like(hv) / hv).real
    if 0 < x < cmath.inf:
        k = round(x)
        try:
            _c_divisor(hv, k)
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
    """hbar for the product loops: only the pole 0 is rejected up front, a
    pole -1/k only by a kappa row that forms its divisor (:func:`_kappas`),
    as a finite sum short of it is a legitimate evaluation."""
    if _pole_of(h) == 0:
        raise DomainError(
            f"deformation parameter {h!r} hits the excluded pole 0")
    return h


def _c_divisor(hv, n):
    """1 + n*hbar, the divisor of kappa_{n+1}; raises at the pole -1/n, at 0
    for an exact hbar, else within 1e-14 relative.  _pole_of applies it."""
    den = _one_like(hv) + n * hv
    if den == 0 if is_exact(hv) else abs(den) <= 1e-14 * (1.0 + n * abs(hv)):
        raise _pole_error(n)
    return den


def _pole_error(n: int) -> DomainError:
    return DomainError(f"deformation parameter hits the excluded pole -1/{n}")


def _c_stream(hv, nmax: int):
    """[c_0, ..., c_nmax] as kappa_n/n! (:func:`_kappas`): exact for an
    exact hbar, each entry (a + b i)/d rebuilt once as (a + b i)/(d n!)
    in its kind; at a float hbar an entry past n = 170 underflows to 0."""
    out, fact = [], 1
    for n, k in enumerate(_kappas(hv, nmax)):
        fact *= n or 1
        if not is_exact(k):
            out.append(k * Fraction(1, fact))
            continue
        a, b, d = _parts(k)
        out.append(_make(a, b, d * fact) if isinstance(k, QC) else Fraction(a, d * fact))
    return out


def c_sequence(h, nmax: int):
    """[c_0, ..., c_nmax] for a hbar off every pole (:func:`_c_stream`)."""
    return _c_stream(Hbar(h).value, nmax)


def c_n(h, n: int):
    """c_0 = 1, c_n = hbar^n / prod_{j=0}^{n-1} (1 + j hbar)."""
    if n < 0:
        raise ValueError("coefficient index must be >= 0")
    return c_sequence(h, n)[n]


def c_direct_sequence(h, nmax: int):
    """[c_0, ..., c_nmax] from the product formula, independent of the
    recurrence: hbar^n and prod_{j<n} (1 + j hbar) are two running
    products, divided once per n."""
    hv = Hbar(h).value
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
    """f g at z, checked as a batch of points checks each in turn.  The
    value multiplies f(z) and g(z) as given.  When a coefficient or z is a
    float, the exact product of their binary values is formed too
    (BiPoly.eval sums exactly at a QC point), and the tail is a float at
    least the distance between the two (:func:`_distance_bound`); a
    non-finite coefficient raises DomainError, and a value past the float
    range FloatRangeError."""
    _check_disk(z)
    if not (isinstance(f, PolyDisk) and isinstance(g, PolyDisk)):
        raise NonTerminatingError(
            "exact-finite mode requires polynomial disk functions")
    _require_termination(f.f, g.f)
    value, tail = f.value(z) * g.value(z), 0.0
    if not all(map(is_exact, (z, *f.f.coeffs.values(), *g.f.coeffs.values()))):
        zx = _exact(z)
        fx, gx = (BiPoly({k: _exact(a) for k, a in p.f.coeffs.items()}) for p in (f, g))
        exact = fx.eval_diag(zx) * gx.eval_diag(zx)
        if not cmath.isfinite(value):
            raise FloatRangeError("the exact-finite disk product leaves the range "
                                  "of double precision")
        tail = _distance_bound(_exact(value), exact)
    return StarResult(value, 1, tail, "terminated")


def _distance_bound(x, y) -> float:
    """A float at least |x - y|, for exact x and y, within about an ulp of
    it: hypot's rounding is corrected upward by an exact test."""
    d = x - y
    square = d.real ** 2 + d.imag ** 2
    t = hypot(d.real, d.imag)
    while Fraction(t) ** 2 < square:
        t = nextafter(t, inf)
    return t


# ---------------------------------------------------------------------------
# the annulus and punctured-disk products (entire-function model)
# ---------------------------------------------------------------------------


# The weight of term n on each surface is (w^2 - s)^n: s = 1 on the annulus,
# s = 0 on the punctured disk.  Both engines read it here: the exact pass
# (_surface_poly) and the float towers (towers._surface_rows).
_WEIGHT_SHIFT = {"annulus": 1, "punctured": 0}


def _row_pole(hv, m: int):
    """Raise if kappa_0..kappa_m forms the divisor of hbar's pole -1/k."""
    k = _pole_of(hv)
    if k and k < m:
        raise _pole_error(k)


def _kappas(hv, m: int) -> list:
    """[kappa_0, ..., kappa_m] by the recurrence
    kappa_n = kappa_{n-1} n hbar/(1 + (n-1) hbar), the family's one
    recurrence; it raises first iff the row forms hbar's pole's divisor.
    The entries take the kind of hbar: Fraction for an int or a Fraction,
    QC for a QC, complex for a float or a complex.

    A float hbar is stepped in float arithmetic, one entry from the last
    (the float engine's rows, ``towers._kappa_row``, are these).  An exact
    hbar = (a + b i)/d is stepped on Gaussian integers, the numerator
    N_n = N_{n-1} n (a + b i) and the denominator
    D_n = D_{n-1} (d + (n-1)(a + b i)), and each entry N_n/D_n is reduced
    once."""
    _row_pole(hv, m)
    if not is_exact(hv):
        one = complex(1)
        out = [one]
        for n in range(1, m + 1):
            out.append(out[-1] * (n * hv) / (one + (n - 1) * hv))
        return out
    a, b, d = _parts(hv)
    qc = isinstance(hv, QC)
    nr, ni, dr, di = 1, 0, 1, 0
    out = [_make(1, 0, 1) if qc else Fraction(1)]
    for n in range(1, m + 1):
        p, q = d + (n - 1) * a, (n - 1) * b
        nr, ni = n * (nr * a - ni * b), n * (nr * b + ni * a)
        dr, di = dr * p - di * q, dr * q + di * p
        # N/D = N conj(D)/|D|^2; for a real hbar b = 0, so ni = di = 0
        out.append(_make(nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di)
                   if qc else Fraction(nr, dr))
    return out


@functools.lru_cache(maxsize=_ROW_CACHE, typed=True)
def _exact_kappas(hv, m: int) -> tuple:
    """(kappas, (re, im, den)): the exact row kappa_0..kappa_m of the exact
    value of hbar (:func:`_kappas`) and its Gaussian-integer numerators over
    one denominator, as tuples.  The pole test reads hbar as given: float
    -1/3 is not -1/3 but hits its pole.  Memoized per (hbar as given, m)."""
    _row_pole(hv, m)
    kappas = _kappas(_exact(hv), m)
    kr, ki, dk = _numerators(kappas)
    return tuple(kappas), (tuple(kr), tuple(ki), dk)


def _surface_poly(g: PolyFn, gt: PolyFn, hv, surface: str) -> StarResult:
    """The exact surface product of two polynomials as a PolyFn in w: the
    one pass of the module docstring, sum_n kappa_n (w^2 - s)^n P_n with
    P_n = (g^(n)/n!) (gt^(n)/n!) and s = _WEIGHT_SHIFT[surface], ending
    after m + 1 terms, m = min(deg g, deg gt).

    It is summed by Horner's rule in n, from n = m down to 0, in one step
    per n on Gaussian-integer numerators, with the binomial rows
    C(k, n) a_k of g^(n)/n! and C(k, n) b_k of gt^(n)/n!.  Real rows are
    convolved into one integer row and kappa_n is taken once per
    coefficient of it; complex rows take kappa_n into the row of g once
    and are convolved straight into the accumulator.  For n > 0 the
    accumulator is then multiplied by w^2 - s in place.  The sum is
    exact, so its order does not matter, and the multiplication stops two
    places past the accumulator's degree: after step n it holds
    sum_{k>=n} kappa_k (w^2 - s)^{k-n} P_k, of degree at most
    size - 1 - 2n, as P_k has degree size - 1 - 2k.  Each coefficient is
    built once, in the widest kind among the inputs
    (:func:`wickstar.functions._exact_coeffs`) and at least a Fraction, as
    kappa is; a float or complex hbar or coefficient enters as its exact
    binary value, a QC."""
    m = min(len(g.coeffs), len(gt.coeffs)) - 1
    kappas, (kr, ki, dk) = _exact_kappas(hv, m)
    a, b = [*map(_exact, g.coeffs)], [*map(_exact, gt.coeffs)]
    (ar, ai, da), (br, bi, db) = map(_numerators, (a, b))
    size = len(ar) + len(br) - 1
    s = _WEIGHT_SHIFT[surface]
    real_rows = not (any(ai) or any(bi))
    re = [0] * size
    im = None if real_rows and not any(ki) else [0] * size
    for n in range(m, -1, -1):
        u, v = kr[n], ki[n]
        # the row C(k, n) b_k of gt^(n)/n!, k >= n
        cs = [comb(k, n) for k in range(n, len(br))]
        yr = [c * y for c, y in zip(cs, br[n:])]
        if real_rows:
            # the rows' convolution, then kappa_n = u + v i once per coefficient
            into = [0] * (size - 2 * n)
            for i, k in enumerate(range(n, len(ar))):
                p = comb(k, n) * ar[k]
                if p:
                    for j, y in enumerate(yr, i):
                        into[j] += p * y
            for j, x in enumerate(into):
                re[j] += u * x
            if im is not None:
                for j, x in enumerate(into):
                    im[j] += v * x
        else:
            yi = [c * y for c, y in zip(cs, bi[n:])]
            for i, k in enumerate(range(n, len(ar))):
                # kappa_n C(k, n) a_k = p + q i, convolved into the accumulator
                c = comb(k, n)
                x, z = c * ar[k], c * ai[k]
                p, q = x * u - z * v, x * v + z * u
                for j, (y, t) in enumerate(zip(yr, yi), i):
                    re[j] += p * y - q * t
                    im[j] += p * t + q * y
        if n:
            # times w^2 - s in place, up to the accumulator's degree + 2
            top = size + 2 - 2 * n
            for acc in (re, im) if im is not None else (re,):
                acc[2:top] = [p - s * q for p, q in zip(acc, acc[2:top])] if s else acc[:top - 2]
                acc[0], acc[1] = -s * acc[0], -s * acc[1]
    coeffs = _exact_coeffs(re, im, dk * da * db, kappas, a, b)
    return StarResult(PolyFn(coeffs), len(kappas), 0.0, "terminated")


def _poly_product(g: PolyFn, gt: PolyFn, h, surface: str) -> PolyFn:
    """The surface product, rounded once per coefficient on a float input."""
    hv = _lenient_value(h)
    prod = _surface_poly(g, gt, hv, surface).value
    exact = all(map(is_exact, (hv, *g.coeffs, *gt.coeffs)))
    return prod if exact else PolyFn([to_complex(c) for c in prod.coeffs])


def _star_entire(g, gt, h, w, cfg, surface):
    cfg = cfg if cfg is not None else StarConfig()
    hv = _lenient_value(h)
    points, batched = _points(w)
    if not points:
        return []
    if cfg.mode == "exact-finite":
        if not (isinstance(g, PolyFn) and isinstance(gt, PolyFn)):
            raise NonTerminatingError(
                "exact-finite mode requires polynomial operands")
        res = _surface_poly(g, gt, hv, surface)
        exact = all(map(is_exact, (hv, *g.coeffs, *gt.coeffs)))
        out = []
        for p in points:
            value, tail = res.value.eval(_exact(p))[0], 0.0
            if not (exact and is_exact(p)):
                # the exact value of the binary inputs, rounded once
                value = to_complex(value)
                tail = (ulp(value.real) + ulp(value.imag)) / 2
            out.append(replace(res, value=value, tail_estimate=tail))
    else:
        import wickstar.towers as towers
        out = towers.surface_sums(g, gt, to_complex(hv), [to_complex(p) for p in points],
                                  cfg.max_terms, cfg.tol, surface)
    return out if batched else out[0]


def star_annulus(g, gt, h, w, cfg: StarConfig | None = None):
    """(g o f_R) * (gt o f_R) evaluated in the chart variable w = f_R: at
    one point, or at each of a 1-D sequence of points as a list."""
    return _star_entire(g, gt, h, w, cfg, "annulus")


def star_punctured(g, gt, h, w, cfg: StarConfig | None = None):
    """(g o f_0) * (gt o f_0) in the chart variable w = f_0, at one point
    or at each of a 1-D sequence of points as a list."""
    return _star_entire(g, gt, h, w, cfg, "punctured")


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
    truncation error at |z| <= r decays like r^{2 n_terms}.  The towers are
    stepped first (:func:`wickstar.peschl_minda.pm_step`) and end early when
    one dies; only then is kappa formed, so a pole raises only if a term
    that exists divides by its divisor (:func:`_kappas`).  Each term
    kappa_n (Dbar^n f/n!) (D^n g/n!) is added into one dict, term after term,
    with the arithmetic and the zero-dropping of a BiPoly sum."""
    if n_terms < 0:
        raise ValueError("the number of terms must be >= 0")
    hv = _lenient_value(h)
    pairs = []
    f_bar, g_d = f, g
    for n in range(1, n_terms + 1):
        f_bar, g_d = pm_step(f_bar, n - 1, "w"), pm_step(g_d, n - 1, "z")
        if f_bar.is_zero or g_d.is_zero:
            break
        pairs.append((f_bar, g_d))
    kappas = _kappas(hv, len(pairs))
    out = BiPoly()
    # kappa_0 is 1: the first term enters as it is, the others are added in
    out.coeffs = d = {key: c * kappas[0] for key, c in (f * g).coeffs.items()}
    for (a, b), k in zip(pairs, kappas[1:]):
        if k == 0:  # an underflowed float kappa: the term is the zero polynomial
            continue
        for key, c in (a * b).coeffs.items():
            v = d.get(key, 0) + c * k
            if v == 0:
                d.pop(key, None)
            else:
                d[key] = v
    return out


def star_annulus_poly(g: PolyFn, gt: PolyFn, h) -> PolyFn:
    """The annulus product of two polynomials as a polynomial in w."""
    return _poly_product(g, gt, h, "annulus")


def star_punctured_poly(g: PolyFn, gt: PolyFn, h) -> PolyFn:
    """The punctured-disk product of two polynomials in w."""
    return _poly_product(g, gt, h, "punctured")


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
