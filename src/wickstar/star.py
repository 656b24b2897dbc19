"""The coefficient family c_n(hbar) and the three Wick-type star products.

Every product is the series sum_n c_n/n! w_n D^n g Dbar^n f of the paper,
summed in the normalized form

    sum_n kappa_n t_n,   kappa_n = c_n n! = n!/(1/hbar)_n,
    kappa_{n+1} = kappa_n (n + 1) hbar / (1 + n hbar),

by one kernel (:func:`_sum_series`).  kappa_n grows or decays only
polynomially in n (it is 1/(n+1) at hbar = 1/2), where c_n/n! underflows
near n = 100.  The terms t_n are products of the Taylor coefficients that
the towers carry, so no n! is formed anywhere:

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
product of polynomials ends after min(deg g, deg gt) + 1 terms.

The deformation parameter lives in C minus {0, -1, -1/2, -1/3, ...};
:class:`Hbar` guards the poles: exactly for rational-complex values, and
for floats by the relative test that the sums apply to each divisor
1 + k hbar (:func:`_c_divisor`); a non-finite float is refused too.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonTerminatingError, WickstarError
from .exact import QC, is_exact, to_complex
from .functions import BiPoly, PolyFn, taylor_tower
from .peschl_minda import DiskFunction, PolyDisk, _check_disk, pm_step


# ---------------------------------------------------------------------------
# deformation parameter
# ---------------------------------------------------------------------------


# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0 ** -53


def _pole_of(value):
    """Name of the pole the value hits ("0" or "-1/k"), else None; a
    non-finite float raises DomainError."""
    if is_exact(value):
        if isinstance(value, QC):
            re, im = value.re, value.im
        else:
            re, im = Fraction(value), Fraction(0)
        if re == 0 and im == 0:
            return "0"
        if im == 0 and re < 0:
            q = -1 / Fraction(re)
            if q.denominator == 1:
                return f"-1/{q.numerator}"
        return None
    h = complex(value)
    if not cmath.isfinite(h):
        raise DomainError(f"deformation parameter {value!r} is not finite")
    if h == 0:
        return "0"
    x = (-1 / h).real
    if 0.5 <= x < cmath.inf:
        # the test the sums apply to the divisor 1 + k hbar
        k = round(x)
        try:
            _c_divisor(1.0, h, k, False)
        except DomainError:
            return f"-1/{k}"
    return None


class Hbar:
    """Deformation parameter; rejects the poles of the coefficient family."""

    __slots__ = ("value",)

    def __init__(self, value):
        pole = _pole_of(value)
        if pole is not None:
            raise DomainError(
                f"deformation parameter {value!r} hits the excluded pole {pole}")
        self.value = value

    @staticmethod
    def of(h) -> "Hbar":
        return h if isinstance(h, Hbar) else Hbar(h)

    def __repr__(self):
        return f"Hbar({self.value!r})"


def _one_like(hv):
    if isinstance(hv, QC):
        return QC(1)
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
    if _pole_of(v) == "0":
        raise DomainError(
            f"deformation parameter {v!r} hits the excluded pole 0")
    return v


def _c_divisor(one, hv, n, exact):
    """1 + n*hbar, the divisor of the step c_n -> c_{n+1}; raises at the
    pole hbar = -1/n: exactly at 0 when ``exact`` (hbar is exact), else
    within a relative distance of 1e-14."""
    den = one + n * hv
    if den == 0 if exact else abs(den) <= 1e-14 * (1.0 + n * abs(hv)):
        raise DomainError(
            f"deformation parameter hits the excluded pole -1/{n}")
    return den


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


def c_n_direct(h, n: int):
    """Independent evaluation of c_n from the product formula."""
    if n < 0:
        raise ValueError("coefficient index must be >= 0")
    hv = Hbar.of(h).value
    one = _one_like(hv)
    num = one
    den = one
    for j in range(n):
        num = num * hv
        den = den * (one + j * hv)
    return num / den


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
# the summation kernel
# ---------------------------------------------------------------------------


def _sum_series(hv, terms, max_terms: int | None = None, tol: float | None = None):
    """sum_n kappa_n t_n over the pairs (t_n, err_n) that ``terms`` yields
    for n = 0, 1, ...

    t_n is a number, QC, BiPoly or PolyFn, a product of Taylor coefficients
    and so of the size of the term itself; err_n bounds the error of t_n.
    The divisor 1 + (n-1) hbar of kappa_n is formed only when term n
    arrives, so a pole beyond the last term is never hit; whether the pole
    test is exact or float is read once, from the type of hbar.  The sum
    stops when ``terms`` ends ("terminated"), when three successive terms
    fall below tol * max(1, |sum|) ("tol"), or after max_terms + 1 terms
    ("budget").

    A tol is given for number terms.  Their tail estimate is the last
    three terms plus the bounds err_n and, for a float sum, the rounding
    bound gamma_m sum_k |kappa_k t_k| of m terms summed in turn, gamma_m =
    m u/(1 - m u) with u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 4.2).  An exact sum rounds
    nothing."""
    one, exact = _one_like(hv), is_exact(hv)
    kappa = one
    total, err, mass = None, 0.0, 0.0
    r1 = r2 = r3 = 0.0  # the sizes of the last three terms
    stop, used = "terminated", 0
    for n, (t, t_err) in enumerate(terms):
        if n:
            kappa = kappa * (n * hv) / _c_divisor(one, hv, n - 1, exact)
        term = t * kappa
        total = term if total is None else total + term
        used = n + 1
        if t_err:
            err += abs(kappa) * t_err
        if tol is not None:
            r1, r2, r3 = r2, r3, abs(term)
            mass += r3
            if n >= 2 and max(r1, r2, r3) < tol * max(1.0, abs(total)):
                stop = "tol"
                break
        if n == max_terms:
            stop = "budget"
            break
    tail = r1 + r2 + r3 + err
    if not exact:
        gamma = used * _UNIT_ROUNDOFF
        tail += gamma / (1 - gamma) * mass
    return StarResult(total, used, tail, stop)


def _float_term(a, a_err, b, b_err, weight=1.0):
    """(weight a b, error bound) for the kernel, from float Taylor
    coefficients a, b with error bounds."""
    a, b = to_complex(a), to_complex(b)
    if not (a_err or b_err):
        return weight * a * b, 0.0
    return weight * a * b, abs(weight) * (abs(a) * b_err + abs(b) * a_err + a_err * b_err)


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
    """(f * g)(z) = sum_n c_n/n! D^n g(z) Dbar^n f(z)."""
    cfg = cfg if cfg is not None else StarConfig()
    hv = _lenient_value(h)
    _check_disk(z)
    if cfg.mode == "exact-finite":
        if not (isinstance(f, PolyDisk) and isinstance(g, PolyDisk)):
            raise NonTerminatingError(
                "exact-finite mode requires polynomial disk functions")
        _require_termination(f.f, g.f)
        return StarResult(f.value(z) * g.value(z), 1, 0.0, "terminated")
    zc = to_complex(z)
    return _sum_series(to_complex(hv), _disk_terms(f, g, zc, cfg.max_terms),
                       cfg.max_terms, cfg.tol)


def _disk_terms(f, g, z, max_terms):
    # one fetch of each tower to max_terms: a single jet (an array) for the
    # jet variants, a lazy stream of pairs for the closed forms, which form
    # no term past the one where the sum stops
    a, b = f.pm_bar_sequence(max_terms, z), g.pm_sequence(max_terms, z)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return _pairs(a * b)
    return (_float_term(*x, *y) for x, y in zip(_pairs(a), _pairs(b)))


def _pairs(tower):
    """A tower as (value, error bound) pairs; a jet array is exact."""
    if isinstance(tower, np.ndarray):
        return zip(tower.tolist(), itertools.repeat(0.0))
    return tower


# ---------------------------------------------------------------------------
# the annulus and punctured-disk products (entire-function model)
# ---------------------------------------------------------------------------


def _weights(x, variant: str):
    """w_0, w_1, ... at x (a number, or the variable PolyFn([0, 1])):
    (x^2-1)^n on the annulus, x^{2n} on the punctured disk, and 1, x^2,
    x^2, ... for its printed variant, which is wrong from n = 2 on and is
    kept only so the coherence checks can show it."""
    step = x * x - 1 if variant == "annulus" else x * x
    wn = step * 0 + 1
    while True:
        yield wn
        wn = step if variant == "printed" else wn * step


def _surface_poly(g: PolyFn, gt: PolyFn, hv, variant: str) -> StarResult:
    """The surface product of two polynomials as an exact PolyFn in w."""
    def terms():
        towers = zip(_weights(PolyFn([0, 1]), variant),
                     taylor_tower(g, Fraction(1)), taylor_tower(gt, Fraction(1)))
        for n, (wn, dg, dgt) in enumerate(towers):
            if n and (dg.is_zero or dgt.is_zero):
                return
            yield wn * dg * dgt, 0.0
    return _sum_series(hv, terms())


def _entire_terms(g, gt, w, variant):
    # a geometric weight rho^n is split as r^n r^n with r^2 = rho, and r
    # rides in both towers (Taylor coefficients of u -> g(w + r u)), so no
    # power of rho is formed alone, to overflow while the towers underflow
    if variant == "printed":
        r, weights = 1.0, _weights(w, variant)
    else:
        r = cmath.sqrt(w * w - 1) if variant == "annulus" else w
        weights = itertools.repeat(1.0)
    for wn, gn, gtn in zip(weights, taylor_tower(g, r), taylor_tower(gt, r)):
        yield _float_term(*gn.eval(w), *gtn.eval(w), wn)


def _star_entire(g, gt, h, w, cfg, variant):
    cfg = cfg if cfg is not None else StarConfig()
    hv = _lenient_value(h)
    if cfg.mode == "exact-finite":
        if not (isinstance(g, PolyFn) and isinstance(gt, PolyFn)):
            raise NonTerminatingError(
                "exact-finite mode requires polynomial operands")
        res = _surface_poly(g, gt, hv, variant)
        return replace(res, value=res.value.eval(w)[0])
    wc = to_complex(w)
    return _sum_series(to_complex(hv), _entire_terms(g, gt, wc, variant),
                       cfg.max_terms, cfg.tol)


def star_annulus(g, gt, h, w, cfg: StarConfig | None = None):
    """(g o f_R) * (gt o f_R) evaluated in the chart variable w = f_R."""
    return _star_entire(g, gt, h, w, cfg, "annulus")


def star_punctured(g, gt, h, w, cfg: StarConfig | None = None,
                   weight_variant: str = "derived"):
    """(g o f_0) * (gt o f_0) in the chart variable w = f_0."""
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
    truncation error at |z| <= r decays like r^{2 n_terms}."""
    def terms():
        f_bar, g_d = f, g
        for n in itertools.count():
            if n:
                f_bar = pm_step(f_bar, n - 1, "w")
                g_d = pm_step(g_d, n - 1, "z")
                if f_bar.is_zero or g_d.is_zero:
                    return
            yield f_bar * g_d, 0.0
    return _sum_series(_lenient_value(h), terms(), n_terms).value


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
