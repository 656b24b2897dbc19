"""The coefficient family c_n(hbar) and the three Wick-type star products.

Products implemented:

* :func:`star_disk`      -- (f * g)(z) = sum_n c_n/n! D^n g(z) Dbar^n f(z)
  on the unit disk; note the operand order: the FIRST factor takes Dbar,
  the SECOND takes D.
* :func:`star_annulus`   -- sum_n c_n/n! (w^2-1)^n g^(n)(w) gt^(n)(w).
* :func:`star_punctured` -- sum_n c_n/n! w^{2n}   g^(n)(w) gt^(n)(w).
  The historically circulated display carries a fixed w^2 factor instead
  of w^{2n}; that variant is kept behind ``weight_variant="printed"`` so
  the lift-coherence check can discriminate the two.

The deformation parameter lives in C minus {0, -1, -1/2, -1/3, ...};
:class:`Hbar` guards the poles (exactly for rational-complex values,
with a distance threshold for floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonTerminatingError, WickstarError
from .exact import QC, is_exact, to_complex
from .functions import BiPoly, PolyFn
from .peschl_minda import DiskFunction, PolyDisk, _check_disk, pm_step


# ---------------------------------------------------------------------------
# deformation parameter
# ---------------------------------------------------------------------------


def _pole_of(value, tol: float):
    """Name of the pole the value hits ("0" or "-1/k"), else None."""
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
    if abs(h) <= tol:
        return "0"
    k = round((-1 / h).real)
    if k >= 1 and abs(h + 1 / k) <= tol:
        return f"-1/{k}"
    return None


class Hbar:
    """Deformation parameter; rejects the poles of the coefficient family."""

    __slots__ = ("value", "exact")

    def __init__(self, value, tol: float = 1e-12):
        pole = _pole_of(value, tol)
        if pole is not None:
            raise DomainError(
                f"deformation parameter {value!r} hits the excluded pole {pole}")
        self.value = value
        self.exact = is_exact(value)

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


def _lenient_value(h, tol: float = 1e-12):
    """Deformation value for the product loops.

    Only the pole at 0 is rejected up front; a pole -1/k is rejected
    lazily, at the moment the k-th recurrence divisor is actually formed.
    A finite sum that never reaches that divisor (polynomial operands of
    low degree) is a legitimate evaluation even when the full coefficient
    family has a pole further out."""
    v = h.value if isinstance(h, Hbar) else h
    if _pole_of(v, tol) == "0":
        raise DomainError(
            f"deformation parameter {v!r} hits the excluded pole 0")
    return v


def _c_divisor(one, hv, n):
    """1 + n*hbar, the divisor of the step c_n -> c_{n+1}; raises at the
    pole hbar = -1/n."""
    den = one + n * hv
    if den == 0 or (not is_exact(den)
                    and abs(den) <= 1e-14 * (1.0 + n * abs(hv))):
        raise DomainError(
            f"deformation parameter hits the excluded pole -1/{n}")
    return den


def _c_stream(hv, nmax: int):
    """[c_0, ..., c_nmax] with lazy pole checks (see _lenient_value)."""
    one = _one_like(hv)
    out = [one]
    for n in range(nmax):
        out.append(out[-1] * hv / _c_divisor(one, hv, n))
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
    converged: bool


def _scaled(cn, v, n):
    """c_n * v / n!, coercing the coefficient to float when v is float."""
    scale = cn if is_exact(v) else to_complex(cn)
    return scale * v / math.factorial(n)


# ---------------------------------------------------------------------------
# the disk product
# ---------------------------------------------------------------------------


def star_disk(f: DiskFunction, g: DiskFunction, h, z, cfg: StarConfig | None = None):
    """(f * g)(z) = sum_n c_n/n! D^n g(z) Dbar^n f(z)."""
    cfg = cfg if cfg is not None else StarConfig()
    hv = _lenient_value(h)
    _check_disk(z)
    if cfg.mode == "exact-finite":
        return _star_disk_exact(f, g, hv, z, cfg)
    return _star_disk_truncated(f, g, hv, z, cfg)


def _star_disk_exact(f, g, hv, z, cfg):
    if not (isinstance(f, PolyDisk) and isinstance(g, PolyDisk)):
        raise NonTerminatingError(
            "exact-finite mode requires polynomial disk functions")
    one = _one_like(hv)
    c = one
    total = None
    terms = 0
    for n in range(cfg.max_terms + 1):
        f_bar = f.pm_bar_poly(n)
        g_d = g.pm_poly(n)
        if n >= 1 and (f_bar.is_zero or g_d.is_zero):
            return StarResult(total, terms, 0.0, True)
        if n > 0:
            c = c * hv / _c_divisor(one, hv, n - 1)
        term = _scaled(c, f_bar.eval_diag(z) * g_d.eval_diag(z), n)
        total = term if total is None else total + term
        terms = n + 1
    raise NonTerminatingError(
        "the star series does not terminate for these operands; "
        "use truncated mode")


def _star_disk_truncated(f, g, hv, z, cfg):
    hv = to_complex(hv)
    zc = to_complex(z)
    c = 1.0 + 0j
    total = 0j
    bound_acc = 0.0
    recent = []
    terms = 0
    converged = False
    # derivative towers are fetched in growing batches so variants that
    # batch well (one jet per order) are not recomputed per term; each
    # batch starts where the last one ended
    f_seq: list = []
    g_seq: list = []

    def ensure(n):
        if n < len(f_seq):
            return
        target = min(cfg.max_terms, max(8, 2 * n))
        f_seq.extend(f.pm_bar_sequence(target, zc, start=len(f_seq)))
        g_seq.extend(g.pm_sequence(target, zc, start=len(g_seq)))

    for n in range(cfg.max_terms + 1):
        if n > 0:
            c = c * hv / _c_divisor(1.0 + 0j, hv, n - 1)
        ensure(n)
        fv, f_err = f_seq[n]
        gv, g_err = g_seq[n]
        fv, gv = to_complex(fv), to_complex(gv)
        scale = c / math.factorial(n)
        total += scale * fv * gv
        bound_acc += abs(scale) * (abs(fv) * g_err + abs(gv) * f_err + f_err * g_err)
        terms = n + 1
        recent.append(abs(scale * fv * gv))
        if len(recent) > 3:
            recent.pop(0)
        if len(recent) == 3 and all(m <= cfg.tol * max(1.0, abs(total)) for m in recent):
            converged = True
            break
    return StarResult(total, terms, sum(recent) + bound_acc, converged)


# ---------------------------------------------------------------------------
# the annulus and punctured-disk products (entire-function model)
# ---------------------------------------------------------------------------


def _weight_annulus(w, n):
    return (w * w - 1) ** n


def _weight_punctured(w, n):
    return w ** (2 * n)


def _weight_punctured_printed(w, n):
    # the fixed-exponent variant of the circulated display; kept only so
    # the coherence checks can demonstrate that it is wrong for n >= 2
    return w ** 0 if n == 0 else w ** 2


def _star_entire(g, gt, hv, w, cfg, weight):
    if cfg.mode == "exact-finite":
        if not (isinstance(g, PolyFn) and isinstance(gt, PolyFn)):
            raise NonTerminatingError(
                "exact-finite mode requires polynomial operands")
        nmax = min(g.degree, gt.degree)
        cs = _c_stream(hv, nmax)
        total = None
        for n in range(nmax + 1):
            v = weight(w, n) * g.derivative(n).eval(w)[0] * gt.derivative(n).eval(w)[0]
            term = _scaled(cs[n], v, n)
            total = term if total is None else total + term
        return StarResult(total, nmax + 1, 0.0, True)

    hv = to_complex(hv)
    wc = to_complex(w)
    c = 1.0 + 0j
    total = 0j
    bound_acc = 0.0
    recent = []
    terms = 0
    converged = False
    for n in range(cfg.max_terms + 1):
        if n > 0:
            c = c * hv / _c_divisor(1.0 + 0j, hv, n - 1)
        gv, g_err = g.derivative(n).eval(wc)
        gtv, gt_err = gt.derivative(n).eval(wc)
        gv, gtv = complex(gv), complex(gtv)
        scale = c * complex(weight(wc, n)) / math.factorial(n)
        total += scale * gv * gtv
        bound_acc += abs(scale) * (abs(gv) * gt_err + abs(gtv) * g_err + g_err * gt_err)
        terms = n + 1
        recent.append(abs(scale * gv * gtv))
        if len(recent) > 3:
            recent.pop(0)
        if len(recent) == 3 and all(m <= cfg.tol * max(1.0, abs(total)) for m in recent):
            converged = True
            break
    return StarResult(total, terms, sum(recent) + bound_acc, converged)


def star_annulus(g, gt, h, w, cfg: StarConfig | None = None):
    """(g o f_R) * (gt o f_R) evaluated in the chart variable w = f_R."""
    cfg = cfg if cfg is not None else StarConfig()
    return _star_entire(g, gt, _lenient_value(h), w, cfg, _weight_annulus)


def star_punctured(g, gt, h, w, cfg: StarConfig | None = None,
                   weight_variant: str = "derived"):
    """(g o f_0) * (gt o f_0) in the chart variable w = f_0."""
    cfg = cfg if cfg is not None else StarConfig()
    if weight_variant == "derived":
        weight = _weight_punctured
    elif weight_variant == "printed":
        weight = _weight_punctured_printed
    else:
        raise ValueError(f"unknown weight variant {weight_variant!r}")
    return _star_entire(g, gt, _lenient_value(h), w, cfg, weight)


# symbolic (coefficientwise) products on polynomials --------------------------


def star_disk_poly_exact(f: BiPoly, g: BiPoly, h, max_terms: int = 64) -> BiPoly:
    """The disk product of two polynomial functions as an exact BiPoly.

    Only possible when a derivative tower dies: the first operand f is
    holomorphic or the second operand g is antiholomorphic (so z * z**2
    and conj z * conj z terminate, conj z * z does not), and then the
    product is f g.  Otherwise the series has infinitely many nonzero
    polynomial terms and NonTerminatingError is raised."""
    hv = _lenient_value(h)
    one = _one_like(hv)
    c = one
    total = BiPoly()
    f_bar, g_d = f, g
    for n in range(max_terms + 1):
        if n > 0:
            f_bar = pm_step(f_bar, n - 1, "w")
            g_d = pm_step(g_d, n - 1, "z")
            if f_bar.is_zero or g_d.is_zero:
                return total
            c = c * hv / _c_divisor(one, hv, n - 1)
        total = total + f_bar * g_d * (c * Fraction(1, math.factorial(n)))
    raise NonTerminatingError(
        "the star series does not terminate for these operands")


def star_disk_poly_truncated(f: BiPoly, g: BiPoly, h, n_terms: int) -> BiPoly:
    """The first n_terms+1 polynomial terms of the disk product.

    Each term of the series is again a polynomial in (z, conj z); the
    truncation error at |z| <= r decays like r^{2 n_terms}."""
    hv = _lenient_value(h)
    one = _one_like(hv)
    c = one
    total = BiPoly()
    f_bar, g_d = f, g
    for n in range(n_terms + 1):
        if n > 0:
            f_bar = pm_step(f_bar, n - 1, "w")
            g_d = pm_step(g_d, n - 1, "z")
            if f_bar.is_zero or g_d.is_zero:
                break
            c = c * hv / _c_divisor(one, hv, n - 1)
        total = total + f_bar * g_d * (c * Fraction(1, math.factorial(n)))
    return total


def star_annulus_poly(g: PolyFn, gt: PolyFn, h) -> PolyFn:
    """The annulus product of two polynomials as an exact polynomial in w."""
    nmax = min(g.degree, gt.degree)
    cs = _c_stream(_lenient_value(h), nmax)
    w2m1 = PolyFn([-1, 0, 1])
    weight = PolyFn([1])
    total = PolyFn([0])
    for n in range(nmax + 1):
        total = total + weight * g.derivative(n) * gt.derivative(n) * (
            cs[n] * Fraction(1, math.factorial(n)))
        weight = weight * w2m1
    return total


def star_punctured_poly(g: PolyFn, gt: PolyFn, h,
                        weight_variant: str = "derived") -> PolyFn:
    """The punctured-disk product of two polynomials, exact in w."""
    if weight_variant not in ("derived", "printed"):
        raise ValueError(f"unknown weight variant {weight_variant!r}")
    nmax = min(g.degree, gt.degree)
    cs = _c_stream(_lenient_value(h), nmax)
    w2 = PolyFn([0, 0, 1])
    total = PolyFn([0])
    for n in range(nmax + 1):
        if n == 0:
            weight = PolyFn([1])
        elif weight_variant == "printed":
            weight = w2
        else:
            weight = PolyFn([1])
            for _ in range(n):
                weight = weight * w2
        total = total + weight * g.derivative(n) * gt.derivative(n) * (
            cs[n] * Fraction(1, math.factorial(n)))
    return total


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
