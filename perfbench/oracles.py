"""Reference values for the benchmark's checks.

None of these functions calls into wickstar: each one recomputes the
product it checks by a route the program does not take.

* ``zbar_star_z``      -- closed form of (conj z) * z through 2F1.
* ``bipoly_star``      -- the disk product of two bivariate polynomials,
  with the Peschl-Minda towers taken from the binomial expansion of
  F(T_z(u), conj z) instead of the program's symbolic recursion, summed
  in mpmath far past the program's term budget.
* ``surface_exp_star`` -- annulus / punctured products of exponentials,
  e^{(a+b)w} 0F1(; 1/h; a b x) with x = w^2 - 1 or w^2.
* ``surface_poly_star`` -- the same products of polynomials, a finite sum.
* ``exact_*``          -- exact complex-rational values built from
  ``fractions.Fraction`` pairs, for the exact workload.

The coefficient family is c_n = h^n / prod_{j<n} (1 + j h) = 1/(1/h)_n.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

DPS = 40
# a reference series is summed until its terms fall below this share of
# the running total (and past the peak of the term envelope)
SERIES_EPS = mp.mpf(10) ** -30


def _mpc(x) -> mp.mpc:
    x = complex(x)
    return mp.mpc(x.real, x.imag)


def _complex(x) -> complex:
    return complex(float(mp.re(x)), float(mp.im(x)))


# ---------------------------------------------------------------------------
# the disk product
# ---------------------------------------------------------------------------


def zbar_star_z(z, h) -> complex:
    """(conj z) * z = |z|^2 + h (1 - |z|^2)^2 2F1(1, 2; 1 + 1/h; |z|^2).

    z * conj z = |z|^2 exactly, so this is the commutator closed form
    (DLMF 15.2) shifted by |z|^2."""
    with mp.workdps(DPS):
        z = complex(z)
        r2 = mp.mpf(z.real) ** 2 + mp.mpf(z.imag) ** 2
        hm = _mpc(h)
        return _complex(r2 + hm * (1 - r2) ** 2 * mp.hyp2f1(1, 2, 1 + 1 / hm, r2))


def _power_coeff(i: int, x, xb, n: int, neg_xb_pow):
    """[u^n] ((x + u) / (1 + xb u))^i, from (x+u)^i (1+xb u)^{-i}."""
    if i == 0:
        return 1 if n == 0 else 0
    acc = 0
    for a in range(min(i, n) + 1):
        m = n - a
        acc += math.comb(i, a) * x ** (i - a) * neg_xb_pow[m] * math.comb(i + m - 1, m)
    return acc


def bipoly_star(f: dict, g: dict, h, z) -> complex:
    """(f * g)(z) = sum_n c_n/n! D^n g(z) Dbar^n f(z) for polynomial
    disk functions F(z, conj z), given as {(i, j): coefficient}.

    D^n g(z) = n! [u^n] G(T_z(u), conj z) and Dbar^n f(z) =
    n! [v^n] F(z, conj T_z(v)) with T_z(u) = (z + u)/(1 + conj(z) u), so
    the n-th term is kappa_n P_n Q_n with kappa_n = c_n n!."""
    with mp.workdps(DPS):
        x = _mpc(z)
        xb = mp.conj(x)
        hm = _mpc(h)
        f = {k: _mpc(a) for k, a in f.items()}
        g = {k: _mpc(a) for k, a in g.items()}
        max_deg = max(max(i, j) for i, j in list(f) + list(g))
        # the term envelope n^p |z|^{2n} peaks near p / (-2 log|z|)
        p = max(0.0, float(mp.re(1 - 1 / hm))) + 2 * max_deg + 2
        r = float(abs(x))
        n_peak = int(p / (-2 * math.log(r))) if r > 0 else 0
        pow_x = [mp.mpc(1)]   # (-z)^m
        pow_xb = [mp.mpc(1)]  # (-conj z)^m
        total = mp.mpc(0)
        kappa = mp.mpc(1)
        quiet = 0
        n = 0
        while True:
            if n > 0:
                pow_x.append(pow_x[-1] * -x)
                pow_xb.append(pow_xb[-1] * -xb)
                kappa = kappa * n * hm / (1 + (n - 1) * hm)
            p_n = sum(b * xb ** l * _power_coeff(k, x, xb, n, pow_xb)
                      for (k, l), b in g.items())
            q_n = sum(a * x ** i * _power_coeff(j, xb, x, n, pow_x)
                      for (i, j), a in f.items())
            term = kappa * p_n * q_n
            total += term
            if abs(term) <= SERIES_EPS * max(1, abs(total)):
                quiet += 1
            else:
                quiet = 0
            if quiet >= 8 and n > n_peak + 16:
                return _complex(total)
            n += 1
            if n > 20000:
                raise ArithmeticError("reference series did not settle")


def moebius_disk(a, theta, z) -> complex:
    """phi(z) = e^{i theta} (z - a)/(1 - conj(a) z), in mpmath."""
    with mp.workdps(DPS):
        am, zm = _mpc(a), _mpc(z)
        return _complex(mp.expjpi(mp.mpf(theta) / mp.pi) * (zm - am) / (1 - mp.conj(am) * zm))


# ---------------------------------------------------------------------------
# surface products, and the lifts g o p, g o q that agree with them
# ---------------------------------------------------------------------------


def _weight_arg(w, surface: str):
    return w * w - 1 if surface == "annulus" else w * w


def surface_exp_star(a, b, h, w, surface: str) -> complex:
    """e^{a t} * e^{b t} at the chart point w."""
    with mp.workdps(DPS):
        am, bm, wm = _mpc(a), _mpc(b), _mpc(w)
        return _complex(mp.exp((am + bm) * wm)
                        * mp.hyp0f1(1 / _mpc(h), am * bm * _weight_arg(wm, surface)))


def surface_poly_star(g: list, gt: list, h, w, surface: str) -> complex:
    """Polynomials (ascending coefficients) under the surface product."""
    with mp.workdps(DPS):
        wm, hm = _mpc(w), _mpc(h)
        x = _weight_arg(wm, surface)
        dg, dgt = [_mpc(c) for c in g], [_mpc(c) for c in gt]
        total = mp.mpc(0)
        c = mp.mpc(1)
        for n in range(min(len(g), len(gt))):
            if n > 0:
                c = c * hm / (1 + (n - 1) * hm)
                dg = [k * dg[k] for k in range(1, len(dg))]
                dgt = [k * dgt[k] for k in range(1, len(dgt))]
            total += c / mp.factorial(n) * x ** n * mp.polyval(dg[::-1], wm) * mp.polyval(dgt[::-1], wm)
        return _complex(total)


def chart_p(z) -> complex:
    """p(z) = (z - conj z)/(1 - |z|^2): the annulus chart seen on the disk."""
    with mp.workdps(DPS):
        zm = _mpc(z)
        return _complex((zm - mp.conj(zm)) / (1 - zm * mp.conj(zm)))


def chart_q(z) -> complex:
    """q(z) = |1 - z|^2/(1 - |z|^2): the punctured chart seen on the disk."""
    with mp.workdps(DPS):
        zm = _mpc(z)
        return _complex((1 - zm) * (1 - mp.conj(zm)) / (1 - zm * mp.conj(zm)))


# ---------------------------------------------------------------------------
# exact complex rationals as (re, im) Fraction pairs
# ---------------------------------------------------------------------------


def cq(x) -> tuple:
    """(re, im) Fraction pair of an exact scalar (int, Fraction or any
    value with exact ``real``/``imag`` parts)."""
    return (Fraction(x.real), Fraction(x.imag))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def exact_pointwise(f: dict, g: dict, z: tuple) -> tuple:
    """F(z, conj z) G(z, conj z) for {(i, j): pair} polynomials."""
    zb = (z[0], -z[1])

    def value(poly):
        acc = _ZERO
        for (i, j), a in poly.items():
            term = a
            for _ in range(i):
                term = _mul(term, z)
            for _ in range(j):
                term = _mul(term, zb)
            acc = _add(acc, term)
        return acc

    return _mul(value(f), value(g))


def _strip(coeffs: list) -> list:
    while len(coeffs) > 1 and coeffs[-1] == _ZERO:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list, b: list) -> list:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _add(out[i + j], _mul(x, y))
    return out


def exact_surface_poly(g: list, gt: list, h: tuple, surface: str) -> list:
    """Coefficient pairs (ascending) of the exact surface product of two
    polynomials given as lists of pairs."""
    weight = [(Fraction(-1), Fraction(0)), _ZERO, _ONE] if surface == "annulus" \
        else [_ZERO, _ZERO, _ONE]
    total = [_ZERO]
    c = _ONE
    w_n = [_ONE]
    dg, dgt = list(g), list(gt)
    for n in range(min(len(g), len(gt))):
        if n > 0:
            c = _div(_mul(c, h), _add(_ONE, _mul((Fraction(n - 1), Fraction(0)), h)))
            dg = [_mul((Fraction(k), Fraction(0)), dg[k]) for k in range(1, len(dg))]
            dgt = [_mul((Fraction(k), Fraction(0)), dgt[k]) for k in range(1, len(dgt))]
            w_n = _poly_mul(w_n, weight)
        scale = _mul(c, (Fraction(1, math.factorial(n)), Fraction(0)))
        term = [_mul(scale, t) for t in _poly_mul(_poly_mul(w_n, dg), dgt)]
        total = [_add(total[k] if k < len(total) else _ZERO,
                      term[k] if k < len(term) else _ZERO)
                 for k in range(max(len(total), len(term)))]
    return _strip(total)
