"""Riemann-sphere points, Moebius maps and model conversions.

Points of the sphere are stored as projective pairs (u, v), value u/v,
with v = 0 encoding the point at infinity.  This keeps the Moebius
action branch-free and exactness-friendly: a map acts as a 2x2 matrix
on the pair.  Scalars may be python complex numbers or exact values
(int, Fraction, :class:`~wickstar.exact.QC`), and their kind alone picks
the arithmetic: an int 0 or 1 mixes exactly with each exact kind.  A
zero test (a singular matrix, a pole of the action, equal points) compares
the value itself with 0, a float too: a rescaled matrix or pair is
refused only where its products underflow to 0.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from sys import float_info

from .errors import DomainError
from .exact import QC, conj, is_exact, to_complex


_OUTSIDE_DISK = "point must lie in the open unit disk"


def _check_disk(z):
    # not (< 1): a NaN fails every comparison
    if not abs(to_complex(z)) < 1:
        raise DomainError(_OUTSIDE_DISK)


def _div(x, y):
    """x / y, exact for exact operands: an int over an int is a Fraction."""
    return Fraction(x, y) if isinstance(x, int) and isinstance(y, int) else x / y


def _matmul(m, n):
    """The 2x2 product m n of matrices (a, b, c, d): the Moebius map m o n."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class SpherePoint:
    """Point of the Riemann sphere as a projective pair (u, v), u/v."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if u == 0 and v == 0:
            raise DomainError("(0, 0) is not a point of the projective line")
        self.u = u
        self.v = v

    @staticmethod
    def finite(x) -> "SpherePoint":
        return SpherePoint(x, 1)

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(1, 0)

    @staticmethod
    def of(x) -> "SpherePoint":
        if isinstance(x, SpherePoint):
            return x
        return SpherePoint.finite(x)

    @property
    def is_infinite(self) -> bool:
        return self.v == 0

    def value(self):
        """Affine value u/v; raises for the point at infinity."""
        if self.is_infinite:
            raise DomainError("point at infinity has no affine value")
        return _div(self.u, self.v)

    def reciprocal(self) -> "SpherePoint":
        return SpherePoint(self.v, self.u)

    def proj_eq(self, other: "SpherePoint") -> bool:
        return self.u * other.v - other.u * self.v == 0

    def __repr__(self):
        if self.is_infinite:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.value()!r})"


def _validate_disk_map(a, b, c, d):
    # (az+b)/(cz+d) preserves |z| = 1 iff |a|^2+|b|^2 = |c|^2+|d|^2 and
    # a*conj(b) = c*conj(d); it maps D onto D (not onto the exterior)
    # iff additionally |b| < |d|.
    lhs_norm = a * conj(a) + b * conj(b)
    rhs_norm = c * conj(c) + d * conj(d)
    lhs_mix = a * conj(b)
    rhs_mix = c * conj(d)
    if is_exact(a) and is_exact(b) and is_exact(c) and is_exact(d):
        ok = lhs_norm == rhs_norm and lhs_mix == rhs_mix
        interior = (b * conj(b)).real < (d * conj(d)).real
    else:
        scale = max(abs(lhs_norm), abs(rhs_norm), 1.0)
        ok = (abs(lhs_norm - rhs_norm) <= 1e-9 * scale
              and abs(lhs_mix - rhs_mix) <= 1e-9 * scale)
        interior = abs(b) < abs(d)
    if not (ok and interior):
        raise DomainError("matrix does not define an automorphism of the unit disk")


def _validate_half_map(a, b, c, d):
    if any(x.imag != 0 for x in (a, b, c, d)):
        raise DomainError("Aut(H) requires real matrix entries")
    if not (a * d - b * c).real > 0:
        raise DomainError("Aut(H) requires positive determinant")


class MoebiusMap:
    """Invertible map z -> (az+b)/(cz+d) acting on the Riemann sphere.

    ``domain`` optionally designates the map as an automorphism of the
    unit disk ("D") or the upper half plane ("H"); the designation is
    validated at construction.
    """

    __slots__ = ("a", "b", "c", "d", "domain")

    def __init__(self, a, b, c, d, domain: str | None = None):
        if a * d - b * c == 0:
            raise DomainError("Moebius matrix is singular")
        if domain == "D":
            _validate_disk_map(a, b, c, d)
        elif domain == "H":
            _validate_half_map(a, b, c, d)
        elif domain is not None:
            raise ValueError(f"unknown domain designation {domain!r}")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.domain = domain

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1, 0, 0, 1)

    @staticmethod
    def cayley() -> "MoebiusMap":
        """The fixed Cayley map T : D -> H, T(z) = i(1+z)/(1-z), T(0) = i,
        with exact entries: the scalar kind of a point picks the arithmetic."""
        return MoebiusMap(QC(0, 1), QC(0, 1), -1, 1)

    @staticmethod
    def disk_automorphism(a: complex, theta: float = 0.0) -> "MoebiusMap":
        """phi(z) = e^{i theta} (z - a)/(1 - conj(a) z), |a| < 1."""
        _check_disk(a)
        e = cmath.exp(1j * theta)
        return MoebiusMap(e, -e * a, -a.conjugate(), 1, domain="D")

    @staticmethod
    def scaling(c) -> "MoebiusMap":
        """Hyperbolic z -> c z on H, c real > 0 (hyperbolic iff c != 1)."""
        return MoebiusMap(c, 0, 0, 1, domain="H")

    @staticmethod
    def translation(t) -> "MoebiusMap":
        """Parabolic z -> z + t on H, t real."""
        return MoebiusMap(1, t, 0, 1, domain="H")

    # -- algebra -----------------------------------------------------

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product; (self o other)(z) = self(other(z))."""
        domain = self.domain if self.domain == other.domain else None
        return MoebiusMap(*_matmul((self.a, self.b, self.c, self.d),
                                   (other.a, other.b, other.c, other.d)), domain=domain)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a, domain=self.domain)

    def apply(self, z):
        """Affine action on a scalar; raises at the pole z = -d/c."""
        den = self.c * z + self.d
        if den == 0:
            raise DomainError("Moebius map sends this point to infinity")
        return _div(self.a * z + self.b, den)

    def apply_point(self, p: SpherePoint) -> SpherePoint:
        return SpherePoint(self.a * p.u + self.b * p.v,
                           self.c * p.u + self.d * p.v)

    def __repr__(self):
        tag = f", domain={self.domain!r}" if self.domain else ""
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r}{tag})"


class GPoint:
    """Pair of distinct sphere points; element of the second
    configuration space of the sphere."""

    __slots__ = ("z", "w")

    def __init__(self, z: SpherePoint, w: SpherePoint):
        if z.proj_eq(w):
            raise DomainError("GPoint requires z != w")
        self.z = z
        self.w = w

    @staticmethod
    def of(z, w) -> "GPoint":
        return GPoint(SpherePoint.of(z), SpherePoint.of(w))

    def __repr__(self):
        return f"GPoint({self.z!r}, {self.w!r})"


class OmegaPoint:
    """Point of the bivariate disk-model domain: zw != 1 projectively
    (this excludes the hypersurface and the two points (0, inf), (inf, 0))."""

    __slots__ = ("z", "w")

    def __init__(self, z: SpherePoint, w: SpherePoint):
        if z.u * w.u - z.v * w.v == 0:
            raise DomainError("OmegaPoint requires zw != 1")
        self.z = z
        self.w = w

    @staticmethod
    def of(z, w) -> "OmegaPoint":
        return OmegaPoint(SpherePoint.of(z), SpherePoint.of(w))

    def __repr__(self):
        return f"OmegaPoint({self.z!r}, {self.w!r})"


# -- operations ------------------------------------------------------


def moebius_apply(m: MoebiusMap, p: SpherePoint) -> SpherePoint:
    """Total projective action of m on the sphere."""
    return m.apply_point(p)


def gamma_hat(m: MoebiusMap, p: GPoint) -> GPoint:
    """Componentwise action (z, w) -> (gamma z, gamma w) on G."""
    return GPoint(m.apply_point(p.z), m.apply_point(p.w))


def t_gamma_omega(phi: MoebiusMap, p: OmegaPoint) -> OmegaPoint:
    """Induced automorphism (z, w) -> (phi(z), 1/phi(1/w)) of the
    bivariate disk model, for phi in Aut(D)."""
    if phi.domain != "D":
        raise DomainError("t_gamma_omega requires a map designated Aut(D)")
    z = phi.apply_point(p.z)
    # 1/phi(1/w) on projective pairs: w = (u, v) -> (c v + d u, a v + b u)
    u, v = p.w.u, p.w.v
    w = SpherePoint(phi.c * v + phi.d * u, phi.a * v + phi.b * u)
    return OmegaPoint(z, w)


# built once: the exact determinant check costs more than an action
_CAYLEY = MoebiusMap.cayley()
_CAYLEY_INVERSE = _CAYLEY.inverse()


def psi_omega_to_g(p: OmegaPoint) -> GPoint:
    """Model conversion Psi(z, w) = (T z, T(1/w)) onto the configuration
    space, with the fixed Cayley map T."""
    return GPoint(_CAYLEY.apply_point(p.z), _CAYLEY.apply_point(p.w.reciprocal()))


def psi_g_to_omega(p: GPoint) -> OmegaPoint:
    return OmegaPoint(_CAYLEY_INVERSE.apply_point(p.z),
                      _CAYLEY_INVERSE.apply_point(p.w).reciprocal())


def danielewski_chart(p: GPoint):
    """Chart (z, w) -> (1/(z-w), (z+w)/(z-w), zw/(z-w)) onto the surface
    b^2 - 4ac = 1; finite points only in this version."""
    if p.z.is_infinite or p.w.is_infinite:
        raise DomainError("Danielewski chart is restricted to finite points")
    z = p.z.value()
    w = p.w.value()
    d = z - w
    return (_div(1, d), _div(z + w, d), _div(z * w, d))


# -- covering maps (float-only: they involve exp/log) ----------------


def check_modulus(radius) -> None:
    """Refuse an annulus modulus R that is not a number above 1 in the
    float range: an int past it overflows log R and exp (NaN fails every
    comparison, so it is refused too)."""
    if not 1 < radius <= float_info.max:
        raise DomainError(f"annulus modulus must be a number 1 < R <= {float_info.max!r}, "
                          f"got {radius!r}")


def covering_disk_to_annulus(radius: float, z: complex) -> complex:
    """Universal covering D -> A_R,
    pi_R(z) = exp((2i log R / pi) log((1+z)/(1-z)))."""
    check_modulus(radius)
    _check_disk(z)
    z = complex(z)
    # (1+z)/(1-z) has positive real part on D, so the principal log is safe
    return cmath.exp(2j * math.log(radius) / math.pi * cmath.log((1 + z) / (1 - z)))


def covering_disk_to_punctured(z: complex) -> complex:
    """Universal covering D -> D*, pi_0(z) = exp(-(1+z)/(1-z))."""
    _check_disk(z)
    z = complex(z)
    return cmath.exp(-(1 + z) / (1 - z))


def covering_half_to_annulus(radius: float, z: complex) -> complex:
    """Universal covering H -> A_R,
    pi(z) = exp((2i log R / pi) log(z/i)); deck generator z -> cz with
    log c = pi^2 / log R."""
    check_modulus(radius)
    z = complex(z)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise DomainError("covering is defined on the upper half plane")
    # z/i = -iz has positive real part on H: principal log is safe
    return cmath.exp(2j * math.log(radius) / math.pi * cmath.log(z / 1j))


def moebius_fixed_points(m: MoebiusMap) -> list:
    """Fixed points of a Moebius map on the sphere (float arithmetic).

    Returns two SpherePoints for loxodromic/hyperbolic/elliptic maps and
    one for parabolic maps.  Infinity is fixed exactly when c is 0; a
    finite fixed point is the projective pair (u, v), u/v, never divided
    out, so one past the float range stays finite."""
    a, b, c, d = (to_complex(x) for x in (m.a, m.b, m.c, m.d))
    if c == 0:
        # finite fixed point of the affine part, if any
        if a == d:
            return [SpherePoint.infinity()]
        return [SpherePoint(b, d - a), SpherePoint.infinity()]
    disc = cmath.sqrt((d - a) ** 2 + 4 * b * c)
    u1, u2 = (a - d) + disc, (a - d) - disc
    # the roots u/(2c) agree to 1e-12, relative to max(1, |u1/(2c)|)
    if abs(u1 - u2) < 1e-12 * max(abs(2 * c), abs(u1)):
        return [SpherePoint(a - d, 2 * c)]
    return [SpherePoint(u1, 2 * c), SpherePoint(u2, 2 * c)]


def moebius_multiplier_at(m: MoebiusMap, p: SpherePoint) -> complex:
    """Derivative of the map at a fixed point, in the local chart
    (1/z at infinity)."""
    a, b, c, d = (to_complex(x) for x in (m.a, m.b, m.c, m.d))
    det = a * d - b * c
    if p.is_infinite:
        # conjugate by z -> 1/z: the map u -> (d u + c)/(b u + a)
        return det / a ** 2
    z = complex(to_complex(p.u) / to_complex(p.v))
    return det / (c * z + d) ** 2


def annulus_deck_multiplier(radius: float) -> float:
    """Deck-group scaling constant c with log c = pi^2 / log R."""
    check_modulus(radius)
    return math.exp(math.pi ** 2 / math.log(radius))
