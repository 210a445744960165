"""Quadrature rules and closed-form moments on model shrinkers.

Level sets {b = r} of a model are round spheres of the flat factor (times the
compact factor, which is folded into the weights), and sublevel sets, shells
and the whole space are unions of such spheres.  Every rule below is
therefore a product of a radial rule and a rule on the unit sphere of C^m:
its nodes are s_i * theta_k with weight W_i * w_k, where

* the radii s_i are Gauss-Legendre nodes in the flat radius (a single radius
  for a level set), and W_i carries the Jacobian s^{2m-1}, the compact area
  and, for the weighted space, e^{-f};
* the directions theta_k are uniform grids in the torus angles, exact for
  trigonometric polynomials of frequency below the grid size, times
  Gauss-Legendre nodes on the simplex below.

Sphere coordinates use z_j = sqrt(u_j) e^{i phi_j}: the surface measure of
the radius-R flat sphere becomes R^{2m-1} 2^{1-m} du dphi over the simplex
{u_j >= 0, sum u_j = 1} times the torus, which is flat in u, so polynomial
moments integrate exactly.  The same parametrization yields the closed-form
moments used by the closed-form evaluation paths.

Rules are kept in this factored form and the s_i * theta_k grid is never
built.  A polynomial splits into homogeneous parts u = sum_k u_k with
u_k(s theta) = s^k u_k(theta), so the rule applied to a(z) conj(b(z)) is
sum_i W_i sum_{k,l} s_i^{k+l} G_kl with the direction Gram matrix
G_kl = sum_theta w_theta a_k(theta) conj(b_l(theta)).  This is the same sum
over the same nodes, taken in another order: the off-diagonal G_kl are
summed, not assumed to vanish by the torus action as the closed-form route
assumes, so the quadrature route stays independent of it.

Gauss-Legendre tables are generated in long double, so the volume identity,
whose two sides cancel to machine zero on the flat model, is summed in
extended precision end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .models import ModelShrinker

__all__ = [
    "ProductRule",
    "level_set_quadrature",
    "ball_quadrature",
    "shell_quadrature",
    "weighted_space_quadrature",
    "sphere_moment",
    "ball_moment",
    "unit_sphere_area",
    "unit_ball_volume",
    "volume_area",
    "raw_level_area",
    "verify_volume_identity",
]

_LD = np.longdouble
_PI_LD = np.arccos(_LD(-1))


# -- closed-form moments -----------------------------------------------------


def unit_sphere_area(m: int) -> float:
    """Area of the unit sphere S^{2m-1} in C^m."""
    return 2.0 * math.pi**m / math.factorial(m - 1)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in C^m = R^{2m}."""
    return math.pi**m / math.factorial(m)


def sphere_moment(m: int, alpha: tuple[int, ...], radius: float) -> float:
    """Integral of |z^alpha|^2 over the radius-R sphere in C^m.

    Monomial pairs z^alpha conj(z)^beta with alpha != beta integrate to zero
    by the torus action, so these diagonal moments determine every |u|^2
    level integral.
    """
    k = sum(alpha)
    angular = (
        2.0 ** (1 - m)
        * (2.0 * math.pi) ** m
        * math.prod(math.factorial(a) for a in alpha)
        / math.factorial(k + m - 1)
    )
    return radius ** (2 * k + 2 * m - 1) * angular


def ball_moment(m: int, alpha: tuple[int, ...], radius: float) -> float:
    """Integral of |z^alpha|^2 over the radius-R ball in C^m."""
    k = sum(alpha)
    return sphere_moment(m, alpha, radius) * radius / (2 * k + 2 * m)


# -- Gauss-Legendre tables and direction grids --------------------------------


@lru_cache(maxsize=None)
def _gl_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] in long double.

    Newton's method on the three-term recurrence, started from the asymptotic
    guesses cos(pi (k - 1/4) / (n + 1/2)), converges to long-double accuracy,
    so weight sums carry errors near 1e-19 instead of the 1e-16 of a float64
    table (cf. Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).
    """

    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1)

    k = np.arange(n, 0, -1, dtype=_LD)
    x = np.cos(_PI_LD * (k - _LD(0.25)) / (n + _LD(0.5)))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4 * np.finfo(_LD).eps:
            break
    _, dp = legendre(x)
    return x, 2 / ((1 - x * x) * dp * dp)


def _gl(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [a, b], in long double."""
    x, w = _gl_reference(n)
    half = (_LD(b) - _LD(a)) / 2
    return half * x + (_LD(a) + _LD(b)) / 2, half * w


@lru_cache(maxsize=64)
def _unit_sphere_rule(m: int, n_u: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.longdouble]:
    """Nodes (K, m) and weights (K,) on the unit sphere of C^m, and the weight sum in long double."""
    phis = 2 * _PI_LD * np.arange(n_phi) / n_phi
    w_phi = 2 * _PI_LD / n_phi
    if m == 1:
        nodes = np.exp(1j * phis.astype(float)).reshape(-1, 1)
        weights = np.full(n_phi, w_phi)
    elif m == 2:
        u, wu = _gl(n_u, 0.0, 1.0)
        uu, p1, p2 = np.meshgrid(u.astype(float), phis.astype(float), phis.astype(float), indexing="ij")
        z1 = np.sqrt(uu) * np.exp(1j * p1)
        z2 = np.sqrt(1.0 - uu) * np.exp(1j * p2)
        nodes = np.stack([z1.ravel(), z2.ravel()], axis=-1)
        weights = np.broadcast_to((wu * w_phi**2 / 2)[:, None, None], uu.shape).ravel()
    elif m == 3:
        # Simplex {u1 + u2 + u3 = 1} via u1 = x1, u2 = (1-x1) x2.
        x1, w1 = _gl(n_u, 0.0, 1.0)
        x2, w2 = _gl(n_u, 0.0, 1.0)
        phi = phis.astype(float)
        xx1, xx2, p1, p2, p3 = np.meshgrid(x1.astype(float), x2.astype(float), phi, phi, phi, indexing="ij")
        u1 = xx1
        u2 = (1.0 - xx1) * xx2
        u3 = np.clip(1.0 - u1 - u2, 0.0, None)
        nodes = np.stack(
            [
                (np.sqrt(u1) * np.exp(1j * p1)).ravel(),
                (np.sqrt(u2) * np.exp(1j * p2)).ravel(),
                (np.sqrt(u3) * np.exp(1j * p3)).ravel(),
            ],
            axis=-1,
        )
        simplex = w1[:, None] * w2[None, :] * (1 - x1)[:, None] * w_phi**3 / 4
        weights = np.broadcast_to(simplex[:, :, None, None, None], xx1.shape).ravel()
    else:
        raise ConfigError(
            f"no quadrature rule for flat complex dimension {m}: sphere rules exist for 1 <= m <= 3"
        )
    return nodes, weights.astype(float), weights.sum()


def _level_counts(m: int, resolution: int) -> tuple[int, int]:
    if m == 1:
        return 0, max(8, resolution)
    if m == 2:
        return max(6, resolution // 8), max(16, resolution // 8)
    return max(4, resolution // 16), max(12, resolution // 16)


def _ball_counts(m: int, resolution: int) -> tuple[int, int, int]:
    n_rad = max(8, resolution // 2)
    if m == 1:
        return n_rad, 0, max(8, resolution // 4)
    if m == 2:
        return n_rad, max(4, resolution // 32), max(16, resolution // 16)
    return n_rad, max(4, resolution // 32), max(12, resolution // 16)


# -- product rules -------------------------------------------------------------


@dataclass(frozen=True)
class ProductRule:
    """Radial rule times unit-sphere rule: node s_i theta_k carries weight W_i w_k.

    ``radii``/``radial_weights`` hold s_i and W_i; ``nodes``/``weights`` hold
    the unit directions theta_k (shape (K, m)) and their weights, which
    depend only on the flat dimension, the rule kind and the resolution, so
    direction sums formed on one rule serve every rule of its kind.
    ``mass`` is (sum W_i)(sum w_k), summed in long double.
    """

    radii: np.ndarray
    radial_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    mass: np.longdouble

    def sphere_integrals(self, a: np.ndarray, a_degrees, b: np.ndarray, b_degrees) -> np.ndarray:
        """Coefficients c with Re sum_k w_k a(s theta_k) conj(b(s theta_k)) = sum_d c_d s^d.

        ``a`` holds homogeneous parts on the directions, shape (..., rows, K),
        row i being the part of degree ``a_degrees[i]``, and likewise ``b``;
        leading axes are summed over, as for the components of a gradient.
        Every entry of the Gram matrix G_ij = sum_k w_k a_i(theta_k) conj(b_j(theta_k))
        enters, off-diagonal ones too.
        """
        gram = np.matmul(a * self.weights, np.swapaxes(b, -1, -2).conj()).real
        gram = gram.reshape(-1, *gram.shape[-2:]).sum(axis=0)
        coeffs = np.zeros(max(a_degrees) + max(b_degrees) + 1)
        np.add.at(coeffs, np.add.outer(a_degrees, b_degrees), gram)
        return coeffs

    def integrate(self, coeffs: np.ndarray, radial=1.0) -> float:
        """sum_i W_i radial(s_i) sum_d c_d s_i^d for direction sums c from sphere_integrals."""
        sums = np.polynomial.polynomial.polyval(self.radii, coeffs)
        return float(np.sum(self.radial_weights * radial * sums))


def _product_rule(radii: np.ndarray, radial_weights: np.ndarray, m: int, n_u: int, n_phi: int) -> ProductRule:
    nodes, weights, direction_mass = _unit_sphere_rule(m, n_u, n_phi)
    return ProductRule(
        radii=radii.astype(float),
        radial_weights=radial_weights.astype(float),
        nodes=nodes,
        weights=weights,
        mass=radial_weights.sum() * direction_mass,
    )


def level_set_quadrature(model: ModelShrinker, r: float, resolution: int) -> ProductRule:
    """Quadrature on the level set {b = r}: the single radius rho = flat_radius(r)."""
    model.require_regular(r)
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    m = model.flat_m
    rho = np.array([model.flat_radius(r)], dtype=_LD)
    radial = _LD(model.compact_area) * rho ** (2 * m - 1)
    return _product_rule(rho, radial, m, *_level_counts(m, resolution))


def ball_quadrature(model: ModelShrinker, r: float, resolution: int) -> ProductRule:
    """Quadrature on the sublevel set {b < r}; its mass is the volume."""
    model.require_regular(r)
    rho = model.flat_radius(r)
    return _radial_shell(model, 0.0, rho, resolution)


def shell_quadrature(
    model: ModelShrinker, r_lo: float, r_hi: float, resolution: int
) -> ProductRule:
    """Quadrature on {r_lo < b < r_hi}."""
    model.require_regular(r_lo)
    model.require_regular(r_hi)
    if r_hi <= r_lo:
        raise ValueError(f"empty shell: {r_lo} >= {r_hi}")
    return _radial_shell(model, model.flat_radius(r_lo), model.flat_radius(r_hi), resolution)


def _radial_shell(model: ModelShrinker, s_lo: float, s_hi: float, resolution: int) -> ProductRule:
    m = model.flat_m
    n_rad, n_u, n_phi = _ball_counts(m, resolution)
    s, w_s = _gl(n_rad, s_lo, s_hi)
    radial = w_s * s ** (2 * m - 1) * _LD(model.compact_area)
    return _product_rule(s, radial, m, n_u, n_phi)


# flat radius beyond which the weighted measure is dropped: the lost tail is
# of order e^{-42^2/4}, far below every tolerance in use
WEIGHTED_RADIUS_MAX = 42.0


def weighted_space_quadrature(model: ModelShrinker, resolution: int = 256) -> ProductRule:
    """Quadrature for integrals against the weighted measure e^{-f} dv over M.

    The radial weights already include e^{-f} and stop at WEIGHTED_RADIUS_MAX.
    """
    m = model.flat_m
    n_rad = max(64, resolution)
    _, n_u, n_phi = _ball_counts(m, resolution)
    s, w_s = _gl(n_rad, 0.0, WEIGHTED_RADIUS_MAX)
    radial = w_s * s ** (2 * m - 1) * np.exp(-s * s / 4 - model.f_min) * _LD(model.compact_area)
    return _product_rule(s, radial, m, n_u, n_phi)


# -- volumes, areas and the divergence identity -------------------------------


def volume_area(model: ModelShrinker, r: float) -> tuple[float, float]:
    """Closed-form V(r) = Vol({b < r}) and A(r) = V'(r).

    A(r) is the coarea integral of 1/|grad b| over {b = r}, which differs
    from the raw surface area whenever |grad b| < 1; see raw_level_area.
    """
    model.require_regular(r)
    m = model.flat_m
    rho_sq = r * r - 4.0 * model.f_min
    vol = model.compact_area * unit_ball_volume(m) * rho_sq**m
    area = model.compact_area * unit_ball_volume(m) * m * rho_sq ** (m - 1) * 2.0 * r
    return vol, area


def raw_level_area(model: ModelShrinker, r: float) -> float:
    """Geometric surface area of {b = r}."""
    rho = model.flat_radius(r)
    return model.compact_area * unit_sphere_area(model.flat_m) * rho ** (2 * model.flat_m - 1)


def verify_volume_identity(model: ModelShrinker, r: float, resolution: int = 128) -> float:
    """Residual of n V(r) - r V'(r) = 2 int_{b<r} S - 2 int_{b=r} S/|grad f|.

    Both sides are evaluated with quadrature; the relative residual
    |LHS - RHS| / (1 + |LHS|) is returned.  The two sides cancel to machine
    zero on the flat model, at a scale of up to r^{2m}, so the volume and the
    level mass are (radial sum) x (direction sum) of long-double weights and
    the identity is formed in long double too.  This relies on an 80-bit (or
    wider) long double.
    """
    level = level_set_quadrature(model, r, resolution)
    ball = ball_quadrature(model, r, resolution)
    vol = ball.mass
    level_mass = level.mass
    r_ld = _LD(r)
    rho = _LD(model.flat_radius(r))
    # coarea: V'(r) = int_{b=r} 1/|grad b|, with |grad b| = rho/r on the level set
    area_coarea = level_mass * (r_ld / rho)
    lhs = model.n * vol - r_ld * area_coarea
    s = model.s_const
    # |grad f| = rho/2 on the level set
    rhs = 2 * s * vol - 2 * s * level_mass * (2 / rho)
    return float(abs(lhs - rhs) / (1 + abs(lhs)))
