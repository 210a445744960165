"""Quadrature rules and closed-form moments on model shrinkers.

Level sets {b = r} of a model are round spheres of the flat factor (times the
compact factor, which is folded into the weights), and sublevel sets, shells
and the whole space are unions of such spheres.  Every rule below is
therefore a product of a radial rule and a rule on the unit sphere of C^m:
its nodes are s_i * theta_k with weight W_i * w_k, where

* the radii s_i are Gauss-Legendre nodes in the flat radius (a single radius
  for a level set), and W_i carries the Jacobian s^{2m-1}, the compact area
  and, for the weighted space, e^{-f};
* the directions theta_k are uniform grids of n_phi angles on each torus
  circle, times Gauss-Legendre nodes on the simplex below.

Sphere coordinates use z_j = sqrt(u_j) e^{i phi_j}: the surface measure of
the radius-R flat sphere becomes R^{2m-1} 2^{1-m} du dphi over the simplex
{u_j >= 0, sum u_j = 1} times the torus, which is flat in u, so polynomial
moments integrate exactly.  The same parametrization yields the closed-form
moments used by the closed-form evaluation paths.

Neither the s_i * theta_k grid nor the direction grid is built: a rule keeps
its radial nodes, its simplex nodes u_s and n_phi.  A uniform grid of n_phi
angles sums e^{ik phi} to n_phi when n_phi divides k and to zero otherwise,
so the direction sum of z^alpha conj(z)^beta at the simplex node u_s is
exactly (2 pi)^m prod_j u_{s,j}^{(alpha_j + beta_j)/2} when
alpha = beta (mod n_phi) in every coordinate, and zero otherwise.  The rule
applied to a(z) conj(b(z)) is therefore a sum over the matching monomial
pairs of a and b, each a simplex sum times s_i^{|alpha| + |beta|}.  This is
the same sum over the same nodes, taken in another order.  The aliased pairs
alpha != beta are summed, not assumed to vanish as the closed-form route
assumes, so the quadrature route stays independent of it.

Gauss-Legendre tables are generated in long double, so the volume identity,
whose two sides cancel to machine zero on the flat model, is summed in
extended precision end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .holopoly import HoloPoly
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


# -- Gauss-Legendre tables and simplex rules ----------------------------------


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
def _unit_sphere_rule(m: int, n_u: int) -> tuple[np.ndarray, np.ndarray, np.longdouble]:
    """Simplex nodes u (S, m) and weights (S,) of the unit sphere of C^m, and their sum in long double.

    The weights carry the torus volume (2 pi)^m, so they sum to the sphere's area.
    """
    torus = (2 * _PI_LD) ** m
    if m == 1:
        nodes = np.ones((1, 1))
        weights = np.array([torus])
    elif m == 2:
        u, wu = _gl(n_u, 0.0, 1.0)
        u = u.astype(float)
        nodes = np.stack([u, 1.0 - u], axis=-1)
        weights = wu * torus / 2
    elif m == 3:
        # Simplex {u1 + u2 + u3 = 1} via u1 = x1, u2 = (1-x1) x2.
        x1, w1 = _gl(n_u, 0.0, 1.0)
        x2, w2 = _gl(n_u, 0.0, 1.0)
        u1 = np.repeat(x1.astype(float), n_u)
        u2 = np.outer(1.0 - x1.astype(float), x2.astype(float)).ravel()
        u3 = np.clip(1.0 - u1 - u2, 0.0, None)
        nodes = np.stack([u1, u2, u3], axis=-1)
        weights = (w1[:, None] * w2[None, :] * (1 - x1)[:, None] * torus / 4).ravel()
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

    ``radii``/``radial_weights`` hold s_i and W_i.  The directions theta_k
    are kept as their simplex factor: ``nodes`` holds the moduli u_s
    (shape (S, m)) and ``weights`` their weights, torus volume included, and
    each u_s stands for the n_phi^m directions sqrt(u_s) e^{i phi} on a
    uniform grid of ``n_phi`` angles per circle.  The direction factor
    depends only on the flat dimension, the rule kind and the resolution, so
    direction sums formed on one rule serve every rule of its kind.
    ``mass`` is (sum W_i)(sum w_k), summed in long double.
    """

    radii: np.ndarray
    radial_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    n_phi: int
    mass: np.longdouble

    def sphere_integrals(self, a: Sequence[HoloPoly], b: Sequence[HoloPoly]) -> np.ndarray:
        """Coefficients c with sum_d c_d s^d = Re sum_k w_k sum_i a_i(s theta_k) conj(b_i(s theta_k)).

        ``a`` and ``b`` are equally long sequences of polynomials, paired
        componentwise, as for the components of a gradient.  The terms are
        matched by their exponents mod n_phi, and each matching pair
        (alpha, beta) adds Re(c_alpha conj(d_beta)) sum_s w_s |z|^(alpha + beta)
        at the simplex nodes to c_{|alpha| + |beta|}.  Pairs with
        alpha != beta that alias on the angle grid are summed too.
        """
        comp_a, alpha, coef_a = _term_table(a, self.nodes.shape[1])
        comp_b, beta, coef_b = _term_table(b, self.nodes.shape[1])
        match = (comp_a[:, None] == comp_b[None, :]) & np.all(
            (alpha[:, None, :] - beta[None, :, :]) % self.n_phi == 0, axis=-1
        )
        i, j = np.nonzero(match)
        powers = alpha[i] + beta[j]
        # |z_j|^k = u_j^(k/2) at every simplex node, for k up to the largest power
        modulus_powers = np.sqrt(self.nodes)[:, :, None] ** np.arange(powers.max(initial=0) + 1)
        sums = self.weights @ modulus_powers[:, np.arange(powers.shape[1]), powers].prod(axis=-1)
        pair_coefs = (coef_a[i] * coef_b[j].conj()).real
        return np.bincount(powers.sum(axis=1), weights=pair_coefs * sums, minlength=1)

    def integrate(self, coeffs: np.ndarray, radial=1.0) -> float:
        """sum_i W_i radial(s_i) sum_d c_d s_i^d for direction sums c from sphere_integrals."""
        sums = np.polynomial.polynomial.polyval(self.radii, coeffs)
        return float(np.sum(self.radial_weights * radial * sums))


def _term_table(polys: Sequence[HoloPoly], m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component index (T,), exponents (T, m) and coefficients (T,) of the terms of polys."""
    terms = [(k, alpha, c) for k, poly in enumerate(polys) for alpha, c in poly.terms.items()]
    comps = np.array([k for k, _, _ in terms], dtype=int)
    exps = np.array([alpha for _, alpha, _ in terms], dtype=int).reshape(-1, m)
    coefs = np.array([c for _, _, c in terms], dtype=complex)
    return comps, exps, coefs


def _product_rule(radii: np.ndarray, radial_weights: np.ndarray, m: int, n_u: int, n_phi: int) -> ProductRule:
    nodes, weights, direction_mass = _unit_sphere_rule(m, n_u)
    return ProductRule(
        radii=radii.astype(float),
        radial_weights=radial_weights.astype(float),
        nodes=nodes,
        weights=weights,
        n_phi=n_phi,
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
