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
  circle, times a Gauss-Legendre rule on the simplex below, built for every
  flat dimension m in collapsed coordinates (`_unit_sphere_rule`).

Sphere coordinates use z_j = sqrt(u_j) e^{i phi_j}: the surface measure of
the radius-R flat sphere becomes R^{2m-1} 2^{1-m} du dphi over the simplex
{u_j >= 0, sum u_j = 1} times the torus, which is flat in u, so polynomial
moments integrate exactly.  The same parametrization yields the closed-form
moments of `sphere_moment`.

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

`MomentRule`, the closed-form counterpart of a level-set or ball rule, keeps
only the pairs alpha = beta with their exact sphere moments and integrates
s^(d + 2m - 1) radially in closed form.  It reads no simplex table and no
n_phi, and ProductRule never calls sphere_moment.

Every rule is float64; only the volume identity sums its masses in decimal.
Each rule builder first checks its size against RULE_WORK_LIMIT.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NumericError
from .holopoly import HoloPoly
from .models import ModelShrinker

__all__ = [
    "ProductRule",
    "MomentRule",
    "level_set_quadrature",
    "ball_quadrature",
    "shell_quadrature",
    "weighted_space_quadrature",
    "level_set_moments",
    "ball_moments",
    "sphere_moment",
    "unit_sphere_area",
    "unit_ball_volume",
    "volume_area",
    "raw_level_area",
    "require_rule_work",
    "verify_volume_identity",
]

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


# -- Gauss-Legendre tables and simplex rules ----------------------------------

# Bound on the work `require_rule_work` counts; every rule builder checks it
# before it allocates.  Near the bound on a 2-core VM, the level, ball and
# weighted rules of m = 5 at resolution 479 (707,281 simplex nodes) build in
# 0.09 s at a 90 MB peak, and the slowest accepted build, the decimal tables
# of verify_volume_identity at m = 2 and resolution 999, takes 0.52 s.
# verify-all's largest rules, m = 5 at resolution 256, need 131,072; m = 6
# needs 1,114,112.
RULE_WORK_LIMIT = 1_000_000

# Bound on the floats, simplex nodes x pairs x m, that ProductRule.sphere_integrals
# gathers at once (8 MB): it takes the matched pairs in chunks of this size.
# Every verify-all, test and benchmark input needs at most 32,768, one chunk.
# A 20-term profile on gaussian(5) at resolution 256 peaks 38 MB above import
# instead of 81 MB, and at resolution 479 (707,281 nodes) 282 MB instead of 875.
_PAIR_CHUNK_FLOATS = 1 << 20


def _legendre_newton(x: np.ndarray, n: int, tol) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1] by Newton's method from the guesses x.

    The three-term recurrence runs alike on float64 and on Decimal object
    arrays; the iteration stops after the first step of at most tol (cf. Hale
    & Townsend, SIAM J. Sci. Comput. 35, 2013).
    """

    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1)

    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step), initial=0) <= tol:  # a 0-point table is empty
            break
    _, dp = legendre(x)
    return x, 2 / ((1 - x * x) * dp * dp)


@lru_cache(maxsize=None)
def _gl_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] in float64, from cos(pi (k - 1/4) / (n + 1/2))."""
    k = np.arange(n, 0, -1)
    return _legendre_newton(np.cos(math.pi * (k - 0.25) / (n + 0.5)), n, 4 * np.finfo(float).eps)


def _gl(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [a, b]."""
    x, w = _gl_reference(n)
    half = (b - a) / 2
    return half * x + (a + b) / 2, half * w


@lru_cache(maxsize=64)
def _unit_sphere_rule(m: int, n_u: int) -> tuple[np.ndarray, np.ndarray]:
    """Simplex nodes u (S, m) and weights (S,) of the unit sphere of C^m, S = n_u^(m-1).

    Collapsed coordinates x_i in [0, 1], i < m, each with the n_u-point rule,
    give u_1 = x_1, u_{i+1} = x_{i+1} prod_{j<=i} (1 - x_j) and u_m =
    prod_{j<m} (1 - x_j), with Jacobian prod_i (1 - x_i)^(m-1-i) (Duffy, SIAM
    J. Numer. Anal. 19, 1982).  The weights carry the torus volume (2 pi)^m and
    the sphere measure's 2^(1-m), so they sum to the sphere's area.
    """
    nodes = np.empty((1, 0))
    rest = np.ones(1)  # prod_{j<=i} (1 - x_j) at each node
    weights = np.full(1, (2 * math.pi) ** m / 2 ** (m - 1))
    x, w = _gl(n_u, 0.0, 1.0)
    for i in range(1, m):
        nodes = np.column_stack([np.repeat(nodes, n_u, axis=0), np.outer(rest, x).ravel()])
        rest = np.outer(rest, 1.0 - x).ravel()
        weights = np.outer(weights, w * (1.0 - x) ** (m - 1 - i)).ravel()
    return np.column_stack([nodes, rest]), weights


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


def require_rule_work(m: int, resolution: int) -> None:
    """Raise NumericError when rules of flat dimension m at this resolution exceed RULE_WORK_LIMIT.

    The work is the level rule's n_u^(m-1) simplex nodes, the most of any
    rule, plus n^2 for the largest Gauss-Legendre order n = max(64,
    resolution): each Newton step runs the n-term recurrence on n nodes.
    """
    n_u, _ = _level_counts(m, resolution)
    work = n_u ** (m - 1) + max(64, resolution) ** 2
    if work > RULE_WORK_LIMIT:
        raise NumericError(
            f"rules for m={m} at resolution {resolution} need about {work:.3g} simplex nodes "
            f"and Newton terms, over the limit of {RULE_WORK_LIMIT:,}"
        )


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
    direction sums formed on one rule serve every rule of its kind.  Every
    array is float64, and the simplex factor is the collapsed rule of
    `_unit_sphere_rule`, one construction for every flat dimension.
    """

    radii: np.ndarray
    radial_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    n_phi: int

    def sphere_integrals(self, a: Sequence[HoloPoly], b: Sequence[HoloPoly]) -> np.ndarray:
        """Coefficients c with sum_d c_d s^d = Re sum_k w_k sum_i a_i(s theta_k) conj(b_i(s theta_k)).

        ``a`` and ``b`` are equally long sequences of polynomials, paired
        componentwise, as for the components of a gradient.  The terms are
        matched by their exponents mod n_phi, and each matching pair
        (alpha, beta) adds Re(c_alpha conj(d_beta)) sum_s w_s |z|^(alpha + beta)
        at the simplex nodes to c_{|alpha| + |beta|}.  Pairs with
        alpha != beta that alias on the angle grid are summed too.  The pairs
        are taken in chunks that gather at most _PAIR_CHUNK_FLOATS powers, or
        one pair where a single pair gathers more.
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
        axes = np.arange(powers.shape[1])
        step = max(1, _PAIR_CHUNK_FLOATS // self.nodes.size)
        sums = np.empty(len(powers))
        for start in range(0, len(powers), step):
            chunk = modulus_powers[:, axes, powers[start : start + step]]
            sums[start : start + step] = self.weights @ chunk.prod(axis=-1)
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
    nodes, weights = _unit_sphere_rule(m, n_u)
    return ProductRule(radii=radii, radial_weights=radial_weights, nodes=nodes, weights=weights, n_phi=n_phi)


def level_set_quadrature(model: ModelShrinker, r: float, resolution: int) -> ProductRule:
    """Quadrature on the level set {b = r}: the single radius rho = flat_radius(r)."""
    model.require_regular(r)
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    m = model.flat_m
    require_rule_work(m, resolution)
    rho = np.array([model.flat_radius(r)])
    radial = model.compact_area * rho ** (2 * m - 1)
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
    require_rule_work(m, resolution)
    n_rad, n_u, n_phi = _ball_counts(m, resolution)
    s, w_s = _gl(n_rad, s_lo, s_hi)
    radial = w_s * s ** (2 * m - 1) * model.compact_area
    return _product_rule(s, radial, m, n_u, n_phi)


# flat radius beyond which the weighted measure is dropped: the lost tail is
# of order e^{-42^2/4}, far below every tolerance in use
WEIGHTED_RADIUS_MAX = 42.0


def weighted_space_quadrature(model: ModelShrinker, resolution: int = 256) -> ProductRule:
    """Quadrature for integrals against the weighted measure e^{-f} dv over M.

    The radial weights already include e^{-f} and stop at WEIGHTED_RADIUS_MAX.
    """
    m = model.flat_m
    require_rule_work(m, resolution)
    n_rad = max(64, resolution)
    _, n_u, n_phi = _ball_counts(m, resolution)
    s, w_s = _gl(n_rad, 0.0, WEIGHTED_RADIUS_MAX)
    radial = w_s * s ** (2 * m - 1) * np.exp(-s * s / 4 - model.f_min) * model.compact_area
    return _product_rule(s, radial, m, n_u, n_phi)


# -- closed-form rules ----------------------------------------------------------


@dataclass(frozen=True)
class MomentRule:
    """Exact counterpart of a level-set (``ball`` false) or ball rule of flat radius ``radius``.

    ``area`` is the compact area.  Direction sums are exact unit-sphere
    moments, so one set of them serves every radius, as on a ProductRule.
    """

    m: int
    radius: float
    area: float
    ball: bool

    def sphere_integrals(self, a: Sequence[HoloPoly], b: Sequence[HoloPoly]) -> np.ndarray:
        """Coefficients c with sum_d c_d s^d = Re int_{S^(2m-1)} sum_i a_i(s theta) conj(b_i(s theta)).

        Only the pairs alpha = beta survive the torus action; each adds
        Re(c_alpha conj(d_alpha)) times the unit-sphere moment of |z^alpha|^2
        to c_{2|alpha|}.
        """
        coeffs = [0.0] * (2 * max((sum(alpha) for p in a for alpha in p.terms), default=0) + 1)
        for p, q in zip(a, b):
            for alpha, c in p.terms.items():
                d = q.terms.get(alpha)
                if d is not None:
                    coeffs[2 * sum(alpha)] += (c * d.conjugate()).real * sphere_moment(self.m, alpha, 1.0)
        return np.array(coeffs)

    def integrate(self, coeffs: np.ndarray) -> float:
        """area sum_d c_d int s^(d+2m-1): at s = radius (level) or over [0, radius] (ball)."""
        n, total = 2 * self.m, 0.0
        for d, c in enumerate(coeffs.tolist()):
            if c:
                total += c * (self.radius ** (d + n) / (d + n) if self.ball else self.radius ** (d + n - 1))
        return self.area * total


def level_set_moments(model: ModelShrinker, r: float) -> MomentRule:
    """Closed-form rule on the level set {b = r}."""
    return MomentRule(model.flat_m, model.flat_radius(r), model.compact_area, ball=False)


def ball_moments(model: ModelShrinker, r: float) -> MomentRule:
    """Closed-form rule on the sublevel set {b < r}."""
    return MomentRule(model.flat_m, model.flat_radius(r), model.compact_area, ball=True)


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


def verify_volume_identity(
    model: ModelShrinker, radii: Sequence[float], resolution: int = 128
) -> list[float]:
    """Residuals of n V(r) - r V'(r) = 2 int_{b<r} S - 2 int_{b=r} S/|grad f| at each r in radii.

    Both sides come from the masses of the level and ball rules at
    `resolution`, as |LHS - RHS| / (1 + |LHS|).  The sides cancel on the flat
    model at a scale of up to r^{2m}, so the masses are summed in decimal at
    42 digits, from the rules' own tables refined by Newton's method; they
    scale with r, so one set of tables serves every radius.  pi enters every
    mass through the same factor (2 pi)^m, so a float64 pi cannot make a residual.
    """
    m = model.flat_m
    require_rule_work(m, resolution)
    rhos = [model.flat_radius(r) for r in radii]
    n_level, _ = _level_counts(m, resolution)
    n_rad, n_ball, _ = _ball_counts(m, resolution)
    residuals = []
    with decimal.localcontext() as context:
        # at m = 5 and r = 20 the sides cancel at a scale near 3e14: the masses need about 4e-25
        context.prec = 42

        def table(n):
            # Newton squares the float64 seeds' error, so a step below 1e-21 is the last; the
            # nodes are symmetric about 0, so only the upper half (ascending) is refined
            seed = np.array([Decimal(v) for v in _gl_reference(n)[0][n // 2:]], dtype=object)
            x, w = _legendre_newton(seed, n, Decimal("1e-21"))
            return np.concatenate([-x[n % 2:], x]), np.concatenate([w[n % 2:], w])

        def unit_sphere_mass(n_u):
            # sum of the weights of _unit_sphere_rule(m, n_u); the table on [0, 1] has nodes (1 + x)/2
            x, w = table(n_u)
            factors = (np.sum(w * (1 - x) ** k) / 2 ** (k + 1) for k in range(m - 1))
            return (2 * Decimal(math.pi)) ** m / 2 ** (m - 1) * math.prod(factors)

        x, w = table(n_rad)
        unit_ball = unit_sphere_mass(n_ball) * np.sum(w * (1 + x) ** (2 * m - 1)) / 2 ** (2 * m)
        unit_sphere = unit_sphere_mass(n_level)
        area, s = Decimal(model.compact_area), Decimal(model.s_const)
        for r, rho in zip(map(Decimal, radii), map(Decimal, rhos)):
            vol = area * unit_ball * rho ** (2 * m)
            level_mass = area * unit_sphere * rho ** (2 * m - 1)
            # coarea: V'(r) = int_{b=r} 1/|grad b|, with |grad b| = rho/r on the level set
            lhs = model.n * vol - r * level_mass * (r / rho)
            # |grad f| = rho/2 on the level set
            rhs = 2 * s * vol - 2 * s * level_mass * (2 / rho)
            residuals.append(float(abs(lhs - rhs) / (1 + abs(lhs))))
    return residuals
