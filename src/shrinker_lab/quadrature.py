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
  circle, times a Gauss-Legendre rule on the simplex below, the same
  n_u-point rule on [0, 1] in each of its m - 1 collapsed coordinates, for
  every flat dimension m.

A level-set or ball rule covers a whole grid of radii.  The level set and the
ball of flat radius rho are the unit sphere and the unit ball dilated by rho,
so the rule keeps the grid of flat radii and the radial rule at rho = 1: the
node 1 for a level set, and for a ball the n_rad-point Gauss-Legendre rule
x_i, w_i on [0, 1].  With the direction sums c_d of an integrand, homogeneous
of degree d in s, the rule gives one value per radius of the grid:

    level set:  A rho^(2m-1) sum_d c_d rho^d
    ball:       A sum_d c_d t_{d+2m-1} rho^(d+2m),   t_k = sum_i w_i x_i^k,

with A the compact area.  The ball's sum runs over the same n_rad nodes as
a rule built at each radius, in another order: the radial sums factor into
one moment t_k per degree (sum factorization, as for the directions below).
Its memory is O(R D) for R radii and D degrees, never R times n_rad.  The
shell and weighted-space rules, whose radial factors s^2/(4c + s^2) and
e^{-s^2/4} are not polynomials in s, are single rules that keep their radial
nodes.

Sphere coordinates use z_j = sqrt(u_j) e^{i phi_j}: the surface measure of
the radius-R flat sphere becomes R^{2m-1} 2^{1-m} du dphi over the simplex
{u_j >= 0, sum u_j = 1} times the torus, which is flat in u, so polynomial
moments integrate exactly.  The same parametrization yields the closed-form
moments of `sphere_moment`.  The collapsed coordinates x_c in [0, 1], c < m,
give u_1 = x_1, u_{c+1} = x_{c+1} prod_{j<=c} (1 - x_j) and u_m =
prod_{j<m} (1 - x_j), with Jacobian prod_c (1 - x_c)^(m-1-c) (Duffy, SIAM J.
Numer. Anal. 19, 1982).

Neither the s_i * theta_k grid, nor the direction grid, nor the simplex grid
is built: a rule keeps its radial nodes, the 1-D rule of its collapsed
coordinates, m and n_phi.  A uniform grid of n_phi angles sums e^{ik phi} to
n_phi when n_phi divides k and to zero otherwise, so the direction sum of
z^alpha conj(z)^beta at the simplex node u is exactly (2 pi)^m prod_j
u_j^{(alpha_j + beta_j)/2} when alpha = beta (mod n_phi) in every
coordinate, and zero otherwise.  In collapsed coordinates that product is
prod_c x_c^{k_c/2} (1 - x_c)^{(k_{c+1} + ... + k_m)/2} for k = alpha + beta,
so its simplex sum, Jacobian included, is a product of m - 1 one-dimensional
Gauss-Legendre sums (sum factorization; Orszag, J. Comput. Phys. 37, 1980).
A rule's `gram(polys)` applies its direction factor to every p_i conj(p_j)
at once as a sum over the matching monomial pairs, grouped by exponent mod
n_phi, each pair such a product times s^{|alpha| + |beta|}: the same sum
over the same nodes, taken in another order.  The aliased pairs alpha !=
beta are summed, not assumed to vanish as the closed-form route assumes, so
the quadrature route stays independent of it.  `integrate` applies the
radial rule to a real entry of that Gram, one value per radius.

`MomentRule`, the closed-form counterpart of a level-set or ball rule, has
the same `gram` / `integrate` pair: its Gram keeps only the pairs alpha =
beta with their exact sphere moments, and it integrates s^(d + 2m - 1)
radially in closed form, as A sum_d c_d rho^(d+2m)/(d+2m) on a ball.  It
reads no 1-D table and no n_phi, and ProductRule never calls sphere_moment
nor divides by d + 2m.

Every rule is float64; only the volume identity sums its masses in decimal.
Each rule builder first checks its size against RULE_WORK_LIMIT.  The float64
Gauss-Legendre tables, built once per order, come from Newton's method in
theta, x = cos(theta), on the cosine series of P_n(cos theta), whose
coefficients are positive (Swarztrauber, SIAM J. Sci. Comput. 24, 2002):
each step is a few vectorized products over the nodes with x >= 0, and the
other half is their mirror image.  The decimal tables refine them by Newton's
method in x on the three-term recurrence.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError
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
    "radius_grid",
    "require_rule_work",
    "verify_volume_identity",
]

# -- closed-form moments -----------------------------------------------------


def sphere_moment(m: int, alpha: tuple[int, ...]) -> float:
    """Integral of |z^alpha|^2 over the unit sphere in C^m; R^(2|alpha| + 2m - 1) times it on radius R.

    Monomial pairs z^alpha conj(z)^beta with alpha != beta integrate to zero
    by the torus action, so these diagonal moments determine every |u|^2
    level integral.
    """
    # the factorials are divided as integers: each alone may pass the float range
    ratio = math.prod(math.factorial(a) for a in alpha) / math.factorial(sum(alpha) + m - 1)
    return 2.0 ** (1 - m) * (2.0 * math.pi) ** m * ratio


# -- Gauss-Legendre tables ----------------------------------------------------

# Bound on the work `require_rule_work` counts; every rule builder checks it
# before it allocates.  The count is the n_u^(m-1) nodes of the level rule's
# simplex grid.  No rule builds that grid, since its sums factor per collapsed
# coordinate, but counting it keeps m = 6 at verify-all's resolution refused.
# The slowest accepted build, the decimal tables of verify_volume_identity at
# m = 2 and resolution 999, takes 0.52 s on a 2-core VM.  verify-all's largest
# rules, m = 5 at resolution 256, count 131,072; m = 6 counts 1,114,112.
RULE_WORK_LIMIT = 1_000_000


@lru_cache(maxsize=None)
def _gl_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] in float64, by Newton's method in theta.

    With x = cos(theta), P_n(cos theta) = sum_m g_m g_{n-m} cos((n - 2m) theta)
    with g_m = C(2m, m) / 4^m; the terms m and n - m share a frequency, so
    the series has floor(n/2) + 1 positive coefficients (Swarztrauber, SIAM J.
    Sci. Comput. 24, 2002).  Newton's method runs on the ceil(n/2) nodes with
    x >= 0 from theta_k = pi (k - 1/4) / (n + 1/2), and stops after the first
    step of at most 4 unit roundoffs; each step takes one cos and one sin of
    the (nodes x frequencies) phase matrix, in one buffer.  A rounded phase
    k theta would be off by up to n roundoffs, so the phases are formed from
    theta cut to 52 - n.bit_length() bits, where every product is exact, and
    the cut-off rest of theta enters to first order.  The weights are
    2 / (dP_n/dtheta)^2, free of the cancellation in 1 - x^2 near +-1.  The
    lower half mirrors the upper, so the table is symmetric bit for bit and
    the centre node of an odd order is 0.
    """
    k = np.arange(1, n + 1)
    g = np.cumprod(np.concatenate([[1.0], (2 * k - 1) / (2 * k)]))
    m = np.arange(n // 2 + 1)
    coef = 2 * g[m] * g[n - m]
    if n % 2 == 0:
        coef[-1] /= 2  # frequency 0 is a single term
    freq = (n - 2 * m).astype(float)
    sin_coefs = freq * coef
    cos2_coefs = freq * sin_coefs
    bits = 52 - n.bit_length()
    theta = math.pi * (np.arange((n + 1) // 2, 0, -1) - 0.25) / (n + 0.5)
    phase = np.empty((len(theta), len(freq)))
    for _ in range(100):
        head = np.ldexp(np.round(np.ldexp(theta, bits)), -bits)
        tail = theta - head
        # P_n, -P_n' and -P_n'' at head give P_n and -P_n' at head + tail to first order in tail
        np.cos(np.multiply.outer(head, freq, out=phase), out=phase)
        p, curvature = phase @ coef, phase @ cos2_coefs
        slope = np.sin(np.multiply.outer(head, freq, out=phase), out=phase) @ sin_coefs
        dp = slope + tail * curvature
        step = (p - tail * slope) / dp
        theta = theta + step
        if np.max(np.abs(step), initial=0) <= 4 * np.finfo(float).eps:  # a 0-point table is empty
            break
    x, w = np.cos(theta), 2 / (dp * dp)
    if n % 2:
        x[0] = 0.0
    return np.concatenate([-x[::-1][: n // 2], x]), np.concatenate([w[::-1][: n // 2], w])


def _gl(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [a, b]."""
    x, w = _gl_reference(n)
    half = (b - a) / 2
    return half * x + (a + b) / 2, half * w


@lru_cache(maxsize=64)
def _collapsed_rule(n_u: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_u-point Gauss-Legendre rule on [0, 1] of every collapsed coordinate of the simplex."""
    return _gl(n_u, 0.0, 1.0)


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

    The work is the n_u^(m-1) nodes of the level rule's simplex grid, the
    largest of any rule's (counted, though no rule builds it), plus n^2 for
    the largest Gauss-Legendre order n = max(64, resolution), which bounds
    the theta-Newton phase matrix of ceil(n/2) nodes by floor(n/2) + 1
    frequencies that each step takes the cos and the sin of.  A resolution
    below 1 raises ValueError.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    n_u, _ = _level_counts(m, resolution)
    work = n_u ** (m - 1) + max(64, resolution) ** 2
    if work > RULE_WORK_LIMIT:
        raise NumericError(
            f"rules for m={m} at resolution {resolution} need about {work:.3g} simplex nodes "
            f"and Newton terms, over the limit of {RULE_WORK_LIMIT:,}"
        )


# -- product rules -------------------------------------------------------------


def _variable_count_error(poly: HoloPoly, m: int) -> DomainError:
    """Both gram passes raise this for a polynomial whose variable count is not the rule's m."""
    return DomainError(f"polynomial has {poly.m} variables but the model has {m} flat variables")


def _grid_sum(rho: np.ndarray, power: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_d coeffs_d rho^(d + power) at each flat radius of rho, shape (R,).

    Zero coefficients are skipped, so 0 * inf never forms where a power of
    rho passes the float range; a sum that passes it is inf, and the
    callers that print values check them finite.
    """
    (d,) = coeffs.nonzero()
    with np.errstate(over="ignore"):
        return (rho[:, None] ** (d + power) * coeffs[d]).sum(axis=1)


@dataclass(frozen=True)
class ProductRule:
    """Radial rule times unit-sphere rule on each flat radius of a grid.

    At each flat radius rho of ``rho`` (shape R) the rule has the nodes
    rho s_i theta_k with weights rho^power W_i w_k, where
    ``radii``/``radial_weights`` hold s_i and W_i of the rule at rho = 1: the
    node 1 for a level set (power 2m - 1), the Gauss-Legendre rule on [0, 1]
    with the Jacobian x^(2m-1) for a ball (power 2m).  A shell or the
    weighted space is a single rule with its own radial nodes, at rho = 1.
    The directions theta_k are kept as their factors: ``nodes`` and
    ``weights`` hold the n_u-point Gauss-Legendre rule on [0, 1] of each of
    the m - 1 collapsed coordinates of the simplex, and each simplex node u
    stands for the n_phi^m directions sqrt(u) e^{i phi} on a uniform grid of
    ``n_phi`` angles per circle.  The direction factor does not depend on the
    radius, so one set of direction sums serves the whole grid.  Every array
    is float64.
    """

    rho: np.ndarray
    radii: np.ndarray
    radial_weights: np.ndarray
    power: int
    nodes: np.ndarray
    weights: np.ndarray
    m: int
    n_phi: int

    def gram(self, polys: Sequence[HoloPoly]) -> np.ndarray:
        """Gram coefficients G (n, n, D): sum_d G[i, j, d] s^d = sum_k w_k p_i(s theta_k) conj(p_j(s theta_k)).

        The terms of the n polynomials are paired by their exponents mod n_phi
        (`_matched_pairs`), aliased pairs alpha != beta included, and each
        pair (alpha, beta) of terms of p_i and p_j adds c_alpha conj(c_beta)
        times the simplex sum of |z|^(alpha + beta) to G[i, j, |alpha| +
        |beta|].  The simplex sums factor per collapsed coordinate, the
        Jacobian's power included (module docstring), into 1-D sums read from
        one table over the powers of sqrt(x) and sqrt(1 - x).  The closed
        route shares only the `HoloPoly` terms (with the `gradient` and
        `euler` its callers pair), `_variable_count_error` and `_grid_sum`.
        """
        comps, exps, coefs, i, j = _matched_pairs(polys, self.m, self.n_phi)
        powers = exps[i] + exps[j]
        sums = np.full(len(powers), (2 * math.pi) ** self.m / 2 ** (self.m - 1))
        if self.m > 1:
            # the powers of sqrt(x_c) and of sqrt(1 - x_c), Jacobian included, for c < m
            heads = powers[:, :-1]
            tails = np.cumsum(powers[:, :0:-1], axis=1)[:, ::-1] + 2 * np.arange(self.m - 2, -1, -1)
            root_x = np.sqrt(self.nodes)[:, None] ** np.arange(heads.max(initial=0) + 1)
            root_rest = np.sqrt(1.0 - self.nodes)[:, None] ** np.arange(tails.max(initial=0) + 1)
            # table[p, q] = sum_i w_i x_i^(p/2) (1 - x_i)^(q/2)
            grid = root_x[:, :, None] * root_rest[:, None, :]
            table = (self.weights @ grid.reshape(len(grid), -1)).reshape(grid.shape[1:])
            sums *= table[heads, tails].prod(axis=1)
        gram = np.zeros((len(polys), len(polys), 2 * exps.sum(axis=1).max(initial=0) + 1), dtype=complex)
        np.add.at(gram, (comps[i], comps[j], powers.sum(axis=1)), coefs[i] * coefs[j].conj() * sums)
        return gram

    def integrate(self, coeffs: np.ndarray, radial=1.0) -> np.ndarray:
        """The rule at each rho applied to sum_d c_d s^d, c an entry of `gram`: shape (R,).

        ``radial``, a factor per radial node s_i, multiplies the integrand of
        a single rule.  The radial sum factors per degree: with the moments
        t_d = sum_i W_i radial_i s_i^d of the rule at rho = 1, the value at
        rho is sum_d c_d t_d rho^(d + power).
        """
        moments = (self.radial_weights * radial) @ self.radii[:, None] ** np.arange(len(coeffs))
        return _grid_sum(self.rho, self.power, coeffs * moments)


def _matched_pairs(polys: Sequence[HoloPoly], m: int, n_phi: int):
    """The terms of polys and the pairs of them whose exponents agree mod n_phi.

    Returns the polynomial index (T,), exponents (T, m) and coefficients (T,)
    of the terms, then the term indices i and j of the pairs, by i and then
    by j.  One pass groups the terms by their reduced exponent; each term
    pairs with the members of its group, so the work is the matched pairs.
    """
    groups, terms = {}, []
    for k, poly in enumerate(polys):
        if poly.m != m:
            raise _variable_count_error(poly, m)
        for alpha, c in poly.terms.items():
            group = groups.setdefault(tuple(a % n_phi for a in alpha), [])
            group.append(len(terms))
            terms.append((k, alpha, c, group))
    comps = np.array([t[0] for t in terms], dtype=int)
    exps = np.array([t[1] for t in terms], dtype=int).reshape(-1, m)
    coefs = np.array([t[2] for t in terms], dtype=complex)
    i = np.repeat(np.arange(len(terms)), [len(t[3]) for t in terms])
    j = np.array([s for t in terms for s in t[3]], dtype=int)
    return comps, exps, coefs, i, j


def _product_rule(rho, radii, radial_weights, power: int, m: int, n_u: int, n_phi: int) -> ProductRule:
    nodes, weights = _collapsed_rule(n_u)
    return ProductRule(rho=rho, radii=radii, radial_weights=radial_weights, power=power,
                       nodes=nodes, weights=weights, m=m, n_phi=n_phi)


def radius_grid(radii) -> np.ndarray:
    """radii as a float array (R,); ValueError unless it is a 1-D grid."""
    rr = np.asarray(radii, dtype=float)
    if rr.ndim != 1:
        raise ValueError(f"radii must be a 1-D grid, got shape {rr.shape}")
    return rr


def _flat_grid(model: ModelShrinker, radii) -> np.ndarray:
    """Flat radii (R,) of a 1-D grid of level radii; one regularity check covers the grid."""
    return model.flat_radius(radius_grid(radii))


def level_set_quadrature(model: ModelShrinker, radii, resolution: int) -> ProductRule:
    """Quadrature on the level sets {b = r}, r in radii: the unit sphere dilated to each flat radius."""
    rho = _flat_grid(model, radii)
    m = model.flat_m
    require_rule_work(m, resolution)
    unit = np.ones(1)
    n_u, n_phi = _level_counts(m, resolution)
    return _product_rule(rho, unit, model.compact_area * unit, 2 * m - 1, m, n_u, n_phi)


def ball_quadrature(model: ModelShrinker, radii, resolution: int) -> ProductRule:
    """Quadrature on the sublevel sets {b < r}, r in radii: the unit ball dilated to each flat radius.

    The unit ball's radial rule is the n_rad-point Gauss-Legendre rule on
    [0, 1], its weights times the Jacobian x^(2m-1); its mass at rho is the volume.
    """
    rho = _flat_grid(model, radii)
    m = model.flat_m
    require_rule_work(m, resolution)
    n_rad, n_u, n_phi = _ball_counts(m, resolution)
    x, w = _gl(n_rad, 0.0, 1.0)
    return _product_rule(rho, x, w * x ** (2 * m - 1) * model.compact_area, 2 * m, m, n_u, n_phi)


def shell_quadrature(
    model: ModelShrinker, r_lo: float, r_hi: float, resolution: int
) -> ProductRule:
    """Quadrature on {r_lo < b < r_hi}: a single rule that keeps its radial nodes."""
    model.require_regular([r_lo, r_hi])
    if r_hi <= r_lo:
        raise ValueError(f"empty shell: {r_lo} >= {r_hi}")
    m = model.flat_m
    require_rule_work(m, resolution)
    n_rad, n_u, n_phi = _ball_counts(m, resolution)
    s, w_s = _gl(n_rad, model.flat_radius(r_lo), model.flat_radius(r_hi))
    return _product_rule(np.ones(1), s, w_s * s ** (2 * m - 1) * model.compact_area, 0, m, n_u, n_phi)


# flat radius beyond which the weighted measure is dropped: the lost tail is
# of order e^{-42^2/4}, far below every tolerance in use
WEIGHTED_RADIUS_MAX = 42.0


def weighted_space_quadrature(model: ModelShrinker, resolution: int = 256) -> ProductRule:
    """Quadrature for integrals against the weighted measure e^{-f} dv over M.

    A single rule: the radial weights already include e^{-f} and stop at
    WEIGHTED_RADIUS_MAX.
    """
    m = model.flat_m
    require_rule_work(m, resolution)
    n_rad = max(64, resolution)
    _, n_u, n_phi = _ball_counts(m, resolution)
    s, w_s = _gl(n_rad, 0.0, WEIGHTED_RADIUS_MAX)
    radial = w_s * s ** (2 * m - 1) * np.exp(-s * s / 4 - model.f_min) * model.compact_area
    return _product_rule(np.ones(1), s, radial, 0, m, n_u, n_phi)


# -- closed-form rules ----------------------------------------------------------


@dataclass(frozen=True)
class MomentRule:
    """Exact counterpart of the level-set (``ball`` false) or ball rules on the grid of flat radii ``rho``.

    ``area`` is the compact area.  Direction sums are exact unit-sphere
    moments, so one set of them serves every radius, as on a ProductRule.
    """

    m: int
    rho: np.ndarray
    area: float
    ball: bool

    def gram(self, polys: Sequence[HoloPoly]) -> np.ndarray:
        """Gram coefficients G (n, n, D): sum_d G[i, j, d] s^d = int_{S^(2m-1)} p_i(s theta) conj(p_j(s theta)).

        Only the pairs alpha = beta survive the torus action, so a pass of its
        own groups the terms by their exact exponent, and each pair of terms
        of p_i and p_j in a group adds c_alpha conj(c_beta) times the
        unit-sphere moment of |z^alpha|^2 to G[i, j, 2|alpha|].  The
        quadrature route shares only the `HoloPoly` terms (with the
        `gradient` and `euler` its callers pair), `_variable_count_error` and
        `_grid_sum`.
        """
        groups = {}
        for k, poly in enumerate(polys):
            if poly.m != self.m:
                raise _variable_count_error(poly, self.m)
            for alpha, c in poly.terms.items():
                groups.setdefault(alpha, []).append((k, c))
        n, size = len(polys), 2 * max(map(sum, groups), default=0) + 1
        gram = [0j] * (n * n * size)
        for alpha, terms in groups.items():
            moment = sphere_moment(self.m, alpha)
            for i, c in terms:
                for j, d in terms:
                    gram[(i * n + j) * size + 2 * sum(alpha)] += c * d.conjugate() * moment
        return np.array(gram).reshape(n, n, size)

    def integrate(self, coeffs: np.ndarray) -> np.ndarray:
        """area sum_d c_d int s^(d+2m-1) at each rho: at s = rho (level) or over [0, rho] (ball); shape (R,).

        The ball's radial integrals are rho^(d+2m)/(d+2m) in closed form.
        """
        n = 2 * self.m
        if self.ball:
            return _grid_sum(self.rho, n, self.area * coeffs / (np.arange(len(coeffs)) + n))
        return _grid_sum(self.rho, n - 1, self.area * coeffs)


def level_set_moments(model: ModelShrinker, radii) -> MomentRule:
    """Closed-form rule on the level sets {b = r}, r in radii."""
    return MomentRule(model.flat_m, _flat_grid(model, radii), model.compact_area, ball=False)


def ball_moments(model: ModelShrinker, radii) -> MomentRule:
    """Closed-form rule on the sublevel sets {b < r}, r in radii."""
    return MomentRule(model.flat_m, _flat_grid(model, radii), model.compact_area, ball=True)


# -- the divergence identity -------------------------------------------------


# digits of the decimal sums of verify_volume_identity: at m = 5 and r = 20 its
# sides cancel at a scale near 3e14, so the masses need about 4e-25
_VOLUME_DIGITS = 42


@lru_cache(maxsize=None)
def _decimal_gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] as Decimal object arrays at _VOLUME_DIGITS digits.

    Newton's method in x refines the float64 table, with P_n and its
    derivative from the three-term recurrence, since Decimal has no
    trigonometric functions (cf. Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013).  It squares the seeds' error, so a step below 1e-21 is the last.
    The nodes are symmetric about 0, so only the upper half is refined and
    the lower half mirrors it; nodes and weights are ascending in x, like
    `_gl_reference`.
    """

    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1)

    with decimal.localcontext() as context:
        context.prec = _VOLUME_DIGITS
        x = np.array([Decimal(v) for v in _gl_reference(n)[0][n // 2:]], dtype=object)
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x = x - step
            if np.max(np.abs(step), initial=0) <= Decimal("1e-21"):  # a 0-point table is empty
                break
        _, dp = legendre(x)
        w = 2 / ((1 - x * x) * dp * dp)
        # negation rounds to the context's digits too
        return np.concatenate([-x[::-1][: n // 2], x]), np.concatenate([w[::-1][: n // 2], w])


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
    rhos = model.flat_radius(radii)
    n_level, _ = _level_counts(m, resolution)
    n_rad, n_ball, _ = _ball_counts(m, resolution)
    residuals = []
    with decimal.localcontext() as context:
        context.prec = _VOLUME_DIGITS

        def unit_sphere_mass(n_u):
            # the torus factor times the m - 1 Jacobian sums of the collapsed rule, whose nodes are (1 + x)/2
            x, w = _decimal_gl(n_u)
            factors = (np.sum(w * (1 - x) ** k) / 2 ** (k + 1) for k in range(m - 1))
            return (2 * Decimal(math.pi)) ** m / 2 ** (m - 1) * math.prod(factors)

        x, w = _decimal_gl(n_rad)
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
