"""Node-by-node reference for the factored quadrature route.

Each product rule is expanded into its flat grid: the 1-D rule of its
collapsed coordinates gives the simplex grid node by node, every simplex
node u_s becomes the n_phi^m directions sqrt(u_s) e^{i phi} on the uniform
angle grid, and the directions times the radii s_i give the nodes, with
weights W_i w_s / n_phi^m.  Every integrand is evaluated pointwise on that
grid.  The package sums the same rule as products of 1-D sums over monomial
pairs; the tests compare the two at low resolution.

The closed volumes and areas of the level and sublevel sets close the
module: they are the exact references of the rules' total masses and of
the volume identity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from shrinker_lab.errors import DomainError
from shrinker_lab.holopoly import HoloPoly, gradient, monomials
from shrinker_lab.quadrature import (
    ball_quadrature,
    level_set_quadrature,
    shell_quadrature,
    weighted_space_quadrature,
)


def evaluate(u: HoloPoly, z) -> complex | np.ndarray:
    """Evaluate u at a point of C^m or at an array of points of shape (..., m)."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim == 0:
        if u.m != 1:
            raise DomainError(f"point has 1 coordinate, polynomial has {u.m}")
        zs = zs.reshape(1)
    if zs.shape[-1] != u.m:
        raise DomainError(f"point has {zs.shape[-1]} coordinates, polynomial has {u.m}")
    if not u.terms:
        out = np.zeros(zs.shape[:-1], dtype=complex)
        return complex(out) if out.ndim == 0 else out
    # Powers are shared between terms: pows[j][k] = z_j^k on the whole batch.
    maxdeg = [0] * u.m
    for alpha in u.terms:
        for j, a in enumerate(alpha):
            maxdeg[j] = max(maxdeg[j], a)
    pows = []
    for j in range(u.m):
        col = zs[..., j]
        p = [np.ones_like(col)]
        for _ in range(maxdeg[j]):
            p.append(p[-1] * col)
        pows.append(p)
    acc = np.zeros(zs.shape[:-1], dtype=complex)
    for alpha, c in u.terms.items():
        term = None
        for j, a in enumerate(alpha):
            if a == 0:
                continue
            term = pows[j][a] if term is None else term * pows[j][a]
        acc = acc + c * (term if term is not None else 1.0)
    if acc.ndim == 0:
        return complex(acc)
    return acc


def homogeneous_parts(u: HoloPoly) -> dict[int, HoloPoly]:
    """Split u = sum_k u_k into nonzero parts homogeneous of degree k."""
    parts: dict[int, dict[tuple[int, ...], complex]] = {}
    for alpha, c in u.terms.items():
        parts.setdefault(sum(alpha), {})[alpha] = c
    return {k: HoloPoly(u.m, terms) for k, terms in parts.items()}


def evaluate_parts(u: HoloPoly, z: np.ndarray, degrees) -> np.ndarray:
    """Homogeneous parts of u at points z of shape (K, m).

    Row i holds the part of degree ``degrees[i]``, zero where u has none.
    """
    parts = homogeneous_parts(u)
    out = np.zeros((len(degrees), z.shape[0]), dtype=complex)
    for i, k in enumerate(degrees):
        if k in parts:
            out[i] = evaluate(parts[k], z)
    return out


def simplex(rule):
    """Simplex nodes u (S, m) and weights (S,) of a rule, S = n_u^(m-1), built node by node.

    Collapsed coordinates x_c in [0, 1], c < m, each on the rule's 1-D
    table, give u_1 = x_1, u_{c+1} = x_{c+1} prod_{j<=c} (1 - x_j) and u_m =
    prod_{j<m} (1 - x_j), with Jacobian prod_c (1 - x_c)^(m-1-c).  The
    weights carry the torus volume (2 pi)^m and the sphere measure's
    2^(1-m), so they sum to the sphere's area.
    """
    m = rule.m
    nodes, weights = [], []
    for index in itertools.product(range(len(rule.nodes)), repeat=m - 1):
        u, rest = [], 1.0
        weight = (2 * math.pi) ** m / 2 ** (m - 1)
        for c, i in enumerate(index, start=1):
            x = rule.nodes[i]
            u.append(x * rest)
            rest *= 1.0 - x
            weight *= rule.weights[i] * (1.0 - x) ** (m - 1 - c)
        nodes.append(u + [rest])
        weights.append(weight)
    return np.array(nodes).reshape(-1, m), np.array(weights)


def directions(rule):
    """Flat unit directions (K, m) and weights (K,) of a rule's direction factor."""
    m = rule.m
    nodes, simplex_weights = simplex(rule)
    phis = 2.0 * np.pi * np.arange(rule.n_phi) / rule.n_phi
    angles = np.array(list(itertools.product(phis, repeat=m)))  # (n_phi^m, m)
    dirs = np.sqrt(nodes)[:, None, :] * np.exp(1j * angles)[None, :, :]
    weights = np.repeat(simplex_weights / rule.n_phi**m, len(angles))
    return dirs.reshape(-1, m), weights


def expand(rule):
    """Flat nodes (N, m) and weights (N,) of a product rule on one radius.

    At its flat radius rho the rule has the radial nodes rho s_i and
    weights rho^power W_i; a single rule has rho = 1.
    """
    (rho,) = rule.rho
    dirs, dir_weights = directions(rule)
    nodes = (rho * rule.radii)[:, None, None] * dirs[None, :, :]
    weights = (rho**rule.power * rule.radial_weights)[:, None] * dir_weights[None, :]
    return nodes.reshape(-1, dirs.shape[1]), weights.ravel()


def gram(rule, polys):
    """Gram coefficients (n, n, D) of polys by degree, from their homogeneous parts on the flat direction grid.

    The Gram matrix sum_theta w_theta a_k(theta) conj(b_l(theta)) of the
    parts of each pair (a, b) of polys enters whole, so aliased pairs are
    summed by the grid itself.
    """
    dirs, weights = directions(rule)
    top = max(max(p.degree for p in polys), 0)
    parts = [evaluate_parts(p, dirs, range(top + 1)) for p in polys]
    degrees = np.add.outer(np.arange(top + 1), np.arange(top + 1))
    out = np.zeros((len(polys), len(polys), 2 * top + 1), dtype=complex)
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            np.add.at(out[i, j], degrees, (a * weights) @ b.conj().T)
    return out


def fields(u, nodes):
    """u, |u|^2, |grad u|^2, E = sum z_j du/dz_j and |z|^2 at every node."""
    uval = evaluate(u, nodes)
    gvals = [evaluate(g, nodes) for g in gradient(u)]
    return {
        "u": uval,
        "u_sq": np.abs(uval) ** 2,
        "grad_sq": 2.0 * sum(np.abs(g) ** 2 for g in gvals),
        "E": sum(nodes[:, j] * gvals[j] for j in range(u.m)),
        "R_sq": np.sum(np.abs(nodes) ** 2, axis=-1),
    }


def on_level(model, u, r, resolution):
    nodes, weights = expand(level_set_quadrature(model, [r], resolution))
    return fields(u, nodes), weights


def I_of_r(model, u, r, resolution):
    f, w = on_level(model, u, r, resolution)
    rho = model.flat_radius(r)
    return r ** (1 - model.n) * (rho / r) * float(np.sum(w * f["u_sq"]))


def D_of_r(model, u, r, resolution):
    """(bulk, boundary) forms of the Dirichlet energy."""
    rho = model.flat_radius(r)
    scale = r ** (2 - model.n)
    nodes, weights = expand(ball_quadrature(model, [r], resolution))
    bulk = scale * float(np.sum(weights * fields(u, nodes)["grad_sq"]))
    f, w = on_level(model, u, r, resolution)
    boundary = scale / rho * float(np.sum(w * np.real(np.conj(f["u"]) * f["E"])))
    return bulk, boundary


def level_defect(model, u, r, j, resolution):
    f, w = on_level(model, u, r, resolution)
    rho = model.flat_radius(r)
    integrand = f["grad_sq"] - 2.0 * np.abs(f["E"]) ** 2 / rho**2
    return model.s_const**j * (r / rho) * float(np.sum(w * integrand))


def defect_recursion(model, u, r, jmax, resolution):
    """(K_0..K_jmax, ball Dirichlet energy, recursion residuals)."""
    ks = [level_defect(model, u, r, j, resolution) for j in range(jmax + 2)]
    nodes, weights = expand(ball_quadrature(model, [r], resolution))
    f = fields(u, nodes)
    c = model.f_min
    b_val = np.sqrt(4.0 * c + f["R_sq"])
    lap_b = 4.0 * c / b_val**3 + (2 * model.flat_m - 1) / b_val
    normal_sq = np.abs(f["E"]) ** 2 / f["R_sq"]
    hess = (4.0 * c / b_val**3) * normal_sq + (f["grad_sq"] - normal_sq) / b_val
    residuals = []
    for j in range(jmax + 1):
        lhs = ks[j] - (4.0 / r**2) * ks[j + 1]
        rhs = model.s_const**j * float(np.sum(weights * (f["grad_sq"] * lap_b - 2.0 * hess)))
        residuals.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    return ks[: jmax + 1], float(np.sum(weights * f["grad_sq"])), residuals


def shell_energy(model, u, r_lo, r_hi, resolution):
    """J = int_{r_lo < b < r_hi} |u|^2 |grad b|^2."""
    nodes, weights = expand(shell_quadrature(model, r_lo, r_hi, resolution))
    f = fields(u, nodes)
    grad_b_sq = f["R_sq"] / (4.0 * model.f_min + f["R_sq"])
    return float(np.sum(weights * f["u_sq"] * grad_b_sq))


def form_integral(model, omega, shift, resolution):
    """int |omega|^2 (f - shift) e^{-f} dv on the weighted-space rule."""
    nodes, weights = expand(weighted_space_quadrature(model, resolution))
    norms = 2.0**omega.p * sum(np.abs(evaluate(p, nodes)) ** 2 for p in omega.coeffs.values())
    f_vals = model.f_min + 0.25 * np.sum(np.abs(nodes) ** 2, axis=-1)
    return float(np.sum(weights * norms * (f_vals - shift)))


def random_polys(model, seed, count):
    """The report's random polynomials, enumerating the monomials again for every draw."""
    rng = np.random.default_rng(seed)
    zero = (0,) * model.flat_m
    out = []
    for _ in range(count):
        terms = {}
        for alpha in [*monomials(model.flat_m, 6, 1), zero]:
            if rng.uniform() < 0.6:
                terms[alpha] = complex(rng.normal(), rng.normal())
        out.append(HoloPoly(model.flat_m, terms or {zero: 1.0}))
    return out


def unit_sphere_area(m: int) -> float:
    """Area of the unit sphere S^{2m-1} in C^m."""
    return 2.0 * math.pi**m / math.factorial(m - 1)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in C^m = R^{2m}."""
    return math.pi**m / math.factorial(m)


def volume_area(model, r):
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


def raw_level_area(model, r):
    """Geometric surface area of {b = r}."""
    rho = model.flat_radius(r)
    return model.compact_area * unit_sphere_area(model.flat_m) * rho ** (2 * model.flat_m - 1)
