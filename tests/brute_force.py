"""Node-by-node reference for the factored quadrature route.

Each product rule is expanded into its flat tensor-product grid, nodes
s_i theta_k with weights W_i w_k, and every integrand is evaluated pointwise
on that grid.  The package sums the same rule factored into radial sums and
direction Gram matrices; the tests compare the two at low resolution.
"""

from __future__ import annotations

import numpy as np

from shrinker_lab.holopoly import evaluate, gradient
from shrinker_lab.quadrature import (
    ball_quadrature,
    level_set_quadrature,
    shell_quadrature,
    weighted_space_quadrature,
)


def expand(rule):
    """Flat nodes (N, m) and weights (N,) of a product rule."""
    nodes = rule.radii[:, None, None] * rule.nodes[None, :, :]
    weights = rule.radial_weights[:, None] * rule.weights[None, :]
    return nodes.reshape(-1, rule.nodes.shape[1]), weights.ravel()


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
    nodes, weights = expand(level_set_quadrature(model, r, resolution))
    return fields(u, nodes), weights


def I_of_r(model, u, r, resolution):
    f, w = on_level(model, u, r, resolution)
    rho = model.flat_radius(r)
    return r ** (1 - model.n) * (rho / r) * float(np.sum(w * f["u_sq"]))


def D_of_r(model, u, r, resolution):
    """(bulk, boundary) forms of the Dirichlet energy."""
    rho = model.flat_radius(r)
    scale = r ** (2 - model.n)
    nodes, weights = expand(ball_quadrature(model, r, resolution))
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
    nodes, weights = expand(ball_quadrature(model, r, resolution))
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
