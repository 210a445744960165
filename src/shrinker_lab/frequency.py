"""Weighted frequency machinery for holomorphic functions on model shrinkers.

For a holomorphic polynomial u and regular level radius r the three basic
quantities are

    I(r) = r^{1-n} int_{b=r} |u|^2 |grad b|
    D(r) = r^{2-n} int_{b<r} |grad u|^2
         = (1/2) r^{2-n} int_{b=r} <grad |u|^2, nu>      (divergence theorem)
    U(r) = D(r) / I(r)

together with the level integrals K_j weighted by powers of the scalar
curvature, the Dirichlet-quotient ratio rho(r) with its universal bound
mu = e^{2p+6} d^2, the almost-monotone combination of U with the damping
integral eta, the doubling and three-circle inequalities, and the shell
integrals J_i entering the dimension-counting ledger.

Every integral has two routes: a closed form built from exact sphere or ball
moments of monomials (cross moments vanish by the torus action), and a
quadrature route over the product rules of the quadrature module.  The
quadrature route evaluates the homogeneous parts of u, of grad u and of
E = sum_j z_j du/dz_j once on the unit directions of a rule and contracts
their Gram matrices with the radial nodes.  Every factor that is not a
polynomial in z (|grad b|^2, Laplacian(b), 1/|z|^2, e^{-f}) depends on the
radius alone, so this is the rule's own sum reordered, and the cross Gram
entries the closed route drops by symmetry are summed.  Every function that
takes a `method` (and FrequencyConfig) accepts "closed", the default, or
"quadrature", and raises DomainError for any other value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError
from .holopoly import HoloPoly, evaluate_parts, gradient, lie_derivative_nabla_f
from .models import ModelShrinker
from .quadrature import (
    ProductRule,
    ball_moment,
    ball_quadrature,
    level_set_quadrature,
    shell_quadrature,
    sphere_moment,
)

MONOTONE_SLACK = 1e-6


def default_R0(model: ModelShrinker) -> float:
    """Threshold radius: large enough for regularity, sqrt(2n) and |grad b|^2 > 1/2."""
    return max(
        math.sqrt(2.0 * model.n),
        2.0 * math.sqrt(4.0 * model.sup_S + 1.0),
        4.0,
    )


def mu_constant(d: float, p: float) -> float:
    """Universal Dirichlet-quotient bound e^{2p+6} d^2 (d clamped to >= 1)."""
    d_eff = max(float(d), 1.0)
    return math.exp(2.0 * p + 6.0) * d_eff * d_eff


@dataclass(frozen=True)
class FrequencyConfig:
    resolution: int = 128
    sigma: float = 0.5
    epsilon: float = 0.01
    C1: float = 1.0
    C2: float = 1.0
    method: str = "closed"

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        _use_closed(self.method)  # raises DomainError for an unknown method

    @property
    def sigma_eff(self) -> float:
        # The monotone combination is used on the sigma <= 1/2 branch, where
        # both decay exponents collapse to sigma.
        return min(self.sigma, 0.5)


# -- direction sums of the fields of u ------------------------------------------


class _SphereFields:
    """Direction sums of the fields of u on a product rule, as polynomials in the radius.

    Each field attribute is a coefficient array c with
    sum_k w_k F(s theta_k) = sum_d c_d s^d, for F one of |u|^2, |grad u|^2,
    |E|^2 and Re(conj(u) E), where E = sum_j z_j du/dz_j.  The homogeneous
    parts u has are evaluated on the rule's directions once, and only for the
    fields read.  Rules of one kind and resolution share their directions, so
    one instance serves every radius.
    """

    def __init__(self, u: HoloPoly, rule: ProductRule):
        self.u = u
        self.rule = rule
        self.degrees = sorted(u.homogeneous_parts()) or [0]
        # du/dz_j lowers each degree by one; z_j du/dz_j restores it in E
        self.grad_degrees = [k - 1 for k in self.degrees if k > 0] or [0]
        self.e_degrees = [k + 1 for k in self.grad_degrees]

    @cached_property
    def _u_parts(self) -> np.ndarray:
        return evaluate_parts(self.u, self.rule.nodes, self.degrees)

    @cached_property
    def _grad_parts(self) -> np.ndarray:
        nodes = self.rule.nodes
        return np.stack([evaluate_parts(g, nodes, self.grad_degrees) for g in gradient(self.u)])

    @cached_property
    def _e_parts(self) -> np.ndarray:
        return np.einsum("xj,jdx->dx", self.rule.nodes, self._grad_parts)

    @cached_property
    def u_sq(self) -> np.ndarray:
        return self.rule.sphere_integrals(self._u_parts, self.degrees, self._u_parts, self.degrees)

    @cached_property
    def grad_sq(self) -> np.ndarray:
        # |grad u|^2 = 2 sum_j |du/dz_j|^2
        grad, deg = self._grad_parts, self.grad_degrees
        return 2.0 * self.rule.sphere_integrals(grad, deg, grad, deg)

    @cached_property
    def e_sq(self) -> np.ndarray:
        return self.rule.sphere_integrals(self._e_parts, self.e_degrees, self._e_parts, self.e_degrees)

    @cached_property
    def u_e(self) -> np.ndarray:
        return self.rule.sphere_integrals(self._e_parts, self.e_degrees, self._u_parts, self.degrees)


def _diagonal_moments(model: ModelShrinker, u: HoloPoly, rho: float, kind: str) -> float:
    """Sum over terms of |c_alpha|^2 moment(alpha) at flat radius rho."""
    total = 0.0
    for alpha, c in u.terms.items():
        mom = (
            sphere_moment(model.flat_m, alpha, rho)
            if kind == "sphere"
            else ball_moment(model.flat_m, alpha, rho)
        )
        total += abs(c) ** 2 * mom
    return model.compact_area * total


def _weighted_sphere_sum(model: ModelShrinker, u: HoloPoly, rho: float, weight_fn) -> float:
    total = 0.0
    for alpha, c in u.terms.items():
        total += weight_fn(alpha) * abs(c) ** 2 * sphere_moment(model.flat_m, alpha, rho)
    return model.compact_area * total


def _use_closed(method: str) -> bool:
    if method not in ("closed", "quadrature"):
        raise DomainError(f"unknown evaluation method {method!r}")
    return method == "closed"


# -- I, D, U -------------------------------------------------------------------


def I_of_r(
    model: ModelShrinker,
    u: HoloPoly,
    r: float,
    resolution: int = 128,
    method: str = "closed",
) -> float:
    """Height function I(r) = r^{1-n} int_{b=r} |u|^2 |grad b|."""
    model.require_regular(r)
    rho = model.flat_radius(r)
    grad_b = rho / r
    if _use_closed(method):
        return r ** (1 - model.n) * grad_b * _diagonal_moments(model, u, rho, "sphere")
    level = level_set_quadrature(model, r, resolution)
    return _height(model, r, level, _SphereFields(u, level))


def _height(model: ModelShrinker, r: float, level: ProductRule, fields: _SphereFields) -> float:
    grad_b = model.flat_radius(r) / r
    return r ** (1 - model.n) * grad_b * level.integrate(fields.u_sq)


def _bulk_energy(model: ModelShrinker, r: float, ball: ProductRule, fields: _SphereFields) -> float:
    return r ** (2 - model.n) * ball.integrate(fields.grad_sq)


def _dirichlet_bulk(
    model: ModelShrinker, u: HoloPoly, r: float, resolution: int, method: str
) -> float:
    """D(r) in its bulk form r^{2-n} int_{b<r} |grad u|^2."""
    model.require_regular(r)
    if _use_closed(method):
        rho = model.flat_radius(r)
        moments = sum(_diagonal_moments(model, g, rho, "ball") for g in gradient(u))
        return r ** (2 - model.n) * 2.0 * moments
    ball = ball_quadrature(model, r, resolution)
    return _bulk_energy(model, r, ball, _SphereFields(u, ball))


@dataclass(frozen=True)
class DirichletRecord:
    bulk: float
    boundary: float


def D_of_r(
    model: ModelShrinker,
    u: HoloPoly,
    r: float,
    resolution: int = 128,
    method: str = "closed",
) -> DirichletRecord:
    """Dirichlet energy D(r) in both its bulk and boundary forms."""
    bulk = _dirichlet_bulk(model, u, r, resolution, method)
    rho = model.flat_radius(r)
    scale = r ** (2 - model.n)
    if _use_closed(method):
        boundary = scale / rho * _weighted_sphere_sum(model, u, rho, lambda a: float(sum(a)))
        return DirichletRecord(bulk=bulk, boundary=boundary)
    level = level_set_quadrature(model, r, resolution)
    # <grad |u|^2, nu> = 2 Re(conj(u) E) / rho, and D carries a further 1/2
    boundary = scale / rho * level.integrate(_SphereFields(u, level).u_e)
    return DirichletRecord(bulk=bulk, boundary=boundary)


def frequency_U(
    model: ModelShrinker,
    u: HoloPoly,
    r: float,
    resolution: int = 128,
    method: str = "closed",
) -> float:
    i_val = I_of_r(model, u, r, resolution, method)
    if i_val <= 0.0:
        raise DomainError("I(r) vanished: the function is identically zero")
    return _dirichlet_bulk(model, u, r, resolution, method) / i_val


def eta_integral(r: float, config: FrequencyConfig, mu: float, lo: float = 0.0) -> float:
    """Damping integral int C2 sqrt(mu) s^{-1-sigma} exp(-C1/(sigma s^sigma)) ds over [lo, r].

    The integrand vanishes for s <= 0 and is the derivative of
    (C2 sqrt(mu)/C1) e^{-C1/(sigma s^sigma)}, so the integral is a difference
    of that antiderivative at the exponents a (at r) and b (at lo).  It is
    formed as e^a (-expm1(b - a)), with b - a = (C1/sigma) lo^-sigma
    ((lo/r)^sigma - 1) taken through expm1/log1p, so that it keeps its digits
    for tiny C1 and for short intervals.
    """
    if r < lo:
        return -eta_integral(lo, config, mu, lo=r)
    sig = config.sigma_eff
    scale = config.C2 * math.sqrt(mu) / config.C1
    a = -config.C1 / (sig * r**sig) if r > 0.0 else -math.inf
    if lo <= 0.0:
        return scale * math.exp(a)
    b_minus_a = config.C1 / (sig * lo**sig) * math.expm1(-sig * math.log1p((r - lo) / lo))
    return scale * math.exp(a) * -math.expm1(b_minus_a)


@dataclass
class FrequencyProfile:
    """Sampled frequency data of one holomorphic function on a radius grid.

    Built by frequency_profile, which checks that the radii increase and that
    I is positive on them.
    """

    d: float
    radii: np.ndarray
    I: np.ndarray
    D: np.ndarray
    U: np.ndarray
    eta: np.ndarray
    monotone_q: np.ndarray
    config: FrequencyConfig
    mu: float

    def to_rows(self) -> list[dict]:
        return [
            {
                "r": float(self.radii[i]),
                "I": float(self.I[i]),
                "D": float(self.D[i]),
                "U": float(self.U[i]),
                "eta": float(self.eta[i]),
                "monotone_q": float(self.monotone_q[i]),
            }
            for i in range(self.radii.size)
        ]


def frequency_profile(
    model: ModelShrinker,
    u: HoloPoly,
    d: float,
    radii,
    config: FrequencyConfig | None = None,
) -> FrequencyProfile:
    """Evaluate I, D, U, eta and the monotone combination on a radius grid."""
    config = config or FrequencyConfig()
    rr = np.asarray(radii, dtype=float)
    if np.any(np.diff(rr) <= 0):
        raise DomainError("profile radii must be strictly increasing")
    mu = mu_constant(d, model.n)
    res = config.resolution
    if _use_closed(config.method):
        i_vals = np.array([I_of_r(model, u, r, res, config.method) for r in rr])
        d_vals = np.array([_dirichlet_bulk(model, u, r, res, config.method) for r in rr])
    else:
        # rules of one kind share their directions: one Gram matrix serves every radius
        levels = [level_set_quadrature(model, r, res) for r in rr]
        balls = [ball_quadrature(model, r, res) for r in rr]
        on_level, on_ball = _SphereFields(u, levels[0]), _SphereFields(u, balls[0])
        i_vals = np.array([_height(model, r, level, on_level) for r, level in zip(rr, levels)])
        d_vals = np.array([_bulk_energy(model, r, ball, on_ball) for r, ball in zip(rr, balls)])
    if np.any(i_vals <= 0):
        raise DomainError("I(r) must be positive on the grid (u is not identically zero)")
    u_vals = d_vals / i_vals
    sig = config.sigma_eff
    eta_vals = np.empty_like(rr)
    prev_r, acc = 0.0, 0.0
    for i, r in enumerate(rr):
        acc += eta_integral(r, config, mu, lo=prev_r)
        eta_vals[i] = acc
        prev_r = r
    damping = np.exp(-config.C1 / (sig * rr**sig))
    q = u_vals * damping + eta_vals
    return FrequencyProfile(
        d=d,
        radii=rr,
        I=i_vals,
        D=d_vals,
        U=u_vals,
        eta=eta_vals,
        monotone_q=q,
        config=config,
        mu=mu,
    )


# -- derivative identity for I ---------------------------------------------------


def i_prime_rhs(
    model: ModelShrinker,
    u: HoloPoly,
    r: float,
    resolution: int = 128,
    method: str = "closed",
) -> float:
    """Exact expression for I'(r): boundary flux plus the curvature correction."""
    model.require_regular(r)
    rho = model.flat_radius(r)
    n = model.n
    s = model.s_const
    if _use_closed(method):
        flux = (2.0 / rho) * _weighted_sphere_sum(model, u, rho, lambda a: float(sum(a)))
        curv = s * (r / rho) * _diagonal_moments(model, u, rho, "sphere")
    else:
        level = level_set_quadrature(model, r, resolution)
        fields = _SphereFields(u, level)
        flux = 2.0 / rho * level.integrate(fields.u_e)
        curv = s * (r / rho) * level.integrate(fields.u_sq)
    return r ** (1 - n) * flux + r ** (-n) * (4.0 * n / r**2 - 2.0) * curv


def check_derivative_I(
    model: ModelShrinker,
    u: HoloPoly,
    r: float,
    h: float | None = None,
    resolution: int = 128,
    method: str = "closed",
) -> float:
    """Relative residual of the central difference of I against its derivative formula."""
    if h is None:
        h = 1e-3 * r
    model.require_regular(r - h)
    diff = (
        I_of_r(model, u, r + h, resolution, method)
        - I_of_r(model, u, r - h, resolution, method)
    ) / (2.0 * h)
    rhs = i_prime_rhs(model, u, r, resolution, method)
    return abs(diff - rhs) / (1.0 + abs(rhs))


# -- curvature-weighted level integrals K_j --------------------------------------


def level_defect(model: ModelShrinker, u: HoloPoly, r: float, j: int, resolution: int = 128) -> float:
    """level_defect(r) = int_{b=r} S^j (|grad u|^2 - 2 |du/dnu|^2) / |grad b|."""
    model.require_regular(r)
    rho = model.flat_radius(r)
    level = level_set_quadrature(model, r, resolution)
    fields = _SphereFields(u, level)
    # |du/dnu|^2 = |E|^2 / rho^2 on the level set
    integral = level.integrate(fields.grad_sq) - 2.0 * level.integrate(fields.e_sq) / rho**2
    return model.s_const**j * (r / rho) * integral


@dataclass(frozen=True)
class DefectReport:
    K: list[float]
    dirichlet: float
    c_measured: float
    recursion_residuals: list[float]


def check_defect_recursion(
    model: ModelShrinker, u: HoloPoly, r: float, jmax: int = 3, resolution: int = 128
) -> DefectReport:
    """Measure |K_0| against the Dirichlet energy and verify the K_j recursion.

    The recursion step compares K_j - (4/r^2) K_{j+1} with its bulk form
    int_{b<r} S^j (|grad u|^2 Laplacian(b) - 2 Re Hess_b(grad u, grad conj(u))),
    which follows from the first variation of the energy along S^j grad b.
    """
    # S is constant on every catalog model, so K_j = S^j K_0
    k0 = level_defect(model, u, r, 0, resolution)
    ks = [model.s_const**j * k0 for j in range(jmax + 2)]
    ball = ball_quadrature(model, r, resolution)
    fields = _SphereFields(u, ball)
    dirichlet = ball.integrate(fields.grad_sq)
    c_measured = abs(ks[0]) / dirichlet if dirichlet > 0 else 0.0
    c = model.f_min
    n_flat = 2 * model.flat_m
    # b and its derivatives depend on the radius alone, so direction sums of
    # |grad u|^2 and |E|^2 per radial node carry the whole integrand
    s = ball.radii
    grad_sq = np.polynomial.polynomial.polyval(s, fields.grad_sq)
    normal_sq = np.polynomial.polynomial.polyval(s, fields.e_sq) / s**2
    b_val = np.sqrt(4.0 * c + s**2)
    lap_b = 4.0 * c / b_val**3 + (n_flat - 1) / b_val
    hess = (4.0 * c / b_val**3) * normal_sq + (grad_sq - normal_sq) / b_val
    bulk = float(np.sum(ball.radial_weights * (grad_sq * lap_b - 2.0 * hess)))
    residuals = []
    for j in range(jmax + 1):
        lhs = ks[j] - (4.0 / r**2) * ks[j + 1]
        rhs = model.s_const**j * bulk
        residuals.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    return DefectReport(
        K=ks[: jmax + 1],
        dirichlet=dirichlet,
        c_measured=c_measured,
        recursion_residuals=residuals,
    )


# -- Dirichlet-quotient ratio -----------------------------------------------------


@dataclass(frozen=True)
class RhoMuRecord:
    rho: float
    mu: float
    passed: bool


def rho_mu(model: ModelShrinker, u: HoloPoly, d: float, r: float) -> RhoMuRecord:
    """Ratio of level energies of the derivative pair (u, <grad u, grad f>).

    The derivative function is computed symbolically; the ratio is bounded by
    mu = e^{2p+6} d^2 with the volume-growth power p = n, after clamping d
    below by 1 as the bound requires.
    """
    if u.is_zero():
        raise DomainError("rho is undefined for the zero function")
    mu = mu_constant(d, model.n)
    model.require_regular(r)
    rho_flat = model.flat_radius(r)
    u1 = lie_derivative_nabla_f(model, u)
    num = _diagonal_moments(model, u1, rho_flat, "sphere")
    den = _diagonal_moments(model, u, rho_flat, "sphere")
    ratio = num / den
    return RhoMuRecord(rho=ratio, mu=mu, passed=ratio <= mu)


# -- monotonicity, calibration, doubling -------------------------------------------


def check_monotone(profile: FrequencyProfile, slack: float = MONOTONE_SLACK) -> bool:
    """True when the combined quantity never drops by more than the slack."""
    q = profile.monotone_q
    drops = np.diff(q) + slack * (1.0 + np.abs(q[:-1]))
    return bool(np.all(drops >= 0.0))


def calibrate_constants(model: ModelShrinker, u: HoloPoly, d: float, pre_grid) -> FrequencyConfig:
    """Fit C1, C2 on a calibration grid so the U' lower bound holds with margin.

    The decay inequality U' >= -C1 r^{-1-sigma} U - C2 sqrt(mu) r^{-1-sigma}
    involves constants the theory leaves implicit; we measure the worst
    downward slope of U on the calibration grid, split the requirement evenly
    between the two terms, and inflate by the safety factor 1.5, with 0.5 as
    the floor of each constant.  Verification is then done on a disjoint
    holdout grid.
    """
    config = FrequencyConfig()
    mu = mu_constant(d, model.n)
    sig = config.sigma_eff
    need_c1, need_c2 = 0.0, 0.0
    for r in np.asarray(pre_grid, dtype=float):
        h = 1e-5 * r
        u_mid = frequency_U(model, u, r, config.resolution, "closed")
        u_plus = frequency_U(model, u, r + h, config.resolution, "closed")
        u_minus = frequency_U(model, u, r - h, config.resolution, "closed")
        slope = (u_plus - u_minus) / (2.0 * h)
        need = max(0.0, -slope)
        if need == 0.0:
            continue
        need_c1 = max(need_c1, need * r ** (1.0 + sig) / (2.0 * u_mid))
        need_c2 = max(need_c2, need * r ** (1.0 + sig) / (2.0 * math.sqrt(mu)))
    return replace(config, C1=max(0.5, 1.5 * need_c1), C2=max(0.5, 1.5 * need_c2))


@dataclass(frozen=True)
class DoublingRecord:
    rho: float
    doubling_log2_ratio: float
    doubling_log2_bound: float
    doubling_margin: float
    three_circle_lhs: float
    three_circle_rhs: float
    three_circle_margin: float
    passed: bool


def doubling_and_three_circle(profile: FrequencyProfile, rhos=None) -> list[DoublingRecord]:
    """Evaluate the doubling and three-circle inequalities at grid radii rho, 2rho, 4rho."""
    rr = profile.radii
    config = profile.config
    sig = config.sigma_eff
    if rhos is None:
        rhos = [r for r in rr if any(np.isclose(rr, 2 * r)) and any(np.isclose(rr, 4 * r))]
        if not rhos:
            raise DomainError("grid contains no triple (rho, 2rho, 4rho)")
    out = []
    for rho in rhos:
        idx = [int(np.argmin(np.abs(rr - c * rho))) for c in (1, 2, 4)]
        if any(abs(rr[i] - c * rho) > 1e-9 * rho for i, c in zip(idx, (1, 2, 4))):
            raise DomainError(f"grid is missing one of rho, 2rho, 4rho for rho={rho}")
        i1, i2, i4 = (profile.I[i] for i in idx)
        log2_ratio = math.log2(i2 / i1)
        log2_bound = 2.0 * (profile.d + config.epsilon * math.sqrt(profile.mu))
        lhs = math.log(i2 / i1)
        grow = config.C1 / (sig * rho**sig)
        boost = math.exp(grow) if grow < 700 else math.inf
        rhs = boost * math.log(i4 / i2) + (
            config.C2 * math.sqrt(profile.mu) * math.log(2.0) / sig
        ) * ((2 * rho) ** (-sig) - (4 * rho) ** (-sig)) * boost
        rec = DoublingRecord(
            rho=float(rho),
            doubling_log2_ratio=log2_ratio,
            doubling_log2_bound=log2_bound,
            doubling_margin=log2_bound - log2_ratio,
            three_circle_lhs=lhs,
            three_circle_rhs=rhs,
            three_circle_margin=rhs - lhs,
            passed=(log2_ratio <= log2_bound + 1e-12) and (lhs <= rhs + 1e-12),
        )
        out.append(rec)
    return out


# -- shell ledger -------------------------------------------------------------------


@dataclass(frozen=True)
class ShellLedger:
    J1: float
    J2: float
    J3: float
    lam: float
    bound_factor: float
    passed: bool


def shell_energy_ledger(
    model: ModelShrinker,
    u: HoloPoly,
    d: float,
    R0: float | None = None,
    config: FrequencyConfig | None = None,
    c_constant: float | None = None,
) -> ShellLedger:
    """Shell energies J_i = int_{r0 < b < lam^i r0} |u|^2 |grad b|^2 and their bound.

    lam = 1 + 2/d; the verified inequality is
    J3 <= (1 + lam^{n + 2(d + eps sqrt(mu))} + lam^{C - n}) (J2 - J1)
    with C the constant measured by the defect recursion (zero on these models).
    """
    config = config or FrequencyConfig()
    mu = mu_constant(d, model.n)
    r0 = R0 if R0 is not None else default_R0(model)
    d_eff = max(d, 1.0)
    lam = 1.0 + 2.0 / d_eff
    radii = [r0 * lam**i for i in range(4)]
    for r in radii:
        model.require_regular(r)
    if c_constant is None:
        c_constant = check_defect_recursion(model, u, radii[3], 1, config.resolution).c_measured

    shells = [shell_quadrature(model, r0, radii[i], config.resolution) for i in (1, 2, 3)]
    fields = _SphereFields(u, shells[0])  # the three shells share their directions

    def shell(rule: ProductRule) -> float:
        s_sq = rule.radii**2
        return rule.integrate(fields.u_sq, s_sq / (4.0 * model.f_min + s_sq))

    j1, j2, j3 = (shell(rule) for rule in shells)
    exponent = model.n + 2.0 * (d_eff + config.epsilon * math.sqrt(mu))
    log_term = exponent * math.log(lam)
    big = math.exp(log_term) if log_term < 700 else math.inf
    factor = 1.0 + big + lam ** (c_constant - model.n)
    passed = j3 <= factor * (j2 - j1) * (1.0 + 1e-9) if math.isfinite(factor) else True
    return ShellLedger(J1=j1, J2=j2, J3=j3, lam=lam, bound_factor=factor, passed=passed)
