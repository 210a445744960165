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

Each quantity is one formula in the direction sums of |u|^2, |grad u|^2,
|E|^2 and Re(conj(u) E), E = sum_j z_j du/dz_j, integrated over level sets
or balls by a rule; every other factor (|grad b|^2, Laplacian(b), 1/|z|^2,
e^{-f}) depends on the radius alone.  One level-set rule and one ball rule
cover a whole radius grid: the direction sums are formed once, and each
rule's `integrate` returns one value per radius from per-degree radial
moments.  Every entry point of I, D, I' and rho therefore takes a 1-D
radius grid and returns one value per radius.  The two routes differ only
in the rule, which `_rules` picks from `method`: "closed", the default,
takes the MomentRule of exact sphere moments and closed radial integrals,
and "quadrature" the product rules, which also sum the aliased monomial
pairs and take their radial moments from Gauss-Legendre nodes.  Any other
`method` (also in FrequencyConfig) raises DomainError.  The defect
recursion and the shell ledger integrate radial factors that are not
polynomials in the radius over product rules with their own radial nodes,
so they take one radius and no method.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import DomainError
from .holopoly import HoloPoly, gradient, lie_derivative_nabla_f
from .models import ModelShrinker
from .quadrature import (
    MomentRule,
    ProductRule,
    ball_moments,
    ball_quadrature,
    level_set_moments,
    level_set_quadrature,
    radius_grid,
    shell_quadrature,
)

MONOTONE_SLACK = 1e-6
# the eps of the doubling bound 2(d + eps sqrt(mu)) and of the shell ledger's exponent
EPSILON = 0.01
_Rule = ProductRule | MomentRule  # a rule of the quadrature or of the closed route


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
    epsilon: float = EPSILON
    C1: float = 1.0
    C2: float = 1.0
    method: str = "closed"

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        _rules(self.method, self.resolution)  # raises DomainError for an unknown method

    @property
    def sigma_eff(self) -> float:
        # The monotone combination is used on the sigma <= 1/2 branch, where
        # both decay exponents collapse to sigma.
        return min(self.sigma, 0.5)


# -- direction sums of the fields of u ------------------------------------------


class _SphereFields:
    """Direction sums of the fields of u on a rule, as polynomials in the radius.

    Each field attribute is a coefficient array c with
    sum_k w_k F(s theta_k) = sum_d c_d s^d, for F one of |u|^2, |grad u|^2,
    |E|^2 and Re(conj(u) E), where E = sum_j z_j du/dz_j = u.euler().  Each
    is read off a Gram of the rule's `gram`, formed when first read: |u|^2
    off that of u, |E|^2 and Re(conj(u) E) off that of (u, E), |grad u|^2
    off that of the partials.  The direction sums do not depend on the
    radius, so one instance serves every radius of the rule's grid.
    """

    def __init__(self, u: HoloPoly, rule: _Rule):
        self.u = u
        self.rule = rule

    @cached_property
    def u_sq(self) -> np.ndarray:
        return self.rule.gram([self.u])[0, 0].real

    @cached_property
    def grad_sq(self) -> np.ndarray:
        # |grad u|^2 = 2 sum_j |du/dz_j|^2
        return 2.0 * np.trace(self.rule.gram(gradient(self.u))).real

    @cached_property
    def _with_e(self) -> np.ndarray:
        return self.rule.gram([self.u, self.u.euler()]).real

    e_sq = property(lambda self: self._with_e[1, 1])
    u_e = property(lambda self: self._with_e[1, 0])


def _rules(method: str, resolution: int):
    """The level-set and ball rule builders, each (model, radii) -> rule, of the route `method`."""
    if method == "closed":
        return level_set_moments, ball_moments
    if method == "quadrature":
        return (partial(level_set_quadrature, resolution=resolution),
                partial(ball_quadrature, resolution=resolution))
    raise DomainError(f"unknown evaluation method {method!r}")


# -- I, D, U -------------------------------------------------------------------


def _height(model: ModelShrinker, rr: np.ndarray, level: _Rule, fields: _SphereFields) -> np.ndarray:
    """I on the radii rr of the level rule's grid; |grad b| = rho/r."""
    return rr ** (1 - model.n) * (level.rho / rr) * level.integrate(fields.u_sq)


def _i_prime_rhs(model: ModelShrinker, rr: np.ndarray, level: _Rule, fields: _SphereFields) -> np.ndarray:
    """The formula for I' on the radii rr of the level rule's grid: boundary flux plus curvature correction."""
    rho = level.rho
    n = model.n
    flux = 2.0 / rho * level.integrate(fields.u_e)
    curv = model.s_const * (rr / rho) * level.integrate(fields.u_sq)
    return rr ** (1 - n) * flux + rr ** (-n) * (4.0 * n / rr**2 - 2.0) * curv


def _bulk_energy(model: ModelShrinker, rr: np.ndarray, ball: _Rule, fields: _SphereFields) -> np.ndarray:
    """D in its bulk form r^{2-n} int_{b<r} |grad u|^2, on the radii rr of the ball rule's grid."""
    return rr ** (2 - model.n) * ball.integrate(fields.grad_sq)


@dataclass(frozen=True)
class DirichletRecord:
    bulk: np.ndarray
    boundary: np.ndarray


def D_of_r(
    model: ModelShrinker,
    u: HoloPoly,
    radii,
    resolution: int = 128,
    method: str = "closed",
) -> DirichletRecord:
    """Dirichlet energy D in both its bulk and boundary forms, one value per radius of the 1-D grid."""
    rr = np.asarray(radii, dtype=float)
    level_rule, ball_rule = _rules(method, resolution)
    ball, level = ball_rule(model, rr), level_rule(model, rr)
    # <grad |u|^2, nu> = 2 Re(conj(u) E) / rho, and D carries a further 1/2
    boundary = rr ** (2 - model.n) / level.rho * level.integrate(_SphereFields(u, level).u_e)
    return DirichletRecord(bulk=_bulk_energy(model, rr, ball, _SphereFields(u, ball)), boundary=boundary)


def eta_integral(r, config: FrequencyConfig, mu: float, lo=0.0):
    """Damping integral int C2 sqrt(mu) s^{-1-sigma} exp(-C1/(sigma s^sigma)) ds over [lo, r].

    Elementwise for arrays r and lo, as for the intervals of a radius grid.
    The integrand vanishes for s <= 0 and is the derivative of
    (C2 sqrt(mu)/C1) e^{-C1/(sigma s^sigma)}, so the integral is a difference
    of that antiderivative at the exponents a (at the upper end) and b (at
    the lower end).  It is formed as e^a (-expm1(b - a)), with b - a =
    (C1/sigma) lo^-sigma ((lo/r)^sigma - 1) taken through expm1/log1p, so
    that it keeps its digits for tiny C1 and for short intervals.  An
    interval with r < lo counts negatively.
    """
    r, lo = np.asarray(r, dtype=float), np.asarray(lo, dtype=float)
    sig = config.sigma_eff
    scale = config.C2 * math.sqrt(mu) / config.C1
    hi, low = np.maximum(r, lo), np.minimum(r, lo)
    # the branches of np.where are formed everywhere; a lower end at or below 0 takes b = -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(hi > 0.0, -config.C1 / (sig * hi**sig), -np.inf)
        b_minus_a = config.C1 / (sig * low**sig) * np.expm1(-sig * np.log1p((hi - low) / low))
        part = np.where(low > 0.0, -np.expm1(b_minus_a), 1.0)
    return np.where(r < lo, -scale, scale) * np.exp(a) * part


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
        columns = zip(self.radii, self.I, self.D, self.U, self.eta, self.monotone_q)
        return [dict(zip(("r", "I", "D", "U", "eta", "monotone_q"), map(float, row))) for row in columns]


def frequency_profile(
    model: ModelShrinker,
    u: HoloPoly,
    d: float,
    radii,
    config: FrequencyConfig | None = None,
) -> FrequencyProfile:
    """Evaluate I, D, U, eta and the monotone combination on a radius grid."""
    config = config or FrequencyConfig()
    rr = radius_grid(radii)
    if np.any(np.diff(rr) <= 0):
        raise DomainError("profile radii must be strictly increasing")
    mu = mu_constant(d, model.n)
    i_vals, d_vals = _height_and_energy(model, u, rr, config.resolution, config.method)
    u_vals = d_vals / i_vals
    sig = config.sigma_eff
    # eta accumulates the integrals over [0, r_0], [r_0, r_1], ... in grid order
    eta_vals = np.cumsum(eta_integral(rr, config, mu, lo=np.concatenate(([0.0], rr[:-1]))))
    damping = np.exp(-config.C1 / (sig * rr**sig))
    q = u_vals * damping + eta_vals
    return FrequencyProfile(d=d, radii=rr, I=i_vals, D=d_vals, U=u_vals, eta=eta_vals, monotone_q=q,
                            config=config, mu=mu)


def _height_and_energy(
    model: ModelShrinker, u: HoloPoly, rr: np.ndarray, resolution: int, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """I and the bulk D on the radii rr, with I checked positive.

    One level-set rule and one ball rule cover the grid, so each set of
    sphere sums is formed once; the builders check every radius regular
    before any sum is formed.
    """
    if rr.size == 0:
        raise DomainError("the radius grid is empty")
    level_rule, ball_rule = _rules(method, resolution)
    level, ball = level_rule(model, rr), ball_rule(model, rr)
    i_vals = _height(model, rr, level, _SphereFields(u, level))
    d_vals = _bulk_energy(model, rr, ball, _SphereFields(u, ball))
    if np.any(i_vals <= 0):
        raise DomainError("I(r) must be positive on the grid (u is not identically zero)")
    return i_vals, d_vals


# -- derivative identity for I ---------------------------------------------------


def check_derivative_I(
    model: ModelShrinker,
    u: HoloPoly,
    radii,
    h: float | None = None,
    resolution: int = 128,
    method: str = "closed",
) -> np.ndarray:
    """Relative residual of the extrapolated central difference of I against its derivative formula.

    One value per radius r of the 1-D grid, with step h (default 1e-3 r).
    The central differences D(h) and D(h/2) each carry an error of order h^2;
    (4 D(h/2) - D(h)) / 3 cancels it, leaving one of order h^4.  One level
    rule holds r -+ h, r -+ h/2 and r itself, so the difference and the
    formula read the same rule and the same sphere sums.
    """
    rr = radius_grid(radii)
    h = 1e-3 * rr if h is None else h
    grid = np.concatenate([rr - h, rr - 0.5 * h, rr + 0.5 * h, rr + h, rr])
    level = _rules(method, resolution)[0](model, grid)
    fields = _SphereFields(u, level)
    i_lo, i_half_lo, i_half_hi, i_hi, _ = np.split(_height(model, grid, level, fields), 5)
    diff = (4.0 * (i_half_hi - i_half_lo) / h - (i_hi - i_lo) / (2.0 * h)) / 3.0
    rhs = np.split(_i_prime_rhs(model, grid, level, fields), 5)[-1]
    return np.abs(diff - rhs) / (1.0 + np.abs(rhs))


# -- curvature-weighted level integrals K_j --------------------------------------


@dataclass(frozen=True)
class DefectReport:
    K: list[float]
    dirichlet: float
    c_measured: float
    recursion_residuals: list[float]


def check_defect_recursion(
    model: ModelShrinker, u: HoloPoly, r: float, jmax: int = 3, resolution: int = 128
) -> DefectReport:
    """Measure |K_0| against the Dirichlet energy and verify the K_j recursion at one radius r.

    K_j = int_{b=r} S^j (|grad u|^2 - 2 |du/dnu|^2) / |grad b|.  The
    recursion step compares K_j - (4/r^2) K_{j+1} with its bulk form
    int_{b<r} S^j (|grad u|^2 Laplacian(b) - 2 Re Hess_b(grad u, grad conj(u))),
    which follows from the first variation of the energy along S^j grad b.
    That integrand is not a polynomial in the radius, so it is summed over
    the radial nodes of one ball rule at r.
    """
    # |du/dnu|^2 = |E|^2 / rho^2 on the level set; S is constant on every catalog model, so K_j = S^j K_0
    level = level_set_quadrature(model, [r], resolution)
    level_fields = _SphereFields(u, level)
    rho = level.rho.item()
    integral = level.integrate(level_fields.grad_sq) - 2.0 * level.integrate(level_fields.e_sq) / rho**2
    k0 = (r / rho) * integral.item()
    ks = [model.s_const**j * k0 for j in range(jmax + 2)]
    ball = ball_quadrature(model, [r], resolution)
    fields = _SphereFields(u, ball)
    dirichlet = ball.integrate(fields.grad_sq).item()
    c_measured = abs(ks[0]) / dirichlet if dirichlet > 0 else 0.0
    c = model.f_min
    n_flat = 2 * model.flat_m
    # b and its derivatives depend on the radius alone, so the integrand is
    # |grad u|^2 (Laplacian(b) - 2/b) + |E|^2 (2/b - 8c/b^3) / s^2, each field's
    # direction sums times a radial factor at the one ball's nodes s
    s = ball.rho * ball.radii
    b = np.sqrt(4.0 * c + s**2)
    lap_b = 4.0 * c / b**3 + (n_flat - 1) / b
    bulk = (
        ball.integrate(fields.grad_sq, lap_b - 2.0 / b) + ball.integrate(fields.e_sq, (2.0 / b - 8.0 * c / b**3) / s**2)
    ).item()
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
    rho: np.ndarray
    mu: float
    passed: bool


def rho_mu(model: ModelShrinker, u: HoloPoly, d: float, radii) -> RhoMuRecord:
    """Ratio of level energies of the derivative pair (u, <grad u, grad f>), one per radius of the 1-D grid.

    The derivative function is computed symbolically; the ratio is bounded by
    mu = e^{2p+6} d^2 with the volume-growth power p = n, after clamping d
    below by 1 as the bound requires, and `passed` holds when it is bounded on
    the whole grid.
    """
    if u.is_zero():
        raise DomainError("rho is undefined for the zero function")
    mu = mu_constant(d, model.n)
    level = level_set_moments(model, radii)
    gram = level.gram([u, lie_derivative_nabla_f(model, u)]).real
    ratio = level.integrate(gram[1, 1]) / level.integrate(gram[0, 0])
    return RhoMuRecord(rho=ratio, mu=mu, passed=bool(np.all(ratio <= mu)))


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
    rr = radius_grid(pre_grid)
    h = 1e-5 * rr
    # one pass over the three shifted grids shares one set of sphere sums
    grids = np.concatenate([rr, rr + h, rr - h])
    i_vals, d_vals = _height_and_energy(model, u, grids, config.resolution, config.method)
    u_mid, u_plus, u_minus = np.split(d_vals / i_vals, 3)
    slope = (u_plus - u_minus) / (2.0 * h)
    down = slope < 0.0
    need = -slope[down] * rr[down] ** (1.0 + sig) / 2.0
    need_c1 = np.max(need / u_mid[down], initial=0.0)
    need_c2 = np.max(need, initial=0.0) / math.sqrt(mu)
    return replace(config, C1=max(0.5, 1.5 * float(need_c1)), C2=max(0.5, 1.5 * float(need_c2)))


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


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _below_scaled(x: float, log_scale: float, value: float) -> bool:
    """x <= e^log_scale * value, decided in logs, so e^log_scale may pass the float range."""
    if value > 0:
        return x <= 0 or math.log(x) <= log_scale + math.log(value)
    if value == 0:
        return x <= 0
    return x < 0 and math.log(-x) >= log_scale + math.log(-value)


def doubling_and_three_circle(profile: FrequencyProfile, rhos) -> list[DoublingRecord]:
    """Evaluate the doubling and three-circle inequalities at grid radii rho, 2rho, 4rho."""
    rr = profile.radii
    config = profile.config
    sig = config.sigma_eff
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
        shrink = (2 * rho) ** (-sig) - (4 * rho) ** (-sig)
        tail = config.C2 * math.sqrt(profile.mu) * math.log(2.0) / sig * shrink
        # rhs is e^grow (log(i4/i2) + tail), which may pass the float range: compare in logs
        # and store rhs held within the float range, so it and the margin keep their signs
        value = math.log(i4 / i2) + tail
        circle_ok = _below_scaled(lhs - 1e-12, grow, value)
        rhs = math.copysign(math.exp(min(grow + math.log(abs(value)), _LOG_FLOAT_MAX)), value) if value else 0.0
        rec = DoublingRecord(
            rho=float(rho),
            doubling_log2_ratio=log2_ratio,
            doubling_log2_bound=log2_bound,
            doubling_margin=log2_bound - log2_ratio,
            three_circle_lhs=lhs,
            three_circle_rhs=rhs,
            three_circle_margin=rhs - lhs,
            passed=(log2_ratio <= log2_bound + 1e-12) and circle_ok,
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
    log_bound_factor: float
    passed: bool


def shell_energy_ledger(
    model: ModelShrinker,
    u: HoloPoly,
    d: float,
    R0: float | None = None,
    resolution: int = 128,
    c_constant: float | None = None,
) -> ShellLedger:
    """Shell energies J_i = int_{r0 < b < lam^i r0} |u|^2 |grad b|^2 and their bound.

    lam = 1 + 2/d; the verified inequality is
    J3 <= (1 + lam^{n + 2(d + eps sqrt(mu))} + lam^{C - n}) (J2 - J1)
    with eps = EPSILON and C the constant measured by the defect recursion
    (zero on these models).  The shells are product rules at `resolution`:
    their radial factor s^2/(4c + s^2) is not a polynomial, so there is no
    closed route.  The record keeps the factor's log, and log J3 - log(J2 - J1)
    is compared with it, so the factor may pass the float range; the relative
    slack 1e-9 is kept as log1p(1e-9).
    """
    mu = mu_constant(d, model.n)
    r0 = R0 if R0 is not None else default_R0(model)
    d_eff = max(d, 1.0)
    lam = 1.0 + 2.0 / d_eff
    radii = [r0 * lam**i for i in range(4)]
    model.require_regular(radii)
    if c_constant is None:
        c_constant = check_defect_recursion(model, u, radii[3], 1, resolution).c_measured

    shells = [shell_quadrature(model, r0, radii[i], resolution) for i in (1, 2, 3)]
    fields = _SphereFields(u, shells[0])  # the three shells share their directions

    def shell(rule: ProductRule) -> float:
        s_sq = rule.radii**2
        return rule.integrate(fields.u_sq, s_sq / (4.0 * model.f_min + s_sq)).item()

    j1, j2, j3 = (shell(rule) for rule in shells)
    exponent = model.n + 2.0 * (d_eff + EPSILON * math.sqrt(mu))
    log_term = exponent * math.log(lam)
    # the log-sum-exp of the factor's three terms, finite where the factor itself is not
    logs = (0.0, log_term, (c_constant - model.n) * math.log(lam))
    top = max(logs)
    log_factor = top + math.log(sum(math.exp(v - top) for v in logs))
    passed = _below_scaled(j3, log_factor + math.log1p(1e-9), j2 - j1)
    return ShellLedger(J1=j1, J2=j2, J3=j3, lam=lam, log_bound_factor=log_factor, passed=passed)
