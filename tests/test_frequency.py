"""Frequency machinery: height/energy integrals, monotonicity, shells."""

from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from shrinker_lab import frequency, quadrature
from shrinker_lab.errors import DomainError, RegularityError
from shrinker_lab.forms import HoloForm, form_integral_identity_check
from shrinker_lab.holopoly import HoloPoly
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.frequency import (
    D_of_r,
    FrequencyConfig,
    shell_energy_ledger,
    calibrate_constants,
    check_derivative_I,
    check_defect_recursion,
    check_monotone,
    default_R0,
    doubling_and_three_circle,
    frequency_profile,
    mu_constant,
    rho_mu,
)

import brute_force

G1 = gaussian(1)
G2 = gaussian(2)
CYL = cylinder()
Z = HoloPoly.monomial(1, (1,))
W = HoloPoly.monomial(1, (1,))


def _I(model, u, r, resolution=128, method="closed"):
    """I at the single radius r, read from a profile."""
    config = FrequencyConfig(resolution=resolution, method=method)
    return frequency_profile(model, u, 1.0, [r], config).I.item()


def test_I_closed_forms():
    for r in (1.0, 2.0, 7.5):
        assert math.isclose(_I(G1, Z, r), 2.0 * math.pi * r * r, rel_tol=1e-13)
        assert math.isclose(_I(G1, HoloPoly(1, {(0,): 1.0}), r), 2.0 * math.pi, rel_tol=1e-13)
    for k in (1, 2, 3):
        for r in (4.5, 6.0, 10.0):
            rho = math.sqrt(r * r - 4.0)
            expected = 16.0 * math.pi**2 * rho ** (2 * k + 2) / r**4
            assert math.isclose(_I(CYL, HoloPoly.monomial(1, (k,)), r), expected, rel_tol=1e-12)


def test_I_quadrature_matches_closed():
    u = HoloPoly(2, {(2, 1): 1.0 - 0.5j, (1, 0): 2.0, (0, 0): -1.0})
    for r in (2.0, 6.0):
        closed = _I(G2, u, r, method="closed")
        quad = _I(G2, u, r, 128, method="quadrature")
        assert math.isclose(closed, quad, rel_tol=1e-12)


def test_D_closed_forms():
    for r in (1.0, 2.0, 5.0):
        rec = D_of_r(G1, Z, [r])
        assert math.isclose(rec.bulk.item(), 2.0 * math.pi * r * r, rel_tol=1e-13)
        assert math.isclose(rec.boundary.item(), rec.bulk.item(), rel_tol=1e-13)
    rec = D_of_r(G1, HoloPoly(1, {(0,): 2.0}), [3.0])
    assert rec.bulk.item() == 0.0 and rec.boundary.item() == 0.0


@pytest.mark.parametrize("model", [G1, G2, CYL])
def test_D_bulk_boundary_gap_quadrature(model):
    u = HoloPoly(
        model.flat_m,
        {(1,) + (0,) * (model.flat_m - 1): 1.0, (2,) + (0,) * (model.flat_m - 1): -0.5j},
    )
    for r in (4.5, 10.0):
        rec = D_of_r(model, u, [r], 256, method="quadrature")
        assert abs(rec.bulk.item() - rec.boundary.item()) <= 1e-6 * abs(rec.bulk.item())


def test_U_sharp_on_gaussian_monomials():
    for alpha in [(1,), (3,), (5,)]:
        for r in (1.0, 10.0, 40.0):
            u_val = frequency_profile(G1, HoloPoly.monomial(1, alpha), 1.0, [r]).U[0]
            assert abs(u_val - sum(alpha)) < 1e-8
    for alpha in [(1, 0), (2, 3), (0, 5)]:
        for r in (1.0, 20.0):
            u_val = frequency_profile(G2, HoloPoly.monomial(2, alpha), 1.0, [r]).U[0]
            assert abs(u_val - sum(alpha)) < 1e-8


def test_U_quadrature_tolerance():
    for alpha in [(2, 1), (0, 4)]:
        config = FrequencyConfig(resolution=256, method="quadrature")
        u_val = frequency_profile(G2, HoloPoly.monomial(2, alpha), 1.0, [8.0], config).U[0]
        assert abs(u_val - sum(alpha)) < 1e-4


def test_U_cylinder_limit():
    w2 = HoloPoly.monomial(1, (2,))
    values = frequency_profile(CYL, w2, 2.0, [5.0, 10.0, 40.0]).U
    for r, u_val in zip((5.0, 10.0, 40.0), values):
        assert math.isclose(u_val, 2.0 * r * r / (r * r - 4.0), rel_tol=1e-12)
    assert abs(values[-1] - 2.0) < 6e-3  # exact gap is 8/(r^2 - 4)


def test_check_derivative_I_gaussian_exact():
    assert check_derivative_I(G1, Z, [5.0]).item() < 1e-10


def test_check_derivative_I_cylinder():
    for k in (1, 2, 3):
        u = HoloPoly.monomial(1, (k,))
        for r in (4.5, 6.0, 10.0, 20.0):
            assert check_derivative_I(CYL, u, [r]).item() < 1e-5


def test_check_derivative_I_fourth_order():
    # h is large enough that the O(h^4) error stands above rounding at both steps
    u = HoloPoly.monomial(1, (2,))
    res_h = check_derivative_I(CYL, u, [6.0], h=0.6).item()
    res_h2 = check_derivative_I(CYL, u, [6.0], h=0.3).item()
    assert res_h / res_h2 > 12.0  # ratio ~16 for an O(h^4) difference; an O(h^2) one gives ~4


def test_K_vanishes_on_one_flat_variable():
    # one complex variable: |grad u|^2 = 2 |du/dnu|^2 pointwise
    assert abs(check_defect_recursion(G1, Z, 3.0).K0) < 1e-12
    u = HoloPoly(1, {(1,): 1.0, (3,): 2.0})
    assert abs(CYL.s_const * check_defect_recursion(CYL, u, 6.0, resolution=256).K0) < 1e-7


def test_K_recursion_cylinder():
    rep = check_defect_recursion(CYL, W, 6.0, 256)
    assert rep.residual < 1e-5
    assert rep.c_measured < 1e-12


def test_K_recursion_gaussian_m2():
    u = HoloPoly.monomial(2, (1, 0))
    rep = check_defect_recursion(G2, u, 5.0, 256)
    assert rep.K0 > 0.0  # genuine angular defect on two flat variables
    assert rep.residual < 1e-5
    assert rep.c_measured <= 1.0


def test_rho_mu_gaussian_exact():
    for d in (1, 2, 3, 4):
        rec = rho_mu(G1, HoloPoly.monomial(1, (d,)), float(d), [5.0])
        assert abs(rec.rho.item() - d * d / 4.0) < 1e-8
        assert rec.passed
        assert rec.mu == mu_constant(d, G1.n)


def test_rho_mu_constant_and_zero():
    rec = rho_mu(G1, HoloPoly(1, {(0,): 3.0}), 1.0, [4.0])
    assert rec.rho.item() == 0.0 and rec.passed
    with pytest.raises(DomainError):
        rho_mu(G1, HoloPoly.zero(1), 1.0, [4.0])


def test_rho_mu_cylinder_margin():
    rec = rho_mu(CYL, HoloPoly.monomial(1, (3,)), 3.0, [6.0])
    assert rec.passed
    assert rec.mu / max(rec.rho.item(), 1e-300) > 1e3


def test_profile_invariants_and_monotone_gaussian():
    radii = np.linspace(4.5, 30.0, 40)
    prof = frequency_profile(G1, HoloPoly.monomial(1, (3,)), 3.0, radii)
    assert np.all(prof.I > 0)
    assert np.allclose(prof.U, prof.D / prof.I)
    assert np.allclose(prof.U, 3.0, atol=1e-10)
    assert check_monotone(prof)
    assert np.all(np.diff(prof.eta) >= 0)


def test_profile_rejects_reversed_grid():
    with pytest.raises(DomainError):
        frequency_profile(G1, Z, 1.0, [5.0, 4.0, 3.0])
    for config in (FrequencyConfig(), FrequencyConfig(resolution=64, method="quadrature")):
        with pytest.raises(DomainError, match="empty"):
            frequency_profile(G1, Z, 1.0, [], config)


def test_profile_rejects_zero_function():
    with pytest.raises(DomainError):
        frequency_profile(G1, HoloPoly.zero(1), 1.0, [4.0, 5.0])


def test_monotone_calibration_holdout_cylinder():
    lo = default_R0(CYL) + 0.1
    pre = np.linspace(lo, 44.0, 120)
    hold = np.linspace(lo + 0.2, 43.0, 59)
    for k in (1, 2, 3):
        u = HoloPoly.monomial(1, (k,))
        cfg = calibrate_constants(CYL, u, float(k), pre)
        prof = frequency_profile(CYL, u, float(k), hold, cfg)
        assert check_monotone(prof)


def test_monotone_needs_calibrated_constants():
    # with constants far too small the damped combination must fail downhill
    u = HoloPoly.monomial(1, (2,))
    lo = default_R0(CYL) + 0.1
    hold = np.linspace(lo, 43.0, 59)
    tiny = FrequencyConfig(C1=1e-9, C2=1e-9)
    prof = frequency_profile(CYL, u, 2.0, hold, tiny)
    assert not check_monotone(prof, slack=1e-12)


def test_doubling_gaussian_exact_power():
    grid = np.array([8.0, 12.0, 16.0, 24.0, 32.0, 48.0])
    for d in (1, 2, 3):
        prof = frequency_profile(G1, HoloPoly.monomial(1, (d,)), float(d), grid)
        recs = doubling_and_three_circle(prof, [8.0, 12.0])
        for rec in recs:
            assert math.isclose(rec.doubling_log2_ratio, 2.0 * d, rel_tol=1e-12)
            assert rec.passed
            assert rec.doubling_margin > 0
            assert rec.three_circle_margin > 0


def test_doubling_requires_grid_points():
    prof = frequency_profile(G1, Z, 1.0, [8.0, 16.0, 24.0])
    with pytest.raises(DomainError):
        doubling_and_three_circle(prof, [8.0])


def test_j_ledger_models():
    rec = shell_energy_ledger(CYL, HoloPoly.monomial(1, (2,)), 2.0, 6.0)
    assert rec.passed and rec.lam == 2.0
    assert 0 < rec.J1 < rec.J2 < rec.J3
    rec = shell_energy_ledger(G1, Z, 1.0)
    assert rec.passed and rec.lam == 3.0
    const = shell_energy_ledger(G2, HoloPoly(2, {(0, 0): 1.0}), 1.0)
    assert const.passed  # shell volumes satisfy the same comparison


class _ScaledShell:
    """A shell rule whose integrals are multiplied by `scale`, in Python floats: a J mutant."""

    def __init__(self, rule, scale):
        self.rule, self.scale = rule, scale

    def __getattr__(self, name):
        return getattr(self.rule, name)

    def integrate(self, *args):
        return np.array(self.rule.integrate(*args).item() * self.scale)


def _scale_shell(monkeypatch, which: int, scale: float) -> None:
    """Scale J_which (1, 2 or 3) of the next ledger: its shells are built in that order."""
    built = []

    def shell_quadrature(*args):
        built.append(quadrature.shell_quadrature(*args))
        return _ScaledShell(built[-1], scale) if len(built) == which else built[-1]

    monkeypatch.setattr(frequency, "shell_quadrature", shell_quadrature)


_LEDGER_MODELS = {"gaussian_m2": G2, "gaussian_m4": gaussian(4), "cylinder_x_cylinder": product([CYL, CYL])}


@pytest.mark.parametrize("model", _LEDGER_MODELS.values(), ids=_LEDGER_MODELS.keys())
def test_j_ledger_compares_past_the_float_range(model, monkeypatch):
    # on gaussian(4) and cylinder x cylinder the factor passes the float range, its log does not
    u = HoloPoly.monomial(model.flat_m, (1,) + (0,) * (model.flat_m - 1))
    rec = shell_energy_ledger(model, u, 1.0, 6.0, c_constant=0.0)
    assert rec.passed and math.isfinite(rec.log_bound_factor)
    assert (rec.log_bound_factor > 700) == (model.n == 8)
    # J3 x 1e300, and J1 x 1e6 past J2, each fail the comparison
    _scale_shell(monkeypatch, 3, 1e300)
    assert not shell_energy_ledger(model, u, 1.0, 6.0, c_constant=0.0).passed
    _scale_shell(monkeypatch, 1, 1e6)
    mutant = shell_energy_ledger(model, u, 1.0, 6.0, c_constant=0.0)
    assert mutant.J1 > mutant.J2 and not mutant.passed


def test_below_scaled_decides_in_logs():
    # x <= e^800 * value, with e^800 past the float range
    assert frequency._below_scaled(1e300, 800.0, 1e-10)
    assert not frequency._below_scaled(1e300, 800.0, 1e-200)
    assert frequency._below_scaled(0.0, 800.0, 0.0) and not frequency._below_scaled(1e-300, 800.0, 0.0)
    assert frequency._below_scaled(-1e300, 800.0, -1e-200)
    assert not frequency._below_scaled(-1e300, 800.0, -1e-10) and not frequency._below_scaled(1.0, 800.0, -1e-10)


def test_three_circle_compares_past_the_float_range():
    # C1 = 2000 makes e^grow pass the float range at rho = 8; log(i4/i2) < 0 but the tail keeps
    # e^grow (log(i4/i2) + tail) positive and far above lhs = 1
    prof = frequency_profile(G1, Z, 1.0, [8.0, 16.0, 32.0], FrequencyConfig(C1=2000.0))
    prof = dataclasses.replace(prof, I=np.array([1.0, math.e, 0.9 * math.e]))
    (rec,) = doubling_and_three_circle(prof, [8.0])
    assert rec.three_circle_lhs == 1.0 and rec.passed
    # the stored rhs and margin are finite, never NaN, and carry the verdict's sign
    assert 0 < rec.three_circle_rhs < math.inf and 0 < rec.three_circle_margin < math.inf
    (rec,) = doubling_and_three_circle(dataclasses.replace(prof, I=np.array([1.0, math.e, 1e-30 * math.e])), [8.0])
    assert not rec.passed
    assert -math.inf < rec.three_circle_rhs < 0 and -math.inf < rec.three_circle_margin < 0


def test_three_circle_below_the_float_limit_matches_the_float_formula():
    # C1 = 699 sigma 8^sigma makes grow = 699 at rho = 8: e^grow is still a float, so the verdict
    # and rhs, both taken in logs, must agree with e^grow (log(i4/i2) + tail) computed directly
    config = FrequencyConfig(C1=699.0 * 0.5 * 8.0**0.5)
    prof = frequency_profile(G1, Z, 1.0, [8.0, 16.0, 32.0], config)
    grow = config.C1 / (0.5 * 8.0**0.5)
    tail = config.C2 * math.sqrt(prof.mu) * math.log(2.0) / 0.5 * (16.0**-0.5 - 32.0**-0.5)
    for ratio, passes in ((0.9, True), (1e-30, False)):
        prof = dataclasses.replace(prof, I=np.array([1.0, math.e, ratio * math.e]))
        (rec,) = doubling_and_three_circle(prof, [8.0])
        want = math.exp(grow) * (math.log(ratio) + tail)
        assert rec.three_circle_lhs == 1.0
        assert rec.passed is passes and (1.0 <= want + 1e-12) is passes
        assert abs(rec.three_circle_rhs - want) <= 1e-12 * abs(want)


def test_j_ledger_regularity():
    with pytest.raises(RegularityError):
        shell_energy_ledger(CYL, W, 2.0, R0=1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        FrequencyConfig(sigma=-1.0)
    with pytest.raises(DomainError):
        FrequencyConfig(method="magic")
    # every public function that takes a method rejects a typo instead of running a route
    for call in (D_of_r, check_derivative_I):
        with pytest.raises(DomainError, match="unknown evaluation method"):
            call(G1, Z, [3.0], method="quadratur")
    with pytest.raises(DomainError):
        FrequencyConfig(method="auto")


def test_entry_points_refuse_a_bare_radius():
    # a number is not a 1-D radius grid
    for call in (
        partial(D_of_r, G1, Z),
        partial(check_derivative_I, G1, Z),
        partial(rho_mu, G1, Z, 1.0),
        partial(frequency_profile, G1, Z, 1.0),
        partial(calibrate_constants, G1, Z, 1.0),
    ):
        with pytest.raises(ValueError, match="1-D grid"):
            call(3.0)


_WRONG_COUNT_CALLS = {
    "frequency_profile_closed": lambda model, u: frequency_profile(model, u, 1.0, [5.0, 8.0]),
    "frequency_profile_quadrature": lambda model, u: frequency_profile(
        model, u, 1.0, [5.0, 8.0], FrequencyConfig(resolution=64, method="quadrature")
    ),
    "D_of_r_closed": lambda model, u: D_of_r(model, u, [5.0]),
    "D_of_r_quadrature": lambda model, u: D_of_r(model, u, [5.0], 64, "quadrature"),
    "check_derivative_I_closed": lambda model, u: check_derivative_I(model, u, [5.0]),
    "check_derivative_I_quadrature": lambda model, u: check_derivative_I(
        model, u, [5.0], resolution=64, method="quadrature"
    ),
    "check_defect_recursion": lambda model, u: check_defect_recursion(model, u, 5.0, 64),
    "rho_mu": lambda model, u: rho_mu(model, u, 1.0, [5.0]),
    # the kernel form u (z2 dz1 - z1 dz2)
    "form_integral_identity_check": lambda model, u: form_integral_identity_check(
        model, HoloForm(1, u.m, {(0,): u.mul_variable(1), (1,): u.mul_variable(0).scale(-1.0)}), resolution=64
    ),
}


@pytest.mark.parametrize("model, m", [(G2, 3), (gaussian(3), 2)], ids=["3_on_gaussian2", "2_on_gaussian3"])
@pytest.mark.parametrize("call", _WRONG_COUNT_CALLS.values(), ids=_WRONG_COUNT_CALLS.keys())
def test_wrong_variable_count_is_refused_naming_both_counts(call, model, m):
    # each rule's gram compares a polynomial's variable count with the model's flat count, on both routes
    u = HoloPoly(m, {(1,) + (0,) * (m - 1): 1.0, (0,) * m: 0.5})
    with pytest.raises(DomainError, match=f"has {m} variables but the model has {model.flat_m} flat variables"):
        call(model, u)


def test_routes_stay_independent(monkeypatch):
    u = HoloPoly(2, {(1, 0): 1.0, (0, 2): 0.5j, (0, 0): -1.0})
    quad = FrequencyConfig(resolution=64, method="quadrature")

    def crossed(*args):
        raise AssertionError("one route called into the other")

    def run(method):
        config = quad if method == "quadrature" else FrequencyConfig()
        rec = D_of_r(G2, u, [3.0], 64, method)
        # one level and one ball rule over a grid, and the five-radius grid of the extrapolated difference
        profile = frequency_profile(G2, u, 2.0, np.linspace(2.0, 9.0, 15), config)
        check_derivative_I(G2, u, [4.5], resolution=64, method=method)
        rr = np.array([3.0])
        level = frequency._rules(method, 64)[0](G2, rr)
        return [
            _I(G2, u, 3.0, 64, method),
            *rec.bulk,
            *rec.boundary,
            *frequency._i_prime_rhs(G2, rr, level, frequency._SphereFields(u, level)),
            *frequency_profile(G2, u, 2.0, [2.0, 3.0], config).U,
            *profile.I,
            *profile.D,
        ]

    with monkeypatch.context() as patch:
        # the closed route reads no 1-D table of the collapsed coordinates and pairs its terms
        # without the quadrature route's grouping
        patch.setattr(quadrature, "_collapsed_rule", crossed)
        patch.setattr(quadrature, "_matched_pairs", crossed)
        closed = run("closed")
        rho_mu(G2, u, 2.0, [3.0])
    with monkeypatch.context() as patch:
        # the quadrature route takes no closed-form moment
        patch.setattr(quadrature, "sphere_moment", crossed)
        quad_vals = run("quadrature")
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(closed, quad_vals))


def _grid_poly(m):
    """Mixed degrees and complex coefficients in m variables."""
    pad = (0,) * (m - 1)
    return HoloPoly(m, {(0,) * m: 1.0 - 0.5j, (1,) + pad: 2.0, (2,) + pad: -0.75, pad + (3,): 0.25j})


_GRID_MODELS = {
    "gaussian1": G1,
    "gaussian3": gaussian(3),
    "cylinder": CYL,
    "cylinder_x_cylinder": product([cylinder(), cylinder()]),
}


@pytest.mark.parametrize("method", ["closed", "quadrature"])
@pytest.mark.parametrize("name", sorted(_GRID_MODELS))
def test_grid_profile_matches_one_radius_rules(name, method):
    # one rule over 40 radii gives, at each radius, what a rule on that radius alone gives, bit for bit
    model = _GRID_MODELS[name]
    u = _grid_poly(model.flat_m)
    radii = np.linspace(3.5, 40.0, 40)
    config = FrequencyConfig(resolution=64, method=method)
    profile = frequency_profile(model, u, 3.0, radii, config)
    dirichlet = D_of_r(model, u, radii, 64, method)
    derivative = check_derivative_I(model, u, radii, resolution=64, method=method)
    assert derivative.shape == dirichlet.bulk.shape == dirichlet.boundary.shape == radii.shape
    for i, r in enumerate(radii):
        alone = frequency_profile(model, u, 3.0, [r], config)
        assert (profile.I[i], profile.D[i]) == (alone.I.item(), alone.D.item())
        rec = D_of_r(model, u, [r], 64, method)
        assert (dirichlet.bulk[i], dirichlet.boundary[i]) == (rec.bulk.item(), rec.boundary.item())
        assert derivative[i] == check_derivative_I(model, u, [r], resolution=64, method=method).item()
    if method == "closed":  # rho_mu has the closed route only
        ratios = rho_mu(model, u, 3.0, radii)
        assert ratios.rho.shape == radii.shape
        assert ratios.passed
        for i, r in enumerate(radii):
            assert ratios.rho[i] == rho_mu(model, u, 3.0, [r]).rho.item()


@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_irregular_grid_radius_is_named_before_any_sphere_sum(monkeypatch, method):
    def no_sums(*args):
        raise AssertionError("a sphere sum was formed")

    monkeypatch.setattr(quadrature.ProductRule, "gram", no_sums)
    monkeypatch.setattr(quadrature.MomentRule, "gram", no_sums)
    u = HoloPoly.monomial(1, (2,))
    config = FrequencyConfig(resolution=64, method=method)
    # r^2 = 4 is the cylinder's critical level; the rest of the grid is regular
    with pytest.raises(RegularityError, match=r"^r=2\.0 is not a regular level"):
        frequency_profile(CYL, u, 2.0, [2.0, 3.0, 4.5, 9.0], config)
    # the first irregular radius of an unordered grid is named
    level_rule, ball_rule = frequency._rules(method, 64)
    for build in (level_rule, ball_rule):
        with pytest.raises(RegularityError, match=r"^r=1\.9 is not a regular level"):
            build(CYL, [3.0, 5.0, 1.9, 2.0, 6.0])


def test_profile_rows_roundtrip():
    prof = frequency_profile(G1, Z, 1.0, [4.0, 5.0, 6.0])
    rows = prof.to_rows()
    assert [row["r"] for row in rows] == [4.0, 5.0, 6.0]
    assert all(set(row) == {"r", "I", "D", "U", "eta", "monotone_q"} for row in rows)


def test_I_cylinder_quadrature_matches_closed():
    # compact-factor folding: the quadrature route reproduces the closed form
    u = HoloPoly(1, {(1,): 1.0, (2,): -0.5, (0,): 2.0j})
    for r in (4.5, 9.0):
        closed = _I(CYL, u, r, method="closed")
        quad_val = _I(CYL, u, r, 128, method="quadrature")
        assert math.isclose(closed, quad_val, rel_tol=1e-12)
        rec_c = D_of_r(CYL, u, [r], method="closed")
        rec_q = D_of_r(CYL, u, [r], 128, method="quadrature")
        assert math.isclose(rec_c.bulk.item(), rec_q.bulk.item(), rel_tol=1e-12)
        assert math.isclose(rec_c.boundary.item(), rec_q.boundary.item(), rel_tol=1e-12)


def test_eta_segments_compose():
    from shrinker_lab.frequency import eta_integral, FrequencyConfig

    for c1, c2 in ((2.0, 1.5), (1e-9, 1e-9)):
        cfg = FrequencyConfig(C1=c1, C2=c2)
        total = eta_integral(10.0, cfg, 100.0)
        split = eta_integral(6.0, cfg, 100.0) + eta_integral(10.0, cfg, 100.0, lo=6.0)
        assert math.isclose(total, split, rel_tol=1e-10)
        # the antiderivative (C2 sqrt(mu)/C1) exp(-C1/(sigma s^sigma)) vanishes at s = 0
        exact = c2 * math.sqrt(100.0) / c1 * math.exp(-c1 / (0.5 * 10.0**0.5))
        assert math.isclose(total, exact, rel_tol=1e-10)


def _d_prime_rhs(model, u, r, resolution=256):
    # boundary expression for D'(r) on constant-curvature models: twice the
    # normal energy plus the scalar-curvature corrections (the mixed Ricci
    # term vanishes because the level normal is tangent to the flat factor)
    f, weights = brute_force.on_level(model, u, r, resolution)
    rho = model.flat_radius(r)
    inv_grad_b = r / rho
    normal_sq = np.abs(f["E"]) ** 2 / rho**2
    a_int = inv_grad_b * float(np.sum(weights * normal_sq))
    b_int = inv_grad_b * float(np.sum(weights * f["grad_sq"]))
    c_int = float(np.sum(weights * 2.0 * np.real(np.conj(f["u"]) * f["E"]) / rho))
    s = model.s_const
    n = model.n
    return (
        2.0 * r ** (2 - n) * a_int
        + 4.0 * s * r ** (-n) * (b_int - 2.0 * a_int)
        - s * r ** (1 - n) * c_int
    )


@pytest.mark.parametrize("model", [G1, G2, CYL])
def test_energy_derivative_identity(model):
    polys = [
        HoloPoly.monomial(model.flat_m, (1,) + (0,) * (model.flat_m - 1)),
        HoloPoly.monomial(model.flat_m, (2,) + (0,) * (model.flat_m - 1)),
        HoloPoly(
            model.flat_m,
            {
                (0,) * model.flat_m: 1.0,
                (1,) + (0,) * (model.flat_m - 1): 1.0,
                (3,) + (0,) * (model.flat_m - 1): -0.5j,
            },
        ),
    ]
    for u in polys:
        for r in (6.0, 10.0):
            h = 1e-4 * r
            diff = (
                D_of_r(model, u, [r + h]).bulk.item() - D_of_r(model, u, [r - h]).bulk.item()
            ) / (2.0 * h)
            rhs = _d_prime_rhs(model, u, r)
            assert abs(diff - rhs) / (1.0 + abs(rhs)) < 1e-6


def test_energy_derivative_cylinder_closed_form():
    # for w^k both sides equal 32 pi^2 k rho^{2k-2} (k r^2 - rho^2) / r^3
    for k in (1, 2, 3):
        u = HoloPoly.monomial(1, (k,))
        for r in (6.0, 12.0):
            rho_sq = r * r - 4.0
            expected = (
                32.0 * math.pi**2 * k * rho_sq ** (k - 1) * (k * r * r - rho_sq) / r**3
            )
            assert math.isclose(_d_prime_rhs(CYL, u, r), expected, rel_tol=1e-11)


def test_frequency_monotone_in_r_for_mixed_polynomials():
    # on the flat model U(r) is a log-convex-weighted average of term degrees,
    # so it is nondecreasing and climbs to the leading degree
    rng = np.random.default_rng(21)
    for m in (1, 2):
        model = gaussian(m)
        for _ in range(8):
            terms = {}
            for _ in range(5):
                alpha = tuple(int(rng.integers(0, 4)) for _ in range(m))
                terms[alpha] = complex(rng.normal(), rng.normal())
            u = HoloPoly(m, terms)
            if u.is_zero():
                continue
            radii = np.linspace(0.5, 60.0, 40)
            values = frequency_profile(model, u, 1.0, radii).U
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= u.degree + 1e-9
            assert values[-1] > u.degree - 0.1  # the top degree dominates by r = 60
