"""Frequency machinery: height/energy integrals, monotonicity, shells."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shrinker_lab.errors import DomainError, RegularityError
from shrinker_lab.holopoly import HoloPoly
from shrinker_lab.models import cylinder, gaussian
from shrinker_lab.frequency import (
    D_of_r,
    FrequencyConfig,
    I_of_r,
    shell_energy_ledger,
    level_defect,
    calibrate_constants,
    check_derivative_I,
    check_defect_recursion,
    check_monotone,
    default_R0,
    doubling_and_three_circle,
    frequency_U,
    frequency_profile,
    i_prime_rhs,
    mu_constant,
    rho_mu,
)

import brute_force

G1 = gaussian(1)
G2 = gaussian(2)
CYL = cylinder()
Z = HoloPoly.monomial(1, (1,))
W = HoloPoly.monomial(1, (1,))


def test_I_closed_forms():
    for r in (1.0, 2.0, 7.5):
        assert math.isclose(I_of_r(G1, Z, r), 2.0 * math.pi * r * r, rel_tol=1e-13)
        assert math.isclose(I_of_r(G1, HoloPoly.constant(1, 1.0), r), 2.0 * math.pi, rel_tol=1e-13)
    for k in (1, 2, 3):
        for r in (4.5, 6.0, 10.0):
            rho = math.sqrt(r * r - 4.0)
            expected = 16.0 * math.pi**2 * rho ** (2 * k + 2) / r**4
            assert math.isclose(I_of_r(CYL, HoloPoly.monomial(1, (k,)), r), expected, rel_tol=1e-12)


def test_I_quadrature_matches_closed():
    u = HoloPoly(2, {(2, 1): 1.0 - 0.5j, (1, 0): 2.0, (0, 0): -1.0})
    for r in (2.0, 6.0):
        closed = I_of_r(G2, u, r, method="closed")
        quad = I_of_r(G2, u, r, 128, method="quadrature")
        assert math.isclose(closed, quad, rel_tol=1e-12)


def test_D_closed_forms():
    for r in (1.0, 2.0, 5.0):
        rec = D_of_r(G1, Z, r)
        assert math.isclose(rec.bulk, 2.0 * math.pi * r * r, rel_tol=1e-13)
        assert math.isclose(rec.boundary, rec.bulk, rel_tol=1e-13)
    rec = D_of_r(G1, HoloPoly.constant(1, 2.0), 3.0)
    assert rec.bulk == 0.0 and rec.boundary == 0.0


@pytest.mark.parametrize("model", [G1, G2, CYL])
def test_D_bulk_boundary_gap_quadrature(model):
    u = HoloPoly(
        model.flat_m,
        {(1,) + (0,) * (model.flat_m - 1): 1.0, (2,) + (0,) * (model.flat_m - 1): -0.5j},
    )
    for r in (4.5, 10.0):
        rec = D_of_r(model, u, r, 256, method="quadrature")
        assert abs(rec.bulk - rec.boundary) <= 1e-6 * abs(rec.bulk)


def test_U_sharp_on_gaussian_monomials():
    for alpha in [(1,), (3,), (5,)]:
        for r in (1.0, 10.0, 40.0):
            assert abs(frequency_U(G1, HoloPoly.monomial(1, alpha), r) - sum(alpha)) < 1e-8
    for alpha in [(1, 0), (2, 3), (0, 5)]:
        for r in (1.0, 20.0):
            u_val = frequency_U(G2, HoloPoly.monomial(2, alpha), r)
            assert abs(u_val - sum(alpha)) < 1e-8


def test_U_quadrature_tolerance():
    for alpha in [(2, 1), (0, 4)]:
        u_val = frequency_U(G2, HoloPoly.monomial(2, alpha), 8.0, 256, "quadrature")
        assert abs(u_val - sum(alpha)) < 1e-4


def test_U_cylinder_limit():
    w2 = HoloPoly.monomial(1, (2,))
    values = [frequency_U(CYL, w2, r) for r in (5.0, 10.0, 40.0)]
    for r, u_val in zip((5.0, 10.0, 40.0), values):
        assert math.isclose(u_val, 2.0 * r * r / (r * r - 4.0), rel_tol=1e-12)
    assert abs(values[-1] - 2.0) < 6e-3  # exact gap is 8/(r^2 - 4)


def test_check_derivative_I_gaussian_exact():
    assert check_derivative_I(G1, Z, 5.0) < 1e-10


def test_check_derivative_I_cylinder():
    for k in (1, 2, 3):
        u = HoloPoly.monomial(1, (k,))
        for r in (4.5, 6.0, 10.0, 20.0):
            assert check_derivative_I(CYL, u, r) < 1e-5


def test_check_derivative_I_second_order():
    u = HoloPoly.monomial(1, (2,))
    res_h = check_derivative_I(CYL, u, 6.0, h=6e-3)
    res_h2 = check_derivative_I(CYL, u, 6.0, h=3e-3)
    assert res_h / res_h2 > 2.5  # ratio ~4 for an O(h^2) difference


def test_K_vanishes_on_one_flat_variable():
    # one complex variable: |grad u|^2 = 2 |du/dnu|^2 pointwise
    assert abs(level_defect(G1, Z, 3.0, 0)) < 1e-12
    assert abs(level_defect(CYL, HoloPoly(1, {(1,): 1.0, (3,): 2.0}), 6.0, 1, 256)) < 1e-7


def test_K_recursion_cylinder():
    rep = check_defect_recursion(CYL, W, 6.0, 2, 256)
    assert all(res < 1e-5 for res in rep.recursion_residuals)
    assert rep.c_measured < 1e-12


def test_K_recursion_gaussian_m2():
    u = HoloPoly.monomial(2, (1, 0))
    rep = check_defect_recursion(G2, u, 5.0, 2, 256)
    assert rep.K[0] > 0.0  # genuine angular defect on two flat variables
    assert all(res < 1e-5 for res in rep.recursion_residuals)
    assert rep.c_measured <= 1.0


def test_rho_mu_gaussian_exact():
    for d in (1, 2, 3, 4):
        rec = rho_mu(G1, HoloPoly.monomial(1, (d,)), float(d), 5.0)
        assert abs(rec.rho - d * d / 4.0) < 1e-8
        assert rec.passed
        assert rec.mu == mu_constant(d, G1.n)


def test_rho_mu_constant_and_zero():
    rec = rho_mu(G1, HoloPoly.constant(1, 3.0), 1.0, 4.0)
    assert rec.rho == 0.0 and rec.passed
    with pytest.raises(DomainError):
        rho_mu(G1, HoloPoly.zero(1), 1.0, 4.0)


def test_rho_mu_cylinder_margin():
    rec = rho_mu(CYL, HoloPoly.monomial(1, (3,)), 3.0, 6.0)
    assert rec.passed
    assert rec.mu / max(rec.rho, 1e-300) > 1e3


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
    const = shell_energy_ledger(G2, HoloPoly.constant(2, 1.0), 1.0)
    assert const.passed  # shell volumes satisfy the same comparison


def test_j_ledger_regularity():
    with pytest.raises(RegularityError):
        shell_energy_ledger(CYL, W, 2.0, R0=1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        FrequencyConfig(sigma=-1.0)
    with pytest.raises(DomainError):
        FrequencyConfig(method="magic")
    # every public function that takes a method rejects a typo instead of running a route
    for call in (I_of_r, D_of_r, frequency_U, i_prime_rhs, check_derivative_I):
        with pytest.raises(DomainError, match="unknown evaluation method"):
            call(G1, Z, 3.0, method="quadratur")
    with pytest.raises(DomainError):
        FrequencyConfig(method="auto")


def test_profile_rows_roundtrip():
    prof = frequency_profile(G1, Z, 1.0, [4.0, 5.0, 6.0])
    rows = prof.to_rows()
    assert [row["r"] for row in rows] == [4.0, 5.0, 6.0]
    assert all(set(row) == {"r", "I", "D", "U", "eta", "monotone_q"} for row in rows)


def test_I_cylinder_quadrature_matches_closed():
    # compact-factor folding: the quadrature route reproduces the closed form
    u = HoloPoly(1, {(1,): 1.0, (2,): -0.5, (0,): 2.0j})
    for r in (4.5, 9.0):
        closed = I_of_r(CYL, u, r, method="closed")
        quad_val = I_of_r(CYL, u, r, 128, method="quadrature")
        assert math.isclose(closed, quad_val, rel_tol=1e-12)
        rec_c = D_of_r(CYL, u, r, method="closed")
        rec_q = D_of_r(CYL, u, r, 128, method="quadrature")
        assert math.isclose(rec_c.bulk, rec_q.bulk, rel_tol=1e-12)
        assert math.isclose(rec_c.boundary, rec_q.boundary, rel_tol=1e-12)


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
                D_of_r(model, u, r + h).bulk - D_of_r(model, u, r - h).bulk
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
            values = [frequency_U(model, u, r) for r in radii]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= u.degree + 1e-9
            assert values[-1] > u.degree - 0.1  # the top degree dominates by r = 60
