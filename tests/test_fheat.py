"""Eigenbasis projection, series evolution, the stepping oracle and the
caloric transform."""

from __future__ import annotations

import math
import time
import warnings

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab import fheat
from shrinker_lab.errors import DomainError, NumericError
from shrinker_lab.fheat import (
    HEAT_GRID_LIMIT,
    HeatPolynomial,
    HeatSolution,
    ancient_transform_check,
    drift_apply_1d,
    eternal_to_caloric,
    evolve_series,
    hermite_norm_sq,
    monic_basis,
    project_to_eigenbasis,
    timestep_oracle,
    transform_to_eternal,
    weighted_l2_distance,
)


def test_basis_polynomials():
    basis = monic_basis(4)
    assert [list(p) for p in basis[:2]] == [[1.0], [0.0, 1.0]]
    assert list(basis[2]) == [-2.0, 0.0, 1.0]
    assert list(basis[3]) == [0.0, -6.0, 0.0, 1.0]
    assert list(basis[4]) == [12.0, 0.0, -12.0, 0.0, 1.0]
    assert monic_basis(0) == basis[:1] and monic_basis(-1) == []


def test_basis_eigen_relation_exact():
    for k, pk in enumerate(monic_basis(8)):
        residual = drift_apply_1d(pk) + (k / 2.0) * pk
        assert np.abs(residual).max() == 0.0


def test_basis_equals_the_restarted_recurrence_bit_for_bit():
    basis = monic_basis(265)
    assert len(basis) == 266
    for k in (*range(40), 100, 200, 264, 265):
        assert basis[k].tobytes() == ref.hermite_monic(k).tobytes()


def test_basis_stops_at_its_first_non_finite_row():
    # p_265 is finite and p_266 is not, so any larger build stops after 266 rows
    assert np.isfinite(monic_basis(265)[-1]).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(ref.hermite_monic(266)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for K in (266, 3000, 10**9):
            t0 = time.perf_counter()
            with pytest.raises(NumericError, match="p_266 overflows"):
                monic_basis(K)
            assert time.perf_counter() - t0 < 1.0
        with pytest.raises(NumericError, match="p_266 overflows"):
            project_to_eigenbasis(np.eye(1, 267, 266)[0])


def test_basis_orthogonality_and_norms():
    x, w = np.polynomial.legendre.leggauss(400)
    x, w = 20.0 * x, 20.0 * w * np.exp(-0.25 * (20.0 * x) ** 2)
    basis = monic_basis(4)
    for j in range(5):
        for k in range(5):
            pj = np.polynomial.polynomial.polyval(x, basis[j])
            pk = np.polynomial.polynomial.polyval(x, basis[k])
            val = float(np.sum(w * pj * pk))
            expected = hermite_norm_sq(k) if j == k else 0.0
            assert abs(val - expected) < 1e-9 * max(1.0, hermite_norm_sq(k))


def test_projection_x_squared():
    # entry k weighs p_k at eigenvalue k/2: x^2 = p_2 + 2 p_0
    sol = project_to_eigenbasis(np.array([0.0, 0.0, 1.0]))
    assert list(sol.coefficients) == [2.0, 0.0, 1.0]
    assert sol.terms() == [(2, 1.0), (0, 2.0)]


def test_projection_x_cubed_parity():
    sol = project_to_eigenbasis(np.array([0.0, 0.0, 0.0, 1.0]))
    assert list(sol.coefficients) == [0.0, 6.0, 0.0, 1.0]


def test_projection_single_eigenfunction():
    sol = project_to_eigenbasis(monic_basis(3)[3])
    assert list(sol.coefficients) == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("degree", [0, 1, 5, 20, 60, 140, 265])
def test_series_equals_the_float_keyed_route_bit_for_bit(degree):
    # the same sums in the same order, descending k with entries below 1e-300 skipped
    rng = np.random.default_rng(degree)
    u0 = rng.normal(size=degree + 1) * (rng.uniform(size=degree + 1) < 0.7)
    u0[0] = 1e-301
    x = np.linspace(-3.0, 3.0, 11)
    with np.errstate(over="ignore", invalid="ignore"):
        weights, want = ref.heat_series(u0, 0.75, x)
        sol = project_to_eigenbasis(u0)
        got = evolve_series(sol, 0.75, x)
        if degree <= 170:  # k! passes the float range from k = 171 on
            terms = (a * a * math.exp(-2.0 * lam * 0.75) * hermite_norm_sq(round(2 * lam)) for lam, a in weights.items())
            norm = sum(terms)
            assert repr(sol.norm_sq(0.75)) == repr(norm)
    # repr: a degree-265 remainder carries NaN weights, on both routes alike
    assert repr([(k / 2, a) for k, a in sol.terms()]) == repr(list(weights.items()))
    assert got.tobytes() == want.tobytes()


def test_evolve_series_examples():
    sol = HeatSolution(coefficients=np.array([0.0, 0.0, 1.0]))
    assert evolve_series(sol, math.log(2.0), 1.0) == pytest.approx(-0.5)
    const = HeatSolution(coefficients=np.array([3.0]))
    for s in (0.0, 1.0, 5.0):
        assert evolve_series(const, s, 0.7) == 3.0
    u0 = project_to_eigenbasis(np.array([0.0, 0.0, 1.0]))
    xs = np.linspace(-3, 3, 7)
    assert np.allclose(evolve_series(u0, 0.0, xs), xs**2, atol=1e-12)


def test_timestep_oracle_accuracy():
    x, num = timestep_oracle(lambda xs: xs**2, 0.0, 1.0, N_grid=800, N_steps=200, extrapolate=True)
    series = evolve_series(project_to_eigenbasis(np.array([0.0, 0.0, 1.0])), 1.0, x)
    assert weighted_l2_distance(num, series, x=x) < 1e-3


def test_timestep_oracle_first_order_convergence():
    series = None
    errs = []
    for steps in (50, 100, 200):
        x, num = timestep_oracle(lambda xs: xs**2, 0.0, 1.0, N_grid=400, N_steps=steps)
        if series is None:
            series = evolve_series(project_to_eigenbasis(np.array([0.0, 0.0, 1.0])), 1.0, x)
        errs.append(weighted_l2_distance(num, series, x=x))
    assert errs[1] / errs[0] == pytest.approx(0.5, rel=0.1)
    assert errs[2] / errs[1] == pytest.approx(0.5, rel=0.1)


def test_timestep_oracle_preserves_constants():
    # the Dirichlet cut-off erodes the constant only in a boundary layer that
    # is invisible to the weighted norm
    x, num = timestep_oracle(lambda xs: np.ones_like(xs), 0.0, 1.0, N_grid=200, N_steps=20)
    inner = np.abs(x) <= 6.0
    assert np.abs(num[inner] - 1.0).max() < 1e-10
    assert weighted_l2_distance(num, np.ones_like(x), x=x) < 1e-7


@pytest.mark.parametrize("n_grid,n_steps", [(800, 200), (1600, 400)])
def test_timestep_oracle_matches_per_step_solve_to_rounding(n_grid, n_steps):
    # the block sums of the substitution hold its terms in another order:
    # the grid is equal, each solution sample within a relative 1e-12
    coeffs = np.random.default_rng(7).normal(size=5)
    u0 = lambda xs: np.polynomial.polynomial.polyval(xs, coeffs)
    got = timestep_oracle(u0, 0.0, 1.0, N_grid=n_grid, N_steps=n_steps, extrapolate=True)
    want = ref.timestep_oracle(u0, 0.0, 1.0, N_grid=n_grid, N_steps=n_steps, extrapolate=True)
    assert np.array_equal(got[0], want[0])
    assert np.all(np.abs(got[1] - want[1]) <= 1e-12 * np.abs(want[1]))


def test_timestep_oracle_validation():
    with pytest.raises(DomainError):
        timestep_oracle(lambda xs: xs, 1.0, 0.5)


def test_over_budget_heat_runs_are_refused_before_the_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(fheat, "discretize", no_grid)
    # too many steps; a grid over its cap; 20,000 steps on 800 fit only without extrapolation
    for n_grid, n_steps, extrapolate in (
        (800, 10**9, False),
        (HEAT_GRID_LIMIT + 1, 1, False),
        (800, 20_000, True),
    ):
        with pytest.raises(NumericError, match="over the limit"):
            timestep_oracle(np.square, 0.0, 1.0, N_grid=n_grid, N_steps=n_steps, extrapolate=extrapolate)
    # every run in use is accepted
    for n_grid, n_steps in ((800, 200), (1600, 400), (400, 200), (200, 20)):
        fheat.require_heat_work(n_grid, n_steps, True)
    fheat.require_heat_work(800, 20_000, False)


def test_heat_polynomial_family():
    assert HeatPolynomial.of_degree(2).terms == {(2, 0): 1.0, (0, 1): 2.0}
    for d in range(7):
        assert HeatPolynomial.of_degree(d).caloric_residual() == 0.0


def test_transform_examples():
    # x^2 + 2t maps to e^{-s} (x^2 - 2)
    # parts are keyed by 2 lambda
    parts = transform_to_eternal(HeatPolynomial({(2, 0): 1.0, (0, 1): 2.0}))
    assert set(parts) == {2}
    assert list(parts[2]) == [-2.0, 0.0, 1.0]
    # x maps to e^{-s/2} x
    parts = transform_to_eternal(HeatPolynomial({(1, 0): 1.0}))
    assert set(parts) == {1}
    assert list(parts[1]) == [0.0, 1.0]
    # constants stay put
    parts = transform_to_eternal(HeatPolynomial({(0, 0): 1.0}))
    assert set(parts) == {0}
    # each part holds the 2 lambda + 1 coefficients its key allows: t maps to -e^{-s}
    parts = transform_to_eternal(HeatPolynomial({(0, 1): 1.0}))
    assert list(parts[2]) == [-1.0, 0.0, 0.0]


def test_inverse_transform_checks_parity_and_sign_exactly():
    assert eternal_to_caloric({3: np.array([0.0, 2.0, 0.0, 1.0])}).terms == {(1, 1): -2.0, (3, 0): 1.0}
    # x^0 at 2 lambda = 1 needs t^(1/2); x^2 at 2 lambda = 0 needs t^(-1); a half-integer key is no 2 lambda
    for parts in ({1: np.array([1.0])}, {0: np.array([0.0, 0.0, 1.0])}, {1.5: np.array([0.0, 1.0])}):
        with pytest.raises(DomainError, match="caloric"):
            eternal_to_caloric(parts)


def test_transform_residual_zero_for_caloric():
    for d in range(5):
        assert ancient_transform_check(HeatPolynomial.of_degree(d)) == 0.0


def test_transform_rejects_noncaloric():
    with pytest.raises(DomainError):
        ancient_transform_check(HeatPolynomial({(2, 0): 1.0}))  # x^2 alone is not caloric


def test_transform_bijection_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(10):
        combo: dict[tuple[int, int], float] = {}
        for d in range(5):
            c = float(rng.integers(-3, 4))
            if c == 0.0:
                continue
            for key, val in HeatPolynomial.of_degree(d).terms.items():
                combo[key] = combo.get(key, 0.0) + c * val
        if not combo:
            continue
        hp = HeatPolynomial(combo)
        assert eternal_to_caloric(transform_to_eternal(hp)).terms == hp.terms


def test_transform_growth_bookkeeping():
    # a caloric polynomial of parabolic degree d only loads rates <= d/2
    for d in range(1, 6):
        hp = HeatPolynomial.of_degree(d)
        parts = transform_to_eternal(hp)
        assert max(parts) <= d


def test_energy_decay():
    sol = project_to_eigenbasis(np.array([1.0, 2.0, -1.0, 0.5]))
    values = [sol.norm_sq(s) for s in np.linspace(0.0, 4.0, 17)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("k", [200, 265])
def test_norm_past_the_factorial_range_is_taken_in_logs(k):
    # k! is past the float range from k = 171 on; a weight of about |p_k|^-1
    # keeps the term near 1, which the sum of logs returns
    log_norm_sq = (k + 1) * math.log(2.0) + math.lgamma(k + 1) + 0.5 * math.log(math.pi)
    a = math.exp(-0.5 * log_norm_sq)
    sol = HeatSolution(coefficients=np.eye(1, k + 1, k)[0] * a)
    for s in (0.0, 0.01):
        want = math.exp(2.0 * math.log(a) - k * s + log_norm_sq)
        assert sol.norm_sq(s) == pytest.approx(want, rel=1e-12)
    # a unit weight leaves the float range: refused, naming k
    with pytest.raises(NumericError, match=f"term k={k} "):
        HeatSolution(coefficients=np.eye(1, k + 1, k)[0]).norm_sq()
