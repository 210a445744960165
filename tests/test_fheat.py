"""Eigenbasis projection, series evolution, the stepping oracle and the
caloric transform."""

from __future__ import annotations

import math

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab.errors import DomainError
from shrinker_lab.fheat import (
    HeatPolynomial,
    HeatSolution,
    ancient_transform_check,
    drift_apply_1d,
    eternal_to_caloric,
    evolve_series,
    hermite_monic,
    hermite_norm_sq,
    project_to_eigenbasis,
    timestep_oracle,
    transform_to_eternal,
    weighted_l2_distance,
)


def test_basis_polynomials():
    assert list(hermite_monic(2)) == [-2.0, 0.0, 1.0]
    assert list(hermite_monic(3)) == [0.0, -6.0, 0.0, 1.0]
    assert list(hermite_monic(4)) == [12.0, 0.0, -12.0, 0.0, 1.0]


def test_basis_eigen_relation_exact():
    for k in range(9):
        pk = hermite_monic(k)
        residual = drift_apply_1d(pk) + (k / 2.0) * pk
        assert np.abs(residual).max() == 0.0


def test_basis_orthogonality_and_norms():
    x, w = np.polynomial.legendre.leggauss(400)
    x, w = 20.0 * x, 20.0 * w * np.exp(-0.25 * (20.0 * x) ** 2)
    for j in range(5):
        for k in range(5):
            pj = np.polynomial.polynomial.polyval(x, hermite_monic(j))
            pk = np.polynomial.polynomial.polyval(x, hermite_monic(k))
            val = float(np.sum(w * pj * pk))
            expected = hermite_norm_sq(k) if j == k else 0.0
            assert abs(val - expected) < 1e-9 * max(1.0, hermite_norm_sq(k))


def test_projection_x_squared():
    sol = project_to_eigenbasis(np.array([0.0, 0.0, 1.0]))
    assert sol.coefficients == {0.0: 2.0, 1.0: 1.0}


def test_projection_x_cubed_parity():
    sol = project_to_eigenbasis(np.array([0.0, 0.0, 0.0, 1.0]))
    assert sol.coefficients == {0.5: 6.0, 1.5: 1.0}


def test_projection_single_eigenfunction():
    sol = project_to_eigenbasis(hermite_monic(3))
    assert sol.coefficients == {1.5: 1.0}


def test_evolve_series_examples():
    sol = HeatSolution(coefficients={1.0: 1.0})
    assert evolve_series(sol, math.log(2.0), 1.0) == pytest.approx(-0.5)
    const = HeatSolution(coefficients={0.0: 3.0})
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
    # the scan solve sums the substitution's terms in another order: the
    # grid is equal, each solution sample within a relative 1e-12
    coeffs = np.random.default_rng(7).normal(size=5)
    u0 = lambda xs: np.polynomial.polynomial.polyval(xs, coeffs)
    got = timestep_oracle(u0, 0.0, 1.0, N_grid=n_grid, N_steps=n_steps, extrapolate=True)
    want = ref.timestep_oracle(u0, 0.0, 1.0, N_grid=n_grid, N_steps=n_steps, extrapolate=True)
    assert np.array_equal(got[0], want[0])
    assert np.all(np.abs(got[1] - want[1]) <= 1e-12 * np.abs(want[1]))


def test_timestep_oracle_validation():
    with pytest.raises(DomainError):
        timestep_oracle(lambda xs: xs, 1.0, 0.5)


def test_heat_polynomial_family():
    assert HeatPolynomial.of_degree(2).terms == {(2, 0): 1.0, (0, 1): 2.0}
    for d in range(7):
        assert HeatPolynomial.of_degree(d).caloric_residual() == 0.0


def test_transform_examples():
    # x^2 + 2t maps to e^{-s} (x^2 - 2)
    parts = transform_to_eternal(HeatPolynomial({(2, 0): 1.0, (0, 1): 2.0}))
    assert set(parts) == {1.0}
    assert list(parts[1.0]) == [-2.0, 0.0, 1.0]
    # x maps to e^{-s/2} x
    parts = transform_to_eternal(HeatPolynomial({(1, 0): 1.0}))
    assert set(parts) == {0.5}
    assert list(parts[0.5]) == [0.0, 1.0]
    # constants stay put
    parts = transform_to_eternal(HeatPolynomial({(0, 0): 1.0}))
    assert set(parts) == {0.0}


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
        assert max(parts) <= d / 2.0 + 1e-12


def test_energy_decay():
    sol = project_to_eigenbasis(np.array([1.0, 2.0, -1.0, 0.5]))
    values = [sol.norm_sq(s) for s in np.linspace(0.0, 4.0, 17)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
