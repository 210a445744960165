"""Discretized 1-D drift operator and the in-repo eigenvalue kernels."""

from __future__ import annotations

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab.eigensolve import thomas_factor, thomas_substitute, tridiagonal_eigenvalues
from shrinker_lab.errors import NumericError
from shrinker_lab.oracle1d import discretize, oracle_spectrum_1d


def test_oracle_matches_half_integers():
    ev = oracle_spectrum_1d(X=12.0, N=800, k_eigs=5)
    target = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.abs(ev - target).max() < 1e-6


def test_oracle_convergence_at_least_quadratic():
    target = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    errs = []
    for n in (100, 200, 400):
        ev = oracle_spectrum_1d(X=12.0, N=n, k_eigs=5)
        errs.append(np.abs(ev - target).max())
    assert errs[1] <= errs[0] / 4.0 * 1.05
    assert errs[2] <= errs[1] / 4.0 * 1.05


def test_operator_matrix_symmetric_psd():
    op = discretize(10.0, 80)
    a = ref.dense(op.diag, op.off)
    assert np.abs(a - a.T).max() < 1e-12 * np.abs(a).max()
    ev = tridiagonal_eigenvalues(op.diag, op.off, op.diag.size)
    assert ev.min() > -1e-8
    assert np.linalg.eigvalsh(a).min() > -1e-8


def test_jacobi_against_bisection():
    # the dense symmetric eigensolver cross-checks the bisection path
    op = discretize(10.0, 60)
    dense = np.linalg.eigvalsh(ref.dense(op.diag, op.off))
    tri = tridiagonal_eigenvalues(op.diag, op.off, op.diag.size)
    assert np.abs(np.sort(dense) - np.sort(tri)).max() < 1e-9


def test_thomas_solve():
    rng = np.random.default_rng(0)
    n = 50
    diag = 4.0 + rng.uniform(size=n)
    off = rng.uniform(size=n - 1)
    x_true = rng.normal(size=n)
    a = ref.dense(diag, off)
    factor = thomas_factor(diag, off)
    for _ in range(3):
        x = np.array(thomas_substitute(factor, (a @ x_true).tolist()))
        assert np.abs(x - x_true).max() < 1e-10
        x_true = rng.normal(size=n)


def test_thomas_scan_matches_dense_solve_on_heat_matrix():
    # the backward-Euler matrix M + ds K; its weights span about 16 orders of magnitude
    op = discretize(12.0, 1600)
    ds = 1.0 / 400
    diag = op.weight + ds * op.diag * op.weight
    off = ds * op.off * np.sqrt(op.weight[:-1] * op.weight[1:])
    factor = thomas_factor(diag, off)
    xs = op.grid[1:-1]
    a = ref.dense(diag, off)
    quartic = np.polynomial.polynomial.polyval(xs, [0.3, -1.0, 0.5, 0.2, -0.1])
    for u in (np.ones_like(xs), xs**2, quartic):
        rhs = op.weight * u
        got = thomas_substitute(factor, rhs)
        want = np.linalg.solve(a, rhs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thomas_scan_small_orders(n):
    # orders 1, 2 and 3 run the scans with 0, 1 and 2 levels
    diag = np.array([4.0, 5.0, 3.0])[:n]
    off = np.array([1.0, -2.0])[: n - 1]
    rhs = np.array([1.0, -2.0, 0.5])[:n]
    factor = thomas_factor(diag, off)
    assert len(factor[1]) == n - 1
    got = thomas_substitute(factor, rhs)
    want = np.linalg.solve(ref.dense(diag, off), rhs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_thomas_order_one_and_zero_pivot():
    assert thomas_substitute(thomas_factor(np.array([2.0]), np.array([])), [3.0]) == [1.5]
    with pytest.raises(NumericError):
        thomas_factor(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(NumericError):
        thomas_factor(np.array([1.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize("n", [800, 1600])
def test_oracle_bit_equal_to_element_loop(n):
    for shift in (0.0, 0.5):
        got = oracle_spectrum_1d(X=12.0, N=n, k_eigs=6, shift=shift)
        want = ref.oracle_spectrum_1d(X=12.0, N=n, k_eigs=6, shift=shift)
        assert np.array_equal(got, want)


def test_shifted_operator():
    ev = oracle_spectrum_1d(X=12.0, N=400, k_eigs=3, shift=0.5)
    assert np.allclose(ev, [0.5, 1.0, 1.5], atol=1e-5)


def test_validation_errors():
    with pytest.raises(NumericError):
        oracle_spectrum_1d(X=12.0, N=800, k_eigs=400)
    with pytest.raises(NumericError):
        discretize(-1.0, 100)
    with pytest.raises(NumericError):
        discretize(10.0, 8)
