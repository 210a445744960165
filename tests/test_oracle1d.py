"""Discretized 1-D drift operator and the in-repo eigenvalue kernels."""

from __future__ import annotations

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab import eigensolve
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
    # the dense symmetric eigensolver cross-checks the Sturm-count and Newton path
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
    # orders 1, 2 and 3 run the scans as one block of n rows
    diag = np.array([4.0, 5.0, 3.0])[:n]
    off = np.array([1.0, -2.0])[: n - 1]
    rhs = np.array([1.0, -2.0, 0.5])[:n]
    factor = thomas_factor(diag, off)
    assert factor[0].out.shape == factor[1].out.shape == (1, n)
    got = thomas_substitute(factor, rhs)
    want = np.linalg.solve(ref.dense(diag, off), rhs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _heat_matrix(n_grid, n_steps):
    op = discretize(12.0, n_grid)
    ds = 1.0 / n_steps
    diag = op.weight + ds * op.diag * op.weight
    off = ds * op.off * np.sqrt(op.weight[:-1] * op.weight[1:])
    return op, diag, off


def test_thomas_scan_in_many_blocks_matches_dense_solve():
    # at ds = 1/20000 the multipliers are small: the running products leave
    # 2^-500 within about a hundred rows, so the rows split into many blocks
    op, diag, off = _heat_matrix(800, 20000)
    factor = thomas_factor(diag, off)
    assert factor[0].out.shape[0] >= 3 and factor[1].out.shape[0] >= 3
    xs = op.grid[1:-1]
    a = ref.dense(diag, off)
    quartic = np.polynomial.polynomial.polyval(xs, [0.3, -1.0, 0.5, 0.2, -0.1])
    for u in (np.ones_like(xs), xs**2, quartic):
        rhs = op.weight * u
        got = thomas_substitute(factor, rhs)
        want = np.linalg.solve(a, rhs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("n_grid,n_steps", [(800, 200), (800, 20000)])
def test_thomas_scan_scales_exactly_by_powers_of_two(n_grid, n_steps):
    # r 2^900 overflows r / Q; the scan solves again on r scaled down by a
    # power of two, so the result is the unscaled one times 2^900 bit for bit
    op, diag, off = _heat_matrix(n_grid, n_steps)
    factor = thomas_factor(diag, off)
    rhs = op.weight * np.random.default_rng(3).normal(size=diag.size)
    big = thomas_substitute(factor, rhs * 2.0**900)
    assert np.array_equal(big, thomas_substitute(factor, rhs) * 2.0**900)


def test_thomas_scan_zero_off_diagonal():
    # a zero multiplier decouples the rows; every block is then one row
    diag = np.array([4.0, 5.0, 3.0, 6.0, 2.0])
    off = np.array([1.0, 0.0, -2.0, 1.0])
    rhs = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    factor = thomas_factor(diag, off)
    assert factor[0].out.shape == (5, 1)
    got = thomas_substitute(factor, rhs)
    want = np.linalg.solve(ref.dense(diag, off), rhs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_thomas_scan_non_dominant_multipliers():
    # L D L^T with D = 1 and multipliers alternating 4 and 1/8: |c| > 1 on
    # every other row, while each pair of rows halves the running product
    n = 1000
    c = np.where(np.arange(n - 1) % 2 == 0, 4.0, 0.125)
    diag = np.concatenate(([1.0], 1.0 + c * c))
    factor = thomas_factor(diag, c)
    assert factor[0].out.shape[0] >= 2
    x_true = np.random.default_rng(5).normal(size=n)
    rhs = ref.dense(diag, c) @ x_true
    got = thomas_substitute(factor, rhs)
    assert np.abs(got - x_true).max() <= 1e-12 * np.abs(x_true).max()


def test_thomas_order_one_and_zero_pivot():
    assert thomas_substitute(thomas_factor(np.array([2.0]), np.array([])), [3.0]) == [1.5]
    with pytest.raises(NumericError):
        thomas_factor(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(NumericError):
        thomas_factor(np.array([1.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize("n", [800, 1600, 3200])
def test_oracle_bit_equal_to_element_loop(n):
    for shift in (0.0, 0.5):
        got = oracle_spectrum_1d(X=12.0, N=n, k_eigs=6, shift=shift)
        want = ref.oracle_spectrum_1d(X=12.0, N=n, k_eigs=6, shift=shift)
        assert np.array_equal(got, want)


def test_oracle_ladder_converges_through_3200():
    # the eigenvalues converge to rounding, so the grid error keeps falling past N = 1600
    target = np.arange(5) / 2.0
    errs = [np.abs(oracle_spectrum_1d(X=12.0, N=n, k_eigs=5) - target).max() for n in (800, 1600, 3200)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("n", [16, 17, 800, 801])
def test_operator_is_exactly_persymmetric(n):
    # the grid is antisymmetric bit for bit and the coupling a commutative pair product
    for shift in (0.0, 0.5):
        op = discretize(12.0, n, shift=shift)
        assert np.array_equal(op.grid, -op.grid[::-1])
        assert np.array_equal(op.diag, op.diag[::-1])
        assert np.array_equal(op.off, op.off[::-1])


def test_oracle_matches_dense_eigensolver_to_rounding():
    # N = 400 leaves an odd order, folded at a centre node; N = 401 an even one, at a centre pair
    for n in (400, 401):
        op = discretize(12.0, n)
        want = np.linalg.eigvalsh(ref.dense(op.diag, op.off))[:6]
        assert np.abs(tridiagonal_eigenvalues(op.diag, op.off, 6) - want).max() < 1e-12


def test_folded_eigenvalue_does_not_depend_on_k():
    op = discretize(12.0, 800)
    assert np.array_equal(tridiagonal_eigenvalues(op.diag, op.off, 3), tridiagonal_eigenvalues(op.diag, op.off, 6)[:3])


def test_passes_per_call(monkeypatch):
    # Sturm counts isolate each eigenvalue and Newton passes refine it, each on one folded block
    rows = {"_sturm_count": 0, "_newton_pass": 0}
    for name in rows:
        inner = getattr(eigensolve, name)

        def counted(diag, e2, x, inner=inner, name=name):
            rows[name] += len(diag)
            return inner(diag, e2, x)

        monkeypatch.setattr(eigensolve, name, counted)
    op = discretize(12.0, 3200)
    tridiagonal_eigenvalues(op.diag, op.off, 6)
    assert rows["_newton_pass"] > 0
    assert rows["_sturm_count"] + rows["_newton_pass"] <= 120_000


def test_stall_guard_raises(monkeypatch):
    monkeypatch.setattr(eigensolve, "MAX_BISECTIONS", 3)
    op = discretize(12.0, 400)
    with pytest.raises(NumericError, match="did not converge in 3 passes"):
        tridiagonal_eigenvalues(op.diag, op.off, 1)


def _span(diag, off):
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return max(float(np.max(diag + radius) - np.min(diag - radius)), 1.0)


def test_exact_multiplicities():
    # no bracket isolates a triple eigenvalue: each returns its midpoint at the width floor
    diag = np.array([1.0, 1.0, 1.0, 2.0])
    got = tridiagonal_eigenvalues(diag, np.zeros(3), 4)
    assert np.abs(got - [1.0, 1.0, 1.0, 2.0]).max() <= 1e-12
    # three uncoupled copies of one block: every eigenvalue is triple
    rng = np.random.default_rng(11)
    block_diag, block_off = rng.normal(size=5), rng.normal(size=4)
    diag = np.tile(block_diag, 3)
    off = np.concatenate((block_off, [0.0], block_off, [0.0], block_off))
    want = np.repeat(np.linalg.eigvalsh(ref.dense(block_diag, block_off)), 3)
    assert np.abs(tridiagonal_eigenvalues(diag, off, 15) - want).max() <= 1e-12 * _span(diag, off)


def test_zero_centre_coupling_returns_each_shared_eigenvalue_twice():
    # with the centre pair uncoupled both blocks are the same matrix
    rng = np.random.default_rng(13)
    half_diag, half_off = rng.normal(size=6), rng.normal(size=5)
    diag = np.concatenate((half_diag, half_diag[::-1]))
    off = np.concatenate((half_off, [0.0], half_off[::-1]))
    want = np.repeat(np.linalg.eigvalsh(ref.dense(half_diag, half_off)), 2)
    tol = 1e-12 * _span(diag, off)
    for k in range(1, 13):
        assert np.abs(tridiagonal_eigenvalues(diag, off, k) - want[:k]).max() <= tol


def test_random_persymmetric_tridiagonals_every_k():
    # a strong centre coupling pulls one block's eigenvalue far below the other's:
    # the blocks need not alternate
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 31))
        half_diag = rng.normal(size=(n + 1) // 2)
        half_off = rng.normal(size=n // 2)
        half_off[-1] *= 10.0 ** rng.integers(0, 3)
        diag = np.concatenate((half_diag, half_diag[: n // 2][::-1]))
        off = np.concatenate((half_off, half_off[: (n - 1) // 2][::-1]))
        want = np.linalg.eigvalsh(ref.dense(diag, off))
        tol = 1e-12 * _span(diag, off)
        for k in range(1, n + 1):
            assert np.abs(tridiagonal_eigenvalues(diag, off, k) - want[:k]).max() <= tol


def test_wilkinson_matrix_every_k():
    # W21+ has pairs of eigenvalues that agree to about 1e-14 and more; it is persymmetric, so it is folded
    diag = np.abs(np.arange(-10.0, 11.0))
    off = np.ones(20)
    want = np.linalg.eigvalsh(ref.dense(diag, off))
    tol = 1e-12 * _span(diag, off)
    for k in range(1, 22):
        assert np.abs(tridiagonal_eigenvalues(diag, off, k) - want[:k]).max() <= tol


def test_random_tridiagonals_every_eigenvalue():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 51))
        diag = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        off = rng.normal(size=n - 1) * 10.0 ** rng.integers(-3, 4)
        # some off-diagonals vanish, splitting the matrix into blocks with shared eigenvalues
        off[rng.random(n - 1) < 0.2] = 0.0
        want = np.linalg.eigvalsh(ref.dense(diag, off))
        got = tridiagonal_eigenvalues(diag, off, n)
        assert np.abs(got - want).max() <= 1e-12 * _span(diag, off)
        # eigenvalue j does not depend on how many are asked for
        k = int(rng.integers(1, n + 1))
        assert np.array_equal(tridiagonal_eigenvalues(diag, off, k), got[:k])


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


@pytest.mark.parametrize("X", [float("nan"), float("inf")])
def test_discretize_refuses_non_finite_radius(X):
    with pytest.raises(NumericError, match="truncation radius X"):
        discretize(X, 100)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tiny_radius_is_refused_before_any_pass(monkeypatch):
    # X = 1e-300 overflows the operator's entries to inf, which no pass may see
    monkeypatch.setattr(eigensolve, "_sturm_count", None)
    monkeypatch.setattr(eigensolve, "_newton_pass", None)
    with pytest.raises(NumericError, match="^diagonal entry 0 is inf, not finite"):
        oracle_spectrum_1d(X=1e-300, N=100, k_eigs=3)


@pytest.mark.parametrize("which,index", [("diagonal", 0), ("diagonal", 3), ("off-diagonal", 1)])
def test_tridiagonal_refuses_non_finite_entry(which, index):
    diag, off = np.full(5, 2.0), np.full(4, -1.0)
    entries = diag if which == "diagonal" else off
    for bad in (np.nan, np.inf):
        entries[index] = bad
        with pytest.raises(NumericError, match=f"^{which} entry {index} is {bad}, not finite"):
            tridiagonal_eigenvalues(diag, off, 2)


@pytest.mark.parametrize("index", [0, 2])
def test_thomas_factor_refuses_nan_off_diagonal_entry(index):
    diag, off = np.full(4, 4.0), np.full(3, 1.0)
    off[index] = np.nan
    with pytest.raises(NumericError, match=f"^off-diagonal entry {index} is nan, not finite"):
        thomas_factor(diag, off)
