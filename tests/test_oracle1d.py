"""Discretized 1-D drift operator and the in-repo eigenvalue kernels."""

from __future__ import annotations

import warnings

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab import eigensolve
from shrinker_lab.eigensolve import implicit_steps, tridiagonal_eigenvalues
from shrinker_lab.errors import NumericError
from shrinker_lab.fheat import HEAT_GRID_LIMIT
from shrinker_lab.oracle1d import discretize, oracle_spectrum_1d


def test_oracle_matches_half_integers():
    ev = oracle_spectrum_1d(N=800, k_eigs=5)
    target = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.abs(ev - target).max() < 1e-6


def test_oracle_convergence_at_least_quadratic():
    target = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    errs = []
    for n in (100, 200, 400):
        ev = oracle_spectrum_1d(N=n, k_eigs=5)
        errs.append(np.abs(ev - target).max())
    assert errs[1] <= errs[0] / 4.0 * 1.05
    assert errs[2] <= errs[1] / 4.0 * 1.05


def test_operator_matrix_symmetric_psd():
    op = discretize(80)
    a = ref.reduced_dense(op.stiff_diag, op.stiff_off, op.mass)
    assert np.abs(a - a.T).max() < 1e-12 * np.abs(a).max()
    ev = tridiagonal_eigenvalues(op.stiff_diag, op.stiff_off, op.mass, op.mass.size)
    assert ev.min() > -1e-8
    assert np.linalg.eigvalsh(a).min() > -1e-8


def test_jacobi_against_bisection():
    # the dense symmetric eigensolver cross-checks the Sturm-count and Newton path
    op = discretize(60)
    dense = np.linalg.eigvalsh(ref.reduced_dense(op.stiff_diag, op.stiff_off, op.mass))
    tri = tridiagonal_eigenvalues(op.stiff_diag, op.stiff_off, op.mass, op.mass.size)
    assert np.abs(np.sort(dense) - np.sort(tri)).max() < 1e-9


def _solve(diag, off, rhs):
    """One backward-Euler step of the kernel with unit mass: the solve of (diag, off) x = rhs."""
    return implicit_steps(diag, off, np.ones(len(diag)), rhs, 1)


def _blocks(diag, off):
    """The number of row blocks the kernel cuts each row of its state into, with unit mass.

    A matrix equal to its reversal is stepped as its two halves, which share
    one block length.
    """
    halves = eigensolve._fold(diag, off, np.ones(diag.size))
    mults = [eigensolve._eliminate(list(d), list(o))[1] for d, o, _ in halves]
    return -(-halves[0][0].size // eigensolve._block_length(mults))


def test_thomas_solve():
    rng = np.random.default_rng(0)
    n = 50
    diag = 4.0 + rng.uniform(size=n)
    off = rng.uniform(size=n - 1)
    x_true = rng.normal(size=n)
    a = ref.dense(diag, off)
    for _ in range(3):
        x = _solve(diag, off, (a @ x_true).tolist())
        assert np.abs(x - x_true).max() < 1e-10
        x_true = rng.normal(size=n)


def test_thomas_scan_matches_dense_solve_on_heat_matrix():
    # the backward-Euler matrix M + ds K; its weights span about 16 orders of magnitude
    op, diag, off = _heat_matrix(1600, 400)
    xs = op.grid[1:-1]
    a = ref.dense(diag, off)
    quartic = np.polynomial.polynomial.polyval(xs, [0.3, -1.0, 0.5, 0.2, -0.1])
    for u in (np.ones_like(xs), xs**2, quartic):
        rhs = op.mass * u
        got = _solve(diag, off, rhs)
        want = np.linalg.solve(a, rhs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thomas_scan_small_orders(n):
    # orders 1, 2 and 3 run the scans as one block of n rows
    diag = np.array([4.0, 5.0, 3.0])[:n]
    off = np.array([1.0, -2.0])[: n - 1]
    rhs = np.array([1.0, -2.0, 0.5])[:n]
    assert _blocks(diag, off) == 1
    got = _solve(diag, off, rhs)
    want = np.linalg.solve(ref.dense(diag, off), rhs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _heat_matrix(n_grid, n_steps):
    op = discretize(n_grid)
    ds = 1.0 / n_steps
    return op, op.mass + ds * op.stiff_diag, ds * op.stiff_off


def test_thomas_scan_in_many_blocks_matches_dense_solve():
    # at ds = 1/20000 the multipliers are small: the running products leave
    # 2^-500 within about a hundred rows, so the rows split into many blocks
    op, diag, off = _heat_matrix(800, 20000)
    assert _blocks(diag, off) >= 3
    xs = op.grid[1:-1]
    a = ref.dense(diag, off)
    quartic = np.polynomial.polynomial.polyval(xs, [0.3, -1.0, 0.5, 0.2, -0.1])
    for u in (np.ones_like(xs), xs**2, quartic):
        rhs = op.mass * u
        got = _solve(diag, off, rhs)
        want = np.linalg.solve(a, rhs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("n_grid,n_steps", [(800, 20000), (1600, 400)])
def test_steps_match_successive_dense_solves(n_grid, n_steps):
    # k steps carry the state between steps in summation-factor scale; the
    # result is that of k solves of M + ds K, each on M times the last.  The
    # halves of the persymmetric M + ds K take 4 blocks each at ds = 1/20000,
    # and fit one at (1600, 400), where the whole matrix took 2
    op, diag, off = _heat_matrix(n_grid, n_steps)
    assert _blocks(diag, off) == (4 if n_steps == 20000 else 1)
    xs = op.grid[1:-1]
    a = ref.dense(diag, off)
    u0 = np.polynomial.polynomial.polyval(xs, [0.3, -1.0, 0.5, 0.2, -0.1])
    want = u0
    for k in range(1, 6):
        want = np.linalg.solve(a, op.mass * want)
        got = implicit_steps(diag, off, op.mass, u0, k)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


_DATA = {
    "even": [1.0, 0.0, -0.5, 0.0, 0.1],
    "odd": [0.0, -1.0, 0.0, 1.0],
    "general": [0.3, -1.0, 0.5, 0.2, -0.1],
}


@pytest.mark.parametrize("datum", _DATA)
@pytest.mark.parametrize("n_grid,n_steps", [(800, 200), (801, 200), (800, 20000), (801, 20000)])
def test_folded_steps_match_successive_dense_solves(n_grid, n_steps, datum, monkeypatch):
    # N = 800 leaves an odd order, folded at a centre node, and N = 801 an even
    # one, at a centre pair.  An even or odd datum steps one half, and each node
    # matches the dense solves to 1e-12 of its value; an odd datum vanishes at a
    # centre node exactly, where the dense solves leave rounding.  A general
    # datum steps both halves and adds them back, which cancels where a node is
    # small and its mirror large: each node matches to 1e-12 of the larger of
    # the pair (at (800, 200) the node x = 1.29 of step 4, -9.3e-5, is 2.3e-12
    # off relative to its own value)
    op, diag, off = _heat_matrix(n_grid, n_steps)
    xs = op.grid[1:-1]
    n = xs.size
    a = ref.dense(diag, off)
    u0 = np.polynomial.polynomial.polyval(xs, _DATA[datum])
    nodes = np.ones(n, dtype=bool)
    if datum == "odd" and n % 2:
        nodes[n // 2] = False
    carries = []
    carry = eigensolve._carry
    monkeypatch.setattr(eigensolve, "_carry", lambda *args: carries.append(args) or carry(*args))
    want = u0
    for k in range(1, 6):
        want = np.linalg.solve(a, op.mass * want)
        got = implicit_steps(diag, off, op.mass, u0, k)
        scale = np.abs(want)
        if datum == "general":
            scale = np.maximum(scale, scale[::-1])
        assert np.all(np.abs(got - want)[nodes] <= 1e-12 * scale[nodes])
        assert np.all(got[~nodes] == 0.0)
    # at ds = 1/20000 each half still takes several blocks and carries between them
    assert bool(carries) == (n_steps == 20000)


def _stepped_rows(monkeypatch, diag, off, mass, u0):
    """The rows `_eliminate` eliminates and the padded rows of each state row stepped, in one run."""
    eliminated, stepped = [], []
    eliminate, factors = eigensolve._eliminate, eigensolve._summation_factors
    monkeypatch.setattr(eigensolve, "_eliminate", lambda d, o: eliminated.append(len(d)) or eliminate(d, o))
    # two summation factors, forward and back, per row of the state
    monkeypatch.setattr(
        eigensolve, "_summation_factors", lambda mult, length: stepped.append(mult.size) or factors(mult, length)
    )
    implicit_steps(diag, off, mass, u0, 3)
    return eliminated, stepped[::2]


@pytest.mark.parametrize("n_grid", [800, 801])
def test_only_the_nonzero_halves_are_stepped(n_grid, monkeypatch):
    # both halves are eliminated, so a singular one is refused whatever the datum;
    # a half whose datum is exactly zero gets no row of the state
    op, diag, off = _heat_matrix(n_grid, 200)
    n = diag.size
    xs = op.grid[1:-1]
    for datum, rows in (("even", [(n + 1) // 2]), ("odd", [n // 2]), ("general", [(n + 1) // 2] * 2)):
        u0 = np.polynomial.polynomial.polyval(xs, _DATA[datum])
        eliminated, stepped = _stepped_rows(monkeypatch, diag, off, op.mass, u0)
        assert eliminated == [(n + 1) // 2, n // 2]
        assert stepped == rows
    # a zero datum steps the even half, to zero
    assert _stepped_rows(monkeypatch, diag, off, op.mass, np.zeros(n))[1] == [(n + 1) // 2]
    assert not implicit_steps(diag, off, op.mass, np.zeros(n), 3).any()


def test_a_matrix_that_is_not_its_reversal_is_stepped_whole(monkeypatch):
    op, diag, off = _heat_matrix(800, 200)
    n = diag.size
    u0 = op.grid[1:-1] ** 2
    perturbed = diag.copy()
    perturbed[3] *= 1.0 + 1e-15
    assert _stepped_rows(monkeypatch, perturbed, off, op.mass, u0) == ([n], [n])
    want = u0
    a = ref.dense(perturbed, off)
    for _ in range(3):
        want = np.linalg.solve(a, op.mass * want)
    got = implicit_steps(perturbed, off, op.mass, u0, 3)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # so is one whose mass alone is not
    mass = op.mass.copy()
    mass[-1] *= 2.0
    assert _stepped_rows(monkeypatch, diag, off, mass, u0)[1] == [n]


def test_steps_of_an_even_datum_are_exactly_even():
    op, diag, off = _heat_matrix(801, 200)
    got = implicit_steps(diag, off, op.mass, op.grid[1:-1] ** 2, 20)
    assert np.array_equal(got, got[::-1])


@pytest.mark.parametrize("n_grid,n_steps", [(800, 200), (800, 20000)])
def test_thomas_scan_scales_exactly_by_powers_of_two(n_grid, n_steps):
    # r 2^900 overflows r / Q; the step is done again on r scaled down by a
    # power of two, so the result is the unscaled one times 2^900 bit for bit
    op, diag, off = _heat_matrix(n_grid, n_steps)
    rhs = op.mass * np.random.default_rng(3).normal(size=diag.size)
    big = _solve(diag, off, rhs * 2.0**900)
    assert np.array_equal(big, _solve(diag, off, rhs) * 2.0**900)
    # a spike on the first row overflows only the back recurrence's last sums; its
    # solution decays into subnormal floats, which a scaled step rounds differently
    spike = np.eye(1, diag.size)[0]
    plain, big = _solve(diag, off, spike), _solve(diag, off, spike * 2.0**900)
    normal = np.abs(plain) >= np.finfo(float).tiny
    assert np.array_equal(big[normal], plain[normal] * 2.0**900)


@pytest.mark.parametrize("n_grid,n_steps", [(800, 200), (801, 200), (1600, 400)])
def test_steps_from_a_scaled_start_scale_exactly(n_grid, n_steps, monkeypatch):
    # u0 2^900 overflows the first step's sums, which it takes again on the
    # state scaled down by a power of two; the later steps run at that scale
    # and the result is scaled back, so it is the plain run's times 2^900.
    # A general datum steps both halves, and one rescale serves both
    op, diag, off = _heat_matrix(n_grid, n_steps)
    u0 = np.random.default_rng(4).normal(size=diag.size)
    plain = implicit_steps(diag, off, op.mass, u0, 50)
    rescales = []
    frexp = eigensolve.math.frexp
    monkeypatch.setattr(eigensolve.math, "frexp", lambda x: rescales.append(x) or frexp(x))
    big = implicit_steps(diag, off, op.mass, u0 * 2.0**900, 50)
    assert len(rescales) == 1
    assert np.array_equal(big, plain * 2.0**900)


def test_thomas_scan_zero_off_diagonal():
    # a zero multiplier decouples the rows; every block is then one row
    diag = np.array([4.0, 5.0, 3.0, 6.0, 2.0])
    off = np.array([1.0, 0.0, -2.0, 1.0])
    rhs = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    assert _blocks(diag, off) == 5
    got = _solve(diag, off, rhs)
    want = np.linalg.solve(ref.dense(diag, off), rhs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_thomas_scan_non_dominant_multipliers():
    # L D L^T with D = 1 and multipliers alternating 4 and 1/8: |c| > 1 on
    # every other row, while each pair of rows halves the running product
    n = 1000
    c = np.where(np.arange(n - 1) % 2 == 0, 4.0, 0.125)
    diag = np.concatenate(([1.0], 1.0 + c * c))
    assert _blocks(diag, c) >= 2
    x_true = np.random.default_rng(5).normal(size=n)
    rhs = ref.dense(diag, c) @ x_true
    got = _solve(diag, c, rhs)
    assert np.abs(got - x_true).max() <= 1e-12 * np.abs(x_true).max()


def test_thomas_order_one_and_zero_pivot():
    assert _solve(np.array([2.0]), np.array([]), [3.0]) == [1.5]
    with pytest.raises(NumericError):
        _solve(np.array([0.0, 1.0]), np.array([1.0]), [1.0, 1.0])
    with pytest.raises(NumericError):
        _solve(np.array([1.0, 1.0]), np.array([1.0]), [1.0, 1.0])


@pytest.mark.parametrize("n", [17, 800, 801, 1600, 3200])
def test_oracle_bit_equal_to_element_loop(n):
    # N = 17 and 801 have an even number of interior nodes, whose blocks fold the centre pair's coupling
    k = min(6, n // 4)
    for shift in (0.0, 0.5):
        got = oracle_spectrum_1d(N=n, k_eigs=k, shift=shift)
        want = ref.oracle_spectrum_1d(N=n, k_eigs=k, shift=shift)
        assert np.array_equal(got, want)


def test_oracle_ladder_converges_through_3200():
    # the eigenvalues converge to rounding, so the grid error keeps falling past N = 1600
    target = np.arange(5) / 2.0
    errs = [np.abs(oracle_spectrum_1d(N=n, k_eigs=5) - target).max() for n in (800, 1600, 3200)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("n", [16, 17, 800, 801])
def test_operator_is_exactly_persymmetric(n):
    # the grid is antisymmetric bit for bit, so the stiffness, the mass and the shifted stiffness are persymmetric
    op = discretize(n)
    assert np.array_equal(op.grid, -op.grid[::-1])
    for entries in (op.stiff_diag, op.stiff_off, op.mass, op.stiff_diag + 0.5 * op.mass):
        assert np.array_equal(entries, entries[::-1])


def test_oracle_matches_dense_eigensolver_to_rounding():
    # N = 400 leaves an odd order, folded at a centre node; N = 401 an even one, at a centre pair
    for n in (400, 401):
        op = discretize(n)
        want = np.linalg.eigvalsh(ref.reduced_dense(op.stiff_diag, op.stiff_off, op.mass))[:6]
        assert np.abs(tridiagonal_eigenvalues(op.stiff_diag, op.stiff_off, op.mass, 6) - want).max() < 1e-12


def test_folded_eigenvalue_does_not_depend_on_k():
    op = discretize(800)
    pencil = (op.stiff_diag, op.stiff_off, op.mass)
    assert np.array_equal(tridiagonal_eigenvalues(*pencil, 3), tridiagonal_eigenvalues(*pencil, 6)[:3])


@pytest.mark.parametrize("n", [15, 16, 801, 800])
def test_random_persymmetric_pencils_match_the_dense_reduction(n):
    # a real mass folds with the stiffness: an odd order's centre row halves its diagonal entry and
    # its mass alike, and both halves take the Gershgorin bounds of the whole pencil
    rng = np.random.default_rng(n)
    half_diag = rng.normal(size=(n + 1) // 2)
    half_off = rng.normal(size=n // 2)
    half_mass = rng.uniform(0.1, 10.0, size=(n + 1) // 2)
    diag = np.concatenate((half_diag, half_diag[: n // 2][::-1]))
    off = np.concatenate((half_off, half_off[: (n - 1) // 2][::-1]))
    mass = np.concatenate((half_mass, half_mass[: n // 2][::-1]))
    assert len(eigensolve._fold(diag, off, mass)) == 2
    reduced = ref.reduced_dense(diag, off, mass)
    want = np.linalg.eigvalsh(reduced)
    tol = 1e-12 * _span(np.diag(reduced), np.diag(reduced, 1))
    for k in range(1, n + 1) if n < 100 else (1, 2, 7, 12):
        assert np.abs(tridiagonal_eigenvalues(diag, off, mass, k) - want[:k]).max() <= tol


def test_passes_per_call(monkeypatch):
    # Sturm counts isolate each eigenvalue and Newton passes refine it, each on one folded block
    rows = {"_sturm_count": 0, "_newton_pass": 0}
    for name in rows:
        inner = getattr(eigensolve, name)

        def counted(diag, e2, x, inner=inner, name=name):
            rows[name] += len(diag)
            return inner(diag, e2, x)

        monkeypatch.setattr(eigensolve, name, counted)
    op = discretize(3200)
    tridiagonal_eigenvalues(op.stiff_diag, op.stiff_off, op.mass, 6)
    assert rows["_newton_pass"] > 0
    # interpolating the count leaves the Gershgorin top in a few passes: 17,595 Sturm
    # rows (11 passes on the 1,600-row blocks) and 71,980 rows in all; bisecting down
    # from the top took 57,583 and 116,765
    assert rows["_sturm_count"] <= 12 * 1600
    assert rows["_sturm_count"] + rows["_newton_pass"] <= 75_000


def test_stall_guard_raises(monkeypatch):
    monkeypatch.setattr(eigensolve, "MAX_BISECTIONS", 3)
    op = discretize(400)
    with pytest.raises(NumericError, match="did not converge in 3 passes"):
        tridiagonal_eigenvalues(op.stiff_diag, op.stiff_off, op.mass, 1)


def test_a_multiple_eigenvalue_costs_at_most_twice_the_bisections(monkeypatch):
    # 333 uncoupled blocks [[1000, 700, 0], [700, 1000, 700], [0, 700, 1000]], the
    # first coupled by 699 so that the matrix is not its reversal: 1000 - 700 sqrt(2)
    # is a 332-fold eigenvalue, and no bracket isolates it.  Interpolating the
    # count alone creeps up from the Gershgorin end, -400, and stalls; a bisection
    # every other pass halves the bracket down to its width floor in 104 passes
    off = np.tile([700.0, 700.0, 0.0], 333)[:-1]
    off[0] = 699.0
    diag = np.full(999, 1000.0)
    passes = []
    count = eigensolve._sturm_count
    monkeypatch.setattr(eigensolve, "_sturm_count", lambda *args: passes.append(args[2]) or count(*args))
    got = tridiagonal_eigenvalues(diag, off, np.ones(999), 1)
    assert abs(got[0] - (1000.0 - 700.0 * np.sqrt(2.0))) <= 1e-12 * _span(diag, off)
    assert len(passes) <= 2 * 53 < eigensolve.MAX_BISECTIONS


def _span(diag, off):
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return max(float(np.max(diag + radius) - np.min(diag - radius)), 1.0)


def test_exact_multiplicities():
    # no bracket isolates a triple eigenvalue: each returns its midpoint at the width floor
    diag = np.array([1.0, 1.0, 1.0, 2.0])
    got = tridiagonal_eigenvalues(diag, np.zeros(3), np.ones(4), 4)
    assert np.abs(got - [1.0, 1.0, 1.0, 2.0]).max() <= 1e-12
    # three uncoupled copies of one block: every eigenvalue is triple
    rng = np.random.default_rng(11)
    block_diag, block_off = rng.normal(size=5), rng.normal(size=4)
    diag = np.tile(block_diag, 3)
    off = np.concatenate((block_off, [0.0], block_off, [0.0], block_off))
    want = np.repeat(np.linalg.eigvalsh(ref.dense(block_diag, block_off)), 3)
    assert np.abs(tridiagonal_eigenvalues(diag, off, np.ones(15), 15) - want).max() <= 1e-12 * _span(diag, off)


def test_zero_centre_coupling_returns_each_shared_eigenvalue_twice():
    # with the centre pair uncoupled both blocks are the same matrix
    rng = np.random.default_rng(13)
    half_diag, half_off = rng.normal(size=6), rng.normal(size=5)
    diag = np.concatenate((half_diag, half_diag[::-1]))
    off = np.concatenate((half_off, [0.0], half_off[::-1]))
    want = np.repeat(np.linalg.eigvalsh(ref.dense(half_diag, half_off)), 2)
    tol = 1e-12 * _span(diag, off)
    for k in range(1, 13):
        assert np.abs(tridiagonal_eigenvalues(diag, off, np.ones(12), k) - want[:k]).max() <= tol


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
            assert np.abs(tridiagonal_eigenvalues(diag, off, np.ones(n), k) - want[:k]).max() <= tol


def test_wilkinson_matrix_every_k():
    # W21+ has pairs of eigenvalues that agree to about 1e-14 and more; it is persymmetric, so it is folded
    diag = np.abs(np.arange(-10.0, 11.0))
    off = np.ones(20)
    want = np.linalg.eigvalsh(ref.dense(diag, off))
    tol = 1e-12 * _span(diag, off)
    for k in range(1, 22):
        assert np.abs(tridiagonal_eigenvalues(diag, off, np.ones(21), k) - want[:k]).max() <= tol


def test_random_tridiagonals_every_eigenvalue():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 51))
        diag = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        off = rng.normal(size=n - 1) * 10.0 ** rng.integers(-3, 4)
        # some off-diagonals vanish, splitting the matrix into blocks with shared eigenvalues
        off[rng.random(n - 1) < 0.2] = 0.0
        want = np.linalg.eigvalsh(ref.dense(diag, off))
        got = tridiagonal_eigenvalues(diag, off, np.ones(n), n)
        assert np.abs(got - want).max() <= 1e-12 * _span(diag, off)
        # eigenvalue j does not depend on how many are asked for
        k = int(rng.integers(1, n + 1))
        assert np.array_equal(tridiagonal_eigenvalues(diag, off, np.ones(n), k), got[:k])


def test_shifted_operator():
    ev = oracle_spectrum_1d(N=400, k_eigs=3, shift=0.5)
    assert np.allclose(ev, [0.5, 1.0, 1.5], atol=1e-5)


def test_validation_errors():
    with pytest.raises(NumericError):
        oracle_spectrum_1d(N=800, k_eigs=400)
    with pytest.raises(NumericError):
        discretize(8)


def test_every_grid_builds_finite_entries():
    # at X = 12 the weight is about 2e-16 at the ends: from the least grid to the
    # largest heat grid no entry overflows, underflows to zero or warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (16, 17, 800, 801, HEAT_GRID_LIMIT):
            op = discretize(n)
            for entries in (op.stiff_diag, op.stiff_off):
                assert np.all(np.isfinite(entries)) and np.all(entries != 0)
            assert np.all(op.mass > 0)


@pytest.mark.parametrize("which,index", [("diagonal", 0), ("diagonal", 3), ("off-diagonal", 1)])
def test_tridiagonal_refuses_non_finite_entry(which, index):
    diag, off = np.full(5, 2.0), np.full(4, -1.0)
    entries = diag if which == "diagonal" else off
    for bad in (np.nan, np.inf):
        entries[index] = bad
        with pytest.raises(NumericError, match=f"^{which} entry {index} is {bad}, not finite"):
            tridiagonal_eigenvalues(diag, off, np.ones(5), 2)


@pytest.mark.parametrize("sizes", [(4, 5, 5), (3, 4, 5), (3, 5, 4), (3, 5, 6)])
def test_steps_refuse_mismatched_sizes(sizes):
    # a persymmetric matrix folds u0 by its own length: a longer or shorter one is refused, not folded
    off, mass, u0 = (np.ones(size) for size in sizes)
    message = "u0 has size 5, expected 4"
    if sizes[:2] != (3, 4):
        message = f"sizes {sizes[0]} and {sizes[1]}; expected 3 and 4"
    with pytest.raises(NumericError, match=message):
        implicit_steps(np.full(4, 4.0), off, mass, u0, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_kernels_refuse_a_mass_entry_that_is_not_finite_and_positive(bad, monkeypatch):
    def no_pass(*args):
        raise AssertionError("the pencil was factored")

    for name in ("_eliminate", "_sturm_count", "_newton_pass"):
        monkeypatch.setattr(eigensolve, name, no_pass)
    op = discretize(20)
    mass = op.mass.copy()
    mass[2] = mass[-3] = bad
    message = f"^mass entry 2 is {bad}, not " + ("finite" if np.isnan(bad) or np.isinf(bad) else "positive")
    with pytest.raises(NumericError, match=message):
        tridiagonal_eigenvalues(op.stiff_diag, op.stiff_off, mass, 2)
    with pytest.raises(NumericError, match=message):
        implicit_steps(op.mass + op.stiff_diag, op.stiff_off, mass, np.ones(mass.size), 1)


@pytest.mark.parametrize("steps", [0, -1])
def test_steps_refuse_a_step_count_below_1(steps, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("the matrix was eliminated")

    monkeypatch.setattr(eigensolve, "_eliminate", no_elimination)
    op = discretize(20)
    with pytest.raises(NumericError, match=f"steps must be at least 1, got {steps}"):
        implicit_steps(op.mass + op.stiff_diag, op.stiff_off, op.mass, np.ones(op.mass.size), steps)


@pytest.mark.parametrize("index", [0, 2])
def test_thomas_factor_refuses_nan_off_diagonal_entry(index):
    diag, off = np.full(4, 4.0), np.full(3, 1.0)
    off[index] = np.nan
    with pytest.raises(NumericError, match=f"^off-diagonal entry {index} is nan, not finite"):
        _solve(diag, off, np.ones(4))
