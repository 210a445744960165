"""Drift heat flow on the flat line: eigen-expansion and a time-stepping oracle.

The weight e^{-x^2/4} has a monic polynomial eigenbasis p_k (p_0 = 1,
p_1 = x, p_{k+1} = x p_k - 2k p_{k-1}) with  p_k'' - (x/2) p_k' = -(k/2) p_k
and squared norm 2^{k+1} k! sqrt(pi).  Eigenvalues are half-integers, so, as in
spectral catalogs, a series is one row indexed by k = 2 lambda and the eternal
transform keys its components by 2 lambda.  Each call builds p_0..p_K in one
run of the recurrence, which stops at its first non-finite row, p_266.  Initial
data are polynomials, so their expansion in this basis is finite and exact.
Series solutions evolve entry k by e^{-k s / 2}; the backward-Euler oracle
instead steps the stiffness K and lumped mass M that oracle1d.discretize builds
on [-12, 12], with no symmetric reduction, and is compared against the series
in the weighted L^2 norm.  A run is one call of eigensolve.implicit_steps.
M + ds K equals its own reversal, so it folds the datum into its even and
odd parts and steps each nonzero one on its half of the rows; it eliminates
each half once and takes each step as two cumulative sums on a state kept in
summation-factor scale, equal to a fresh per-step elimination to rounding.
A run is refused before its grid is built when its grid or its
row-steps exceed HEAT_GRID_LIMIT or HEAT_WORK_LIMIT.

Heat polynomials (polynomial solutions of the plain heat equation) transform
to eternal drift-heat solutions through the soliton flow x -> x e^{-s/2},
t -> -e^{-s}; the transform and its inverse are implemented exactly on
coefficients, so residuals vanish identically for dyadic inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError
from .oracle1d import discretize, flat_weight
from .eigensolve import implicit_steps

# -- the monic eigenbasis ------------------------------------------------------


def monic_basis(K: int) -> list[np.ndarray]:
    """Ascending coefficients of p_0..p_K, from one run of the recurrence.

    Raises NumericError at the first row with a non-finite coefficient, p_266.
    """
    basis = [np.array([1.0]), np.array([0.0, 1.0])]
    with np.errstate(over="ignore"):
        for j in range(1, K):
            p = np.zeros(j + 2)
            p[1:] = basis[j]
            p[:j] -= 2.0 * j * basis[j - 1]
            if not np.isfinite(p).all():
                raise NumericError(f"basis polynomial p_{j + 1} overflows a float")
            basis.append(p)
    return basis[: K + 1]


def hermite_norm_sq(k: int) -> float:
    """Squared L^2(e^{-x^2/4} dx) norm of the k-th monic eigenpolynomial."""
    return 2.0 ** (k + 1) * math.factorial(k) * math.sqrt(math.pi)


def drift_apply_1d(coeffs: np.ndarray) -> np.ndarray:
    """Apply u -> u'' - (x/2) u' on ascending polynomial coefficients."""
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(2, c.size)
    # (c_k k)(k - 1), rounded twice in the order numpy's polyder takes
    second = c[2:] * k * (k - 1) if c.size > 2 else np.zeros(1)
    euler = 0.5 * c * np.arange(c.size)
    out = np.zeros(max(second.size, euler.size))
    out[: second.size] += second
    out[: euler.size] -= euler
    return out


# -- series solutions ----------------------------------------------------------


@dataclass
class HeatSolution:
    """Finite eigen-expansion sum_k a_k e^{-k s/2} p_k(x); `coefficients` is the row of the a_k."""

    coefficients: np.ndarray

    def terms(self) -> list[tuple[int, float]]:
        """The nonzero entries (k, a_k), k descending: the order every sum over the series takes."""
        return [(k, a) for k, a in reversed(list(enumerate(self.coefficients))) if a != 0.0]

    def norm_sq(self, s: float = 0.0) -> float:
        """sum_k a_k^2 e^{-k s} |p_k|^2, the squared weighted L^2 norm at drift-time s.

        From k = 171 on k! passes the float range, so those terms are taken in
        logs, and one past the float range raises NumericError naming k.
        """
        return sum(_norm_term(k, a, s) for k, a in self.terms())


def _norm_term(k: int, a: float, s: float) -> float:
    if k <= 170:
        return a * a * math.exp(-k * s) * hermite_norm_sq(k)
    log_norm_sq = (k + 1) * math.log(2.0) + math.lgamma(k + 1) + 0.5 * math.log(math.pi)
    try:
        return math.exp(2.0 * math.log(abs(a)) - k * s + log_norm_sq)
    except OverflowError:
        raise NumericError(f"the squared norm's term k={k} is past the float range") from None


def project_to_eigenbasis(u0: np.ndarray) -> HeatSolution:
    """Expand polynomial initial data (ascending coefficients) in the eigenbasis.

    The reduction runs top-down against the monic basis and is exact: the
    leading coefficient of the remainder is the weight of its top basis
    polynomial; remainder entries below 1e-300 are left at weight 0.  Raises
    NumericError when the basis up to the data's length overflows.
    """
    rem = np.array(u0, dtype=float)
    basis = monic_basis(rem.size - 1)
    coeffs = np.zeros(rem.size)
    for k in range(rem.size - 1, -1, -1):
        a = rem[k]
        if abs(a) < 1e-300:
            continue
        coeffs[k] = a
        rem[: k + 1] -= a * basis[k]
    return HeatSolution(coefficients=coeffs)


def evolve_series(sol: HeatSolution, s: float, x) -> np.ndarray | float:
    """Evaluate the series solution at drift-time s and positions x."""
    xs = np.asarray(x, dtype=float)
    acc = np.zeros_like(xs, dtype=float)
    basis = monic_basis(len(sol.coefficients) - 1)
    for k, a in sol.terms():
        acc = acc + a * math.exp(-(k / 2) * s) * np.polyval(basis[k][::-1], xs)
    if acc.ndim == 0:
        return float(acc)
    return acc


# -- time-stepping oracle --------------------------------------------------------

# Bound on the row-steps `require_heat_work` counts.  On a 2-core VM a
# backward-Euler step costs about 5 us of numpy calls plus 8 ns per grid row,
# up to 15 us more for the carries of several row blocks, so the estimate
# charges every step _STEP_ROWS rows on top of its grid.  Near the bound the
# slowest accepted runs, grids of 400 to 800 with 35,700 to 27,700 steps, take
# 0.9-1.3 s at a 31 MB peak from the command line, and N_grid = HEAT_GRID_LIMIT
# with 495 steps 0.6-0.9 s at 55 MB.  The largest run in use, (1600, 400)
# extrapolated, needs 1,560,000.
HEAT_WORK_LIMIT = 50_000_000
_STEP_ROWS = 1_000
# Bound on N_grid: discretize and implicit_steps hold arrays and Python lists of N_grid floats.
HEAT_GRID_LIMIT = 100_000


def require_heat_work(N_grid: int, N_steps: int, extrapolate: bool) -> None:
    """Raise NumericError when N_grid exceeds HEAT_GRID_LIMIT or the run's row-steps exceed HEAT_WORK_LIMIT.

    The row-steps are (N_grid + _STEP_ROWS) per step, over 3/2 as many steps
    when extrapolating.
    """
    if N_grid > HEAT_GRID_LIMIT:
        raise NumericError(f"grid of {N_grid:,} intervals is over the limit of {HEAT_GRID_LIMIT:,}")
    work = (N_grid + _STEP_ROWS) * N_steps * (1.5 if extrapolate else 1.0)
    if work > HEAT_WORK_LIMIT:
        raise NumericError(
            f"{N_steps:,} steps on a grid of {N_grid:,} need about {work:.3g} row-steps, "
            f"over the limit of {HEAT_WORK_LIMIT:,}"
        )


def timestep_oracle(
    u0: Callable[[np.ndarray], np.ndarray],
    s0: float,
    s1: float,
    N_grid: int = 800,
    N_steps: int = 200,
    extrapolate: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-Euler evolution of the discretized drift heat equation.

    The initial data u0 is a function, evaluated on the interior grid.
    Returns the full grid and the solution samples at s1 (Dirichlet zeros at
    the truncation boundary).  extrapolate=True combines runs at N_steps and
    N_steps/2 to cancel the leading first-order time error while every
    individual step remains an implicit backward step.  Raises NumericError,
    before the grid is built, when `require_heat_work` refuses the run.
    """
    if s1 <= s0:
        raise DomainError(f"need s1 > s0, got [{s0}, {s1}]")
    require_heat_work(N_grid, N_steps, extrapolate)
    op = discretize(N_grid)
    x = op.grid
    vals0 = np.asarray(u0(x[1:-1]), dtype=float)

    def run(steps: int) -> np.ndarray:
        ds = (s1 - s0) / steps
        return implicit_steps(op.mass + ds * op.stiff_diag, ds * op.stiff_off, op.mass, vals0, steps)

    u = run(N_steps)
    if extrapolate:
        u = 2.0 * u - run(max(N_steps // 2, 1))
    full = np.zeros_like(x)
    full[1:-1] = u
    return x, full


def weighted_l2_distance(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Discrete L^2(e^{-x^2/4}) distance between two functions on the uniform grid x."""
    h = x[1] - x[0]
    w = h * flat_weight(x)
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(math.sqrt(np.sum(w * diff * diff)))


# -- heat polynomials and the soliton-time transform -----------------------------


@dataclass(frozen=True)
class HeatPolynomial:
    """Polynomial u(x, t) stored as {(j, k): coeff} for x^j t^k."""

    terms: dict[tuple[int, int], float]

    @staticmethod
    def of_degree(d: int) -> "HeatPolynomial":
        """The standard caloric polynomial of parabolic degree d."""
        terms = {}
        for k in range(d // 2 + 1):
            terms[(d - 2 * k, k)] = math.factorial(d) / (
                math.factorial(d - 2 * k) * math.factorial(k)
            )
        return HeatPolynomial(terms)

    def caloric_residual(self) -> float:
        """Max coefficient of d_t u - d_x^2 u; zero iff u solves the heat equation."""
        res: dict[tuple[int, int], float] = {}
        for (j, k), c in self.terms.items():
            if k >= 1:
                key = (j, k - 1)
                res[key] = res.get(key, 0.0) + c * k
            if j >= 2:
                key = (j - 2, k)
                res[key] = res.get(key, 0.0) - c * j * (j - 1)
        return max((abs(v) for v in res.values()), default=0.0)


def transform_to_eternal(u: HeatPolynomial) -> dict[int, np.ndarray]:
    """Pull an ancient caloric polynomial back along the soliton flow.

    Substituting x -> x e^{-s/2}, t -> -e^{-s} groups the terms by decay rate
    lambda = j/2 + k; the result maps 2 lambda = j + 2k to the 2 lambda + 1
    ascending x-coefficients of the e^{-lambda s} component.
    """
    parts: dict[int, np.ndarray] = {}
    for (j, k), c in u.terms.items():
        arr = parts.get(j + 2 * k)
        if arr is None:
            arr = parts[j + 2 * k] = np.zeros(j + 2 * k + 1)
        arr[j] += c * (-1.0) ** k
    return {two_lam: arr for two_lam, arr in parts.items() if np.any(arr != 0.0)}


def eternal_to_caloric(parts: dict[int, np.ndarray]) -> HeatPolynomial:
    """Inverse of transform_to_eternal; x^j at 2 lambda needs 2 lambda - j = 2k with k >= 0."""
    terms: dict[tuple[int, int], float] = {}
    for two_lam, arr in parts.items():
        for j, c in enumerate(arr):
            if c == 0.0:
                continue
            rest = two_lam - j
            if rest < 0 or rest % 2:
                raise DomainError(f"x^{j} at 2 lambda={two_lam} does not come from a caloric polynomial")
            k = rest // 2
            terms[(j, k)] = terms.get((j, k), 0.0) + c * (-1.0) ** k
    return HeatPolynomial(terms)


def ancient_transform_check(u: HeatPolynomial) -> float:
    """Max residual of the drift heat equation for the transformed solution.

    The input must solve the plain heat equation (checked on coefficients).
    Each decay component must then be a drift eigenfunction; the residual is
    the largest coefficient of that identity over the components, exactly
    zero for dyadic caloric inputs.
    """
    if u.caloric_residual() > 1e-12:
        raise DomainError("input polynomial does not solve the heat equation")
    residuals = (drift_apply_1d(arr) + two_lam / 2 * arr for two_lam, arr in transform_to_eternal(u).items())
    return max((float(np.abs(r).max()) for r in residuals), default=0.0)
