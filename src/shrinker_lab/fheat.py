"""Drift heat flow on the flat line: eigen-expansion and a time-stepping oracle.

The weight e^{-x^2/4} has a monic polynomial eigenbasis p_k (p_0 = 1,
p_1 = x, p_{k+1} = x p_k - 2k p_{k-1}) with  p_k'' - (x/2) p_k' = -(k/2) p_k
and squared norm 2^{k+1} k! sqrt(pi).  Initial data are polynomials, so their
expansion in this basis is finite and exact.  Series solutions evolve each
coefficient by e^{-k s / 2}; the backward-Euler oracle advances the
discretized operator of the oracle1d module instead and is compared against
the series in the weighted L^2 norm.  Its step matrix M + ds K is factored
once per run, and each step is a numpy scan solve (see eigensolve) that
matches a fresh per-step elimination to rounding.

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

from .errors import DomainError
from .oracle1d import discretize, flat_weight
from .eigensolve import thomas_factor, thomas_substitute

# drift times and positions at which ancient_transform_check evaluates its residual
TRANSFORM_S_SAMPLES = (-1.0, 0.0, 0.5, 2.0)
TRANSFORM_X_SAMPLES = np.linspace(-6.0, 6.0, 121)


# -- the monic eigenbasis ------------------------------------------------------


def hermite_monic(k: int) -> np.ndarray:
    """Ascending coefficients of the k-th monic eigenpolynomial."""
    if k < 0:
        raise DomainError("basis index must be nonnegative")
    p_prev = np.array([1.0])
    if k == 0:
        return p_prev
    p = np.array([0.0, 1.0])
    for j in range(1, k):
        p_next = np.zeros(j + 2)
        p_next[1:] = p
        p_next[: j] -= 2.0 * j * p_prev
        p_prev, p = p, p_next
    return p


def hermite_norm_sq(k: int) -> float:
    """Squared L^2(e^{-x^2/4} dx) norm of the k-th monic eigenpolynomial."""
    return 2.0 ** (k + 1) * math.factorial(k) * math.sqrt(math.pi)


def drift_apply_1d(coeffs: np.ndarray) -> np.ndarray:
    """Apply u -> u'' - (x/2) u' on ascending polynomial coefficients."""
    c = np.asarray(coeffs, dtype=float)
    second = np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
    euler = 0.5 * c * np.arange(c.size)
    out = np.zeros(max(second.size, euler.size))
    out[: second.size] += second
    out[: euler.size] -= euler
    return out


# -- series solutions ----------------------------------------------------------


@dataclass
class HeatSolution:
    """Finite eigen-expansion sum_k a_k e^{-k s/2} p_k(x) in the monic basis."""

    coefficients: dict[float, float]

    def norm_sq(self, s: float = 0.0) -> float:
        return sum(
            a * a * math.exp(-2.0 * lam * s) * hermite_norm_sq(round(2 * lam))
            for lam, a in self.coefficients.items()
        )


def project_to_eigenbasis(u0: np.ndarray) -> HeatSolution:
    """Expand polynomial initial data (ascending coefficients) in the eigenbasis.

    The reduction runs top-down against the monic basis and is exact: the
    leading coefficient of the remainder is the weight of its top basis
    polynomial.
    """
    coeffs: dict[float, float] = {}
    rem = np.array(u0, dtype=float)
    for k in range(rem.size - 1, -1, -1):
        a = rem[k]
        if abs(a) < 1e-300:
            continue
        coeffs[k / 2] = a
        pk = hermite_monic(k)
        rem[: pk.size] -= a * pk
    return HeatSolution(coefficients=coeffs)


def evolve_series(sol: HeatSolution, s: float, x) -> np.ndarray | float:
    """Evaluate the series solution at drift-time s and positions x."""
    xs = np.asarray(x, dtype=float)
    acc = np.zeros_like(xs, dtype=float)
    for lam, a in sol.coefficients.items():
        pk = hermite_monic(round(2 * lam))
        acc = acc + a * math.exp(-lam * s) * np.polynomial.polynomial.polyval(xs, pk)
    if acc.ndim == 0:
        return float(acc)
    return acc


# -- time-stepping oracle --------------------------------------------------------


def timestep_oracle(
    u0: Callable[[np.ndarray], np.ndarray],
    s0: float,
    s1: float,
    N_grid: int = 800,
    N_steps: int = 200,
    X: float = 12.0,
    extrapolate: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-Euler evolution of the discretized drift heat equation.

    The initial data u0 is a function, evaluated on the interior grid.
    Returns the full grid and the solution samples at s1 (Dirichlet zeros at
    the truncation boundary).  extrapolate=True combines runs at N_steps and
    N_steps/2 to cancel the leading first-order time error while every
    individual step remains an implicit backward step.
    """
    if s1 <= s0:
        raise DomainError(f"need s1 > s0, got [{s0}, {s1}]")
    op = discretize(X, N_grid)
    x = op.grid
    vals0 = np.asarray(u0(x[1:-1]), dtype=float)

    stiff_diag = op.diag * op.weight  # undo the mass normalization: A = M^{1/2} B M^{1/2}
    stiff_off = op.off * np.sqrt(op.weight[:-1] * op.weight[1:])

    def run(steps: int) -> np.ndarray:
        ds = (s1 - s0) / steps
        # the matrix M + ds K is the same at every step: eliminate it once
        factor = thomas_factor(op.weight + ds * stiff_diag, ds * stiff_off)
        u = vals0
        for _ in range(steps):
            u = thomas_substitute(factor, op.weight * u)
        return u

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


def transform_to_eternal(u: HeatPolynomial) -> dict[float, np.ndarray]:
    """Pull an ancient caloric polynomial back along the soliton flow.

    Substituting x -> x e^{-s/2}, t -> -e^{-s} groups the terms by decay rate
    lambda = j/2 + k; the result maps lambda to the ascending x-coefficients
    of the e^{-lambda s} component.
    """
    parts: dict[float, np.ndarray] = {}
    for (j, k), c in u.terms.items():
        lam = j / 2 + k
        arr = parts.get(lam)
        if arr is None or arr.size < j + 1:
            grown = np.zeros(j + 1)
            if arr is not None:
                grown[: arr.size] = arr
            parts[lam] = arr = grown
        arr[j] += c * (-1.0) ** k
    return {lam: arr for lam, arr in parts.items() if np.any(arr != 0.0)}


def eternal_to_caloric(parts: dict[float, np.ndarray]) -> HeatPolynomial:
    """Inverse of transform_to_eternal; requires half-integer decay rates."""
    terms: dict[tuple[int, int], float] = {}
    for lam, arr in parts.items():
        for j, c in enumerate(arr):
            if c == 0.0:
                continue
            k_exact = lam - j / 2
            k = round(k_exact)
            if abs(k_exact - k) > 1e-12 or k < 0:
                raise DomainError(
                    f"component (lambda={lam}, x^{j}) does not come from a caloric polynomial"
                )
            terms[(j, k)] = terms.get((j, k), 0.0) + c * (-1.0) ** k
    return HeatPolynomial(terms)


def ancient_transform_check(u: HeatPolynomial) -> float:
    """Max residual of the drift heat equation for the transformed solution.

    The input must solve the plain heat equation (checked on coefficients).
    Each decay component must then be a drift eigenfunction; the residual of
    that identity is evaluated at the sample drift times and positions and is
    exactly zero for dyadic caloric inputs.
    """
    if u.caloric_residual() > 1e-12:
        raise DomainError("input polynomial does not solve the heat equation")
    parts = transform_to_eternal(u)
    residual_polys = {lam: drift_apply_1d(arr) + lam * arr for lam, arr in parts.items()}
    worst = 0.0
    xs = TRANSFORM_X_SAMPLES
    for s in TRANSFORM_S_SAMPLES:
        total = np.zeros_like(xs)
        for lam, rp in residual_polys.items():
            total = total + math.exp(-lam * s) * np.polynomial.polynomial.polyval(xs, rp)
        worst = max(worst, float(np.abs(total).max()))
    return worst
