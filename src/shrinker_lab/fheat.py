"""Drift heat flow on the flat line: eigen-expansion and a time-stepping oracle.

The weight e^{-x^2/4} has a monic polynomial eigenbasis p_k (p_0 = 1,
p_1 = x, p_{k+1} = x p_k - 2k p_{k-1}) with  p_k'' - (x/2) p_k' = -(k/2) p_k
and squared norm 2^{k+1} k! sqrt(pi).  Series solutions evolve each
coefficient by e^{-k s / 2}; the backward-Euler oracle advances the
discretized operator instead and is compared against the series in the
weighted L^2 norm.

Heat polynomials (polynomial solutions of the plain heat equation) transform
to eternal drift-heat solutions through the soliton flow x -> x e^{-s/2},
t -> -e^{-s}; the transform and its inverse are implemented exactly on
coefficients, so residuals vanish identically for dyadic inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, TruncationWarning
from .oracle1d import Potential1D, discretize, gaussian_potential
from .eigensolve import thomas_factor, thomas_substitute

TAIL_ENERGY_THRESHOLD = 1e-8


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
    s_domain: tuple[float, float] = (-math.inf, math.inf)
    tail_energy: float = 0.0
    potential: Potential1D = field(default_factory=gaussian_potential)

    def norm_sq(self, s: float = 0.0) -> float:
        return sum(
            a * a * math.exp(-2.0 * lam * s) * hermite_norm_sq(round(2 * lam))
            for lam, a in self.coefficients.items()
        )


def project_to_eigenbasis(
    u0: np.ndarray | Callable[[np.ndarray], np.ndarray],
    lambda_max: float = math.inf,
    potential: Potential1D | None = None,
    X: float = 14.0,
    n_quad: int = 800,
) -> HeatSolution:
    """Expand initial data in the analytic eigenbasis, truncated at lambda_max.

    Polynomial input (ascending coefficients) is reduced exactly top-down
    against the monic basis; sampled input is projected with Gauss-Legendre
    quadrature inner products against the weight.  Tail energy beyond the
    truncation is reported and warned about above the reporting threshold.
    """
    if potential is None:
        potential = gaussian_potential()
    if potential.label != "gaussian":
        raise DomainError("the analytic eigenbasis is available for the flat-line weight only")
    coeffs: dict[float, float] = {}
    tail = 0.0
    if callable(u0):
        x, w = np.polynomial.legendre.leggauss(n_quad)
        x = X * x
        w = X * w * potential.weight(x)
        vals = np.asarray(u0(x), dtype=float)
        total = float(np.sum(w * vals * vals))
        k = 0
        captured = 0.0
        # basis cap: beyond k ~ 80 the squared norms overflow doubles and the
        # quadrature grid stops resolving the polynomials anyway
        while k / 2 <= lambda_max and k <= 80:
            pk = np.polynomial.polynomial.polyval(x, hermite_monic(k))
            a = float(np.sum(w * vals * pk)) / hermite_norm_sq(k)
            if abs(a) > 1e-13 * max(1.0, abs(vals).max()):
                coeffs[k / 2] = a
            captured += a * a * hermite_norm_sq(k)
            k += 1
        tail = max(total - captured, 0.0)
    else:
        rem = np.array(u0, dtype=float)
        for k in range(rem.size - 1, -1, -1):
            if abs(rem[k]) < 1e-300:
                continue
            a = rem[k]  # monic basis: leading coefficient is the expansion weight
            if k / 2 <= lambda_max:
                coeffs[k / 2] = coeffs.get(k / 2, 0.0) + a
            else:
                tail += a * a * hermite_norm_sq(k)
            pk = hermite_monic(k)
            rem[: pk.size] -= a * pk
    if tail > TAIL_ENERGY_THRESHOLD:
        warnings.warn(
            f"projection dropped tail energy {tail:.3e} beyond lambda_max={lambda_max}",
            TruncationWarning,
        )
    coeffs = {lam: a for lam, a in coeffs.items() if a != 0.0}
    return HeatSolution(coefficients=coeffs, tail_energy=tail, potential=potential)


def evolve_series(sol: HeatSolution, s: float, x) -> np.ndarray | float:
    """Evaluate the series solution at drift-time s and positions x."""
    lo, hi = sol.s_domain
    if not lo <= s <= hi:
        raise DomainError(f"s={s} outside the solution domain {sol.s_domain}")
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
    u0: np.ndarray | Callable[[np.ndarray], np.ndarray],
    s0: float,
    s1: float,
    N_grid: int = 800,
    N_steps: int = 200,
    potential: Potential1D | None = None,
    X: float = 12.0,
    extrapolate: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-Euler evolution of the discretized drift heat equation.

    Returns the full grid and the solution samples at s1 (Dirichlet zeros at
    the truncation boundary).  extrapolate=True combines runs at N_steps and
    N_steps/2 to cancel the leading first-order time error while every
    individual step remains an implicit backward step.
    """
    if s1 <= s0:
        raise DomainError(f"need s1 > s0, got [{s0}, {s1}]")
    if potential is None:
        potential = gaussian_potential()
    op = discretize(potential, X, N_grid)
    x = op.grid
    vals0 = np.asarray(u0(x[1:-1]) if callable(u0) else u0, dtype=float)
    if vals0.shape != x[1:-1].shape:
        raise DomainError("initial samples must match the interior grid")

    stiff_diag = op.diag * op.weight  # undo the mass normalization: A = M^{1/2} B M^{1/2}
    stiff_off = op.off * np.sqrt(op.weight[:-1] * op.weight[1:])

    mass = op.weight.tolist()

    def run(steps: int) -> np.ndarray:
        ds = (s1 - s0) / steps
        # the matrix M + ds K is the same at every step: eliminate it once
        factor = thomas_factor(op.weight + ds * stiff_diag, ds * stiff_off)
        u = vals0.tolist()
        for _ in range(steps):
            u = thomas_substitute(factor, [w * v for w, v in zip(mass, u)])
        return np.array(u)

    u = run(N_steps)
    if extrapolate:
        u = 2.0 * u - run(max(N_steps // 2, 1))
    full = np.zeros_like(x)
    full[1:-1] = u
    return x, full


def weighted_l2_distance(
    a: np.ndarray, b: np.ndarray, potential: Potential1D | None = None, x: np.ndarray | None = None
) -> float:
    """Discrete L^2(e^{-f}) distance between two grid functions."""
    if potential is None:
        potential = gaussian_potential()
    if x is None:
        raise DomainError("grid required")
    h = x[1] - x[0]
    w = h * potential.weight(x)
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

    def __call__(self, x: float, t: float) -> float:
        return sum(c * x**j * t**k for (j, k), c in self.terms.items())


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


def ancient_transform_check(
    u: HeatPolynomial,
    s_samples=(-1.0, 0.0, 0.5, 2.0),
    x_samples: np.ndarray | None = None,
) -> float:
    """Max residual of the drift heat equation for the transformed solution.

    The input must solve the plain heat equation (checked on coefficients).
    Each decay component must then be a drift eigenfunction; the residual of
    that identity is evaluated at the given drift times and positions and is
    exactly zero for dyadic caloric inputs.
    """
    if u.caloric_residual() > 1e-12:
        raise DomainError("input polynomial does not solve the heat equation")
    if x_samples is None:
        x_samples = np.linspace(-6.0, 6.0, 121)
    parts = transform_to_eternal(u)
    residual_polys = {lam: drift_apply_1d(arr) + lam * arr for lam, arr in parts.items()}
    worst = 0.0
    for s in s_samples:
        total = np.zeros_like(x_samples)
        for lam, rp in residual_polys.items():
            total = total + math.exp(-lam * s) * np.polynomial.polynomial.polyval(x_samples, rp)
        worst = max(worst, float(np.abs(total).max()))
    return worst
