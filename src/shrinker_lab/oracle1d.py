"""Finite-difference oracle for the 1-D drift-Laplacian spectrum on the flat line.

The weight is the flat line's e^{-x^2/4}, whose drift spectrum is k/2.  The
weighted Dirichlet form int u'v' e^{-x^2/4} on a truncated interval is
discretized with second-order central differences (midpoint weights) and a
trapezoidal diagonal mass matrix, then reduced to a standard symmetric
tridiagonal eigenproblem through the square root of the mass matrix, which
preserves symmetry exactly.  Dirichlet truncation is harmless because the
weight collapses super-exponentially.  Eigenvalue errors shrink at least
quadratically under grid doubling (measured: quartically), independent of the
analytic eigenbasis.  A shift adds a constant to the operator: the flat-line
1-form spectrum is the scalar one shifted by 1/2.

The weight is even, and the operator keeps that symmetry exactly: node i is
X (2i - N) / N, so node N - i is its exact negative, every weight is
evaluated at mirrored abscissae to the same bits, and each off-diagonal entry
multiplies its two mass factors as one commutative pair.  The matrix equals
its own reversal bit for bit, so the eigensolver folds it into its even and
odd blocks and runs each Sturm and Newton pass on half the rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .eigensolve import tridiagonal_eigenvalues


def flat_weight(x: np.ndarray) -> np.ndarray:
    """The flat-line weight e^{-x^2/4}, whose drift spectrum is k/2."""
    return np.exp(-(0.25 * x * x))


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric reduction of the discretized weighted Dirichlet form."""

    grid: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    weight: np.ndarray


def discretize(X: float, N: int, shift: float = 0.0) -> DiscretizedOperator:
    """Discretize -Delta_f (+ shift) on [-X, X] with Dirichlet truncation."""
    if not (math.isfinite(X) and X > 0):
        raise NumericError(f"truncation radius X must be positive and finite, got {X!r}")
    if N < 16:
        raise NumericError(f"grid size N={N} is too small (need N >= 16)")
    h = 2.0 * X / N
    # The extreme entries, from X and N alone: the mass h w(x) runs from the
    # outermost interior node |x| = X (N - 2) / N up to h, the stiffness up to
    # 2/h, and no diagonal entry exceeds (2/h) over the least mass.
    edge = X * (N - 2) / N
    least_mass = h * math.exp(-0.25 * edge * edge)
    if not (least_mass >= sys.float_info.min and 2.0 / h / least_mass < math.inf):
        raise NumericError(
            f"truncation radius X={X!r} puts the operator's entries past the float range at N={N}"
        )
    # X (2i - N) / N: node N - i is the exact negative of node i
    x = X * np.arange(-N, N + 1, 2, dtype=float) / N
    w_mid = flat_weight(0.5 * (x[:-1] + x[1:]))
    w_node = flat_weight(x)
    # interior nodes x_1 .. x_{N-1}
    stiff_diag = (w_mid[:-1] + w_mid[1:]) / h
    stiff_off = -w_mid[1:-1] / h
    mass = h * w_node[1:-1]
    inv_sqrt = 1.0 / np.sqrt(mass)
    diag = stiff_diag * inv_sqrt**2 + shift
    off = stiff_off * (inv_sqrt[:-1] * inv_sqrt[1:])  # a commutative pair: mirrored rows agree
    return DiscretizedOperator(grid=x, diag=diag, off=off, weight=mass)


def oracle_spectrum_1d(X: float = 12.0, N: int = 800, k_eigs: int = 5, shift: float = 0.0) -> np.ndarray:
    """The k_eigs smallest eigenvalues of the discretized operator."""
    if k_eigs > N // 4:
        raise NumericError(f"k_eigs={k_eigs} too large for N={N} (cap N/4)")
    op = discretize(X, N, shift=shift)
    return tridiagonal_eigenvalues(op.diag, op.off, k_eigs)
