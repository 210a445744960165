"""Finite-difference oracle for the 1-D drift-Laplacian spectrum on the flat line.

The weight is the flat line's e^{-x^2/4}, whose drift spectrum is k/2.  The
weighted Dirichlet form int u'v' e^{-x^2/4} on [-X, X], X = 12, is discretized
with second-order central differences (midpoint weights) into a tridiagonal
stiffness K and a trapezoidal diagonal mass M; `discretize` returns them as
built, and backward-Euler heat stepping solves with M + ds K directly.
`DiscretizedOperator.reduced` takes the spectrum's symmetric tridiagonal
M^{-1/2} K M^{-1/2}, which preserves symmetry exactly.  Dirichlet truncation
is harmless because the weight collapses super-exponentially: at X = 12 it is
e^{-36}, about 2e-16, at the ends, and every entry is a normal float.
Eigenvalue errors shrink at least quadratically under grid doubling
(measured: quartically), independent of the analytic eigenbasis.  A shift
adds a constant to the reduced operator: the flat-line 1-form spectrum is the
scalar one shifted by 1/2.

The weight is even, and the operator keeps that symmetry exactly: node i is
X (2i - N) / N, so node N - i is its exact negative, every weight is
evaluated at mirrored abscissae to the same bits, and each reduced
off-diagonal entry multiplies its two mass factors as one commutative pair.
The reduced matrix, and the stiffness, mass and backward-Euler matrix
M + ds K alike, equal their own reversals bit for bit.  So the eigensolver
folds the reduced matrix into its even and odd blocks and runs each Sturm
and Newton pass on half the rows, and heat stepping steps the even and odd
parts of a datum on the two halves of M + ds K, an even datum such as x^2
on one half alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .eigensolve import tridiagonal_eigenvalues


def flat_weight(x: np.ndarray) -> np.ndarray:
    """The flat-line weight e^{-x^2/4}, whose drift spectrum is k/2."""
    return np.exp(-(0.25 * x * x))


# the truncation radius of every discretization
X = 12.0


@dataclass(frozen=True)
class DiscretizedOperator:
    """The weighted Dirichlet form on the interior nodes: tridiagonal stiffness K and lumped mass M."""

    grid: np.ndarray
    stiff_diag: np.ndarray
    stiff_off: np.ndarray
    mass: np.ndarray

    def reduced(self, shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of M^{-1/2} K M^{-1/2} + shift, exactly persymmetric."""
        inv_sqrt = 1.0 / np.sqrt(self.mass)
        diag = self.stiff_diag * inv_sqrt**2 + shift
        off = self.stiff_off * (inv_sqrt[:-1] * inv_sqrt[1:])  # a commutative pair: mirrored rows agree
        return diag, off


def discretize(N: int) -> DiscretizedOperator:
    """Discretize -Delta_f on [-X, X] with Dirichlet truncation on N intervals."""
    if N < 16:
        raise NumericError(f"grid size N={N} is too small (need N >= 16)")
    h = 2.0 * X / N
    # X (2i - N) / N: node N - i is the exact negative of node i
    x = X * np.arange(-N, N + 1, 2, dtype=float) / N
    w_mid = flat_weight(0.5 * (x[:-1] + x[1:]))
    w_node = flat_weight(x)
    # interior nodes x_1 .. x_{N-1}
    return DiscretizedOperator(
        grid=x,
        stiff_diag=(w_mid[:-1] + w_mid[1:]) / h,
        stiff_off=-w_mid[1:-1] / h,
        mass=h * w_node[1:-1],
    )


def oracle_spectrum_1d(N: int = 800, k_eigs: int = 5, shift: float = 0.0) -> np.ndarray:
    """The k_eigs smallest eigenvalues of the discretized operator."""
    if k_eigs > N // 4:
        raise NumericError(f"k_eigs={k_eigs} too large for N={N} (cap N/4)")
    return tridiagonal_eigenvalues(*discretize(N).reduced(shift), k_eigs)
