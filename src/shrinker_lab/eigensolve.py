"""Symmetric tridiagonal kernels implemented in-repo.

The discretized drift operators are symmetric tridiagonal, so their low
eigenvalues come from Sturm-sequence bisection.  Implicit heat stepping
solves one constant tridiagonal matrix many times: `thomas_factor` does the
elimination once and `thomas_substitute` runs the forward and back
substitution per step.  Both kernels loop over Python floats; each does the
same floating-point operations in the same order as the textbook loop.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# bisection stops when the bracket is below this times the Gershgorin span
BISECTION_TOL = 1e-12
MAX_BISECTIONS = 200


def _sturm_count(diag: list[float], e2: list[float], x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x.

    e2[i] is the squared off-diagonal entry coupling rows i-1 and i (e2[0] = 0).
    """
    count = 0
    q = 1.0
    tiny = 1e-300
    for d, e in zip(diag, e2):
        if q == 0.0:
            q = tiny
        q = d - x - e / q
        if q < 0.0:
            count += 1
    return count


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric tridiagonal matrix.

    Bisection on Sturm-sequence counts; robust for clustered spectra and
    O(n) per count evaluation.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.size
    if off.size != n - 1:
        raise NumericError(f"off-diagonal has size {off.size}, expected {n - 1}")
    if not 1 <= k <= n:
        raise NumericError(f"requested {k} eigenvalues from an order-{n} matrix")
    # Gershgorin bounds
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    span = max(hi - lo, 1.0)
    diag_list = diag.tolist()
    e2 = [0.0] + (off * off).tolist()
    out = np.empty(k)
    for j in range(k):
        a, b = lo, hi
        for _ in range(MAX_BISECTIONS):
            mid = 0.5 * (a + b)
            if _sturm_count(diag_list, e2, mid) >= j + 1:
                b = mid
            else:
                a = mid
            if b - a <= BISECTION_TOL * span:
                break
        else:
            raise NumericError(
                f"bisection for eigenvalue {j} stalled at interval width {b - a:.3e}"
            )
        out[j] = 0.5 * (a + b)
    return out


def thomas_factor(
    diag: np.ndarray, off: np.ndarray
) -> tuple[list[float], list[float], list[float]]:
    """Eliminate the symmetric tridiagonal matrix (diag, off) once.

    Returns (pivots, multipliers, off) as Python floats: pivot i is the
    eliminated diagonal entry of row i and multiplier i is off[i] / pivot i.
    Pass the result to `thomas_substitute` for each right-hand side.
    """
    diag = np.asarray(diag, dtype=float).tolist()
    off = np.asarray(off, dtype=float).tolist()
    n = len(diag)
    denom = diag[0]
    if denom == 0.0:
        raise NumericError("zero pivot in tridiagonal solve")
    pivots = [denom]
    mults = [off[0] / denom] if n > 1 else []
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * mults[i - 1]
        if denom == 0.0:
            raise NumericError(f"zero pivot in tridiagonal solve at row {i}")
        pivots.append(denom)
        if i < n - 1:
            mults.append(off[i] / denom)
    return pivots, mults, off


def thomas_substitute(
    factor: tuple[list[float], list[float], list[float]], rhs: list[float]
) -> list[float]:
    """Solve the factored tridiagonal system for one right-hand side."""
    pivots, mults, off = factor
    d = rhs[0] / pivots[0]
    x = [d]
    for r, e, p in zip(rhs[1:], off, pivots[1:]):
        d = (r - e * d) / p
        x.append(d)
    for i in range(len(x) - 2, -1, -1):
        x[i] -= mults[i] * x[i + 1]
    return x
