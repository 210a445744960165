"""Symmetric tridiagonal kernels implemented in-repo.

The discretized drift operators are symmetric tridiagonal, so their low
eigenvalues come from Sturm-sequence bisection.  The Sturm counts loop over
Python floats in textbook order, so the spectra are bit-identical to an
element-by-element loop.

Implicit heat stepping solves one constant tridiagonal matrix many times.
`thomas_factor` does the elimination once and `thomas_substitute` solves each
right-hand side with two parallel-prefix (Hillis-Steele) scans of the
first-order recurrences of the forward and back substitution (Stone, J. ACM
20, 1973), log2(n) numpy multiply-adds each.  The scans sum the same terms as
the textbook loop in a different order, so solutions agree with it to
rounding, not bit for bit.
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
    O(n) per count evaluation.  Every bisection starts from the same
    Gershgorin bracket, so their first midpoints coincide: each count is
    kept per call and looked up, never recomputed.
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
    counts: dict[float, int] = {}
    out = np.empty(k)
    for j in range(k):
        a, b = lo, hi
        for _ in range(MAX_BISECTIONS):
            mid = 0.5 * (a + b)
            count = counts.get(mid)
            if count is None:
                count = counts[mid] = _sturm_count(diag_list, e2, mid)
            if count >= j + 1:
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


def thomas_factor(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eliminate the symmetric tridiagonal matrix (diag, off) once.

    Returns (pivots, levels) for `thomas_substitute`.  Pivot i is the
    eliminated diagonal entry of row i; with the multipliers
    c_i = off[i] / pivot i the matrix is L D L^T, L unit lower bidiagonal
    with subdiagonal c.  levels[k] holds the products of 2^k consecutive
    -c: levels[k][t] = prod(-c[t : t + 2^k]).  They depend on the matrix
    alone, so every right-hand side reuses them.

    For a strictly diagonally dominant matrix every |c_i| < 1, so every scan
    coefficient and every product in `levels` is below 1 in magnitude and
    the scans do not amplify rounding.  The backward-Euler matrix M + ds K
    is such a matrix: K is a Dirichlet Laplacian and M a positive mass.
    """
    diag = np.asarray(diag, dtype=float).tolist()
    off = np.asarray(off, dtype=float).tolist()
    n = len(diag)
    denom = diag[0]
    if denom == 0.0:
        raise NumericError("zero pivot in tridiagonal solve")
    pivots = [denom]
    mults = []
    for i in range(1, n):
        mults.append(off[i - 1] / denom)
        denom = diag[i] - off[i - 1] * mults[-1]
        if denom == 0.0:
            raise NumericError(f"zero pivot in tridiagonal solve at row {i}")
        pivots.append(denom)
    levels = []
    prod = -np.array(mults)
    shift = 1
    while shift < n:
        levels.append(prod)
        prod = prod[:-shift] * prod[shift:]
        shift *= 2
    return np.array(pivots), levels


def thomas_substitute(factor: tuple[np.ndarray, list[np.ndarray]], rhs: np.ndarray) -> np.ndarray:
    """Solve the factored tridiagonal system for one right-hand side.

    Forward, z_i = rhs_i - c_{i-1} z_{i-1} solves L z = rhs; back,
    x_i = z_i / pivot_i - c_i x_{i+1} solves D L^T x = z.  Each recurrence
    runs as a Hillis-Steele scan: at level k, shift s = 2^k, every entry
    adds levels[k] times the entry s rows before it (after it, going back).
    """
    pivots, levels = factor
    x = np.array(rhs, dtype=float)
    for k, prod in enumerate(levels):
        shift = 1 << k
        x[shift:] += prod * x[:-shift]
    x /= pivots
    for k, prod in enumerate(levels):
        shift = 1 << k
        x[:-shift] += prod * x[shift:]
    return x
