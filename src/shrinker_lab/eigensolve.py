"""Symmetric tridiagonal kernels implemented in-repo.

The discretized drift operators are symmetric tridiagonal, so their low
eigenvalues come from the pivots of T - x: isolate by Sturm counts, refine by
safeguarded Newton, bit-identical to the element loop.  One pass over the
pivots counts the eigenvalues below x, and the same pass can also return the
log-derivative of det(T - x) for a Newton step.  The passes loop over Python
floats in textbook order, so the spectra are bit-identical to an
element-by-element loop of the same algorithm.  A matrix equal to its own
reversal (persymmetric), as the flat-line operator is, splits exactly into an
even and an odd block of half the order (Cantoni & Butler, Linear Algebra
Appl. 13, 1976); each eigenvalue is found on its own block, so every pass
runs on half the rows.  Any other matrix is solved whole.

Implicit heat stepping solves one constant tridiagonal matrix many times.
`thomas_factor` does the elimination once and `thomas_substitute` solves each
right-hand side by the closed form of the first-order recurrences of the
forward and back substitution: with the summation factor Q_i, the running
product of the multipliers, z_i = r_i + a_i z_{i-1} is
z_i = Q_i sum_{j <= i} r_j / Q_j (Graham, Knuth & Patashnik, Concrete
Mathematics, 2.2).  Q and 1/Q are kept within 2^±500 by cutting the rows into
equal blocks, each with its own Q; one cumulative sum along the blocks
evaluates every block's sums, and a loop over the blocks carries each one's
end into the next.  The sums hold the same terms as the textbook loop in a
different order, so solutions agree with it to rounding, not bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

# the stall guard: Sturm counts and Newton passes on one eigenvalue, together
MAX_BISECTIONS = 200
# an eigenvalue has converged once its Newton step or bracket is within
# _ULPS ulps of it plus _EPS times the Gershgorin span
_ULPS = 4
_EPS = sys.float_info.epsilon
# a zero pivot is replaced by this one
_TINY_PIVOT = 1e-300
# every running product of multipliers in a scan block, and its inverse, stays within 2^±_BLOCK_BITS
_BLOCK_BITS = 500


@dataclass(frozen=True)
class _SumBlocks:
    """Summation factors of the recurrence z_i = r_i + a_i z_{i-1}, in B blocks of L rows.

    With Q the product of the multipliers of the rows after the start of a
    block, up to row t (1 at the start), inv_q[b, t] = 1 / Q and
    out[b, t] = Q times the scale its row's result takes.  gains[b - 1] is the
    multiplier of block b's first row times Q at the end of block b - 1: it
    carries the sum of block b - 1 into block b.
    """

    inv_q: np.ndarray
    out: np.ndarray
    gains: list[float]


def _sturm_count(diag: list[float], e2: list[float], x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x.

    The pivots q_i = d_i - x - e2[i] / q_{i-1} of T - x = L D L^T have as
    many negative entries as T - x has negative eigenvalues (Sylvester's law
    of inertia).  e2[i] is the squared off-diagonal entry coupling rows i-1
    and i (e2[0] = 0).  A zero pivot is replaced by a tiny positive one.
    """
    count = 0
    q = 1.0
    for d, e in zip(diag, e2):
        q = d - x - e / q
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = _TINY_PIVOT
    return count


def _newton_pass(diag: list[float], e2: list[float], x: float) -> tuple[int, float]:
    """The Sturm count at x and S(x) = d/dx log det(T - x), from one pass over the pivots.

    det(T - x) is the product of the pivots of `_sturm_count`, so
    S = sum_i q_i' / q_i, where q_i' = -1 + e2[i] q_{i-1}' / q_{i-1}^2
    differentiates their recurrence.  The Newton step for det(T - x) = 0 is
    x - 1 / S.
    """
    count = 0
    q = 1.0
    dq = 0.0
    s = 0.0
    for d, e in zip(diag, e2):
        r = e / q
        dq = r / q * dq - 1.0
        q = d - x - r
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = _TINY_PIVOT
        s += dq / q
    return count, s


@dataclass(frozen=True)
class _SturmBlock:
    """One symmetric tridiagonal eigenproblem and every Sturm count made on it.

    e2[i] is the squared off-diagonal entry coupling rows i-1 and i
    (e2[0] = 0).  [lo, hi] bounds the spectrum and span sets the stop rule;
    a block of a folded matrix takes the whole matrix's.
    """

    diag: list[float]
    e2: list[float]
    lo: float
    hi: float
    span: float
    name: str = "eigenvalue"
    counts: dict[float, int] = field(default_factory=dict)

    def eigenvalue(self, j: int) -> float:
        """Eigenvalue j, once eigenvalues 0 .. j-1 have been found.

        Every count is kept by abscissa, so eigenvalue j starts from the
        tightest bracket [a, b) with count(a) <= j < count(b) that the counts
        already make (lo and hi stand for counts 0 and n).  No count lies
        inside that bracket, so none is ever made twice.  It bisects the
        bracket until it holds eigenvalue j alone: count(a) = j and
        count(b) = j + 1.  Newton's method on det(T - x) then refines it;
        each pass also returns the count at x, which shrinks the bracket, and
        a step that leaves the bracket is replaced by a bisection.
        """
        counts = self.counts
        a, count_a = max(((x, c) for x, c in counts.items() if c <= j), default=(self.lo, 0))
        b, count_b = min(((x, c) for x, c in counts.items() if c > j), default=(self.hi, len(self.diag)))
        x = 0.5 * (a + b)
        for _ in range(MAX_BISECTIONS):
            tol = _EPS * (_ULPS * abs(x) + self.span)
            if b - a <= tol:
                return 0.5 * (a + b)
            isolated = count_a == j and count_b == j + 1
            if isolated:
                count, s = _newton_pass(self.diag, self.e2, x)
            else:
                count = _sturm_count(self.diag, self.e2, x)
            counts[x] = count
            if count <= j:
                a, count_a = x, count
            else:
                b, count_b = x, count
            if isolated and s != 0.0:
                step = 1.0 / s
                x = x - step
                if a < x < b:
                    if abs(step) <= tol:
                        return x
                    continue
            x = 0.5 * (a + b)
        raise NumericError(
            f"{self.name} {j} did not converge in {MAX_BISECTIONS} passes; "
            f"its bracket stalled at width {b - a:.3e}"
        )


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric tridiagonal matrix.

    Isolate by Sturm counts, refine by safeguarded Newton (Barth, Martin &
    Wilkinson, Numer. Math. 9, 1967; Demmel, Applied Numerical Linear
    Algebra, 5.3); see `_SturmBlock.eigenvalue`.  A matrix equal to its own
    reversal, diag and off alike, is folded into its even and odd blocks
    (`_fold`), and each eigenvalue is found on its own block alone, on half
    the rows; `_merge` takes the k smallest of the two.  Both blocks take the
    Gershgorin bounds of the whole matrix, which hold their spectra too.

    Eigenvalue j is converged when the Newton step or the bracket is within
    _ULPS ulps of it plus eps times the Gershgorin span.  A bracket that
    reaches that width before it isolates eigenvalue j, as a multiple
    eigenvalue's does, returns its midpoint.  More than MAX_BISECTIONS passes
    on one eigenvalue raise NumericError, as does a non-finite entry, before
    any pass.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.size
    if off.size != n - 1:
        raise NumericError(f"off-diagonal has size {off.size}, expected {n - 1}")
    if not 1 <= k <= n:
        raise NumericError(f"requested {k} eigenvalues from an order-{n} matrix")
    _require_finite(diag, off)
    # Gershgorin bounds
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    span = max(hi - lo, 1.0)
    if n > 1 and np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1]):
        even, odd = _fold(diag, off)
        return _merge(
            _SturmBlock(*even, lo, hi, span, name="even-block eigenvalue"),
            _SturmBlock(*odd, lo, hi, span, name="odd-block eigenvalue"),
            k,
        )
    block = _SturmBlock(diag.tolist(), [0.0] + (off * off).tolist(), lo, hi, span)
    return np.array([block.eigenvalue(j) for j in range(k)])


def _require_finite(diag: np.ndarray, off: np.ndarray) -> None:
    """Raise NumericError naming the first non-finite entry of diag, then of off."""
    for label, entries in (("diagonal", diag), ("off-diagonal", off)):
        bad = np.flatnonzero(~np.isfinite(entries))
        if bad.size:
            raise NumericError(f"{label} entry {bad[0]} is {entries[bad[0]]}, not finite")


def _fold(diag: np.ndarray, off: np.ndarray) -> tuple[tuple[list[float], list[float]], ...]:
    """The (diag, e2) of the even and odd blocks of a persymmetric tridiagonal matrix.

    A symmetric matrix equal to its reversal maps vectors with v_i = v_{n-1-i}
    to such vectors, and those with v_i = -v_{n-1-i} likewise, so its spectrum
    is that of its action on each, read off its first ceil(n/2) and
    floor(n/2) rows (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  On an
    even order the centre pair's coupling c folds onto the last diagonal
    entry as d + c and d - c.  On an odd order the centre node m enters the
    even block, where it sees row m - 1 twice: its coupling, symmetrized,
    squares to 2 c^2; the odd block vanishes there and ends at row m - 1.
    """
    m = diag.size // 2
    half_e2 = [0.0] + (off[: m - 1] * off[: m - 1]).tolist()
    centre = float(off[m - 1])
    if diag.size % 2:
        return (diag[: m + 1].tolist(), half_e2 + [2.0 * (centre * centre)]), (diag[:m].tolist(), half_e2)
    even_d = diag[:m].tolist()
    odd_d = list(even_d)
    even_d[-1] += centre
    odd_d[-1] -= centre
    return (even_d, half_e2), (odd_d, half_e2)


def _merge(even: _SturmBlock, odd: _SturmBlock, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the two blocks together.

    It takes ceil(k/2) from the even block and floor(k/2) from the odd one.
    Only the block that holds the largest value taken can hold too many: it
    does while the other block has more eigenvalues strictly below that
    value than were taken from it, and then the value gives way to the other
    block's next eigenvalue.  Blocks that alternate need one count, which is
    not kept, so a block's eigenvalue j does not depend on k.
    """
    from_even = [even.eigenvalue(j) for j in range((k + 1) // 2)]
    from_odd = [odd.eigenvalue(j) for j in range(k // 2)]
    high, other, low = from_even, odd, from_odd
    if from_odd and from_odd[-1] > from_even[-1]:
        high, other, low = from_odd, even, from_even
    while high and len(low) < len(other.diag) and _sturm_count(other.diag, other.e2, high[-1]) > len(low):
        high.pop()
        low.append(other.eigenvalue(len(low)))
    return np.array(sorted(high + low))


def thomas_factor(diag: np.ndarray, off: np.ndarray) -> tuple[_SumBlocks, _SumBlocks]:
    """Eliminate the symmetric tridiagonal matrix (diag, off) once.

    Returns (forward, backward) for `thomas_substitute`.  With the pivots
    d_i, the eliminated diagonal entries, and the multipliers
    c_i = off[i] / d_i the matrix is L D L^T, L unit lower bidiagonal with
    subdiagonal c.  forward holds the summation factors of
    z_i = r_i - c_{i-1} z_{i-1}, scaled to return y_i = z_i / d_i; backward
    those of x_i = y_i - c_i x_{i+1}, read from the last row up.  Both use one
    block length (see `_block_length`) and depend on the matrix alone, so
    every right-hand side reuses them.

    For a strictly diagonally dominant matrix every |c_i| < 1, so each term
    r_j Q_i / Q_j of a solution entry carries a product of multipliers below
    1 in magnitude, as in the textbook loop, and the sums do not amplify
    rounding.  The backward-Euler matrix M + ds K is such a matrix: K is a
    Dirichlet Laplacian and M a positive mass.  A non-finite entry raises
    NumericError, naming its index, before any elimination.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    _require_finite(diag, off)
    diag, off = diag.tolist(), off.tolist()
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
    a = -np.array(mults)
    length = _block_length(a)
    return _sum_blocks(a, length, 1.0 / np.array(pivots)), _sum_blocks(a[::-1], length, 1.0)


def _block_length(a: np.ndarray) -> int:
    """Rows per block for the multipliers a of an order-(a.size + 1) recurrence.

    A block of L rows multiplies up to L - 1 consecutive multipliers, and
    |log2| of a window's product is at most the sum of |log2 a| over the
    window.  The longest L keeps that sum within _BLOCK_BITS on every window
    of L - 1 multipliers; one search of its cumulative sum finds it.  A zero
    multiplier counts as out of range and makes every block one row.  The
    rows are then shared out equally between the fewest blocks of at most
    that length.
    """
    n = a.size + 1
    with np.errstate(divide="ignore"):
        bits = np.minimum(np.abs(np.log2(np.abs(a))), 2 * _BLOCK_BITS)
    reach = np.concatenate(([0.0], np.cumsum(bits)))
    ends = np.searchsorted(reach, reach + _BLOCK_BITS, side="right")
    gaps = (ends - np.arange(n))[ends < n]
    longest = int(gaps.min()) if gaps.size else n
    blocks = -(-n // longest)
    return -(-n // blocks)


def _sum_blocks(a: np.ndarray, length: int, scale: float | np.ndarray) -> _SumBlocks:
    """Summation factors of z_i = r_i + a_i z_{i-1} (a_0 unused) in blocks of `length` rows.

    Row i of the result is multiplied by scale, a number or one per row.
    """
    n = a.size + 1
    mult = np.ones((-(-n // length), length))
    mult.ravel()[1:n] = a
    lead = mult[:, 0].copy()
    mult[:, 0] = 1.0
    q = np.cumprod(mult, axis=1)
    out = q.copy()
    out.ravel()[:n] *= scale
    return _SumBlocks(inv_q=1.0 / q, out=out, gains=(lead[1:] * q[:-1, -1]).tolist())


def _block_scan(blocks: _SumBlocks, r: np.ndarray) -> np.ndarray:
    """z_i = r_i + a_i z_{i-1} for every i, by the summation factors in `blocks`.

    Within block b, z_t = Q_t (k_b + sum_{j <= t} r_j / Q_j), where the carry
    k_b is the block's leading multiplier times z at the end of block b - 1.
    When some r_j / Q_j overflows, the last block's closing sum is not
    finite; the scan then runs again on r scaled by a power of two, which is
    exact for every entry within 2^1000 of the largest, and scales the result
    back.
    """
    z, closing = _block_scan_once(blocks, r)
    if math.isfinite(closing):
        return z
    _, exponent = math.frexp(float(np.max(np.abs(r))))
    if exponent <= 0:  # r is not finite, or too small to be the cause: no scale mends it
        return z
    z, _ = _block_scan_once(blocks, np.ldexp(r, -exponent))
    return np.ldexp(z, exponent)


def _block_scan_once(blocks: _SumBlocks, r: np.ndarray) -> tuple[np.ndarray, float]:
    """The block scan of r and its last block's closing sum, finite iff every block sum is."""
    n = r.size
    s = np.zeros(blocks.out.shape)
    flat = s.ravel()
    np.multiply(r, blocks.inv_q.ravel()[:n], out=flat[:n])
    np.add.accumulate(s, axis=1, out=s)
    sums = s[:, -1].tolist()
    carry = 0.0
    if blocks.gains:
        carries = [carry]
        for gain, total in zip(blocks.gains, sums):
            carry = gain * (total + carry)
            carries.append(carry)
        s += np.array(carries)[:, None]
    s *= blocks.out
    return flat[:n], sums[-1] + carry


def thomas_substitute(factor: tuple[_SumBlocks, _SumBlocks], rhs: np.ndarray) -> np.ndarray:
    """Solve the factored tridiagonal system for one right-hand side.

    Forward, z_i = rhs_i - c_{i-1} z_{i-1} solves L z = rhs, and y = z / d;
    back, x_i = y_i - c_i x_{i+1} solves L^T x = y.  Each recurrence runs as
    one block scan: a multiply by 1/Q, a cumulative sum along the blocks, a
    loop that carries each block's end into the next, and a multiply by Q.
    """
    forward, backward = factor
    # an overflowing block sum is caught by the finite check of _block_scan, which solves again
    with np.errstate(over="ignore", invalid="ignore"):
        y = _block_scan(forward, np.asarray(rhs, dtype=float))
        return _block_scan(backward, y[::-1])[::-1]
