"""Symmetric tridiagonal kernels implemented in-repo.

Both kernels take a pencil, a symmetric tridiagonal A = (diag, off) and a
positive diagonal mass M = diag(mass), as the discretized drift operators
are.  The low eigenvalues of A v = lambda M v are those of
T = M^-1/2 A M^-1/2 (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
ch. 15), and come from the pivots of T - x: isolate by Sturm counts, refine
by safeguarded Newton.  One pass over the pivots counts the eigenvalues
below x, and the same pass can also return the log-derivative of
det(T - x) for a Newton step.  The passes loop over Python floats in
textbook order, so the spectra are bit-identical to an element-by-element
loop of the same algorithm.  Isolation interpolates the count between the
bracket's ends on every other pass and bisects on the others, so it leaves
the Gershgorin top for the low spectrum in a few passes, and two passes
always at least halve the bracket: a bracket that never isolates its
eigenvalue, a multiple one, reaches the width floor in at most twice
bisection's 52 or so passes, within MAX_BISECTIONS.

Both kernels open with one intake, `_intake`, which checks the pencil and
folds it.  A pencil whose A and M each equal their own reversal, as the
flat-line operator and its backward-Euler step do, splits exactly into an
even and an odd half of half the order (Cantoni & Butler, Linear Algebra
Appl. 13, 1976), each a pencil whose weights W are M's, save that an odd
order's centre node weighs half its mass.  The spectrum finds each
eigenvalue on its own half; heat stepping steps the even and odd parts of
its datum on their own halves, skipping a part that is zero.  Any other
pencil is solved whole, with W = M.

Implicit heat stepping solves one constant tridiagonal matrix at every step;
`implicit_steps` eliminates it once and runs every step of a run on buffers
allocated once.  Each solve is two first-order recurrences, and with the
summation factor Q_i, the running product of the multipliers,
z_i = r_i + a_i z_{i-1} is z_i = Q_i sum_{j <= i} r_j / Q_j (Graham, Knuth &
Patashnik, Concrete Mathematics, 2.2): one cumulative sum.  Equal row blocks,
each with its own Q and a carry from the one before, keep Q and 1/Q within
2^±500; the two halves are two rows of one state, scanned together, and on
the flat-line grids through N = 3200 at 800 steps each half fits one block.
The sums hold the textbook loop's terms in another order, so results agree
with it to rounding, not bit for bit; where both halves are stepped, to
rounding of the larger of a node's value and its mirror's.
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
# every running product of multipliers in a block, and its inverse, stays within 2^±_BLOCK_BITS
_BLOCK_BITS = 500


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
    a block of a folded pencil takes the whole pencil's.
    """

    diag: list[float]
    e2: list[float]
    lo: float
    hi: float
    span: float
    counts: dict[float, int] = field(default_factory=dict)

    def eigenvalue(self, j: int) -> float:
        """Eigenvalue j, once eigenvalues 0 .. j-1 have been found.

        Every count is kept by abscissa, so eigenvalue j starts from the
        tightest bracket [a, b) with count(a) <= j < count(b) that the counts
        already make (lo and hi stand for counts 0 and n).  No count lies
        inside that bracket, so none is ever made twice.  Sturm counts
        shrink the bracket until it holds eigenvalue j alone: count(a) = j
        and count(b) = j + 1 (`_split` picks each point).  Newton's method on
        det(T - x) then refines it; each pass also returns the count at x,
        which shrinks the bracket, and a step that leaves the bracket is
        replaced by a bisection.
        """
        counts = self.counts
        a, count_a = max(((x, c) for x, c in counts.items() if c <= j), default=(self.lo, 0))
        b, count_b = min(((x, c) for x, c in counts.items() if c > j), default=(self.hi, len(self.diag)))
        x = _split(a, count_a, b, count_b, j, interpolate=True)
        for passes in range(MAX_BISECTIONS):
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
            x = _split(a, count_a, b, count_b, j, interpolate=passes % 2 == 1)
        raise NumericError(
            f"eigenvalue {j} did not converge in {MAX_BISECTIONS} passes; "
            f"its bracket stalled at width {b - a:.3e}"
        )


def _split(a: float, count_a: int, b: float, count_b: int, j: int, interpolate: bool) -> float:
    """The next Sturm point in the bracket [a, b) of eigenvalue j.

    While the bracket holds more than one eigenvalue above j, every other
    point interpolates the count linearly between its ends to where it
    reaches j + 1, and stops at the midpoint: the low spectrum sits far
    below the Gershgorin top, which bisection alone takes about 15 passes
    to leave.  Every other point, and every point once count(b) = j + 1,
    is the midpoint, so two passes at least halve the bracket whatever the
    counts, and a cluster that interpolation would creep through (a
    multiple eigenvalue) costs at most twice the passes of bisection.
    """
    mid = 0.5 * (a + b)
    if interpolate and count_b > j + 1:
        x = a + (b - a) * (j + 1 - count_a) / (count_b - count_a)
        if a < x < mid:
            return x
    return mid


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray, mass: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of A v = lambda M v, A = (diag, off) symmetric tridiagonal, M = diag(mass).

    Isolate by Sturm counts, refine by safeguarded Newton (Barth, Martin &
    Wilkinson, Numer. Math. 9, 1967; Demmel, Applied Numerical Linear
    Algebra, 5.3); see `_SturmBlock.eigenvalue` and `_split`.  Each pencil
    (A, W) of `_intake`'s fold, the whole or an even and an odd half, has
    the block W^-1/2 A W^-1/2: diagonal d / w and squared couplings
    o^2 / (w_i w_i+1).  Each eigenvalue is found on its own block, and
    `_merge` takes the k smallest of the two.  Both blocks take the
    Gershgorin bounds of the whole pencil, which hold their spectra too.

    Eigenvalue j is converged when the Newton step or the bracket is within
    _ULPS ulps of it plus eps times the Gershgorin span.  A bracket that
    reaches that width before it isolates eigenvalue j, as a multiple
    eigenvalue's does, returns its midpoint.  More than MAX_BISECTIONS passes
    on one eigenvalue raise NumericError, as do k outside 1..n and every
    input `_intake` refuses, before any pass.
    """
    pencil, halves = _intake(diag, off, mass)
    n = pencil[0].size
    if not 1 <= k <= n:
        raise NumericError(f"requested {k} eigenvalues from an order-{n} matrix")
    lo, hi, span = _gershgorin(*pencil)
    blocks = [
        _SturmBlock((d / w).tolist(), [0.0] + (o * o / (w[:-1] * w[1:])).tolist(), lo, hi, span) for d, o, w in halves
    ]
    if len(blocks) == 2:
        return _merge(*blocks, k)
    return np.array([blocks[0].eigenvalue(j) for j in range(k)])


def _intake(diag, off, mass) -> tuple[tuple[np.ndarray, ...], list[tuple[np.ndarray, ...]]]:
    """The pencil as float arrays, and its `_fold`.

    Sizes that do not match, a non-finite entry and a mass entry <= 0 raise NumericError naming the entry's index.
    """
    diag, off, mass = (np.asarray(v, dtype=float) for v in (diag, off, mass))
    n = diag.size
    if (off.size, mass.size) != (n - 1, n):
        raise NumericError(f"off-diagonal and mass have sizes {off.size} and {mass.size}; expected {n - 1} and {n}")
    for label, entries in (("diagonal", diag), ("off-diagonal", off), ("mass", mass)):
        bad = np.flatnonzero(~np.isfinite(entries))
        if bad.size:
            raise NumericError(f"{label} entry {bad[0]} is {entries[bad[0]]}, not finite")
    bad = np.flatnonzero(mass <= 0.0)
    if bad.size:
        raise NumericError(f"mass entry {bad[0]} is {mass[bad[0]]}, not positive")
    return (diag, off, mass), _fold(diag, off, mass)


def _gershgorin(diag: np.ndarray, off: np.ndarray, mass: np.ndarray) -> tuple[float, float, float]:
    """Gershgorin bounds lo, hi of M^-1/2 A M^-1/2, row i centred at d_i / m_i, and the span max(hi - lo, 1)."""
    centre = diag / mass
    coupling = np.abs(off) / np.sqrt(mass[:-1] * mass[1:])
    radius = np.zeros(diag.size)
    radius[:-1] += coupling
    radius[1:] += coupling
    lo = float(np.min(centre - radius))
    hi = float(np.max(centre + radius))
    return lo, hi, max(hi - lo, 1.0)


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


def implicit_steps(diag: np.ndarray, off: np.ndarray, mass: np.ndarray, u0: np.ndarray, steps: int) -> np.ndarray:
    """(A^-1 diag(mass))^steps u0, `steps` backward-Euler steps with the symmetric tridiagonal A = (diag, off).

    When diag, off and mass each equal their own reversal, A and diag(mass)
    map mirror-symmetric vectors to mirror-symmetric ones, and antisymmetric
    ones likewise: u0 splits into its even and odd parts, each is stepped on
    its half of the rows (`_intake` folds, as for the spectrum), and the two
    are added back.  A part that is exactly zero is not stepped, as an even
    datum's odd part is not.  Any other A is stepped whole, as the one row
    of the state.  Steps run in `_stacked_steps`.  Every input `_intake`
    refuses, a u0 whose size is not A's, a step count below 1 and a zero
    pivot raise NumericError before any step; a zero pivot in either half
    does, stepped or not, since A is then singular.
    """
    pencil, halves = _intake(diag, off, mass)
    u0 = np.asarray(u0, dtype=float)
    n = pencil[0].size
    if u0.size != n:
        raise NumericError(f"u0 has size {u0.size}, expected {n}")
    if steps < 1:
        raise NumericError(f"steps must be at least 1, got {steps}")
    if len(halves) == 1:
        return _stacked_steps([(*pencil, u0)], steps)[0]
    m = n // 2
    half = 0.5 * u0
    even, odd = halves
    x_even, x_odd = _stacked_steps([(*even, (half + half[::-1])[: n - m]), (*odd, (half - half[::-1])[:m])], steps)
    u = np.empty(n)
    u[:m] = x_even[:m] + x_odd
    u[n - m :] = (x_even[:m] - x_odd)[::-1]
    if n % 2:
        u[m] = x_even[m]
    return u


def _fold(diag: np.ndarray, off: np.ndarray, mass: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The pencil (diag, off, mass) whole, or its even and odd halves when it equals its own reversal.

    A symmetric tridiagonal A = (diag, off) and a diagonal M = diag(mass),
    each equal to its reversal, map vectors with v_i = v_{n-1-i} to such
    vectors, and those with v_i = -v_{n-1-i} likewise, so A v = lambda M v
    and A x = M r split into their actions on each, read off the first
    ceil(n/2) and floor(n/2) rows (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  On an even order the centre pair's coupling c adds to the last
    diagonal entry of the even half and subtracts from the odd half's.  On an
    odd order the centre node m sees row m - 1 twice in the even half, as 2c;
    halving that row, diagonal and mass alike, makes its coupling c again, so
    the half is a symmetric pencil whose centre weight is half its mass, with
    no scaling of the state, and exactly.  The odd half vanishes at the
    centre node and ends at row m - 1.  Order 1, and any pencil that is not
    its own reversal, is returned whole, as the one entry of the list.
    """
    n = diag.size
    if n == 1 or not all(np.array_equal(v, v[::-1]) for v in (diag, off, mass)):
        return [(diag, off, mass)]
    m = n // 2
    centre = off[m - 1]
    if n % 2:
        even_diag, even_mass = diag[: m + 1].copy(), mass[: m + 1].copy()
        even_diag[m] *= 0.5
        even_mass[m] *= 0.5
        return [(even_diag, off[:m], even_mass), (diag[:m], off[: m - 1], mass[:m])]
    even_diag, odd_diag = diag[:m].copy(), diag[:m].copy()
    even_diag[-1] += centre
    odd_diag[-1] -= centre
    return [(even_diag, off[: m - 1], mass[:m]), (odd_diag, off[: m - 1], mass[:m])]


def _stacked_steps(systems: list[tuple[np.ndarray, ...]], steps: int) -> list[np.ndarray]:
    """`steps` backward-Euler steps of each (diag, off, mass, u0), the systems stacked as rows of one state.

    Each A = L D L^T is eliminated once (`_eliminate`).  With c_i = off[i] / d_i,
    z_i = r_i - c_{i-1} z_{i-1} solves L z = r and x_i = z_i / d_i - c_i x_{i+1}
    solves D L^T x = z, each a cumulative sum by its summation factor Q over
    equal row blocks (`_block_length`, `_carry`).  Every row of the state
    holds its system after a zero padding to a common size, so one multiply
    and one cumulative sum scan every row, and the back recurrence runs on
    the same blocks reversed.  Between steps the state holds x / Q_b: a step
    multiplies by Q_b mass / Q_f, sums, multiplies by Q_f / (d Q_b) and sums
    the state reversed, and x is formed after the last step.  A system whose
    u0 is exactly zero gets no row and a zero result, save the first when
    every u0 is zero.

    For a strictly diagonally dominant A, as M + ds K is, every |c_i| < 1, so
    the sums do not amplify rounding.  A step whose closing sum on some row
    is not finite is done again from the whole state scaled by one power of
    two, exact for every entry within 2^1000 of the largest, and the result
    is scaled back.
    """
    eliminated = [_eliminate(diag.tolist(), off.tolist()) for diag, off, _, _ in systems]
    live = [i for i, system in enumerate(systems) if system[3].any()] or [0]
    length = _block_length([eliminated[i][1] for i in live])
    rows = len(live)
    blocks = -(-max(systems[i][0].size for i in live) // length)
    size = blocks * length
    q_f, q_b, first, back = np.zeros((4, rows, size))
    gains_f, gains_b = [], []
    # two buffers, each with its forward and reversed block views and its closing sums: a step
    # reads the state from one and writes the next into the other, so an overflowing step can
    # start again
    buffers = [
        (buf, buf.reshape(rows, blocks, length), buf[:, ::-1].reshape(rows, blocks, length), buf[:, 0])
        for buf in np.zeros((2, rows, size))
    ]
    for r, i in enumerate(live):
        (pivots, a), (_, _, mass, u0) = eliminated[i], systems[i]
        pad = size - pivots.size
        q_f[r], gains = _summation_factors(np.concatenate((np.ones(pad + 1), a)), length)
        gains_f.append(gains)
        q, gains = _summation_factors(np.concatenate(([1.0], a[::-1], np.ones(pad))), length)
        q_b[r] = q[::-1]
        gains_b.append(gains)
        first[r, pad:] = mass
        back[r, pad:] = 1.0 / pivots
        buffers[0][0][r, pad:] = u0
    first /= q_f
    later = first * q_b
    back *= q_f / q_b
    carries = np.zeros((rows, blocks - 1))
    exponent = 0

    def advance(state, factor, out, scan, reversed_scan, closing) -> bool:
        np.multiply(state, factor, out=out)
        np.add.accumulate(scan, axis=2, out=scan)
        if blocks > 1:
            _carry(scan, gains_f, carries)
        out *= back
        np.add.accumulate(reversed_scan, axis=2, out=reversed_scan)
        if blocks > 1:
            _carry(reversed_scan, gains_b, carries)
        return all(map(math.isfinite, closing.tolist()))

    # an overflowing sum is caught by the closing-sum check, which steps again
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            (state, *_), target = buffers
            factor = later if step else first
            if not advance(state, factor, *target):
                # a scale of 0 or less: the state is not finite, or too small to be the cause, and no scale mends it
                _, scale = math.frexp(float(np.max(np.abs(state))))
                if scale > 0:
                    np.ldexp(state, -scale, out=state)
                    exponent += scale
                    advance(state, factor, *target)
            buffers.reverse()
        x = buffers[0][0] * q_b
        if exponent:
            np.ldexp(x, exponent, out=x)
    results = [np.zeros(diag.size) for diag, *_ in systems]
    for r, i in enumerate(live):
        results[i] = x[r, size - results[i].size :]
    return results


def _eliminate(diag: list[float], off: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The pivots d_i of (diag, off) and the multipliers -c_i = -off[i] / d_i; NumericError at a zero pivot."""
    denom = diag[0]
    if denom == 0.0:
        raise NumericError("zero pivot in tridiagonal solve")
    pivots = [denom]
    mults = []
    for d, e in zip(diag[1:], off):
        c = e / denom
        denom = d - e * c
        if denom == 0.0:
            raise NumericError(f"zero pivot in tridiagonal solve at row {len(pivots)}")
        mults.append(c)
        pivots.append(denom)
    return np.array(pivots), -np.array(mults)


def _block_length(rows: list[np.ndarray]) -> int:
    """Rows per block for the multipliers of recurrences of order a.size + 1, one a per row of the state.

    A block of L rows multiplies up to L - 1 consecutive multipliers, and
    |log2| of a window's product is at most the sum of |log2 a| over the
    window.  The longest L keeps that sum within _BLOCK_BITS on every window
    of L - 1 multipliers of every row; one search of each row's cumulative
    sum finds it.  A zero multiplier counts as out of range and makes every
    block one row.  The rows of the longest recurrence are then shared out
    equally between the fewest blocks of at most that length.
    """
    n = max(a.size for a in rows) + 1
    longest = n
    for a in rows:
        with np.errstate(divide="ignore"):
            bits = np.minimum(np.abs(np.log2(np.abs(a))), 2 * _BLOCK_BITS)
        reach = np.concatenate(([0.0], np.cumsum(bits)))
        ends = np.searchsorted(reach, reach + _BLOCK_BITS, side="right")
        gaps = (ends - np.arange(a.size + 1))[ends < a.size + 1]
        longest = min(longest, int(gaps.min()) if gaps.size else n)
    blocks = -(-n // longest)
    return -(-n // blocks)


def _summation_factors(mult: np.ndarray, length: int) -> tuple[np.ndarray, list[float]]:
    """Q and the carry gains of z_i = r_i + mult_i z_{i-1} in blocks of `length` rows; mult is overwritten.

    Q is the running product of the multipliers after the start of a block
    (1 there).  gains[b - 1], the multiplier of block b's first row times Q
    at the end of block b - 1, carries the sum of block b - 1 into block b.
    """
    mult = mult.reshape(-1, length)
    lead = mult[:, 0].copy()
    mult[:, 0] = 1.0
    q = np.cumprod(mult, axis=1)
    return q.ravel(), (lead[1:] * q[:-1, -1]).tolist()


def _carry(scan: np.ndarray, gains: list[list[float]], carries: np.ndarray) -> None:
    """Add to block b >= 1 of each row r of scan gains[r][b - 1] times block b - 1's closing sum with its carry."""
    for r, (row_gains, totals) in enumerate(zip(gains, scan[:, :-1, -1].tolist())):
        carry = 0.0
        for b, (gain, total) in enumerate(zip(row_gains, totals)):
            carry = gain * (total + carry)
            carries[r, b] = carry
    scan[:, 1:] += carries[:, :, None]
