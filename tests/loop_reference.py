"""Element-by-element reference loops for the discrete oracles and eigenparts.

The package runs its Sturm counts and Newton passes on Python floats,
eliminates the backward-Euler matrix once per run and advances every step in
one kernel, two cumulative sums over equal row blocks on a state kept in
summation-factor scale, and ranks the contraction kernel one block per
support size.  The loops below index numpy arrays one element at a time and
redo the elimination at every step.
`tridiagonal_eigenvalues` is the package's algorithm written as such a loop:
it folds a matrix equal to its reversal into its even and odd blocks,
isolates each eigenvalue by Sturm counts and refines it by safeguarded
Newton, and keeps its counts in a list that it scans for each bracket
instead of a dict.  Its passes do the same floating-point operations in the
same order, so the tests require equal spectra, not close ones.  The block sums hold the
substitutions' terms in another order, so heat stepping is matched element
by element to a relative 1e-12 instead.  The
contraction kernel is ranked here as one whole sparse matrix, by exact
elimination over the rationals.

The package builds the heat eigenbasis p_0..p_K in one run of its
recurrence and keeps a series as one row indexed by k = 2 lambda.
`heat_series` is the earlier route: weights keyed by float lambda, each basis
polynomial rebuilt from p_0.  Its sums run in the same order, so the tests
require equal bits.

The package reads each eigenpart of a polynomial off as a homogeneous part;
`decompose_by_eigenvalue` below finds it by power iteration on the drift
derivative.  Every catalog eigenvalue is a half-integer, so a kept term's
step is exactly 1.0 and every other term decays below the pruning threshold
before the stop test passes: the parts agree term for term.
`decompose_by_catalog_walk` is the earlier package route: it takes the parts
level by level off a remainder that it rebuilds after each one.  It and the
`checked_*` arithmetic build every intermediate polynomial through the public
constructor, which validates the keys again, as the package's arithmetic
did before its results skipped that step; the tests require equal terms.

The package reads every spectral catalog off one integer row per form
degree, a truncated product of the Kunneth generating function.  The
reference below keeps the earlier route, which it shares no code with: lines
of fractional eigenvalues from one generator per factor, convolved pair by
pair in a dict, and the separate (p,0) line generators and their merge loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from shrinker_lab.holopoly import EigenDecomposition, HoloPoly
from shrinker_lab.oracle1d import discretize
from shrinker_lab.spectrum import analytic_spectrum

_EPS = 1e-9


def dense(diag, off):
    """The symmetric tridiagonal matrix (diag, off) as a dense array."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def sturm_count(diag, e2, x):
    """Number of eigenvalues strictly below x; e2[i] is the squared coupling of rows i-1 and i."""
    count = 0
    q = 1.0
    for i in range(len(diag)):
        q = diag[i] - x - e2[i] / q
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = 1e-300
    return count


def newton_pass(diag, e2, x):
    """The Sturm count at x and S = sum q_i' / q_i, the log-derivative of det(T - x)."""
    count = 0
    q = 1.0
    dq = 0.0
    s = 0.0
    for i in range(len(diag)):
        r = e2[i] / q
        dq = r / q * dq - 1.0
        q = diag[i] - x - r
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = 1e-300
        s += dq / q
    return count, s


def block_eigenvalue(diag, e2, lo, hi, span, seen, j):
    """Eigenvalue j of (diag, e2): isolate by `sturm_count`, refine by Newton on `newton_pass`.

    Every (x, count) evaluated on this matrix is kept in `seen`; eigenvalue j
    shrinks the tightest bracket they make until it holds eigenvalue j alone.
    While count(b) > j + 1 its passes alternate, starting with the first,
    between the point where the count interpolated linearly between a and b
    reaches j + 1, when it lies strictly between a and the midpoint, and the
    midpoint; otherwise every point is the midpoint.  It then takes Newton
    steps x - 1/S that stay inside the bracket and bisects otherwise.  It
    stops when the step or the bracket is within 4 ulps of x plus eps times
    the span; a bracket that gets there first returns its midpoint.
    """
    eps = np.finfo(float).eps
    ulps, max_passes = 4, 200
    a, count_a, b, count_b = lo, 0, hi, len(diag)
    for x, c in seen:
        if c <= j and x > a:
            a, count_a = x, c
        if c > j and x < b:
            b, count_b = x, c
    x = None
    for i in range(max_passes):
        if x is None:
            x = 0.5 * (a + b)
            if i % 2 == 0 and count_b > j + 1:
                point = a + (b - a) * (j + 1 - count_a) / (count_b - count_a)
                if a < point < x:
                    x = point
        tol = eps * (ulps * abs(x) + span)
        if b - a <= tol:
            return 0.5 * (a + b)
        newton = count_a == j and count_b == j + 1
        if newton:
            count, s = newton_pass(diag, e2, x)
        else:
            count = sturm_count(diag, e2, x)
        seen.append((x, count))
        if count <= j:
            a, count_a = x, count
        else:
            b, count_b = x, count
        if newton and s != 0.0:
            step = 1.0 / s
            if a < x - step < b:
                if abs(step) <= tol:
                    return x - step
                x = x - step
                continue
        x = None
    raise RuntimeError(f"eigenvalue {j} did not converge in {max_passes} passes")


def tridiagonal_eigenvalues(diag, off, k):
    """The k smallest eigenvalues, by `block_eigenvalue` on the matrix or on its two folded blocks.

    A matrix equal to its reversal has an even block, rows 0 .. ceil(n/2)-1
    acting on mirror-symmetric vectors, and an odd block, rows
    0 .. floor(n/2)-1 on antisymmetric ones.  A centre pair coupled by c adds
    +c and -c to their last diagonal entries; a centre node keeps its row in
    the even block, coupled with squared weight 2 c^2.  Both blocks take the
    whole matrix's Gershgorin bounds.  ceil(k/2) eigenvalues come from the
    even block and floor(k/2) from the odd one; then, while the other block
    has more eigenvalues below the largest one taken than were taken from
    it, that one is swapped for the other block's next.
    """
    n = diag.size
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    span = max(hi - lo, 1.0)
    mirrored = all(diag[i] == diag[n - 1 - i] for i in range(n)) and all(
        off[i] == off[n - 2 - i] for i in range(n - 1)
    )
    if n == 1 or not mirrored:
        e2 = [0.0] + [off[i] ** 2 for i in range(n - 1)]
        seen = []
        return np.array([block_eigenvalue(diag, e2, lo, hi, span, seen, j) for j in range(k)])
    m = n // 2
    odd_diag = [diag[i] for i in range(m)]
    odd_e2 = [0.0] + [off[i] ** 2 for i in range(m - 1)]
    if n % 2:
        even_diag = odd_diag + [diag[m]]
        even_e2 = odd_e2 + [2.0 * off[m - 1] ** 2]
    else:
        even_diag = odd_diag[:-1] + [diag[m - 1] + off[m - 1]]
        even_e2 = odd_e2
        odd_diag = odd_diag[:-1] + [diag[m - 1] - off[m - 1]]
    blocks = [(even_diag, even_e2, []), (odd_diag, odd_e2, [])]
    taken = [
        [block_eigenvalue(d, e2, lo, hi, span, seen, j) for j in range(count)]
        for (d, e2, seen), count in zip(blocks, ((k + 1) // 2, k // 2))
    ]
    top = 1 if taken[1] and taken[1][-1] > taken[0][-1] else 0
    other = 1 - top
    d, e2, seen = blocks[other]
    while taken[top] and len(taken[other]) < len(d) and sturm_count(d, e2, taken[top][-1]) > len(taken[other]):
        taken[top].pop()
        taken[other].append(block_eigenvalue(d, e2, lo, hi, span, seen, len(taken[other])))
    return np.array(sorted(taken[0] + taken[1]))


def oracle_spectrum_1d(N=800, k_eigs=5, shift=0.0):
    return tridiagonal_eigenvalues(*discretize(N).reduced(shift), k_eigs)


def thomas_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system (diag, off) x = rhs."""
    n = diag.size
    c = np.empty(max(n - 1, 1))
    d = np.empty(n)
    denom = diag[0]
    if n > 1:
        c[0] = off[0] / denom
    d[0] = rhs[0] / denom
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = off[i] / denom
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def timestep_oracle(u0, s0, s1, N_grid=800, N_steps=200, extrapolate=False):
    """Backward Euler with a full tridiagonal solve at every step."""
    op = discretize(N_grid)
    x = op.grid
    vals0 = np.asarray(u0(x[1:-1]), dtype=float)

    def run(steps):
        ds = (s1 - s0) / steps
        diag = op.mass + ds * op.stiff_diag
        off = ds * op.stiff_off
        u = vals0.copy()
        for _ in range(steps):
            u = thomas_solve(diag, off, op.mass * u)
        return u

    u = run(N_steps)
    if extrapolate:
        u = 2.0 * u - run(max(N_steps // 2, 1))
    full = np.zeros_like(x)
    full[1:-1] = u
    return x, full


def hermite_monic(k):
    """The k-th monic eigenpolynomial, its recurrence restarted from p_0 as the package once did."""
    p_prev = np.array([1.0])
    if k == 0:
        return p_prev
    p = np.array([0.0, 1.0])
    for j in range(1, k):
        p_next = np.zeros(j + 2)
        p_next[1:] = p
        p_next[:j] -= 2.0 * j * p_prev
        p_prev, p = p, p_next
    return p


def heat_series(u0, s, x):
    """Eigen-weights keyed by float lambda, and the series at (s, x), one basis rebuild per weight."""
    weights = {}
    rem = np.array(u0, dtype=float)
    for k in range(rem.size - 1, -1, -1):
        a = rem[k]
        if abs(a) < 1e-300:
            continue
        weights[k / 2] = a
        pk = hermite_monic(k)
        rem[: pk.size] -= a * pk
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for lam, a in weights.items():
        acc = acc + a * math.exp(-lam * s) * np.polynomial.polynomial.polyval(x, hermite_monic(round(2 * lam)))
    return weights, acc


def _monomial_form_basis(m, p, mu):
    indices = list(combinations(range(m), p))
    alphas = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            alphas.append(tuple(prefix))
            return
        for a in range(remaining + 1):
            rec(prefix + [a], remaining - a, slots - 1)

    rec([], mu, m)
    return [(alpha, index) for alpha in alphas for index in indices]


def kernel_matrix(m, p, mu):
    """The whole contraction matrix on growth-mu (p,0)-forms, as column dicts."""
    targets = {}
    columns = []
    for alpha, index in _monomial_form_basis(m, p, mu):
        col = {}
        for pos, j in enumerate(index):
            beta = list(alpha)
            beta[j] += 1
            row = targets.setdefault((tuple(beta), index[:pos] + index[pos + 1 :]), len(targets))
            col[row] = col.get(row, 0) + (1 if pos % 2 == 0 else -1)
        columns.append(col)
    return columns


def kernel_dimension(m, p, mu):
    """Nullity of the whole contraction matrix, by exact sparse column elimination.

    Each column is reduced against the pivot column that owns its lowest
    (largest-index) nonzero row until that row has no owner, and then owns
    it, or the column vanishes.  The vanished columns count the nullity.
    """
    pivots = {}
    nullity = 0
    for entries in kernel_matrix(m, p, mu):
        col = {r: Fraction(v) for r, v in entries.items() if v}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            factor = col[low] / pivot[low]
            for r, v in pivot.items():
                val = col.get(r, 0) - factor * v
                if val:
                    col[r] = val
                else:
                    del col[r]
        else:
            nullity += 1
    return nullity


def decompose_by_eigenvalue(model, u, d, tol=1e-12, max_iter=200):
    """Eigenparts by power iteration, one level at a time.

    At the largest catalog eigenvalue lam <= d/2 left, u_{k+1} = L u_k / lam
    converges geometrically (ratio lam_{s-1}/lam_s) to the top eigenpart,
    which is subtracted before the next level.  L vanishes on constants,
    so the level 0 is read off directly: the constant term, when it is
    above tol times the coefficient scale.  Raises RuntimeError when a level
    does not converge within `max_iter` steps.
    """
    catalog = analytic_spectrum(model, d / 2.0)
    levels = sorted((k / 2 for k, mult in enumerate(catalog.multiplicities) if mult), reverse=True)
    parts = {}
    remainder = u
    scale = max(u.coeff_norm(), 1.0)
    for lam in levels:
        if remainder.is_zero(tol * scale):
            break
        if lam == 0.0:
            part = HoloPoly(u.m, {a: c for a, c in remainder.terms.items() if sum(a) == 0 and abs(c) > tol * scale})
            if not part.is_zero():
                parts[lam] = part
            break
        # the stop margin sits two orders below the pruning threshold: the
        # iterate still carries foreign components of about delta / (1 - ratio)
        alphas = list(remainder.terms)
        current = np.array([remainder.terms[a] for a in alphas], dtype=complex)
        step = np.array([sum(a) / (2.0 * lam) for a in alphas])
        for _ in range(max_iter):
            nxt = current * step
            delta = float(np.abs(nxt - current).max())
            current = nxt
            if delta < 0.01 * tol * max(1.0, float(np.abs(current).max(initial=0.0))):
                break
        else:
            raise RuntimeError(f"eigenpart at {lam} did not converge within {max_iter} iterations")
        part = HoloPoly(u.m, {a: c for a, c in zip(alphas, current) if abs(c) > tol * scale})
        if not part.is_zero():
            parts[lam] = part
            remainder = remainder - part
    residual = (u - sum(parts.values(), HoloPoly.zero(u.m))).coeff_norm()
    return EigenDecomposition(parts=parts, residual_norm=residual)


def checked_sum(a, b):
    """a + b, with the result built by the public, validating constructor."""
    merged = dict(a.terms)
    for alpha, c in b.terms.items():
        merged[alpha] = merged.get(alpha, 0.0) + c
    return HoloPoly(a.m, merged)


def checked_scale(u, factor):
    return HoloPoly(u.m, {a: factor * c for a, c in u.terms.items()})


def checked_difference(a, b):
    return checked_sum(a, checked_scale(b, -1.0))


def checked_partial(u, j):
    out = {}
    for alpha, c in u.terms.items():
        if alpha[j] == 0:
            continue
        beta = list(alpha)
        beta[j] -= 1
        out[tuple(beta)] = c * alpha[j]
    return HoloPoly(u.m, out)


def decompose_by_catalog_walk(model, u, d, tol=1e-12):
    """Eigenparts level by level, subtracting each part from a remainder.

    At each catalog eigenvalue lam <= d/2, in descending order, 0 included,
    the terms of the remainder of degree 2 lam above tol times the
    coefficient scale form the part; the walk stops once the remainder is at
    or below that bound.
    """
    catalog = analytic_spectrum(model, d / 2.0)
    levels = sorted((k / 2 for k, mult in enumerate(catalog.multiplicities) if mult), reverse=True)
    parts = {}
    remainder = u
    scale = max(u.coeff_norm(), 1.0)
    for lam in levels:
        if remainder.is_zero(tol * scale):
            break
        part = HoloPoly(
            u.m,
            {a: c for a, c in remainder.terms.items() if sum(a) == 2.0 * lam and abs(c) > tol * scale},
        )
        if not part.is_zero():
            parts[lam] = part
            remainder = checked_difference(remainder, part)
    total = HoloPoly.zero(u.m)
    for part in parts.values():
        total = checked_sum(total, part)
    residual = checked_difference(u, total).coeff_norm()
    return EigenDecomposition(parts=parts, residual_norm=residual)


def _flat_lines(two_m, lambda_max):
    """Hermite lines (k/2, C(2m + k - 1, 2m - 1)) of the flat factor R^{2m}."""
    out = []
    k = 0
    while k / 2 <= lambda_max + _EPS:
        out.append((Fraction(k, 2), math.comb(two_m + k - 1, two_m - 1)))
        k += 1
    return out


def _sphere_lines(lambda_max):
    """Spherical-harmonic lines (l(l+1)/2, 2l + 1) of one sphere factor."""
    out = []
    ell = 0
    while ell * (ell + 1) / 2 <= lambda_max + _EPS:
        out.append((Fraction(ell * (ell + 1), 2), 2 * ell + 1))
        ell += 1
    return out


def _convolve(a, b, lambda_max):
    """Lines of the product of two factors: eigenvalues add, multiplicities multiply."""
    acc = {}
    for ev_a, mult_a in a:
        for ev_b, mult_b in b:
            ev = ev_a + ev_b
            if float(ev) <= lambda_max + _EPS:
                acc[ev] = acc.get(ev, 0) + mult_a * mult_b
    return sorted(acc.items())


def _flat_form_lines(two_m, p, lambda_max):
    m = two_m // 2
    if p > m:
        return []
    out = []
    k = 0
    while (k + p) / 2 <= lambda_max + _EPS:
        out.append((Fraction(k + p, 2), math.comb(m, p) * math.comb(two_m + k - 1, two_m - 1)))
        k += 1
    return out


def form_spectrum(model, p, lambda_max):
    """(p,0)-form lines (eigenvalue, multiplicity) from their own generators.

    Flat lines come from the closed multiplicity C(m, p) C(2m + k - 1, 2m - 1)
    at (k + p)/2; the cylinder's p = 1 lines merge its two blocks in a loop.
    """
    if not model.sphere_factors:
        return _flat_form_lines(2 * model.flat_m, p, lambda_max)
    flat_scalar = _flat_lines(2, lambda_max)
    sphere_scalar = _sphere_lines(lambda_max)
    flat_one = _flat_form_lines(2, 1, lambda_max)
    sphere_one = sphere_scalar[1:]  # the (1,0) eigenforms share the lines l >= 1
    if p == 0:
        return _convolve(sphere_scalar, flat_scalar, lambda_max)
    if p == 2:
        return _convolve(sphere_one, flat_one, lambda_max)
    merged = {}
    for ev, mult in _convolve(sphere_one, flat_scalar, lambda_max) + _convolve(sphere_scalar, flat_one, lambda_max):
        merged[ev] = merged.get(ev, 0) + mult
    return sorted(merged.items())


def catalog_terms(model, lambda_max, p=0):
    """Terms of the t^p catalog's truncated Kunneth product, counted one sphere convolution at a time.

    The flat row has K + 1 entries.  After each sphere factor a degree q is
    kept when it comes from a kept degree by adding 0 or 1 and the factors
    left can still carry it to p; each kept degree convolves a row of K + 1
    entries with theta, whose term x^(l(l+1)) touches the K + 1 - l(l+1)
    entries from l(l+1) on.
    """
    top = math.floor(2 * (lambda_max + _EPS))
    if top < 0:
        return 0
    m, s = model.flat_m, model.sphere_factors
    terms = top + 1
    degrees = {q for q in range(m + 1) if q <= p <= q + s}
    for done in range(1, s + 1):
        degrees = {q + c for q in degrees for c in (0, 1) if q + c <= p <= q + c + s - done}
        for _ in degrees:
            ell = 0
            while ell * (ell + 1) <= top:
                terms += len(range(ell * (ell + 1), top + 1))
                ell += 1
    return terms
