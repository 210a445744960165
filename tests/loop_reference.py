"""Element-by-element reference loops for the discrete oracles and eigenparts.

The package runs its Sturm counts and Newton passes on Python floats,
factors the backward-Euler matrix once per run, solves each step by summation
factors, one cumulative sum per recurrence over equal row blocks, and ranks
the contraction kernel one block per support size.  The loops below index
numpy arrays one element at a time and redo the elimination at every step.
`tridiagonal_eigenvalues` is the package's algorithm written as such a loop:
it isolates each eigenvalue by Sturm counts and refines it by safeguarded
Newton, and keeps its counts in a list that it scans for each bracket
instead of a dict.  Its passes do the same floating-point operations in the
same order, so the tests require equal spectra, not close ones.  The block sums hold the
substitution's terms in another order, so heat stepping is matched element
by element to a relative 1e-12 instead.  The
contraction kernel is ranked here as one whole sparse matrix, by exact
elimination over the rationals.

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

The package builds form spectra by convolving the scalar lines of the
spectrum module; `form_spectrum` below keeps the separate (p,0) line
generators and the merge loop they replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from shrinker_lab.holopoly import EigenDecomposition, HoloPoly
from shrinker_lab.oracle1d import discretize
from shrinker_lab.spectrum import _convolve, _flat_lines, _sphere_lines, analytic_spectrum

_EPS = 1e-9


def dense(diag, off):
    """The symmetric tridiagonal matrix (diag, off) as a dense array."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def sturm_count(diag, off, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    count = 0
    q = 1.0
    for i in range(diag.size):
        e2 = off[i - 1] ** 2 if i > 0 else 0.0
        q = diag[i] - x - e2 / q
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = 1e-300
    return count


def newton_pass(diag, off, x):
    """The Sturm count at x and S = sum q_i' / q_i, the log-derivative of det(T - x)."""
    count = 0
    q = 1.0
    dq = 0.0
    s = 0.0
    for i in range(diag.size):
        e2 = off[i - 1] ** 2 if i > 0 else 0.0
        r = e2 / q
        dq = r / q * dq - 1.0
        q = diag[i] - x - r
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = 1e-300
        s += dq / q
    return count, s


def tridiagonal_eigenvalues(diag, off, k):
    """The k smallest eigenvalues: isolate by `sturm_count`, refine by Newton on `newton_pass`.

    Every (x, count) evaluated is kept in `seen`; eigenvalue j bisects the
    tightest bracket they make until it holds eigenvalue j alone, then takes
    Newton steps x - 1/S that stay inside the bracket and bisects otherwise.
    It stops when the step or the bracket is within 4 ulps of x plus eps
    times the span; a bracket that gets there first returns its midpoint.
    """
    n = diag.size
    eps = np.finfo(float).eps
    ulps, max_passes = 4, 200
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    span = max(hi - lo, 1.0)
    seen = []
    out = np.empty(k)
    for j in range(k):
        a, count_a, b, count_b = lo, 0, hi, n
        for x, c in seen:
            if c <= j and x > a:
                a, count_a = x, c
            if c > j and x < b:
                b, count_b = x, c
        x = 0.5 * (a + b)
        for _ in range(max_passes):
            tol = eps * (ulps * abs(x) + span)
            if b - a <= tol:
                out[j] = 0.5 * (a + b)
                break
            newton = count_a == j and count_b == j + 1
            if newton:
                count, s = newton_pass(diag, off, x)
            else:
                count = sturm_count(diag, off, x)
            seen.append((x, count))
            if count <= j:
                a, count_a = x, count
            else:
                b, count_b = x, count
            if newton and s != 0.0:
                step = 1.0 / s
                if a < x - step < b:
                    if abs(step) <= tol:
                        out[j] = x - step
                        break
                    x = x - step
                    continue
            x = 0.5 * (a + b)
        else:
            raise RuntimeError(f"eigenvalue {j} did not converge in {max_passes} passes")
    return out


def oracle_spectrum_1d(X=12.0, N=800, k_eigs=5, shift=0.0):
    op = discretize(X, N, shift=shift)
    return tridiagonal_eigenvalues(op.diag, op.off, k_eigs)


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


def timestep_oracle(u0, s0, s1, N_grid=800, N_steps=200, X=12.0, extrapolate=False):
    """Backward Euler with a full tridiagonal solve at every step."""
    op = discretize(X, N_grid)
    x = op.grid
    vals0 = np.asarray(u0(x[1:-1]), dtype=float)
    stiff_diag = op.diag * op.weight
    stiff_off = op.off * np.sqrt(op.weight[:-1] * op.weight[1:])

    def run(steps):
        ds = (s1 - s0) / steps
        diag = op.weight + ds * stiff_diag
        off = ds * stiff_off
        u = vals0.copy()
        for _ in range(steps):
            u = thomas_solve(diag, off, op.weight * u)
        return u

    u = run(N_steps)
    if extrapolate:
        u = 2.0 * u - run(max(N_steps // 2, 1))
    full = np.zeros_like(x)
    full[1:-1] = u
    return x, full


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
    which is subtracted before the next level.  Raises RuntimeError when a
    level does not converge within `max_iter` steps.
    """
    catalog = analytic_spectrum(model, d / 2.0)
    levels = sorted((float(line.eigenvalue) for line in catalog.lines), reverse=True)
    parts = {}
    remainder = u
    scale = max(u.coeff_norm(), 1.0)
    for lam in levels:
        if remainder.is_zero(tol * scale):
            break
        if lam == 0.0:
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
    if not remainder.is_zero(tol * scale):
        parts[0.0] = remainder
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

    At each catalog eigenvalue lam <= d/2, in descending order, the terms of
    the remainder of degree 2 lam above tol times the coefficient scale form
    the part; the walk stops once the remainder is at or below that bound.
    """
    catalog = analytic_spectrum(model, d / 2.0)
    levels = sorted((float(line.eigenvalue) for line in catalog.lines), reverse=True)
    parts = {}
    remainder = u
    scale = max(u.coeff_norm(), 1.0)
    for lam in levels:
        if remainder.is_zero(tol * scale):
            break
        if lam == 0.0:
            break
        part = HoloPoly(
            u.m,
            {a: c for a, c in remainder.terms.items() if sum(a) == 2.0 * lam and abs(c) > tol * scale},
        )
        if not part.is_zero():
            parts[lam] = part
            remainder = checked_difference(remainder, part)
    if not remainder.is_zero(tol * scale):
        parts[0.0] = remainder
    total = HoloPoly.zero(u.m)
    for part in parts.values():
        total = checked_sum(total, part)
    residual = checked_difference(u, total).coeff_norm()
    return EigenDecomposition(parts=parts, residual_norm=residual)


def _flat_form_lines(two_m, p, lambda_max):
    m = two_m // 2
    if p > m:
        return []
    out = []
    k = 0
    while (k + p) / 2 <= lambda_max + _EPS:
        mult = math.comb(m, p) * math.comb(two_m + k - 1, two_m - 1)
        out.append((Fraction(k + p, 2), mult, f"degree {k} coefficients on dz^({p} of {m})"))
        k += 1
    return out


def _sphere_one_form_lines(lambda_max):
    out = []
    ell = 1
    while ell * (ell + 1) / 2 <= lambda_max + _EPS:
        out.append((Fraction(ell * (ell + 1), 2), 2 * ell + 1, f"sphere (1,0) eigenform l={ell}"))
        ell += 1
    return out


def form_spectrum(model, p, lambda_max):
    """(p,0)-form lines (eigenvalue, multiplicity, label) from their own generators.

    Flat lines come from the closed multiplicity C(m, p) C(2m + k - 1, 2m - 1)
    at (k + p)/2; the cylinder's p = 1 lines merge its two blocks in a loop.
    """
    if not model.sphere_factors:
        return _flat_form_lines(2 * model.flat_m, p, lambda_max)
    flat_scalar = _flat_lines(2, lambda_max)
    sphere_scalar = _sphere_lines(lambda_max)
    flat_one = _flat_form_lines(2, 1, lambda_max)
    sphere_one = _sphere_one_form_lines(lambda_max)
    if p == 0:
        return _convolve(sphere_scalar, flat_scalar, lambda_max)
    if p == 2:
        return _convolve(sphere_one, flat_one, lambda_max)
    merged = {}
    for ev, mult, label in _convolve(sphere_one, flat_scalar, lambda_max) + _convolve(
        sphere_scalar, flat_one, lambda_max
    ):
        got = merged.get(ev, (0, []))
        merged[ev] = (got[0] + mult, got[1] + [label])
    return [(ev, mult, "; ".join(labels)) for ev, (mult, labels) in sorted(merged.items())]
