"""Analytic spectra of the drift Laplacian and of the weighted Hodge Laplacian on (p,0)-forms.

Every catalog eigenvalue is a half-integer, so a catalog is one row of
integer multiplicities indexed by k = 2 lambda; eigenvalues become numbers
k/2 only in `SpectrumCatalog.to_dict`.
Multiplicities are real multiplicities of real eigenfunctions: the degree-k
Hermite stratum of a flat factor R^{2m} counts C(2m+k-1, 2m-1) at k/2 and a
sphere factor counts 2l+1 spherical harmonics at l(l+1)/2.

Every catalog is one coefficient of a single generating function in x (for
2 lambda) and the form degree t (the Kunneth formula).  On the flat factor C^m
and s sphere factors it is

    (1 + t x)^m (1 - x)^(-2m) (theta(x) + t (theta(x) - 1))^s,
    theta(x) = sum_l (2l + 1) x^(l(l+1)),

since the weighted Hodge Laplacian acts on u dz^I as the scalar operator
shifted by |I|/2, and a sphere factor's (1,0) eigenforms share the lines
l >= 1 of its nonconstant spherical harmonics.  The scalar catalog is the t^0
coefficient and the (p,0)-form catalog the t^p coefficient, truncated at
x^K with K = floor(2 (lambda_max + eps)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CompletenessError, DomainError, NumericError
from .holopoly import dim_O_d
from .models import ModelShrinker

_EPS = 1e-9

# Bound on the terms `_catalog_work` counts for one catalog: the flat row's
# entries plus the multiply-adds of every sphere convolution.  On a 2-core VM
# the cylinder's catalog at the bound (lambda = 1384, 99,972 terms) builds in
# about 0.006 s, and gaussian(1)'s (100,000 flat entries) in about 0.02 s.
# Every horizon verify-all uses (lambda <= 6) needs fewer than 100.
CATALOG_WORK_LIMIT = 100_000


@dataclass(frozen=True)
class SpectrumCatalog:
    """Multiplicities of the eigenvalues k/2, k = 0..K, complete up to the horizon lambda_max.

    Entry k of `multiplicities` is the multiplicity of k/2, zero when k/2 is
    not an eigenvalue, and K = floor(2 (lambda_max + eps)).
    """

    model: ModelShrinker
    lambda_max: float
    multiplicities: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "lambda_max": self.lambda_max,
            "lines": [
                {"eigenvalue": k / 2, "multiplicity": mult} for k, mult in enumerate(self.multiplicities) if mult
            ],
        }


def _catalog_work(model: ModelShrinker, lambda_max: float, p: int = 0) -> float:
    """Terms `_catalog` builds for the t^p catalog up to lambda_max; inf when 2 lambda_max is not finite.

    The flat row has K + 1 entries.  Each sphere factor convolves one row of
    K + 1 entries with theta per kept degree, and its term x^(l(l+1)) touches
    K + 1 - l(l+1) of them; summed over l = 0..L, with L(L+1) <= K, that is
    (L + 1)(K + 1) - L(L + 1)(L + 2)/3.  After `done` sphere factors the
    kept degrees are those that can still reach t^p, p - s + done..p, within
    the m + done that exist.
    """
    steps = 2 * (lambda_max + _EPS)
    if not math.isfinite(steps):
        return math.inf
    top = math.floor(steps)
    if top < 0:
        return 0
    last = (math.isqrt(4 * top + 1) - 1) // 2
    per_degree = (last + 1) * (top + 1) - last * (last + 1) * (last + 2) // 3
    m, s = model.flat_m, model.sphere_factors
    kept = sum(min(p, m + done) - max(0, p - s + done) + 1 for done in range(1, s + 1))
    return top + 1 + kept * per_degree


def _catalog(model: ModelShrinker, lambda_max: float, p: int = 0) -> SpectrumCatalog:
    """The t^p coefficient of the generating function, complete up to lambda_max.

    Row q holds the multiplicities of form degree q at k = 0..K.  A sphere
    factor maps rows (a, b) of degrees (q, q - 1) to theta a + (theta - 1) b
    = theta (a + b) - b.  Raises NumericError, before any row is built, when
    `_catalog_work` exceeds CATALOG_WORK_LIMIT or lambda_max is not finite.
    """
    work = _catalog_work(model, lambda_max, p)
    if not work <= CATALOG_WORK_LIMIT:
        count = f"{work:,}" if work < 10**15 else f"more than {10**15:,}"
        raise NumericError(
            f"catalog up to lambda_max={lambda_max:g} needs {count} terms, over the limit of {CATALOG_WORK_LIMIT:,}"
        )
    size = max(math.floor(2 * (lambda_max + _EPS)) + 1, 0)
    m, s = model.flat_m, model.sphere_factors
    flat = [math.comb(2 * m + k - 1, 2 * m - 1) for k in range(size)]
    # only the degrees that can still reach t^p are kept
    rows = {
        q: ([0] * q + [math.comb(m, q) * c for c in flat])[:size]
        for q in range(max(0, p - s), min(p, m) + 1)
    }
    theta = [(ell * (ell + 1), 2 * ell + 1) for ell in range(math.isqrt(size) + 1) if ell * (ell + 1) < size]
    for done in range(1, s + 1):
        merged = {}
        for q in range(max(0, p - s + done), min(p, m + done) + 1):
            a, b = rows.get(q), rows.get(q - 1)
            base = [x + y for x, y in zip(a, b)] if a and b else a or b
            out = [0] * size
            for shift, mult in theta:
                out[shift:] = [o + mult * c for o, c in zip(out[shift:], base)]
            merged[q] = [o - c for o, c in zip(out, b)] if b else out
        rows = merged
    return SpectrumCatalog(
        model=model, lambda_max=float(lambda_max), multiplicities=tuple(rows.get(p, [0] * size))
    )


def analytic_spectrum(model: ModelShrinker, lambda_max: float) -> SpectrumCatalog:
    """Complete catalog of drift-Laplacian eigenvalues up to lambda_max: the t^0 coefficient.

    Raises NumericError, before any row is built, when `_catalog_work`
    exceeds CATALOG_WORK_LIMIT or lambda_max is not finite.
    """
    if lambda_max < 0:
        raise DomainError(f"lambda_max must be nonnegative, got {lambda_max}")
    return _catalog(model, lambda_max)


def count_eigenvalues(catalog: SpectrumCatalog, lo: float, hi: float) -> int:
    """Total multiplicity of catalog eigenvalues lambda with lo <= lambda <= hi."""
    if hi > catalog.lambda_max + _EPS:
        raise CompletenessError(
            f"catalog horizon is {catalog.lambda_max}; cannot count up to {hi}"
        )
    row = catalog.multiplicities
    first = max(math.ceil(2 * (lo - _EPS)), 0)
    last = min(math.floor(2 * (hi + _EPS)), len(row) - 1)
    return sum(row[first : last + 1]) if first <= last else 0


@dataclass(frozen=True)
class DimensionBoundResult:
    bound: int
    dim_Od: int
    passed: bool
    count: int

    def to_dict(self) -> dict:
        return {"bound": self.bound, "dim_Od": self.dim_Od, "pass": self.passed, "count": self.count}


def dimension_bound_check(model: ModelShrinker, d: float) -> DimensionBoundResult:
    """Check dim O_d <= 1 + floor(count[1/2, d/2] / 2) on a model.

    The count runs over eigenvalues between 1/2 and d/2 inclusive, with real
    multiplicities, and the half-sum is rounded down since dimensions are
    integers.
    """
    if d < 0:
        raise DomainError(f"growth order d must be nonnegative, got {d}")
    catalog = analytic_spectrum(model, d / 2.0)
    count = count_eigenvalues(catalog, 0.5, d / 2.0)
    bound = 1 + count // 2
    dim = dim_O_d(model, d)
    return DimensionBoundResult(bound=bound, dim_Od=dim, passed=dim <= bound, count=count)
