"""Analytic spectrum of the drift Laplacian on model shrinkers.

Eigenvalues are exact half-integers on every catalog model, so they are kept
as fractions internally and only converted to floats at the reporting
boundary.  Multiplicities are real multiplicities of real eigenfunctions:
the degree-k Hermite stratum of a flat factor R^{2m} counts C(2m+k-1, 2m-1)
and the sphere factor counts 2l+1 spherical harmonics at l(l+1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompletenessError, DomainError, NumericError
from .holopoly import dim_O_d
from .models import ModelShrinker

_EPS = 1e-9

# Bound on the lines built plus the line pairs convolved for one catalog.
# Building a catalog at the bound takes under 1 s on a 2-core VM: 100,000 flat
# lines take 0.45 s, and the cylinder's 94,000 units up to lambda = 1000 take
# 0.64 s.  Every horizon verify-all uses (lambda <= 3) needs fewer than 40.
CATALOG_WORK_LIMIT = 100_000


@dataclass(frozen=True)
class SpectralLine:
    eigenvalue: Fraction
    multiplicity: int
    generator_label: str

    def to_dict(self) -> dict:
        return {
            "eigenvalue": float(self.eigenvalue),
            "multiplicity": self.multiplicity,
            "label": self.generator_label,
        }


@dataclass(frozen=True)
class SpectrumCatalog:
    """Sorted eigenvalue lines, complete up to the horizon lambda_max."""

    model: ModelShrinker
    lines: tuple[SpectralLine, ...]
    lambda_max: float

    def __post_init__(self):
        evs = [line.eigenvalue for line in self.lines]
        if any(b <= a for a, b in zip(evs, evs[1:])):
            raise DomainError("catalog eigenvalues must be strictly increasing")
        if any(line.multiplicity < 1 for line in self.lines):
            raise DomainError("multiplicities must be positive")

    def first_nonzero(self) -> SpectralLine:
        for line in self.lines:
            if line.eigenvalue > 0:
                return line
        raise DomainError("catalog has no nonzero eigenvalue")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "lambda_max": self.lambda_max,
            "lines": [line.to_dict() for line in self.lines],
        }


def _flat_lines(two_m: int, lambda_max: float) -> list[tuple[Fraction, int, str]]:
    out = []
    k = 0
    while k / 2 <= lambda_max + _EPS:
        out.append((Fraction(k, 2), math.comb(two_m + k - 1, two_m - 1), f"Hermite degree {k}"))
        k += 1
    return out


def _sphere_lines(lambda_max: float) -> list[tuple[Fraction, int, str]]:
    out = []
    ell = 0
    while ell * (ell + 1) / 2 <= lambda_max + _EPS:
        out.append((Fraction(ell * (ell + 1), 2), 2 * ell + 1, f"spherical harmonic l={ell}"))
        ell += 1
    return out


def _convolve(
    a: list[tuple[Fraction, int, str]],
    b: list[tuple[Fraction, int, str]],
    lambda_max: float,
) -> list[tuple[Fraction, int, str]]:
    acc: dict[Fraction, tuple[int, list[str]]] = {}
    for ev_a, mult_a, lab_a in a:
        for ev_b, mult_b, lab_b in b:
            ev = ev_a + ev_b
            if float(ev) > lambda_max + _EPS:
                continue
            label = lab_b if lab_a == "" else (lab_a if lab_b == "" else f"{lab_a} * {lab_b}")
            mult, labels = acc.get(ev, (0, []))
            acc[ev] = (mult + mult_a * mult_b, labels + [label])
    return [(ev, mult, "; ".join(labels)) for ev, (mult, labels) in sorted(acc.items())]


def _catalog_work(model: ModelShrinker, lambda_max: float) -> float:
    """Upper bound on the lines built and line pairs convolved up to lambda_max.

    A flat factor has floor(2 lambda) + 1 lines and a sphere factor one line
    per l with l(l+1)/2 <= lambda, fewer than sqrt(2 lambda) + 1.  Every
    eigenvalue is a half-integer, so a convolution's result has at most
    floor(2 lambda) + 1 lines, and it visits the product of its inputs' sizes.
    """
    steps = 2.0 * (lambda_max + _EPS)
    sizes = [steps + 1.0] if model.flat_m > 0 else []
    sizes += [math.sqrt(steps) + 1.0] * model.sphere_factors
    work, lines = sum(sizes), sizes[0]
    for size in sizes[1:]:
        work += lines * size
        lines = steps + 1.0
    return work


def _require_catalog_work(model: ModelShrinker, lambda_max: float) -> None:
    """Raise NumericError when `_catalog_work` exceeds CATALOG_WORK_LIMIT or is not finite."""
    work = _catalog_work(model, lambda_max)
    if not work <= CATALOG_WORK_LIMIT:
        raise NumericError(
            f"catalog up to lambda_max={lambda_max:g} needs about {work:.3g} lines and pairs, "
            f"over the limit of {CATALOG_WORK_LIMIT:,}"
        )


def analytic_spectrum(model: ModelShrinker, lambda_max: float) -> SpectrumCatalog:
    """Complete catalog of drift-Laplacian eigenvalues up to lambda_max.

    Raises NumericError, before any line is built, when `_catalog_work`
    exceeds CATALOG_WORK_LIMIT or lambda_max is not finite.
    """
    if lambda_max < 0:
        raise DomainError(f"lambda_max must be nonnegative, got {lambda_max}")
    _require_catalog_work(model, lambda_max)
    parts: list[list[tuple[Fraction, int, str]]] = []
    if model.flat_m > 0:
        parts.append(_flat_lines(2 * model.flat_m, lambda_max))
    for _ in range(model.sphere_factors):
        parts.append(_sphere_lines(lambda_max))
    lines = parts[0]
    for more in parts[1:]:
        lines = _convolve(lines, more, lambda_max)
    return SpectrumCatalog(
        model=model,
        lines=tuple(SpectralLine(ev, mult, label) for ev, mult, label in lines),
        lambda_max=float(lambda_max),
    )


def count_eigenvalues(catalog: SpectrumCatalog, lo: float, hi: float) -> int:
    """Total multiplicity of catalog eigenvalues lambda with lo <= lambda <= hi."""
    if hi > catalog.lambda_max + _EPS:
        raise CompletenessError(
            f"catalog horizon is {catalog.lambda_max}; cannot count up to {hi}"
        )
    return sum(
        line.multiplicity
        for line in catalog.lines
        if lo - _EPS <= float(line.eigenvalue) <= hi + _EPS
    )


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
