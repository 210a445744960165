"""Sparse holomorphic polynomials in several complex variables.

Polynomials are stored as a map from exponent multi-indices to complex
coefficients.  They model holomorphic functions of polynomial growth on the
flat factor of a model shrinker: the growth order of a polynomial equals its
total degree, and the Lie derivative along the soliton vector field acts
diagonally on monomials with eigenvalue ``|alpha| / 2``.  Its eigenparts are
therefore the homogeneous parts, split by degree without a spectral catalog
and keyed by the degree k = 2 lambda, as catalogs index their eigenvalues.
The constants, of eigenvalue 0, are the part keyed 0 like any other degree;
a term at or below the decomposition's tolerance belongs to no part.  Both
operators act on the flat factor alone, so neither reads a model; a
polynomial meets a model's sphere in the rules of the quadrature module,
which check its variable count.

The public constructor ``HoloPoly(m, terms)`` validates every multi-index
(length m, no negative exponent) and every coefficient (finite: a NaN or an
infinity would set the pruning floor and drop every other term), and
coerces integral keys to int tuples and coefficients to complex.  Results of
HoloPoly's own arithmetic have valid keys by construction, so they are only
pruned: zero coefficients and those below PRUNE_REL times the largest one
are dropped, by the same rule.  Each result is merged into one dict and
pruned once: the drift derivative is one pass over the terms, a
decomposition is reconstructed from one merge of its parts, and the
decomposition reads its residual off the terms no part keeps instead of
subtracting the parts again.  The gradient of a polynomial is built once
and kept on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import DomainError

# Coefficients smaller than this times the largest coefficient are dropped.
PRUNE_REL = 1e-14


def _prune(terms: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    """Drop the coefficients below PRUNE_REL times the largest modulus."""
    if not terms:
        return {}
    floor = PRUNE_REL * max(map(abs, terms.values()))
    return {a: c for a, c in terms.items() if abs(c) >= floor}


def _literal_int(value, entry: str) -> int:
    """An integer entry of a JSON literal; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"literal entry {entry!r} must be an integer, got {value!r}")
    return value


def _integral(index: Iterable) -> tuple[int, ...]:
    """The multi-index as a tuple of ints; DomainError naming it when an entry is not integral, as 1.5 or nan is."""
    index = tuple(index)
    try:
        ints = tuple(map(int, index))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != index:
        raise DomainError(f"multi-index {index} has an entry that is not an integer")
    return ints


def _normalize_terms(m: int, terms: Mapping[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    cleaned: dict[tuple[int, ...], complex] = {}
    for alpha, coef in terms.items():
        alpha = _integral(alpha)
        if len(alpha) != m:
            raise DomainError(f"multi-index {alpha} has length {len(alpha)}, expected {m}")
        if any(a < 0 for a in alpha):
            raise DomainError(f"multi-index {alpha} has a negative exponent")
        c = complex(coef)
        if c != 0:
            c = cleaned.get(alpha, 0.0) + c
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise DomainError(f"multi-index {alpha} has the coefficient {c}, which is not finite")
            cleaned[alpha] = c
    return _prune(cleaned)


@dataclass(frozen=True)
class HoloPoly:
    """Sparse polynomial sum_alpha c_alpha z^alpha in m complex variables."""

    m: int
    terms: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize_terms(self.m, self.terms))

    @classmethod
    def _derived(cls, m: int, terms: dict[tuple[int, ...], complex]) -> "HoloPoly":
        """A result of HoloPoly arithmetic, whose keys are valid integer tuples already.

        Adding 0.0 turns a -0.0 imaginary part into +0.0, as the public
        constructor's accumulation does, so both routes store equal bits.
        """
        return cls._as_is(m, _prune({a: 0.0 + c for a, c in terms.items() if c != 0}))

    @classmethod
    def _as_is(cls, m: int, terms: dict[tuple[int, ...], complex]) -> "HoloPoly":
        """A polynomial holding terms that are valid, nonzero and pruned already, as they are."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "m", m)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "HoloPoly":
        return HoloPoly(m, {})

    @staticmethod
    def monomial(m: int, alpha: Iterable[int], coef: complex = 1.0) -> "HoloPoly":
        return HoloPoly(m, {tuple(alpha): coef})

    @staticmethod
    def from_json_dict(data: Mapping) -> "HoloPoly":
        """Parse the JSON literal {"m": 2, "terms": [{"alpha": [2,0], "re": 1.0, "im": 0.0}]}."""
        terms: dict[tuple[int, ...], complex] = {}
        raw_terms = data.get("terms", [])
        m = _literal_int(data.get("m", 0), "m") or (len(raw_terms[0]["alpha"]) if raw_terms else 1)
        for entry in raw_terms:
            alpha = tuple(_literal_int(a, "alpha") for a in entry["alpha"])
            coef = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
            terms[alpha] = terms.get(alpha, 0.0) + coef
        return HoloPoly(m, terms)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"alpha": list(alpha), "re": c.real, "im": c.imag}
                for alpha, c in sorted(self.terms.items())
            ],
        }

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def is_zero(self, tol: float = 0.0) -> bool:
        if not self.terms:
            return True
        return max(abs(c) for c in self.terms.values()) <= tol

    def coeff_norm(self) -> float:
        """Max modulus of the coefficients."""
        if not self.terms:
            return 0.0
        return max(map(abs, self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HoloPoly") -> "HoloPoly":
        if self.m != other.m:
            raise DomainError(f"variable counts differ: {self.m} vs {other.m}")
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            merged[alpha] = merged.get(alpha, 0.0) + c
        return HoloPoly._derived(self.m, merged)

    def __sub__(self, other: "HoloPoly") -> "HoloPoly":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "HoloPoly":
        return HoloPoly._derived(self.m, {a: factor * c for a, c in self.terms.items()})

    def partial(self, j: int) -> "HoloPoly":
        """Derivative with respect to the j-th complex variable (0-based)."""
        out: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.terms.items():
            if alpha[j] == 0:
                continue
            beta = list(alpha)
            beta[j] -= 1
            out[tuple(beta)] = c * alpha[j]
        return HoloPoly._derived(self.m, out)

    def mul_variable(self, j: int) -> "HoloPoly":
        out: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.terms.items():
            beta = list(alpha)
            beta[j] += 1
            out[tuple(beta)] = c
        return HoloPoly._derived(self.m, out)

    def euler(self) -> "HoloPoly":
        """sum_j z_j d/dz_j; z^alpha maps to |alpha| z^alpha."""
        return HoloPoly._derived(self.m, {a: c * sum(a) for a, c in self.terms.items()})

    @cached_property
    def _gradient(self) -> tuple["HoloPoly", ...]:
        return tuple(self.partial(j) for j in range(self.m))


def gradient(u: HoloPoly) -> tuple[HoloPoly, ...]:
    """All complex partial derivatives of u, built on the first call and kept on u."""
    return u._gradient


def lie_derivative_nabla_f(u: HoloPoly) -> HoloPoly:
    """Derivative of u along the soliton vector field: sum_j (z_j/2) du/dz_j.

    On flat factors the potential gradient is half the position field, so the
    operator is half the Euler operator and monomials are eigenvectors with
    eigenvalue |alpha|/2.  Holomorphic functions on compact factors are
    constant, so the operator acts on the flat variables alone and reads no
    model.
    """
    # one pass: halving after the integer degree is exact, as in euler().scale(0.5)
    return HoloPoly._derived(u.m, {a: c * sum(a) * 0.5 for a, c in u.terms.items()})


@dataclass
class EigenDecomposition:
    """Splitting of a polynomial into eigenparts of the drift Lie derivative, keyed by k = 2 lambda."""

    parts: dict[int, HoloPoly]
    residual_norm: float

    def reconstruct(self, m: int) -> HoloPoly:
        """The sum of the parts: their terms, merged into one dict.

        The parts of a decomposition hold terms of one polynomial, unchanged
        and on disjoint supports, so no sum is formed and none falls below
        that polynomial's prune floor: the merge needs no prune.
        """
        return HoloPoly._as_is(m, {a: c for part in self.parts.values() for a, c in part.terms.items()})


# Terms of the remainder at or below this times the coefficient scale are dropped.
DECOMPOSE_TOL = 1e-12


def decompose_by_eigenvalue(u: HoloPoly, d: float) -> EigenDecomposition:
    """Split u into eigenfunctions of the drift Lie derivative.

    The drift derivative is half the Euler operator, so z^alpha is an
    eigenfunction with eigenvalue |alpha|/2 and the eigenpart of u at k/2 is
    its homogeneous part of degree k; no spectral catalog is needed.  The
    terms above DECOMPOSE_TOL times the coefficient scale are grouped by
    degree in one pass, and the group of degree k, pruned, is the part keyed
    k, in descending order; the constants form the part keyed 0 like any
    other degree.  The parts keep u's coefficients unchanged, so u minus
    their sum is the terms at or below the tolerance, and the residual is
    the largest of their moduli.
    """
    if not d >= 0:
        raise DomainError(f"growth bound d must be a nonnegative number, got {d}")
    if u.degree > d:
        raise DomainError(f"degree {u.degree} exceeds growth bound d={d}")
    tol = DECOMPOSE_TOL * max(u.coeff_norm(), 1.0)
    by_degree: dict[int, dict[tuple[int, ...], complex]] = {}
    residual = 0.0
    for alpha, c in u.terms.items():
        if abs(c) > tol:
            by_degree.setdefault(sum(alpha), {})[alpha] = c
        else:
            residual = max(residual, abs(c))
    parts = {k: HoloPoly._derived(u.m, by_degree[k]) for k in sorted(by_degree, reverse=True)}
    return EigenDecomposition(parts=parts, residual_norm=residual)


def monomials(m: int, max_deg: int, min_deg: int = 0) -> Iterator[tuple[int, ...]]:
    """Every exponent alpha in N^m with min_deg <= |alpha| <= max_deg.

    The order is lexicographic with the first exponent varying slowest;
    seeded random polynomials draw their coefficients in this order.
    """
    if m == 0:
        if min_deg <= 0:
            yield ()
        return
    for a in range(max_deg + 1):
        for rest in monomials(m - 1, max_deg - a, min_deg - a):
            yield (a,) + rest


def dim_O_d(model, d: float) -> int:
    """Dimension of holomorphic functions of growth at most d on the model.

    Only flat factors carry nonconstant holomorphic functions, so the space is
    spanned by flat monomials of total degree <= floor(d).
    """
    if d < 0:
        return 0
    k = math.floor(d)
    return math.comb(model.flat_m + k, model.flat_m)


def growth_eigenvalue_consistency(decomp: EigenDecomposition) -> bool:
    """Each eigenpart, keyed by k = 2 lambda, must have degree <= k."""
    return all(part.degree <= k for k, part in decomp.parts.items())
