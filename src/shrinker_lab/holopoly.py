"""Sparse holomorphic polynomials in several complex variables.

Polynomials are stored as a map from exponent multi-indices to complex
coefficients.  They model holomorphic functions of polynomial growth on the
flat factor of a model shrinker: the growth order of a polynomial equals its
total degree, and the Lie derivative along the soliton vector field acts
diagonally on monomials with eigenvalue ``|alpha| / 2``.

The public constructor ``HoloPoly(m, terms)`` validates every multi-index
(length m, no negative exponent) and coerces keys to integer tuples and
coefficients to complex.  Results of HoloPoly's own arithmetic have valid
keys by construction, so they are only pruned: zero coefficients and those
below PRUNE_REL times the largest one are dropped, by the same rule.  The
gradient of a polynomial is built once and kept on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainError

# Coefficients smaller than this times the largest coefficient are dropped.
PRUNE_REL = 1e-14


def _prune(terms: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    """Drop the coefficients below PRUNE_REL times the largest modulus."""
    if not terms:
        return {}
    floor = PRUNE_REL * max(abs(c) for c in terms.values())
    return {a: c for a, c in terms.items() if abs(c) >= floor}


def _normalize_terms(m: int, terms: Mapping[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    cleaned: dict[tuple[int, ...], complex] = {}
    for alpha, coef in terms.items():
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != m:
            raise DomainError(f"multi-index {alpha} has length {len(alpha)}, expected {m}")
        if any(a < 0 for a in alpha):
            raise DomainError(f"multi-index {alpha} has a negative exponent")
        c = complex(coef)
        if c != 0:
            cleaned[alpha] = cleaned.get(alpha, 0.0) + c
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
        poly = object.__new__(cls)
        object.__setattr__(poly, "m", m)
        object.__setattr__(poly, "terms", _prune({a: 0.0 + c for a, c in terms.items() if c != 0}))
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "HoloPoly":
        return HoloPoly(m, {})

    @staticmethod
    def constant(m: int, value: complex) -> "HoloPoly":
        return HoloPoly(m, {(0,) * m: value})

    @staticmethod
    def monomial(m: int, alpha: Iterable[int], coef: complex = 1.0) -> "HoloPoly":
        return HoloPoly(m, {tuple(alpha): coef})

    @staticmethod
    def from_json_dict(data: Mapping) -> "HoloPoly":
        """Parse the JSON literal {"m": 2, "terms": [{"alpha": [2,0], "re": 1.0, "im": 0.0}]}."""
        terms: dict[tuple[int, ...], complex] = {}
        raw_terms = data.get("terms", [])
        m = int(data.get("m", 0)) or (len(raw_terms[0]["alpha"]) if raw_terms else 1)
        for entry in raw_terms:
            alpha = tuple(int(a) for a in entry["alpha"])
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
        return max(abs(c) for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HoloPoly") -> "HoloPoly":
        if self.m != other.m:
            raise DomainError(f"variable counts differ: {self.m} vs {other.m}")
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            merged[alpha] = merged.get(alpha, 0.0) + c
        return HoloPoly._derived(self.m, merged)

    def __sub__(self, other: "HoloPoly") -> "HoloPoly":
        if self.m != other.m:
            raise DomainError(f"variable counts differ: {self.m} vs {other.m}")
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            merged[alpha] = merged.get(alpha, 0.0) + -1.0 * c
        return HoloPoly._derived(self.m, merged)

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

    def homogeneous_parts(self) -> dict[int, "HoloPoly"]:
        """Split u = sum_k u_k into nonzero parts homogeneous of degree k."""
        parts: dict[int, dict[tuple[int, ...], complex]] = {}
        for alpha, c in self.terms.items():
            parts.setdefault(sum(alpha), {})[alpha] = c
        return {k: HoloPoly._derived(self.m, terms) for k, terms in parts.items()}

    @cached_property
    def _gradient(self) -> tuple["HoloPoly", ...]:
        return tuple(self.partial(j) for j in range(self.m))


def evaluate(u: HoloPoly, z) -> complex | np.ndarray:
    """Evaluate u at a point of C^m or at an array of points of shape (..., m)."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim == 0:
        if u.m != 1:
            raise DomainError(f"point has 1 coordinate, polynomial has {u.m}")
        zs = zs.reshape(1)
    if zs.shape[-1] != u.m:
        raise DomainError(f"point has {zs.shape[-1]} coordinates, polynomial has {u.m}")
    if not u.terms:
        out = np.zeros(zs.shape[:-1], dtype=complex)
        return complex(out) if out.ndim == 0 else out
    # Powers are shared between terms: pows[j][k] = z_j^k on the whole batch.
    maxdeg = [0] * u.m
    for alpha in u.terms:
        for j, a in enumerate(alpha):
            maxdeg[j] = max(maxdeg[j], a)
    pows = []
    for j in range(u.m):
        col = zs[..., j]
        p = [np.ones_like(col)]
        for _ in range(maxdeg[j]):
            p.append(p[-1] * col)
        pows.append(p)
    acc = np.zeros(zs.shape[:-1], dtype=complex)
    for alpha, c in u.terms.items():
        term = None
        for j, a in enumerate(alpha):
            if a == 0:
                continue
            term = pows[j][a] if term is None else term * pows[j][a]
        acc = acc + c * (term if term is not None else 1.0)
    if acc.ndim == 0:
        return complex(acc)
    return acc


def evaluate_parts(u: HoloPoly, z: np.ndarray, degrees) -> np.ndarray:
    """Homogeneous parts of u at points z of shape (K, m).

    Row i holds the part of degree ``degrees[i]``, zero where u has none.
    """
    parts = u.homogeneous_parts()
    out = np.zeros((len(degrees), z.shape[0]), dtype=complex)
    for i, k in enumerate(degrees):
        if k in parts:
            out[i] = evaluate(parts[k], z)
    return out


def gradient(u: HoloPoly) -> tuple[HoloPoly, ...]:
    """All complex partial derivatives of u, built on the first call and kept on u."""
    return u._gradient


def lie_derivative_nabla_f(model, u: HoloPoly) -> HoloPoly:
    """Derivative of u along the soliton vector field: sum_j (z_j/2) du/dz_j.

    On flat factors the potential gradient is half the position field, so the
    operator is half the Euler operator and monomials are eigenvectors with
    eigenvalue |alpha|/2.  Holomorphic functions on compact factors are
    constant, so u may only involve the model's flat variables.
    """
    if u.m != model.flat_m:
        raise DomainError(
            f"polynomial has {u.m} variables but the model has {model.flat_m} flat variables"
        )
    return u.euler().scale(0.5)


@dataclass
class EigenDecomposition:
    """Splitting of a polynomial into eigenparts of the drift Lie derivative."""

    parts: dict[float, HoloPoly]
    residual_norm: float

    def reconstruct(self, m: int) -> HoloPoly:
        total = HoloPoly.zero(m)
        for part in self.parts.values():
            total = total + part
        return total


# Terms of the remainder at or below this times the coefficient scale are dropped.
DECOMPOSE_TOL = 1e-12


def decompose_by_eigenvalue(model, u: HoloPoly, d: float) -> EigenDecomposition:
    """Split u into eigenfunctions of the drift Lie derivative.

    The drift derivative is half the Euler operator, so z^alpha is an
    eigenfunction with eigenvalue |alpha|/2 and the eigenpart of u at lam is
    its homogeneous part of degree 2 lam.  The terms above DECOMPOSE_TOL times
    the coefficient scale are grouped by degree in one pass.  The catalog
    eigenvalues <= d/2 are then visited in descending order, and the group of
    degree 2 lam, pruned, is the part at lam; a level that is not a
    half-integer has no group.  The terms no part takes form the constant
    (eigenvalue 0) part, unless all of them are at or below the tolerance.
    """
    if u.degree > d:
        raise DomainError(f"degree {u.degree} exceeds growth bound d={d}")
    from .spectrum import analytic_spectrum  # local import to avoid a cycle

    if u.m != model.flat_m:
        raise DomainError(
            f"polynomial has {u.m} variables but the model has {model.flat_m} flat variables"
        )
    catalog = analytic_spectrum(model, d / 2.0)
    levels = sorted((float(line.eigenvalue) for line in catalog.lines), reverse=True)
    tol = DECOMPOSE_TOL * max(u.coeff_norm(), 1.0)
    by_degree: dict[int, dict[tuple[int, ...], complex]] = {}
    for alpha, c in u.terms.items():
        if abs(c) > tol:
            by_degree.setdefault(sum(alpha), {})[alpha] = c
    parts: dict[float, HoloPoly] = {}
    taken: set[tuple[int, ...]] = set()
    for lam in levels:
        group = by_degree.get(2.0 * lam) if lam > 0.0 else None
        if group:
            parts[lam] = HoloPoly._derived(u.m, group)
            taken.update(parts[lam].terms)
    remainder = {a: c for a, c in u.terms.items() if a not in taken}
    if any(abs(c) > tol for c in remainder.values()):
        parts[0.0] = HoloPoly._derived(u.m, remainder)
    residual = (u - sum(parts.values(), HoloPoly.zero(u.m))).coeff_norm()
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
    """Each eigenpart must have degree <= twice its eigenvalue."""
    for lam, part in decomp.parts.items():
        if part.is_zero():
            continue
        if part.degree > 2.0 * lam + 1e-9:
            return False
    return True
