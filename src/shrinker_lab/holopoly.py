"""Sparse holomorphic polynomials in several complex variables.

Polynomials are stored as a map from exponent multi-indices to complex
coefficients.  They model holomorphic functions of polynomial growth on the
flat factor of a model shrinker: the growth order of a polynomial equals its
total degree, and the Lie derivative along the soliton vector field acts
diagonally on monomials with eigenvalue ``|alpha| / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainError, IterationError

# Coefficients smaller than this times the largest coefficient are dropped.
PRUNE_REL = 1e-14


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
    if not cleaned:
        return {}
    top = max(abs(c) for c in cleaned.values())
    return {a: c for a, c in cleaned.items() if abs(c) >= PRUNE_REL * top}


@dataclass(frozen=True)
class HoloPoly:
    """Sparse polynomial sum_alpha c_alpha z^alpha in m complex variables."""

    m: int
    terms: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize_terms(self.m, self.terms))

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
    def variable(m: int, j: int) -> "HoloPoly":
        alpha = [0] * m
        alpha[j] = 1
        return HoloPoly(m, {tuple(alpha): 1.0})

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
        return HoloPoly(self.m, merged)

    def __sub__(self, other: "HoloPoly") -> "HoloPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "HoloPoly") -> "HoloPoly":
        if self.m != other.m:
            raise DomainError(f"variable counts differ: {self.m} vs {other.m}")
        prod: dict[tuple[int, ...], complex] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                prod[key] = prod.get(key, 0.0) + ca * cb
        return HoloPoly(self.m, prod)

    def scale(self, factor: complex) -> "HoloPoly":
        return HoloPoly(self.m, {a: factor * c for a, c in self.terms.items()})

    def partial(self, j: int) -> "HoloPoly":
        """Derivative with respect to the j-th complex variable (0-based)."""
        out: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.terms.items():
            if alpha[j] == 0:
                continue
            beta = list(alpha)
            beta[j] -= 1
            out[tuple(beta)] = c * alpha[j]
        return HoloPoly(self.m, out)

    def mul_variable(self, j: int) -> "HoloPoly":
        out: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.terms.items():
            beta = list(alpha)
            beta[j] += 1
            out[tuple(beta)] = c
        return HoloPoly(self.m, out)

    def euler(self) -> "HoloPoly":
        """sum_j z_j d/dz_j; z^alpha maps to |alpha| z^alpha."""
        return HoloPoly(self.m, {a: c * sum(a) for a, c in self.terms.items()})

    def homogeneous_parts(self) -> dict[int, "HoloPoly"]:
        """Split u = sum_k u_k into nonzero parts homogeneous of degree k."""
        parts: dict[int, dict[tuple[int, ...], complex]] = {}
        for alpha, c in self.terms.items():
            parts.setdefault(sum(alpha), {})[alpha] = c
        return {k: HoloPoly(self.m, terms) for k, terms in parts.items()}

    # -- evaluation --------------------------------------------------------

    def __call__(self, z) -> complex | np.ndarray:
        return evaluate(self, z)


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


def gradient(u: HoloPoly) -> list[HoloPoly]:
    """All complex partial derivatives of u."""
    return [u.partial(j) for j in range(u.m)]


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


def decompose_by_eigenvalue(
    model,
    u: HoloPoly,
    d: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> EigenDecomposition:
    """Split u into eigenfunctions of the drift Lie derivative by power iteration.

    Repeatedly applies u_{k+1} = L u_k / lam_s with lam_s the largest catalog
    eigenvalue <= d/2; the iterates converge geometrically (ratio lam_{s-1}/lam_s)
    to the top eigenpart, which is subtracted before recursing on the next
    eigenvalue.  The final remainder is the constant (eigenvalue 0) part.
    """
    if u.degree > d:
        raise DomainError(f"degree {u.degree} exceeds growth bound d={d}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    from .spectrum import analytic_spectrum  # local import to avoid a cycle

    if u.m != model.flat_m:
        raise DomainError(
            f"polynomial has {u.m} variables but the model has {model.flat_m} flat variables"
        )
    catalog = analytic_spectrum(model, d / 2.0)
    levels = sorted((float(line.eigenvalue) for line in catalog.lines), reverse=True)
    parts: dict[float, HoloPoly] = {}
    remainder = u
    scale = max(u.coeff_norm(), 1.0)
    for idx, lam in enumerate(levels):
        if remainder.is_zero(tol * scale):
            break
        if lam == 0.0:
            break
        # The flow derivative is diagonal on the fixed monomial support, so
        # each power-iteration step is one elementwise multiply; the stop
        # margin sits two orders below the pruning threshold because the
        # iterate still carries foreign components of size about
        # delta / (1 - ratio) when the successive difference is delta.
        alphas = list(remainder.terms)
        current = np.array([remainder.terms[a] for a in alphas], dtype=complex)
        step = np.array([sum(a) / (2.0 * lam) for a in alphas])
        converged = False
        for _ in range(max_iter):
            nxt = current * step
            delta = float(np.abs(nxt - current).max())
            current = nxt
            if delta < 0.01 * tol * max(1.0, float(np.abs(current).max(initial=0.0))):
                converged = True
                break
        if not converged:
            ratio = levels[idx + 1] / lam if idx + 1 < len(levels) else 0.0
            raise IterationError(
                f"eigenpart at {lam} did not converge within {max_iter} iterations",
                contraction_ratio=ratio,
            )
        part = HoloPoly(
            u.m, {a: c for a, c in zip(alphas, current) if abs(c) > tol * scale}
        )
        if not part.is_zero():
            parts[lam] = part
            remainder = remainder - part
    if not remainder.is_zero(tol * scale):
        parts[0.0] = remainder
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
