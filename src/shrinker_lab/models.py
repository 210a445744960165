"""Closed-form model shrinkers and their pointwise geometry.

Every model in the catalog (flat Gaussian factors, the compact
Kahler-Einstein sphere factor of the cylinder, and finite products) reduces
to the same normal form: a flat factor C^flat_m carrying the potential
|z|^2/4, shifted by a constant contributed by the compact factors, whose
total area and constant scalar curvature are tracked separately.  All
pointwise quantities below follow from that normal form:

    f(z) = f_floor + |z|^2 / 4        S = f_floor (constant)
    b = 2 sqrt(f)                     |grad b|^2 = 1 - 4 S / b^2
    |grad f|^2 = f - S = |z|^2 / 4

Points are given by their flat coordinates only; compact factors never enter
any integrand of the verification suite (holomorphic data is constant on
them) and are folded into area weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, RegularityError

# Area of the compact Kahler-Einstein sphere factor (Ric = g/2: round
# 2-sphere of radius sqrt(2)).
SPHERE_FACTOR_AREA = 8.0 * math.pi
# Regularity margin below which |grad b| is treated as degenerate.
REGULARITY_MARGIN = 1e-6


@dataclass(frozen=True)
class ModelShrinker:
    """Descriptor of a closed-form gradient Kahler Ricci shrinker model."""

    kind: str
    m_flat_gaussian: int = 0
    factors: tuple["ModelShrinker", ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("gaussian", "cylinder", "product"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == "gaussian" and self.m_flat_gaussian < 1:
            raise ConfigError("gaussian model needs a positive complex dimension")
        if self.kind == "product" and len(self.factors) < 1:
            raise ConfigError("product model needs at least one factor")

    # -- reduced normal form -------------------------------------------------

    @property
    def flat_m(self) -> int:
        """Complex dimension of the flat factor."""
        if self.kind == "gaussian":
            return self.m_flat_gaussian
        if self.kind == "cylinder":
            return 1
        return sum(f.flat_m for f in self.factors)

    @property
    def sphere_factors(self) -> int:
        if self.kind == "gaussian":
            return 0
        if self.kind == "cylinder":
            return 1
        return sum(f.sphere_factors for f in self.factors)

    @property
    def m(self) -> int:
        """Total complex dimension."""
        return self.flat_m + self.sphere_factors

    @property
    def n(self) -> int:
        """Total real dimension."""
        return 2 * self.m

    @property
    def s_const(self) -> float:
        """Scalar curvature, constant on every catalog model."""
        return float(self.sphere_factors)

    @property
    def sup_S(self) -> float:
        return self.s_const

    @property
    def f_min(self) -> float:
        """Minimum of the potential; the compact factors shift f by S."""
        return self.s_const

    @property
    def compact_area(self) -> float:
        return SPHERE_FACTOR_AREA ** self.sphere_factors

    # -- points and radii ------------------------------------------------------

    def check_point(self, z) -> np.ndarray:
        zs = np.asarray(z, dtype=complex)
        if zs.ndim == 0:
            zs = zs.reshape(1)
        if zs.shape != (self.flat_m,):
            raise DomainError(
                f"point has shape {zs.shape}, expected ({self.flat_m},) flat coordinates"
            )
        return zs

    def potential(self, z) -> float:
        zs = self.check_point(z)
        return self.f_min + 0.25 * float(np.sum(np.abs(zs) ** 2))

    def is_regular(self, r: float) -> bool:
        return r > 0 and r * r > 4.0 * self.sup_S + REGULARITY_MARGIN

    def require_regular(self, r: float) -> None:
        if not self.is_regular(r):
            raise RegularityError(
                f"r={r} is not a regular level: need r^2 > {4.0 * self.sup_S + REGULARITY_MARGIN:.6g}"
                f" (got r^2 = {r * r:.6g})"
            )

    def flat_radius(self, r: float) -> float:
        """Radius of the flat sphere carrying the level set {b = r}."""
        self.require_regular(r)
        return math.sqrt(r * r - 4.0 * self.f_min)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "m": self.m_flat_gaussian}
        if self.kind == "cylinder":
            return {"kind": "cylinder"}
        return {"kind": "product", "factors": [f.to_dict() for f in self.factors]}

    @staticmethod
    def from_dict(data: dict) -> "ModelShrinker":
        try:
            kind = data["kind"]
        except (KeyError, TypeError):
            raise ConfigError("model descriptor needs a 'kind' entry (/kind)")
        if kind == "gaussian":
            if "m" not in data:
                raise ConfigError("gaussian model descriptor needs 'm' (/m)")
            return gaussian(int(data["m"]))
        if kind == "cylinder":
            return cylinder()
        if kind == "product":
            return product([ModelShrinker.from_dict(f) for f in data.get("factors", [])])
        raise ConfigError(f"unknown model kind {kind!r} (/kind)")


def gaussian(m: int) -> ModelShrinker:
    """Flat C^m with potential |z|^2/4."""
    return ModelShrinker(kind="gaussian", m_flat_gaussian=m)


def cylinder() -> ModelShrinker:
    """Compact sphere factor (Ric = g/2) times flat C."""
    return ModelShrinker(kind="cylinder")


def product(factors: list[ModelShrinker]) -> ModelShrinker:
    return ModelShrinker(kind="product", factors=tuple(factors))


@dataclass(frozen=True)
class GeometryRecord:
    f: float
    S: float
    b: float
    grad_b_sq: float
    grad_f_sq: float


def geometry_at(model: ModelShrinker, z) -> GeometryRecord:
    """All pointwise geometric quantities at a flat-coordinate point.

    The returned record satisfies S + |grad f|^2 = f and
    |grad b|^2 = 1 - 4S/b^2 to machine precision by construction; tests
    validate both against finite differences of the potential.
    """
    f = model.potential(z)
    s = model.s_const
    b = 2.0 * math.sqrt(f)
    if b == 0.0:
        raise DomainError("b = 0: the gradient of b is undefined at the potential minimum")
    return GeometryRecord(
        f=f,
        S=s,
        b=b,
        grad_b_sq=1.0 - 4.0 * s / (b * b),
        grad_f_sq=f - s,
    )
