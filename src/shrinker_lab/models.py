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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RegularityError

# Area of the compact Kahler-Einstein sphere factor (Ric = g/2: round
# 2-sphere of radius sqrt(2)).
SPHERE_FACTOR_AREA = 8.0 * math.pi
# Regularity margin below which |grad b| is treated as degenerate.
REGULARITY_MARGIN = 1e-6


@dataclass(frozen=True)
class ModelShrinker:
    """A closed-form gradient Kahler Ricci shrinker model, stored as its normal form.

    flat_m is the complex dimension of the flat factor and sphere_factors the
    number of compact sphere factors.  A product keeps its factors, which its
    serialization and report tag name; a model without factors is flat C^m or
    the cylinder, one sphere factor times C.
    """

    flat_m: int
    sphere_factors: int = 0
    factors: tuple["ModelShrinker", ...] = ()

    def __post_init__(self):
        if self.flat_m < 1:
            raise ConfigError("a model needs a flat factor of positive complex dimension")
        if self.factors:
            normal = (sum(f.flat_m for f in self.factors), sum(f.sphere_factors for f in self.factors))
        else:
            normal = (1, 1) if self.sphere_factors else (self.flat_m, 0)
        if (self.flat_m, self.sphere_factors) != normal:
            raise ConfigError(
                f"flat_m={self.flat_m}, sphere_factors={self.sphere_factors} is not the normal form"
                f" of a catalog model"
            )

    # -- reduced normal form -------------------------------------------------

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

    def is_regular(self, r):
        """Whether r is a regular level radius, elementwise for an array."""
        r = np.asarray(r, dtype=float)
        return (r > 0) & (r * r > 4.0 * self.sup_S + REGULARITY_MARGIN)

    def require_regular(self, r) -> None:
        """Raise RegularityError naming the first radius of r (a number or an array) that is not regular."""
        rr = np.asarray(r, dtype=float).reshape(-1)
        regular = self.is_regular(rr)
        if not regular.all():
            first = float(rr[np.argmin(regular)])
            raise RegularityError(
                f"r={first} is not a regular level: need r^2 > {4.0 * self.sup_S + REGULARITY_MARGIN:.6g}"
                f" (got r^2 = {first * first:.6g})"
            )

    def flat_radius(self, r):
        """Radius of the flat sphere carrying the level set {b = r}, elementwise for an array."""
        self.require_regular(r)
        r = np.asarray(r, dtype=float)
        return np.sqrt(r * r - 4.0 * self.f_min)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        if self.factors:
            return {"kind": "product", "factors": [f.to_dict() for f in self.factors]}
        if self.sphere_factors:
            return {"kind": "cylinder"}
        return {"kind": "gaussian", "m": self.flat_m}

    @staticmethod
    def from_dict(data: dict) -> "ModelShrinker":
        try:
            kind = data["kind"]
        except (KeyError, TypeError):
            raise ConfigError("model descriptor needs a 'kind' entry (/kind)")
        if kind == "gaussian":
            if "m" not in data:
                raise ConfigError("gaussian model descriptor needs 'm' (/m)")
            m = data["m"]
            if isinstance(m, bool) or not isinstance(m, int):
                raise ConfigError(f"gaussian model descriptor 'm' must be an integer (/m), got {m!r}")
            return gaussian(m)
        if kind == "cylinder":
            return cylinder()
        if kind == "product":
            factors = data.get("factors")
            if not isinstance(factors, list) or not factors:
                raise ConfigError(
                    f"product model descriptor 'factors' must be a nonempty list of model descriptors"
                    f" (/factors), got {factors!r}"
                )
            return product([ModelShrinker.from_dict(f) for f in factors])
        raise ConfigError(f"unknown model kind {kind!r} (/kind)")


def gaussian(m: int) -> ModelShrinker:
    """Flat C^m with potential |z|^2/4."""
    return ModelShrinker(flat_m=m)


def cylinder() -> ModelShrinker:
    """Compact sphere factor (Ric = g/2) times flat C."""
    return ModelShrinker(flat_m=1, sphere_factors=1)


def product(factors: list[ModelShrinker]) -> ModelShrinker:
    return ModelShrinker(
        flat_m=sum(f.flat_m for f in factors),
        sphere_factors=sum(f.sphere_factors for f in factors),
        factors=tuple(factors),
    )


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
