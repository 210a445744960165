"""Geometry records, regularity handling and model serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shrinker_lab.errors import ConfigError, DomainError, RegularityError
from shrinker_lab.models import ModelShrinker, cylinder, gaussian, geometry_at, product


def test_gaussian_geometry_exact():
    model = gaussian(1)
    rec = geometry_at(model, [3.0 + 0.0j])
    assert rec.f == 2.25
    assert rec.S == 0.0
    assert rec.b == 3.0
    assert rec.grad_b_sq == 1.0
    assert rec.grad_f_sq == 2.25


def test_cylinder_geometry_at_w4():
    rec = geometry_at(cylinder(), [4.0 + 0.0j])
    assert rec.f == 5.0
    assert rec.S == 1.0
    assert math.isclose(rec.b, 2.0 * math.sqrt(5.0))
    assert math.isclose(rec.grad_b_sq, 0.8)
    assert math.isclose(rec.grad_f_sq, 4.0)


@pytest.mark.parametrize("model", [gaussian(1), gaussian(2), cylinder(), product([cylinder(), gaussian(1)])])
def test_normalization_identity_sampled(model):
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.normal(size=model.flat_m) + 1j * rng.normal(size=model.flat_m)
        rec = geometry_at(model, 1.5 * z)
        assert abs(rec.S + rec.grad_f_sq - rec.f) < 1e-12
        assert abs(rec.grad_b_sq + 4.0 * rec.S / rec.b**2 - 1.0) < 1e-12


@pytest.mark.parametrize("model", [gaussian(2), cylinder()])
def test_grad_f_matches_finite_differences(model):
    # |grad f|^2 from the closed form must agree with numeric differentiation
    rng = np.random.default_rng(11)
    z = rng.normal(size=model.flat_m) + 1j * rng.normal(size=model.flat_m)
    h = 1e-6
    grad_sq = 0.0
    for j in range(model.flat_m):
        for step in (h, 1j * h):
            zp, zm = z.copy(), z.copy()
            zp[j] += step
            zm[j] -= step
            diff = (model.potential(zp) - model.potential(zm)) / (2.0 * h)
            grad_sq += diff * diff
    rec = geometry_at(model, z)
    assert math.isclose(grad_sq, rec.grad_f_sq, rel_tol=1e-8, abs_tol=1e-8)


def test_point_shape_validation():
    with pytest.raises(DomainError):
        geometry_at(gaussian(2), [1.0 + 0.0j])
    with pytest.raises(DomainError):
        geometry_at(gaussian(1), 0.0)  # b = 0 at the potential minimum


def test_regularity_margin():
    cyl = cylinder()
    assert cyl.is_regular(2.1)
    assert not cyl.is_regular(2.0)
    with pytest.raises(RegularityError) as err:
        cyl.require_regular(1.5)
    assert "r^2" in str(err.value)
    assert gaussian(1).is_regular(1e-2)


def test_product_composition():
    combo = product([cylinder(), gaussian(2)])
    assert combo.flat_m == 3
    assert combo.m == 4
    assert combo.n == 8
    assert combo.s_const == 1.0
    assert combo.compact_area == 8.0 * math.pi
    double = product([cylinder(), cylinder()])
    assert double.s_const == 2.0
    assert double.f_min == 2.0


def test_product_potential_adds_factorwise():
    combo = product([cylinder(), gaussian(1)])
    w, z = 3.0 + 1.0j, -2.0 + 0.5j
    total = combo.potential([w, z])
    assert math.isclose(total, cylinder().potential([w]) + gaussian(1).potential([z]))


def test_serialization_round_trip():
    for model in (gaussian(3), cylinder(), product([cylinder(), gaussian(1)])):
        rebuilt = ModelShrinker.from_dict(model.to_dict())
        assert rebuilt == model


def test_bad_descriptors():
    with pytest.raises(ConfigError):
        ModelShrinker.from_dict({"kind": "torus"})
    with pytest.raises(ConfigError):
        ModelShrinker.from_dict({"kind": "gaussian"})
    with pytest.raises(ConfigError):
        gaussian(0)
    for factors in (3, {"kind": "cylinder"}, [], None):
        with pytest.raises(ConfigError, match="/factors"):
            ModelShrinker.from_dict({"kind": "product", "factors": factors})


def test_models_store_their_normal_form():
    model = product([cylinder(), cylinder(), gaussian(2)])
    assert (model.flat_m, model.sphere_factors, len(model.factors)) == (4, 2, 3)
    assert (cylinder().flat_m, cylinder().sphere_factors, cylinder().factors) == (1, 1, ())
    # without factors a normal form is flat C^m or the cylinder; with them, their sums
    for flat_m, sphere_factors, factors in ((2, 1, ()), (1, 2, ()), (3, 1, (cylinder(), gaussian(1)))):
        with pytest.raises(ConfigError):
            ModelShrinker(flat_m, sphere_factors, factors)
