"""Quadrature rules, closed-form moments and the volume identity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shrinker_lab.errors import ConfigError, RegularityError
from shrinker_lab.holopoly import HoloPoly, evaluate
from shrinker_lab.models import cylinder, gaussian
from shrinker_lab.quadrature import (
    ball_moment,
    ball_quadrature,
    level_set_quadrature,
    raw_level_area,
    shell_quadrature,
    sphere_moment,
    unit_ball_volume,
    unit_sphere_area,
    verify_volume_identity,
    volume_area,
    weighted_space_quadrature,
)

from brute_force import expand


def _total(rule):
    """Total weight of a product rule: radial sum times direction sum."""
    return rule.radial_weights.sum() * rule.weights.sum()


def test_level_set_total_weights():
    # circle of radius 2 in C^1: length 4 pi
    q = level_set_quadrature(gaussian(1), 2.0, 64)
    assert math.isclose(_total(q), 4.0 * math.pi, rel_tol=1e-13)
    # unit 3-sphere: area 2 pi^2
    q = level_set_quadrature(gaussian(2), 1.0, 64)
    assert math.isclose(_total(q), 2.0 * math.pi**2, rel_tol=1e-13)
    # 5-sphere: area pi^3 r^5
    q = level_set_quadrature(gaussian(3), 2.0, 64)
    assert math.isclose(_total(q), math.pi**3 * 2.0**5, rel_tol=1e-12)


def test_level_nodes_sit_on_level():
    for model, r in ((gaussian(2), 3.0), (cylinder(), 5.0)):
        nodes, _ = expand(level_set_quadrature(model, r, 32))
        b_vals = 2.0 * np.sqrt(model.f_min + 0.25 * np.sum(np.abs(nodes) ** 2, axis=-1))
        assert np.max(np.abs(b_vals - r)) < 1e-12 * r


def test_cylinder_level_coarea():
    # int_{b=r} 1/|grad b| = 16 pi^2 r at r = 4
    model = cylinder()
    q = level_set_quadrature(model, 4.0, 64)
    rho = model.flat_radius(4.0)
    val = _total(q) * (4.0 / rho)
    assert math.isclose(val, 64.0 * math.pi**2, rel_tol=1e-13)


def test_ball_volume_and_closed_forms():
    v, a = volume_area(gaussian(2), 3.0)
    assert math.isclose(v, unit_ball_volume(2) * 3.0**4, rel_tol=1e-13)
    assert math.isclose(a, unit_sphere_area(2) * 3.0**3, rel_tol=1e-13)
    v, a = volume_area(cylinder(), 4.0)
    assert math.isclose(v, 8.0 * math.pi**2 * 12.0, rel_tol=1e-13)
    assert math.isclose(a, 16.0 * math.pi**2 * 4.0, rel_tol=1e-13)
    ball = ball_quadrature(cylinder(), 4.0, 64)
    assert math.isclose(_total(ball), v, rel_tol=1e-12)


def test_cylinder_area_decay():
    # A(r)/r^{n-1} = 16 pi^2 / r^2 -> 0
    model = cylinder()
    vals = [volume_area(model, r)[1] / r ** (model.n - 1) for r in (10.0, 40.0, 160.0)]
    assert vals[0] > vals[1] > vals[2]
    assert math.isclose(vals[2], 16.0 * math.pi**2 / 160.0**2, rel_tol=1e-12)


def test_raw_area_differs_from_coarea_area():
    model = cylinder()
    raw = raw_level_area(model, 4.0)
    assert math.isclose(raw, 16.0 * math.pi**2 * math.sqrt(12.0), rel_tol=1e-13)
    _, coarea = volume_area(model, 4.0)
    assert raw < coarea  # |grad b| < 1 pulls the coarea integral above the raw area


def test_sphere_moment_against_quadrature():
    model = gaussian(2)
    nodes, weights = expand(level_set_quadrature(model, 2.5, 64))
    for alpha in [(0, 0), (1, 0), (2, 1), (3, 2)]:
        u = HoloPoly.monomial(2, alpha)
        num = float(np.sum(weights * np.abs(evaluate(u, nodes)) ** 2))
        assert math.isclose(num, sphere_moment(2, alpha, 2.5), rel_tol=1e-12)


def test_ball_moment_against_quadrature():
    model = gaussian(2)
    nodes, weights = expand(ball_quadrature(model, 2.5, 64))
    for alpha in [(0, 0), (2, 0), (1, 3)]:
        u = HoloPoly.monomial(2, alpha)
        num = float(np.sum(weights * np.abs(evaluate(u, nodes)) ** 2))
        assert math.isclose(num, ball_moment(2, alpha, 2.5), rel_tol=1e-12)


def test_cross_moments_vanish():
    nodes, weights = expand(level_set_quadrature(gaussian(2), 2.0, 64))
    z1 = nodes[:, 0]
    z2 = nodes[:, 1]
    val = np.sum(weights * z1 * np.conj(z2))
    assert abs(val) < 1e-10


def test_shell_quadrature_matches_volume_difference():
    model = cylinder()
    shell = shell_quadrature(model, 4.0, 7.0, 64)
    v4, _ = volume_area(model, 4.0)
    v7, _ = volume_area(model, 7.0)
    assert math.isclose(_total(shell), v7 - v4, rel_tol=1e-12)


def test_weighted_space_total_mass():
    # int e^{-f} dv = (4 pi)^m on the flat model
    for m in (1, 2):
        q = weighted_space_quadrature(gaussian(m), 128)
        assert math.isclose(_total(q), (4.0 * math.pi) ** m, rel_tol=1e-10)
    q = weighted_space_quadrature(cylinder(), 128)
    assert math.isclose(_total(q), 8.0 * math.pi * 4.0 * math.pi * math.exp(-1.0), rel_tol=1e-10)


def test_volume_identity_gaussian_exact():
    for m in (1, 2):
        for r in (3.0, 6.0, 10.0):
            assert verify_volume_identity(gaussian(m), r, 128) < 1e-10


def test_volume_identity_cylinder_closed_form():
    # closed form at r = 4: both sides equal 128 pi^2
    model = cylinder()
    v, a = volume_area(model, 4.0)
    lhs = model.n * v - 4.0 * a
    assert math.isclose(lhs, 128.0 * math.pi**2, rel_tol=1e-13)
    rho = model.flat_radius(4.0)
    rhs = 2.0 * v - 2.0 * raw_level_area(model, 4.0) * 2.0 / rho
    assert math.isclose(rhs, 128.0 * math.pi**2, rel_tol=1e-13)
    assert verify_volume_identity(model, 4.0, 64) < 1e-10


def test_volume_identity_cylinder_quadrature():
    for r in (6.0, 10.0, 20.0):
        assert verify_volume_identity(cylinder(), r, 128) < 1e-6


def test_volume_identity_refinement():
    # the tensor rules are exact here, so refinement keeps the residual at the floor
    coarse = verify_volume_identity(cylinder(), 10.0, 64)
    fine = verify_volume_identity(cylinder(), 10.0, 128)
    assert fine <= max(coarse / 3.0, 1e-12)


def test_irregular_radius_rejected():
    with pytest.raises(RegularityError):
        level_set_quadrature(cylinder(), 2.0, 32)
    with pytest.raises(RegularityError):
        ball_quadrature(cylinder(), 1.9, 32)


def test_sphere_moment_m3_against_quadrature():
    nodes, weights = expand(level_set_quadrature(gaussian(3), 2.0, 64))
    for alpha in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 0, 1)]:
        u = HoloPoly.monomial(3, alpha)
        num = float(np.sum(weights * np.abs(evaluate(u, nodes)) ** 2))
        assert math.isclose(num, sphere_moment(3, alpha, 2.0), rel_tol=1e-11)


def test_unsupported_flat_dimension_is_a_config_error():
    with pytest.raises(ConfigError, match="dimension 4"):
        level_set_quadrature(gaussian(4), 3.0, 32)
    with pytest.raises(ConfigError, match="dimension 4"):
        ball_quadrature(gaussian(4), 3.0, 32)
