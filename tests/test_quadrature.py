"""Quadrature rules, closed-form moments and the volume identity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shrinker_lab import quadrature
from shrinker_lab.errors import NumericError, RegularityError
from shrinker_lab.holopoly import HoloPoly, monomials
from shrinker_lab.models import cylinder, gaussian
from shrinker_lab.quadrature import (
    ball_moments,
    ball_quadrature,
    level_set_moments,
    level_set_quadrature,
    require_rule_work,
    shell_quadrature,
    sphere_moment,
    verify_volume_identity,
    weighted_space_quadrature,
)

from brute_force import (
    evaluate,
    expand,
    raw_level_area,
    simplex,
    unit_ball_volume,
    unit_sphere_area,
    volume_area,
)


def _total(rule):
    """Total weight of a product rule on one radius: radial sum times the sum over its simplex grid."""
    (rho,) = rule.rho
    return rho**rule.power * rule.radial_weights.sum() * simplex(rule)[1].sum()


def test_level_set_total_weights():
    # circle of radius 2 in C^1: length 4 pi
    q = level_set_quadrature(gaussian(1), [2.0], 64)
    assert math.isclose(_total(q), 4.0 * math.pi, rel_tol=1e-13)
    # unit 3-sphere: area 2 pi^2
    q = level_set_quadrature(gaussian(2), [1.0], 64)
    assert math.isclose(_total(q), 2.0 * math.pi**2, rel_tol=1e-13)
    # 5-sphere: area pi^3 r^5
    q = level_set_quadrature(gaussian(3), [2.0], 64)
    assert math.isclose(_total(q), math.pi**3 * 2.0**5, rel_tol=1e-12)


def test_level_nodes_sit_on_level():
    for model, r in ((gaussian(2), 3.0), (cylinder(), 5.0)):
        nodes, _ = expand(level_set_quadrature(model, [r], 32))
        b_vals = 2.0 * np.sqrt(model.f_min + 0.25 * np.sum(np.abs(nodes) ** 2, axis=-1))
        assert np.max(np.abs(b_vals - r)) < 1e-12 * r


def test_cylinder_level_coarea():
    # int_{b=r} 1/|grad b| = 16 pi^2 r at r = 4
    model = cylinder()
    q = level_set_quadrature(model, [4.0], 64)
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
    ball = ball_quadrature(cylinder(), [4.0], 64)
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


def test_sphere_moment_of_high_degree():
    # 400! / 401! = 1/401, though 400! alone passes the float range
    assert math.isclose(sphere_moment(2, (400, 0)), 2.0 * math.pi**2 / 401, rel_tol=1e-14)


def test_sphere_moment_against_quadrature():
    model = gaussian(2)
    nodes, weights = expand(level_set_quadrature(model, [2.5], 64))
    for alpha in [(0, 0), (1, 0), (2, 1), (3, 2)]:
        u = HoloPoly.monomial(2, alpha)
        num = float(np.sum(weights * np.abs(evaluate(u, nodes)) ** 2))
        # the unit-sphere moment scales by R^(2|alpha| + 2m - 1) on the sphere of flat radius R
        assert math.isclose(num, 2.5 ** (2 * sum(alpha) + 3) * sphere_moment(2, alpha), rel_tol=1e-12)


def test_ball_moment_against_quadrature():
    # the closed-form level and ball rules against the product rules
    for m in (1, 2, 3):
        model = gaussian(m)
        pairs = [
            (level_set_moments(model, [2.5]), level_set_quadrature(model, [2.5], 256)),
            (ball_moments(model, [2.5]), ball_quadrature(model, [2.5], 256)),
        ]
        for alpha in monomials(m, 6):
            u = [HoloPoly.monomial(m, alpha)]
            for closed, rule in pairs:
                exact = closed.integrate(closed.gram(u)[0, 0].real).item()
                assert math.isclose(exact, rule.integrate(rule.gram(u)[0, 0].real).item(), rel_tol=1e-12)


def test_cross_moments_vanish():
    nodes, weights = expand(level_set_quadrature(gaussian(2), [2.0], 64))
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
    # the report's radii; at m = 3 and r = 20 the sides cancel at a scale near 2e9
    for m in (1, 2, 3, 4):
        assert max(verify_volume_identity(gaussian(m), (3.0, 6.0, 10.0, 20.0), 128)) < 1e-10


def test_volume_identity_cylinder_closed_form():
    # closed form at r = 4: both sides equal 128 pi^2
    model = cylinder()
    v, a = volume_area(model, 4.0)
    lhs = model.n * v - 4.0 * a
    assert math.isclose(lhs, 128.0 * math.pi**2, rel_tol=1e-13)
    rho = model.flat_radius(4.0)
    rhs = 2.0 * v - 2.0 * raw_level_area(model, 4.0) * 2.0 / rho
    assert math.isclose(rhs, 128.0 * math.pi**2, rel_tol=1e-13)
    assert verify_volume_identity(model, (4.0,), 64)[0] < 1e-10


def test_volume_identity_tables_are_built_once_per_order():
    # gaussian(2) and the cylinder share the 64-point radial table at resolution 128,
    # and the cylinder's level and ball rules share the empty one of no collapsed coordinate
    cases = ((gaussian(2), (3.0, 6.0, 10.0, 20.0)), (cylinder(), (4.0, 6.0, 10.0, 20.0)))
    quadrature._decimal_gl.cache_clear()
    cold = [verify_volume_identity(model, radii, 128) for model, radii in cases]
    info = quadrature._decimal_gl.cache_info()
    assert (info.misses, info.hits) == (4, 2)
    warm = [verify_volume_identity(model, radii, 128) for model, radii in cases]
    assert quadrature._decimal_gl.cache_info().misses == 4
    assert warm == cold


def test_volume_identity_cylinder_quadrature():
    assert max(verify_volume_identity(cylinder(), (6.0, 10.0, 20.0), 128)) < 1e-6


def test_volume_identity_refinement():
    # the tensor rules are exact here, so refinement keeps the residual at the floor
    (coarse,) = verify_volume_identity(cylinder(), (10.0,), 64)
    (fine,) = verify_volume_identity(cylinder(), (10.0,), 128)
    assert fine <= max(coarse / 3.0, 1e-12)


def test_irregular_radius_rejected():
    with pytest.raises(RegularityError):
        level_set_quadrature(cylinder(), [2.0], 32)
    with pytest.raises(RegularityError):
        ball_quadrature(cylinder(), [1.9], 32)


def test_sphere_moment_m3_against_quadrature():
    # m = 4 too: one collapsed rule serves every flat dimension
    for alphas in ([(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 0, 1)], [(0, 0, 0, 0), (1, 0, 0, 2), (1, 1, 1, 1)]):
        m = len(alphas[0])
        nodes, weights = expand(level_set_quadrature(gaussian(m), [2.0], 64))
        for alpha in alphas:
            u = HoloPoly.monomial(m, alpha)
            num = float(np.sum(weights * np.abs(evaluate(u, nodes)) ** 2))
            assert math.isclose(num, 2.0 ** (2 * sum(alpha) + 2 * m - 1) * sphere_moment(m, alpha), rel_tol=1e-11)


_BUILDERS = {
    "level_set_quadrature": lambda model, res: level_set_quadrature(model, [3.0], res),
    "ball_quadrature": lambda model, res: ball_quadrature(model, [3.0], res),
    "shell_quadrature": lambda model, res: shell_quadrature(model, 3.0, 4.0, res),
    "weighted_space_quadrature": lambda model, res: weighted_space_quadrature(model, res),
    "verify_volume_identity": lambda model, res: verify_volume_identity(model, (3.0,), res),
}


def test_over_budget_rules_are_refused_before_any_table(monkeypatch):
    def no_table(n):
        raise AssertionError("a Gauss-Legendre table was built")

    monkeypatch.setattr(quadrature, "_gl_reference", no_table)
    # 16^5 simplex nodes at m = 6, and a 10^7-point radial table at m = 1
    for model, res in ((gaussian(6), 256), (gaussian(1), 10**7)):
        for build in _BUILDERS.values():
            with pytest.raises(NumericError, match="over the limit"):
                build(model, res)
    # the largest rules verify-all builds: m = 5 at resolution 256
    require_rule_work(5, 256)


@pytest.mark.parametrize("resolution", [0, -5])
@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_rule_builders_refuse_a_resolution_below_one(build, resolution):
    # require_rule_work, which every builder calls, refuses it
    with pytest.raises(ValueError, match="resolution must be a positive integer"):
        build(gaussian(2), resolution)


def _largest_resolution():
    """The largest resolution require_rule_work accepts: m = 1, whose simplex grid is one node."""
    resolution = 1
    while True:
        try:
            require_rule_work(1, resolution + 1)
        except NumericError:
            return resolution
        resolution += 1


def _table_orders():
    """Gauss-Legendre orders 0-16, 32, 64, 128, 256 and the ball's radial order at the largest resolution."""
    return [*range(17), 32, 64, 128, 256, quadrature._ball_counts(1, _largest_resolution())[0]]


def test_gauss_legendre_tables_are_symmetric_and_exact():
    # the weighted-space rule builds the largest order of all
    n_weighted = len(weighted_space_quadrature(gaussian(1), _largest_resolution()).radii)
    for n in [*_table_orders(), n_weighted]:
        x, w = quadrature._gl_reference(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        # the lower half mirrors the upper bit for bit
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
        # exact for x^(2k) up to degree 2n - 2
        k = np.arange(n)
        moments = w @ x[:, None] ** (2 * k)
        np.testing.assert_allclose(moments, 2 / (2 * k + 1), rtol=2e-14, atol=0)


def test_gauss_legendre_tables_match_the_decimal_refinement():
    # _decimal_gl refines the table by Newton's method in x on the three-term recurrence,
    # a route independent of the Fourier series of P_n; both tables are ascending
    for n in _table_orders():
        x, w = quadrature._gl_reference(n)
        x_dec, w_dec = quadrature._decimal_gl(n)
        x_dec, w_dec = x_dec.astype(float), w_dec.astype(float)
        assert np.all(np.diff(x_dec) > 0)
        assert np.max(np.abs(x - x_dec), initial=0) <= 1e-15
        np.testing.assert_allclose(w, w_dec, rtol=1e-12, atol=0)
