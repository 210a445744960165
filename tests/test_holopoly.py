"""Sparse polynomial algebra, the flow derivative and eigen-decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shrinker_lab.errors import DomainError, IterationError
from shrinker_lab.holopoly import (
    HoloPoly,
    decompose_by_eigenvalue,
    dim_O_d,
    evaluate,
    evaluate_parts,
    growth_eigenvalue_consistency,
    lie_derivative_nabla_f,
    monomials,
)
from shrinker_lab.models import cylinder, gaussian


def test_evaluate_examples():
    u = HoloPoly.monomial(2, (1, 1))
    assert evaluate(u, [2.0, 3.0j]) == 6.0j
    one = HoloPoly.constant(2, 1.0)
    assert evaluate(one, [5.0, -2.0j]) == 1.0
    sq = HoloPoly.monomial(1, (2,))
    assert evaluate(sq, [1.0 + 1.0j]) == 2.0j


def test_evaluate_batch_shape():
    u = HoloPoly(2, {(1, 0): 1.0, (0, 2): -2.0})
    pts = np.array([[1.0, 1.0j], [2.0, 0.0], [0.0, 1.0]], dtype=complex)
    vals = evaluate(u, pts)
    assert vals.shape == (3,)
    assert np.allclose(vals, [1.0 + 2.0, 2.0, -2.0])


def test_homogeneous_parts_scale_and_sum_back():
    u = HoloPoly(2, {(0, 0): 1.0, (1, 0): 2.0j, (0, 1): -1.0, (2, 1): 0.5, (0, 3): 3.0})
    parts = u.homogeneous_parts()
    assert sorted(parts) == [0, 1, 3]
    assert (sum(parts.values(), HoloPoly.zero(2)) - u).coeff_norm() == 0.0
    pts = np.array([[0.3 + 0.1j, -0.7j], [1.0, 0.5 + 0.5j]])
    rows = evaluate_parts(u, pts, [0, 1, 2, 3])
    assert np.all(rows[2] == 0.0)
    assert np.allclose(rows.sum(axis=0), evaluate(u, pts), rtol=1e-14)
    # u_k(s z) = s^k u_k(z)
    scaled = evaluate_parts(u, 2.5 * pts, [0, 1, 2, 3])
    assert np.allclose(scaled, 2.5 ** np.arange(4)[:, None] * rows, rtol=1e-14)


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        evaluate(HoloPoly.monomial(2, (1, 0)), [1.0])


def test_pruning_invariant():
    u = HoloPoly(1, {(0,): 1.0, (1,): 1e-20})
    assert (1,) not in u.terms


def test_lie_derivative_monomials():
    model = gaussian(2)
    for alpha in [(1, 0), (2, 3), (0, 5)]:
        u = HoloPoly.monomial(2, alpha)
        lu = lie_derivative_nabla_f(model, u)
        assert (lu - u.scale(sum(alpha) / 2.0)).coeff_norm() == 0.0
    const = HoloPoly.constant(2, 3.0)
    assert lie_derivative_nabla_f(model, const).is_zero()


def test_lie_derivative_diagonal_up_to_degree_8():
    # the flow derivative is diagonal on every monomial with |alpha| <= 8
    for m in (1, 2, 3):
        model = gaussian(m)
        for alpha in monomials(m, 8):
            u = HoloPoly.monomial(m, alpha, 1.0 - 0.5j)
            lu = lie_derivative_nabla_f(model, u)
            assert (lu - u.scale(sum(alpha) / 2.0)).coeff_norm() == 0.0


def test_monomials_order_and_degree_window():
    # seeded random polynomials draw one coefficient per exponent in this order
    assert list(monomials(2, 2)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(monomials(2, 2, 1)) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(monomials(3, 4, 4)) == [a for a in monomials(3, 4) if sum(a) == 4]
    assert len(list(monomials(3, 5))) == math.comb(3 + 5, 3)
    assert list(monomials(0, 3)) == [()]


def test_lie_derivative_linearity_example():
    model = gaussian(2)
    u = HoloPoly(2, {(2, 0): 1.0, (0, 1): 1.0})
    lu = lie_derivative_nabla_f(model, u)
    expected = HoloPoly(2, {(2, 0): 1.0, (0, 1): 0.5})
    assert (lu - expected).coeff_norm() == 0.0


def test_lie_derivative_against_finite_differences():
    # flow derivative along grad f compared with (u(z + h grad f) - u(z - h grad f)) / 2h
    model = gaussian(2)
    u = HoloPoly(2, {(2, 1): 1.5 - 0.5j, (0, 2): 2.0j, (1, 0): -1.0})
    rng = np.random.default_rng(4)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    h = 1e-7
    plus = evaluate(u, z * (1.0 + 0.5 * h))
    minus = evaluate(u, z * (1.0 - 0.5 * h))
    numeric = (plus - minus) / (2.0 * h)
    symbolic = evaluate(lie_derivative_nabla_f(model, u), z)
    assert abs(numeric - symbolic) < 1e-6 * max(1.0, abs(symbolic))


def test_lie_derivative_variable_count_guard():
    with pytest.raises(DomainError):
        lie_derivative_nabla_f(gaussian(2), HoloPoly.monomial(1, (1,)))


def test_decompose_example_1_z_z2():
    model = gaussian(1)
    u = HoloPoly(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
    dec = decompose_by_eigenvalue(model, u, 2.0)
    assert set(dec.parts) == {0.0, 0.5, 1.0}
    assert (dec.parts[0.0] - HoloPoly.constant(1, 1.0)).coeff_norm() < 1e-12
    assert (dec.parts[0.5] - HoloPoly.monomial(1, (1,))).coeff_norm() < 1e-12
    assert (dec.parts[1.0] - HoloPoly.monomial(1, (2,))).coeff_norm() < 1e-12
    assert dec.residual_norm < 1e-12


def test_decompose_eigenfunction_is_single_part():
    model = gaussian(2)
    u = HoloPoly.monomial(2, (1, 1))
    dec = decompose_by_eigenvalue(model, u, 2.0)
    assert list(dec.parts) == [1.0]


def test_decompose_zero():
    dec = decompose_by_eigenvalue(gaussian(1), HoloPoly.zero(1), 3.0)
    assert dec.parts == {}
    assert dec.residual_norm == 0.0


def test_decompose_round_trip_random():
    rng = np.random.default_rng(1234)
    model = gaussian(2)
    for _ in range(40):
        terms = {}
        for a1 in range(0, 7):
            for a2 in range(0, 7 - a1):
                if rng.uniform() < 0.5:
                    terms[(a1, a2)] = complex(rng.normal(), rng.normal())
        u = HoloPoly(2, terms or {(0, 0): 1.0})
        dec = decompose_by_eigenvalue(model, u, 6.0)
        err = (dec.reconstruct(2) - u).coeff_norm()
        assert err < 1e-10 * max(1.0, u.coeff_norm())
        assert growth_eigenvalue_consistency(dec)
        for lam, part in dec.parts.items():
            residual = lie_derivative_nabla_f(model, part) - part.scale(lam)
            assert residual.coeff_norm() < 1e-10 * max(1.0, part.coeff_norm())


def test_decompose_on_cylinder():
    model = cylinder()
    u = HoloPoly(1, {(0,): 2.0, (2,): -1.0, (3,): 0.5})
    dec = decompose_by_eigenvalue(model, u, 4.0)
    assert (dec.reconstruct(1) - u).coeff_norm() < 1e-12


def test_decompose_degree_guard():
    with pytest.raises(DomainError):
        decompose_by_eigenvalue(gaussian(1), HoloPoly.monomial(1, (4,)), 3.0)


def test_decompose_iteration_cap():
    model = gaussian(1)
    u = HoloPoly(1, {(5,): 1.0, (6,): 1.0})
    with pytest.raises(IterationError) as err:
        decompose_by_eigenvalue(model, u, 6.0, tol=1e-12, max_iter=3)
    assert err.value.contraction_ratio == pytest.approx(5.0 / 6.0)


def test_dim_O_d_values():
    assert dim_O_d(gaussian(2), 2.0) == 6
    for m in (1, 2, 3):
        assert dim_O_d(gaussian(m), 1.0) == m + 1
    assert dim_O_d(cylinder(), 2.5) == 3
    assert dim_O_d(cylinder(), 0.0) == 1


def test_dim_O_d_step_function():
    model = gaussian(2)
    assert dim_O_d(model, 2.0) == dim_O_d(model, 2.99)
    assert dim_O_d(model, 3.0) > dim_O_d(model, 2.99)


def test_json_round_trip():
    u = HoloPoly(2, {(2, 0): 1.0 + 2.0j, (0, 1): -0.5})
    rebuilt = HoloPoly.from_json_dict(u.to_json_dict())
    assert (rebuilt - u).coeff_norm() == 0.0
