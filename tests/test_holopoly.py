"""Sparse polynomial algebra, the flow derivative and eigen-decomposition."""

from __future__ import annotations

import math

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab.errors import DomainError
from shrinker_lab.holopoly import (
    DECOMPOSE_TOL,
    PRUNE_REL,
    HoloPoly,
    decompose_by_eigenvalue,
    dim_O_d,
    evaluate,
    evaluate_parts,
    gradient,
    growth_eigenvalue_consistency,
    lie_derivative_nabla_f,
    monomials,
)
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.report import _random_poly


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
    # the threshold itself is kept, the next float below it is not
    edge = HoloPoly(1, {(0,): 1.0, (1,): PRUNE_REL, (2,): np.nextafter(PRUNE_REL, 0.0)})
    assert list(edge.terms) == [(0,), (1,)]
    assert list((edge + HoloPoly.zero(1)).terms) == [(0,), (1,)]


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


@pytest.mark.parametrize("d", [8, 10, 12])
def test_decompose_high_degree_top_two(d):
    u = HoloPoly(1, {(d,): 1.0, (d - 1,): 1.0})
    dec = decompose_by_eigenvalue(gaussian(1), u, float(d))
    # power iteration contracts the degree-(d-1) part by (d-1)/d per step: too slowly
    with pytest.raises(RuntimeError):
        ref.decompose_by_eigenvalue(gaussian(1), u, float(d))
    assert list(dec.parts) == [d / 2, (d - 1) / 2]
    assert dec.parts[d / 2].terms == {(d,): 1.0}
    assert dec.parts[(d - 1) / 2].terms == {(d - 1,): 1.0}
    assert dec.residual_norm == 0.0


def test_decompose_degree_10_is_homogeneous_split():
    rng = np.random.default_rng(2024)
    u = HoloPoly(
        2, {a: complex(rng.normal(), rng.normal()) for a in monomials(2, 10) if rng.uniform() < 0.6}
    )
    dec = decompose_by_eigenvalue(gaussian(2), u, 10.0)
    homogeneous = u.homogeneous_parts()
    assert sorted(dec.parts) == sorted(k / 2 for k in homogeneous)
    for lam, part in dec.parts.items():
        assert part.terms == homogeneous[int(2 * lam)].terms
    assert dec.residual_norm == 0.0


_REFERENCE_MODELS = {
    "gaussian_m1": gaussian(1),
    "gaussian_m2": gaussian(2),
    "gaussian_m3": gaussian(3),
    "cylinder": cylinder(),
    "product": product([cylinder(), gaussian(1)]),
}


@pytest.mark.parametrize("model", _REFERENCE_MODELS.values(), ids=_REFERENCE_MODELS.keys())
@pytest.mark.parametrize("seed, count", [(20240811, 100), (77, 25), (1, 10), (2, 10), (3, 10)])
def test_decompose_matches_power_iteration(model, seed, count):
    # the report's two seeds draw as many polynomials as its decomposition checks do
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u = _random_poly(model, rng)
        dec = decompose_by_eigenvalue(model, u, 6.0)
        want = ref.decompose_by_eigenvalue(model, u, 6.0)
        assert list(dec.parts) == list(want.parts)
        for lam, part in want.parts.items():
            assert list(dec.parts[lam].terms.items()) == list(part.terms.items())
        assert dec.residual_norm == want.residual_norm


def _edge_poly(m, rng):
    """A seeded polynomial of degree <= 6 with terms at the two thresholds.

    Some coefficients sit exactly at DECOMPOSE_TOL times the coefficient
    scale, or one ulp above it, and some exactly at PRUNE_REL times the
    largest modulus, or one ulp below it, which the constructor drops.
    """
    terms = {a: complex(rng.normal(), rng.normal()) for a in monomials(m, 6) if rng.uniform() < 0.5}
    terms = terms or {(0,) * m: 1.0 + 0.5j}
    top = max(abs(c) for c in terms.values())
    tol = DECOMPOSE_TOL * max(top, 1.0)
    edges = [tol, np.nextafter(tol, np.inf), PRUNE_REL * top, np.nextafter(PRUNE_REL * top, 0.0)]
    for alpha in monomials(m, 6):
        if alpha not in terms and rng.uniform() < 0.3:
            terms[alpha] = complex(edges[rng.integers(len(edges))]) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return HoloPoly(m, terms)


@pytest.mark.parametrize("model", _REFERENCE_MODELS.values(), ids=_REFERENCE_MODELS.keys())
@pytest.mark.parametrize("d", [6.0, 7.5])
def test_decompose_matches_catalog_walk(model, d):
    rng = np.random.default_rng(9090 + model.flat_m + model.sphere_factors)
    for _ in range(30):
        u = _edge_poly(model.flat_m, rng)
        dec = decompose_by_eigenvalue(model, u, d)
        want = ref.decompose_by_catalog_walk(model, u, d)
        assert list(dec.parts) == list(want.parts)
        for lam, part in want.parts.items():
            assert repr(list(dec.parts[lam].terms.items())) == repr(list(part.terms.items()))
        assert repr(dec.residual_norm) == repr(want.residual_norm)


def test_decompose_edge_terms_stay_in_remainder():
    # the degree-1 term sits at the tolerance, so it is no part of its own
    u = HoloPoly(1, {(2,): 4.0, (1,): 4.0 * DECOMPOSE_TOL, (0,): 1.0})
    dec = decompose_by_eigenvalue(gaussian(1), u, 2.0)
    assert list(dec.parts) == [1.0, 0.0]
    assert dec.parts[0.0].terms == {(1,): 4.0 * DECOMPOSE_TOL, (0,): 1.0}
    assert dec.residual_norm == ref.decompose_by_catalog_walk(gaussian(1), u, 2.0).residual_norm == 0.0
    small = HoloPoly(1, {(2,): 4.0, (1,): 4.0 * DECOMPOSE_TOL})
    dec = decompose_by_eigenvalue(gaussian(1), small, 2.0)
    assert list(dec.parts) == [1.0]
    assert dec.residual_norm == 4.0 * DECOMPOSE_TOL


@pytest.mark.parametrize(
    "alpha, message",
    [((1,), "length 1, expected 2"), ((1, 2, 0), "length 3"), ((1, -1), "negative exponent")],
)
def test_constructor_refuses_bad_multi_index(alpha, message):
    with pytest.raises(DomainError, match=message):
        HoloPoly(2, {alpha: 1.0})
    with pytest.raises(DomainError, match=message):
        HoloPoly(2, {(0, 0): 1.0, alpha: 1.0})


def test_constructor_coerces_integer_like_keys():
    u = HoloPoly(2, {(1.0, np.int64(2)): 3, (np.int32(0), False): 0.5})
    assert u.terms == {(1, 2): 3.0, (0, 0): 0.5}
    for alpha, c in u.terms.items():
        assert type(alpha) is tuple and all(type(a) is int for a in alpha) and type(c) is complex


def _bits(u):
    # repr keeps the sign of a zero part and every digit of a float
    return repr(list(u.terms.items()))


def test_derived_results_equal_checked_arithmetic():
    const = HoloPoly.constant(2, 2.5 - 1.0j)
    u = HoloPoly(2, {(2, 0): -2.0, (1, 1): 3.0 - 0.5j, (0, 3): -1e-3, (0, 0): 0.25})
    # a carries a term kept against its own top but not against the top of a + big
    a = HoloPoly(2, {(1, 0): 1e-3, (0, 1): 1e-16})
    big = HoloPoly(2, {(2, 2): 1.0})
    # c cancels a's top term exactly, which lowers the top the rest is pruned against
    c = HoloPoly(2, {(1, 0): -1e-3, (3, 0): 2e-17})
    cases = [
        (const.partial(0), ref.checked_partial(const, 0)),
        (u.partial(1), ref.checked_partial(u, 1)),
        (u - u, ref.checked_difference(u, u)),
        (u.scale(0), ref.checked_scale(u, 0)),
        (u.scale(-1.0), ref.checked_scale(u, -1.0)),
        (u - const, ref.checked_difference(u, const)),
        (a + big, ref.checked_sum(a, big)),
        (a + c, ref.checked_sum(a, c)),
        (a - big.scale(-1.0), ref.checked_difference(a, ref.checked_scale(big, -1.0))),
    ]
    for got, want in cases:
        assert _bits(got) == _bits(want)
    assert (const.partial(0)).terms == {} and (u - u).terms == {} and u.scale(0).terms == {}
    assert (0, 1) not in (a + big).terms and (0, 1) in a.terms
    assert (a + c).terms == {(0, 1): 1e-16, (3, 0): 2e-17}
    with pytest.raises(DomainError):
        u - HoloPoly.zero(3)


def test_gradient_is_built_once_and_read_only():
    u = HoloPoly(2, {(2, 1): 1.0 - 2.0j, (0, 3): 0.5, (1, 0): 3.0})
    grad = gradient(u)
    assert gradient(u) is grad
    assert grad == tuple(ref.checked_partial(u, j) for j in range(2))
    with pytest.raises(TypeError):
        grad[0] = HoloPoly.zero(2)
    assert not hasattr(grad, "append")
    assert gradient(u) == (u.partial(0), u.partial(1))


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
