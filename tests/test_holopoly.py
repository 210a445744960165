"""Sparse polynomial algebra, the flow derivative and eigen-decomposition."""

from __future__ import annotations

import math

import loop_reference as ref
import numpy as np
import pytest
from brute_force import evaluate, evaluate_parts, homogeneous_parts

from shrinker_lab import spectrum
from shrinker_lab.errors import DomainError
from shrinker_lab.forms import HoloForm
from shrinker_lab.holopoly import (
    DECOMPOSE_TOL,
    PRUNE_REL,
    EigenDecomposition,
    HoloPoly,
    decompose_by_eigenvalue,
    dim_O_d,
    gradient,
    growth_eigenvalue_consistency,
    lie_derivative_nabla_f,
    monomials,
)
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.report import _random_polys


def test_evaluate_examples():
    u = HoloPoly.monomial(2, (1, 1))
    assert evaluate(u, [2.0, 3.0j]) == 6.0j
    one = HoloPoly(2, {(0, 0): 1.0})
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
    parts = homogeneous_parts(u)
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
    for alpha in [(1, 0), (2, 3), (0, 5)]:
        u = HoloPoly.monomial(2, alpha)
        lu = lie_derivative_nabla_f(u)
        assert (lu - u.scale(sum(alpha) / 2.0)).coeff_norm() == 0.0
    const = HoloPoly(2, {(0, 0): 3.0})
    assert lie_derivative_nabla_f(const).is_zero()


def test_lie_derivative_diagonal_up_to_degree_8():
    # the flow derivative is diagonal on every monomial with |alpha| <= 8
    for m in (1, 2, 3):
        for alpha in monomials(m, 8):
            u = HoloPoly.monomial(m, alpha, 1.0 - 0.5j)
            lu = lie_derivative_nabla_f(u)
            assert (lu - u.scale(sum(alpha) / 2.0)).coeff_norm() == 0.0


def test_monomials_order_and_degree_window():
    # seeded random polynomials draw one coefficient per exponent in this order
    assert list(monomials(2, 2)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(monomials(2, 2, 1)) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(monomials(3, 4, 4)) == [a for a in monomials(3, 4) if sum(a) == 4]
    assert len(list(monomials(3, 5))) == math.comb(3 + 5, 3)
    assert list(monomials(0, 3)) == [()]


def test_lie_derivative_linearity_example():
    u = HoloPoly(2, {(2, 0): 1.0, (0, 1): 1.0})
    lu = lie_derivative_nabla_f(u)
    expected = HoloPoly(2, {(2, 0): 1.0, (0, 1): 0.5})
    assert (lu - expected).coeff_norm() == 0.0


def test_lie_derivative_against_finite_differences():
    # flow derivative along grad f compared with (u(z + h grad f) - u(z - h grad f)) / 2h
    u = HoloPoly(2, {(2, 1): 1.5 - 0.5j, (0, 2): 2.0j, (1, 0): -1.0})
    rng = np.random.default_rng(4)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    h = 1e-7
    plus = evaluate(u, z * (1.0 + 0.5 * h))
    minus = evaluate(u, z * (1.0 - 0.5 * h))
    numeric = (plus - minus) / (2.0 * h)
    symbolic = evaluate(lie_derivative_nabla_f(u), z)
    assert abs(numeric - symbolic) < 1e-6 * max(1.0, abs(symbolic))


def test_decompose_example_1_z_z2():
    u = HoloPoly(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
    dec = decompose_by_eigenvalue(u, 2.0)
    # parts are keyed by k = 2 lambda, the degree
    assert set(dec.parts) == {0, 1, 2}
    assert (dec.parts[0] - HoloPoly(1, {(0,): 1.0})).coeff_norm() < 1e-12
    assert (dec.parts[1] - HoloPoly.monomial(1, (1,))).coeff_norm() < 1e-12
    assert (dec.parts[2] - HoloPoly.monomial(1, (2,))).coeff_norm() < 1e-12
    assert dec.residual_norm < 1e-12


def test_decompose_eigenfunction_is_single_part():
    u = HoloPoly.monomial(2, (1, 1))
    dec = decompose_by_eigenvalue(u, 2.0)
    assert list(dec.parts) == [2]


def test_decompose_zero():
    dec = decompose_by_eigenvalue(HoloPoly.zero(1), 3.0)
    assert dec.parts == {}
    assert dec.residual_norm == 0.0


def test_decompose_round_trip_random():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        terms = {}
        for a1 in range(0, 7):
            for a2 in range(0, 7 - a1):
                if rng.uniform() < 0.5:
                    terms[(a1, a2)] = complex(rng.normal(), rng.normal())
        u = HoloPoly(2, terms or {(0, 0): 1.0})
        dec = decompose_by_eigenvalue(u, 6.0)
        err = (dec.reconstruct(2) - u).coeff_norm()
        assert err < 1e-10 * max(1.0, u.coeff_norm())
        assert growth_eigenvalue_consistency(dec)
        for k, part in dec.parts.items():
            residual = lie_derivative_nabla_f(part) - part.scale(k / 2)
            assert residual.coeff_norm() < 1e-10 * max(1.0, part.coeff_norm())


def test_decompose_on_cylinder():
    u = HoloPoly(1, {(0,): 2.0, (2,): -1.0, (3,): 0.5})
    dec = decompose_by_eigenvalue(u, 4.0)
    assert (dec.reconstruct(1) - u).coeff_norm() < 1e-12


def test_growth_consistency_compares_integers():
    # a part keyed k may have degree k and no more, with no slack either way
    z2 = HoloPoly.monomial(1, (2,))
    assert growth_eigenvalue_consistency(EigenDecomposition(parts={2: z2, 0: HoloPoly.zero(1)}, residual_norm=0.0))
    assert not growth_eigenvalue_consistency(EigenDecomposition(parts={1: z2}, residual_norm=0.0))


def test_decompose_degree_guard():
    with pytest.raises(DomainError):
        decompose_by_eigenvalue(HoloPoly.monomial(1, (4,)), 3.0)


def test_decompose_needs_no_catalog(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decomposition built a spectral catalog")

    monkeypatch.setattr(spectrum, "analytic_spectrum", refuse)
    dec = decompose_by_eigenvalue(HoloPoly(1, {(0,): 1.0, (3,): 0.5}), 4.0)
    assert list(dec.parts) == [3, 0]
    u = HoloPoly(2, {(0, 0): 1.0, (1, 0): 2.0, (2, 1): -1.0j})
    dec = decompose_by_eigenvalue(u, 3.0)
    assert list(dec.parts) == [3, 1, 0]
    assert dec.residual_norm == 0.0


def test_decompose_at_a_huge_growth_bound():
    # a catalog up to d/2 = 5e5 would be refused as too large; two terms split by degree
    u = HoloPoly(1, {(3,): 1.0, (1,): 2.0})
    dec = decompose_by_eigenvalue(u, 1e6)
    assert list(dec.parts) == [3, 1]
    assert dec.parts[3].terms == {(3,): 1.0}
    assert dec.parts[1].terms == {(1,): 2.0}
    assert dec.residual_norm == 0.0


@pytest.mark.parametrize("d", [-0.5, math.nan])
def test_decompose_refuses_a_bad_growth_bound(d):
    with pytest.raises(DomainError, match="growth bound"):
        decompose_by_eigenvalue(HoloPoly.zero(1), d)
    with pytest.raises(DomainError, match="growth bound"):
        decompose_by_eigenvalue(HoloPoly.monomial(1, (1,)), d)


@pytest.mark.parametrize("d", [8, 10, 12])
def test_decompose_high_degree_top_two(d):
    u = HoloPoly(1, {(d,): 1.0, (d - 1,): 1.0})
    dec = decompose_by_eigenvalue(u, float(d))
    # power iteration contracts the degree-(d-1) part by (d-1)/d per step: too slowly
    with pytest.raises(RuntimeError):
        ref.decompose_by_eigenvalue(gaussian(1), u, float(d))
    assert list(dec.parts) == [d, d - 1]
    assert dec.parts[d].terms == {(d,): 1.0}
    assert dec.parts[d - 1].terms == {(d - 1,): 1.0}
    assert dec.residual_norm == 0.0


def test_decompose_degree_10_is_homogeneous_split():
    rng = np.random.default_rng(2024)
    u = HoloPoly(
        2, {a: complex(rng.normal(), rng.normal()) for a in monomials(2, 10) if rng.uniform() < 0.6}
    )
    dec = decompose_by_eigenvalue(u, 10.0)
    homogeneous = homogeneous_parts(u)
    assert sorted(dec.parts) == sorted(homogeneous)
    for k, part in dec.parts.items():
        assert part.terms == homogeneous[k].terms
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
    for u in _random_polys(model, seed, count):
        dec = decompose_by_eigenvalue(u, 6.0)
        want = ref.decompose_by_eigenvalue(model, u, 6.0)
        # the reference keys its parts by float lambda, the package by k = 2 lambda
        assert [k / 2 for k in dec.parts] == list(want.parts)
        for k, part in dec.parts.items():
            assert list(part.terms.items()) == list(want.parts[k / 2].terms.items())
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
        dec = decompose_by_eigenvalue(u, d)
        want = ref.decompose_by_catalog_walk(model, u, d)
        assert [k / 2 for k in dec.parts] == list(want.parts)
        for k, part in dec.parts.items():
            assert repr(list(part.terms.items())) == repr(list(want.parts[k / 2].terms.items()))
        assert repr(dec.residual_norm) == repr(want.residual_norm)


def test_decompose_edge_terms_stay_in_remainder():
    # the degree-1 term sits at the tolerance, so it is no part of its own and no part of the constants
    u = HoloPoly(1, {(2,): 4.0, (1,): 4.0 * DECOMPOSE_TOL, (0,): 1.0})
    dec = decompose_by_eigenvalue(u, 2.0)
    assert list(dec.parts) == [2, 0]
    assert dec.parts[0].terms == {(0,): 1.0}
    assert dec.residual_norm == ref.decompose_by_catalog_walk(gaussian(1), u, 2.0).residual_norm == 4.0 * DECOMPOSE_TOL
    assert growth_eigenvalue_consistency(dec)
    small = HoloPoly(1, {(2,): 4.0, (1,): 4.0 * DECOMPOSE_TOL})
    dec = decompose_by_eigenvalue(small, 2.0)
    assert list(dec.parts) == [2]
    assert dec.residual_norm == 4.0 * DECOMPOSE_TOL


@pytest.mark.parametrize("model", _REFERENCE_MODELS.values(), ids=_REFERENCE_MODELS.keys())
def test_decompose_edge_polys_are_growth_consistent(model):
    # terms at or below the tolerance, of any degree, join no part: each part keyed k is of degree k
    rng = np.random.default_rng(9090 + model.flat_m + model.sphere_factors)
    for _ in range(30):
        dec = decompose_by_eigenvalue(_edge_poly(model.flat_m, rng), 7.5)
        assert growth_eigenvalue_consistency(dec)
        assert all(part.degree == k for k, part in dec.parts.items())


def _checked_reconstruct(parts, m):
    total = HoloPoly.zero(m)
    for part in parts.values():
        total = ref.checked_sum(total, part)
    return total


def _one_pass_cases():
    """The report's 100 + 25 draws on three models, and the threshold polynomials."""
    for model in (gaussian(2), cylinder(), gaussian(3)):
        for seed, count in ((20240811, 100), (77, 25)):
            for u in _random_polys(model, seed, count):
                yield u, 6.0
        rng = np.random.default_rng(9090 + model.flat_m + model.sphere_factors)
        for _ in range(30):
            yield _edge_poly(model.flat_m, rng), 7.5


def test_one_pass_reconstruct_and_residual_equal_checked_sums():
    # the parts are merged into one dict with no prune, and the residual is read off
    # the terms no part keeps; both equal adding and subtracting one part at a time
    for u, d in _one_pass_cases():
        dec = decompose_by_eigenvalue(u, d)
        total = _checked_reconstruct(dec.parts, u.m)
        assert _bits(dec.reconstruct(u.m)) == _bits(total)
        assert repr(dec.residual_norm) == repr(ref.checked_difference(u, total).coeff_norm())


def test_lie_derivative_is_half_euler_term_for_term():
    for u, _ in _one_pass_cases():
        assert _bits(lie_derivative_nabla_f(u)) == _bits(u.euler().scale(0.5))


@pytest.mark.parametrize(
    "alpha, message",
    [((1,), "length 1, expected 2"), ((1, 2, 0), "length 3"), ((1, -1), "negative exponent")],
)
def test_constructor_refuses_bad_multi_index(alpha, message):
    with pytest.raises(DomainError, match=message):
        HoloPoly(2, {alpha: 1.0})
    with pytest.raises(DomainError, match=message):
        HoloPoly(2, {(0, 0): 1.0, alpha: 1.0})


@pytest.mark.parametrize("bad", [1.5, -0.5, 0.7, math.nan, math.inf])
def test_constructors_refuse_a_non_integral_index(bad):
    # int() would truncate 1.5 to 1 and -0.5 to 0, which passes the negative-exponent check
    with pytest.raises(DomainError, match=rf"multi-index \({bad}, 0\) has an entry that is not an integer"):
        HoloPoly(2, {(0, 0): 1.0, (bad, 0): 1.0})
    with pytest.raises(DomainError, match=rf"multi-index \({bad},\) has an entry that is not an integer"):
        HoloForm(1, 2, {(bad,): HoloPoly(2, {(1, 0): 1.0})})


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 0): math.nan, (1, 0): 1.0},
        {(2, 0): math.inf, (1, 0): 1.0},
        {(2, 0): complex(1.0, -math.inf)},
        {(2, 0): complex(math.nan, 0.0), (0, 1): 0.0},
    ],
)
def test_constructor_refuses_a_non_finite_coefficient(terms):
    # a NaN or infinite coefficient would make the pruning floor NaN or infinite and drop every finite term
    with pytest.raises(DomainError, match=r"multi-index \(2, 0\) has the coefficient .* not finite"):
        HoloPoly(2, terms)


def test_json_literal_refuses_a_coefficient_that_sums_past_the_float_range():
    literal = {"m": 1, "terms": [{"alpha": [1], "re": 1e308}, {"alpha": [1], "re": 1e308}, {"alpha": [0], "re": 1}]}
    with pytest.raises(DomainError, match=r"multi-index \(1,\) has the coefficient \(inf\+0j\)"):
        HoloPoly.from_json_dict(literal)


def test_constructor_coerces_integer_like_keys():
    u = HoloPoly(2, {(1.0, np.int64(2)): 3, (np.int32(0), False): 0.5})
    assert u.terms == {(1, 2): 3.0, (0, 0): 0.5}
    for alpha, c in u.terms.items():
        assert type(alpha) is tuple and all(type(a) is int for a in alpha) and type(c) is complex


def _bits(u):
    # repr keeps the sign of a zero part and every digit of a float
    return repr(list(u.terms.items()))


def test_derived_results_equal_checked_arithmetic():
    const = HoloPoly(2, {(0, 0): 2.5 - 1.0j})
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
