"""Form calculus: Cartan pieces, contraction kernels, spectra and counting."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab import forms, spectrum
from shrinker_lab.errors import DomainError, NumericError
from shrinker_lab.holopoly import HoloPoly, dim_O_d, monomials
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.ratlinalg import integer_rank
from shrinker_lab.forms import (
    HoloForm,
    dim_O_forms,
    exterior_derivative,
    f_hodge_laplacian,
    form_integral_identity_check,
    form_spectrum,
    interior_product,
    kernel_dimension,
    one_form_spectrum_oracle,
    ricci_bound,
    form_count_check,
    form_reduction_ledger,
)

G1, G2, G3 = gaussian(1), gaussian(2), gaussian(3)
SYZ = HoloForm(1, 2, {(0,): HoloPoly.monomial(2, (0, 1)), (1,): HoloPoly.monomial(2, (1, 0), -1.0)})


def _lines(catalog):
    return [(line["eigenvalue"], line["multiplicity"]) for line in catalog.to_dict()["lines"]]


def test_hodge_on_dz():
    out = f_hodge_laplacian(HoloForm.monomial(1, (0,), (0,)))
    expected = HoloForm.monomial(1, (0,), (0,), 0.5)
    assert (out - expected).coeff_norm() == 0.0


def test_hodge_top_degree():
    om = HoloForm.monomial(2, (0, 2), (0, 1))
    out = f_hodge_laplacian(om)
    assert (out - om.scale(2.0)).coeff_norm() == 0.0


def test_hodge_eigen_law_all_monomials():
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            for idx in combinations(range(m), p):
                for deg in range(0, 7):
                    alpha = [0] * m
                    alpha[0] = deg
                    om = HoloForm.monomial(m, alpha, idx)
                    got = f_hodge_laplacian(om)
                    assert (got - om.scale((deg + p) / 2.0)).coeff_norm() < 1e-14


def test_hodge_zero_form():
    zero = HoloForm(1, 2, {})
    assert f_hodge_laplacian(zero).is_zero()


def test_exterior_derivative_signs():
    # d(z2 dz2) = dz2 ^ dz2 = 0 ; d(z2 dz1) = -dz1 ^ dz2
    om = HoloForm(1, 2, {(1,): HoloPoly.monomial(2, (0, 1))})
    assert exterior_derivative(om).is_zero()
    om = HoloForm(1, 2, {(0,): HoloPoly.monomial(2, (0, 1))})
    dw = exterior_derivative(om)
    assert (dw.coeffs[(0, 1)] - HoloPoly(2, {(0, 0): -1.0})).coeff_norm() == 0.0


def test_interior_product_examples():
    ip = interior_product(HoloForm.monomial(2, (0, 0), (0, 1)))
    expected = HoloForm(
        1,
        2,
        {(1,): HoloPoly.monomial(2, (1, 0), 0.5), (0,): HoloPoly.monomial(2, (0, 1), -0.5)},
    )
    assert (ip - expected).coeff_norm() == 0.0
    # one variable: u dz contracts to (z/2) u, injective
    ip = interior_product(HoloForm(1, 1, {(0,): HoloPoly.monomial(1, (3,))}))
    assert (ip.coeffs[()] - HoloPoly.monomial(1, (4,), 0.5)).coeff_norm() == 0.0
    assert interior_product(SYZ).is_zero()


def test_interior_product_guard():
    with pytest.raises(DomainError):
        interior_product(HoloForm(0, 1, {(): HoloPoly(1, {(0,): 1.0})}))


def test_interior_square_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        coeffs = {}
        for idx in combinations(range(3), 2):
            terms = {}
            for a1 in range(3):
                for a2 in range(3 - a1):
                    if rng.uniform() < 0.4:
                        terms[(a1, a2, 0)] = complex(rng.normal(), rng.normal())
            if terms:
                coeffs[idx] = HoloPoly(3, terms)
        if not coeffs:
            continue
        om = HoloForm(2, 3, coeffs)
        assert interior_product(interior_product(om)).is_zero(1e-13 * om.coeff_norm())


def _random_form(rng, p, m):
    coeffs = {}
    for idx in combinations(range(m), p):
        terms = {alpha: complex(*rng.normal(size=2)) for alpha in monomials(m, 4) if rng.uniform() < 0.4}
        coeffs[idx] = HoloPoly(m, terms)
    return HoloForm(p, m, coeffs)


def test_derived_forms_equal_the_public_constructor():
    # results skip the index checks; rebuilt through HoloForm(p, m, coeffs) they are unchanged
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        for p in range(m + 1):
            for _ in range(5):
                om = _random_form(rng, p, m)
                results = [f_hodge_laplacian(om), om + om.scale(-1.0), om.scale(0.0)]
                if p >= 1:
                    results.append(interior_product(om))
                for got in results:
                    # the constructor refuses an invalid index and drops a zero coefficient
                    assert list(HoloForm(got.p, got.m, got.coeffs).coeffs) == list(got.coeffs)
                    assert not any(poly.is_zero() for poly in got.coeffs.values())
                assert (om - om).coeffs == {} and om.scale(0.0).coeffs == {}


def test_output_growth_order():
    om = HoloForm(1, 2, {(0,): HoloPoly.monomial(2, (2, 1))})
    assert interior_product(om).mu == om.mu + 1


def test_kernel_dimensions():
    assert kernel_dimension(G1, 1, 5) == 0
    for mu in range(1, 6):
        assert kernel_dimension(G2, 1, mu) == dim_O_d(G2, mu - 1)
    assert kernel_dimension(G2, 1, 1) == 1
    assert kernel_dimension(G2, 2, 0) == 0
    assert kernel_dimension(cylinder(), 1, 3) == 0


def test_kernel_dimension_m3_cross_check():
    # p = 2 kernel on three variables: image of the contraction from top degree
    # spans z-multiples, brute force against a dense float rank
    mu = 2
    dim = kernel_dimension(G3, 2, mu)
    assert dim >= 1  # contains contractions of growth-(mu-1) top forms
    assert isinstance(dim, int)


def test_kernel_blocks_match_dense_rank():
    # the reference ranks the whole contraction matrix, never the support-size blocks
    for m in range(1, 5):
        for p in range(1, m + 1):
            for mu in range(7):
                got = kernel_dimension(gaussian(m), p, mu)
                assert got == _koszul_count(m, p, mu), (m, p, mu)
                assert got == ref.kernel_dimension(m, p, mu), (m, p, mu)


def _koszul_count(m, p, mu):
    # the Koszul complex of z_1..z_m is exact in positive degree
    return sum(
        (-1) ** (j - 1) * math.comb(m, p + j) * math.comb(k - j + m - 1, m - 1)
        for k in range(mu + 1)
        for j in range(1, min(m - p, k) + 1)
    )


def test_kernel_dimension_koszul_count():
    assert kernel_dimension(G3, 2, 8) == _koszul_count(3, 2, 8) == 120
    assert kernel_dimension(gaussian(4), 2, 4) == _koszul_count(4, 2, 4) == 125
    assert kernel_dimension(G3, 1, 60) == _koszul_count(3, 1, 60) == 77470
    # whole contraction matrices of more than a million entries, ranked by blocks
    assert kernel_dimension(gaussian(4), 2, 6) == _koszul_count(4, 2, 6)
    assert kernel_dimension(G2, 1, 10**6) == _koszul_count(2, 1, 10**6)


def test_kernel_guard_refuses_before_enumerating(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(forms, "combinations", no_blocks)
    monkeypatch.setattr(forms, "integer_rank", no_blocks)
    # one top block of 1287 x 1716 at (m, p) = (13, 6)
    with pytest.raises(NumericError, match="1287 x 1716"):
        kernel_dimension(gaussian(13), 6, 7)
    # single-row blocks, but a million of them
    with pytest.raises(NumericError, match="1000000 blocks"):
        kernel_dimension(gaussian(10**6), 1, 10**6)


def test_form_spectrum_guard_refuses_before_building(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built")

    # every catalog row starts from the flat multiplicities C(2m + k - 1, 2m - 1)
    monkeypatch.setattr(spectrum.math, "comb", no_rows)
    # the cylinder's (1,0) catalog up to 2000 is 172,736 terms
    with pytest.raises(NumericError, match="lambda_max=2000"):
        form_spectrum(cylinder(), 1, 2000.0)
    # up to 1400 it is 101,646, just over the limit
    with pytest.raises(NumericError, match="lambda_max=1400"):
        form_spectrum(cylinder(), 1, 1400.0)
    with pytest.raises(NumericError):
        form_spectrum(G2, 1, math.inf)
    monkeypatch.undo()
    # up to 1000 it is 61,686 terms and builds
    assert spectrum._catalog_work(cylinder(), 1000.0, 1) == 61_686
    assert _lines(form_spectrum(cylinder(), 1, 1000.0))[-1][0] == 1000


@pytest.mark.parametrize(
    "model",
    [G1, G3, cylinder(), product([cylinder(), cylinder()])],
    ids=["gaussian_m1", "gaussian_m3", "cylinder", "cylinder_x_cylinder"],
)
def test_form_work_bounds_the_built_work(model):
    # the guard is the build's exact term count for every p
    for lambda_max in (0.0, 0.5, 1.0, 2.9, 10.25, 40.0):
        for p in range(model.m + 1):
            assert spectrum._catalog_work(model, lambda_max, p) == ref.catalog_terms(model, lambda_max, p), (p, lambda_max)
    # the flat row and three sphere convolutions of (1 + 3 x^2) on 6 entries
    assert spectrum._catalog_work(product([cylinder(), cylinder(), G2]), 2.9, 5) == 36


def test_integer_rank_basics():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0
    rng = np.random.default_rng(0)
    a = rng.integers(-3, 4, size=(7, 5))
    assert integer_rank(a.tolist()) == np.linalg.matrix_rank(a.astype(float))


def test_form_spectrum_gaussian():
    cat = form_spectrum(G1, 1, 1.5)
    assert _lines(cat) == [
        (0.5, 1),
        (1.0, 2),
        (1.5, 3),
    ]


def test_form_spectrum_cylinder_min():
    for p in (1, 2):
        cat = form_spectrum(cylinder(), p, 3.0)
        assert _lines(cat)[0][0] >= 0.5 - 1e-12


@pytest.mark.parametrize("model", [G1, G2, G3, cylinder()], ids=["g1", "g2", "g3", "cylinder"])
def test_form_spectrum_matches_line_generators(model):
    # every p and lambda_max = 0, 0.25, ..., 6: the same eigenvalues and multiplicities
    for p in range(model.m + 1):
        for k in range(25):
            lam = k / 4
            got = _lines(form_spectrum(model, p, lam))
            want = ref.form_spectrum(model, p, lam)
            assert got == want, (p, lam)


def test_form_count_gaussian_examples():
    rec = form_count_check(G1, 1, 2)
    assert (rec.dim, rec.count, rec.horizon) == (3, 6, 1.5)
    assert rec.passed
    rec0 = form_count_check(G1, 1, 0)
    assert rec0.dim == rec0.count == 1  # sharpness witness: dz attains the horizon
    cat = form_spectrum(G1, 1, rec0.horizon)
    assert max(ev for ev, _ in _lines(cat)) == rec0.horizon


def test_form_count_p0_reduces_to_function_counting():
    rec = form_count_check(G1, 0, 2)
    assert rec.dim == 3 and rec.count == 6
    assert rec.passed


def test_form_count_sweep():
    for model in (G1, G2):
        for p in range(0, min(2, model.m) + 1):
            for mu in range(0, 5):
                assert form_count_check(model, p, mu).passed
    for p in (0, 1, 2):
        for mu in range(0, 5):
            assert form_count_check(cylinder(), p, mu).passed
    # a negative horizon builds no line, with or without sphere factors
    assert form_count_check(cylinder(), 0, -1).count == form_count_check(G1, 0, -1).count == 0


def test_ricci_bound_values():
    assert ricci_bound(G2) == 0.5
    assert ricci_bound(cylinder()) == 1.0
    assert ricci_bound(G2, norm="tensor") == 0.5
    # Ric = g/2 on each sphere factor's two real directions: Frobenius norm sqrt(2k)/2
    assert ricci_bound(cylinder(), norm="tensor") == math.sqrt(2.0) / 2.0 + 0.5
    assert ricci_bound(product([cylinder(), cylinder()]), norm="tensor") == 1.5
    assert ricci_bound(product([cylinder(), cylinder()])) == 1.0


_PRODUCTS = {
    "cylinder_x_cylinder": product([cylinder(), cylinder()]),
    "cylinder_x_gaussian_m1": product([cylinder(), G1]),
    "cylinder_x_cylinder_x_gaussian_m2": product([cylinder(), cylinder(), G2]),
}


@pytest.mark.parametrize("model", _PRODUCTS.values(), ids=_PRODUCTS.keys())
def test_form_count_on_products(model):
    for p in range(model.flat_m + 1):
        for mu in range(5):
            assert form_count_check(model, p, mu).passed, (p, mu)


def _enumerated_lines(model, top):
    """{(form degree, 2 lambda): multiplicity} for 2 lambda <= top, one eigenform family at a time.

    A family is a flat Hermite degree k, a dz-subset size q, one l per sphere
    factor and the sphere factors that carry their (1,0) form, which needs
    l >= 1.  Its eigenvalue is (k + q + sum l(l+1))/2 and its multiplicity
    C(2m + k - 1, 2m - 1) C(m, q) prod(2l + 1).
    """
    m, s = model.flat_m, model.sphere_factors
    ells = [ell for ell in range(top + 1) if ell * (ell + 1) <= top]
    lines = {}
    for k in range(top + 1):
        for q in range(m + 1):
            for ls in itertools.product(ells, repeat=s):
                two_ev = k + q + sum(ell * (ell + 1) for ell in ls)
                if two_ev > top:
                    continue
                mult = math.comb(2 * m + k - 1, 2 * m - 1) * math.comb(m, q) * math.prod(2 * ell + 1 for ell in ls)
                for carry in itertools.product((0, 1), repeat=s):
                    if all(ell or not c for ell, c in zip(ls, carry)):
                        key = (q + sum(carry), two_ev)
                        lines[key] = lines.get(key, 0) + mult
    return lines


_BRUTE_PRODUCTS = {
    "cylinder_x_cylinder": product([cylinder(), cylinder()]),
    "cylinder_x_cylinder_x_gaussian_m2": product([cylinder(), cylinder(), G2]),
    "cylinder_cubed": product([cylinder(), cylinder(), cylinder()]),
}


@pytest.mark.parametrize("model", _BRUTE_PRODUCTS.values(), ids=_BRUTE_PRODUCTS.keys())
def test_product_form_spectrum_matches_eigenform_enumeration(model):
    # every p and lambda_max = 0, 0.25, ..., 6, line by line
    enumerated = _enumerated_lines(model, 12)
    for p in range(model.m + 1):
        for k in range(25):
            lam = k / 4
            got = _lines(form_spectrum(model, p, lam))
            want = [
                (Fraction(two_ev, 2), mult)
                for (deg, two_ev), mult in sorted(enumerated.items())
                if deg == p and two_ev <= 2 * lam
            ]
            assert got == want, (p, lam)


@pytest.mark.parametrize("model", _PRODUCTS.values(), ids=_PRODUCTS.keys())
def test_form_spectrum_p0_is_the_scalar_catalog(model):
    for lam in (0.0, 1.0, 2.5, 4.0):
        assert form_spectrum(model, 0, lam) == spectrum.analytic_spectrum(model, lam)


def test_dim_O_forms_values():
    assert dim_O_forms(G2, 1, 2) == 12
    assert dim_O_forms(G2, 2, 0) == 1
    assert dim_O_forms(cylinder(), 1, 2.5) == 3
    assert dim_O_forms(cylinder(), 2, 4) == 0


def test_one_form_oracle_bound():
    ev = one_form_spectrum_oracle(k_eigs=6)
    assert np.allclose(ev, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0], atol=1e-5)
    assert ev.min() >= 0.5 - 1e-6


def test_form_integral_identity_value():
    val = form_integral_identity_check(G2, SYZ)
    assert math.isclose(val, -256.0 * math.pi**2, rel_tol=1e-8)
    val2 = form_integral_identity_check(G2, SYZ.scale(2.0))
    assert math.isclose(val2, 4.0 * val, rel_tol=1e-10)


def test_form_integral_memory_follows_the_matched_pairs():
    # g (z2 dz1 - z1 dz2) with g every monomial of degree <= 40: 1,722 terms.  A dense
    # terms x terms x m match of the weighted rule's pairs would hold 47 MB of int64 alone;
    # grouped by exponent mod n_phi, the pairs are a few per term
    g = [alpha for k in range(41) for alpha in monomials(2, k)]
    omega = HoloForm(1, 2, {(0,): HoloPoly(2, {(a, b + 1): 1.0 for a, b in g}),
                            (1,): HoloPoly(2, {(a + 1, b): -1.0 for a, b in g})})
    tracemalloc.start()
    try:
        value = form_integral_identity_check(G2, omega)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the value of the dense match
    assert math.isclose(value, -1.0812298077359331e77, rel_tol=1e-12)


def test_form_integral_rejects_non_kernel():
    om = HoloForm(1, 2, {(0,): HoloPoly.monomial(2, (1, 0))})
    with pytest.raises(DomainError):
        form_integral_identity_check(G2, om)


def test_form_reduction_examples():
    rec = form_reduction_ledger(G2, 1, 2)
    assert (rec.dim_forms, rec.dim_funcs_shifted, rec.kernel_dims) == (12, 10, (3,))
    assert rec.passed
    assert rec.kernel_bound_margin == pytest.approx(math.exp(3.0) - 3.0)
    rec = form_reduction_ledger(G1, 1, 3)
    assert (rec.dim_forms, rec.dim_funcs_shifted, rec.kernel_dims) == (4, 5, (0,))
    assert rec.passed
    rec = form_reduction_ledger(G2, 2, 0)
    assert rec.dim_forms == 1 and rec.passed


def test_form_json_round_trip():
    rebuilt = HoloForm.from_json_dict(SYZ.to_json_dict())
    assert (rebuilt - SYZ).coeff_norm() == 0.0
    data = SYZ.to_json_dict()
    assert data["coeffs"][0]["index"] == [1]  # external indices are 1-based


def test_form_validation():
    with pytest.raises(DomainError):
        HoloForm(1, 2, {(0, 1): HoloPoly.monomial(2, (0, 0))})  # wrong index length
    with pytest.raises(DomainError):
        HoloForm(2, 2, {(1, 1): HoloPoly.monomial(2, (0, 0))})  # not increasing
    with pytest.raises(DomainError):
        HoloForm(3, 2, {})  # p > m
