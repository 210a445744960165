"""Form calculus: Cartan pieces, contraction kernels, spectra and counting."""

from __future__ import annotations

import math
from itertools import combinations

import loop_reference as ref
import numpy as np
import pytest

from shrinker_lab import forms
from shrinker_lab.errors import DomainError, NumericError
from shrinker_lab.holopoly import HoloPoly, dim_O_d
from shrinker_lab.models import cylinder, gaussian
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


def test_hodge_on_dz():
    out = f_hodge_laplacian(G1, HoloForm.monomial(1, (0,), (0,)))
    expected = HoloForm.monomial(1, (0,), (0,), 0.5)
    assert (out - expected).coeff_norm() == 0.0


def test_hodge_top_degree():
    om = HoloForm.monomial(2, (0, 2), (0, 1))
    out = f_hodge_laplacian(G2, om)
    assert (out - om.scale(2.0)).coeff_norm() == 0.0


def test_hodge_eigen_law_all_monomials():
    for m in (1, 2, 3):
        model = gaussian(m)
        for p in range(0, m + 1):
            for idx in combinations(range(m), p):
                for deg in range(0, 7):
                    alpha = [0] * m
                    alpha[0] = deg
                    om = HoloForm.monomial(m, alpha, idx)
                    got = f_hodge_laplacian(model, om)
                    assert (got - om.scale((deg + p) / 2.0)).coeff_norm() < 1e-14


def test_hodge_zero_form():
    zero = HoloForm(1, 2, {})
    assert f_hodge_laplacian(G2, zero).is_zero()


def test_exterior_derivative_signs():
    # d(z2 dz2) = dz2 ^ dz2 = 0 ; d(z2 dz1) = -dz1 ^ dz2
    om = HoloForm(1, 2, {(1,): HoloPoly.monomial(2, (0, 1))})
    assert exterior_derivative(om).is_zero()
    om = HoloForm(1, 2, {(0,): HoloPoly.monomial(2, (0, 1))})
    dw = exterior_derivative(om)
    assert (dw.coeffs[(0, 1)] - HoloPoly.constant(2, -1.0)).coeff_norm() == 0.0


def test_interior_product_examples():
    ip = interior_product(G2, HoloForm.monomial(2, (0, 0), (0, 1)))
    expected = HoloForm(
        1,
        2,
        {(1,): HoloPoly.monomial(2, (1, 0), 0.5), (0,): HoloPoly.monomial(2, (0, 1), -0.5)},
    )
    assert (ip - expected).coeff_norm() == 0.0
    # one variable: u dz contracts to (z/2) u, injective
    ip = interior_product(G1, HoloForm(1, 1, {(0,): HoloPoly.monomial(1, (3,))}))
    assert (ip.coeffs[()] - HoloPoly.monomial(1, (4,), 0.5)).coeff_norm() == 0.0
    assert interior_product(G2, SYZ).is_zero()


def test_interior_product_guard():
    with pytest.raises(DomainError):
        interior_product(G1, HoloForm(0, 1, {(): HoloPoly.constant(1, 1.0)}))


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
        assert interior_product(G3, interior_product(G3, om)).is_zero(1e-13 * om.coeff_norm())


def test_output_growth_order():
    om = HoloForm(1, 2, {(0,): HoloPoly.monomial(2, (2, 1))})
    assert interior_product(G2, om).mu == om.mu + 1


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
    assert [(float(l.eigenvalue), l.multiplicity) for l in cat.lines] == [
        (0.5, 1),
        (1.0, 2),
        (1.5, 3),
    ]


def test_form_spectrum_cylinder_min():
    for p in (1, 2):
        cat = form_spectrum(cylinder(), p, 3.0)
        assert cat.lines[0].eigenvalue >= 0.5 - 1e-12


@pytest.mark.parametrize("model", [G1, G2, G3, cylinder()], ids=["g1", "g2", "g3", "cylinder"])
def test_form_spectrum_matches_line_generators(model):
    # every p and lambda_max = 0, 0.25, ..., 6: the same eigenvalues and multiplicities
    for p in range(model.m + 1):
        for k in range(25):
            lam = k / 4
            got = [(l.eigenvalue, l.multiplicity) for l in form_spectrum(model, p, lam).lines]
            want = [(ev, mult) for ev, mult, _ in ref.form_spectrum(model, p, lam)]
            assert got == want, (p, lam)


def test_form_count_gaussian_examples():
    rec = form_count_check(G1, 1, 2)
    assert (rec.dim, rec.count, rec.horizon) == (3, 6, 1.5)
    assert rec.passed
    rec0 = form_count_check(G1, 1, 0)
    assert rec0.dim == rec0.count == 1  # sharpness witness: dz attains the horizon
    cat = form_spectrum(G1, 1, rec0.horizon)
    assert max(float(l.eigenvalue) for l in cat.lines) == rec0.horizon


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


def test_ricci_bound_values():
    assert ricci_bound(G2) == 0.5
    assert ricci_bound(cylinder()) == 1.0


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
    with pytest.raises(DomainError):
        f_hodge_laplacian(cylinder(), HoloForm.monomial(2, (0, 0), (0,)))  # too many variables
