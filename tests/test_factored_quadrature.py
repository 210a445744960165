"""The factored quadrature route against node-by-node evaluation of the same rules."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import brute_force
from shrinker_lab import quadrature
from shrinker_lab.forms import HoloForm, form_integral_identity_check, ricci_bound
from shrinker_lab.frequency import (
    D_of_r,
    FrequencyConfig,
    I_of_r,
    check_defect_recursion,
    frequency_profile,
    level_defect,
    shell_energy_ledger,
)
from shrinker_lab.holopoly import HoloPoly, gradient, monomials
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.quadrature import ball_quadrature, level_set_quadrature
from shrinker_lab.report import _frequency_sharp

MODELS = {
    "gaussian1": gaussian(1),
    "gaussian2": gaussian(2),
    "gaussian3": gaussian(3),
    "cylinder": cylinder(),
    "cylinder_x_gaussian1": product([cylinder(), gaussian(1)]),
}
TOL = 1e-12


def _resolution(model):
    # the m = 3 grids grow as resolution^2; 32 keeps the node-by-node side small
    return 32 if model.flat_m == 3 else 64


def _poly(m):
    """Mixed degrees, complex coefficients and terms in every variable."""
    terms = {(0,) * m: 0.5 - 1.0j, (1,) + (0,) * (m - 1): 2.0, (3,) + (0,) * (m - 1): -0.25j}
    for j in range(1, m):
        alpha = [0] * m
        alpha[0] = alpha[j] = 1
        terms[tuple(alpha)] = 1.0 + 0.5j
        terms[(0,) * j + (2,) + (0,) * (m - j - 1)] = -0.75
    return HoloPoly(m, terms)


def _close(a, b, scale=0.0):
    return abs(a - b) <= TOL * max(abs(b), scale)


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]


def test_height_and_dirichlet_energy(model):
    u, res = _poly(model.flat_m), _resolution(model)
    for r in (4.5, 7.0):
        assert _close(I_of_r(model, u, r, res, "quadrature"), brute_force.I_of_r(model, u, r, res))
        rec = D_of_r(model, u, r, res, "quadrature")
        bulk, boundary = brute_force.D_of_r(model, u, r, res)
        assert _close(rec.bulk, bulk)
        assert _close(rec.boundary, boundary)


def test_level_defect_and_recursion(model):
    u, res, r = _poly(model.flat_m), _resolution(model), 5.0
    # K is a difference of two level integrals; on one flat variable it vanishes
    f, w = brute_force.on_level(model, u, r, res)
    scale = (r / model.flat_radius(r)) * float(np.sum(w * f["grad_sq"]))
    for j in (0, 2):
        expected = brute_force.level_defect(model, u, r, j, res)
        assert _close(level_defect(model, u, r, j, res), expected, model.s_const**j * scale)
    rep = check_defect_recursion(model, u, r, 2, res)
    ks, dirichlet, residuals = brute_force.defect_recursion(model, u, r, 2, res)
    assert all(_close(a, b, model.s_const**j * scale) for j, (a, b) in enumerate(zip(rep.K, ks)))
    assert _close(rep.dirichlet, dirichlet)
    for j, (a, b) in enumerate(zip(rep.recursion_residuals, residuals)):
        # a residual divides a difference of integrals of size S^j scale by 1 + |K_j|
        assert abs(a - b) <= TOL * max(1.0, model.s_const**j * scale / (1.0 + abs(ks[j])))


def test_shell_energies(model):
    u, res = _poly(model.flat_m), _resolution(model)
    rec = shell_energy_ledger(model, u, 3.0, 4.5, FrequencyConfig(resolution=res), c_constant=0.0)
    for i, got in enumerate((rec.J1, rec.J2, rec.J3), start=1):
        assert _close(got, brute_force.shell_energy(model, u, 4.5, 4.5 * rec.lam**i, res))


# one flat variable carries no nonzero contraction-kernel 1-form
@pytest.mark.parametrize("name", ["gaussian2", "gaussian3", "cylinder_x_gaussian1"])
def test_kernel_form_integral(name):
    model = MODELS[name]
    m = model.flat_m
    # z2 dz1 - z1 dz2 is annihilated by the contraction with the soliton field
    e1, e2 = (1, 0) + (0,) * (m - 2), (0, 1) + (0,) * (m - 2)
    omega = HoloForm(1, m, {(0,): HoloPoly.monomial(m, e2), (1,): HoloPoly.monomial(m, e1, -1.0)})
    lam = ricci_bound(model)
    shift = model.n / 2.0 + omega.mu + 2.0 * omega.p * lam
    got = form_integral_identity_check(model, omega, lam, _resolution(model))
    assert _close(got, brute_force.form_integral(model, omega, shift, _resolution(model)))


def test_profile_reuses_one_gram_per_rule_kind():
    model, u = gaussian(2), _poly(2)
    radii = [3.0, 4.5, 9.0, 20.0]
    prof = frequency_profile(model, u, 3.0, radii, FrequencyConfig(resolution=64, method="quadrature"))
    for r, i_val, d_val in zip(radii, prof.I, prof.D):
        assert _close(i_val, brute_force.I_of_r(model, u, r, 64))
        assert _close(d_val, brute_force.D_of_r(model, u, r, 64)[0])


def test_gaussian_m3_at_full_resolution_matches_closed_forms():
    # 33.5M nodes as a flat ball grid; the rule sums 64 simplex nodes for its 262,144 directions
    model = gaussian(3)
    u = HoloPoly(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5j, (0, 0, 1): 2.0})
    for r in (3.0, 7.0):
        closed = I_of_r(model, u, r, method="closed")
        assert math.isclose(I_of_r(model, u, r, 256, "quadrature"), closed, rel_tol=TOL)
        rec_c = D_of_r(model, u, r, method="closed")
        rec_q = D_of_r(model, u, r, 256, "quadrature")
        assert math.isclose(rec_q.bulk, rec_c.bulk, rel_tol=TOL)
        assert math.isclose(rec_q.boundary, rec_c.boundary, rel_tol=TOL)


def _aliased_pairs(u, n_phi):
    """Pairs alpha != beta of u's terms whose exponents agree mod n_phi."""
    return [
        (a, b)
        for a in u.terms
        for b in u.terms
        if a != b and all((x - y) % n_phi == 0 for x, y in zip(a, b))
    ]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n_phi", [2, 3])
def test_aliased_pairs_match_the_flat_grid(m, n_phi):
    # a degree-5 polynomial on angle grids of 2 or 3 points: z^alpha conj(z)^beta
    # with alpha != beta sums to a nonzero value on the grid whenever alpha = beta mod n_phi
    rng = np.random.default_rng(100 * m + n_phi)
    u = HoloPoly(m, {alpha: complex(*rng.normal(size=2)) for alpha in monomials(m, 5)})
    v = u.euler()
    assert _aliased_pairs(u, n_phi)
    model = gaussian(m)
    for rule in (level_set_quadrature(model, 3.0, 32), ball_quadrature(model, 3.0, 32)):
        coarse = dataclasses.replace(rule, n_phi=n_phi)
        for a, b in (([u], [u]), ([v], [u]), (gradient(u), gradient(u))):
            got = coarse.sphere_integrals(a, b)
            want = brute_force.sphere_integrals(coarse, a, b)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # on the rule's own grid only alpha = beta pairs match: the aliased ones count
            unaliased = rule.sphere_integrals(a, b)
            assert np.max(np.abs(got - unaliased)) > 1e-3 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [2, 3])
def test_pair_chunks_match_one_chunk(m, monkeypatch):
    # a cap of three pairs' powers splits the matched pairs into several chunks
    rng = np.random.default_rng(11 + m)
    u = HoloPoly(m, {alpha: complex(*rng.normal(size=2)) for alpha in monomials(m, 4)})
    rule = ball_quadrature(gaussian(m), 3.0, 32)
    for a, b in (([u], [u]), (gradient(u), gradient(u))):
        whole = rule.sphere_integrals(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_PAIR_CHUNK_FLOATS", 3 * rule.nodes.size)
            chunked = rule.sphere_integrals(a, b)
        assert np.array_equal(chunked, whole)


def test_gaussian_m3_sharp_quadrature_row():
    # the report row over all 55 monomials of degree 1..5 at resolution 256
    assert _frequency_sharp(gaussian(3), "quadrature") <= 1e-4
