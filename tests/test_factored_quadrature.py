"""The factored quadrature route against node-by-node evaluation of the same rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

import brute_force
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
from shrinker_lab.holopoly import HoloPoly
from shrinker_lab.models import cylinder, gaussian, product

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
    # 33.5M nodes as a flat ball grid; the factored rule evaluates 262,144 directions
    model = gaussian(3)
    u = HoloPoly(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5j, (0, 0, 1): 2.0})
    for r in (3.0, 7.0):
        closed = I_of_r(model, u, r, method="closed")
        assert math.isclose(I_of_r(model, u, r, 256, "quadrature"), closed, rel_tol=TOL)
        rec_c = D_of_r(model, u, r, method="closed")
        rec_q = D_of_r(model, u, r, 256, "quadrature")
        assert math.isclose(rec_q.bulk, rec_c.bulk, rel_tol=TOL)
        assert math.isclose(rec_q.boundary, rec_c.boundary, rel_tol=TOL)
