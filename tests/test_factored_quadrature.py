"""The factored quadrature route against node-by-node evaluation of the same rules."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import brute_force
from shrinker_lab.forms import HoloForm, form_integral_identity_check, ricci_bound
from shrinker_lab.frequency import (
    D_of_r,
    FrequencyConfig,
    check_defect_recursion,
    frequency_profile,
    shell_energy_ledger,
)
from shrinker_lab.holopoly import HoloPoly, gradient, monomials
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.quadrature import ball_moments, ball_quadrature, level_set_moments, level_set_quadrature
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


def _I(model, u, r, resolution=128, method="closed"):
    """I at the single radius r, read from a profile."""
    config = FrequencyConfig(resolution=resolution, method=method)
    return frequency_profile(model, u, 1.0, [r], config).I.item()


def test_height_and_dirichlet_energy(model):
    u, res = _poly(model.flat_m), _resolution(model)
    for r in (4.5, 7.0):
        assert _close(_I(model, u, r, res, "quadrature"), brute_force.I_of_r(model, u, r, res))
        rec = D_of_r(model, u, [r], res, "quadrature")
        bulk, boundary = brute_force.D_of_r(model, u, r, res)
        assert _close(rec.bulk.item(), bulk)
        assert _close(rec.boundary.item(), boundary)


def test_level_defect_and_recursion(model):
    u, res, r = _poly(model.flat_m), _resolution(model), 5.0
    # K is a difference of two level integrals; on one flat variable it vanishes
    f, w = brute_force.on_level(model, u, r, res)
    scale = (r / model.flat_radius(r)) * float(np.sum(w * f["grad_sq"]))
    rep = check_defect_recursion(model, u, r, res)
    # K_j = S^j K_0 on every catalog model
    for j in (0, 2):
        expected = brute_force.level_defect(model, u, r, j, res)
        assert _close(model.s_const**j * rep.K0, expected, model.s_const**j * scale)
    ks, dirichlet, residuals = brute_force.defect_recursion(model, u, r, 1, res)
    assert _close(rep.K0, ks[0], scale)
    assert _close(model.s_const * rep.K0, ks[1], model.s_const * scale)
    assert _close(rep.dirichlet, dirichlet)
    # the residual divides a difference of integrals of size scale by 1 + |K_0|
    assert abs(rep.residual - residuals[0]) <= TOL * max(1.0, scale / (1.0 + abs(ks[0])))


def test_shell_energies(model):
    u, res = _poly(model.flat_m), _resolution(model)
    rec = shell_energy_ledger(model, u, 3.0, 4.5, res, c_constant=0.0)
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
    # 33.5M nodes as a flat ball grid; the rule sums an 8-point 1-D rule per collapsed
    # coordinate for its 262,144 directions
    model = gaussian(3)
    u = HoloPoly(3, {(1, 1, 1): 1.0, (2, 0, 0): -0.5j, (0, 0, 1): 2.0})
    for r in (3.0, 7.0):
        closed = _I(model, u, r, method="closed")
        assert math.isclose(_I(model, u, r, 256, "quadrature"), closed, rel_tol=TOL)
        rec_c = D_of_r(model, u, [r], method="closed")
        rec_q = D_of_r(model, u, [r], 256, "quadrature")
        assert math.isclose(rec_q.bulk.item(), rec_c.bulk.item(), rel_tol=TOL)
        assert math.isclose(rec_q.boundary.item(), rec_c.boundary.item(), rel_tol=TOL)


def _aliased_pairs(u, n_phi):
    """Pairs alpha != beta of u's terms whose exponents agree mod n_phi."""
    return [
        (a, b)
        for a in u.terms
        for b in u.terms
        if a != b and all((x - y) % n_phi == 0 for x, y in zip(a, b))
    ]


def _hermitian_gap(gram):
    """Largest |G[j, i, d] - conj(G[i, j, d])|."""
    return np.max(np.abs(gram - gram.transpose(1, 0, 2).conj()))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n_phi", [1, 2, 3, 4])
def test_aliased_pairs_match_the_flat_grid(m, n_phi):
    # a degree-5 polynomial on angle grids of 1 to 4 points: z^alpha conj(z)^beta with
    # alpha != beta sums to a nonzero value on the grid whenever alpha = beta mod n_phi;
    # at n_phi = 1 every term falls into one group
    rng = np.random.default_rng(100 * m + n_phi)
    u = HoloPoly(m, {alpha: complex(*rng.normal(size=2)) for alpha in monomials(m, 5)})
    assert _aliased_pairs(u, n_phi)
    model = gaussian(m)
    closed = (level_set_moments(model, [3.0]), ball_moments(model, [3.0]))
    for rule, exact in zip((level_set_quadrature(model, [3.0], 32), ball_quadrature(model, [3.0], 32)), closed):
        coarse = dataclasses.replace(rule, n_phi=n_phi)
        for polys in ([u, u.euler()], gradient(u)):
            got = coarse.gram(polys)
            want = brute_force.gram(coarse, polys)
            assert got.shape == want.shape
            # every entry, off the diagonal and imaginary parts included
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # on the rule's own grid only alpha = beta pairs match: the aliased ones count
            unaliased = rule.gram(polys)
            assert np.max(np.abs(got - unaliased)) > 1e-3 * np.max(np.abs(want))
            for gram in (got, unaliased, exact.gram(polys)):
                assert _hermitian_gap(gram) <= 1e-15 * np.max(np.abs(gram))


def test_profile_memory_stays_off_the_simplex_grid():
    # gaussian(5) at resolution 479, the largest the rule budget accepts: its level
    # simplex grid would hold 29^4 = 707,281 nodes, and the sums read 1-D tables only
    model = gaussian(5)
    rng = np.random.default_rng(5)
    alphas = list(monomials(5, 3))
    picks = rng.choice(len(alphas), 20, replace=False)
    u = HoloPoly(5, {alphas[k]: complex(*rng.normal(size=2)) for k in picks})
    config = FrequencyConfig(resolution=479, method="quadrature")
    radii = [4.0, 6.0, 9.0]
    tracemalloc.start()
    try:
        profile = frequency_profile(model, u, 3.0, radii, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    closed = frequency_profile(model, u, 3.0, radii)
    assert np.allclose(profile.U, closed.U, rtol=1e-12, atol=0.0)


def test_profile_memory_stays_off_the_radius_by_node_table():
    # one ball rule over 25,000 radii sums per-degree radial moments: an R x n_rad
    # node table would hold 25,000 x 128 floats (25.6 MB) on its own
    model = gaussian(2)
    u = HoloPoly(2, {(2, 1): 1.0, (0, 1): 1.0, (1, 0): 0.5 - 2.0j, (0, 0): -1.0})
    radii = np.linspace(1.0, 40.0, 25_000)
    config = FrequencyConfig(resolution=256, method="quadrature")
    tracemalloc.start()
    try:
        profile = frequency_profile(model, u, 3.0, radii, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    closed = frequency_profile(model, u, 3.0, radii)
    for q in ("I", "D", "U"):
        assert np.allclose(getattr(profile, q), getattr(closed, q), rtol=1e-12, atol=0.0)


def test_gaussian_m3_sharp_quadrature_row():
    # the report row over all 55 monomials of degree 1..5 at resolution 256
    assert _frequency_sharp(gaussian(3), "quadrature") <= 1e-4
