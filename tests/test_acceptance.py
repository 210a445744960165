"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s and in failure
reports) and enforces its runtime budget where one is pinned.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import brute_force
import numpy as np

from shrinker_lab import fheat, forms, frequency, holopoly, oracle1d, quadrature, spectrum
from shrinker_lab.holopoly import HoloPoly, monomials
from shrinker_lab.models import cylinder, gaussian


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label} {suffix}"


def test_acceptance_01_spectrum():
    t0 = time.perf_counter()
    ok = True
    for m in (1, 2, 3):
        cat = spectrum.analytic_spectrum(gaussian(m), 3.0)
        for k, mult in enumerate(cat.multiplicities):
            if mult != math.comb(2 * m + k - 1, 2 * m - 1):
                ok = False
    ev = oracle1d.oracle_spectrum_1d(N=800, k_eigs=5)
    err = float(np.abs(ev - np.array([0.0, 0.5, 1.0, 1.5, 2.0])).max())
    ok = ok and err < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _line(1, "analytic catalog law and 1-D oracle within 1e-6", ok, f"oracle err {err:.2e}, {elapsed:.2f}s")


def test_acceptance_02_dim_bound():
    t0 = time.perf_counter()
    ok = True
    for model in (gaussian(1), gaussian(2), gaussian(3), cylinder()):
        for d in range(1, 7):
            if not spectrum.dimension_bound_check(model, float(d)).passed:
                ok = False
    for m in (1, 2, 3):
        rec = spectrum.dimension_bound_check(gaussian(m), 1.0)
        if not (rec.bound == rec.dim_Od == m + 1):
            ok = False
    for m in (2, 3):  # strict above linear growth on two or more variables
        for d in range(2, 7):
            rec = spectrum.dimension_bound_check(gaussian(m), float(d))
            if rec.bound <= rec.dim_Od:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(2, "dimension bound for d=1..6 with equality exactly at linear growth", ok, f"{elapsed:.3f}s")


def test_acceptance_03_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    ok = True
    for _ in range(100):
        terms = {}
        for alpha in [*monomials(2, 6, 1), (0, 0)]:
            if rng.uniform() < 0.6:
                terms[alpha] = complex(rng.normal(), rng.normal())
        u = HoloPoly(2, terms or {(0, 0): 1.0})
        dec = holopoly.decompose_by_eigenvalue(u, 6.0)
        if (dec.reconstruct(2) - u).coeff_norm() > 1e-10 * max(1.0, u.coeff_norm()):
            ok = False
        for k, part in dec.parts.items():
            flow = holopoly.lie_derivative_nabla_f(part)
            if (flow - part.scale(k / 2)).coeff_norm() > 1e-10 * max(1.0, part.coeff_norm()):
                ok = False
            if part.degree != k:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(3, "eigen-decomposition round trip over 100 random polynomials", ok, f"{elapsed:.2f}s")


def test_acceptance_04_frequency_sharpness():
    ok = True
    worst_closed, worst_quad = 0.0, 0.0
    quad = frequency.FrequencyConfig(resolution=256, method="quadrature")
    for m in (1, 2):
        model = gaussian(m)
        for alpha in monomials(m, 5, 1):
            u = HoloPoly.monomial(m, alpha)
            d = sum(alpha)
            for r in (1.0, 2.5, 10.0, 40.0):
                err = abs(frequency.frequency_profile(model, u, d, [r]).U[0] - d)
                worst_closed = max(worst_closed, err)
            for r in (2.5, 20.0):
                err = abs(frequency.frequency_profile(model, u, d, [r], quad).U[0] - d)
                worst_quad = max(worst_quad, err)
    ok = worst_closed < 1e-8 and worst_quad < 1e-4
    _line(4, "frequency equals degree for flat monomials", ok,
          f"closed {worst_closed:.2e}, quadrature {worst_quad:.2e}")


def test_acceptance_05_derivative_identity():
    cyl = cylinder()
    worst = 0.0
    for k in (1, 2, 3):
        u = HoloPoly.monomial(1, (k,))
        worst = max(worst, frequency.check_derivative_I(cyl, u, [4.5, 6.0, 10.0, 20.0]).max())
    u = HoloPoly.monomial(1, (2,))
    ratio = (frequency.check_derivative_I(cyl, u, [6.0], h=0.6) / frequency.check_derivative_I(
        cyl, u, [6.0], h=0.3
    )).item()
    ok = worst < 1e-5 and ratio > 12.0
    _line(5, "height-derivative identity with fourth-order differences", ok,
          f"worst {worst:.2e}, halving ratio {ratio:.2f}")


def test_acceptance_06_divergence_consistency():
    worst = 0.0
    for model in (gaussian(1), gaussian(2), cylinder()):
        u = HoloPoly(
            model.flat_m,
            {(1,) + (0,) * (model.flat_m - 1): 1.0, (2,) + (0,) * (model.flat_m - 1): 0.5j},
        )
        rec = frequency.D_of_r(model, u, [4.5, 10.0], 256, "quadrature")
        worst = max(worst, (np.abs(rec.bulk - rec.boundary) / np.abs(rec.bulk)).max())
    _line(6, "bulk and boundary energies agree to 1e-6", worst < 1e-6, f"worst gap {worst:.2e}")


def test_acceptance_07_volume_identity():
    ok = True
    for m in (1, 2):
        if max(quadrature.verify_volume_identity(gaussian(m), (3.0, 6.0, 10.0), 128)) > 1e-10:
            ok = False
    cyl = cylinder()
    v, a = brute_force.volume_area(cyl, 4.0)
    lhs = cyl.n * v - 4.0 * a
    ok = ok and math.isclose(lhs, 128.0 * math.pi**2, rel_tol=1e-12)
    worst = max(quadrature.verify_volume_identity(cyl, (6.0, 10.0, 20.0), 128))
    ok = ok and worst < 1e-6
    _line(7, "volume identity: exact flat case, closed-form and quadrature cylinder", ok,
          f"cylinder worst {worst:.2e}")


def test_acceptance_08_derivative_ratio_bound():
    ok = True
    worst_exact = 0.0
    for model in (gaussian(1), gaussian(2), cylinder()):
        for alpha in monomials(model.flat_m, 4, 1):
            u = HoloPoly.monomial(model.flat_m, alpha)
            d = float(sum(alpha))
            rec = frequency.rho_mu(model, u, d, [4.5, 8.0, 16.0])
            if not rec.passed:
                ok = False
            if not model.sphere_factors:
                worst_exact = max(worst_exact, np.abs(rec.rho - d * d / 4.0).max())
    ok = ok and worst_exact < 1e-8
    _line(8, "derivative-pair ratio below e^{2p+6} d^2 with the exact flat value", ok,
          f"flat deviation {worst_exact:.2e}")


def test_acceptance_09_monotonicity():
    cyl = cylinder()
    lo = frequency.default_R0(cyl) + 0.1
    pre = np.linspace(lo, 44.0, 140)
    hold = np.linspace(lo + 0.17, 43.1, 59)
    ok = True
    for k in (1, 2, 3):
        u = HoloPoly.monomial(1, (k,))
        cfg = frequency.calibrate_constants(cyl, u, float(k), pre)
        prof = frequency.frequency_profile(cyl, u, float(k), hold, cfg)
        if not frequency.check_monotone(prof):
            ok = False
    _line(9, "damped frequency monotone on holdout grids with calibrated constants", ok)


def test_acceptance_10_doubling_three_circle():
    grid = np.array([8.0, 12.0, 16.0, 24.0, 32.0, 48.0])
    worst = math.inf
    for model in (gaussian(2), cylinder()):
        for d in (1, 2, 3):
            u = HoloPoly.monomial(model.flat_m, (d,) + (0,) * (model.flat_m - 1))
            prof = frequency.frequency_profile(model, u, float(d), grid)
            for rec in frequency.doubling_and_three_circle(prof, [8.0, 12.0]):
                worst = min(worst, rec.doubling_margin, rec.three_circle_margin)
    _line(10, "doubling and three-circle estimates with positive margin", worst > 0,
          f"min margin {worst:.2f}")


def test_acceptance_11_heat_flow():
    x, num = fheat.timestep_oracle(
        lambda xs: xs**2, 0.0, 1.0, N_grid=800, N_steps=200, extrapolate=True
    )
    series = fheat.evolve_series(fheat.project_to_eigenbasis(np.array([0.0, 0.0, 1.0])), 1.0, x)
    err = fheat.weighted_l2_distance(num, series, x=x)
    ok = err < 1e-3
    parts = fheat.transform_to_eternal(fheat.HeatPolynomial({(2, 0): 1.0, (0, 1): 2.0}))
    ok = ok and set(parts) == {2} and list(parts[2]) == [-2.0, 0.0, 1.0]
    for d in range(5):
        if fheat.ancient_transform_check(fheat.HeatPolynomial.of_degree(d)) != 0.0:
            ok = False
    _line(11, "heat oracle within 1e-3 and exact caloric transform", ok, f"L2 err {err:.2e}")


def test_acceptance_12_forms():
    from itertools import combinations

    ok = True
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            for idx in combinations(range(m), p):
                for deg in range(7):
                    alpha = [0] * m
                    alpha[0] = deg
                    om = forms.HoloForm.monomial(m, alpha, idx)
                    got = forms.f_hodge_laplacian(om)
                    if (got - om.scale((deg + p) / 2.0)).coeff_norm() > 1e-14:
                        ok = False
    ev = forms.one_form_spectrum_oracle(k_eigs=6)
    ok = ok and float(ev.min()) >= 0.5 - 1e-6
    for m in (1, 2):
        for p in range(0, min(2, m) + 1):
            for mu in range(0, 5):
                if not forms.form_count_check(gaussian(m), p, mu).passed:
                    ok = False
    sharp = forms.form_count_check(gaussian(1), 1, 0)
    ok = ok and sharp.dim == sharp.count == 1
    for mu in range(1, 6):
        if forms.kernel_dimension(gaussian(2), 1, mu) != holopoly.dim_O_d(gaussian(2), mu - 1):
            ok = False
    for m in (1, 2):
        for p in range(1, m + 1):
            for mu in range(0, 4):
                if not forms.form_reduction_ledger(gaussian(m), p, mu).passed:
                    ok = False
    _line(12, "form eigenvalue law, 1-form bound, counting, syzygies, reduction ledger", ok)


def test_acceptance_13_end_to_end():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "shrinker_lab.cli", "verify-all", "--model", "both", "--m", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 120.0
    report = json.loads(proc.stdout) if proc.stdout.strip() else {}
    ok = ok and report.get("passed") is True and len(report.get("checks", [])) >= 25
    ok = ok and report.get("config") == {"model_choice": "both", "m": 2}
    _line(13, "verify-all exits 0 under the time budget", ok,
          f"{elapsed:.1f}s, {len(report.get('checks', []))} checks, rc={proc.returncode}")
