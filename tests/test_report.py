"""The verify-all harness: crash reporting, product models and the import cost."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import brute_force
from shrinker_lab import report
from shrinker_lab.models import cylinder, gaussian, product


def test_crashed_model_check_is_reported_under_its_name(monkeypatch):
    def boom(model):
        raise ZeroDivisionError(f"forced on {model.kind}")

    row = next(c for c in report.CHECKS if c.name == "frequency.k_lemma")
    monkeypatch.setattr(report, "CHECKS", [dataclasses.replace(row, measure=boom)])
    rep = report.verify_all([gaussian(2)])
    assert not rep.passed
    (entry,) = rep.to_dict()["checks"]
    assert entry["name"] == "frequency.k_lemma.gaussian_m2"
    assert entry["status"] == "fail"
    assert entry["margin"] is None
    assert entry["detail"] == "ZeroDivisionError: forced on gaussian"


def test_cylinder_times_line_passes_every_check():
    # the curved frequency reference d r^2 / (r^2 - 4 sup S) holds with two flat variables too
    rep = report.verify_all([product([cylinder(), gaussian(1)])])
    assert len(rep.checks) == 29
    assert [c.name for c in rep.checks if c.status != "pass"] == []
    names = {c.name for c in rep.checks}
    assert {
        "frequency.sharp_closed.cylinder_x_gaussian_m1",
        "frequency.sharp_quadrature.cylinder_x_gaussian_m1",
    } <= names


def test_cylinder_times_cylinder_passes_every_check():
    # the extrapolated difference of I keeps frequency.i_prime far inside its tolerance here
    rep = report.verify_all([product([cylinder(), cylinder()])])
    assert len(rep.checks) == 29
    assert [c.name for c in rep.checks if c.status != "pass"] == []


def test_k_lemma_says_it_is_vacuous_on_one_flat_variable():
    row = next(c for c in report.CHECKS if c.name == "frequency.k_lemma")
    for model in (cylinder(), gaussian(1), gaussian(2), product([cylinder(), cylinder()])):
        result = report._run_check(row, model)
        assert result.status == "pass" and result.margin <= row.tol
        if model.flat_m == 1:
            assert result.detail.startswith("vacuous on one flat variable")
            # no tolerance figure in the detail, which would add an accuracy reading
            assert "tol" not in result.detail
        else:
            assert result.detail == ""


def test_two_products_share_one_report(monkeypatch):
    row = next(c for c in report.CHECKS if c.name == "geometry.normalization")
    monkeypatch.setattr(report, "CHECKS", [row])
    rep = report.verify_all([product([cylinder(), gaussian(1)]), product([cylinder(), cylinder()])])
    assert [c.name for c in rep.checks] == [
        "geometry.normalization.cylinder_x_cylinder",
        "geometry.normalization.cylinder_x_gaussian_m1",
    ]


def test_four_flat_variables_pass_every_check():
    # the quadrature rows sum over 16-point (level) and 8-point (ball) rules per collapsed coordinate
    rep = report.verify_all([gaussian(4)])
    assert len(rep.checks) == 29
    assert [c.name for c in rep.checks if c.status != "pass"] == []


def test_import_leaves_scipy_out():
    code = "import sys, shrinker_lab; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_catalog_row_passes_on_two_sphere_factors():
    # the reference convolves the flat lines with one sphere line set per sphere factor
    row = next(c for c in report.CHECKS if c.name == "spectrum.catalog")
    for model in (product([cylinder(), cylinder()]), cylinder(), gaussian(2)):
        result = report._run_check(row, model)
        assert result.status == "pass" and result.margin == 0.0, result


def test_roundtrip_polynomials_match_a_per_draw_enumeration():
    # the monomials are enumerated once per model; the draws and their order stay those
    # of an enumeration per draw, so the row tests the same 100 polynomials
    for model in (gaussian(2), cylinder()):
        got = list(report._random_polys(model, 20240811, 100))
        want = brute_force.random_polys(model, 20240811, 100)
        assert [list(u.terms.items()) for u in got] == [list(u.terms.items()) for u in want]
