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
        raise ZeroDivisionError(f"forced on flat_m={model.flat_m}")

    row = next(c for c in report.CHECKS if c.name == "frequency.k_lemma")
    monkeypatch.setattr(report, "CHECKS", [dataclasses.replace(row, measure=boom)])
    rep = report.verify_all([gaussian(2)])
    assert not rep.passed
    (entry,) = rep.to_dict()["checks"]
    assert entry["name"] == "frequency.k_lemma.gaussian_m2"
    assert entry["status"] == "fail"
    assert entry["margin"] is None
    assert entry["detail"] == "ZeroDivisionError: forced on flat_m=2"


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


def test_verify_all_and_heatflow_load_neither_numpy_random_nor_polynomial():
    # the seeded draws come from the standard library and the heat series from core Horner sums
    code = (
        "import contextlib, io, sys\n"
        "from shrinker_lab import cli, report\n"
        "report.verify_all()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['heatflow', '--initial', 'x^2'])\n"
        "print(sorted(n for n in sys.modules if n.startswith(('numpy.random', 'numpy.polynomial'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the first roundtrip draw on gaussian(2): (alpha, real part, imaginary part) as float hex
FIRST_ROUNDTRIP_DRAW = [
    ((0, 1), "-0x1.ce6bb62a406b2p-8", "-0x1.5dbe5cd836117p+0"),
    ((0, 2), "-0x1.0e6d463c3ed63p-1", "-0x1.5ac03a76b19dfp+0"),
    ((0, 3), "0x1.688fdc46afd26p+0", "0x1.eba0420105320p-2"),
    ((0, 4), "0x1.9705e2ef43b29p-1", "-0x1.a7158a4abf55bp+0"),
    ((0, 5), "-0x1.4f12539a32acbp-2", "0x1.11d35dc7b736ep-1"),
    ((1, 0), "-0x1.e5c3d75bc15b6p+0", "0x1.f97a4ed20abfep-3"),
    ((1, 1), "-0x1.cc04b76998289p+0", "-0x1.2662997561878p-2"),
    ((1, 2), "0x1.a66210e718a94p+0", "-0x1.e83ed8ec143d6p-1"),
    ((1, 3), "-0x1.b36dd04b04660p-2", "0x1.b942ad5c9db88p-1"),
    ((1, 5), "-0x1.fb4deafc79c5fp-1", "-0x1.f62147ed311d8p-3"),
    ((2, 0), "-0x1.0352fc225cb22p+1", "0x1.21a30ce4944e6p+0"),
    ((2, 1), "0x1.a9398416972eep+0", "0x1.1c4294b8c7df0p-2"),
    ((2, 4), "0x1.0ccd46aa9010ap-1", "0x1.3c5a45acd14cep-1"),
    ((3, 0), "-0x1.0319316c49e05p-1", "0x1.75ae8788a1ecap-1"),
    ((3, 1), "0x1.e810b92dbc49bp-3", "0x1.f6bc878dbe2aap-2"),
    ((3, 2), "0x1.42b67cf86e944p-3", "0x1.15e7dfe1a3e73p-2"),
    ((4, 0), "0x1.e0fec8cc0711bp-2", "-0x1.c1c89e1da2ef8p-2"),
    ((4, 1), "0x1.03ee8f12fea61p-7", "0x1.ebede2dbd54d0p-3"),
    ((5, 0), "-0x1.f43d0bd3c3fbdp-2", "-0x1.e68bba465666bp-1"),
    ((5, 1), "-0x1.b8a9bc165e304p-1", "0x1.b90a831181a28p-2"),
    ((6, 0), "0x1.6f52908ab9c49p+1", "-0x1.66e005d94b6fdp-2"),
]


def test_roundtrip_stream_is_pinned():
    u = next(report._random_polys(gaussian(2), 20240811, 1))
    assert [(a, c.real.hex(), c.imag.hex()) for a, c in u.terms.items()] == FIRST_ROUNDTRIP_DRAW


def test_catalog_row_passes_on_two_sphere_factors():
    # the reference convolves the flat lines with one sphere line set per sphere factor
    row = next(c for c in report.CHECKS if c.name == "spectrum.catalog")
    for model in (product([cylinder(), cylinder()]), cylinder(), gaussian(2)):
        result = report._run_check(row, model)
        assert result.status == "pass" and result.margin == 0.0, result


def test_catalog_row_sees_the_l3_sphere_line(monkeypatch):
    # one more harmonic at l = 3, where l(l+1)/2 = 6: entry k = 12 of the cylinder's row
    build = report.spectrum.analytic_spectrum

    def bumped(model, lambda_max):
        cat = build(model, lambda_max)
        row = list(cat.multiplicities)
        if model == cylinder() and len(row) > 12:
            row[12] += 1
        return dataclasses.replace(cat, multiplicities=tuple(row))

    monkeypatch.setattr(report.spectrum, "analytic_spectrum", bumped)
    rep = report.verify_all([cylinder()])
    assert [c.name for c in rep.checks if c.status != "pass"] == ["spectrum.catalog.cylinder"]


def test_roundtrip_polynomials_match_a_per_draw_enumeration():
    # the monomials are enumerated once per model; the draws and their order stay those
    # of an enumeration per draw, so the row tests the same 100 polynomials
    for model in (gaussian(2), cylinder()):
        got = list(report._random_polys(model, 20240811, 100))
        want = brute_force.random_polys(model, 20240811, 100)
        assert [list(u.terms.items()) for u in got] == [list(u.terms.items()) for u in want]
