"""The verify-all harness: crash reporting, product models and the import cost."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

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
    assert {"frequency.sharp_closed.product", "frequency.sharp_quadrature.product"} <= names


def test_import_leaves_scipy_out():
    code = "import sys, shrinker_lab; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
