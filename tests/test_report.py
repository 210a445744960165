"""The verify-all harness: crash reporting and the import cost."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

from shrinker_lab import report
from shrinker_lab.models import gaussian


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


def test_import_leaves_scipy_out():
    code = "import sys, shrinker_lab; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
