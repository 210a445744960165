"""Analytic spectra, eigenvalue counting and the dimension bound."""

from __future__ import annotations

import math

import pytest

from shrinker_lab import spectrum
from shrinker_lab.errors import CompletenessError, DomainError, NumericError
from shrinker_lab.oracle1d import oracle_spectrum_1d
from shrinker_lab.models import cylinder, gaussian, product
from shrinker_lab.spectrum import (
    CATALOG_WORK_LIMIT,
    _catalog_work,
    analytic_spectrum,
    count_eigenvalues,
    dimension_bound_check,
)


def _lines(catalog):
    return [(float(l.eigenvalue), l.multiplicity) for l in catalog.lines]


def test_gaussian_r2_catalog():
    cat = analytic_spectrum(gaussian(1), 1.0)
    assert _lines(cat) == [(0.0, 1), (0.5, 2), (1.0, 3)]


def test_gaussian_first_nonzero_multiplicity():
    for m in (1, 2, 3):
        cat = analytic_spectrum(gaussian(m), 1.0)
        line = cat.first_nonzero()
        assert float(line.eigenvalue) == 0.5
        assert line.multiplicity == 2 * m


def test_cylinder_catalog_convolution():
    cat = analytic_spectrum(cylinder(), 1.0)
    assert _lines(cat) == [(0.0, 1), (0.5, 2), (1.0, 6)]  # flat 3 + sphere 3 at eigenvalue 1


def test_product_counts_match_brute_convolution():
    combo = product([cylinder(), gaussian(1)])
    cat = analytic_spectrum(combo, 2.0)
    flat = analytic_spectrum(gaussian(2), 2.0)  # flat factors merge
    total = 0
    for line in flat.lines:
        for ell in range(3):
            ev = float(line.eigenvalue) + ell * (ell + 1) / 2
            if ev <= 2.0 + 1e-9:
                total += line.multiplicity * (2 * ell + 1)
    assert count_eigenvalues(cat, 0.0, 2.0) == total


def test_count_examples():
    cat = analytic_spectrum(gaussian(2), 1.0)
    assert count_eigenvalues(cat, 0.5, 0.5) == 4
    assert count_eigenvalues(cat, 0.5, 1.0) == 14  # 4 + 10
    cyl = analytic_spectrum(cylinder(), 0.5)
    assert count_eigenvalues(cyl, 0.5, 0.5) == 2


def test_count_completeness_guard():
    cat = analytic_spectrum(gaussian(1), 1.0)
    with pytest.raises(CompletenessError):
        count_eigenvalues(cat, 0.0, 2.0)


def test_catalog_rejects_negative_horizon():
    with pytest.raises(DomainError):
        analytic_spectrum(gaussian(1), -1.0)


_GUARD_MODELS = {
    "gaussian_m1": gaussian(1),
    "gaussian_m3": gaussian(3),
    "cylinder": cylinder(),
    "cylinder_x_gaussian": product([cylinder(), gaussian(1)]),
    "cylinder_x_cylinder": product([cylinder(), cylinder()]),
}


def _built_work(model, lambda_max):
    """Lines built plus line pairs convolved, counted on the catalog's own factors."""
    parts = [spectrum._flat_lines(2 * model.flat_m, lambda_max)] if model.flat_m else []
    parts += [spectrum._sphere_lines(lambda_max) for _ in range(model.sphere_factors)]
    work, lines = sum(len(part) for part in parts), parts[0]
    for more in parts[1:]:
        work += len(lines) * len(more)
        lines = spectrum._convolve(lines, more, lambda_max)
    return work


@pytest.mark.parametrize("model", _GUARD_MODELS.values(), ids=_GUARD_MODELS.keys())
def test_catalog_work_bounds_the_built_work(model):
    for lambda_max in (0.0, 0.5, 1.0, 2.9, 3.0, 10.25, 40.0):
        built = _built_work(model, lambda_max)
        assert built <= _catalog_work(model, lambda_max) <= 2.0 * built + 4.0
    # every horizon verify-all uses is far inside the limit
    assert _catalog_work(model, 3.0) < CATALOG_WORK_LIMIT / 1000


@pytest.mark.parametrize(
    "model, lambda_max",
    [
        (cylinder(), 5e8),
        (gaussian(2), 5e6),
        (gaussian(3), 1e6),
        (gaussian(1), CATALOG_WORK_LIMIT / 2.0),
        (product([cylinder(), cylinder()]), 1e3),
        (gaussian(1), math.inf),
        (gaussian(1), math.nan),
    ],
)
def test_oversized_catalog_is_refused_before_any_line(model, lambda_max, monkeypatch):
    def refuse(*args):
        raise AssertionError("a line was built past the guard")

    for name in ("_flat_lines", "_sphere_lines", "_convolve"):
        monkeypatch.setattr(spectrum, name, refuse)
    with pytest.raises(NumericError, match="over the limit"):
        analytic_spectrum(model, lambda_max)
    with pytest.raises(NumericError, match="over the limit"):
        dimension_bound_check(model, 2.0 * lambda_max)


def test_catalog_just_inside_the_limit_passes_the_guard(monkeypatch):
    lambda_max = (CATALOG_WORK_LIMIT - 2) / 2.0  # CATALOG_WORK_LIMIT - 1 flat lines
    built = []
    monkeypatch.setattr(spectrum, "_flat_lines", lambda two_m, lam: built.append(lam) or [])
    analytic_spectrum(gaussian(1), lambda_max)
    assert built == [lambda_max]
    with pytest.raises(NumericError):
        analytic_spectrum(gaussian(1), lambda_max + 1.0)


def test_dimension_bound_examples():
    for m in (1, 2, 3):
        rec = dimension_bound_check(gaussian(m), 1.0)
        assert rec.bound == m + 1
        assert rec.dim_Od == m + 1
        assert rec.passed
    rec = dimension_bound_check(gaussian(1), 2.0)
    assert rec.bound == 3  # floor of 1 + 5/2
    assert rec.dim_Od == 3
    assert rec.passed
    rec = dimension_bound_check(cylinder(), 1.0)
    assert rec.bound == 2
    assert rec.dim_Od == 2
    assert rec.passed


def test_dimension_bound_all_models_d_1_to_6():
    for model in (gaussian(1), gaussian(2), gaussian(3), cylinder()):
        for d in range(1, 7):
            assert dimension_bound_check(model, float(d)).passed


def test_dimension_bound_strict_above_linear_for_m_ge_2():
    for m in (2, 3):
        for d in range(2, 7):
            rec = dimension_bound_check(gaussian(m), float(d))
            assert rec.bound > rec.dim_Od


def test_oracle_convolution_matches_flat_r2_spectrum():
    # the 1-D oracle spectrum convolved with itself reproduces the R^2 catalog
    ev_1d = oracle_spectrum_1d(X=12.0, N=400, k_eigs=4)
    sums = sorted(a + b for a in ev_1d for b in ev_1d)
    counts: dict[float, int] = {}
    for s in sums:
        key = round(2.0 * s) / 2.0
        assert abs(s - key) < 1e-5
        counts[key] = counts.get(key, 0) + 1
    cat = analytic_spectrum(gaussian(1), 1.5)
    for line in cat.lines:
        assert counts[float(line.eigenvalue)] == line.multiplicity


def test_catalog_serialization():
    cat = analytic_spectrum(cylinder(), 1.5)
    data = cat.to_dict()
    assert data["lines"][0] == {"eigenvalue": 0.0, "multiplicity": 1, "label": data["lines"][0]["label"]}
    assert all(a["eigenvalue"] < b["eigenvalue"] for a, b in zip(data["lines"], data["lines"][1:]))
