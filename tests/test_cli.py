"""Command-line surface: literals, subcommands, formats and exit codes."""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import time
import warnings

import pytest

from shrinker_lab.cli import _OPTIONS, main, parse_poly_string
from shrinker_lab.errors import ConfigError


def test_parse_poly_basic():
    assert parse_poly_string("w^2").terms == {(2,): 1.0}
    assert parse_poly_string("3").terms == {(0,): 3.0}
    assert parse_poly_string("2*z^3").terms == {(3,): 2.0}
    assert parse_poly_string("x^2 - 4").terms == {(2,): 1.0, (0,): -4.0}


def test_parse_poly_multivariate():
    u = parse_poly_string("z1^2 z2 - 0.5 z2^3", m=2)
    assert u.terms == {(2, 1): 1.0, (0, 3): -0.5}
    v = parse_poly_string("z1 + z2", m=2)
    assert v.terms == {(1, 0): 1.0, (0, 1): 1.0}


def test_parse_poly_json_literal():
    u = parse_poly_string('{"m": 2, "terms": [{"alpha": [1, 1], "re": 2.0, "im": -1.0}]}')
    assert u.terms == {(1, 1): 2.0 - 1.0j}


def test_parse_poly_errors():
    with pytest.raises(ConfigError):
        parse_poly_string("q^2")
    with pytest.raises(ConfigError):
        parse_poly_string("z1 + !")
    with pytest.raises(ConfigError):
        parse_poly_string("z3", m=2)


def test_spectrum_command(capsys):
    code = main(["spectrum", "--model", "gaussian", "--m", "1", "--lambda-max", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    lines = [(l["eigenvalue"], l["multiplicity"]) for l in data["lines"]]
    assert lines == [(0.0, 1), (0.5, 2), (1.0, 3)]


def test_closed_stdout_exits_1_without_a_traceback():
    # about 4 MB of JSON, far more than a pipe buffer: the reader closes after one line
    argv = ["spectrum", "--model", "gaussian", "--m", "1", "--lambda-max", "20000"]
    with subprocess.Popen(
        [sys.executable, "-m", "shrinker_lab.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


def test_dimension_command(capsys):
    code = main(["dimension", "--model", "cylinder", "--d", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound"] == 2 and data["dim_Od"] == 2 and data["pass"]


def test_frequency_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(
        [
            "frequency",
            "--model",
            "cylinder",
            "--poly",
            "w^2",
            "--rmin",
            "4.5",
            "--rmax",
            "40",
            "--n",
            "64",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 64
    mu = None
    for row in rows:
        assert set(row) == {"r", "I", "D", "U", "eta", "monotone_q"}
        assert 0.0 < float(row["U"]) <= 2.0 + 0.01 * (2.718281828 ** 7) * 2.0  # d + eps sqrt(mu)
    # determinism: a second run produces byte-identical output
    out2 = tmp_path / "profile2.csv"
    main(
        [
            "frequency",
            "--model",
            "cylinder",
            "--poly",
            "w^2",
            "--rmin",
            "4.5",
            "--rmax",
            "40",
            "--n",
            "64",
            "--out",
            str(out2),
        ]
    )
    assert out.read_text() == out2.read_text()


def test_frequency_json(capsys):
    code = main(
        [
            "frequency",
            "--model",
            "gaussian",
            "--m",
            "1",
            "--poly",
            "z^2",
            "--rmin",
            "5",
            "--rmax",
            "20",
            "--n",
            "4",
            "--format",
            "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["monotone"] is True
    assert len(data["rows"]) == 4
    assert all(abs(row["U"] - 2.0) < 1e-8 for row in data["rows"])


def test_heatflow_command(capsys):
    code = main(["heatflow", "--initial", "x^2", "--s", "1.0", "--n-grid", "400", "--n-steps", "100", "--extrapolate"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == {"0.0": 2.0, "1.0": 1.0}
    assert data["l2_error_series_vs_oracle"] < 5e-3


def test_forms_command(capsys):
    code = main(["forms", "--model", "gaussian", "--m", "2", "--p", "1", "--mu", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count_bound"]["pass"]
    assert data["kernel_dim"] == 3
    assert data["reduction_ledger"]["dim_forms"] == 12


def test_forms_ledger_floors_a_negative_growth(capsys):
    # growth -0.5 admits no form: the ledger is the one at -1, not the one at 0
    reports = []
    for mu in ("-0.5", "-1"):
        assert main(["forms", "--model", "gaussian", "--m", "2", "--p", "1", "--mu", mu]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    half, whole = reports
    assert half["reduction_ledger"]["dim_forms"] == half["dim_forms"] == 0
    assert half["reduction_ledger"] == whole["reduction_ledger"]
    assert half["kernel_dim"] == whole["kernel_dim"]


def test_forms_command_beyond_the_whole_matrix(capsys):
    # the whole contraction matrix here is 1288 x 1260; its blocks are at most 4 x 6
    code = main(["forms", "--model", "gaussian", "--m", "4", "--p", "2", "--mu", "6"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kernel_dim"] == 434
    assert data["reduction_ledger"]["kernel_dims"] == [434, 826]


def test_missing_config_exits_2(capsys):
    code = main(["spectrum", "--config", "/nonexistent/config.json"])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_bad_poly_exits_2(capsys):
    code = main(["frequency", "--model", "cylinder", "--poly", "??", "--rmin", "4.5", "--rmax", "10", "--n", "4"])
    assert code == 2


@pytest.mark.parametrize("mu", ["nan", "inf", "710"])
def test_forms_rejects_bad_mu_flag(mu, capsys):
    code = main(["forms", "--model", "gaussian", "--m", "1", "--p", "1", "--mu", mu])
    assert code == 2
    assert "--mu" in capsys.readouterr().err


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 710])
def test_forms_rejects_bad_mu_config(mu, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1, "mu": mu}))
    code = main(["forms", "--model", "gaussian", "--m", "1", "--config", str(cfg)])
    assert code == 2
    assert "--mu" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-all", "spectrum"])
def test_m_zero_exits_2(command, capsys):
    code = main([command, "--model", "gaussian", "--m", "0"])
    assert code == 2
    assert "--m" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["3", "-1"])
def test_forms_rejects_bad_p_flag(p, capsys):
    code = main(["forms", "--model", "gaussian", "--m", "2", "--p", p, "--mu", "2"])
    assert code == 2
    assert "--p" in capsys.readouterr().err


@pytest.mark.parametrize("p", [3, -1, 1.0, "1"])
def test_forms_rejects_bad_p_config(p, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "mu": 2}))
    code = main(["forms", "--model", "gaussian", "--m", "2", "--config", str(cfg)])
    assert code == 2
    assert "--p" in capsys.readouterr().err


_FREQ = ["frequency", "--model", "cylinder", "--poly", "w", "--rmin", "4.5", "--rmax", "10"]
_HEAT = ["heatflow", "--initial", "x^2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_FREQ + ["--n", "0"], "--n"),
        (_FREQ + ["--rmin", "nan"], "--rmin"),
        (_FREQ + ["--rmax", "inf"], "--rmax"),
        (_HEAT + ["--s", "-1"], "--s"),
        (_HEAT + ["--s", "0"], "--s"),
        (_HEAT + ["--s", "nan"], "--s"),
        (_HEAT + ["--n-grid", "0"], "--n-grid"),
        (_HEAT + ["--n-steps", "0"], "--n-steps"),
        (["dimension", "--model", "cylinder", "--d", "nan"], "--d"),
        (["dimension", "--model", "cylinder", "--d", "-1"], "--d"),
        (["spectrum", "--model", "cylinder", "--lambda-max", "nan"], "--lambda-max"),
        (["spectrum", "--model", "cylinder", "--lambda-max", "-1"], "--lambda-max"),
        (_FREQ + ["--rmin", "10", "--rmax", "5"], "--rmin"),
        (_FREQ + ["--rmin", "10"], "--rmin"),
        (_FREQ + ["--sigma", "-1"], "--sigma"),
        (_FREQ + ["--epsilon", "0"], "--epsilon"),
        (_FREQ + ["--d", "nan"], "--d"),
        (_HEAT + ["--n-grid", "5"], "--n-grid"),
        (_HEAT + ["--n-grid", "15"], "--n-grid"),
        (_FREQ + ["--rmin", "1"], "--rmin"),
    ],
    ids=[
        "n", "rmin", "rmax", "s-negative", "s-zero", "s-nan", "n-grid", "n-steps",
        "d-nan", "d-negative", "lambda-max-nan", "lambda-max-negative", "rmin-above-rmax",
        "rmin-equals-rmax", "sigma-negative", "epsilon-zero", "frequency-d-nan", "n-grid-5",
        "n-grid-15", "rmin-irregular",
    ],
)
def test_bad_numeric_flag_exits_2(argv, flag, capsys):
    code = main(argv)
    assert code == 2
    assert f"{flag} (" in capsys.readouterr().err


def test_frequency_has_no_resolution_flag(capsys):
    # frequency runs the closed route, which builds no quadrature rule
    with pytest.raises(SystemExit) as exc:
        main(_FREQ + ["--resolution", "128"])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, entries, flag",
    [
        (["dimension", "--model", "cylinder"], {"d": -1}, "--d"),
        (["spectrum", "--model", "cylinder"], {"lambda_max": "3"}, "--lambda-max"),
        (_FREQ[:5], {"grid": {"rmin": 10, "rmax": 5}}, "--rmin"),
        (_FREQ, {"sigma": 0}, "--sigma"),
        (_FREQ, {"epsilon": -0.1}, "--epsilon"),
        (_HEAT, {"n_grid": 8}, "--n-grid"),
        (_FREQ[:5], {"grid": {"rmin": 1, "rmax": 10}}, "--rmin"),
    ],
    ids=["d", "lambda-max", "rmin-above-rmax", "sigma", "epsilon", "n-grid", "rmin-irregular"],
)
def test_bad_numeric_config_exits_2(command, entries, flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    code = main(command + ["--config", str(cfg)])
    assert code == 2
    assert f"{flag} (" in capsys.readouterr().err


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "gaussian", "m": 2}, "d": 2.0}))
    code = main(["dimension", "--config", str(cfg)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"] == {"kind": "gaussian", "m": 2}
    assert data["dim_Od"] == 6


def test_forms_literal_analysis(capsys):
    syzygy = json.dumps(
        {
            "p": 1,
            "m": 2,
            "coeffs": [
                {"index": [1], "terms": [{"alpha": [0, 1], "re": 1.0, "im": 0.0}]},
                {"index": [2], "terms": [{"alpha": [1, 0], "re": -1.0, "im": 0.0}]},
            ],
        }
    )
    code = main(["forms", "--model", "gaussian", "--m", "2", "--form", syzygy])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["in_contraction_kernel"] is True
    assert data["kernel_integral"] < 0
    assert data["mu"] == 1


def test_forms_ricci_norm_flag(capsys):
    code = main(["forms", "--model", "cylinder", "--p", "1", "--mu", "2", "--ricci-norm", "tensor"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ricci_norm"] == "tensor"
    assert data["count_bound"]["horizon"] > 2.0  # tensor norm enlarges the horizon


def test_frequency_json_reports_both_bounds(capsys):
    code = main(
        [
            "frequency",
            "--model",
            "gaussian",
            "--m",
            "1",
            "--poly",
            "z^2",
            "--rmin",
            "5",
            "--rmax",
            "20",
            "--n",
            "4",
            "--format",
            "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["u_max"] <= data["u_bound_sqrt"] <= data["u_bound_weak"]


_PRODUCT = {"kind": "product", "factors": [{"kind": "cylinder"}, {"kind": "gaussian", "m": 1}]}


def test_forms_counts_a_product_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": _PRODUCT, "p": 1, "mu": 2}))
    code = main(["forms", "--config", str(cfg)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"] == _PRODUCT
    assert data["count_bound"]["pass"] is True


_FREQ_G1 = ["frequency", "--model", "gaussian", "--m", "1", "--rmin", "5", "--rmax", "6", "--n", "2"]
_FORMS_G2 = ["forms", "--model", "gaussian", "--m", "2"]
_FREQ_CYL = ["frequency", "--model", "cylinder", "--rmin", "5", "--rmax", "9", "--n", "3"]


def _kernel_form(n: int, c: float = 1.0) -> str:
    """c (z1^n z2 dz1 - z1^(n+1) dz2), in the contraction kernel on gaussian(2)."""
    return json.dumps(
        {
            "p": 1,
            "m": 2,
            "coeffs": [
                {"index": [1], "terms": [{"alpha": [n, 1], "re": c}]},
                {"index": [2], "terms": [{"alpha": [n + 1, 0], "re": -c}]},
            ],
        }
    )


@pytest.mark.parametrize(
    "argv, entries, names",
    [
        (["forms", "--model", "gaussian", "--m", "13", "--p", "6", "--mu", "7"], None,
         ["--m", "--p", "--mu", "/m", "/p", "/mu"]),
        # the requested p = 15 kernel is one 15 x 1 block; the ledger's (p, mu) = (12, 3) is not
        (["forms", "--model", "gaussian", "--m", "30", "--p", "15", "--mu", "0"], None,
         ["--m", "--p", "--mu", "/m", "/p", "/mu"]),
        (_FREQ_G1 + ["--poly", '{"m": 1, "terms": [{"alpha": [2], "re": 1.0}'], None, ["--poly", "/poly"]),
        (_FREQ_G1 + ["--poly", '{"m": 1, "terms": [{"re": 1.0}]}'], None, ["--poly"]),
        (_FREQ_G1, {"poly": {"m": 1, "terms": [{"re": 1.0}]}}, ["/poly"]),
        (["heatflow", "--initial", '{"m": 1, "terms": [{"alpha": [1], "re": 1.0}'], None,
         ["--initial", "/initial"]),
        (["heatflow", "--initial", '{"m": 2, "terms": [{"alpha": [1, 3], "re": 1.0}]}'], None,
         ["--initial", "/initial"]),
        (["heatflow", "--initial", '{"m": 1, "terms": [{"alpha": [1], "re": 1.0, "im": 2.0}]}'], None,
         ["--initial", "/initial"]),
        (["heatflow"], {"initial": {"m": 1, "terms": [{"re": 1.0}]}}, ["/initial"]),
        (_FORMS_G2 + ["--form", '{"p":1'], None, ["--form", "/form"]),
        (_FORMS_G2 + ["--form", '{"p":1}'], None, ["--form", "/form"]),
        (_FORMS_G2, {"form": '{"p":1'}, ["--form", "/form"]),
        (_FORMS_G2, {"form": {"p": 1}}, ["--form", "/form"]),
        (_FORMS_G2 + ["--form", '{"p":1,"m":3}'], None, ["--form", "/form"]),
        (_FORMS_G2, {"form": {"p": 1, "m": 3}}, ["--form", "/form"]),
        (["dimension", "--model", "cylinder", "--d", "1e9"], None, ["--d", "/d"]),
        (["dimension", "--model", "gaussian", "--m", "2"], {"d": 1e7}, ["--d", "/d"]),
        (["spectrum", "--model", "gaussian", "--m", "3", "--lambda-max", "1e6"], None,
         ["--lambda-max", "/lambda_max"]),
        (["spectrum", "--model", "cylinder"], {"lambda_max": 1e4}, ["--lambda-max", "/lambda_max"]),
        (_FORMS_G2, {"ricci_norm": "bogus"}, ["--ricci-norm", "/ricci_norm"]),
        (_FREQ_G1 + ["--poly", "z"], {"format": "xml"}, ["--format", "/format"]),
        (["verify-all"], {"model_choice": "torus"}, ["--model", "/model_choice"]),
        (["spectrum"], {"model": {"kind": "gaussian", "m": "2"}}, ["/model", "/m"]),
        (["spectrum"], {"model": {"kind": "gaussian", "m": 2.7}}, ["/model", "/m"]),
        (["spectrum"], {"model": {"kind": "gaussian", "m": True}}, ["/model", "/m"]),
        (["spectrum"], {"model": {"kind": "product", "factors": [{"kind": "gaussian", "m": 1.0}]}},
         ["/model", "/m"]),
        (["spectrum"], {"model": {"kind": "product", "factors": 3}}, ["/model", "/factors"]),
        (["spectrum"], {"model": {"kind": "product", "factors": {"kind": "cylinder"}}}, ["/model", "/factors"]),
        (_FREQ_G1 + ["--poly", '{"m": 1.7, "terms": [{"alpha": [1], "re": 1.0}]}'], None,
         ["--poly", "/poly", "'m'"]),
        (_FREQ_G1 + ["--poly", '{"m": 1, "terms": [{"alpha": [1.6], "re": 1.0}]}'], None,
         ["--poly", "/poly", "'alpha'"]),
        (_FREQ_G1, {"poly": {"m": True, "terms": [{"alpha": [1], "re": 1.0}]}}, ["--poly", "/poly", "'m'"]),
        (_FORMS_G2 + ["--form", '{"p": 1, "m": "2", "coeffs": []}'], None, ["--form", "/form", "'m'"]),
        (_FORMS_G2 + ["--form", '{"p": 1.5, "m": 2, "coeffs": []}'], None, ["--form", "/form", "'p'"]),
        (_FORMS_G2, {"form": {"p": 1, "m": 2, "coeffs": [{"index": [1.0], "terms": []}]}},
         ["--form", "/form", "'index'"]),
        (_FORMS_G2, {"form": {"p": 1, "m": 2, "coeffs": [{"index": [1], "terms": [{"alpha": ["1", 0]}]}]}},
         ["--form", "/form", "'alpha'"]),
        (["verify-all", "--m", "6"], None, ["--m", "/m"]),
        (_HEAT + ["--n-steps", "1000000000"], None, ["--n-steps", "/n_steps"]),
        (_HEAT + ["--n-grid", "1000000000"], None, ["--n-grid", "/n_grid"]),
        (_FREQ_G1 + ["--poly", "z", "--n", "1000000000"], None, ["--n", "/grid/n"]),
        (["frequency", "--model", "gaussian", "--m", "1", "--poly", "z"],
         {"grid": {"rmin": 5, "rmax": 6, "n": 10**9}}, ["--n", "/grid/n"]),
        # |z|^200 on the ball of radius 40 passes the float range
        (["frequency", "--model", "gaussian", "--m", "1", "--poly", "z^100", "--rmin", "5", "--rmax", "40",
          "--n", "4"], None, ["--poly", "/poly", "--rmax"]),
        # inside the degree guard, the gradient's 150^2 carries D past the float range at r = 10.5
        (["frequency", "--model", "cylinder", "--poly", "w^150", "--rmin", "5", "--rmax", "10.5", "--n", "3"],
         None, ["--poly", "/poly", "10.5"]),
        (_FREQ[:5], {"grid": 5}, ["/grid"]),
        (["spectrum"], [1], ["config entry /"]),
        (_HEAT, {"extrapolate": "yes"}, ["--extrapolate", "/extrapolate"]),
        # x^140's L2 gap and x^250's coefficients pass the float range
        (["heatflow", "--initial", "x^140"], None, ["--initial", "/initial"]),
        (["heatflow", "--initial", "x^250"], None, ["--initial", "/initial"]),
        # n = 600 alone carries mu and the radius power past the float range: --m is at fault, not --poly
        (["frequency", "--m", "300", "--poly", "z1", "--rmin", "5", "--rmax", "6"], None, ["--m", "/m"]),
        (["frequency", "--m", "100", "--poly", "z1", "--rmin", "5", "--rmax", "40"], None, ["--m", "/m", "--rmax"]),
        # flat radii <= 1 keep the radius power finite; mu does not, and z1 is never parsed
        (["frequency", "--m", "100000000", "--poly", "z1", "--rmin", "0.5", "--rmax", "1"], None, ["--m", "/m"]),
        (["frequency", "--m", "100000000", "--poly", "z1", "--rmin", "1", "--rmax", "2"], None, ["--m", "/m"]),
        (["frequency", "--model", "cylinder", "--poly", "z1", "--rmin", "2.1", "--rmax", "5", "--d", "1e308"], None,
         ["--d", "/d"]),
        # mu = e^706 d^2 with d the degree 10: --d is at fault though not given
        (["frequency", "--m", "175", "--poly", "z1^10", "--rmin", "3", "--rmax", "3.5", "--n", "2"], None, ["--d", "/d"]),
        (["spectrum", "--m", "3"], {"model": {"kind": "cylinder"}}, ["--m", "/model"]),
        # p_266 is the first basis polynomial past the float range: refused before any array is sized
        (["heatflow", "--initial", "x^3000"], None, ["--initial", "/initial", "p_266"]),
        (["heatflow", "--initial", "x^1000000000"], None, ["--initial", "/initial", "p_266"]),
        # |omega|^2 carries s^(2 mu) on radii up to 42: refused before the weighted rule is built
        (_FORMS_G2 + ["--form", _kernel_form(400)], None, ["--form", "/form", "weighted rule"]),
        (_FORMS_G2 + ["--form", _kernel_form(10**8)], None, ["--form", "/form", "weighted rule"]),
        # inside the degree guard, a coefficient of 1e300 carries the kernel integral past the float range
        (_FORMS_G2 + ["--form", _kernel_form(1, 1e300)], None, ["--form", "/form"]),
        # the zero polynomial has I = 0 and no frequency: refused before any rule is built
        (_FREQ_CYL + ["--poly", "w - w"], None, ["--poly", "/poly", "zero polynomial"]),
        (_FREQ_CYL + ["--poly", "0"], None, ["--poly", "/poly", "zero polynomial"]),
        (_FREQ_CYL, {"poly": {"m": 1, "terms": []}}, ["--poly", "/poly", "zero polynomial"]),
        # a NaN or infinite coefficient would make the pruning floor drop every other term
        (["heatflow", "--initial", '{"m":1,"terms":[{"alpha":[2],"re":NaN},{"alpha":[1],"re":1}]}'], None,
         ["--initial", "/initial", "(2,)", "not finite"]),
        (_FORMS_G2 + ["--form", '{"p":1,"m":2,"coeffs":[{"index":[1],"terms":[{"alpha":[1,0],"re":NaN}]}]}'], None,
         ["--form", "/form", "(1, 0)", "not finite"]),
        (_FREQ_CYL + ["--poly", '{"m":1,"terms":[{"alpha":[2],"re":Infinity},{"alpha":[1],"re":1}]}'], None,
         ["--poly", "/poly", "(2,)", "not finite"]),
        (_FREQ_CYL + ["--poly", "9" * 400 + " w"], None, ["--poly", "/poly", "(1,)", "not finite"]),
        # a step so long that M + ds K is singular, or infinite, in floats
        (_HEAT + ["--s", "1e16"], None, ["--s", "/s", "--n-steps", "/n_steps", "zero pivot"]),
        (_HEAT + ["--s", "1e308", "--n-steps", "1"], None, ["--s", "/s", "--n-steps", "/n_steps", "not finite"]),
    ],
    ids=[
        "forms-kernel-guard", "forms-ledger-guard", "poly-truncated-json",
        "poly-term-without-alpha", "poly-config-without-alpha", "initial-truncated-json",
        "initial-two-variables", "initial-imaginary", "initial-config-without-alpha",
        "form-truncated-json", "form-without-m", "form-config-truncated-json", "form-config-without-m",
        "form-wrong-m", "form-config-wrong-m", "dimension-cylinder-guard", "dimension-config-guard",
        "spectrum-guard", "spectrum-config-guard", "ricci-norm-config", "format-config",
        "verify-all-model-config", "model-m-string", "model-m-fraction", "model-m-bool",
        "model-factor-m-float", "model-factors-int", "model-factors-dict", "poly-m-fraction", "poly-alpha-fraction", "poly-config-m-bool",
        "form-m-string", "form-p-fraction", "form-config-index-float", "form-config-alpha-string",
        "verify-all-rule-guard", "heatflow-steps-guard", "heatflow-grid-guard",
        "frequency-grid-guard", "frequency-grid-config-guard", "frequency-degree-guard",
        "frequency-overflow", "grid-not-object", "config-root-list", "extrapolate-config-not-bool",
        "initial-l2-overflow", "initial-coefficient-overflow", "frequency-dimension-guard",
        "frequency-dimension-share", "frequency-flat-radius-guard", "frequency-dimension-cap",
        "frequency-mu-guard", "frequency-mu-from-degree", "m-flag-on-cylinder-descriptor",
        "initial-degree-3000", "initial-degree-1e9", "form-degree-400", "form-degree-1e8",
        "form-coefficient-overflow", "poly-cancelled-to-zero", "poly-zero-constant", "poly-config-without-terms",
        "initial-nan-coefficient", "form-nan-coefficient", "poly-infinite-coefficient", "poly-overflowing-literal",
        "heatflow-singular-step", "heatflow-infinite-step",
    ],
)
def test_refused_input_exits_2(argv, entries, names, tmp_path, capsys):
    if entries is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        argv = argv + ["--config", str(cfg)]
    t0 = time.perf_counter()
    code = main(argv)
    # each guard refuses before it builds anything
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 2, err
    assert all(name in err for name in names), err


def test_kernel_integral_at_the_form_degree_bound(capsys):
    # mu = 94 keeps 42^(2 mu) finite: the integral prints, finite and with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_FORMS_G2 + ["--form", _kernel_form(93)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mu"] == 94 and -math.inf < data["kernel_integral"] < 0


def test_high_degree_poly_inside_the_float_range(capsys):
    # 400! and 401! pass the float range; their ratio and the radius power do not
    argv = ["frequency", "--model", "gaussian", "--m", "2", "--poly", "z1^400", "--rmin", "1", "--rmax", "1.5"]
    assert main(argv + ["--n", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    assert all(abs(float(row["U"]) - 400.0) < 1e-9 for row in rows)


def test_heatflow_initial_from_config_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": {"m": 1, "terms": [{"alpha": [2], "re": 1.0}]}}))
    code = main(["heatflow", "--config", str(cfg), "--n-grid", "400", "--n-steps", "100", "--extrapolate"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == {"0.0": 2.0, "1.0": 1.0}


def test_heatflow_overflow_is_refused_without_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["heatflow", "--initial", "x^250"]) == 2
    assert "--initial" in capsys.readouterr().err


def _run(argv, config, tmp_path, capsys) -> str:
    """The stdout of one successful run, without verify-all's timings."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    if argv[0] == "verify-all":
        report = json.loads(out)
        for check in report["checks"]:
            del check["runtime_ms"]
        return json.dumps(report)
    return out


def test_m_flag_wins_over_a_gaussian_descriptor(tmp_path, capsys):
    by_flag = _run(["spectrum", "--m", "3"], None, tmp_path, capsys)
    assert _run(["spectrum", "--m", "3"], {"model": {"kind": "gaussian", "m": 2}}, tmp_path, capsys) == by_flag


# the settings each subcommand is run with, as flag values: what it needs, kept small
_BASE = {
    "spectrum": {"lambda_max": "1"},
    "dimension": {},
    "frequency": {"poly": "z", "rmin": "5", "rmax": "6", "n": "2", "format": "json"},
    "heatflow": {"initial": "x^2", "n_grid": "100", "n_steps": "20"},
    "forms": {"p": "1", "mu": "2"},
    "verify-all": {"model": "gaussian", "m": "1"},
}
_SYZYGY = {
    "p": 1,
    "m": 2,
    "coeffs": [
        {"index": [1], "terms": [{"alpha": [0, 1], "re": 1.0, "im": 0.0}]},
        {"index": [2], "terms": [{"alpha": [1, 0], "re": -1.0, "im": 0.0}]},
    ],
}
# per setting: a flag value (None for a bare flag), the same value as a config entry, and another entry
_SAMPLES = {
    ("spectrum", "m"): ("1", 1, 2),
    ("spectrum", "model"): ("cylinder", {"kind": "cylinder"}, {"kind": "gaussian", "m": 1}),
    ("spectrum", "lambda_max"): ("2", 2, 1),
    ("dimension", "m"): ("1", 1, 3),
    ("dimension", "model"): ("cylinder", {"kind": "cylinder"}, {"kind": "gaussian", "m": 3}),
    ("dimension", "d"): ("2", 2, 3),
    ("frequency", "m"): ("1", 1, 3),
    ("frequency", "model"): ("cylinder", {"kind": "cylinder"}, {"kind": "gaussian", "m": 1}),
    ("frequency", "poly"): ("z^2", {"m": 2, "terms": [{"alpha": [2, 0], "re": 1.0}]}, "z^3"),
    ("frequency", "d"): ("3", 3, 4),
    ("frequency", "rmin"): ("5.5", 5.5, 5.25),
    ("frequency", "rmax"): ("7", 7, 8),
    ("frequency", "n"): ("3", 3, 4),
    ("frequency", "sigma"): ("0.25", 0.25, 0.75),
    ("frequency", "epsilon"): ("0.02", 0.02, 0.03),
    ("frequency", "format"): ("csv", "csv", "json"),
    ("heatflow", "initial"): ("x^3", "x^3", "x^4"),
    ("heatflow", "s"): ("0.5", 0.5, 2),
    ("heatflow", "n_grid"): ("200", 200, 300),
    ("heatflow", "n_steps"): ("40", 40, 50),
    ("heatflow", "extrapolate"): (None, True, False),
    ("forms", "m"): ("3", 3, 1),
    ("forms", "model"): ("cylinder", {"kind": "cylinder"}, {"kind": "gaussian", "m": 1}),
    ("forms", "p"): ("2", 2, 0),
    ("forms", "mu"): ("3", 3, 1),
    ("forms", "form"): (json.dumps(_SYZYGY), _SYZYGY, {**_SYZYGY, "coeffs": _SYZYGY["coeffs"][:1]}),
    ("forms", "ricci_norm"): ("tensor", "tensor", "operator"),
    ("verify-all", "m"): ("1", 1, 2),
    ("verify-all", "model"): ("cylinder", "cylinder", "gaussian"),
}


def test_samples_cover_every_setting():
    assert set(_SAMPLES) == {(command, dest) for command, table in _OPTIONS.items() for dest in table}


@pytest.mark.parametrize("command, dest", list(_SAMPLES), ids=[f"{c}-{d}" for c, d in _SAMPLES])
def test_flag_and_config_entry_agree_and_the_flag_wins(command, dest, tmp_path, capsys):
    table = _OPTIONS[command]
    flag_value, entry, other = _SAMPLES[command, dest]
    argv = [command] + [arg for d, v in _BASE[command].items() if d != dest for arg in (table[d].flag, v)]
    flag = [table[dest].flag] + ([] if flag_value is None else [flag_value])

    def config(value):
        *parents, key = table[dest].path[1:].split("/")
        tree = {key: value}
        for parent in reversed(parents):
            tree = {parent: tree}
        return tree

    by_flag = _run(argv + flag, None, tmp_path, capsys)
    assert _run(argv, config(entry), tmp_path, capsys) == by_flag
    assert _run(argv + flag, config(other), tmp_path, capsys) == by_flag
    # the other entry alone changes the output, so the last comparison could fail
    assert _run(argv, config(other), tmp_path, capsys) != by_flag
