"""Command-line surface: literals, subcommands, formats and exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from shrinker_lab.cli import main, parse_poly_string
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
        (_FREQ + ["--resolution", "0"], "--resolution"),
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
        "n", "resolution", "rmin", "rmax", "s-negative", "s-zero", "s-nan", "n-grid", "n-steps",
        "d-nan", "d-negative", "lambda-max-nan", "lambda-max-negative", "rmin-above-rmax",
        "rmin-equals-rmax", "sigma-negative", "epsilon-zero", "frequency-d-nan", "n-grid-5",
        "n-grid-15", "rmin-irregular",
    ],
)
def test_bad_numeric_flag_exits_2(argv, flag, capsys):
    code = main(argv)
    assert code == 2
    assert f"{flag} (" in capsys.readouterr().err


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
_FREQ_G1 = ["frequency", "--model", "gaussian", "--m", "1", "--rmin", "5", "--rmax", "6", "--n", "2"]
_FORMS_G2 = ["forms", "--model", "gaussian", "--m", "2"]


@pytest.mark.parametrize(
    "argv, entries, names",
    [
        (["forms", "--model", "gaussian", "--m", "13", "--p", "6", "--mu", "7"], None,
         ["--m", "--p", "--mu", "/m", "/p", "/mu"]),
        # the requested p = 15 kernel is one 15 x 1 block; the ledger's (p, mu) = (12, 3) is not
        (["forms", "--model", "gaussian", "--m", "30", "--p", "15", "--mu", "0"], None,
         ["--m", "--p", "--mu", "/m", "/p", "/mu"]),
        (["forms"], {"model": _PRODUCT, "p": 1, "mu": 2}, ["/model"]),
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
    ],
    ids=[
        "forms-kernel-guard", "forms-ledger-guard", "forms-product-model", "poly-truncated-json",
        "poly-term-without-alpha", "poly-config-without-alpha", "initial-truncated-json",
        "initial-two-variables", "initial-imaginary", "initial-config-without-alpha",
        "form-truncated-json", "form-without-m", "form-config-truncated-json", "form-config-without-m",
        "form-wrong-m", "form-config-wrong-m", "dimension-cylinder-guard", "dimension-config-guard",
        "spectrum-guard", "spectrum-config-guard",
    ],
)
def test_refused_input_exits_2(argv, entries, names, tmp_path, capsys):
    if entries is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        argv = argv + ["--config", str(cfg)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert all(name in err for name in names), err


def test_heatflow_initial_from_config_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": {"m": 1, "terms": [{"alpha": [2], "re": 1.0}]}}))
    code = main(["heatflow", "--config", str(cfg), "--n-grid", "400", "--n-steps", "100", "--extrapolate"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == {"0.0": 2.0, "1.0": 1.0}
