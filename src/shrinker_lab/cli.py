"""Command-line interface: spectra, dimensions, frequency profiles, heat flow,
form counting and the verify-all harness.

Each subcommand's settings are declared once, in `_OPTIONS`.  A setting comes
from its flag, else from its entry in the JSON document given by --config, else
from its default.  Its config path is /<dest>, the flag's name with - spelled _
(/lambda_max), except /grid/rmin, /grid/rmax, /grid/n and verify-all's
/model_choice; --model's entry elsewhere is a /model descriptor.  Reports are
JSON on stdout or at --out; frequency profiles default to CSV.  Exit codes: 0
success, 1 check failure or a closed stdout, 2 usage or configuration error,
named by its flag and config path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from . import fheat, forms, frequency, quadrature, report, spectrum
from .errors import ConfigError, NumericError, ShrinkerLabError
from .holopoly import HoloPoly
from .models import ModelShrinker, cylinder, gaussian

_LOG_MAX = math.log(sys.float_info.max)
_MODEL_KINDS = ("gaussian", "cylinder")
_VAR_ALIASES = {"z": 0, "w": 0, "x": 0}
_TOKEN = re.compile(r"(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<var>[a-zA-Z]\d*)(?:\^(?P<pow>\d+))?|(?P<mul>\*)")
_ABSENT = object()


class _Opt(NamedTuple):
    """One setting of a subcommand: its flag, its config path, its default and its check.

    `kind` is count (an integer in lo..hi), real (a finite number up to hi),
    positive, nonnegative, choice, bool, literal (a polynomial or form, parsed by
    the subcommand) or model (a --model kind, or a /model descriptor).  A default
    of ... marks a setting the subcommand needs; None, one it works out itself.
    """

    flag: str
    path: str
    default: object
    kind: str
    lo: int = 1
    hi: float = math.inf
    choices: tuple[str, ...] = ()


# --m comes first: a gaussian model is built with it
_M = _Opt("--m", "/m", 2, "count")
_MODEL = {"m": _M, "model": _Opt("--model", "/model", None, "model", choices=_MODEL_KINDS)}
_OPTIONS: dict[str, dict[str, _Opt]] = {
    "spectrum": {**_MODEL, "lambda_max": _Opt("--lambda-max", "/lambda_max", 3.0, "nonnegative")},
    "dimension": {**_MODEL, "d": _Opt("--d", "/d", 1.0, "nonnegative")},
    "frequency": {
        **_MODEL,
        "poly": _Opt("--poly", "/poly", ..., "literal"),
        # the growth order defaults to the degree of the polynomial
        "d": _Opt("--d", "/d", None, "nonnegative"),
        "rmin": _Opt("--rmin", "/grid/rmin", ..., "real"),
        "rmax": _Opt("--rmax", "/grid/rmax", ..., "real"),
        # 25,000 radii take about 0.4 s from the CLI on a 2-core VM, most of it in writing the rows
        "n": _Opt("--n", "/grid/n", 64, "count", hi=25_000),
        "sigma": _Opt("--sigma", "/sigma", 0.5, "positive"),
        "epsilon": _Opt("--epsilon", "/epsilon", 0.01, "positive"),
        "format": _Opt("--format", "/format", "csv", "choice", choices=("csv", "json")),
    },
    "heatflow": {
        "initial": _Opt("--initial", "/initial", ..., "literal"),
        "s": _Opt("--s", "/s", 1.0, "positive"),
        "n_grid": _Opt("--n-grid", "/n_grid", 800, "count", lo=16, hi=fheat.HEAT_GRID_LIMIT),
        "n_steps": _Opt("--n-steps", "/n_steps", 200, "count"),
        "extrapolate": _Opt("--extrapolate", "/extrapolate", False, "bool"),
    },
    "forms": {
        **_MODEL,
        # at most the model's complex dimension, which the subcommand checks
        "p": _Opt("--p", "/p", 1, "count", lo=0),
        # keeps e^(1 + mu) in the reduction ledger below the largest double
        "mu": _Opt("--mu", "/mu", 2.0, "real", hi=708),
        "form": _Opt("--form", "/form", None, "literal"),
        "ricci_norm": _Opt("--ricci-norm", "/ricci_norm", "operator", "choice", choices=("operator", "tensor")),
    },
    "verify-all": {"m": _M, "model": _Opt("--model", "/model_choice", "both", "choice", choices=(*_MODEL_KINDS, "both"))},
}


def parse_poly_string(text: str, m: int | None = None) -> HoloPoly:
    """Parse a small polynomial syntax like "w^2", "z1^2 z2 - 0.5 z2^3" or "3"."""
    cleaned = text.strip()
    if cleaned.startswith("{"):
        return HoloPoly.from_json_dict(json.loads(cleaned))
    cleaned = cleaned.replace("-", "+-").replace(" ", "")
    chunks = [c for c in cleaned.split("+") if c]
    if not chunks:
        raise ConfigError(f"empty polynomial literal {text!r}")
    raw_terms: list[tuple[float, dict[int, int]]] = []
    max_var = 0
    for chunk in chunks:
        sign = 1.0
        if chunk.startswith("-"):
            sign, chunk = -1.0, chunk[1:]
        coeff = sign
        powers: dict[int, int] = {}
        pos = 0
        saw_anything = False
        for match in _TOKEN.finditer(chunk):
            if match.start() != pos:
                raise ConfigError(f"cannot parse polynomial term {chunk!r} (at {pos})")
            pos = match.end()
            saw_anything = True
            if match.group("num"):
                coeff *= float(match.group("num"))
            elif match.group("var"):
                name = match.group("var")
                if name in _VAR_ALIASES:
                    idx = _VAR_ALIASES[name]
                elif name[0] in "zZ" and name[1:].isdigit():
                    idx = int(name[1:]) - 1
                else:
                    raise ConfigError(f"unknown variable {name!r} in {text!r}")
                k = int(match.group("pow") or 1)
                powers[idx] = powers.get(idx, 0) + k
                max_var = max(max_var, idx + 1)
        if pos != len(chunk) or not saw_anything:
            raise ConfigError(f"cannot parse polynomial term {chunk!r}")
        raw_terms.append((coeff, powers))
    n_vars = m if m is not None else max(max_var, 1)
    terms: dict[tuple[int, ...], complex] = {}
    for coeff, powers in raw_terms:
        if any(idx >= n_vars for idx in powers):
            raise ConfigError(f"polynomial {text!r} uses more than {n_vars} variables")
        alpha = tuple(powers.get(j, 0) for j in range(n_vars))
        terms[alpha] = terms.get(alpha, 0.0) + coeff
    return HoloPoly(n_vars, terms)


def _read_poly(flag: str, src, m: int) -> HoloPoly:
    """A polynomial in m variables from a flag or config entry: a literal string or a JSON object."""
    try:
        u = HoloPoly.from_json_dict(src) if isinstance(src, dict) else parse_poly_string(str(src), m)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # ValueError covers malformed JSON, ConfigError and DomainError
        raise ConfigError(f"{flag} is not a valid polynomial ({type(exc).__name__}: {exc})") from exc
    if u.m != m:
        raise ConfigError(f"{flag} has {u.m} variables, expected {m}")
    return u


def _read_form(flag: str, src, m: int) -> forms.HoloForm:
    """A form in m variables from a flag or config entry: a JSON string or a JSON object."""
    try:
        omega = forms.HoloForm.from_json_dict(json.loads(src) if isinstance(src, str) else src)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # ValueError covers malformed JSON, ConfigError and DomainError
        raise ConfigError(f"{flag} is not a valid form ({type(exc).__name__}: {exc})") from exc
    if omega.m != m:
        raise ConfigError(f"{flag} uses {omega.m} variables, model carries {m} flat variables")
    return omega


def _load_config(path: str | None):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def _config_entry(config, path: str):
    """The config entry at `path`, or _ABSENT; the root and every parent on the path must be objects."""
    node, keys = config, path[1:].split("/")
    for depth, key in enumerate(keys, 1):
        if not isinstance(node, dict):
            raise ConfigError(f"config entry /{'/'.join(keys[:depth - 1])} must be an object, got {node!r}")
        node = node.get(key, _ABSENT if depth == len(keys) else {})
    return node


def _resolve(args: argparse.Namespace) -> None:
    """Set each setting of args.command from its flag, else its config entry, else its default, checked."""
    config = _load_config(args.config)
    m_flag = getattr(args, "m", None) is not None
    for dest, opt in _OPTIONS[args.command].items():
        flag, entry = getattr(args, dest), _config_entry(config, opt.path)
        value = flag if flag is not None else entry
        if opt.kind == "model":
            value = _model(args, flag, value, m_flag)
        elif value is not _ABSENT:
            value = _check(_label(args, dest), opt, value)
        elif opt.default is ...:
            raise ConfigError(f"{args.command} needs {_label(args, dest)}")
        else:
            value = opt.default
        setattr(args, dest, value)


def _label(args: argparse.Namespace, dest: str) -> str:
    """How errors name a setting: its flag and its config path."""
    opt = _OPTIONS[args.command][dest]
    return f"{opt.flag} (config {opt.path})"


def _check(label: str, opt: _Opt, value):
    if opt.kind == "count":
        if isinstance(value, bool) or not isinstance(value, int) or value < opt.lo:
            raise ConfigError(f"{label} must be an integer >= {opt.lo}, got {value!r}")
        if value > opt.hi:
            raise ConfigError(f"{label} must be at most {opt.hi:,}, got {value!r}")
    elif opt.kind in ("real", "positive", "nonnegative"):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{label} must be a finite number, got {value!r}")
        if opt.kind == "positive" and value <= 0:
            raise ConfigError(f"{label} must be positive, got {value!r}")
        if opt.kind == "nonnegative" and value < 0:
            raise ConfigError(f"{label} must be >= 0, got {value!r}")
        if value > opt.hi:
            raise ConfigError(f"{label} must be at most {opt.hi}, got {value!r}")
        return float(value)
    elif opt.kind == "choice" and value not in opt.choices:
        raise ConfigError(f"{label} must be one of {', '.join(opt.choices)}, got {value!r}")
    elif opt.kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{label} must be true or false, got {value!r}")
    return value


def _model(args: argparse.Namespace, kind: str | None, descriptor, m_flag: bool) -> ModelShrinker:
    """--model with --m; else the /model descriptor, a gaussian one taking --m; else gaussian."""
    if kind is not None or descriptor is _ABSENT:
        return cylinder() if kind == "cylinder" else gaussian(args.m)
    path = _OPTIONS[args.command]["model"].path
    if m_flag and (not isinstance(descriptor, dict) or descriptor.get("kind") != "gaussian"):
        raise ConfigError(f"{_label(args, 'm')} applies to a gaussian config entry {path} only, got {descriptor!r}")
    try:
        return ModelShrinker.from_dict({**descriptor, "m": args.m} if m_flag else descriptor)
    except ConfigError as exc:
        raise ConfigError(f"config entry {path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(payload: dict, allow_nan: bool = True) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=allow_nan)


# -- subcommand bodies -----------------------------------------------------------


def _cmd_spectrum(args: argparse.Namespace) -> int:
    try:
        catalog = spectrum.analytic_spectrum(args.model, args.lambda_max)
    except NumericError as exc:  # the catalog size guard, raised before any line is built
        raise ConfigError(f"{_label(args, 'lambda_max')} is too large: {exc}") from exc
    _emit(_json_dump(catalog.to_dict()), args.out)
    return 0


def _cmd_dimension(args: argparse.Namespace) -> int:
    try:
        rec = spectrum.dimension_bound_check(args.model, args.d)
    except NumericError as exc:  # the catalog size guard, raised before any line is built
        raise ConfigError(f"{_label(args, 'd')} is too large: {exc}") from exc
    payload = {"model": args.model.to_dict(), "d": args.d, **rec.to_dict()}
    _emit(_json_dump(payload), args.out)
    return 0 if rec.passed else 1


def _cmd_frequency(args: argparse.Namespace) -> int:
    model, rmin, rmax = args.model, args.rmin, args.rmax
    if rmin >= rmax:
        raise ConfigError(f"{_label(args, 'rmin')} must be below {_label(args, 'rmax')}, got {rmin!r} >= {rmax!r}")
    if not model.is_regular(rmin):
        raise ConfigError(
            f"{_label(args, 'rmin')} must be a regular level, r^2 > 4 sup S = {4.0 * model.sup_S:g}, got {rmin!r}"
        )
    # mu = e^(2n+6) max(d, 1)^2 and the ball integrals' flat radius^(2 degree + n) must be
    # finite: the real dimension's share of each, which caps gaussians at m = 175, is checked
    # before the polynomial is parsed (4.0 s for z1 at m = 10^7 on a 2-core VM)
    log_radius = math.log(model.flat_radius(rmax))
    if max(2 * model.n + 6, model.n * log_radius) > _LOG_MAX:
        raise ConfigError(
            f"{_label(args, 'm')}: real dimension {model.n} overflows a float in mu = e^(2n+6) d^2 or in "
            f"the flat radius^n at {_label(args, 'rmax')} {rmax!r}: lower the dimension or the radius"
        )
    u = _read_poly(_label(args, "poly"), args.poly, model.flat_m)
    if u.is_zero():
        raise ConfigError(f"{_label(args, 'poly')} is the zero polynomial, whose frequency U = D/I is undefined")
    if (2 * max(u.degree, 0) + model.n) * log_radius > _LOG_MAX:
        raise ConfigError(
            f"{_label(args, 'poly')} of degree {u.degree} overflows a float at {_label(args, 'rmax')} "
            f"{rmax!r}: lower the degree or the radius"
        )
    d = float(max(u.degree, 0)) if args.d is None else args.d
    if 2 * model.n + 6 + 2 * math.log(max(d, 1.0)) > _LOG_MAX:
        raise ConfigError(f"{_label(args, 'd')} {d!r} overflows mu = e^(2n+6) d^2 at real dimension n = {model.n}")
    freq_cfg = frequency.FrequencyConfig(sigma=args.sigma, epsilon=args.epsilon)
    radii = np.linspace(rmin, rmax, args.n)
    profile = frequency.frequency_profile(model, u, d, radii, freq_cfg)
    rows = profile.to_rows()
    # the degree guard bounds the radial power alone; the gradient's degree^2
    # factor, the coefficients and the area can still carry D past the float range
    overflow = next((row["r"] for row in rows if not all(map(math.isfinite, row.values()))), None)
    if overflow is not None:
        raise ConfigError(
            f"{_label(args, 'poly')} overflows a float at radius {overflow!r}: "
            f"lower the degree, the coefficients or {_label(args, 'rmax')}"
        )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["r", "I", "D", "U", "eta", "monotone_q"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        _emit(buf.getvalue(), args.out)
    else:
        # the frequency cap is verified in its stronger sqrt form; the weaker
        # product form is reported alongside for reference
        payload = {
            "model": model.to_dict(),
            "poly": u.to_json_dict(),
            "d": d,
            "mu": profile.mu,
            "rows": rows,
            "monotone": frequency.check_monotone(profile),
            "u_max": float(np.max(profile.U)),
            "u_bound_sqrt": d + freq_cfg.epsilon * math.sqrt(profile.mu),
            "u_bound_weak": d + freq_cfg.epsilon * profile.mu,
        }
        _emit(_json_dump(payload), args.out)
    return 0


def _cmd_heatflow(args: argparse.Namespace) -> int:
    flag = _label(args, "initial")
    u = _read_poly(flag, args.initial, 1)
    if any(c.imag != 0.0 for c in u.terms.values()):
        raise ConfigError(f"{flag} must have real coefficients")
    degree = max(u.degree, 0)
    try:  # the build stops at p_266, the first basis polynomial past the float range
        fheat.monic_basis(degree)
    except NumericError as exc:
        raise ConfigError(f"{flag} of degree {degree} is too high: {exc}") from exc
    coeffs = np.zeros(degree + 1)
    for (k,), c in u.terms.items():
        coeffs[k] = c.real
    try:
        fheat.require_heat_work(args.n_grid, args.n_steps, args.extrapolate)
    except NumericError as exc:  # the heat work budget; --n-grid is already held to the grid limit
        raise ConfigError(f"{_label(args, 'n_steps')} is too large: {exc}") from exc
    # a high degree carries the coefficients or the L2 gap past the float range;
    # such a run is refused below, so its overflows are not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sol = fheat.project_to_eigenbasis(coeffs)
        x, numeric = fheat.timestep_oracle(
            lambda xs: np.polynomial.polynomial.polyval(xs, coeffs),
            0.0,
            args.s,
            N_grid=args.n_grid,
            N_steps=args.n_steps,
            extrapolate=args.extrapolate,
        )
        series = fheat.evolve_series(sol, args.s, x)
        err = fheat.weighted_l2_distance(numeric, series, x=x)
    if not all(map(math.isfinite, [err, *sol.coefficients])):
        raise ConfigError(f"{flag} overflows a float: lower its degree or its coefficients")
    payload = {
        "initial": args.initial,
        "s": args.s,
        "coefficients": {str(k / 2): a for k, a in reversed(sol.terms())},
        "l2_error_series_vs_oracle": err,
        "n_grid": args.n_grid,
        "n_steps": args.n_steps,
        "extrapolate": args.extrapolate,
    }
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_forms(args: argparse.Namespace) -> int:
    model = args.model
    if args.form is not None:
        flag = _label(args, "form")
        omega = _read_form(flag, args.form, model.flat_m)
        contracted = forms.interior_product(model, omega) if omega.p >= 1 else None
        in_kernel = contracted is not None and contracted.is_zero(
            1e-12 * max(omega.coeff_norm(), 1.0)
        )
        payload = {
            "model": model.to_dict(),
            "form": omega.to_json_dict(),
            "mu": omega.mu,
            "hodge_action": forms.f_hodge_laplacian(model, omega).to_json_dict(),
            "interior_product": contracted.to_json_dict() if contracted is not None else None,
            "in_contraction_kernel": in_kernel,
        }
        if in_kernel:
            try:
                forms.require_weighted_range(omega)
            except NumericError as exc:  # the degree guard, raised before the weighted rule is built
                raise ConfigError(f"{flag} overflows a float: {exc}") from exc
            # below the degree guard the coefficients can still pass the float range;
            # such a form is refused below, so its overflows are not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                payload["kernel_integral"] = forms.form_integral_identity_check(model, omega)
        try:
            text = _json_dump(payload, allow_nan=False)
        except ValueError as exc:  # json's refusal of NaN and Infinity
            raise ConfigError(f"{flag} overflows a float: lower its degree or its coefficients") from exc
        _emit(text, args.out)
        return 0
    p, mu = args.p, args.mu
    if p > model.m:
        raise ConfigError(f"{_label(args, 'p')} must be an integer in 0..{model.m}, got {p!r}")
    payload = {"model": model.to_dict(), "p": p, "mu": mu, "ricci_norm": args.ricci_norm}
    if p >= 1:
        try:
            payload["kernel_dim"] = forms.kernel_dimension(model, p, math.floor(mu))
            payload["reduction_ledger"] = forms.form_reduction_ledger(model, p, math.floor(mu)).to_dict()
        except NumericError as exc:  # the kernel size guard, raised before any block is built
            raise ConfigError(
                f"{_label(args, 'm')}, {_label(args, 'p')} and {_label(args, 'mu')} are too large: {exc}"
            ) from exc
    rec_a = forms.form_count_check(model, p, mu, norm=args.ricci_norm)
    payload["count_bound"] = rec_a.to_dict()
    payload["dim_forms"] = forms.dim_O_forms(model, p, mu)
    _emit(_json_dump(payload), args.out)
    return 0 if rec_a.passed else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    kinds = _MODEL_KINDS if args.model == "both" else (args.model,)
    models = [cylinder() if kind == "cylinder" else gaussian(args.m) for kind in kinds]
    for model in models:
        try:
            quadrature.require_rule_work(model.flat_m, report.RESOLUTION)
        except NumericError as exc:  # the rule work budget, checked before any check runs
            raise ConfigError(f"{_label(args, 'm')} is too large: {exc}") from exc
    echo = {"model_choice": args.model, "m": args.m}
    rep = report.verify_all(models, config_echo=echo)
    for check in rep.checks:
        line = f"[{check.status.upper():4s}] {check.name} ({check.runtime_ms} ms)"
        if check.status == "fail" and check.detail:
            line += f" :: {check.detail}"
        print(line, file=sys.stderr)
    _emit(_json_dump(rep.to_dict()), args.out)
    n_fail = sum(1 for c in rep.checks if c.status == "fail")
    print(
        f"{len(rep.checks)} checks, {n_fail} failures",
        file=sys.stderr,
    )
    return 0 if rep.passed else 1


# -- parser ------------------------------------------------------------------------

_COMMANDS = {
    "spectrum": (_cmd_spectrum, "analytic drift-Laplacian catalog"),
    "dimension": (_cmd_dimension, "growth dimension bound check"),
    "frequency": (_cmd_frequency, "frequency profile over a radius grid"),
    "heatflow": (_cmd_heatflow, "series vs time-stepped drift heat flow"),
    "forms": (_cmd_forms, "holomorphic form counting and kernels"),
    "verify-all": (_cmd_verify_all, "run the complete verification suite"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinker-lab",
        description="numerical verification lab for model gradient Kahler shrinkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for dest, opt in _OPTIONS[command].items():
            if opt.kind == "bool":
                kwargs = {"action": "store_true", "default": None}
            elif opt.choices:
                kwargs = {"choices": opt.choices}
            else:
                kwargs = {"type": {"count": int, "literal": str}.get(opt.kind, float)}
            p.add_argument(opt.flag, dest=dest, help=f"config {opt.path}", **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        status = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return status
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ShrinkerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the interpreter's
        # final flush does not fail again, and exit 1 as on any EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
