"""Command-line interface: spectra, dimensions, frequency profiles, heat flow,
form counting and the verify-all harness.

Configuration may come from flags or from a JSON document (--config); flags
win on conflict.  Reports are JSON on stdout or at --out; frequency profiles
default to CSV.  Exit codes: 0 success, 1 check failure or a closed stdout,
2 usage or configuration error.
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

import numpy as np

from . import fheat, forms, frequency, quadrature, report, spectrum
from .errors import ConfigError, NumericError, ShrinkerLabError
from .holopoly import HoloPoly
from .models import ModelShrinker, cylinder, gaussian

_MU_MAX = 708
# radii of one frequency profile: 25,000 take about 0.4 s from the CLI on a 2-core VM,
# most of it in writing the rows
_GRID_MAX = 25_000
_FORMATS = ("csv", "json")
_RICCI_NORMS = ("operator", "tensor")
_VERIFY_MODELS = ("gaussian", "cylinder", "both")
_VAR_ALIASES = {"z": 0, "w": 0, "x": 0}
_TOKEN = re.compile(r"(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<var>[a-zA-Z]\d*)(?:\^(?P<pow>\d+))?|(?P<mul>\*)")


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
    """A polynomial from a flag or config entry: a literal string or a JSON object."""
    try:
        if isinstance(src, dict):
            return HoloPoly.from_json_dict(src)
        return parse_poly_string(str(src), m)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # ValueError covers malformed JSON, ConfigError and DomainError
        raise ConfigError(f"{flag} is not a valid polynomial ({type(exc).__name__}: {exc})") from exc


def _read_form(flag: str, src) -> forms.HoloForm:
    """A form from a flag or config entry: a JSON string or a JSON object."""
    try:
        return forms.HoloForm.from_json_dict(json.loads(src) if isinstance(src, str) else src)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # ValueError covers malformed JSON, ConfigError and DomainError
        raise ConfigError(f"{flag} is not a valid form ({type(exc).__name__}: {exc})") from exc


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object (/)")
    return data


def _resolve_model(args, config: dict) -> ModelShrinker:
    if "model" in config and getattr(args, "model", None) is None:
        spec_dict = config["model"]
        if not isinstance(spec_dict, dict):
            raise ConfigError("config entry /model must be an object")
        try:
            return ModelShrinker.from_dict(spec_dict)
        except ConfigError as exc:
            raise ConfigError(f"config entry /model: {exc}") from exc
    kind = getattr(args, "model", None) or "gaussian"
    if kind == "gaussian":
        return gaussian(_resolve_m(args, config))
    if kind == "cylinder":
        return cylinder()
    raise ConfigError(f"unknown model kind {kind!r} (use gaussian or cylinder)")


def _resolve_m(args, config: dict) -> int:
    m = args.m if getattr(args, "m", None) is not None else config.get("m", 2)
    return _count("--m (config /m)", m)


def _count(flag: str, value, minimum: int = 1) -> int:
    """An integer option that must be at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{flag} must be an integer >= {minimum}, got {value!r}")
    return value


def _finite(flag: str, value, positive: bool = False, nonnegative: bool = False) -> float:
    """A real option that must be finite, > 0 when `positive` and >= 0 when `nonnegative`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{flag} must be positive, got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"{flag} must be >= 0, got {value!r}")
    return float(value)


def _choice(flag: str, value, choices: tuple[str, ...]) -> str:
    """An option that must be one of `choices`, as its flag's argparse choices are."""
    if value not in choices:
        raise ConfigError(f"{flag} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# -- subcommand bodies -----------------------------------------------------------


def _cmd_spectrum(args) -> int:
    config = _load_config(args.config)
    model = _resolve_model(args, config)
    lam_max = args.lambda_max if args.lambda_max is not None else config.get("lambda_max", 3.0)
    flag = "--lambda-max (config /lambda_max)"
    lam_max = _finite(flag, lam_max, nonnegative=True)
    try:
        catalog = spectrum.analytic_spectrum(model, lam_max)
    except NumericError as exc:  # the catalog size guard, raised before any line is built
        raise ConfigError(f"{flag} is too large: {exc}") from exc
    _emit(_json_dump(catalog.to_dict()), args.out)
    return 0


def _cmd_dimension(args) -> int:
    config = _load_config(args.config)
    model = _resolve_model(args, config)
    d = args.d if args.d is not None else config.get("d", 1.0)
    flag = "--d (config /d)"
    d = _finite(flag, d, nonnegative=True)
    try:
        rec = spectrum.dimension_bound_check(model, d)
    except NumericError as exc:  # the catalog size guard, raised before any line is built
        raise ConfigError(f"{flag} is too large: {exc}") from exc
    payload = {"model": model.to_dict(), "d": d, **rec.to_dict()}
    _emit(_json_dump(payload), args.out)
    return 0 if rec.passed else 1


def _cmd_frequency(args) -> int:
    config = _load_config(args.config)
    model = _resolve_model(args, config)
    poly_src = args.poly or config.get("poly")
    if poly_src is None:
        raise ConfigError("frequency needs a polynomial (--poly or config /poly)")
    u = _read_poly("--poly (config /poly)", poly_src, model.flat_m)
    if u.m != model.flat_m:
        raise ConfigError(
            f"polynomial has {u.m} variables, model carries {model.flat_m} (/poly)"
        )
    grid_cfg = config.get("grid", {})
    rmin = args.rmin if args.rmin is not None else grid_cfg.get("rmin")
    rmax = args.rmax if args.rmax is not None else grid_cfg.get("rmax")
    n = _count("--n (config /grid/n)", args.n if args.n is not None else grid_cfg.get("n", 64))
    if n > _GRID_MAX:
        raise ConfigError(f"--n (config /grid/n) must be at most {_GRID_MAX:,}, got {n!r}")
    if rmin is None or rmax is None:
        raise ConfigError("frequency needs a radius grid (--rmin/--rmax or config /grid)")
    rmin = _finite("--rmin (config /grid/rmin)", rmin)
    rmax = _finite("--rmax (config /grid/rmax)", rmax)
    if rmin >= rmax:
        raise ConfigError(
            f"--rmin (config /grid/rmin) must be below --rmax (config /grid/rmax), "
            f"got {rmin!r} >= {rmax!r}"
        )
    if not model.is_regular(rmin):
        raise ConfigError(
            f"--rmin (config /grid/rmin) must be a regular level, r^2 > 4 sup S = "
            f"{4.0 * model.sup_S:g}, got {rmin!r}"
        )
    # the ball integrals carry the flat radius to the power 2 degree + n
    if (2 * max(u.degree, 0) + model.n) * math.log(model.flat_radius(rmax)) > math.log(sys.float_info.max):
        raise ConfigError(
            f"--poly (config /poly) of degree {u.degree} overflows a float at --rmax "
            f"(config /grid/rmax) {rmax!r}: lower the degree or the radius"
        )
    sigma = args.sigma if args.sigma is not None else config.get("sigma", 0.5)
    epsilon = args.epsilon if args.epsilon is not None else config.get("epsilon", 0.01)
    freq_cfg = frequency.FrequencyConfig(
        sigma=_finite("--sigma (config /sigma)", sigma, positive=True),
        epsilon=_finite("--epsilon (config /epsilon)", epsilon, positive=True),
    )
    d = args.d if args.d is not None else max(u.degree, 0)
    d = _finite("--d (growth order)", d, nonnegative=True)
    radii = np.linspace(rmin, rmax, n)
    profile = frequency.frequency_profile(model, u, d, radii, freq_cfg)
    rows = profile.to_rows()
    # the degree guard bounds the radial power alone; the gradient's degree^2
    # factor, the coefficients and the area can still carry D past the float range
    overflow = next((row["r"] for row in rows if not all(map(math.isfinite, row.values()))), None)
    if overflow is not None:
        raise ConfigError(
            f"--poly (config /poly) overflows a float at radius {overflow!r}: "
            f"lower the degree, the coefficients or --rmax (config /grid/rmax)"
        )
    fmt = _choice("--format (config /format)", args.format or config.get("format", "csv"), _FORMATS)
    if fmt == "csv":
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


def _cmd_heatflow(args) -> int:
    config = _load_config(args.config)
    initial = args.initial or config.get("initial")
    if initial is None:
        raise ConfigError("heatflow needs initial data (--initial or config /initial)")
    flag = "--initial (config /initial)"
    u = _read_poly(flag, initial, 1)
    if u.m != 1:
        raise ConfigError(f"{flag} must be a polynomial in one variable, got {u.m} variables")
    if any(c.imag != 0.0 for c in u.terms.values()):
        raise ConfigError(f"{flag} must have real coefficients")
    coeffs = np.zeros(max(u.degree, 0) + 1)
    for (k,), c in u.terms.items():
        coeffs[k] = c.real
    s1 = args.s if args.s is not None else config.get("s", 1.0)
    s1 = _finite("--s (config /s)", s1, positive=True)
    n_grid = args.n_grid if args.n_grid is not None else config.get("n_grid", 800)
    n_grid = _count("--n-grid (config /n_grid)", n_grid, minimum=16)
    n_steps = args.n_steps if args.n_steps is not None else config.get("n_steps", 200)
    n_steps = _count("--n-steps (config /n_steps)", n_steps)
    try:
        fheat.require_heat_work(n_grid, n_steps, args.extrapolate)
    except NumericError as exc:  # the heat work budget, checked before the grid is built
        flag = "--n-grid (config /n_grid)" if n_grid > fheat.HEAT_GRID_LIMIT else "--n-steps (config /n_steps)"
        raise ConfigError(f"{flag} is too large: {exc}") from exc
    sol = fheat.project_to_eigenbasis(coeffs)
    x, numeric = fheat.timestep_oracle(
        lambda xs: np.polynomial.polynomial.polyval(xs, coeffs),
        0.0,
        s1,
        N_grid=n_grid,
        N_steps=n_steps,
        extrapolate=args.extrapolate,
    )
    series = fheat.evolve_series(sol, s1, x)
    err = fheat.weighted_l2_distance(numeric, series, x=x)
    payload = {
        "initial": initial,
        "s": s1,
        "coefficients": {str(lam): a for lam, a in sorted(sol.coefficients.items())},
        "l2_error_series_vs_oracle": err,
        "n_grid": n_grid,
        "n_steps": n_steps,
        "extrapolate": bool(args.extrapolate),
    }
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_forms(args) -> int:
    config = _load_config(args.config)
    model = _resolve_model(args, config)
    form_src = args.form or config.get("form")
    if form_src is not None:
        flag = "--form (config /form)"
        omega = _read_form(flag, form_src)
        if omega.m != model.flat_m:
            raise ConfigError(
                f"{flag} uses {omega.m} variables, model carries {model.flat_m} flat variables"
            )
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
            payload["kernel_integral"] = forms.form_integral_identity_check(model, omega)
        _emit(_json_dump(payload), args.out)
        return 0
    p = args.p if args.p is not None else config.get("p", 1)
    if isinstance(p, bool) or not isinstance(p, int) or not 0 <= p <= model.m:
        raise ConfigError(f"--p (config /p) must be an integer in 0..{model.m}, got {p!r}")
    mu = _finite("--mu (config /mu)", args.mu if args.mu is not None else config.get("mu", 2))
    # keeps e^(1 + mu) in the reduction ledger below the largest double
    if mu > _MU_MAX:
        raise ConfigError(f"--mu (config /mu) must be a finite number <= {_MU_MAX}, got {mu!r}")
    norm = args.ricci_norm or config.get("ricci_norm", "operator")
    norm = _choice("--ricci-norm (config /ricci_norm)", norm, _RICCI_NORMS)
    payload = {"model": model.to_dict(), "p": p, "mu": mu, "ricci_norm": norm}
    if p >= 1:
        try:
            payload["kernel_dim"] = forms.kernel_dimension(model, p, math.floor(mu))
            payload["reduction_ledger"] = forms.form_reduction_ledger(model, p, math.floor(mu)).to_dict()
        except NumericError as exc:  # the kernel size guard, raised before any block is built
            raise ConfigError(f"--m, --p and --mu (config /m, /p, /mu) are too large: {exc}") from exc
    rec_a = forms.form_count_check(model, p, mu, norm=norm)
    payload["count_bound"] = rec_a.to_dict()
    payload["dim_forms"] = forms.dim_O_forms(model, p, mu)
    _emit(_json_dump(payload), args.out)
    return 0 if rec_a.passed else 1


def _cmd_verify_all(args) -> int:
    config = _load_config(args.config)
    choice = args.model or config.get("model_choice", "both")
    choice = _choice("--model (config /model_choice)", choice, _VERIFY_MODELS)
    m = _resolve_m(args, config)
    if choice == "both":
        models = [gaussian(m), cylinder()]
    elif choice == "gaussian":
        models = [gaussian(m)]
    else:
        models = [cylinder()]
    for model in models:
        try:
            quadrature.require_rule_work(model.flat_m, report.RESOLUTION)
        except NumericError as exc:  # the rule work budget, checked before any check runs
            raise ConfigError(f"--m (config /m) is too large: {exc}") from exc
    echo = {"model_choice": choice, "m": m}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinker-lab",
        description="numerical verification lab for model gradient Kahler shrinkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model: bool = True) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if model:
            p.add_argument("--model", choices=["gaussian", "cylinder"], help="model kind")
            p.add_argument("--m", type=int, help="complex dimension of the flat model")

    p_spec = sub.add_parser("spectrum", help="analytic drift-Laplacian catalog")
    common(p_spec)
    p_spec.add_argument("--lambda-max", dest="lambda_max", type=float)
    p_spec.set_defaults(fn=_cmd_spectrum)

    p_dim = sub.add_parser("dimension", help="growth dimension bound check")
    common(p_dim)
    p_dim.add_argument("--d", type=float)
    p_dim.set_defaults(fn=_cmd_dimension)

    p_freq = sub.add_parser("frequency", help="frequency profile over a radius grid")
    common(p_freq)
    p_freq.add_argument("--poly", help='polynomial literal, e.g. "w^2" or JSON')
    p_freq.add_argument("--d", type=float, help="growth order (defaults to the degree)")
    p_freq.add_argument("--rmin", type=float)
    p_freq.add_argument("--rmax", type=float)
    p_freq.add_argument("--n", type=int)
    p_freq.add_argument("--sigma", type=float)
    p_freq.add_argument("--epsilon", type=float)
    p_freq.add_argument("--format", choices=_FORMATS)
    p_freq.set_defaults(fn=_cmd_frequency)

    p_heat = sub.add_parser("heatflow", help="series vs time-stepped drift heat flow")
    common(p_heat, model=False)
    p_heat.add_argument("--initial", help='1-D polynomial initial data, e.g. "x^2"')
    p_heat.add_argument("--s", type=float)
    p_heat.add_argument("--n-grid", dest="n_grid", type=int)
    p_heat.add_argument("--n-steps", dest="n_steps", type=int)
    p_heat.add_argument("--extrapolate", action="store_true")
    p_heat.set_defaults(fn=_cmd_heatflow)

    p_forms = sub.add_parser("forms", help="holomorphic form counting and kernels")
    common(p_forms)
    p_forms.add_argument("--p", type=int)
    p_forms.add_argument("--mu", type=float)
    p_forms.add_argument("--form", help="JSON form literal to analyze instead of counting")
    p_forms.add_argument("--ricci-norm", dest="ricci_norm", choices=_RICCI_NORMS)
    p_forms.set_defaults(fn=_cmd_forms)

    p_all = sub.add_parser("verify-all", help="run the complete verification suite")
    p_all.add_argument("--config", help="JSON configuration file")
    p_all.add_argument("--out", help="write the JSON report to this path")
    p_all.add_argument("--model", choices=_VERIFY_MODELS)
    p_all.add_argument("--m", type=int)
    p_all.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
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
