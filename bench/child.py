"""One pass of one benchmark workload, in a fresh process started by run.py.

    python3 bench/child.py --workload NAME --seed N --out RESULT.json [--spans SPANS.jsonl]
    python3 bench/child.py --setup-only --out RESULT.json

The first thing the process does after parsing its arguments is
`import shrinker_lab`; the CLOCK_MONOTONIC time at which that import ends is
written as `import_done`, so run.py can time set-up from the spawn.  Inputs
come from the seed only; the package sees the generated inputs.  The result
holds the wall time of the package calls and the raw comparisons; run.py
applies the correctness gates.  With --spans the public functions of every
layer are wrapped first and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


# -- workloads: each returns (wall seconds of the package calls, outcome) ------


def verify_all(sl, seed: int, work: Path):
    """The north-star verdict; the seed is unused because the suite is fixed."""
    report_path = work / "report.json"
    t0 = time.perf_counter()
    rc = sl.cli.main(["verify-all", "--model", "both", "--m", "2", "--out", str(report_path)])
    wall = time.perf_counter() - t0
    return wall, {"rc": rc, "report": json.loads(report_path.read_text())}


# (case, monomial support, lowest radius); "cylinder" runs on cylinder(), the
# others on gaussian(2).  The supports are fixed, so the
# work per pass does not depend on the seed; the seed draws the complex
# coefficients and the radius grids.
SWEEP_CASES = (
    ("gaussian2.a", ((0, 0), (1, 0), (0, 2), (2, 1), (1, 3), (4, 0)), 1.0),
    ("gaussian2.b", ((0, 1), (1, 1), (3, 0), (1, 2), (2, 2), (0, 4)), 1.0),
    ("cylinder", ((0,), (1,), (3,), (4,)), 4.5),
)
SWEEP_RADII = 32
SWEEP_R_MAX = 40.0
# closed vs quadrature: the suite pins 1e-12 relative for I and D; U is not pinned
SWEEP_TOL = {"I": 1e-12, "D": 1e-12, "U": 1e-10}


def sweep_inputs(sl, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for case, support, r_lo in SWEEP_CASES:
        model = sl.cylinder() if case == "cylinder" else sl.gaussian(2)
        terms = {alpha: complex(rng.normal(), rng.normal()) for alpha in support}
        radii = np.sort(rng.uniform(r_lo, SWEEP_R_MAX, SWEEP_RADII))
        out.append((case, model, sl.HoloPoly(model.flat_m, terms), radii))
    return out


def radius_sweep(sl, seed: int, work: Path):
    """One polynomial per radius grid, so the quadrature rule cache never hits."""
    cases = sweep_inputs(sl, seed)
    profiles = []
    t0 = time.perf_counter()
    for _, model, u, radii in cases:
        try:
            pair = [
                sl.frequency_profile(
                    model, u, float(u.degree), radii, sl.FrequencyConfig(resolution=256, method=method)
                )
                for method in ("quadrature", "closed")
            ]
        except Exception as exc:  # a raising route fails every comparison of its grid
            pair = f"{type(exc).__name__}: {exc}"
        profiles.append(pair)
    wall = time.perf_counter() - t0
    ops = []
    for (case, _, _, radii), pair in zip(cases, profiles):
        for i, r in enumerate(radii):
            name = f"{case}.r{i}"
            if isinstance(pair, str):
                ops.append({"name": name, "ok": False, "errs": [], "detail": pair})
                continue
            quad, closed = pair
            errs = []
            for q in ("I", "D", "U"):
                a, b = float(getattr(quad, q)[i]), float(getattr(closed, q)[i])
                errs.append([abs(a - b) / abs(b), SWEEP_TOL[q], 1.0])
            ops.append(
                {"name": name, "ok": all(e <= t for e, t, _ in errs), "errs": errs, "detail": f"r={r:.6g}"}
            )
    return wall, {"ops": ops}


SPECTRUM_N = (800, 1600, 3200)  # N=400 misses the pinned 1e-6
SPECTRUM_TOL = 1e-6
HEAT_RUNGS = ((800, 200), (1600, 400))
HEAT_TOL = 1e-3
HEAT_SEEDED = 2
KERNELS = ((3, 2, 8), (4, 2, 4))


def koszul_kernel_count(m: int, p: int, mu: int) -> int:
    """dim ker of the contraction on (p,0)-forms with coefficients of degree <= mu.

    The Koszul complex of z_1..z_m is exact in positive degree, so the kernel
    on coefficient degree k is the image from (p+1)-forms of degree k-1; the
    alternating sum below unrolls that recursion.
    """
    if p < 1 or p > m:
        return 0
    return sum(
        (-1) ** (j - 1) * math.comb(m, p + j) * math.comb(k - j + m - 1, m - 1)
        for k in range(mu + 1)
        for j in range(1, min(m - p, k) + 1)
    )


def oracle_inputs(seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    return [np.array([0.0, 0.0, 1.0])] + [rng.normal(size=5) for _ in range(HEAT_SEEDED)]


def _attempt(name: str, fn, *args) -> dict:
    try:
        return {"name": name, **fn(*args)}
    except Exception as exc:  # a raising rung is a failed op
        return {"name": name, "ok": False, "errs": [], "detail": f"{type(exc).__name__}: {exc}"}


def _spectrum_op(solver, shift: float, n: int) -> dict:
    import numpy as np

    ev = np.asarray(solver(N=n, k_eigs=6))
    target = np.arange(6) / 2.0 + shift
    err = float(np.abs(ev - target).max())
    return {"ok": err <= SPECTRUM_TOL, "errs": [[err, SPECTRUM_TOL, float(target.max())]], "detail": f"err={err:.3e}"}


def _heat_op(sl, n_grid: int, n_steps: int, coeffs) -> dict:
    import numpy as np

    x, num = sl.timestep_oracle(
        lambda xs: np.polynomial.polynomial.polyval(xs, coeffs),
        0.0, 1.0, N_grid=n_grid, N_steps=n_steps, extrapolate=True,
    )
    series = sl.evolve_series(sl.project_to_eigenbasis(coeffs), 1.0, x)
    dist = sl.fheat.weighted_l2_distance
    err = dist(num, series, x=x) / dist(series, np.zeros_like(series), x=x)
    return {"ok": err <= HEAT_TOL, "errs": [[err, HEAT_TOL, 1.0]], "detail": f"err={err:.3e}"}


def _kernel_op(sl, m: int, p: int, mu: int) -> dict:
    rank = sl.kernel_dimension(sl.gaussian(m), p, mu)
    want = koszul_kernel_count(m, p, mu)
    return {"ok": rank == want, "errs": [], "detail": f"kernel={rank} koszul={want}"}


def oracles(sl, seed: int, work: Path):
    """The independent discrete routes: spectra, heat stepping, exact ranks."""
    polys = oracle_inputs(seed)
    jobs = (
        [(f"spectrum.N{n}", _spectrum_op, sl.oracle_spectrum_1d, 0.0, n) for n in SPECTRUM_N]
        + [(f"one_form.N{n}", _spectrum_op, sl.one_form_spectrum_oracle, 0.5, n) for n in SPECTRUM_N]
        + [
            (f"heat.N{n_grid}x{n_steps}.poly{i}", _heat_op, sl, n_grid, n_steps, coeffs)
            for n_grid, n_steps in HEAT_RUNGS
            for i, coeffs in enumerate(polys)
        ]
        + [(f"kernel.gaussian{m}.p{p}.mu{mu}", _kernel_op, sl, m, p, mu) for m, p, mu in KERNELS]
    )
    t0 = time.perf_counter()
    ops = [_attempt(*job) for job in jobs]
    wall = time.perf_counter() - t0
    return wall, {"ops": ops}


WORKLOADS = {"verify-all": verify_all, "radius-sweep": radius_sweep, "oracles": oracles}


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for mod in ("numpy", "scipy"):
        out[mod] = getattr(sys.modules.get(mod), "__version__", None)
    return out


def main(argv=None) -> int:
    args = _args(argv)
    import shrinker_lab as sl

    import_done = time.monotonic()
    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(sl.__file__).resolve().is_relative_to(src):
        print(f"shrinker_lab was imported from {sl.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = Path(args.out)
    result = {"import_done": import_done, "versions": _versions()}
    if not args.setup_only:
        import shrinker_lab.cli  # noqa: F401  (loaded before wrapping, so it is wrapped too)

        tracer = absent = None
        if args.spans:
            import spans

            tracer = spans.Tracer()
            absent = spans.install(tracer)
        wall, outcome = WORKLOADS[args.workload](sl, args.seed, out.parent)
        result.update(outcome, wall_s=wall)
        if tracer is not None:
            tracer.write(args.spans)
            result["layers"] = spans.layer_metrics(tracer)
            result["absent"] = absent
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
