"""The shrinker-lab benchmark: one workload, measured in fresh child processes.

    python3 bench/run.py --workload verify-all|radius-sweep|oracles \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each pass of the workload runs in its own child process (bench/child.py), so
no cache carries over between passes.  Passes repeat until about --seconds
have been measured.  Set-up time is taken in every pass, after one unmeasured
import-only child has written the bytecode.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("verify-all", "radius-sweep", "oracles")
IMPORTTIME_SAMPLES = 3
HARD_LIMIT_S = 170.0  # a run ends within 180 s whatever the machine does
ROUNDING = 1e-13  # relative errors at or below this count as exact
TOL_NOTE = re.compile(r"\btol[= ]\s*([0-9]*\.?[0-9]+(?:e[+-]?[0-9]+)?)")


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


# -- correctness and accuracy --------------------------------------------------


def verify_all_ops(report: dict, rc: int, expected: list[str]) -> tuple[list[dict], bool]:
    """One op per check of the seed report, plus any check added since.

    A missing, renamed or crashed check is a failed op.  The report is
    consistent when the exit code and the `passed` field agree with the
    statuses.  A passing check whose tolerance the report states contributes
    its error (tolerance minus margin) to the accuracy.
    """
    checks = {c["name"]: c for c in report.get("checks", [])}
    ops = []
    for name in sorted(set(expected) | set(checks)):
        c = checks.get(name)
        if c is None:
            ops.append({"name": name, "ok": False, "errs": [], "detail": "missing"})
            continue
        ok = c.get("status") in ("pass", "skip")
        margin = c.get("margin")
        tol = c.get("tol")
        if tol is None:
            found = TOL_NOTE.search(c.get("detail") or "")
            tol = float(found.group(1)) if found else None
        residual = c.get("residual", None if tol is None or margin is None else tol - margin)
        errs = [[max(residual, 0.0), tol, 1.0]] if ok and tol is not None and residual is not None else []
        ops.append({"name": name, "ok": ok, "errs": errs, "detail": c.get("detail", "")})
    verdict = all(c.get("status") != "fail" for c in checks.values())
    consistent = rc in (0, 1) and (rc == 0) == verdict and report.get("passed") == verdict
    return ops, consistent


def accuracy_digits(ops: list[dict]) -> float:
    """min over passing comparisons of log10(tol / err); rounding-level errors count as exact."""
    digits = [
        math.log10(tol / max(err, ROUNDING * scale))
        for op in ops
        if op["ok"]
        for err, tol, scale in op["errs"]
    ]
    return min(digits) if digits else math.nan


# -- child processes --------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one process, one thread: the serial verdict, and no BLAS pool on a shared box
    env.update(
        SHRINKER_LAB_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(argv: list[str], work: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion; return its spawn time, rusage and stderr path."""
    stderr = work / f"{tag}.err"
    with open(stderr, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"{tag} did not finish within the run's time limit")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr.read_text(errors="replace")[-2000:]
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{tail}")
    return {
        "t_spawn": t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": stderr,
    }


def run_child(work: Path, tag: str, deadline: float, args: list[str]) -> dict:
    out = work / f"{tag}.json"
    info = spawn([sys.executable, str(BENCH / "child.py"), "--out", str(out), *args], work, tag, deadline)
    result = json.loads(out.read_text())
    result.update(info, setup_s=result["import_done"] - info["t_spawn"])
    return result


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing shrinker_lab, scipy and numpy, from `-X importtime`.

    A package's time is the cumulative time of its outermost entries, so a
    submodule imported inside another of the same package is counted once.
    """
    rows = []
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        rows.append((len(field) - len(field.lstrip()), field.strip(), int(parts[1])))
    out = {}
    for pkg in ("shrinker_lab", "scipy", "numpy"):
        total, stack = 0, []  # entries are printed after their children: walk backwards
        for depth, name, cumulative in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            mine = name == pkg or name.startswith(pkg + ".")
            if mine and not inside:
                total += cumulative
            stack.append((depth, inside or mine))
        out[f"import.{pkg}_s"] = total / 1e6
    return out


def import_times(work: Path, deadline: float) -> dict[str, float]:
    samples = []
    for i in range(IMPORTTIME_SAMPLES):
        info = spawn([sys.executable, "-X", "importtime", "-c", "import shrinker_lab"], work, f"importtime{i}", deadline)
        samples.append(parse_importtime(info["stderr"].read_text()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- the run -----------------------------------------------------------------------


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def pass_ops(workload: str, result: dict, expected: list[str]) -> tuple[list[dict], bool]:
    if workload == "verify-all":
        return verify_all_ops(result["report"], result["rc"], expected)
    return result["ops"], True


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    run_child(work, "warmup", deadline, ["--setup-only"])  # writes bytecode, warms the file cache
    plain, spanned = [], []
    window = time.monotonic()
    while True:
        t_round = time.monotonic()
        for with_spans in (False, True) if traced else (False,):
            tag = f"pass{len(plain) + len(spanned)}"
            args = ["--workload", workload, "--seed", str(seed)]
            if with_spans:
                args += ["--spans", str(work / f"{tag}.spans.jsonl")]
            result = run_child(work, tag, deadline, args)
            (spanned if with_spans else plain).append(result)
            if with_spans:
                result["spans"] = args[-1]
        now = time.monotonic()
        if now - window + 0.5 * (now - t_round) >= seconds:
            break
    imports = import_times(work, deadline) if traced else {}
    return {"plain": plain, "spanned": spanned, "imports": imports}


def summarize(workload: str, runs: dict, spec: dict, traced: bool, expected: list[str]) -> tuple[dict, dict]:
    passes = runs["plain"] + runs["spanned"]
    attempted = failed = 0
    correct = True
    all_ops = []
    for result in passes:
        ops, consistent = pass_ops(workload, result, expected)
        attempted += len(ops)
        failed += sum(not op["ok"] for op in ops)
        correct = correct and consistent and (workload == "verify-all" or all(op["ok"] for op in ops))
        all_ops.extend(ops)
    plain = runs["plain"]
    med = statistics.median
    values = {
        "setup_s": med(p["setup_s"] for p in passes),
        "wall_s": med(p["wall_s"] for p in plain),
        "cpu_s": med(p["cpu_s"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "pass_share": 1.0 - failed / attempted,
        "accuracy_digits": accuracy_digits(all_ops),
    }
    names = [m["name"] for m in spec["end_to_end"]]
    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        layers = runs["spanned"][0]["layers"]
        for k in layers:
            samples = [p["layers"][k] for p in runs["spanned"]]
            # counts repeat exactly; keep them whole numbers
            values[k] = statistics.median_low(samples) if isinstance(samples[0], int) else med(samples)
        values.update(runs["imports"])
        values["trace.overhead_s"] = med(p["wall_s"] for p in runs["spanned"]) - values["wall_s"]
        for name in names:
            if name.startswith("report.check."):
                check = name.removeprefix("report.check.").removesuffix(".ms")
                values[name] = med(_check_ms(p, check) for p in plain)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in names if n not in values or not math.isfinite(values[n])]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    first_ops, _ = pass_ops(workload, passes[0], expected)
    detail = {
        "ops": first_ops,
        "absent": runs["spanned"][0]["absent"] if traced else [],
        "passes": [
            {k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")} | {"traced": "layers" in p}
            for p in passes
        ],
    }
    return line, detail


def _check_ms(result: dict, check: str) -> float:
    for c in result.get("report", {}).get("checks", []):
        if c["name"] == check:
            return float(c["runtime_ms"])
    return 0.0


def report_lines(workload: str, line: dict, detail: dict, env: dict) -> list[str]:
    out = [f"env {json.dumps(env, sort_keys=True)}"]
    ops = detail["ops"]
    if workload == "oracles":
        out += [f"op {op['name']}: {'ok' if op['ok'] else 'FAIL'} {op['detail']}" for op in ops]
    else:
        out += [f"op {op['name']}: FAIL {op['detail']}" for op in ops if not op["ok"]]
        if workload == "radius-sweep":
            for i, q in enumerate("IDU"):
                worst = max((op["errs"][i][0] for op in ops if op["errs"]), default=math.nan)
                out.append(f"worst relative error {q}: {worst:.3e}")
    if detail["absent"]:
        out.append(f"absent layers: {', '.join(detail['absent'])}")
    out += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in line["metrics"].items()]
    out.append(f"correct={line['correct']} attempted={line['attempted']} failed={line['failed']}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "shrinker_lab" / "__init__.py").is_file():
        print(f"error: no shrinker_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected_checks.json").read_text())
    traced = bool(args.trace)
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # unwind, so children are killed
    try:
        runs = measure(args.workload, args.seed, args.seconds, traced, work)
        line, detail = summarize(args.workload, runs, spec, traced, expected)
        env = {
            "commit": commit(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": traced,
            "nproc": os.cpu_count(),
            "passes": len(runs["plain"]) + len(runs["spanned"]),
            **runs["plain"][0]["versions"],
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"result-{stem}.json").write_text(json.dumps({"env": env, **line, **detail}, indent=1))
        if traced:
            shutil.copy(runs["spanned"][-1]["spans"], out_dir / f"spans-{stem}.jsonl")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(report_lines(args.workload, line, detail, env)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
