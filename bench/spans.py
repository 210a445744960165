"""Spans around the public functions of shrinker_lab, for the traced run.

`install` replaces every public function of the layer modules, and the
private field kernel `frequency._fields`, with a wrapper that opens a span on
entry and closes it on exit.  The wrapper is put at every binding site callers
use: module globals of any loaded shrinker_lab module (so `frequency.evaluate`,
imported from holopoly, is wrapped too) and the elements of module-level lists
(the check tables in report.py).  A function or module that no longer exists
is skipped and reported as absent.

Spans live in memory as [id, parent_id, name, t0, t1] and are written out
once the workload ends.  A span's self time is its duration minus the union
of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "shrinker_lab"

LAYERS = (
    "quadrature",
    "holopoly",
    "frequency",
    "spectrum",
    "eigensolve",
    "oracle1d",
    "fheat",
    "forms",
    "ratlinalg",
    "report",
    "cli",
)

# Functions the per-layer metrics are read from; a missing one makes its
# metrics read 0 and is listed as absent.
RULE_BUILDERS = (
    "quadrature.level_set_quadrature",
    "quadrature.ball_quadrature",
    "quadrature.shell_quadrature",
    "quadrature.weighted_space_quadrature",
)
MOMENTS = ("quadrature.sphere_moment", "quadrature.ball_moment")
EVALUATE = "holopoly.evaluate"
DECOMPOSE = "holopoly.decompose_by_eigenvalue"
ETA = "frequency.eta_integral"
BISECT = "eigensolve.tridiagonal_eigenvalues"
THOMAS = "eigensolve.thomas_solve"
RANK = "ratlinalg.integer_rank"
# private, but it is where the quadrature route turns evaluations into fields
FIELDS = "frequency._fields"
NAMED = RULE_BUILDERS + MOMENTS + (EVALUATE, FIELDS, DECOMPOSE, ETA, BISECT, THOMAS, RANK)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, self.clock(), None])
        self.stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.spans[sid][4] = self.clock()
        self.stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        covered = union_length((max(a, t0), min(b, t1)) for a, b in children[sid] if b > t0 and a < t1)
        out[sid] = (t1 - t0) - covered
    return out


def _cached_misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info is not None else None


def _points(z) -> int:
    shape = np.shape(z)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _wrap(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    if name in RULE_BUILDERS:

        def wrapper(*args, **kwargs):
            sid = tracer.enter(name)
            before = _cached_misses(fn)
            try:
                rule = fn(*args, **kwargs)
            finally:
                tracer.exit(sid)
            counts["quadrature.rule_calls"] += 1
            # an lru_cache builder builds only on a miss; any other builds every call
            if before is None or _cached_misses(fn) > before:
                counts["quadrature.rule_builds"] += 1
                counts["quadrature.nodes_built"] += rule.nodes.shape[0]
                counts["quadrature.bytes_built"] += rule.nodes.nbytes + rule.weights.nbytes
            return rule

    else:
        if name == EVALUATE:

            def count(args, kwargs):
                u, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
                counts["holopoly.evaluate.term_points"] += len(u.terms) * _points(z)

        elif name == THOMAS:

            def count(args, kwargs):
                counts["eigensolve.thomas.rows"] += len(args[0] if args else kwargs["diag"])

        elif name == RANK:

            def count(args, kwargs):
                rows = args[0] if args else kwargs["rows"]
                counts["ratlinalg.rank.entries"] += len(rows) * (len(rows[0]) if rows else 0)

        else:
            count = None

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            sid = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(sid)

    functools.update_wrapper(wrapper, fn)
    return wrapper


def _traced_functions(module, layer: str):
    for attr, obj in vars(module).items():
        if (attr.startswith("_") and f"{layer}.{attr}" not in NAMED) or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> list[str]:
    """Wrap every public layer function at all its binding sites.

    Returns the sorted names of layers and named functions that are absent.
    """
    absent = []
    wrappers: dict[int, object] = {}
    found = set()
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ModuleNotFoundError:
            absent.append(layer)
            continue
        for attr, fn in _traced_functions(module, layer):
            name = f"{layer}.{attr}"
            found.add(name)
            wrappers[id(fn)] = _wrap(tracer, name, fn)
    absent.extend(n for n in NAMED if n not in found and n.split(".")[0] not in absent)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, val in list(vars(module).items()):
            if id(val) in wrappers:
                setattr(module, attr, wrappers[id(val)])
            elif isinstance(val, list):
                for i, item in enumerate(val):
                    if id(item) in wrappers:
                        val[i] = wrappers[id(item)]
    return sorted(absent)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced workload."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _, name, _, _ in tracer.spans:
        by_name[name] += selfs[sid]
        calls[name] += 1
    by_layer: dict[str, float] = defaultdict(float)
    for name, s in by_name.items():
        by_layer[name.split(".")[0]] += s
    fheat_steps = sum(
        1
        for _, parent, name, _, _ in tracer.spans
        if name == THOMAS and parent is not None and tracer.spans[parent][2].startswith("fheat.")
    )
    out = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    out.update(
        {
            "quadrature.moment_calls": sum(calls[n] for n in MOMENTS),
            "holopoly.evaluate.self_s": by_name[EVALUATE],
            "holopoly.evaluate.calls": calls[EVALUATE],
            "holopoly.decompose.self_s": by_name[DECOMPOSE],
            "frequency.fields.self_s": by_name[FIELDS],
            "frequency.fields.calls": calls[FIELDS],
            "frequency.eta.calls": calls[ETA],
            "frequency.eta.self_s": by_name[ETA],
            "eigensolve.bisect.self_s": by_name[BISECT],
            "eigensolve.bisect.calls": calls[BISECT],
            "eigensolve.thomas.self_s": by_name[THOMAS],
            "ratlinalg.rank.self_s": by_name[RANK],
            "fheat.steps": fheat_steps,
        }
    )
    for key in (
        "quadrature.rule_calls",
        "quadrature.rule_builds",
        "quadrature.nodes_built",
        "quadrature.bytes_built",
        "holopoly.evaluate.term_points",
        "eigensolve.thomas.rows",
        "ratlinalg.rank.entries",
    ):
        out[key] = tracer.counts[key]
    return out
