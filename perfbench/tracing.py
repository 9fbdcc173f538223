"""Span tracing for the traced benchmark run, installed from outside ``src/``.

Each entry point below is replaced by a wrapper in every ``vvrkbs`` module
that holds a reference to it, so calls through a name imported with
``from .feature import phi_matrix`` are traced too.  A wrapper records one
span (id, parent id, op id, name, start, end) and adds to per-name totals:
calls, self time (duration minus the time covered by child spans) and one
optional count taken from the arguments or the result.

Spans are kept in memory up to a cap and written out at the end; the totals
cover every call, including those past the cap.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# (module, function, name of the extra count, how to take it from
# (args, kwargs, result)).  The layers are the package modules; ``verify`` is
# the test oracle, not a user path, and is not traced.
ENTRY_POINTS = [
    ("feature", "phi_matrix", "entries", lambda a, k, r: r.size),
    ("feature", "grad_phi_w_batch", "rows", lambda a, k, r: r.shape[0]),
    ("dual_pair", "vector_norm", None, None),
    ("dual_pair", "dual_norm_value", None, None),
    ("dual_pair", "primal_witness", None, None),
    ("measure", "coalesce", "atoms_in", lambda a, k, r: len(_first(a, k).atoms)),
    ("measure", "total_variation", "atoms_in", lambda a, k, r: len(_first(a, k).atoms)),
    ("measure", "measure_from_arrays", "atoms_in", lambda a, k, r: len(_first(a, k))),
    ("rkbs", "evaluate", None, None),
    ("solver", "fit", "iterations", lambda a, k, r: r.iterations),
    ("solver", "lmo", None, None),
    ("solver", "_fista", None, None),
    ("solver", "residual_duals", None, None),
    ("solver", "grid_oracle", None, None),
    ("operator_learning", "_hyper_score_grid", None, None),
    ("operator_learning", "hyper_fit", "iterations", lambda a, k, r: r.iterations),
    ("operator_learning", "hyper_evaluate", None, None),
    ("operator_learning", "evaluate_weight_form", None, None),
    ("operator_learning", "evaluate_function_form", None, None),
    ("operator_learning", "_group_by_location", None, None),
    ("operator_learning", "weight_form_tv", None, None),
    ("operator_learning", "function_form_tv_upper", None, None),
    ("operator_learning", "deeponet_embed", None, None),
    ("cli", "main", None, None),
    ("cli", "_read_dataset", "rows", lambda a, k, r: len(r[0])),
    ("cli", "_read_dataset_inputs_only", "rows", lambda a, k, r: len(r[0])),
]

LMO = "solver.lmo"
FISTA = "solver._fista"
# calls counted (no span) while a FISTA span is open: one per line-search trial
PROX = ("solver", "_prox_rows")


def _stat(name, field):
    return lambda t: t.stats[name][field]


def _accept_ratio(t):
    phi = t.inside[("feature.phi_matrix", LMO)]
    return t.inside[("feature.grad_phi_w_batch", LMO)] / phi if phi else 0.0


# Per-layer metric name -> (unit, better, value from the tracer).  The names
# are the contract later changes are judged by; BENCHMARK.json lists the same.
PER_LAYER = {}
for _mod, _fn, _extra, _ in ENTRY_POINTS:
    _name = f"{_mod}.{_fn}"
    PER_LAYER[f"{_name}.calls"] = ("count", "lower", _stat(_name, "calls"))
    if _extra is not None:
        PER_LAYER[f"{_name}.{_extra}"] = ("count", "lower", _stat(_name, "count"))
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower", _stat(_name, "self_s"))
PER_LAYER[f"{LMO}.accept_ratio"] = ("ratio", "higher", _accept_ratio)
PER_LAYER[f"{FISTA}.cpu_s"] = ("s", "lower", _stat(FISTA, "cpu_s"))
PER_LAYER[f"{FISTA}.prox_calls"] = ("count", "lower", lambda t: t.prox_calls)


class _Stat(dict):
    def __init__(self):
        super().__init__(calls=0, self_s=0.0, count=0, cpu_s=0.0, incl_s=0.0)


class Tracer:
    """Holds the open-span stack, the closed spans and the per-name totals."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.stack = []               # open spans: [span id, wall covered by children]
        self.spans = []               # closed: (id, parent, op, name, start, end)
        self.dropped = 0
        self.next_id = 0
        self.op = None                # id of the benchmark op being traced
        self.stats = defaultdict(_Stat)
        self.active = defaultdict(int)    # name -> open spans of that name
        self.inside = defaultdict(int)    # (name, ancestor) -> calls under it
        self.prox_calls = 0
        self.rebound = {}             # "module.fn" -> modules re-bound
        self.bindings = []            # (module, attribute, original) while installed

    def wrap(self, name, fn, count=None, inside=None, cpu=False):
        stat = self.stats[name]
        stack, active, clock, cpu_clock = self.stack, self.active, time.perf_counter, time.process_time
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else None
            if inside is not None and active[inside]:
                tracer.inside[(name, inside)] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if cpu:
                    # children (per-row norms) are single-threaded: cpu ~ wall
                    stat["cpu_s"] += cpu_clock() - c0 - frame[1]
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat["calls"] += 1
                stat["self_s"] += dur - frame[1]
                if not active[name]:
                    stat["incl_s"] += dur
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((sid, parent, tracer.op, name, t0, t1))
                else:
                    tracer.dropped += 1
            if count is not None:
                stat["count"] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_prox(self, fn):
        active = self.active
        tracer = self

        def wrapper(*args, **kwargs):
            if active[FISTA]:
                tracer.prox_calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Re-bind every entry point in every loaded ``vvrkbs`` module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vvrkbs" or n.startswith("vvrkbs."))]
        plan = []
        for mod, fn_name, _extra, count in ENTRY_POINTS:
            name = f"{mod}.{fn_name}"
            original = getattr(sys.modules[f"vvrkbs.{mod}"], fn_name)
            inside = LMO if mod == "feature" else None
            plan.append((name, original, self.wrap(name, original, count, inside,
                                                   cpu=name == FISTA)))
        prox = getattr(sys.modules[f"vvrkbs.{PROX[0]}"], PROX[1])
        plan.append(("solver._prox_rows", prox, self._count_prox(prox)))
        for name, original, wrapped in plan:
            hits = []
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self.bindings.append((m, attr, original))
                        hits.append(m.__name__.split(".")[-1])
            self.rebound[name] = hits

    def uninstall(self):
        """Put back every original entry point; the totals are kept."""
        for m, attr, original in self.bindings:
            setattr(m, attr, original)
        self.bindings = []

    def snapshot(self):
        """Every count the tracer keeps, for the exact-repeat check."""
        counts = {f"{n}.calls": s["calls"] for n, s in self.stats.items()}
        counts.update({f"{n}.count": s["count"] for n, s in self.stats.items()})
        counts.update({f"{a}@{b}": v for (a, b), v in self.inside.items()})
        counts["prox_calls"] = self.prox_calls
        return counts

    def inclusive(self) -> dict:
        """Wall time under each name's outermost spans, with its children."""
        return {n: s["incl_s"] for n, s in self.stats.items() if s["incl_s"] > 0}

    def self_total(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())

    def per_layer(self, cycles: int) -> dict:
        """Per-layer values as totals over one cycle (the mean over cycles)."""
        out = {}
        for metric, (unit, _better, value) in PER_LAYER.items():
            v = value(self)
            if not metric.endswith("accept_ratio"):
                v = v / cycles
            out[metric] = {"value": v, "unit": unit}
        return out

    def write_spans(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                 "dropped": self.dropped}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
