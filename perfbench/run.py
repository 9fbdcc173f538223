#!/usr/bin/env python3
"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 52 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.  The
line before it is a record of the run: environment, sample counts, output
checks and the workload-specific figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["solve_mix", "serve"]
SOLVE_COMMANDS = ["fit", "oracle", "hyper-fit"]   # one of each per solve_mix round
REPORT_KEYS = {
    "fit": ["objective", "atom_count", "certificate", "wall_time_ms", "seed", "config_digest"],
    "hyper-fit": ["objective", "atom_count", "certificate", "wall_time_ms", "seed", "config_digest"],
    "oracle": ["fit_objective", "oracle_objective", "relative_gap"],
    "predict": ["rows"],
    "deeponet": ["atom_count"],
}
SETUP_REPEATS = 9        # fresh-process set-ups per run, spread over the window; setup_s is their median
TAIL_PERCENTILE = 90     # op_ms_p90; a run takes >= 100 ops at the baseline
TRACE_ROUNDS = 10        # solve_mix rounds in one traced cycle
ORACLE_GAP = 1e-4        # same bound as tests/test_cli.py and acceptance 05
REL_TOL = 1e-10          # reference agreement, relative to the absolute term sum
# per-layer metrics about the tracing itself: (unit, better)
BENCH_METRICS = {
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.attributed_frac": ("ratio", "higher"),
}


class ProgramMissing(RuntimeError):
    pass


class CheckFailed(Exception):
    pass


def load_program():
    """Import vvrkbs from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(SRC, "vvrkbs")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise ProgramMissing(f"no program sources at {pkg}")
    sys.path.insert(0, SRC)
    import vvrkbs.cli  # noqa: F401
    import vvrkbs.operator_learning  # noqa: F401

    got = os.path.dirname(os.path.realpath(sys.modules["vvrkbs"].__file__))
    if got != os.path.realpath(pkg):
        raise ProgramMissing(f"vvrkbs imported from {got}, not from {pkg}")
    return sys.modules["vvrkbs"]


def call_cli(argv):
    """vvrkbs.cli.main in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["vvrkbs.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_report(stdout: str, keys):
    """stdout must be exactly one newline-terminated JSON object, keys in order."""
    lines = stdout.splitlines(keepends=True)
    if len(lines) != 1 or not lines[0].endswith("\n"):
        raise CheckFailed(f"stdout holds {len(lines)} lines, expected one JSON line")
    pairs = json.loads(lines[0], object_pairs_hook=list)
    if not isinstance(pairs, list) or [k for k, _ in pairs] != keys:
        raise CheckFailed(f"stdout keys {pairs!r} are not {keys}")
    return dict(pairs)


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(value, ref, scale):
    return bool(np.all(np.abs(value - ref) <= REL_TOL * np.maximum(scale, 1e-300)))


# ---------------------------------------------------------------- set-up

def build_inputs(workload, seed, size, root):
    """Write the workload's inputs under root; for serve also build the
    DeepONet model through the CLI and load it.  Returns the run state."""
    os.makedirs(root, exist_ok=True)
    gen = inputs.GENERATORS[workload](root, seed, size)
    if workload != "serve":
        return {"problems": gen, "rounds": size["rounds"]}
    p = gen["paths"]
    code, out, _ = call_cli(["deeponet", "--config", p["deeponet_config"],
                             "--data", p["deeponet_data"], "--out", p["hyper_model"]])
    if code != 0:
        raise CheckFailed(f"deeponet build exited {code}")
    gen["model"] = load_hyper_model(p["hyper_model"])
    gen["atom_count"] = parse_report(out, REPORT_KEYS["deeponet"])["atom_count"]
    return gen


def load_hyper_model(path):
    from vvrkbs.dual_pair import DualPairSpec
    from vvrkbs.operator_learning import hyper_model_from_json_dict

    with open(path, "rb") as fh:
        d = json.loads(fh.read().decode("utf-8"))
    return hyper_model_from_json_dict(d, DualPairSpec(inputs.HYPER_D, "l2"))


def setup_seconds(args, run_dir, k):
    """Wall time of one fresh process that imports vvrkbs.cli and builds the
    inputs, up to where the first timed op would start."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-only", os.path.join(run_dir, f"setup_{k}")]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise CheckFailed(f"set-up process exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt


# ------------------------------------------------------------------- ops

class Ops:
    """The workload's ops and their output checks.  Each op returns the
    figures its check needs; run_op times it and applies the check."""

    def __init__(self, workload, state, size):
        self.state = state
        self.size = size
        self.digests = {}         # op key -> output digest, for byte identity
        self.objectives = {}      # (command, round) -> final objective
        if workload == "serve":
            with open(state["paths"]["hyper_model"], encoding="utf-8") as fh:
                atoms = json.load(fh)["atoms"]
            arrays = (np.array([at["a"] for at in atoms]),
                      np.array([at["w"] for at in atoms]),
                      np.array([at["theta"] for at in atoms]),
                      np.array([at["v"] for at in atoms]))
            q = state["queries"]
            self.query_ref = inputs.ref_hyper_values(
                arrays, q["z"], q["x"], inputs.HYPER_RADIUS, inputs.HYPER_RADIUS)
            X, Wf, C = state["flat_arrays"]
            Phi = inputs.ref_phi(X, Wf, inputs.FLAT_RADIUS)
            self.flat_ref = (Phi @ C, np.abs(Phi) @ np.abs(C))

    # -- the op lists: a cycle is a list of units, a unit a list of ops that
    # always runs whole (a solve_mix round, or one serve op)

    def solve_cycle(self, rounds=None):
        rounds = self.state["rounds"] if rounds is None else rounds
        return [[(cmd, k) for cmd in SOLVE_COMMANDS] for k in range(rounds)]

    def serve_cycle(self, with_build=False):
        ops = [("build", 0)] if with_build else []
        ops += [("predict", 0), ("norm", 0)]
        return [[op] for op in ops + [("query", j) for j in range(self.size["queries"])]]

    # -- running and checking one op

    def run(self, kind, key):
        """Returns (seconds, check closure)."""
        if kind in SOLVE_COMMANDS:
            p = self.state["problems"][kind][key]
            argv = [kind, "--config", p["config"], "--data", p["data"]]
            if kind != "oracle":
                argv += ["--out", p["out"]]
            t0 = time.perf_counter()
            res = call_cli(argv)
            dt = time.perf_counter() - t0
            return dt, lambda: self.check_solve(kind, key, p, res)
        if kind == "query":
            q = self.state["queries"]
            ol = sys.modules["vvrkbs.operator_learning"]
            t0 = time.perf_counter()
            val = ol.hyper_evaluate(self.state["model"], q["z"][key], q["x"][key])
            dt = time.perf_counter() - t0
            return dt, lambda: self.check_query(key, val)
        if kind == "norm":
            ol = sys.modules["vvrkbs.operator_learning"]
            t0 = time.perf_counter()
            wf = ol.weight_form_tv(self.state["model"])
            ff = ol.function_form_tv_upper(self.state["model"])
            dt = time.perf_counter() - t0
            return dt, lambda: self.check_norm(wf, ff)
        p = self.state["paths"]
        if kind == "predict":
            argv = ["predict", "--config", p["flat_config"], "--model", p["flat_model"],
                    "--data", p["predict_data"], "--out", p["predict_out"]]
        else:  # build
            argv = ["deeponet", "--config", p["deeponet_config"],
                    "--data", p["deeponet_data"], "--out", p["hyper_model"]]
        t0 = time.perf_counter()
        res = call_cli(argv)
        dt = time.perf_counter() - t0
        return dt, lambda: self.check_serve_cli(kind, res)

    def _same(self, key, digest):
        first = self.digests.setdefault(key, digest)
        if first != digest:
            raise CheckFailed(f"{key}: output differs from the first run of the same op")

    def check_solve(self, cmd, key, p, res):
        code, out, err = res
        if code not in (0, 3):
            raise CheckFailed(f"{cmd} exited {code}: {err.strip()[-300:]}")
        rep = parse_report(out, REPORT_KEYS[cmd])
        if cmd == "oracle":
            if not rep["relative_gap"] <= ORACLE_GAP:
                raise CheckFailed(f"oracle relative_gap {rep['relative_gap']} > {ORACLE_GAP}")
            obj = rep["fit_objective"]
            self._same((cmd, key), hashlib.sha256(out.encode()).hexdigest())
        else:
            obj = rep["objective"]
            with open(p["out"] + ".report.json", encoding="utf-8") as fh:
                if fh.read() != out:
                    raise CheckFailed("report file differs from stdout")
            with open(p["out"], "rb") as fh:
                raw = fh.read()
            if len(json.loads(raw)["atoms"]) != rep["atom_count"]:
                raise CheckFailed("atom_count does not match the model file")
            self._same((cmd, key), hashlib.sha256(raw).hexdigest())
        if not math.isfinite(obj):
            raise CheckFailed(f"objective {obj} is not finite")
        self.objectives[(cmd, key)] = obj
        return code == 3

    def check_query(self, key, val):
        ref, scale = self.query_ref[0][key], self.query_ref[1][key]
        val = np.asarray(val, dtype=float)
        if val.shape != ref.shape or not _close(val, ref, scale):
            raise CheckFailed(f"query {key}: {val} differs from the reference {ref}")
        return False

    def check_norm(self, wf, ff):
        if not (math.isfinite(wf) and math.isfinite(ff)) or ff > wf * (1 + 1e-12):
            raise CheckFailed(f"weight_form_tv {wf} < function_form_tv_upper {ff}")
        self._same(("norm", 0), (wf, ff))
        return False

    def check_serve_cli(self, kind, res):
        code, out, err = res
        if code != 0:
            raise CheckFailed(f"{kind} exited {code}: {err.strip()[-300:]}")
        p = self.state["paths"]
        if kind == "build":
            rep = parse_report(out, REPORT_KEYS["deeponet"])
            if rep["atom_count"] != self.state["atom_count"]:
                raise CheckFailed("deeponet atom_count changed between builds")
            self._same(("build", 0), _sha(p["hyper_model"]))
            return False
        rows = self.size["predict_rows"]
        if parse_report(out, REPORT_KEYS["predict"])["rows"] != rows:
            raise CheckFailed("predict reported the wrong row count")
        with open(p["predict_out"], "rb") as fh:
            raw = fh.read()
        lines = raw.decode("utf-8").splitlines()
        if lines[0] != ",".join(f"y{j}" for j in range(inputs.FLAT_D)) or len(lines) != rows + 1:
            raise CheckFailed("predictions file has the wrong header or row count")
        pred = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        ref, scale = self.flat_ref
        if not (np.all(np.isfinite(pred)) and pred.shape == ref.shape and _close(pred, ref, scale)):
            raise CheckFailed("predictions differ from the reference")
        self._same(("predict", 0), hashlib.sha256(raw).hexdigest())
        return False


def run_op(ops, kind, key, log):
    """Time one op and check it; log gets (kind, seconds, failure, uncertified)."""
    try:
        dt, check = ops.run(kind, key)
    except Exception as exc:  # a traceback from the program is a failed op
        log.append((kind, None, f"{kind} {key} raised {type(exc).__name__}: {exc}", False))
        return
    try:
        uncertified = check()
    except (CheckFailed, ValueError, KeyError, OSError) as exc:
        log.append((kind, dt, f"{kind} {key}: {exc}", False))
        return
    log.append((kind, dt, None, uncertified))


# ------------------------------------------------------------ environment

def blas_threads():
    """Thread count in force in the OpenBLAS numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "nproc": nproc,
        "VVRKBS_THREADS": os.environ.get("VVRKBS_THREADS"),
        "git_commit": git_commit(),
        "threads_within_nproc": threads is None or threads <= nproc,
    }


# -------------------------------------------------------------------- run

def run_units(ops, units, t_stop, log):
    """Closed loop: the next op starts when the previous one has finished.
    Takes units from the iterator, at least one, until t_stop has passed."""
    while True:
        for kind, key in next(units):
            run_op(ops, kind, key, log)
        if time.perf_counter() >= t_stop:
            return


def run_cycle(ops, cycle, log):
    for unit in cycle:
        for kind, key in unit:
            run_op(ops, kind, key, log)


def summarize(log):
    failures = [f for _, _, f, _ in log if f]
    return {
        "attempted": len(log),
        "failed": len(failures),
        "uncertified": sum(1 for _, _, f, u in log if u and not f),
        "first_failures": failures[:5],
    }


def _median_p(times):
    """(median, tail percentile) of a list of seconds, in ms."""
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return 1000 * statistics.median(times), 1000 * tail


def run_untraced(args, ops, size, run_dir, record):
    """The window is cut into SETUP_REPEATS slices, each opened by one set-up
    process, so that the set-up samples see the machine's speed changes over
    the whole window as the op samples do.  Ops are timed one by one."""
    serve = args.workload == "serve"
    units = itertools.cycle(ops.serve_cycle() if serve else ops.solve_cycle())
    t_end = time.perf_counter() + args.seconds
    setup, log, op_cpu, op_wall = [], [], 0.0, 0.0
    for k in range(SETUP_REPEATS):
        setup.append(setup_seconds(args, run_dir, k))
        cpu0, wall0 = time.process_time(), time.perf_counter()
        run_units(ops, units, t_end - (SETUP_REPEATS - 1 - k) * args.seconds / SETUP_REPEATS, log)
        op_cpu += time.process_time() - cpu0
        op_wall += time.perf_counter() - wall0
    record["cpu_per_wall"] = op_cpu / op_wall if op_wall else None
    if serve:
        times = [dt for kind, dt, f, _ in log if kind == "query" and not f]
    else:
        # a round is one op of each solve command; only complete rounds count
        n = len(SOLVE_COMMANDS)
        rounds = [log[i:i + n] for i in range(0, len(log) - n + 1, n)]
        times = [sum(dt for _, dt, _, _ in r) for r in rounds if not any(f for _, _, f, _ in r)]
        run_cycle(ops, ops.solve_cycle(1), log)     # byte identity of round 0; not timed
    if len(times) < 2:
        raise CheckFailed("fewer than two ops completed inside the timed window")
    p50, tail = _median_p(times)
    # Only the tail is bounded: the op times follow the machine's two speeds,
    # and a central figure moves with the share of slow time in the window.
    record["setup_samples_s"] = setup
    record["samples"] = len(times)
    record["op_ms_p50"] = p50
    record["op_ms_mean"] = 1000 * statistics.fmean(times)
    record["beyond_tail"] = sum(1 for t in times if 1000 * t > tail)
    if serve:
        norm = [dt for kind, dt, f, _ in log if kind == "norm" and not f]
        pred = [dt for kind, dt, f, _ in log if kind == "predict" and not f]
        record["query_ms_p50"], record["query_ms_tail"] = p50, tail
        record["norm_s"] = statistics.median(norm) if norm else None
        record["predict_rows_per_s"] = size["predict_rows"] / statistics.median(pred) if pred else None
        record["model_atoms"] = ops.state["atom_count"]
    else:
        for cmd in SOLVE_COMMANDS:
            cmd_times = [dt for kind, dt, f, _ in log if kind == cmd and not f]
            c50, ctail = _median_p(cmd_times) if len(cmd_times) >= 2 else (None, None)
            objs = [v for (c, _), v in ops.objectives.items() if c == cmd]
            record[cmd] = {
                "solve_s_p50": c50 and c50 / 1000,
                "solve_s_tail": ctail and ctail / 1000,
                "uncertified_frac": sum(1 for kind, _, f, u in log if kind == cmd and u and not f)
                / max(1, len(cmd_times)),
                "objective_median": statistics.median(objs) if objs else None,
            }
    metrics = {
        f"op_ms_p{TAIL_PERCENTILE}": {"value": tail, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return log, metrics


def _cycle_wall(log, n):
    return sum(dt or 0.0 for _, dt, _, _ in log[-n:])


def run_traced(args, ops, record, spans_path):
    """Untraced and traced cycles alternate until the window has passed, so
    that the overhead compares the medians of cycles run side by side."""
    if args.workload == "serve":
        cycle = ops.serve_cycle(with_build=True)
    else:
        cycle = ops.solve_cycle(min(TRACE_ROUNDS, ops.state["rounds"]))
    cycle_ops = sum(len(unit) for unit in cycle)
    log, untraced_walls, traced_walls, snapshots = [], [], [], []
    tracer = tracing.Tracer()
    kind_wall, kind_incl = {}, {}     # per op kind: wall, and inclusive time per layer
    t_end = time.perf_counter() + args.seconds
    while not traced_walls or time.perf_counter() < t_end:
        run_cycle(ops, cycle, log)
        untraced_walls.append(_cycle_wall(log, cycle_ops))
        tracer.install()
        i = 0
        for unit in cycle:
            for kind, key in unit:
                tracer.op = f"c{len(traced_walls)}.{i}.{kind}.{key}"
                i += 1
                before = tracer.inclusive()
                run_op(ops, kind, key, log)
                dt = log[-1][1] or 0.0
                kind_wall[kind] = kind_wall.get(kind, 0.0) + dt
                acc = kind_incl.setdefault(kind, {})
                for name, v in tracer.inclusive().items():
                    acc[name] = acc.get(name, 0.0) + v - before.get(name, 0.0)
        tracer.uninstall()
        traced_walls.append(_cycle_wall(log, cycle_ops))
        snapshots.append(tracer.snapshot())
    cycles = len(traced_walls)
    deltas = [{k: v - prev.get(k, 0) for k, v in cur.items()}
              for prev, cur in zip([{}] + snapshots[:-1], snapshots)]
    record["trace_cycles"] = cycles
    record["cycle_ops"] = cycle_ops
    record["untraced_cycle_s"] = untraced_walls
    record["traced_cycle_s"] = traced_walls
    record["counts_repeat"] = all(d == deltas[0] for d in deltas)
    record["rebound_in"] = tracer.rebound
    record["spans_kept"] = len(tracer.spans)
    record["spans_dropped"] = tracer.dropped
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    tracer.write_spans(spans_path)
    metrics = tracer.per_layer(cycles)
    metrics["bench.trace_overhead_frac"] = {
        "value": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "unit": "ratio"}
    metrics["bench.attributed_frac"] = {"value": tracer.self_total() / sum(traced_walls),
                                        "unit": "ratio"}
    record["inclusive_share"] = {
        kind: {n: v / kind_wall[kind] for n, v in sorted(acc.items(), key=lambda kv: -kv[1])
               if v > 0.01 * kind_wall[kind]}
        for kind, acc in kind_incl.items()}
    for name in sorted(metrics):
        print(f"{name:55s} {metrics[name]['value']:14.6g} {metrics[name]['unit']}", file=sys.stderr)
    return log, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench/smoke.py")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    start = time.perf_counter()
    size = inputs.SIZES[args.workload]["smoke" if args.smoke else "full"]
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        build_inputs(args.workload, args.seed, size, args.setup_only)
        return 0

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(WORK, f"run-{tag}-{os.getpid()}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke, "size": size,
              "tail_percentile": TAIL_PERCENTILE}
    try:
        record["environment"] = environment()
        t0 = time.perf_counter()
        state = build_inputs(args.workload, args.seed, size, os.path.join(run_dir, "main"))
        ops = Ops(args.workload, state, size)
        record["main_setup_s"] = time.perf_counter() - t0
        if args.trace:
            spans = os.path.join(WORK, f"spans-{tag}.jsonl.gz")
            log, metrics = run_traced(args, ops, record, spans)
        else:
            log, metrics = run_untraced(args, ops, size, run_dir, record)
    except (CheckFailed, ProgramMissing, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    s = summarize(log)
    record.update(s)
    record["failed_frac"] = s["failed"] / max(1, s["attempted"])
    solves = sum(1 for kind, _, _, _ in log if kind in SOLVE_COMMANDS)
    record["uncertified_frac"] = s["uncertified"] / solves if solves else 0.0
    record["wall_s"] = time.perf_counter() - start
    correct = s["failed"] == 0 and record["environment"]["threads_within_nproc"]
    if args.trace:
        correct = correct and record["counts_repeat"]
    result = {"correct": bool(correct), "attempted": s["attempted"], "failed": s["failed"],
              "metrics": metrics}
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
        fh.write("\n")
    for f in s["first_failures"]:
        print(f"perfbench: failed op: {f}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
