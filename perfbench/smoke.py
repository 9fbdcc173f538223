#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

Runs every workload at its smoke size, untraced and traced, and checks the
result line against BENCHMARK.json: exact keys, every op correct, and the
metric names and units it lists.  Then checks that the benchmark refuses to
run, without printing a result, in a directory holding only BENCHMARK.json
and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402


def result_line(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.splitlines()[-1] if proc.stdout else ""


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if names != run.WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} != {run.WORKLOADS}")
    layer_units = {m: u for m, (u, _b, _v) in tracing.PER_LAYER.items()}
    layer_units.update({m: u for m, (u, _b) in run.BENCH_METRICS.items()})
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != layer_units:
        problems.append("BENCHMARK.json per_layer does not match tracing.PER_LAYER")
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc, line = result_line(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            res = json.loads(line)
            if list(res) != ["correct", "attempted", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {list(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            print(f"ok {tag}: attempted {res['attempted']}")

    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, line = result_line(bare, run.WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or line.startswith("{"):
        problems.append("benchmark ran in a directory without the program")
    else:
        print(f"ok bare directory: exit {proc.returncode}")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
