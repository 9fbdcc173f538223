"""Batch front door: fit, predict, verify, oracle, hyper-fit, deeponet.

stdout carries machine-readable JSON only (newline-terminated, fixed key
order); diagnostics go to stderr.  Exit codes: 0 success, 1 usage, 2 bad
data or config, 3 fit finished without certificate convergence (the
model file is still written), 4 verification failure.

Config JSON for ``fit`` / ``oracle`` / ``predict`` has the sections
"feature", "space" and "solver".  ``hyper-fit`` replaces
"feature" with "phi" and "psi" and adds "sampling" and an optional "grids"
section.  Each section is read through its table in ``_SECTIONS``, and a
key it omits takes its builder's default.  README.md documents every key.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import time

import numpy as np

from .dual_pair import DualPairSpec
from .feature import FeatureMap, feature_from_json_dict, feature_to_json_dict, phi_matrix
from .measure import measure_from_json_dict, measure_to_json_dict
from .operator_learning import (SampledMeasurement, _check_hyper_grids, deeponet_embed, hyper_fit,
                                hyper_model_to_json_dict)
from .rkbs import RkbsFunction
from .solver import (FitOptions, Problem, SolverError, _grid_size, _positive_lam, export_network,
                     fit, grid_oracle, identity_measurement, network_to_json_dict, product_grid)
from .verify import run_invariant_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOT_CONVERGED = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through exit 1 instead
    def error(self, message):
        raise UsageError(message)


def _read_config(path: str):
    """Returns (raw bytes, parsed dict); the digest hashes the raw bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must hold a JSON object")
    return raw, cfg


def _solver(lam, grid_per_dim=None, **options):
    """The solver section: lam, its FitOptions, and its grid size or None
    for free search."""
    grid_per_dim = None if grid_per_dim is None else _grid_size(grid_per_dim)
    return _positive_lam(lam), FitOptions(**options), grid_per_dim


# Each config section: what builds its object, and the argument each key
# sets (a dotted key reads a nested object).  The builders hold every type
# and range rule; a key a section omits keeps its builder's default.
_FEATURE = (FeatureMap, {f.name: f.name for f in dataclasses.fields(FeatureMap)})
_SECTIONS = {
    "feature": _FEATURE, "phi": _FEATURE, "psi": _FEATURE,
    "space": (DualPairSpec, {"d": "dim", "norm": "primal_norm"}),
    "solver": (_solver, {"lambda": "lam", "max_atoms": "max_atoms", "tol": "tol", "seed": "seed",
                         "refit.max_iter": "refit_max_iter", "refit.tol": "refit_tol",
                         "grid_per_dim": "grid_per_dim"}),
    "sampling": (SampledMeasurement, {"points": "points", "functionals": "functionals"}),
    "grids": (_check_hyper_grids, {"w": "w_grid", "theta": "theta_grid"}),
}
# the arguments each section's builder takes without a default
_REQUIRED = {name: {arg for arg, p in inspect.signature(build).parameters.items()
                    if p.default is inspect.Parameter.empty}
             for name, (build, _) in _SECTIONS.items()}


def _section(cfg: dict, name: str, prefix: str, **context):
    """The object of config section ``name``, built by its table with
    ``context`` (the features a grids section is checked against); a
    missing required key, or a fault the builder raises, exits 2 as
    ``prefix``, and a fault message that opens with an argument's name
    names its JSON path instead."""
    build, table = _SECTIONS[name]
    given = dict(context)
    for path, arg in table.items():
        *outer, key = path.split(".")
        held, where = cfg.get(name, {}), f"{name} section"
        for part in outer:
            if isinstance(held, dict):
                held, where = held.get(part, {}), f"{name}.{part}"
        if not isinstance(held, dict):
            raise DataError(f"config {where} must be an object")
        if key in held:
            given[arg] = held[key]
        elif arg in _REQUIRED[name]:
            raise DataError(f"{prefix}: missing {name}.{path}")
    try:
        return build(**given)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        msg = str(exc)
        path = next((p for p, arg in table.items() if msg.startswith(arg + " ")), None)
        if path is not None:
            msg = f"{name}.{path}{msg[len(table[path]):]}"
        raise DataError(f"{prefix}: {msg}") from exc


def _columns(dx: int, d_meas: int):
    yield from (f"x{i}" for i in range(dx))
    yield from (f"y{j}" for j in range(d_meas))


def _read_csv(path: str, dx: int, d_meas: int = 0):
    """Header, body rows and expected column names of the CSV at ``path``.

    Names are generated lazily and the scan stops at the fifth missing
    one, so a declared width far beyond the header costs no more than the
    header: every name is present once the list is built.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not rows:
        raise DataError(f"dataset {path} is empty")
    header = [h.strip() for h in rows[0]]
    present = set(header)
    missing = list(itertools.islice(
        (c for c in _columns(dx, d_meas) if c not in present), 5))
    if missing:
        raise DataError(
            f"dataset {path} is missing column(s): {', '.join(missing)}"
        )
    return header, rows[1:], list(_columns(dx, d_meas))


def _read_dataset(path: str, dx: int, d_meas: int):
    """CSV with header x0..x{dx-1},y0..y{dmeas-1}; every value finite."""
    header, body, expected = _read_csv(path, dx, d_meas)
    if header != expected:
        raise DataError(
            f"dataset {path} header must be exactly {','.join(expected)}"
        )
    data = _numeric_rows(path, body, len(expected))
    return data[:, :dx], data[:, dx:]


def _numeric_rows(path: str, body: list, width: int):
    """Rows of ``width`` cells as one finite float array, parsed as float() does."""
    if not body:
        raise DataError(f"dataset {path} has a header but no rows")
    if any(len(r) != width for r in body):
        raise DataError(f"dataset {path} has ragged rows")
    try:
        data = np.array(body, dtype=float)
    except ValueError as exc:
        raise DataError(f"non-numeric value in {path}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise DataError(f"dataset {path} contains non-finite values")
    return data


def _emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")


def _write_json_file(path: str, obj: dict):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(obj) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _finish_fit(args, raw: bytes, state, model: dict, atom_count: int, wall_ms) -> int:
    """Write the model and its run report, emit the report, pick the exit code.
    The report's digest is the first 16 hex digits of the config's sha256."""
    _write_json_file(args.out, model)
    report = {
        "objective": float(state.objective_history[-1]),
        "atom_count": int(atom_count),
        "certificate": float(state.certificate),
        "wall_time_ms": int(wall_ms),
        "seed": int(state.seed),
        "config_digest": hashlib.sha256(raw).hexdigest()[:16],
    }
    _write_json_file(args.out + ".report.json", report)
    _emit(report)
    if not state.converged:
        print(f"{args.command} stopped before certificate convergence", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _model_json_dict(state, spec: DualPairSpec, feat: FeatureMap) -> dict:
    d = measure_to_json_dict(state.measure)
    d["dim"] = spec.dim
    d["feature"] = feature_to_json_dict(feat)
    if feat.kind == "neural":
        d["network"] = network_to_json_dict(export_network(state))
    return d


# ------------------------------------------------------------- subcommands

def _configured_fit(args, solve):
    """The set-up ``fit`` and ``oracle`` share: the config's raw bytes, the
    problem, and what ``solve`` (``fit`` or, on a grid, ``grid_oracle``)
    returns for it and its options, with its wall ms."""
    raw, cfg = _read_config(args.config)
    feat, spec = (_section(cfg, name, "bad feature/space config") for name in ("feature", "space"))
    lam, opts, grid_per_dim = _section(cfg, "solver", "bad solver config")
    if grid_per_dim is None and args.command == "oracle":
        raise DataError("oracle runs need solver.grid_per_dim")
    X, Y = _read_dataset(args.data, feat.dx, spec.dim)
    try:
        omega = None if grid_per_dim is None else product_grid(feat.radius, feat.dw, grid_per_dim)
        problem = Problem(X, Y, identity_measurement(), lam, feat, spec, omega_grid=omega)
        start = time.monotonic()
        result = solve(problem, opts)
    except (ValueError, SolverError, MemoryError) as exc:  # a grid numpy cannot hold
        failed = "fit failed" if args.command == "fit" else "oracle run failed"
        raise DataError(f"{failed}: {exc}") from exc
    return raw, problem, result, round((time.monotonic() - start) * 1000)


def cmd_fit(args) -> int:
    raw, problem, state, wall_ms = _configured_fit(args, fit)
    model = _model_json_dict(state, problem.spec, problem.feature)
    return _finish_fit(args, raw, state, model, len(state.measure), wall_ms)


def _feature_mismatch(fitted: dict, configured: dict) -> str:
    """Names the feature record keys on which a model and a config differ;
    a table key is named without its values."""
    def show(k):
        a, b = fitted.get(k), configured.get(k)
        if isinstance(a, list) or isinstance(b, list):
            return k
        return f"{k} ({a!r} in the model, {b!r} in the config)"

    keys = dict.fromkeys([*fitted, *configured])
    diffs = [show(k) for k in keys if fitted.get(k) != configured.get(k)]
    return f"model was fitted with another feature: {', '.join(diffs)}"


def cmd_predict(args) -> int:
    _, cfg = _read_config(args.config)
    feat, spec = (_section(cfg, name, "bad feature/space config") for name in ("feature", "space"))
    try:
        with open(args.model, "rb") as fh:
            model = json.loads(fh.read().decode("utf-8-sig"))
        mu = measure_from_json_dict(model)
        fitted = model.get("feature")
        if fitted is not None:
            fitted = feature_from_json_dict(fitted)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            json.JSONDecodeError) as exc:
        raise DataError(f"cannot load model {args.model}: {exc}") from exc
    if fitted not in (None, feat):
        raise DataError(_feature_mismatch(feature_to_json_dict(fitted), feature_to_json_dict(feat)))
    if mu.space.primal_norm != spec.primal_norm or (
        len(mu) and mu.space.dim != spec.dim
    ):
        raise DataError("model space does not match the config space")
    if len(mu) and mu.W.shape[1] != feat.dw:
        raise DataError("model atom locations do not match the config feature")
    X, _ = _read_dataset_inputs_only(args.data, feat.dx)
    if len(mu):
        preds = phi_matrix(feat, X, mu.W) @ mu.C
    else:
        try:
            preds = np.zeros((len(X), spec.dim))
        except (ValueError, MemoryError) as exc:  # a width numpy cannot index or hold
            raise DataError(f"config space.d is too large for an output: {exc}") from exc
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"y{j}" for j in range(spec.dim)])
            for row in preds:
                writer.writerow([repr(float(v)) for v in row])
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from exc
    _emit({"rows": int(len(preds))})
    return EXIT_OK


def _read_dataset_inputs_only(path: str, dx: int):
    header, body, expected = _read_csv(path, dx)
    cols = [header.index(c) for c in expected]
    if body and any(len(r) <= max(cols) for r in body):
        raise DataError(f"dataset {path} has ragged rows")
    return _numeric_rows(path, [[r[c] for c in cols] for r in body], dx), None


def cmd_oracle(args) -> int:
    _, _, (state, dual, gap), _ = _configured_fit(args, grid_oracle)
    _emit({"fit_objective": float(state.objective_history[-1]), "oracle_objective": float(dual),
           "relative_gap": float(gap)})
    if not state.converged:
        print("fit stopped before certificate convergence", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_hyper_fit(args) -> int:
    raw, cfg = _read_config(args.config)
    phi, psi, spec, sampling = (_section(cfg, name, "bad hyper-fit config")
                                for name in ("phi", "psi", "space", "sampling"))
    w_grid, theta_grid = _section(cfg, "grids", "bad hyper-fit config", phi=phi, psi=psi)
    lam, opts, _ = _section(cfg, "solver", "bad solver config")
    Z, Y = _read_dataset(args.data, phi.dx, sampling.n_samples)
    try:
        start = time.monotonic()
        state = hyper_fit(
            Z, Y, sampling, phi, psi, spec, lam,
            opts=opts, w_grid=w_grid, theta_grid=theta_grid,
        )
    except (ValueError, SolverError) as exc:
        raise DataError(f"hyper-fit failed: {exc}") from exc
    wall_ms = round((time.monotonic() - start) * 1000)
    model = hyper_model_to_json_dict(state.model)
    return _finish_fit(args, raw, state, model, len(state.model.a), wall_ms)


def cmd_deeponet(args) -> int:
    _, cfg = _read_config(args.config)
    phi = _section(cfg, "phi", "bad deeponet config")
    try:
        with open(args.data, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8-sig"))
        psi = feature_from_json_dict(payload["psi"])
        basis = []
        for entry in payload["basis"]:
            mu = measure_from_json_dict(entry)
            basis.append(RkbsFunction(mu, psi, mu.space))
        coeffs = payload["coeffs"]
    except (OSError, KeyError, TypeError, ValueError, OverflowError,
            json.JSONDecodeError) as exc:
        raise DataError(f"cannot load deeponet data {args.data}: {exc}") from exc
    try:
        model = deeponet_embed(basis, coeffs, phi)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"deeponet embedding failed: {exc}") from exc
    _write_json_file(args.out, hyper_model_to_json_dict(model))
    _emit({"atom_count": len(model.a)})
    return EXIT_OK


# ----------------------------------------------------------------- verify

def _fault_injection() -> float:
    raw = os.environ.get("VVRKBS_FAULT_INJECT", "")
    if not raw:
        return 0.0
    try:
        return float(raw)
    except ValueError as exc:
        raise UsageError(f"VVRKBS_FAULT_INJECT must be a float: {exc}") from exc


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    corruption = _fault_injection()
    checks = run_invariant_checks(args.trials, args.seed, corruption)
    passed = all(c["passed"] for c in checks)
    _emit({"checks": checks, "passed": passed})
    for c in checks:
        if not c["passed"]:
            print(
                f"invariant {c['name']} failed: "
                f"max error {c['max_error']:.3e} > tol {c['tol']:.1e}",
                file=sys.stderr,
            )
    return EXIT_OK if passed else EXIT_VERIFY


# ------------------------------------------------------------------- main

def _validate_threads_env():
    raw = os.environ.get("VVRKBS_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError as exc:
        raise UsageError(f"VVRKBS_THREADS must be an integer: {raw!r}") from exc
    if n < 0:
        raise UsageError("VVRKBS_THREADS must be >= 0 (0 = auto)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``main`` looks up the handler."""
    p = _Parser(prog="vvrkbs", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("fit", help="fit a sparse measure model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("predict", help="evaluate a fitted model on inputs")
    sp.add_argument("--config", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("oracle", help="certify a grid fit by its duality gap")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)

    sp = sub.add_parser("hyper-fit", help="fit a two-level operator model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("deeponet", help="embed basis functions as a hyper model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _validate_threads_env()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (try --help)")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
