"""Batch front door: fit, predict, verify, oracle, hyper-fit, deeponet.

stdout carries machine-readable JSON only (newline-terminated, fixed key
order); diagnostics go to stderr.  Exit codes: 0 success, 1 usage, 2 bad
data or config, 3 fit finished without certificate convergence (the
model file is still written), 4 verification failure.

Config JSON for ``fit`` / ``oracle`` / ``predict``::

    {"feature": {...}, "space": {"d": 2, "norm": "l2"},
     "solver": {"lambda": 0.1, "mode": "group", "max_atoms": 50,
                "restarts": 32, "tol": 1e-3, "seed": 0,
                "refit": {"max_iter": 5000, "tol": 1e-8}},
     "oracle": {"grid_per_dim": 5}}

``hyper-fit`` replaces "feature" with "phi" and "psi" and adds a
"sampling" section ({"points": [[...]], "functionals": [[...]]}) plus an
optional "grids" section ({"w": [[...]], "theta": [[...]]}).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from .dual_pair import DualPairSpec
from .feature import (
    FeatureMap,
    feature_from_json_dict,
    feature_to_json_dict,
    phi_matrix,
)
from .measure import measure_from_json_dict, measure_to_json_dict
from .operator_learning import (
    SampledMeasurement,
    deeponet_embed,
    hyper_fit,
    hyper_model_to_json_dict,
)
from .rkbs import RkbsFunction
from .solver import (
    FitOptions,
    Loss,
    Problem,
    SolverError,
    export_network,
    fit,
    grid_oracle,
    identity_measurement,
    network_to_json_dict,
    product_grid,
)
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
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must hold a JSON object")
    return raw, cfg


def _config_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _feature_space(cfg: dict):
    try:
        feat = feature_from_json_dict(cfg["feature"])
        space = cfg["space"]
        spec = DualPairSpec(int(space["d"]), str(space["norm"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad feature/space config: {exc}") from exc
    return feat, spec


def _solver_section(cfg: dict):
    s = cfg.get("solver", {})
    if not isinstance(s, dict):
        raise DataError("config solver section must be an object")
    if "lambda" not in s:
        raise DataError("config is missing solver.lambda")
    refit = s.get("refit", {})
    if not isinstance(refit, dict):
        raise DataError("config solver.refit must be an object")
    try:
        lam = float(s["lambda"])
        opts = FitOptions(
            max_atoms=int(s.get("max_atoms", 50)),
            mode=str(s.get("mode", "group")),
            restarts=int(s.get("restarts", 32)),
            tol=float(s.get("tol", 1e-3)),
            refit_max_iter=int(refit.get("max_iter", 5000)),
            refit_tol=float(refit.get("tol", 1e-8)),
            seed=int(s.get("seed", 0)),
        )
        grid_per_dim = s.get("grid_per_dim")
        grid_per_dim = None if grid_per_dim is None else int(grid_per_dim)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad solver config: {exc}") from exc
    return lam, opts, grid_per_dim


def _read_dataset(path: str, dx: int, d_meas: int):
    """CSV with header x0..x{dx-1},y0..y{dmeas-1}; every value finite."""
    expected = [f"x{i}" for i in range(dx)] + [f"y{j}" for j in range(d_meas)]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not rows:
        raise DataError(f"dataset {path} is empty")
    header = [h.strip() for h in rows[0]]
    missing = [c for c in expected if c not in header]
    if missing:
        raise DataError(
            f"dataset {path} is missing column(s): {', '.join(missing)}"
        )
    if header != expected:
        raise DataError(
            f"dataset {path} header must be exactly {','.join(expected)}"
        )
    body = rows[1:]
    if not body:
        raise DataError(f"dataset {path} has a header but no rows")
    try:
        data = np.array([[float(v) for v in r] for r in body])
    except ValueError as exc:
        raise DataError(f"non-numeric value in {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(expected):
        raise DataError(f"dataset {path} has ragged rows")
    if not np.all(np.isfinite(data)):
        raise DataError(f"dataset {path} contains non-finite values")
    return data[:, :dx], data[:, dx:]


def _emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")


def _write_json_file(path: str, obj: dict):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(obj) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _run_report(objective, atom_count, certificate, wall_ms, seed, digest):
    return {
        "objective": float(objective),
        "atom_count": int(atom_count),
        "certificate": float(certificate),
        "wall_time_ms": int(wall_ms),
        "seed": int(seed),
        "config_digest": digest,
    }


def _finish_fit(args, raw: bytes, seed: int, state, model: dict, atom_count: int,
                wall_ms) -> int:
    """Write the model and its run report, emit the report, pick the exit code."""
    _write_json_file(args.out, model)
    report = _run_report(
        state.objective_history[-1],
        atom_count,
        state.certificate,
        wall_ms,
        seed,
        _config_digest(raw),
    )
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

def cmd_fit(args) -> int:
    raw, cfg = _read_config(args.config)
    feat, spec = _feature_space(cfg)
    lam, opts, grid_per_dim = _solver_section(cfg)
    X, Y = _read_dataset(args.data, feat.dx, spec.dim)
    omega = None
    if grid_per_dim is not None:
        omega = product_grid(feat.radius, feat.dw, grid_per_dim)
    try:
        problem = Problem(
            X, Y, Loss(), identity_measurement(), lam, feat, spec, omega_grid=omega
        )
        start = time.monotonic()
        state = fit(problem, opts)
    except (ValueError, SolverError) as exc:
        raise DataError(f"fit failed: {exc}") from exc
    wall_ms = round((time.monotonic() - start) * 1000)
    model = _model_json_dict(state, spec, feat)
    return _finish_fit(args, raw, opts.seed, state, model, len(state.measure.atoms), wall_ms)


def cmd_predict(args) -> int:
    _, cfg = _read_config(args.config)
    feat, spec = _feature_space(cfg)
    try:
        with open(args.model, "rb") as fh:
            model = json.loads(fh.read().decode("utf-8"))
        mu = measure_from_json_dict(model)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load model {args.model}: {exc}") from exc
    if mu.space.primal_norm != spec.primal_norm or (
        mu.atoms and mu.space.dim != spec.dim
    ):
        raise DataError("model space does not match the config space")
    X, _ = _read_dataset_inputs_only(args.data, feat.dx)
    if mu.atoms:
        preds = phi_matrix(feat, X, mu.locations()) @ mu.payloads()
    else:
        preds = np.zeros((len(X), spec.dim))
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
    expected = [f"x{i}" for i in range(dx)]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not rows:
        raise DataError(f"dataset {path} is empty")
    header = [h.strip() for h in rows[0]]
    missing = [c for c in expected if c not in header]
    if missing:
        raise DataError(
            f"dataset {path} is missing column(s): {', '.join(missing)}"
        )
    cols = [header.index(c) for c in expected]
    body = rows[1:]
    if not body:
        raise DataError(f"dataset {path} has a header but no rows")
    try:
        data = np.array([[float(r[c]) for c in cols] for r in body])
    except (ValueError, IndexError) as exc:
        raise DataError(f"bad row in {path}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise DataError(f"dataset {path} contains non-finite values")
    return data, None


def cmd_oracle(args) -> int:
    _, cfg = _read_config(args.config)
    feat, spec = _feature_space(cfg)
    lam, opts, _ = _solver_section(cfg)
    try:
        grid_per_dim = int(cfg["oracle"]["grid_per_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"oracle runs need oracle.grid_per_dim: {exc}") from exc
    X, Y = _read_dataset(args.data, feat.dx, spec.dim)
    omega = product_grid(feat.radius, feat.dw, grid_per_dim)
    try:
        problem = Problem(
            X, Y, Loss(), identity_measurement(), lam, feat, spec, omega_grid=omega
        )
        state = fit(problem, opts)
        oracle_obj, _ = grid_oracle(problem, grid_per_dim)
    except (ValueError, SolverError) as exc:
        raise DataError(f"oracle run failed: {exc}") from exc
    fit_obj = state.objective_history[-1]
    gap = 0.0 if fit_obj == oracle_obj else abs(fit_obj - oracle_obj) / abs(oracle_obj)
    _emit(
        {
            "fit_objective": float(fit_obj),
            "oracle_objective": float(oracle_obj),
            "relative_gap": float(gap),
        }
    )
    if not state.converged:
        print("fit stopped before certificate convergence", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_hyper_fit(args) -> int:
    raw, cfg = _read_config(args.config)
    try:
        phi = feature_from_json_dict(cfg["phi"])
        psi = feature_from_json_dict(cfg["psi"])
        space = cfg["space"]
        spec = DualPairSpec(int(space["d"]), str(space["norm"]))
        sampling = SampledMeasurement(
            np.array(cfg["sampling"]["points"], dtype=float),
            np.array(cfg["sampling"]["functionals"], dtype=float),
        )
        grids = cfg.get("grids", {})
        if not isinstance(grids, dict):
            raise DataError("config grids section must be an object")
        w_grid = np.array(grids["w"], dtype=float) if "w" in grids else None
        theta_grid = np.array(grids["theta"], dtype=float) if "theta" in grids else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad hyper-fit config: {exc}") from exc
    lam, opts, _ = _solver_section(cfg)
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
    return _finish_fit(args, raw, opts.seed, state, model, len(state.model.atoms), wall_ms)


def cmd_deeponet(args) -> int:
    _, cfg = _read_config(args.config)
    try:
        phi = feature_from_json_dict(cfg["phi"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad deeponet config: {exc}") from exc
    try:
        with open(args.data, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8"))
        psi = feature_from_json_dict(payload["psi"])
        basis = []
        for entry in payload["basis"]:
            mu = measure_from_json_dict(entry)
            basis.append(RkbsFunction(mu, psi, mu.space))
        coeffs = [
            [(float(a), np.array(w, dtype=float)) for a, w in pairs]
            for pairs in payload["coeffs"]
        ]
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load deeponet data {args.data}: {exc}") from exc
    try:
        model = deeponet_embed(basis, coeffs, phi)
    except ValueError as exc:
        raise DataError(f"deeponet embedding failed: {exc}") from exc
    _write_json_file(args.out, hyper_model_to_json_dict(model))
    _emit({"atom_count": len(model.atoms)})
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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="vvrkbs", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("fit", help="fit a sparse measure model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("predict", help="evaluate a fitted model on inputs")
    sp.add_argument("--config", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="compare fit against the grid oracle")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("hyper-fit", help="fit a two-level operator model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_hyper_fit)

    sp = sub.add_parser("deeponet", help="embed basis functions as a hyper model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_deeponet)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _validate_threads_env()
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required (try --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
