import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import readme_example
import vvrkbs
from vvrkbs import cli, solver
from vvrkbs.cli import main
from vvrkbs.dual_pair import DualPairSpec
from vvrkbs.feature import FeatureMap, phi_matrix
from vvrkbs.measure import (
    AtomicVectorMeasure,
    coalesce,
    measure_from_json_dict,
    measure_to_json_dict,
)
from vvrkbs.operator_learning import hyper_evaluate, hyper_model_from_json_dict
from vvrkbs.solver import (
    FitOptions,
    Problem,
    identity_measurement,
    lambda_max,
    lmo,
    product_grid,
    residual_duals,
)


def _base_config(**solver_overrides):
    solver = {
        "lambda": 0.08,
        "max_atoms": 10,
        "tol": 1e-4,
        "seed": 3,
        "refit": {"max_iter": 5000, "tol": 1e-13},
        "grid_per_dim": 5,
    }
    solver.update(solver_overrides)
    return {
        "feature": {
            "kind": "neural",
            "dx": 1,
            "radius": 1.5,
            "beta": "one",
            "activation": "tanh",
        },
        "space": {"d": 2, "norm": "l2"},
        "solver": solver,
    }


DATA_ROWS = ["x0,y0,y1", "0.1,0.9,-0.3", "-0.4,0.2,0.8", "0.7,-0.5,0.1"]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write_fixture(tmp_path, config=None):
    cfg = _write(tmp_path, "config.json", json.dumps(config or _base_config()))
    data = _write(tmp_path, "data.csv", "\n".join(DATA_ROWS) + "\n")
    return cfg, data


def test_fit_reduces_a_support_over_the_representer_bound(tmp_path, capsys, monkeypatch):
    # this free fit certifies 8 atoms, over the N*d_meas bound 6, which
    # exited 2 before the support was reduced to the bound
    reduced = []
    reduce_support = solver._reduce_support

    def counted(fam, L, C):
        reduced.append(len(L))
        return reduce_support(fam, L, C)

    monkeypatch.setattr(solver, "_reduce_support", counted)
    rng = np.random.default_rng(15)
    x, y = rng.uniform(-1, 1, (3, 1)), rng.standard_normal((3, 2))
    rows = ["x0,y0,y1"] + [",".join(map(repr, [*a, *b])) for a, b in zip(x.tolist(), y.tolist())]
    config = _base_config(**{"lambda": 0.01, "max_atoms": 8, "seed": 15})
    del config["solver"]["grid_per_dim"], config["solver"]["refit"], config["solver"]["tol"]
    cfg = _write(tmp_path, "config.json", json.dumps(config))
    data = _write(tmp_path, "data.csv", "\n".join(rows) + "\n")
    out = str(tmp_path / "model.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
    assert reduced and reduced[0] > 6
    assert 1 <= json.loads(capsys.readouterr().out)["atom_count"] <= 6


def test_ragged_csv_rows_are_reported_as_ragged(tmp_path, capsys):
    # a 2-cell row under a 3-column header used to be reported as a
    # non-numeric value (numpy's "inhomogeneous shape")
    cfg, _ = _write_fixture(tmp_path)
    data = _write(tmp_path, "ragged.csv", "\n".join(DATA_ROWS[:2] + ["0.4,0.5"]) + "\n")
    assert main(["fit", "--config", cfg, "--data", data, "--out", str(tmp_path / "m.json")]) == 2
    assert "has ragged rows" in capsys.readouterr().err
    with pytest.raises(cli.DataError, match="has ragged rows"):
        cli._read_dataset_inputs_only(_write(tmp_path, "short.csv", "y0,x0\n0.1,0.2\n0.3\n"), 1)


def _sweep_score(p, mu):
    # the best oracle score found at mu by an exact search of the
    # 21-per-dimension grid, one ascent from its best point and 16 ascents
    # from seeded random points of the ball
    eta = residual_duals(p, mu)
    grid = product_grid(p.feature.radius, p.feature.dw, 21)
    w, _, best = lmo(dataclasses.replace(p, omega_grid=grid), eta)
    value, direction = solver._oracle_score(p, eta)
    starts = [w, *solver._ball_points(np.random.default_rng(0), 16, p.feature.dw, p.feature.radius)]
    return max(best, *(solver._ascend(value, direction, (p.feature,), s)[2] for s in starts))


def test_a_free_fit_certifies_only_what_a_sweep_confirms(tmp_path, capsys):
    # Read with "restarts": 1, this fit ascended from one random start per
    # round and exited 0 while the sweep found an atom scoring 1.29 lam,
    # above lam (1 + tol).  The key is no longer read: the fit scores a
    # candidate set and polishes its best, and exits 0 only when the sweep
    # finds nothing above lam (1 + tol) either; otherwise it must exit 3.
    rng = np.random.default_rng(19)
    feat = FeatureMap("neural", dx=2, radius=2.0, activation="tanh")
    X = rng.uniform(-1.0, 1.0, (20, 2))
    Y = phi_matrix(feat, X, rng.uniform(-0.8, 0.8, (4, 3))) @ rng.standard_normal((4, 3))
    Y = Y + 0.05 * rng.standard_normal((20, 3))
    p = Problem(X, Y, identity_measurement(), 1.0, feat, DualPairSpec(3, "l2"),
                omega_grid=product_grid(2.0, 3, 9))
    p = dataclasses.replace(p, lam=0.05 * lambda_max(p), omega_grid=None)
    rows = ["x0,x1,y0,y1,y2"] + [",".join(map(repr, r)) for r in np.hstack([X, Y]).tolist()]
    data = _write(tmp_path, "data.csv", "\n".join(rows) + "\n")
    solver_section = {"lambda": p.lam, "restarts": 1, "tol": 0.05, "seed": 19}
    models, codes = [], []
    for name in ("with_restarts", "without"):
        config = {"feature": {"kind": "neural", "activation": "tanh", "dx": 2, "radius": 2.0},
                  "space": {"d": 3, "norm": "l2"}, "solver": solver_section}
        cfg = _write(tmp_path, f"{name}.json", json.dumps(config))
        out = tmp_path / f"{name}.model.json"
        codes.append(main(["fit", "--config", cfg, "--data", data, "--out", str(out)]))
        models.append(out.read_bytes())
        solver_section = {k: v for k, v in solver_section.items() if k != "restarts"}
    capsys.readouterr()
    score = _sweep_score(p, measure_from_json_dict(json.loads(models[0])))
    assert codes[0] == 3 or (codes[0] == 0 and score <= p.lam * 1.05)
    assert codes[0] == codes[1] and models[0] == models[1]


def test_fit_writes_model_and_report(tmp_path, capsys):
    cfg, data = _write_fixture(tmp_path)
    out = str(tmp_path / "model.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report.keys()) == [
        "objective", "atom_count", "certificate", "wall_time_ms", "seed",
        "config_digest",
    ]
    assert report["seed"] == 3
    assert len(report["config_digest"]) == 16
    model = json.loads((tmp_path / "model.json").read_text())
    assert list(model.keys()) == ["atoms", "norm", "radius", "dim", "feature", "network"]
    assert report["atom_count"] == len(model["atoms"]) >= 1
    assert (tmp_path / "model.json.report.json").exists()


def test_fit_reruns_are_byte_identical(tmp_path, capsys):
    cfg, data = _write_fixture(tmp_path)
    out1 = str(tmp_path / "m1.json")
    out2 = str(tmp_path / "m2.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", out1]) == 0
    r1 = json.loads(capsys.readouterr().out)
    assert main(["fit", "--config", cfg, "--data", data, "--out", out2]) == 0
    r2 = json.loads(capsys.readouterr().out)
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    assert r1["objective"] == r2["objective"]
    assert r1["atom_count"] == r2["atom_count"]


def test_fit_missing_csv_column_exits_2(tmp_path, capsys):
    cfg, _ = _write_fixture(tmp_path)
    bad = _write(tmp_path, "bad.csv", "x0,y1\n0.1,0.2\n")
    rc = main(["fit", "--config", cfg, "--data", bad,
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "y0" in capsys.readouterr().err


def _main_capped(argv):
    # the CLI in a child process capped at 2 GiB of address space, so an
    # allocation beyond it ends in MemoryError there instead of exhausting
    # the machine
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from vvrkbs.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(vvrkbs.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("section,key", [("feature", "dx"), ("space", "d")])
def test_fit_width_beyond_the_header_exits_2(tmp_path, section, key):
    # A declared width no header can hold must fail on the header, even
    # where a reader that builds one column name per declared column would
    # run out of memory.
    config = _base_config()
    config[section][key] = 10**400
    cfg, data = _write_fixture(tmp_path, config)
    proc = _main_capped(["fit", "--config", cfg, "--data", data,
                         "--out", str(tmp_path / "m.json")])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "missing column" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["fit", "oracle"])
def test_grid_beyond_memory_exits_2(tmp_path, command):
    # 2000 points per dimension of a 3-d weight ball: the product grid alone
    # needs about 60 GiB, which the 2 GiB cap refuses at once
    config = _base_config(grid_per_dim=2000)
    config["feature"]["dx"] = 2
    cfg = _write(tmp_path, "config.json", json.dumps(config))
    data = _write(tmp_path, "data.csv", "x0,x1,y0,y1\n0.1,0.2,0.9,-0.3\n-0.4,0.5,0.2,0.8\n")
    argv = [command, "--config", cfg, "--data", data]
    if command == "fit":
        argv += ["--out", str(tmp_path / "m.json")]
    proc = _main_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Unable to allocate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fit_above_lambda_max_writes_empty_atoms(tmp_path, capsys):
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l2")
    data = np.array([[float(v) for v in row.split(",")] for row in DATA_ROWS[1:]])
    grid = product_grid(feat.radius, feat.dw, 5)
    p = Problem(data[:, :1], data[:, 1:], identity_measurement(),
                1.0, feat, spec, omega_grid=grid)
    lam_max = lambda_max(p)
    cfg, csv_path = _write_fixture(tmp_path, _base_config(**{"lambda": 1.05 * lam_max}))
    out = str(tmp_path / "empty.json")
    assert main(["fit", "--config", cfg, "--data", csv_path, "--out", out]) == 0
    model = json.loads((tmp_path / "empty.json").read_text())
    assert model["atoms"] == []
    capsys.readouterr()


def test_fit_atom_budget_exhaustion_exits_3_with_model(tmp_path, capsys):
    cfg, data = _write_fixture(
        tmp_path, _base_config(**{"lambda": 0.002, "max_atoms": 1})
    )
    out = str(tmp_path / "partial.json")
    rc = main(["fit", "--config", cfg, "--data", data, "--out", out])
    assert rc == 3
    captured = capsys.readouterr()
    assert "convergence" in captured.err
    model = json.loads((tmp_path / "partial.json").read_text())
    assert len(model["atoms"]) == 1


def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch):
    assert main([]) == 1
    assert main(["fit"]) == 1  # missing required flags
    capsys.readouterr()
    monkeypatch.setenv("VVRKBS_THREADS", "many")
    assert main(["verify", "--trials", "1"]) == 1
    monkeypatch.setenv("VVRKBS_THREADS", "0")
    assert main(["verify", "--trials", "1"]) == 0
    capsys.readouterr()


def test_parser_is_built_once_and_parses_alike(capsys, monkeypatch):
    # main reuses one parser per process, and parsing leaves nothing behind
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    first = vars(parser.parse_args(["verify", "--trials", "5", "--seed", "2"]))
    assert [main([]), main(["fit"]), main(["verify", "--trials", "0"])] == [1, 1, 1]
    assert vars(parser.parse_args(["verify"])) == {
        "command": "verify", "trials": 200, "seed": 0}
    assert vars(parser.parse_args(["verify", "--trials", "5", "--seed", "2"])) == first
    assert built == []
    capsys.readouterr()


def test_main_calls_the_handler_bound_at_call_time(monkeypatch):
    # the parser is built once, but a rebound cmd_* handler takes effect
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.trials) or 7)
    monkeypatch.setattr(cli, "cmd_hyper_fit", lambda args: seen.append(args.config) or 8)
    assert main(["verify", "--trials", "3"]) == 7
    assert main(["hyper-fit", "--config", "c", "--data", "d", "--out", "o"]) == 8
    assert seen == [3, "c"]


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = _write(tmp_path, "broken.json", "{not json")
    data = _write(tmp_path, "d.csv", "\n".join(DATA_ROWS) + "\n")
    assert main(["fit", "--config", bad, "--data", data,
                 "--out", str(tmp_path / "m.json")]) == 2
    nolam = _base_config()
    del nolam["solver"]["lambda"]
    cfg = _write(tmp_path, "nolam.json", json.dumps(nolam))
    assert main(["fit", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "m.json")]) == 2
    capsys.readouterr()


def test_a_solver_section_of_lambda_alone_takes_the_fit_options_defaults():
    # the reader passes on only the keys a config holds, so the defaults
    # live in FitOptions alone
    assert cli._section({"solver": {"lambda": 0.1}}, "solver", "bad solver config") == (
        0.1, FitOptions(), None)


def test_verify_passes_and_reports_checks(capsys):
    assert main(["verify", "--trials", "10", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "reproducing_primal" in names
    assert "hyper_two_path" in names and "representer_bound" in names
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("corruption", ["1e-6", "nan", "inf"])
def test_verify_fault_injection_exits_4(capsys, monkeypatch, corruption):
    # a NaN error, which max() would drop, fails its check as an infinite one
    monkeypatch.setenv("VVRKBS_FAULT_INJECT", corruption)
    assert main(["verify", "--trials", "5"]) == 4
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert "reproducing" in captured.err
    if corruption != "1e-6":
        assert report["checks"][0]["max_error"] == math.inf


def test_verify_rejects_bad_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 1
    capsys.readouterr()


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--trials", "1", "--seed", "-1"]) == 1
    assert "--seed must be nonnegative" in capsys.readouterr().err


def test_oracle_reports_small_gap(tmp_path, capsys):
    cfg, data = _write_fixture(tmp_path)
    assert main(["oracle", "--config", cfg, "--data", data]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out.keys()) == ["fit_objective", "oracle_objective", "relative_gap"]
    assert out["relative_gap"] <= 1e-4


def test_oracle_huge_lambda_gap_zero(tmp_path, capsys):
    cfg, data = _write_fixture(tmp_path, _base_config(**{"lambda": 1e6}))
    assert main(["oracle", "--config", cfg, "--data", data]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fit_objective"] == out["oracle_objective"]
    assert out["relative_gap"] == 0.0


def test_oracle_empty_dataset_exits_2(tmp_path, capsys):
    cfg, _ = _write_fixture(tmp_path)
    empty = _write(tmp_path, "empty.csv", "x0,y0,y1\n")
    assert main(["oracle", "--config", cfg, "--data", empty]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("body", [b"0.1,\xff,0.2\n", b"1" * 200_000 + b",0,0\n"],
                         ids=["not_utf8", "field_over_csv_limit"])
def test_unreadable_csv_exits_2(tmp_path, capsys, command, body):
    cfg, data = _write_fixture(tmp_path)
    out = str(tmp_path / "model.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,y0,y1\n" + body)
    args = {"fit": ["fit", "--config", cfg],
            "predict": ["predict", "--config", cfg, "--model", out]}[command]
    capsys.readouterr()
    assert main(args + ["--data", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read dataset")


def test_predict_matches_library_evaluation(tmp_path, capsys):
    cfg, data = _write_fixture(tmp_path)
    out = str(tmp_path / "model.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
    preds_path = str(tmp_path / "preds.csv")
    assert main(["predict", "--config", cfg, "--model", out,
                 "--data", data, "--out", preds_path]) == 0
    capsys.readouterr()
    lines = (tmp_path / "preds.csv").read_text().strip().splitlines()
    assert lines[0] == "y0,y1"
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    model = json.loads((tmp_path / "model.json").read_text())
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    W = np.array([a["w"] for a in model["atoms"]])
    C = np.array([a["c"] for a in model["atoms"]])
    X = np.array([[0.1], [-0.4], [0.7]])
    expected = phi_matrix(feat, X, W) @ C
    assert got == pytest.approx(expected, abs=1e-12)


def test_a_model_of_several_rows_at_one_location_predicts_as_its_coalesced_model(tmp_path):
    # a model file may hold several payload rows at one location, one per
    # axis, as the l1 mode of earlier versions wrote them; it loads and
    # predicts what the model of one summed row per location does, up to
    # the order of the sums
    rng = np.random.default_rng(3)
    config = _base_config()
    config["space"]["norm"] = "l1"
    cfg = _write(tmp_path, "config.json", json.dumps(config))
    x = rng.uniform(-1.0, 1.0, 40).tolist()
    data = _write(tmp_path, "inputs.csv", "x0\n" + "".join(f"{v!r}\n" for v in x))
    W = np.repeat(rng.uniform(-1.0, 1.0, (8, 2)), 2, axis=0)
    C = np.zeros((16, 2))
    C[0::2, 0], C[1::2, 1] = rng.standard_normal(8), rng.standard_normal(8)
    mu = AtomicVectorMeasure(W, C, DualPairSpec(2, "l1"), 1.5)
    preds = {}
    for name, m in (("split", mu), ("coalesced", coalesce(mu))):
        model = dict(measure_to_json_dict(m), dim=2, feature=config["feature"])
        path = _write(tmp_path, f"{name}.json", json.dumps(model))
        out = tmp_path / f"{name}.csv"
        assert main(["predict", "--config", cfg, "--model", path, "--data", data,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        preds[name] = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert len(coalesce(mu)) == 8
    scale = np.abs(preds["coalesced"]).max()
    assert np.abs(preds["split"] - preds["coalesced"]).max() <= 1e-14 * scale


def _hyper_config():
    return {
        "phi": {"kind": "neural", "dx": 1, "radius": 1.5, "beta": "one",
                "activation": "tanh"},
        "psi": {"kind": "neural", "dx": 1, "radius": 1.2, "beta": "one",
                "activation": "sigmoid"},
        "space": {"d": 2, "norm": "l2"},
        "sampling": {"points": [[0.2], [-0.5]],
                     "functionals": [[1.0, 0.0], [0.5, -1.0]]},
        "solver": {"lambda": 0.05, "max_atoms": 10, "tol": 1e-5, "seed": 0,
                   "refit": {"max_iter": 5000, "tol": 1e-12}},
        "grids": {"w": [[0.5, 0.1], [-0.4, 0.3], [0.0, -0.6]],
                  "theta": [[0.2, -0.1], [-0.3, 0.4]]},
    }


def test_hyper_fit_writes_model(tmp_path, capsys):
    cfg = _write(tmp_path, "hcfg.json", json.dumps(_hyper_config()))
    data = _write(tmp_path, "hdata.csv", "\n".join(DATA_ROWS) + "\n")
    out = str(tmp_path / "hmodel.json")
    assert main(["hyper-fit", "--config", cfg, "--data", data, "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["atom_count"] >= 1
    model = json.loads((tmp_path / "hmodel.json").read_text())
    assert list(model.keys()) == ["atoms", "phi", "psi"]
    assert list(model["atoms"][0].keys()) == ["a", "w", "theta", "v"]


@pytest.mark.parametrize("given", ["w", "theta"])
def test_hyper_fit_with_one_grid_exits_2(tmp_path, capsys, given):
    # grid search needs both grids; one alone used to fall back to free search
    config = _hyper_config()
    config["grids"] = {given: config["grids"][given]}
    cfg = _write(tmp_path, "hcfg.json", json.dumps(config))
    data = _write(tmp_path, "hdata.csv", "\n".join(DATA_ROWS) + "\n")
    out = str(tmp_path / "hmodel.json")
    assert main(["hyper-fit", "--config", cfg, "--data", data, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "hmodel.json").exists()


@pytest.mark.parametrize("per_dim", [0, -1])
@pytest.mark.parametrize("command", ["fit", "oracle"])
def test_nonpositive_grid_per_dim_exits_2(tmp_path, capsys, command, per_dim):
    # fit and oracle read solver.grid_per_dim
    config = _base_config(grid_per_dim=per_dim)
    cfg, data = _write_fixture(tmp_path, config)
    args = [command, "--config", cfg, "--data", data]
    if command == "fit":
        args += ["--out", str(tmp_path / "model.json")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


DEEPONET_CONFIG = {"phi": {"kind": "gaussian", "dx": 2, "radius": 1.0, "beta": "one",
                           "bandwidth": 0.8}}


def _deeponet_payload():
    return {
        "psi": {"kind": "neural", "dx": 1, "radius": 1.5, "beta": "smooth_bump",
                "activation": "gaussian_rbf"},
        "basis": [
            {"atoms": [{"w": [0.1, 0.2], "c": [1.0, -0.5]},
                       {"w": [-0.3, 0.4], "c": [0.2, 0.7]}],
             "norm": "l1", "radius": 1.5},
        ],
        "coeffs": [[[0.8, [0.1, -0.2]], [-0.6, [0.4, 0.3]]]],
    }


def test_deeponet_embeds_and_round_trips(tmp_path, capsys):
    cfg = _write(tmp_path, "dcfg.json", json.dumps(DEEPONET_CONFIG))
    data = _write(tmp_path, "ddata.json", json.dumps(_deeponet_payload()))
    out = str(tmp_path / "dmodel.json")
    assert main(["deeponet", "--config", cfg, "--data", data, "--out", out]) == 0
    assert json.loads(capsys.readouterr().out) == {"atom_count": 4}
    model = hyper_model_from_json_dict(
        json.loads((tmp_path / "dmodel.json").read_text()), DualPairSpec(2, "l1")
    )
    val = hyper_evaluate(model, [0.1, -0.2], [0.3])
    assert np.all(np.isfinite(val))


def test_readme_example_runs_fit_oracle_and_predict(tmp_path, capsys):
    # README's example config on a small seeded dataset: each command exits 0
    # and prints one JSON object on one line
    config, data = readme_example.write(tmp_path)
    model = str(tmp_path / "model.json")
    for argv in (["fit", "--config", config, "--data", data, "--out", model],
                 ["oracle", "--config", config, "--data", data],
                 ["predict", "--config", config, "--model", model, "--data", data,
                  "--out", str(tmp_path / "preds.csv")]):
        assert main(argv) == 0, argv[0]
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)


@pytest.mark.parametrize("grids", [True, False])
def test_readme_hyper_example_runs_hyper_fit(tmp_path, capsys, grids):
    # README's hyper-fit config, with its grids section and without it, on a
    # small seeded dataset: each run exits 0 and prints one JSON object on one line
    config, data = readme_example.write_hyper(tmp_path)
    if not grids:
        cfg = json.loads(pathlib.Path(config).read_text())
        del cfg["grids"]
        pathlib.Path(config).write_text(json.dumps(cfg))
    assert main(["hyper-fit", "--config", config, "--data", data,
                 "--out", str(tmp_path / "hyper_model.json")]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["atom_count"] >= 1


def _bom_inputs(command):
    """The input files of a run of ``command`` that exits 0, by flag."""
    data = "\n".join(DATA_ROWS) + "\n"
    model = {"atoms": [{"w": [0.3, -0.2], "c": [1.0, 0.5]}], "norm": "l2", "radius": 1.5,
             "dim": 2}
    return {"fit": {"config": _base_config(), "data": data},
            "oracle": {"config": _base_config(), "data": data},
            "predict": {"config": _base_config(), "model": model, "data": data},
            "hyper-fit": {"config": _hyper_config(), "data": data},
            "deeponet": {"config": DEEPONET_CONFIG, "data": _deeponet_payload()}}[command]


@pytest.mark.parametrize("command", ["fit", "oracle", "predict", "hyper-fit", "deeponet"])
def test_byte_order_marked_inputs_read_as_without_the_mark(tmp_path, capsys, command):
    # a UTF-8 byte-order mark opening a CSV read as part of its first column
    # name ("missing column(s): x0"), and one opening a config, model or
    # DeepONet data file as invalid JSON; both exited 2.  Each file is marked
    # in turn; the config digest still hashes its raw bytes, mark included.
    inputs = _bom_inputs(command)
    runs = []
    for marked in (None, *inputs):
        where = tmp_path / f"{marked}-marked"
        where.mkdir()
        argv, files = [command], {}
        for flag, content in inputs.items():
            text = content if isinstance(content, str) else json.dumps(content)
            files[flag] = (b"\xef\xbb\xbf" if flag == marked else b"") + text.encode()
            (where / flag).write_bytes(files[flag])
            argv += [f"--{flag}", str(where / flag)]
        if command != "oracle":
            argv += ["--out", str(where / "out")]
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_ms", None)
        if "config_digest" in report:
            assert report.pop("config_digest") == hashlib.sha256(files["config"]).hexdigest()[:16]
        runs.append((code, report, (where / "out").read_bytes() if command != "oracle" else None))
    assert runs[0][0] == 0
    assert runs[1:] == [runs[0]] * len(inputs)


def _gaussian_feature(**keys):
    return {"kind": "gaussian", "dx": 1, "radius": 1.5, "beta": "one",
            "bandwidth": 0.8, **keys}


def _tabulated_feature(**keys):
    return {"kind": "tabulated", "dx": 1, "radius": 1.5, "beta": "one",
            "x_grid": [-1.0, 0.0, 1.0], "w_grid": [-1.5, 1.5],
            "values": [[0.0, 1.0], [1.0, 0.5], [0.2, 0.3]], **keys}


# (command, section holding the feature, feature record, fault named on stderr)
NON_FINITE_FEATURES = {
    "fit-radius-nan": ("fit", "feature", {**_base_config()["feature"], "radius": math.nan},
                       "radius must be finite"),
    "fit-radius-inf": ("fit", "feature", _gaussian_feature(radius=math.inf),
                       "radius must be finite"),
    "fit-bandwidth-nan": ("fit", "feature", _gaussian_feature(bandwidth=math.nan),
                          "bandwidth must be finite"),
    "fit-bandwidth-inf": ("fit", "feature", _gaussian_feature(bandwidth=math.inf),
                          "bandwidth must be finite"),
    "fit-x_grid-nan": ("fit", "feature", _tabulated_feature(x_grid=[-1.0, math.nan, 1.0]),
                       "x_grid must be finite"),
    "fit-w_grid-nan": ("fit", "feature", _tabulated_feature(w_grid=[math.nan, 1.5]),
                       "w_grid must be finite"),
    "fit-values-inf": ("fit", "feature",
                       _tabulated_feature(values=[[0.0, 1.0], [math.inf, 0.5], [0.2, 0.3]]),
                       "values must be finite"),
    "hyper-fit-phi-radius-nan": ("hyper-fit", "phi",
                                 {**_hyper_config()["phi"], "radius": math.nan},
                                 "radius must be finite"),
    "hyper-fit-psi-bandwidth-inf": ("hyper-fit", "psi", _gaussian_feature(bandwidth=math.inf),
                                    "bandwidth must be finite"),
    "deeponet-psi-radius-inf": ("deeponet", "psi",
                                {**_deeponet_payload()["psi"], "radius": math.inf},
                                "radius must be finite"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_FEATURES))
def test_non_finite_feature_parameters_exit_2(tmp_path, capsys, case):
    # the feature is rejected where the config is read, before any fit
    # work could fail on it later with a misleading message (or not at all)
    command, section, feature, fault = NON_FINITE_FEATURES[case]
    data = _write(tmp_path, "data.csv", "\n".join(DATA_ROWS) + "\n")
    out = str(tmp_path / "out.json")
    if command == "deeponet":  # psi sits in the data file
        payload = _deeponet_payload()
        payload[section] = feature
        cfg = _write(tmp_path, "cfg.json", json.dumps(DEEPONET_CONFIG))
        data = _write(tmp_path, "data.json", json.dumps(payload))
    else:
        # hyper-fit searches freely, so no grid width can be at fault
        config = _base_config() if command == "fit" else {**_hyper_config(), "grids": {}}
        config[section] = feature
        cfg = _write(tmp_path, "cfg.json", json.dumps(config))
    assert main([command, "--config", cfg, "--data", data, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fault in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def _flat_model():
    return {"atoms": [{"w": [0.3, -0.2], "c": [1.0, 0.5]}], "norm": "l2",
            "radius": 1.5, "dim": 2}


def _model_atom_not_object():
    model = _flat_model()
    model["atoms"] = [1]
    return "predict", model


def _model_dim_infinite():
    model = _flat_model()
    model["dim"] = math.inf
    return "predict", model


def _model_dim_fractional():
    model = _flat_model()
    model["dim"] = 2.5
    return "predict", model


def _model_location_too_short():
    model = _flat_model()
    model["atoms"][0]["w"] = [0.3]
    return "predict", model


def _model_radius_infinite():
    # an unbounded radius would switch off the ball check on this atom
    model = _flat_model()
    model["atoms"][0]["w"] = [30.0, 0.0]
    model["radius"] = math.inf
    return "predict", model


def _deeponet_psi_dx_infinite():
    payload = _deeponet_payload()
    payload["psi"]["dx"] = math.inf
    return "deeponet", payload


def _deeponet_psi_dx_fractional():
    payload = _deeponet_payload()
    payload["psi"]["dx"] = 1.5
    return "deeponet", payload


def _deeponet_basis_dim_infinite():
    payload = _deeponet_payload()
    payload["basis"][0]["dim"] = math.inf
    return "deeponet", payload


def _deeponet_basis_radius_nan():
    payload = _deeponet_payload()
    payload["basis"][0]["radius"] = math.nan
    return "deeponet", payload


def _deeponet_coefficient_overflows():
    payload = _deeponet_payload()
    payload["coeffs"][0][0][0] = 10**400  # no float holds it
    return "deeponet", payload


def _deeponet_coefficient_location_overflows():
    payload = _deeponet_payload()
    payload["coeffs"][0][1][1][0] = 10**400
    return "deeponet", payload


def _model_feature_not_object():
    model = _flat_model()
    model["feature"] = [1]
    return "predict", model


def _model_feature_radius_nan():
    model = _flat_model()
    model["feature"] = {**_base_config()["feature"], "radius": math.nan}
    return "predict", model


def _model_feature_bandwidth_overflows():
    model = _flat_model()
    model["feature"] = _gaussian_feature(bandwidth=10**400)
    return "predict", model


def _model_feature_bandwidth_list():
    model = _flat_model()
    model["feature"] = _gaussian_feature(bandwidth=[1.0])
    return "predict", model


@pytest.mark.parametrize(
    "case",
    [_model_atom_not_object, _model_dim_infinite, _model_dim_fractional,
     _model_location_too_short, _model_radius_infinite, _model_feature_not_object,
     _model_feature_radius_nan, _model_feature_bandwidth_overflows,
     _model_feature_bandwidth_list,
     _deeponet_psi_dx_infinite, _deeponet_psi_dx_fractional, _deeponet_basis_dim_infinite,
     _deeponet_basis_radius_nan, _deeponet_coefficient_overflows,
     _deeponet_coefficient_location_overflows],
)
def test_malformed_model_and_deeponet_files_exit_2(tmp_path, capsys, case):
    # json writes math.inf as Infinity, which the CLI's json reader accepts
    command, doc = case()
    bad = _write(tmp_path, "bad.json", json.dumps(doc))
    out = str(tmp_path / "out")
    if command == "predict":
        cfg, data = _write_fixture(tmp_path)
        args = ["predict", "--config", cfg, "--model", bad, "--data", data, "--out", out]
    else:
        cfg = _write(tmp_path, "dcfg.json", json.dumps(DEEPONET_CONFIG))
        args = ["deeponet", "--config", cfg, "--data", bad, "--out", out]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d", [10**42, 10**400], ids=["1e42", "1e400"])
def test_predict_empty_model_with_unallocatable_width_exits_2(tmp_path, capsys, d):
    # an empty model skips the model/config width check, so space.d alone
    # sizes the output
    cfg = _base_config()
    cfg["space"]["d"] = d
    cfg_path, data = _write_fixture(tmp_path, cfg)
    model = _write(tmp_path, "empty.json",
                   json.dumps({"atoms": [], "norm": "l2", "radius": 1.5}))
    out = tmp_path / "p.csv"
    assert main(["predict", "--config", cfg_path, "--model", model,
                 "--data", data, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_predict_empty_model_with_an_unholdable_width_exits_2(tmp_path):
    # space.d = 10**9 is indexable, but three rows of it need 24 GB; the CLI
    # runs in a child process capped at 2 GiB of address space, where the
    # output array cannot be allocated
    cfg = _base_config()
    cfg["space"]["d"] = 10**9
    cfg_path, data = _write_fixture(tmp_path, cfg)
    model = _write(tmp_path, "empty.json",
                   json.dumps({"atoms": [], "norm": "l2", "radius": 1.5}))
    out = tmp_path / "p.csv"
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from vvrkbs.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(vvrkbs.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "predict", "--config", cfg_path, "--model", model,
         "--data", data, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_predict_model_space_mismatch_exits_2(tmp_path, capsys):
    cfg, data = _write_fixture(tmp_path)
    out = str(tmp_path / "model.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
    other = _base_config()
    other["space"]["norm"] = "l1"
    cfg2 = _write(tmp_path, "other.json", json.dumps(other))
    rc = main(["predict", "--config", cfg2, "--model", out,
               "--data", data, "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    capsys.readouterr()


def test_predict_under_another_feature_exits_2(tmp_path, capsys):
    # a tanh model applied as a relu/hard one used to exit 0 with other
    # numbers; the model's feature record must match the config's
    cfg, data = _write_fixture(tmp_path)
    out = tmp_path / "model.json"
    assert main(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    other = _base_config()
    other["feature"].update(activation="relu", beta="hard")
    cfg2 = _write(tmp_path, "other.json", json.dumps(other))
    preds = tmp_path / "p.csv"
    args = ["--model", str(out), "--data", data, "--out", str(preds)]
    capsys.readouterr()
    assert main(["predict", "--config", cfg2, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model was fitted with another feature")
    assert "activation ('tanh' in the model, 'relu' in the config)" in err
    assert "beta ('one' in the model, 'hard' in the config)" in err
    assert "radius" not in err
    assert not preds.exists()
    # the same record written with other number spellings still matches
    model = json.loads(out.read_text())
    model["feature"]["radius"] = 3 / 2
    model["feature"]["dx"] = 1.0
    out.write_text(json.dumps(model))
    assert main(["predict", "--config", cfg, *args]) == 0
    # a model without the record is applied under the config's feature
    del model["feature"]
    out.write_text(json.dumps(model))
    assert main(["predict", "--config", cfg2, *args]) == 0
    capsys.readouterr()


def _bad_fit_config():
    cfg = _base_config()
    cfg["solver"]["refit"] = [1, 2]
    return "fit", cfg, "solver.refit must be an object"


def _nan_fit_lambda():
    return "fit", _base_config(**{"lambda": math.nan}), "solver.lambda must be finite"


def _bad_hyper_refit():
    cfg = _hyper_config()
    cfg["solver"]["refit"] = "x"
    return "hyper-fit", cfg, "solver.refit must be an object"


def _nan_hyper_refit_tol():
    cfg = _hyper_config()
    cfg["solver"]["refit"]["tol"] = math.nan
    return "hyper-fit", cfg, "solver.refit.tol must be finite"


def _nan_hyper_tol():
    cfg = _hyper_config()
    cfg["solver"]["tol"] = math.nan
    return "hyper-fit", cfg, "solver.tol must be finite"


def _inf_hyper_tol():
    cfg = _hyper_config()
    cfg["solver"]["tol"] = math.inf
    return "hyper-fit", cfg, "solver.tol must be finite"


def _bad_hyper_ragged_grid():
    cfg = _hyper_config()
    cfg["grids"]["w"] = [[0.5, 0.1], [-0.4]]
    return "hyper-fit", cfg, "bad hyper-fit config"


def _bad_hyper_grid_width():
    cfg = _hyper_config()
    cfg["grids"]["w"] = [[0.5, 0.1, 0.0]]
    return "hyper-fit", cfg, "grids.w must be a non-empty (n, 2) array"


def _nan_hyper_grid():
    cfg = _hyper_config()
    cfg["grids"]["theta"][1] = [math.nan, 0.4]
    return "hyper-fit", cfg, "grids.theta must be finite"


def _bad_hyper_grids_list():
    cfg = _hyper_config()
    cfg["grids"] = [1, 2]
    return "hyper-fit", cfg, "grids section must be an object"


def _nan_hyper_sampling_point():
    cfg = _hyper_config()
    cfg["sampling"]["points"][1] = [math.nan]
    return "hyper-fit", cfg, "sampling points must be finite"


def _nan_hyper_sampling_point_free_search():
    # without grids the search used to run first and fail on its gradient
    cfg = _hyper_config()
    del cfg["grids"]
    cfg["sampling"]["points"][0] = [math.nan]
    return "hyper-fit", cfg, "sampling points must be finite"


def _inf_hyper_functional():
    cfg = _hyper_config()
    cfg["sampling"]["functionals"][0][1] = -math.inf
    return "hyper-fit", cfg, "sampling functionals must be finite"


def _set(config, path, value):
    *sections, key = path.split(".")
    for section in sections:
        config = config[section]
    config[key] = value


def _integer_field(command, path, value):
    # int() used to truncate these (dx 1.9 ran a fit with dx 1, exit 0)
    def case():
        config = _hyper_config() if command == "hyper-fit" else _base_config()
        _set(config, path, value)
        return command, config, "must be an integer"
    case.id = f"{command}-{path}-{value}"
    return case


def _negative_seed(command, grid):
    # a grid fit used to run and report it; a free search failed in numpy
    def case():
        config = _hyper_config() if command == "hyper-fit" else _base_config()
        config["solver"]["seed"] = -5
        if not grid:
            config.pop("grids", None)
            config["solver"].pop("grid_per_dim", None)
        return command, config, "bad solver config: solver.seed must be >= 0"
    case.id = f"{command}-{'grid' if grid else 'free'}-seed-negative"
    return case


def _oracle_without_a_grid():
    # oracle read its grid from an oracle section, which is now ignored
    config = _base_config()
    del config["solver"]["grid_per_dim"]
    config["oracle"] = {"grid_per_dim": 5}
    return "oracle", config, "oracle runs need solver.grid_per_dim"


_SOLVER_INTEGERS = [("solver.max_atoms", 3.9), ("solver.refit.max_iter", 10.5),
                    ("solver.seed", 0.5)]
_FLAT_INTEGERS = [("feature.dx", 1.9), ("space.d", 1.7), ("solver.grid_per_dim", 4.5),
                  ("feature.dx", True), ("solver.max_atoms", True), *_SOLVER_INTEGERS]
INTEGER_FIELD_CASES = [
    *(_integer_field(c, path, v) for c in ("fit", "oracle") for path, v in _FLAT_INTEGERS),
    _oracle_without_a_grid,
    *(_integer_field("hyper-fit", path, v) for path, v in
      [("phi.dx", 1.9), ("psi.dx", 1.5), ("space.d", 1.7), ("space.d", False),
       *_SOLVER_INTEGERS]),
    *(_negative_seed(c, grid) for c in ("fit", "oracle", "hyper-fit") for grid in (True, False)
      if grid or c != "oracle"),
]


@pytest.mark.parametrize(
    "case",
    [_bad_fit_config, _nan_fit_lambda, _bad_hyper_refit, _nan_hyper_refit_tol,
     _nan_hyper_tol, _inf_hyper_tol, _bad_hyper_ragged_grid, _bad_hyper_grid_width,
     _nan_hyper_grid, _bad_hyper_grids_list, _nan_hyper_sampling_point,
     _nan_hyper_sampling_point_free_search, _inf_hyper_functional, *INTEGER_FIELD_CASES],
    ids=lambda case: getattr(case, "id", None),
)
def test_malformed_solver_and_grids_sections_exit_2(tmp_path, capsys, case):
    command, config, fault = case()
    cfg = _write(tmp_path, "bad.json", json.dumps(config))
    data = _write(tmp_path, "data.csv", "\n".join(DATA_ROWS) + "\n")
    out = str(tmp_path / "model.json")
    args = [command, "--config", cfg, "--data", data]
    if command != "oracle":
        args += ["--out", out]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fault in err
    assert "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


def test_no_vvrkbs_process_loads_scipy():
    # numpy is the only runtime dependency: importing every module and
    # running the verify suite leaves scipy (and its BLAS) unloaded
    code = (
        "import contextlib, importlib, io, pkgutil, sys\n"
        "import vvrkbs\n"
        "for info in pkgutil.iter_modules(vvrkbs.__path__):\n"
        "    importlib.import_module('vvrkbs.' + info.name)\n"
        "from vvrkbs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify', '--trials', '1'])\n"
        "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(vvrkbs.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
