"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy: the teachers, the regularization levels and
the reference evaluators are computed without importing ``vvrkbs``, so the
output checks do not share code with the program they check.  Files are
written in the formats the README documents for each CLI command.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Sizes per workload.  "full" is what a benchmark run uses; "smoke" is a tiny
# instance of the same shape for the benchmark's own smoke test.  A solve_mix
# round runs one problem of each solve command.
SIZES = {
    "solve_mix": {
        "full": {
            "rounds": 100,
            "fit": {"n": 60, "restarts": 1, "teacher_atoms": 8, "tol": 0.05},
            "oracle": {"n": 50, "grid_per_dim": 5, "teacher_atoms": 5},
            "hyper-fit": {"n": 60, "j": 10, "grid_per_dim": 7, "teacher_atoms": 4},
        },
        "smoke": {
            "rounds": 2,
            "fit": {"n": 20, "restarts": 1, "teacher_atoms": 2, "tol": 0.05},
            "oracle": {"n": 20, "grid_per_dim": 3, "teacher_atoms": 2},
            "hyper-fit": {"n": 10, "j": 3, "grid_per_dim": 3, "teacher_atoms": 2},
        },
    },
    "serve": {
        "full": {"basis": 6, "basis_atoms": 12, "coeff_atoms": 6, "queries": 24,
                 "flat_atoms": 200, "predict_rows": 5000},
        "smoke": {"basis": 2, "basis_atoms": 3, "coeff_atoms": 2, "queries": 4,
                  "flat_atoms": 10, "predict_rows": 50},
    },
}

LAMBDA_FRACTION = 0.05   # lambda as a share of lambda_max
NOISE = 0.05             # noise std as a share of the clean target std
FLAT_RADIUS = 2.0        # weight ball of the flat (dx=2, dw=3) feature
FLAT_D = 3
HYPER_RADIUS = 2.0       # w and theta balls of the two-level features
HYPER_D = 2


def neural_tanh(dx: int, radius: float) -> dict:
    return {"kind": "neural", "activation": "tanh", "dx": dx,
            "radius": radius, "beta": "smooth_bump"}


# ------------------------------------------------------------ references

def ref_phi(X, W, radius):
    """tanh(<omega, x> + b) * max(0, 1 - |w|^2 / R^2)^2 on all pairs."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    pre = X @ W[:, :-1].T + W[:, -1][None, :]
    t = np.maximum(0.0, 1.0 - np.sum(W * W, axis=1) / (radius * radius))
    return np.tanh(pre) * (t * t)[None, :]


def ref_grid(radius: float, dim: int, per_dim: int) -> np.ndarray:
    """Cell centers of the per_dim^dim product grid kept inside the ball."""
    width = 2.0 * radius / per_dim
    axis = -radius + (np.arange(per_dim) + 0.5) * width
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)
    pts = pts.reshape(-1, dim)
    return pts[np.sqrt(np.sum(pts * pts, axis=1)) <= radius]


def ref_hyper_values(arrays, Z, X, phi_radius, psi_radius):
    """f(z)(x) = sum_m a_m phi(z, w_m) psi(x, theta_m) v_m for query pairs,
    plus the absolute term sum that bounds the summation error."""
    a, W, Th, V = arrays
    terms = a[None, :] * ref_phi(Z, W, phi_radius) * ref_phi(X, Th, psi_radius)
    return terms @ V, np.abs(terms) @ np.abs(V)


def _ball(rng, n, dim, radius):
    d = rng.standard_normal((n, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return d * r


# ----------------------------------------------------------------- writers

def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ----------------------------------------------------------- flat problems

def _flat_problem(rng, n, teacher_atoms):
    X = rng.uniform(-1.0, 1.0, (n, 2))
    Wt = _ball(rng, teacher_atoms, 3, 0.7 * FLAT_RADIUS)
    Ct = rng.standard_normal((teacher_atoms, FLAT_D))
    clean = ref_phi(X, Wt, FLAT_RADIUS) @ Ct
    Y = clean + NOISE * np.std(clean) * rng.standard_normal(clean.shape)
    return X, Y


def _flat_lambda(X, Y, cands):
    # group-mode l2 score of the zero measure: |sum_n phi(x_n, w) y_n| / N
    scores = np.linalg.norm(ref_phi(X, cands, FLAT_RADIUS).T @ Y, axis=1)
    return LAMBDA_FRACTION * float(np.max(scores)) / len(X)


# lambda_max of a free-search problem is estimated on this grid over the ball
LAMBDA_GRID = ref_grid(FLAT_RADIUS, 3, 9)


def gen_fit(root, seed, size, rounds):
    out = []
    for k in range(rounds):
        rng = np.random.default_rng([seed, k, 0])
        X, Y = _flat_problem(rng, size["n"], size["teacher_atoms"])
        lam = _flat_lambda(X, Y, LAMBDA_GRID)
        cfg = {
            "feature": neural_tanh(2, FLAT_RADIUS),
            "space": {"d": FLAT_D, "norm": "l2"},
            "solver": {"lambda": lam, "mode": "group", "max_atoms": 50,
                       "restarts": size["restarts"], "tol": size["tol"],
                       "seed": int(rng.integers(1 << 30))},
        }
        out.append(_write_problem(root, f"fit_{k}", cfg, X, Y, ["x0", "x1"]))
    return out


def gen_oracle(root, seed, size, rounds):
    g = size["grid_per_dim"]
    grid = ref_grid(FLAT_RADIUS, 3, g)
    out = []
    for k in range(rounds):
        rng = np.random.default_rng([seed, k, 1])
        X, Y = _flat_problem(rng, size["n"], size["teacher_atoms"])
        cfg = {
            "feature": neural_tanh(2, FLAT_RADIUS),
            "space": {"d": FLAT_D, "norm": "l2"},
            "solver": {"lambda": _flat_lambda(X, Y, grid), "mode": "group",
                       "max_atoms": 50, "restarts": 8, "tol": 1e-4,
                       "seed": int(rng.integers(1 << 30)),
                       "refit": {"max_iter": 5000, "tol": 1e-13},
                       "grid_per_dim": g},
            "oracle": {"grid_per_dim": g},
        }
        out.append(_write_problem(root, f"oracle_{k}", cfg, X, Y, ["x0", "x1"]))
    return out


def _write_problem(root, name, cfg, X, Y, xcols):
    cfg_path = os.path.join(root, f"config_{name}.json")
    data_path = os.path.join(root, f"data_{name}.csv")
    _write_json(cfg_path, cfg)
    header = xcols + [f"y{j}" for j in range(Y.shape[1])]
    _write_csv(data_path, header, np.hstack([X, Y]))
    return {"config": cfg_path, "data": data_path,
            "out": os.path.join(root, f"model_{name}.json")}


# ---------------------------------------------------------- hyper problems

def gen_hyper(root, seed, size, rounds):
    g = size["grid_per_dim"]
    grid = ref_grid(HYPER_RADIUS, 2, g)
    grid_json = [[float(v) for v in p] for p in grid]
    out = []
    for k in range(rounds):
        rng = np.random.default_rng([seed, k, 2])
        n, J, m = size["n"], size["j"], size["teacher_atoms"]
        Z = rng.uniform(-1.0, 1.0, (n, 1))
        Xj = np.linspace(-1.0, 1.0, J)[:, None]
        Vf = rng.standard_normal((J, HYPER_D))
        Vf /= np.linalg.norm(Vf, axis=1, keepdims=True)
        Wt = _ball(rng, m, 2, 0.7 * HYPER_RADIUS)
        Tt = _ball(rng, m, 2, 0.7 * HYPER_RADIUS)
        Ct = rng.standard_normal((m, HYPER_D))
        Phi = ref_phi(Z, Wt, HYPER_RADIUS)             # (n, m)
        Psi = ref_phi(Xj, Tt, HYPER_RADIUS)            # (J, m)
        clean = Phi @ (Psi.T * (Ct @ Vf.T))            # (n, J)
        Y = clean + NOISE * np.std(clean) * rng.standard_normal(clean.shape)
        # zero-measure score over the product grid: |sum_{n,j} y_nj phi psi v_j| / N
        R = ref_phi(Z, grid, HYPER_RADIUS).T @ Y       # (Gw, J)
        PsiG = ref_phi(Xj, grid, HYPER_RADIUS)         # (J, Gt)
        Q = np.einsum("gj,jt,jd->gtd", R, PsiG, Vf)
        lam = LAMBDA_FRACTION * float(np.max(np.linalg.norm(Q, axis=2))) / n
        cfg = {
            "phi": neural_tanh(1, HYPER_RADIUS),
            "psi": neural_tanh(1, HYPER_RADIUS),
            "space": {"d": HYPER_D, "norm": "l2"},
            "sampling": {"points": Xj.tolist(), "functionals": Vf.tolist()},
            "solver": {"lambda": lam, "mode": "group", "max_atoms": 50,
                       "restarts": 8, "tol": 1e-3,
                       "seed": int(rng.integers(1 << 30))},
            "grids": {"w": grid_json, "theta": grid_json},
        }
        out.append(_write_problem(root, f"hyper_{k}", cfg, Z, Y, ["x0"]))
    return out


# ------------------------------------------------------------------ serve

def gen_serve(root, seed, size):
    """DeepONet inputs, a flat model for ``predict``, its input rows and the
    query pairs; the hyper model itself is built by CLI ``deeponet``."""
    rng = np.random.default_rng([seed, 0])
    phi = neural_tanh(1, HYPER_RADIUS)
    psi = neural_tanh(1, HYPER_RADIUS)
    basis = []
    for _ in range(size["basis"]):
        th = _ball(rng, size["basis_atoms"], 2, HYPER_RADIUS * 0.9)
        c = rng.standard_normal((size["basis_atoms"], HYPER_D))
        basis.append({
            "atoms": [{"w": t.tolist(), "c": cc.tolist()} for t, cc in zip(th, c)],
            "norm": "l2", "radius": HYPER_RADIUS,
        })
    coeffs = []
    for _ in range(size["basis"]):
        ws = _ball(rng, size["coeff_atoms"], 2, HYPER_RADIUS * 0.9)
        a = rng.standard_normal(size["coeff_atoms"])
        coeffs.append([[float(ai), wi.tolist()] for ai, wi in zip(a, ws)])
    paths = {
        "deeponet_config": os.path.join(root, "deeponet_config.json"),
        "deeponet_data": os.path.join(root, "basis.json"),
        "hyper_model": os.path.join(root, "hyper_model.json"),
        "flat_config": os.path.join(root, "flat_config.json"),
        "flat_model": os.path.join(root, "flat_model.json"),
        "predict_data": os.path.join(root, "predict_inputs.csv"),
        "predict_out": os.path.join(root, "predictions.csv"),
    }
    _write_json(paths["deeponet_config"], {"phi": phi})
    _write_json(paths["deeponet_data"], {"psi": psi, "basis": basis, "coeffs": coeffs})

    # flat model in the documented fit-model format, network export included
    feat = neural_tanh(2, FLAT_RADIUS)
    W = _ball(rng, size["flat_atoms"], 3, FLAT_RADIUS * 0.9)
    C = rng.standard_normal((size["flat_atoms"], FLAT_D))
    t = np.maximum(0.0, 1.0 - np.sum(W * W, axis=1) / FLAT_RADIUS**2)
    U = (C * (t * t)[:, None]).T
    model = {
        "atoms": [{"w": w.tolist(), "c": c.tolist()} for w, c in zip(W, C)],
        "norm": "l2", "radius": FLAT_RADIUS, "dim": FLAT_D, "feature": feat,
        "network": {"U": U.tolist(), "W": W[:, :2].tolist(), "B": W[:, 2].tolist()},
    }
    _write_json(paths["flat_model"], model)
    _write_json(paths["flat_config"], {"feature": feat,
                                       "space": {"d": FLAT_D, "norm": "l2"}})
    Xp = rng.uniform(-1.0, 1.0, (size["predict_rows"], 2))
    _write_csv(paths["predict_data"], ["x0", "x1"], Xp)

    queries = {
        "z": rng.uniform(-1.0, 1.0, (size["queries"], 1)),
        "x": rng.uniform(-1.0, 1.0, (size["queries"], 1)),
    }
    return {"paths": paths, "queries": queries, "flat_arrays": (Xp, W, C)}


def gen_solve_mix(root, seed, size):
    """One problem per solve command per round: {command: [paths per round]}."""
    gens = {"fit": gen_fit, "oracle": gen_oracle, "hyper-fit": gen_hyper}
    return {cmd: gen(root, seed, size[cmd], size["rounds"]) for cmd, gen in gens.items()}


GENERATORS = {
    "solve_mix": gen_solve_mix,
    "serve": gen_serve,
}
