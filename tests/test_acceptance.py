"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line (visible under pytest -s) and
enforces both the numeric tolerance and a wall-clock budget.
"""

import dataclasses
import json
import time

import numpy as np

from test_feature import _pairing_instance

from vvrkbs.cli import main as cli_main
from vvrkbs.dual_pair import (
    DualPairSpec,
    TwinOperator,
    conjugate,
    dual_witness,
    operator_norm_dual,
    operator_norm_primal,
    twin_norm,
)
from vvrkbs.feature import (
    FeatureMap,
    eval_phi,
    grad_phi_w_batch,
    phi_matrix,
    simple_approx_pairing,
)
from vvrkbs.measure import (
    coalesce,
    measure_from_arrays,
    product_pairing,
    total_variation,
)
from vvrkbs.operator_learning import (
    HyperModel,
    deeponet_embed,
    evaluate_function_form,
    evaluate_weight_form,
    function_form_tv_upper,
    weight_form_tv,
)
from vvrkbs.rkbs import (
    GaussianKernel,
    RkbsFunction,
    evaluate,
    rkhs_fit,
    rkhs_predict,
    rkhs_stationarity,
    verify_reproducing,
)
from vvrkbs.solver import (
    FitOptions,
    Problem,
    SolverState,
    export_network,
    fit,
    grid_oracle,
    lambda_max,
    network_apply,
    product_grid,
)

SMOOTH_ACTIVATIONS = ("tanh", "sigmoid", "gaussian_rbf")


def _report(num, name, detail, elapsed, budget):
    print(f"[acceptance {num:02d}] {name}: {detail}; {elapsed:.2f}s (budget {budget}s)")
    assert elapsed <= budget


# ----------------------------------------------------------- 1 reproducing

def _random_rkbs_instance(rng):
    dim = int(rng.integers(1, 5))
    norm = ["l1", "l2", "linf"][int(rng.integers(0, 3))]
    spec = DualPairSpec(dim, norm)
    dx = int(rng.integers(1, 4))
    if rng.uniform() < 0.3:
        feat = FeatureMap("gaussian", dx=dx, radius=1.5, bandwidth=0.9)
    else:
        feat = FeatureMap(
            "neural",
            dx=dx,
            radius=1.5,
            activation=SMOOTH_ACTIVATIONS[int(rng.integers(0, 3))],
            beta=["one", "smooth_bump"][int(rng.integers(0, 2))],
        )
    n_atoms = int(rng.integers(1, 11))
    W = rng.uniform(-0.5, 0.5, (n_atoms, feat.dw)) * feat.radius
    C = rng.standard_normal((n_atoms, dim))
    return feat, spec, measure_from_arrays(W, C, spec, feat.radius)


def test_acceptance_01_reproducing_identities():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        feat, spec, mu = _random_rkbs_instance(rng)
        f = RkbsFunction(mu, feat, spec)
        rep = verify_reproducing(f, trials=1, seed=int(rng.integers(0, 2**31)))
        worst = max(worst, rep.max_rel_error)
        xs = rng.uniform(-1.0, 1.0, (len(mu), feat.dx))
        rho = measure_from_arrays(xs, mu.C, conjugate(spec), 2.0)
        g = RkbsFunction(rho, feat, spec, adjoint=True)
        rep = verify_reproducing(g, trials=1, seed=int(rng.integers(0, 2**31)))
        worst = max(worst, rep.max_rel_error)
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    _report(1, "reproducing identities", f"max rel err {worst:.2e} over 1000 instances",
            elapsed, 10)


# ------------------------------------------------------------- 2 twin norm

def _normalize_rows(A, norm):
    if norm == "l1":
        scale = np.sum(np.abs(A), axis=1)
    elif norm == "l2":
        scale = np.sqrt(np.sum(A * A, axis=1))
    else:
        scale = np.max(np.abs(A), axis=1)
    scale[scale == 0.0] = 1.0
    return A / scale[:, None]


def _primal_maximizer(M, norm):
    if norm == "l1":
        j = int(np.argmax(np.sum(np.abs(M), axis=0)))
        u = np.zeros(M.shape[1])
        u[j] = 1.0
        return u
    if norm == "l2":
        _, _, vt = np.linalg.svd(M)
        return vt[0]
    i = int(np.argmax(np.sum(np.abs(M), axis=1)))
    return np.where(M[i] >= 0.0, 1.0, -1.0)


def test_acceptance_02_twin_norm():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    n_samples = 100_000
    worst_closed = 0.0
    worst_gap = 0.0
    for norm in ("l2", "l1", "linf"):
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            spec = DualPairSpec(dim, norm)
            M = rng.standard_normal((dim, dim))
            T = TwinOperator(M)
            tn = twin_norm(spec, T)
            worst_closed = max(
                worst_closed,
                abs(tn - operator_norm_primal(spec, T)),
                abs(tn - operator_norm_dual(spec, T)),
            )
            ud = _normalize_rows(rng.standard_normal((n_samples, dim)), spec.dual_norm)
            u = _normalize_rows(rng.standard_normal((n_samples, dim)), norm)
            sampled = float(np.max(np.abs(np.einsum("si,ij,sj->s", ud, M, u))))
            # include the analytic maximizer so attainability is deterministic
            u_star = _primal_maximizer(M, norm)
            sampled = max(sampled, float(dual_witness(spec, M @ u_star) @ (M @ u_star)))
            assert sampled <= tn + 1e-12
            worst_gap = max(worst_gap, tn - sampled)
    elapsed = time.monotonic() - start
    assert worst_closed <= 1e-10
    assert worst_gap <= 1e-2
    _report(2, "twin norm", f"closed err {worst_closed:.2e}, sample gap {worst_gap:.2e}",
            elapsed, 30)


# --------------------------------------------- 3 simple-function refinement

def test_acceptance_03_simple_function_approximation():
    start = time.monotonic()
    f, rho, mu = _pairing_instance()
    exact = product_pairing(rho, mu, f)
    errs = [abs(simple_approx_pairing(f, rho, mu, n) - exact) for n in (4, 8, 16, 32)]
    elapsed = time.monotonic() - start
    assert all(errs[i + 1] < errs[i] for i in range(3))
    assert errs[-1] <= 1e-3 * total_variation(rho) * total_variation(mu)
    _report(3, "simple-function pairing",
            "errors " + " > ".join(f"{e:.1e}" for e in errs), elapsed, 5)


# ------------------------------------------------------ 4/5/6 solver suite

_SUITE_CACHE = {}


def _suite():
    """Ten seeded grid-restricted regression instances (N <= 5, d <= 3)."""
    if "instances" in _SUITE_CACHE:
        return _SUITE_CACHE["instances"]
    instances = []
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        norm = "l1" if i % 2 == 0 else "l2"
        feat = FeatureMap(
            "neural", dx=1, radius=1.5, beta="one",
            activation="tanh" if i % 3 else "sigmoid",
        )
        spec = DualPairSpec(d, norm)
        grid = product_grid(feat.radius, feat.dw, 7)
        assert len(grid) <= 81
        X = rng.uniform(-1.0, 1.0, (n, 1))
        Y = rng.standard_normal((n, d))
        probe = Problem(X, Y, 1.0, feat, spec,
                        omega_grid=grid)
        lam_max = lambda_max(probe)
        p = dataclasses.replace(probe, lam=0.4 * lam_max)
        opts = FitOptions(max_atoms=25, tol=1e-5, refit_tol=1e-13, seed=7 + i)
        instances.append((p, opts, lam_max))
    _SUITE_CACHE["instances"] = instances
    return instances


def _suite_states():
    if "states" not in _SUITE_CACHE:
        _SUITE_CACHE["states"] = [fit(p, opts) for p, opts, _ in _suite()]
    return _SUITE_CACHE["states"]


def test_acceptance_04_sparsity_and_extremality():
    start = time.monotonic()
    states = _suite_states()
    axis_counts = []
    for (p, _, _), state in zip(_suite(), states):
        assert state.converged
        merged = coalesce(state.measure)
        bound = p.n_data * p.spec.dim
        assert len(merged) <= bound
        if p.spec.primal_norm == "l1":
            # under the l1 norm a row c is exactly the sum of the extreme-point
            # atoms c_i e_i, one per nonzero entry, at the same penalty
            atoms = int(np.count_nonzero(merged.C))
            assert atoms <= bound
            axis_counts.append(f"{atoms}/{bound}")
    elapsed = time.monotonic() - start
    _report(4, "representer sparsity",
            "l1-norm axis atoms / N*d " + " ".join(axis_counts), elapsed, 60)


def test_acceptance_05_oracle_equivalence():
    start = time.monotonic()
    states = _suite_states()
    worst = worst_dual = 0.0
    for (p, opts, _), state in zip(_suite(), states):
        # the grid optimum: the grid fit at tol 1e-9 with the whole grid as budget
        optimum, _, dual_gap = grid_oracle(
            p, FitOptions(max_atoms=len(p.omega_grid), tol=1e-9, refit_tol=1e-13))
        oracle_obj = optimum.objective_history[-1]
        gap = abs(state.objective_history[-1] - oracle_obj) / oracle_obj
        worst = max(worst, gap)
        worst_dual = max(worst_dual, dual_gap)
    elapsed = time.monotonic() - start
    assert worst <= 1e-4
    assert worst_dual <= 1e-7
    _report(5, "oracle equivalence",
            f"max relative gap {worst:.2e}, max oracle duality gap {worst_dual:.2e}",
            elapsed, 120)


def test_acceptance_06_zero_solution_threshold():
    start = time.monotonic()
    for p, opts, lam_max in _suite():
        above = fit(dataclasses.replace(p, lam=1.01 * lam_max),
                    dataclasses.replace(opts, tol=1e-3))
        assert above.converged
        assert len(above.measure) == 0
        below = fit(dataclasses.replace(p, lam=0.5 * lam_max),
                    dataclasses.replace(opts, tol=1e-3))
        assert len(below.measure) > 0
    elapsed = time.monotonic() - start
    _report(6, "zero-solution threshold", "10/10 instances on both sides",
            elapsed, 30)


# ------------------------------------------------------- 7 network export

def test_acceptance_07_network_export_identity():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    worst = 0.0
    # beta == one requires a bounded activation, so relu stays out of scope
    for activation in SMOOTH_ACTIVATIONS:
        for _ in range(3):
            feat = FeatureMap("neural", dx=2, radius=1.5, beta="one",
                              activation=activation)
            spec = DualPairSpec(3, "l2")
            k = int(rng.integers(1, 7))
            W = rng.uniform(-0.5, 0.5, (k, feat.dw)) * feat.radius
            C = rng.standard_normal((k, 3))
            mu = measure_from_arrays(W, C, spec, feat.radius)
            state = SolverState(mu, (0.0,), 0.0, 0, 0, feat, True)
            net = export_network(state)
            X = rng.uniform(-1.0, 1.0, (100, 2))
            direct = phi_matrix(feat, X, W) @ C
            via_net = network_apply(net, X)
            num = np.abs(via_net - direct)
            den = np.maximum(1.0, np.maximum(np.abs(via_net), np.abs(direct)))
            worst = max(worst, float(np.max(num / den)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    _report(7, "network export", f"max rel err {worst:.2e}", elapsed, 5)


# ------------------------------------------- 8 hyper two-path + domination

def _random_hyper_model(rng):
    dim = int(rng.integers(1, 4))
    spec = DualPairSpec(dim, ["l1", "l2", "linf"][int(rng.integers(0, 3))])
    phi = FeatureMap("neural", dx=int(rng.integers(1, 3)), radius=1.5,
                     activation=SMOOTH_ACTIVATIONS[int(rng.integers(0, 3))],
                     beta="one")
    psi = FeatureMap("neural", dx=1, radius=1.2,
                     activation=SMOOTH_ACTIVATIONS[int(rng.integers(0, 3))],
                     beta=["one", "smooth_bump"][int(rng.integers(0, 2))])
    a, W, Theta, V = [], [], [], []
    for k in range(int(rng.integers(1, 6))):
        W.append(W[0] if (k > 0 and rng.uniform() < 0.5) else (
            rng.uniform(-0.5, 0.5, phi.dw) * phi.radius
        ))
        Theta.append(Theta[0] if (k > 0 and rng.uniform() < 0.3) else (
            rng.uniform(-0.5, 0.5, psi.dw) * psi.radius
        ))
        a.append(rng.standard_normal())
        V.append(rng.standard_normal(dim))
    return HyperModel(a, W, Theta, V, phi, psi, spec)


def test_acceptance_08_hyper_two_path_and_domination():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    worst_path = 0.0
    worst_dom = 0.0
    for _ in range(500):
        m = _random_hyper_model(rng)
        z = rng.uniform(-0.8, 0.8, m.phi.dx)
        x = rng.uniform(-0.8, 0.8, m.psi.dx)
        wf = evaluate_weight_form(m, z, x)
        ff = evaluate_function_form(m, z, x)
        den = np.maximum(1.0, np.maximum(np.abs(wf), np.abs(ff)))
        worst_path = max(worst_path, float(np.max(np.abs(wf - ff) / den)))
        worst_dom = max(worst_dom, function_form_tv_upper(m) - weight_form_tv(m))
    elapsed = time.monotonic() - start
    assert worst_path <= 1e-12
    assert worst_dom <= 1e-12
    _report(8, "hyper two-path/domination",
            f"path err {worst_path:.2e}, domination excess {worst_dom:.2e}",
            elapsed, 20)


# ------------------------------------------------------ 9 deeponet embed

def test_acceptance_09_deeponet_embedding():
    start = time.monotonic()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        spec = DualPairSpec(dim, ["l1", "l2"][int(rng.integers(0, 2))])
        phi = FeatureMap("gaussian", dx=2, radius=1.0, bandwidth=0.9)
        psi = FeatureMap("neural", dx=1, radius=1.5,
                         activation=SMOOTH_ACTIVATIONS[int(rng.integers(0, 3))],
                         beta="one")
        basis, coeffs = [], []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 4))
            th = rng.uniform(-0.5, 0.5, (k, psi.dw)) * psi.radius
            C = rng.standard_normal((k, dim))
            basis.append(RkbsFunction(measure_from_arrays(th, C, spec, psi.radius),
                                      psi, spec))
            coeffs.append([
                (float(rng.standard_normal()), rng.uniform(-0.5, 0.5, 2))
                for _ in range(int(rng.integers(1, 3)))
            ])
        model = deeponet_embed(basis, coeffs, phi)
        for _ in range(50):
            z = rng.uniform(-0.7, 0.7, 2)
            x = rng.uniform(-1.0, 1.0, 1)
            direct = np.zeros(dim)
            for zeta, pairs in zip(basis, coeffs):
                a_z = sum(a * eval_phi(phi, z, w) for a, w in pairs)
                direct += a_z * evaluate(zeta, x)
            got = evaluate_weight_form(model, z, x)
            den = np.maximum(1.0, np.maximum(np.abs(got), np.abs(direct)))
            worst = max(worst, float(np.max(np.abs(got - direct) / den)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    _report(9, "deeponet embedding", f"max rel err {worst:.2e}", elapsed, 10)


# ------------------------------------------------------- 10 rkhs baseline

def test_acceptance_10_rkhs_baseline():
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    worst_interp = 0.0
    worst_stat = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 21))
        d = int(rng.integers(1, 4))
        X = rng.uniform(-1.0, 1.0, (n, 2))
        while np.min(
            np.linalg.norm(X[:, None] - X[None, :], axis=-1)
            + np.eye(n) * 10
        ) < 1e-3:
            X = rng.uniform(-1.0, 1.0, (n, 2))
        Y = rng.standard_normal((n, d))
        kernel = GaussianKernel(bandwidth=0.7)
        interp = rkhs_fit(X, Y, kernel, lam=0.0)
        worst_interp = max(
            worst_interp, float(np.max(np.abs(rkhs_predict(interp, X) - Y)))
        )
        ridge = rkhs_fit(X, Y, kernel, lam=0.05)
        worst_stat = max(worst_stat, rkhs_stationarity(ridge, Y, 0.05))
    elapsed = time.monotonic() - start
    assert worst_interp <= 1e-6
    assert worst_stat <= 1e-9
    _report(10, "rkhs baseline",
            f"interp resid {worst_interp:.2e}, stationarity {worst_stat:.2e}",
            elapsed, 5)


# ------------------------------------------------------- 11 gradient check

def test_acceptance_11_feature_gradient():
    start = time.monotonic()
    rng = np.random.default_rng(1111)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        if rng.uniform() < 0.25:
            feat = FeatureMap("gaussian", dx=int(rng.integers(1, 4)), radius=1.5,
                              bandwidth=0.8)
        else:
            feat = FeatureMap(
                "neural", dx=int(rng.integers(1, 4)), radius=1.5,
                activation=SMOOTH_ACTIVATIONS[int(rng.integers(0, 3))],
                beta=["one", "smooth_bump"][int(rng.integers(0, 2))],
            )
        x = rng.uniform(-1.0, 1.0, (1, feat.dx))
        w = rng.uniform(-0.5, 0.5, feat.dw) * feat.radius
        g = grad_phi_w_batch(feat, x, w)[0]
        for k in range(feat.dw):
            e = np.zeros(feat.dw)
            e[k] = h
            fd = (eval_phi(feat, x[0], w + e) - eval_phi(feat, x[0], w - e)) / (2 * h)
            worst = max(worst, abs(g[k] - fd))
    elapsed = time.monotonic() - start
    assert worst <= 1e-4
    _report(11, "feature gradient", f"max abs err {worst:.2e}", elapsed, 5)


# -------------------------------------------------------- 12 determinism

def test_acceptance_12_cli_determinism(tmp_path, capsys):
    start = time.monotonic()
    config = {
        "feature": {"kind": "neural", "dx": 1, "radius": 1.5, "beta": "one",
                    "activation": "tanh"},
        "space": {"d": 2, "norm": "l2"},
        "solver": {"lambda": 0.05, "mode": "group", "max_atoms": 10,
                   "tol": 1e-4, "seed": 11,
                   "refit": {"max_iter": 5000, "tol": 1e-13},
                   "grid_per_dim": 5},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    data = tmp_path / "data.csv"
    data.write_text("x0,y0,y1\n0.1,0.9,-0.3\n-0.4,0.2,0.8\n0.7,-0.5,0.1\n")
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert cli_main(["fit", "--config", str(cfg), "--data", str(data),
                     "--out", str(out1)]) == 0
    assert cli_main(["fit", "--config", str(cfg), "--data", str(data),
                     "--out", str(out2)]) == 0
    capsys.readouterr()
    elapsed = time.monotonic() - start
    assert out1.read_bytes() == out2.read_bytes()
    with capsys.disabled():
        _report(12, "cli determinism", "model files byte-identical", elapsed, 10)
