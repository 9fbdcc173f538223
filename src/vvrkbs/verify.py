"""Seeded invariant suite behind the ``verify`` subcommand.

Each check draws random instances, exercises one contract of a module,
and reports its worst error together with the tolerance it must meet.
``corruption`` perturbs the reproducing-identity checks so a negative
control can watch the suite fail.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dual_pair import (
    DualPairSpec,
    TwinOperator,
    conjugate,
    operator_norm_dual,
    operator_norm_primal,
    twin_norm,
    vector_norm,
)
from .feature import (
    _BOUNDED_ACTIVATIONS,
    ACTIVATIONS,
    BETAS,
    FeatureMap,
    eval_phi,
    grad_phi_w_batch,
)
from .measure import coalesce, integrate, measure_from_arrays, total_variation
from .operator_learning import (
    HyperModel,
    evaluate_function_form,
    evaluate_weight_form,
    function_form_tv_upper,
    weight_form_tv,
)
from .rkbs import REPRODUCING_TOL, RkbsFunction, _worst, verify_reproducing
from .solver import FitOptions, Problem, fit, grid_oracle, lambda_max, product_grid


def _random_instance(rng):
    dim = int(rng.integers(1, 5))
    norm = ["l1", "l2", "linf"][int(rng.integers(0, 3))]
    spec = DualPairSpec(dim, norm)
    dx = int(rng.integers(1, 4))
    feat = FeatureMap(
        "neural",
        dx=dx,
        radius=1.5,
        activation=["tanh", "sigmoid", "gaussian_rbf"][int(rng.integers(0, 3))],
        beta=["one", "smooth_bump"][int(rng.integers(0, 2))],
    )
    n_atoms = int(rng.integers(1, 11))
    W = rng.uniform(-0.5, 0.5, (n_atoms, feat.dw)) * feat.radius
    C = rng.standard_normal((n_atoms, dim))
    mu = measure_from_arrays(W, C, spec, feat.radius)
    return feat, spec, mu


def _check_reproducing(rng, trials, corruption, adjoint):
    worst = 0.0
    for _ in range(max(1, trials // 5)):
        feat, spec, mu = _random_instance(rng)
        if adjoint:
            xs = rng.uniform(-1.0, 1.0, (len(mu), feat.dx))
            rho = measure_from_arrays(xs, mu.C, conjugate(spec), 2.0)
            fn = RkbsFunction(rho, feat, spec, adjoint=True)
        else:
            fn = RkbsFunction(mu, feat, spec)
        report = verify_reproducing(
            fn, trials=5, seed=int(rng.integers(0, 2**31)), corruption=corruption
        )
        worst = _worst(worst, report.max_rel_error)
    return worst


def _check_twin_norm(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials)):
        norm = ["l1", "l2", "linf"][int(rng.integers(0, 3))]
        dim = int(rng.integers(1, 7))
        spec = DualPairSpec(dim, norm)
        T = TwinOperator(rng.standard_normal((dim, dim)))
        tn = twin_norm(spec, T)
        err = _worst(
            abs(tn - operator_norm_primal(spec, T)),
            abs(tn - operator_norm_dual(spec, T)),
        ) / max(1.0, tn)
        worst = _worst(worst, err)
    return worst


# every (kind, activation, beta) a FeatureMap accepts
_FEATURE_CASES = [
    ("neural", act, beta) for act in ACTIVATIONS for beta in BETAS
    if beta != "one" or act in _BOUNDED_ACTIVATIONS
] + [(kind, None, beta) for kind in ("gaussian", "tabulated") for beta in BETAS]


def _random_feature(rng):
    """A feature of a random (kind, activation, beta) with weight ball radius 1.5."""
    kind, act, beta = _FEATURE_CASES[int(rng.integers(len(_FEATURE_CASES)))]
    if kind == "tabulated":
        return FeatureMap(kind, dx=1, radius=1.5, beta=beta,
                          x_grid=np.linspace(-1.0, 1.0, 5),
                          w_grid=np.linspace(-1.2, 1.2, 7),
                          values=rng.standard_normal((5, 7)))
    return FeatureMap(kind, dx=int(rng.integers(1, 4)), radius=1.5, beta=beta,
                      activation=act, bandwidth=float(rng.uniform(0.5, 1.5)))


def _check_feature_gradient(rng, trials):
    worst = 0.0
    h = 1e-6
    for _ in range(max(1, trials)):
        feat = _random_feature(rng)
        # w strictly inside the ball (|w| <= 1 < 1.5) and at least 0.05 inside
        # a table cell (nodes at -1.2 + 0.4 k); x off the relu kink
        if feat.kind == "tabulated":
            w = 0.4 * rng.integers(-3, 3, 1) + rng.uniform(0.05, 0.35, 1)
        else:
            w = rng.uniform(-0.5, 0.5, feat.dw)
        x = rng.uniform(-1.0, 1.0, (1, feat.dx))
        while feat.activation == "relu" and abs(x[0] @ w[:-1] + w[-1]) <= 1e-3:
            x = rng.uniform(-1.0, 1.0, (1, feat.dx))
        g = grad_phi_w_batch(feat, x, w)[0]
        for k in range(feat.dw):
            e = np.zeros(feat.dw)
            e[k] = h
            fd = (eval_phi(feat, x[0], w + e) - eval_phi(feat, x[0], w - e)) / (2 * h)
            worst = _worst(worst, abs(g[k] - fd))
    return worst


def _check_point_eval_bound(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials // 4)):
        feat, spec, mu = _random_instance(rng)
        mc = coalesce(mu)
        if not len(mc):
            continue
        x = rng.uniform(-1.0, 1.0, feat.dx)
        val = vector_norm(integrate(feat, mc, x), spec.primal_norm)
        sup = max(abs(eval_phi(feat, x, w)) for w in mc.W)
        bound = sup * total_variation(mc)
        worst = _worst(worst, (val - bound) / max(1.0, bound))
    return worst


def _check_measure_linearity(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials // 4)):
        feat, spec, mu1 = _random_instance(rng)
        W2 = rng.uniform(-0.5, 0.5, (2, feat.dw)) * feat.radius
        mu2 = measure_from_arrays(W2, rng.standard_normal((2, spec.dim)), spec,
                                  feat.radius)
        alpha = float(rng.standard_normal())
        x = rng.uniform(-1.0, 1.0, feat.dx)
        combined = measure_from_arrays(
            np.vstack([mu1.W, mu2.W]),
            np.vstack([alpha * mu1.C, mu2.C]),
            spec,
            feat.radius,
        )
        lhs = integrate(feat, combined, x)
        rhs = alpha * integrate(feat, mu1, x) + integrate(feat, mu2, x)
        num = float(np.max(np.abs(lhs - rhs)))
        den = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        worst = _worst(worst, num / den)
    return worst


def _check_solver_threshold():
    # single-cell grid: the group refit solves min 0.5(phi c - y)^2 + lam|c|
    feat = FeatureMap("neural", dx=1, radius=1.0, activation="tanh", beta="one")
    spec = DualPairSpec(1, "l2")
    X = np.array([[0.5]])
    Y = np.array([[1.2]])
    w = np.array([[0.4, 0.1]])
    lam = 0.2
    p = Problem(X, Y, lam, feat, spec, omega_grid=w)
    state = fit(p, FitOptions(max_atoms=2, tol=1e-6, refit_tol=1e-14))
    phi = eval_phi(feat, X[0], w[0])
    expected = (phi * Y[0, 0] - lam) / (phi * phi)
    got = float(state.measure.C[0, 0]) if len(state.measure) else 0.0
    return abs(got - expected) / max(1.0, abs(expected))


def _check_hyper(rng, trials):
    two_path = 0.0
    domination = 0.0
    for _ in range(max(1, trials // 6)):
        dim = int(rng.integers(1, 4))
        spec = DualPairSpec(dim, ["l1", "l2", "linf"][int(rng.integers(0, 3))])
        phi = FeatureMap("neural", dx=1, radius=1.5, activation="tanh", beta="one")
        psi = FeatureMap("neural", dx=1, radius=1.2, activation="sigmoid",
                         beta="one")
        a, W, Theta, V = [], [], [], []
        for k in range(int(rng.integers(1, 5))):
            W.append(W[0] if (k > 0 and rng.uniform() < 0.5) else (
                rng.uniform(-0.5, 0.5, phi.dw) * phi.radius
            ))
            a.append(rng.standard_normal())
            Theta.append(rng.uniform(-0.5, 0.5, psi.dw) * psi.radius)
            V.append(rng.standard_normal(dim))
        m = HyperModel(a, W, Theta, V, phi, psi, spec)
        z = rng.uniform(-0.8, 0.8, 1)
        x = rng.uniform(-0.8, 0.8, 1)
        wf = evaluate_weight_form(m, z, x)
        ff = evaluate_function_form(m, z, x)
        den = np.maximum(1.0, np.maximum(np.abs(wf), np.abs(ff)))
        two_path = _worst(two_path, float(np.max(np.abs(wf - ff) / den)))
        domination = _worst(domination, function_form_tv_upper(m) - weight_form_tv(m))
    return two_path, domination


def _check_representer(rng, trials):
    """Worst relative gap of grid solves at tol 1e-9 (5 per dimension, 1 to
    5 rows, d = 1, lam in [0.05, 0.5] lambda_max), inf when one holds more
    than N*d_meas atoms, the representer theorem's bound."""
    worst = 0.0
    for _ in range(max(2, trials // 5)):
        feat = _random_feature(rng)
        n = int(rng.integers(1, 6))
        p = Problem(rng.uniform(-1.0, 1.0, (n, feat.dx)), rng.standard_normal((n, 1)), 0.0,
                    feat, DualPairSpec(1, "l2"), omega_grid=product_grid(feat.radius, feat.dw, 5))
        lam = float(rng.uniform(0.05, 0.5)) * lambda_max(p)
        opts = FitOptions(max_atoms=len(p.omega_grid), tol=1e-9, refit_tol=1e-13)
        state, _, gap = grid_oracle(dataclasses.replace(p, lam=lam), opts)
        worst = _worst(worst, gap if len(state.measure) <= p.Y.size else math.inf)
    return worst


def run_invariant_checks(trials: int, seed: int, corruption: float = 0.0) -> list:
    """Run every module's property suite; one record per invariant.

    Each randomized check draws from its own generator, spawned from
    ``seed``, so changing one check's draws leaves the others' instances
    and reported values as they were.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rngs = iter([np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(8)])
    checks = []

    def record(name, max_error, tol):
        checks.append(
            {
                "name": name,
                "max_error": _worst(float(max_error)),
                "tol": tol,
                "passed": bool(max_error <= tol),
            }
        )

    record(
        "reproducing_primal",
        _check_reproducing(next(rngs), trials, corruption, adjoint=False),
        REPRODUCING_TOL,
    )
    record(
        "reproducing_adjoint",
        _check_reproducing(next(rngs), trials, corruption, adjoint=True),
        REPRODUCING_TOL,
    )
    record("twin_norm_agreement", _check_twin_norm(next(rngs), trials), 1e-10)
    record("feature_gradient", _check_feature_gradient(next(rngs), trials), 1e-4)
    record("point_eval_bound", _check_point_eval_bound(next(rngs), trials), 1e-12)
    record("measure_linearity", _check_measure_linearity(next(rngs), trials), 1e-12)
    record("solver_soft_threshold", _check_solver_threshold(), 1e-5)
    two_path, domination = _check_hyper(next(rngs), trials)
    record("hyper_two_path", two_path, 1e-12)
    record("hyper_tv_domination", domination, 1e-12)
    record("representer_bound", _check_representer(next(rngs), trials), 1e-9)
    return checks
