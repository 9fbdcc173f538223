"""Work counts of the refit and the atom search on fixed seeds.

The counts are deterministic for a seed, so these tests catch a regression
of the step rules (refit steps start at 1/L, ascent steps carry the accepted
step and grow it only after a first-trial pass), of the refit's cost per
line-search trial and of the two-level model's read path without timing
anything.  The reference counts are those of the code they replaced.
"""

import dataclasses

import numpy as np
import pytest

from vvrkbs import feature, measure, operator_learning, solver
from vvrkbs.dual_pair import DualPairSpec
from vvrkbs.feature import FeatureMap, phi_matrix
from vvrkbs.operator_learning import (
    HyperModel,
    SampledMeasurement,
    function_form_tv_upper,
    hyper_evaluate,
    hyper_fit,
    weight_form_tv,
)
from vvrkbs.solver import (
    FitOptions,
    Problem,
    fit,
    grid_oracle,
    identity_measurement,
    lambda_max,
    lmo,
    product_grid,
    residual_duals,
)


def _teacher_problem(seed, n=30, grid_per_dim=5):
    # four-atom teacher plus noise, neural tanh feature with the smooth window
    rng = np.random.default_rng(seed)
    feat = FeatureMap("neural", dx=2, radius=2.0, activation="tanh")
    X = rng.uniform(-1.0, 1.0, (n, 2))
    W = rng.uniform(-0.8, 0.8, (4, 3))
    Y = phi_matrix(feat, X, W) @ rng.standard_normal((4, 3))
    Y = Y + 0.05 * rng.standard_normal((n, 3))
    grid = product_grid(feat.radius, feat.dw, grid_per_dim)
    p = Problem(X, Y, identity_measurement(), 1.0, feat,
                DualPairSpec(3, "l2"), omega_grid=grid)
    return dataclasses.replace(p, lam=0.05 * lambda_max(p))


def test_step_rules_cut_refit_and_ascent_work(monkeypatch):
    # Per-problem counts swing both ways (one ascent count of the ten went
    # from 804 to 1514), so the guard sums ten seeded problems.  Totals with
    # the earlier rules: 2954 proximal maps in the grid-restricted fits and
    # grid oracles, 7949 score evaluations in the free-search searches on the
    # fitted residuals.  With the step rules: 1866 and 5375.
    prox_calls, evals = [], []
    prox_rows, oracle_score = solver._prox_rows, solver._oracle_score

    def counted_prox(*args):
        prox_calls.append(1)
        return prox_rows(*args)

    def counted_score(*args):
        value, direction = oracle_score(*args)

        def counted_value(w):
            evals.append(1)
            return value(w)

        return counted_value, direction

    monkeypatch.setattr(solver, "_prox_rows", counted_prox)
    monkeypatch.setattr(solver, "_oracle_score", counted_score)
    for seed in range(10):
        p = _teacher_problem(seed)
        state = fit(p, FitOptions(max_atoms=20, seed=3))
        grid_oracle(p, 5)
        q = dataclasses.replace(p, omega_grid=None)
        lmo(q, residual_duals(q, state.measure), restarts=4, seed=5)

    assert len(prox_calls) <= 0.75 * 2954
    assert len(evals) <= 0.75 * 7949


def test_newton_refit_and_spectral_ascent_cut_inner_iterations(monkeypatch):
    # Sums over the ten seeded problems.  With FISTA refits and ascent steps
    # that start from the carried step, the grid-restricted CG fits took 786
    # proximal maps and the free-search searches on their fitted residuals
    # 3800 score evaluations.  Newton steps on the support and spectral steps:
    # 101 and 959.
    prox_calls, evals = [], []
    _counted(monkeypatch, "_prox_rows", prox_calls)
    oracle_score = solver._oracle_score

    def counted_score(*args):
        value, direction = oracle_score(*args)

        def counted_value(w):
            evals.append(1)
            return value(w)

        return counted_value, direction

    monkeypatch.setattr(solver, "_oracle_score", counted_score)
    for seed in range(10):
        p = _teacher_problem(seed)
        state = fit(p, FitOptions(max_atoms=20, seed=3))
        q = dataclasses.replace(p, omega_grid=None)
        lmo(q, residual_duals(q, state.measure), restarts=4, seed=5)

    assert len(prox_calls) <= 0.25 * 786
    assert len(evals) <= 0.5 * 3800


def test_free_search_evaluates_the_feature_once_per_score(monkeypatch):
    # An ascent direction reuses the pre-activation, activation and beta the
    # score evaluation at the same point kept.  When each direction called
    # grad_phi_w_batch, these three searches made 508 activation passes for
    # 314 score evaluations (and 508 phi_matrix/grad_phi_w_batch calls).
    # Spectral (Barzilai-Borwein) steps cut the evaluations to 219.
    problems = [_teacher_problem(seed) for seed in range(3)]
    evals, activations = [], []
    oracle_score, act = solver._oracle_score, feature._act

    def counted_score(*args):
        value, direction = oracle_score(*args)

        def counted_value(w):
            evals.append(1)
            return value(w)

        return counted_value, direction

    def counted_act(*args):
        activations.append(1)
        return act(*args)

    monkeypatch.setattr(solver, "_oracle_score", counted_score)
    monkeypatch.setattr(feature, "_act", counted_act)
    for p in problems:
        q = dataclasses.replace(p, omega_grid=None)
        lmo(q, residual_duals(q, measure.empty_measure(q.spec, q.feature.radius)),
            restarts=4, seed=5)
    assert len(evals) == 219
    assert len(activations) == len(evals)


def _grid_builds(monkeypatch, module, grids):
    # phi_matrix calls of ``module`` on each of ``grids`` (by identity)
    builds = [0] * len(grids)
    original = module.phi_matrix

    def counted(f, X, W):
        for i, g in enumerate(grids):
            builds[i] += W is g
        return original(f, X, W)

    monkeypatch.setattr(module, "phi_matrix", counted)
    return builds


def test_grid_searches_build_their_grid_features_once_per_fit(monkeypatch):
    # Rebuilt at every atom search, the grid feature matrices cost 14
    # phi_matrix calls over the three flat grid fits below (one per search),
    # and 10 per grid over the three two-level grid fits.
    rng = np.random.default_rng(8)
    flat = [_teacher_problem(seed) for seed in range(3)]
    builds = _grid_builds(monkeypatch, solver, [p.omega_grid for p in flat])
    states = [fit(p, FitOptions(max_atoms=20, seed=3)) for p in flat]
    assert sum(s.iterations + 1 for s in states) == 14
    assert builds == [1, 1, 1]

    phi = psi = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    w_grid = product_grid(2.0, 2, 7)
    theta_grid = product_grid(2.0, 2, 5)
    builds = _grid_builds(monkeypatch, operator_learning, [w_grid, theta_grid])
    iterations = []
    for _ in range(3):
        Z = rng.uniform(-1.0, 1.0, (20, 1))
        Xj = np.linspace(-1.0, 1.0, 6)[:, None]
        W, T = rng.uniform(-1.0, 1.0, (3, 2)), rng.uniform(-1.0, 1.0, (3, 2))
        Y = phi_matrix(phi, Z, W) @ (phi_matrix(psi, Xj, T) * rng.standard_normal(3)).T
        state = hyper_fit(Z, Y, SampledMeasurement(Xj, np.ones((6, 1))), phi, psi,
                          DualPairSpec(1, "l2"), 0.01, FitOptions(max_atoms=20),
                          w_grid=w_grid, theta_grid=theta_grid)
        iterations.append(state.iterations)
    assert min(iterations) >= 2
    assert builds == [3, 3]


def test_oracle_run_builds_its_grid_features_once(monkeypatch):
    # An oracle run fits the grid-restricted problem, then solves its grid
    # discretization on the same grid: 2 builds of the grid feature matrix
    # per problem when the oracle built its design afresh, 1 now.
    problems = [_teacher_problem(seed) for seed in range(3)]
    builds = _grid_builds(monkeypatch, solver, [p.omega_grid for p in problems])
    for p in problems:
        fit(p, FitOptions(max_atoms=20, seed=3))
        grid_oracle(p, 5)
    assert builds == [1, 1, 1]


def test_oracle_run_continues_the_fit(monkeypatch):
    # An oracle run solved its grid problem from the zero measure after the
    # grid-restricted fit had solved most of it on the same engine; it now
    # starts from the fit's measure, which takes fewer grid atom searches
    # for the same certified optimum.
    problems = [_teacher_problem(seed) for seed in range(3)]
    searches = []
    _counted(monkeypatch, "lmo", searches)
    for p in problems:
        mu = fit(p, FitOptions(max_atoms=20, seed=3)).measure
        counts = []
        for start in (None, (mu.W, mu.C)):
            before = len(searches)
            obj = grid_oracle(p, 5, start=start)[0]
            counts.append((len(searches) - before, obj))
        (cold, cold_obj), (warm, warm_obj) = counts
        assert warm < cold
        assert warm_obj == pytest.approx(cold_obj, rel=1e-9)


def _counted(monkeypatch, name, log):
    original = getattr(solver, name)

    def counted(*args):
        log.append(1)
        return original(*args)

    monkeypatch.setattr(solver, name, counted)


def test_refit_takes_one_gradient_per_descent_step(monkeypatch):
    # A line-search trial needs the data term's value only; the gradient
    # D^T (P - Y) / N is taken where a descent step starts.  Counted as the
    # reads of the design's transpose in a FISTA refit whose first step, ten
    # times 1/L, backtracks: 22 gradients for 25 proximal maps, where a
    # gradient per trial would make 25.
    grads, prox_calls = [], []

    class Design:  # the lifted design, counting the reads of its transpose
        def __init__(self, D):
            self.D = D

        def __matmul__(self, x):
            return self.D @ x

        @property
        def T(self):
            grads.append(1)
            return self.D.T

    _counted(monkeypatch, "_prox_rows", prox_calls)
    rng = np.random.default_rng(32)
    Phi, Y = rng.standard_normal((30, 5)), rng.standard_normal((30, 2))
    fam = solver._AtomFamily(Y=Y, lam=0.05, norm="l2", dim=2, width=1, lift=None, search=None)
    step = 10.0 * 30 / np.linalg.norm(Phi, 2) ** 2
    solver._fista(fam, Design(np.kron(Phi, np.eye(2))), np.zeros((5, 2)), step, 200, 1e-12)
    assert 0 < len(grads) < len(prox_calls)


def test_ascent_does_not_regrow_a_halved_step(monkeypatch):
    # Score evaluations of the free-search searches on the fitted residuals
    # of the ten problems: 5375 when every accepted step was doubled for the
    # next trial, 3800 when only a step accepted on its first trial is.
    evals = []
    oracle_score = solver._oracle_score

    def counted_score(*args):
        value, direction = oracle_score(*args)

        def counted_value(w):
            evals.append(1)
            return value(w)

        return counted_value, direction

    monkeypatch.setattr(solver, "_oracle_score", counted_score)
    for seed in range(10):
        p = _teacher_problem(seed)
        state = fit(p, FitOptions(max_atoms=20, seed=3))
        q = dataclasses.replace(p, omega_grid=None)
        lmo(q, residual_duals(q, state.measure), restarts=4, seed=5)

    assert len(evals) <= 0.8 * 5375


def _two_level_model(rng):
    # 100 atoms on 10 distinct w rows and 25 distinct theta rows
    phi = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    psi = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    w_rows = rng.uniform(-1.0, 1.0, (10, phi.dw))
    theta_rows = rng.uniform(-1.0, 1.0, (25, psi.dw))
    return HyperModel(rng.standard_normal(100), w_rows[np.arange(100) % 10],
                      theta_rows[np.arange(100) % 25], rng.standard_normal((100, 2)),
                      phi, psi, DualPairSpec(2, "l2"))


def test_two_level_reads_build_no_measures(monkeypatch):
    # Evaluation and both norms work on the model's arrays.  Read through
    # throwaway measures, this model cost 11 AtomicVectorMeasures per
    # hyper_evaluate, 30 per weight_form_tv and 20 per function_form_tv_upper
    # (one or more per distinct w, of which there are 10).
    rng = np.random.default_rng(4)
    m = _two_level_model(rng)
    built = []
    post_init = measure.AtomicVectorMeasure.__post_init__

    def counted(self):
        built.append(len(self.W))
        post_init(self)

    monkeypatch.setattr(measure.AtomicVectorMeasure, "__post_init__", counted)
    for z, x in rng.uniform(-1.0, 1.0, (3, 2, 1)):
        assert np.all(np.isfinite(hyper_evaluate(m, z, x)))
    assert 0.0 < function_form_tv_upper(m) <= weight_form_tv(m)
    assert built == []


def test_norm_pair_coalesces_the_inner_measures_once(monkeypatch):
    # Coalesced anew on every call, each norm pair on this model grouped the
    # 10 inner measures twice (once per norm) on top of the 10 probe-column
    # merges of function_form_tv_upper: 30 groupings per pair, 90 for three.
    # Both the inner measures and the probe-merged bound are kept per model.
    rng = np.random.default_rng(4)
    m = _two_level_model(rng)
    groupings = []
    group_by_location = measure._group_by_location

    def counted(*args):
        groupings.append(1)
        return group_by_location(*args)

    monkeypatch.setattr(measure, "_group_by_location", counted)
    pairs = [(weight_form_tv(m), function_form_tv_upper(m)) for _ in range(3)]
    assert pairs == [pairs[0]] * 3
    assert len(groupings) == 10 + 10


def test_two_level_query_is_two_feature_calls_and_no_regroup(monkeypatch):
    # The model's distinct-w groups are computed when it is built.  Regrouped
    # on every read, a hyper_evaluate on this model made 22 phi_matrix calls
    # (two for the weight form, two per distinct w for the function form),
    # and every query and norm called _group_by_location once.  With stored
    # groups each form made two calls; both forms now share one phi(z, W)
    # row and one psi(x, Theta) row.  The model also keeps beta(W) and
    # beta(Theta), so a query evaluates the two rows' cores and no
    # truncation (it took two beta_values calls while it went through
    # phi_matrix).
    rng = np.random.default_rng(4)
    m = _two_level_model(rng)
    calls = {"core": 0, "beta": 0, "regroup": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(feature, "_core", counted("core", feature._core))
    monkeypatch.setattr(feature, "beta_values", counted("beta", feature.beta_values))
    monkeypatch.setattr(operator_learning, "_group_by_location",
                        counted("regroup", operator_learning._group_by_location))
    per_query = []
    for z, x in rng.uniform(-1.0, 1.0, (10, 2, 1)):
        before = dict(calls)
        hyper_evaluate(m, z, x)
        per_query.append((calls["core"] - before["core"], calls["beta"] - before["beta"]))
    assert 0.0 < function_form_tv_upper(m) <= weight_form_tv(m)
    assert per_query == [(2, 0)] * 10
    assert calls["regroup"] == 0
