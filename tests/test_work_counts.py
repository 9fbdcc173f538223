"""Work counts of the refit and the atom search on fixed seeds.

The counts are deterministic for a seed, so these tests catch a regression
of the step rules (refit steps start at 1/L, ascent steps carry the accepted
step and grow it only after a first-trial pass), of the refit's cost per
line-search trial and of the two-level model's read path without timing
anything.  The reference counts are those of the code they replaced.
"""

import dataclasses
import json

import numpy as np

from vvrkbs import cli, feature, measure, operator_learning, solver
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
    lambda_max,
    product_grid,
    residual_duals,
)


# the grid optimum's options: tol 1e-9 and the 81-point grid as the atom budget
TIGHT = FitOptions(max_atoms=81, tol=1e-9, refit_tol=1e-13)


def _teacher_problem(seed, n=30, grid_per_dim=5):
    # four-atom teacher plus noise, neural tanh feature with the smooth window
    rng = np.random.default_rng(seed)
    feat = FeatureMap("neural", dx=2, radius=2.0, activation="tanh")
    X = rng.uniform(-1.0, 1.0, (n, 2))
    W = rng.uniform(-0.8, 0.8, (4, 3))
    Y = phi_matrix(feat, X, W) @ rng.standard_normal((4, 3))
    Y = Y + 0.05 * rng.standard_normal((n, 3))
    grid = product_grid(feat.radius, feat.dw, grid_per_dim)
    p = Problem(X, Y, 1.0, feat,
                DualPairSpec(3, "l2"), omega_grid=grid)
    return dataclasses.replace(p, lam=0.05 * lambda_max(p))


def _random_ascents(q, eta, starts=4, seed=5):
    # the ascents these counts were taken on: ``starts`` ascents on the
    # free problem q, each from a point uniform in the weight ball (a normal
    # direction, then a radius) drawn by default_rng(seed)
    rng = np.random.default_rng(seed)
    value, direction = solver._oracle_score(q, eta)
    dim, radius = q.feature.dw, q.feature.radius
    for _ in range(starts):
        d = rng.standard_normal(dim)
        r = radius * float(rng.uniform()) ** (1.0 / dim)
        solver._ascend(value, direction, (q.feature,), d * (r / float(np.sqrt(np.dot(d, d)))))


def test_step_rules_cut_refit_and_ascent_work(monkeypatch):
    # Per-problem counts swing both ways (one ascent count of the ten went
    # from 804 to 1514), so the guard sums ten seeded problems.  Totals with
    # the earlier rules: 2954 proximal maps in the grid-restricted fits and
    # grid oracles, 7949 score evaluations in the random-start ascents on the
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
        grid_oracle(p, TIGHT)
        q = dataclasses.replace(p, omega_grid=None)
        _random_ascents(q, residual_duals(q, state.measure))

    assert len(prox_calls) <= 0.75 * 2954
    assert len(evals) <= 0.75 * 7949


def test_newton_refit_and_spectral_ascent_cut_inner_iterations(monkeypatch):
    # Sums over the ten seeded problems.  With FISTA refits and ascent steps
    # that start from the carried step, the grid-restricted CG fits took 786
    # proximal maps and the random-start ascents on their fitted residuals
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
        _random_ascents(q, residual_duals(q, state.measure))

    assert len(prox_calls) <= 0.25 * 786
    assert len(evals) <= 0.5 * 3800


def test_free_search_evaluates_the_feature_once_per_score(monkeypatch):
    # An ascent direction reuses the pre-activation, activation and beta the
    # score evaluation at the same point kept.  When each direction called
    # grad_phi_w_batch, these three sets of ascents made 508 activation passes for
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
        _random_ascents(q, residual_duals(q, measure.empty_measure(q.spec, q.feature.radius)))
    assert len(evals) == 219
    assert len(activations) == len(evals)


def test_free_fit_builds_its_candidate_features_once(monkeypatch):
    # a free search scores SEARCH_POINTS candidates with one product per
    # round; their feature matrix, N x SEARCH_POINTS entries, is built once
    # per fit, as a grid's is
    shapes = []
    original = solver.phi_matrix

    def counted(f, X, W):
        out = original(f, X, W)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(solver, "phi_matrix", counted)
    rounds = 0
    for seed in range(3):
        p = dataclasses.replace(_teacher_problem(seed), omega_grid=None)
        rounds += fit(p, FitOptions(max_atoms=20, seed=3)).iterations
    assert rounds >= 3 * 3
    assert shapes.count((30, solver.SEARCH_POINTS)) == 3


def test_a_free_search_polishes_once_unless_a_sparse_set_would_certify(monkeypatch):
    # a grid search is exhaustive and ascends nowhere; a free search polishes
    # its best candidate, and only a sparse set (fewer than DENSE points per
    # dimension) polishes more, up to POLISHES, and only while no polish
    # beats the certification threshold; flat and two-level alike
    ascents, searches = [], []
    ascend, polish = solver._ascend, solver._polish

    def counted(*args):
        out = ascend(*args)
        ascents.append(out[2])
        return out

    def logged(scores, starts, value, direction, features, bar):
        before = len(ascents)
        out = polish(scores, starts, value, direction, features, bar)
        dense = len(starts) >= solver.DENSE ** starts.shape[1]
        assert all(score <= bar for score in ascents[before:-1])  # none beat it before the last
        searches.append((dense, len(ascents) - before, out[2] > bar))
        return out

    monkeypatch.setattr(solver, "_ascend", counted)
    monkeypatch.setattr(solver, "_polish", logged)
    monkeypatch.setattr(operator_learning, "_polish", logged)

    def check(state, dense):
        assert state.converged and len(searches) >= state.iterations + 1 >= 3
        assert {d for d, _, _ in searches} == {dense}
        *rounds, (_, last, _) = searches
        if dense:
            assert [n for _, n, _ in searches] == [1] * len(searches)
        else:  # sparse: one ascent whenever the first beat the threshold
            assert all(n == 1 or above for _, n, above in rounds)
            assert 1 < last <= solver.POLISHES
        assert sum(n for _, n, _ in searches) == len(ascents)
        searches.clear()
        ascents.clear()

    p = _teacher_problem(0)  # dw = 3: SEARCH_POINTS >= DENSE ** 3
    fit(p, FitOptions(max_atoms=20, seed=3))
    assert ascents == [] and searches == []
    check(fit(dataclasses.replace(p, omega_grid=None), FitOptions(max_atoms=20, seed=3)), True)

    rng = np.random.default_rng(8)
    feat = FeatureMap("neural", dx=3, radius=2.0, activation="tanh")  # dw = 4: sparse
    X = rng.uniform(-1.0, 1.0, (30, 3))
    Y = phi_matrix(feat, X, rng.uniform(-0.8, 0.8, (4, 4))) @ rng.standard_normal((4, 2))
    q = Problem(X, Y, 1.0, feat, DualPairSpec(2, "l2"),
                omega_grid=product_grid(2.0, 4, 5))
    q = dataclasses.replace(q, lam=0.05 * lambda_max(q), omega_grid=None)
    check(fit(q, FitOptions(max_atoms=20, seed=3)), False)

    phi = psi = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    Z, Xj = rng.uniform(-1.0, 1.0, (20, 1)), np.linspace(-1.0, 1.0, 6)[:, None]
    W, T = rng.uniform(-1.0, 1.0, (3, 2)), rng.uniform(-1.0, 1.0, (3, 2))
    Y = phi_matrix(phi, Z, W) @ (phi_matrix(psi, Xj, T) * rng.standard_normal(3)).T
    args = (Z, Y, SampledMeasurement(Xj, np.ones((6, 1))), phi, psi, DualPairSpec(1, "l2"), 0.01,
            FitOptions(max_atoms=20))
    hyper_fit(*args, w_grid=product_grid(2.0, 2, 7), theta_grid=product_grid(2.0, 2, 5))
    assert ascents == [] and searches == []
    check(hyper_fit(*args), False)  # 32 x 32 pairs in four dimensions: sparse


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
    # A grid-restricted fit and the grid oracle of the same problem search
    # one grid: 2 builds of the grid feature matrix per problem when the
    # oracle built its design afresh, 1 now.
    problems = [_teacher_problem(seed) for seed in range(3)]
    builds = _grid_builds(monkeypatch, solver, [p.omega_grid for p in problems])
    for p in problems:
        fit(p, FitOptions(max_atoms=20, seed=3))
        grid_oracle(p, TIGHT)
    assert builds == [1, 1, 1]


def test_oracle_command_runs_one_cg_solve(monkeypatch, tmp_path, capsys):
    # An oracle command fitted the grid-restricted problem and then continued
    # that fit by a second CG solve on the same grid.  It now runs the fit
    # alone, through grid_oracle, and reports the fit's duality gap.
    solves, gaps = [], []
    _counted(monkeypatch, "_cg_fit", solves)
    _counted(monkeypatch, "_duality_gap", gaps)
    p = _teacher_problem(0)
    rows = ["x0,x1,y0,y1,y2"] + [",".join(map(repr, [*x, *y]))
                                 for x, y in zip(p.X.tolist(), p.Y.tolist())]
    config = {"feature": {"kind": "neural", "dx": 2, "radius": 2.0, "activation": "tanh"},
              "space": {"d": 3, "norm": "l2"},
              "solver": {"lambda": p.lam, "max_atoms": 20, "seed": 3, "grid_per_dim": 5}}
    cfg, data = tmp_path / "config.json", tmp_path / "data.csv"
    cfg.write_text(json.dumps(config))
    data.write_text("\n".join(rows) + "\n")
    assert cli.main(["oracle", "--config", str(cfg), "--data", str(data)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relative_gap"] <= 1e-4
    assert len(solves) == 1 and len(gaps) == 1


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
    # Score evaluations of the random-start ascents on the fitted residuals
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
        _random_ascents(q, residual_duals(q, state.measure))

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
