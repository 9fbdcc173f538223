import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vvrkbs.dual_pair import DualPairSpec, dual_norm_value, primal_witness
from vvrkbs.feature import ACTIVATIONS, FeatureMap, eval_phi, grad_phi_w_batch, phi_matrix
from vvrkbs.measure import empty_measure, measure_from_arrays
from vvrkbs.solver import (
    FitOptions,
    Problem,
    SolverError,
    SolverState,
    export_network,
    fit,
    grid_oracle,
    lambda_max,
    lmo,
    network_apply,
    network_to_json_dict,
    objective,
    product_grid,
    residual_duals,
)
from vvrkbs.dual_pair import row_norms
from vvrkbs.operator_learning import SampledMeasurement, _product_family
from vvrkbs import solver
from vvrkbs.solver import (
    _AtomFamily,
    _ascend,
    _duality_gap,
    _fista,
    _flat_family,
    _group_refit,
    _newton_refit,
    _oracle_score,
    _prox_rows,
    _refit_step,
)


def _tab_feature():
    # bilinear table on [-1,1] x [-1,1], window switched off
    return FeatureMap(
        "tabulated",
        dx=1,
        radius=1.0,
        beta="one",
        x_grid=[-1.0, 1.0],
        w_grid=[-1.0, 1.0],
        values=[[1.0, 2.0], [3.0, -4.0]],
    )


def _neural_problem(
    rng,
    n=3,
    dim=2,
    norm="l2",
    lam=0.1,
    grid_per_dim=None,
    functionals=None,
):
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(dim, norm)
    d_meas = dim if functionals is None else len(functionals)
    X = rng.uniform(-1.0, 1.0, (n, 1))
    Y = rng.standard_normal((n, d_meas))
    grid = None
    if grid_per_dim is not None:
        grid = product_grid(feat.radius, feat.dw, grid_per_dim)
    return Problem(X, Y, lam, feat, spec, omega_grid=grid, functionals=functionals)


# ------------------------------------------------------------------ losses

def test_squared_loss_values_and_grad():
    P = np.array([[1.0, 2.0], [0.0, -1.0]])
    Y = np.array([[0.0, 2.0], [1.0, 1.0]])
    fam = _AtomFamily(Y=Y, lam=0.5, norm="l1", dim=2, width=1, lift=None, search=None)
    # per-row values 0.5 and 2.5 over 2 rows, plus lam times the l1 row norms 3 and 1
    assert solver._objective(fam, P - Y, np.array([[1.0, -2.0], [0.0, 1.0]])) == 1.5 + 2.0
    # the oracle reads the residuals P - Y, here at the zero measure
    spec = DualPairSpec(2, "l2")
    feat = FeatureMap("neural", dx=1, radius=1.0, activation="tanh")
    p = Problem([[0.1], [0.2]], Y, 0.5, feat, spec)
    assert np.array_equal(residual_duals(p, empty_measure(spec, 1.0)), -Y / 2)


EXACT_NORMS = {
    "l1": lambda row: math.fsum(abs(c) for c in row),
    "l2": lambda row: math.sqrt(math.fsum(c * c for c in row)),
    "linf": lambda row: max(abs(c) for c in row),
}


@pytest.mark.parametrize("norm", sorted(EXACT_NORMS))
def test_objective_matches_exact_sum_of_element_losses(norm):
    # the penalty sums each payload row's primal norm, whichever norm it is
    rng = np.random.default_rng(40)
    P = 2.0 * rng.standard_normal((37, 3))
    Y = rng.standard_normal((37, 3))
    C = rng.standard_normal((5, 3))
    fam = _AtomFamily(Y=Y, lam=0.3, norm=norm, dim=3, width=1, lift=None, search=None)
    exact = (math.fsum(0.5 * r * r for r in (P - Y).ravel()) / 37
             + 0.3 * math.fsum(EXACT_NORMS[norm](row) for row in C))
    assert abs(solver._objective(fam, P - Y, C) - exact) <= 1e-14 * exact


def test_fit_options_need_a_refit_step():
    # a refit that takes no step leaves a new atom at zero; it is pruned and
    # re-inserted forever
    for n in (0, -1):
        with pytest.raises(ValueError):
            FitOptions(refit_max_iter=n)


@pytest.mark.parametrize("field", ["tol", "refit_tol"])
@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf])
def test_fit_options_reject_negative_and_non_finite_tolerances(field, value):
    # a NaN tol can never certify, an infinite one certifies an empty model,
    # and a NaN refit tol runs every refit to its iteration cap
    with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative"):
        FitOptions(**{field: value})


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("lam", math.nan, "lam must be finite and nonnegative"),
        ("lam", math.inf, "lam must be finite and nonnegative"),
        ("lam", -0.1, "lam must be finite and nonnegative"),
        ("omega_grid", [[0.1, 0.2, 0.3]], r"omega_grid must be a non-empty \(n, 2\) array"),
        ("omega_grid", np.zeros((0, 2)), "omega_grid must be a non-empty"),
        ("omega_grid", [[math.nan, 0.0]], "omega_grid must be finite"),
        ("omega_grid", [[3.0, 0.0]], "omega_grid must lie in the radius-1.5 ball"),
    ],
)
def test_problem_rejects_each_malformed_input(field, value, fault):
    # each case breaks one input of an otherwise valid grid-restricted problem
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    args = {"X": [[0.1]], "Y": [[1.0, 0.0]], "lam": 0.1, "feature": feat,
            "spec": DualPairSpec(2, "l2"), "omega_grid": [[0.1, 0.2]]}
    Problem(**args)
    args[field] = value
    with pytest.raises(ValueError, match=fault):
        Problem(**args)


# ------------------------------------------------------------- measurement

def test_measurement_apply_and_adjoint():
    # the functionals observe M f(x_n) = V f(x_n), and the residuals pull
    # back through V^T: predictions U V^T, residual duals G V / N
    V = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    p = _neural_problem(np.random.default_rng(7), n=4, dim=3, functionals=V)
    mu = measure_from_arrays([[0.3, -0.2], [-0.5, 0.4]], [[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]],
                             p.spec, p.feature.radius)
    U = phi_matrix(p.feature, p.X, mu.W) @ mu.C
    assert np.array_equal(solver._predictions(p, mu), U @ V.T)
    G = U @ V.T - p.Y
    assert np.array_equal(residual_duals(p, mu), G @ V / p.n_data)


def test_measurement_validation():
    # a functionals matrix is 2-d, non-empty, finite, of numbers and of the
    # value space's width
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    Problem([[0.1]], [[1.0]], 0.1, feat, DualPairSpec(3), functionals=[[1.0, 0.0, 2.0]])
    shape = r"functionals must be a non-empty \(k, 3\) array"
    for functionals, error, fault in [
        ([1.0, 0.0, 2.0], ValueError, shape),
        (np.zeros((0, 3)), ValueError, shape),
        ([[1.0, 0.0]], ValueError, shape),
        ([[1.0, math.nan, 0.0]], ValueError, "functionals must be finite"),
        ([[1.0, -math.inf, 0.0]], ValueError, "functionals must be finite"),
        ([[1.0, "0", 0.0]], TypeError, "functionals must hold numbers only"),
        ([[1.0, True, 0.0]], TypeError, "functionals must hold numbers only"),
    ]:
        with pytest.raises(error, match=fault):
            Problem([[0.1]], [[1.0]], 0.1, feat, DualPairSpec(3), functionals=functionals)


# --------------------------------------------------------------- objective

def test_objective_zero_measure_is_mean_loss_of_targets():
    rng = np.random.default_rng(0)
    p = _neural_problem(rng, n=4, lam=0.3)
    mu = empty_measure(p.spec, p.feature.radius)
    expected = float(np.mean([0.5 * np.dot(y, y) for y in p.Y]))
    assert objective(p, mu) == pytest.approx(expected, rel=1e-12)


def test_objective_perfect_fit_no_penalty_is_zero():
    feat = FeatureMap("neural", dx=1, radius=2.0, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l2")
    w = np.array([0.5, -0.2])
    c = np.array([1.0, -2.0])
    X = np.array([[0.1], [0.7], [-0.4]])
    Y = phi_matrix(feat, X, w[None, :]) * c[None, :]
    p = Problem(X, Y, 0.0, feat, spec)
    mu = measure_from_arrays([w], [c], spec, feat.radius)
    assert objective(p, mu) == pytest.approx(0.0, abs=1e-15)


def test_objective_tiny_instance_by_hand():
    feat = _tab_feature()
    spec = DualPairSpec(1, "l2")
    X = np.array([[-1.0], [0.5]])
    Y = np.array([[1.0], [-0.5]])
    w, c, lam = 0.25, 0.8, 0.7
    p = Problem(X, Y, lam, feat, spec)
    mu = measure_from_arrays([[w]], [[c]], spec, feat.radius)

    def table_phi(x, wv):
        gx = (x + 1.0) / 2.0
        gw = (wv + 1.0) / 2.0
        return (
            (1 - gx) * (1 - gw) * 1.0
            + gx * (1 - gw) * 3.0
            + (1 - gx) * gw * 2.0
            + gx * gw * -4.0
        )

    p1 = table_phi(-1.0, w) * c
    p2 = table_phi(0.5, w) * c
    by_hand = 0.5 * (0.5 * (p1 - 1.0) ** 2 + 0.5 * (p2 + 0.5) ** 2) + lam * abs(c)
    assert objective(p, mu) == pytest.approx(by_hand, rel=1e-12)


def test_residual_duals_at_zero_measure():
    rng = np.random.default_rng(1)
    p = _neural_problem(rng, n=3)
    eta = residual_duals(p, empty_measure(p.spec, p.feature.radius))
    assert np.allclose(eta, -p.Y / 3.0, rtol=1e-14)


# --------------------------------------------------------------------- lmo

def test_lmo_single_point_l1_ball_picks_basis_vector():
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l1")
    p = Problem(
        [[0.3]], [[1.0, 0.0]], 0.1, feat, spec,
        omega_grid=product_grid(1.5, 2, 3),
    )
    eta = np.array([[1.0, 0.0]])
    w, u, score = lmo(p, eta)
    assert sorted(np.abs(u).tolist()) == [0.0, 1.0]
    assert abs(u[0]) == 1.0
    assert score == pytest.approx(abs(eval_phi(feat, [0.3], w)), rel=1e-12)


def test_lmo_zero_residuals_score_zero():
    rng = np.random.default_rng(2)
    p = _neural_problem(rng, grid_per_dim=3)
    w, u, score = lmo(p, np.zeros((3, 2)))
    assert score == 0.0


def test_lmo_matches_exhaustive_enumeration():
    # brute force over grid x {+-e_j} is the reference answer
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l1")
    grid = product_grid(1.5, 2, 3)
    X = np.array([[-0.8], [0.1], [0.9]])
    p = Problem(
        X, np.zeros((3, 2)), 0.1, feat, spec,
        omega_grid=grid,
    )
    eta = np.array([[0.4, -1.1], [-0.3, 0.2], [0.9, 0.5]])

    best = None
    for g in range(len(grid)):
        for j in range(2):
            for s in (1.0, -1.0):
                val = s * sum(
                    eval_phi(feat, X[n], grid[g]) * eta[n, j] for n in range(3)
                )
                if best is None or val > best[0] + 1e-15:
                    best = (val, g, j, s)

    w, u, score = lmo(p, eta)
    assert score == pytest.approx(best[0], rel=1e-12)
    assert np.allclose(w, grid[best[1]])
    expected_u = np.zeros(2)
    expected_u[best[2]] = best[3]
    assert np.array_equal(u, expected_u)


def test_lmo_ascent_reaches_grid_optimum():
    # the unrestricted search should do at least as well as a coarse grid
    rng = np.random.default_rng(3)
    p = _neural_problem(rng, n=3, lam=0.05)
    eta = residual_duals(p, empty_measure(p.spec, p.feature.radius))
    grid = product_grid(p.feature.radius, 2, 9)
    V = phi_matrix(p.feature, p.X, grid).T @ eta
    grid_best = max(float(np.linalg.norm(v)) for v in V)
    _, _, score = lmo(p, eta)
    assert score >= grid_best - 1e-6


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
def test_ball_points_are_uniform_in_the_ball_and_follow_the_seed(dim):
    # the free search's candidates: a normal direction, then radius
    # R U^(1/dim), so half the points lie within R 2^(-1/dim), every
    # coordinate's mean is 0 and its variance R^2/(dim + 2)
    n, radius = 4096, 1.5
    W = solver._ball_points(np.random.default_rng(11), n, dim, radius)
    assert W.shape == (n, dim)
    r = np.sqrt((W * W).sum(axis=1))
    assert np.all(r <= radius)
    assert np.mean(r <= radius * 0.5 ** (1.0 / dim)) == pytest.approx(0.5, abs=0.04)
    assert np.abs(W.mean(axis=0)).max() <= 6.0 * radius / math.sqrt((dim + 2) * n)
    assert W.var(axis=0) == pytest.approx(np.full(dim, radius**2 / (dim + 2)), rel=0.1)
    assert np.array_equal(W, solver._ball_points(np.random.default_rng(11), n, dim, radius))
    assert not np.array_equal(W, solver._ball_points(np.random.default_rng(12), n, dim, radius))


def test_free_lmo_polishes_the_best_candidate():
    # the free search scores its candidate set with one product and ascends
    # from the best candidate, so it never returns less than the set's best;
    # the score is that of the returned atom
    rng = np.random.default_rng(21)
    for seed in range(5):
        p = _neural_problem(rng, n=6, dim=2)
        eta = rng.standard_normal((6, 2))
        W, Phi = solver._search_set(p, seed)
        assert W.shape == (solver.SEARCH_POINTS, p.feature.dw)
        assert np.all(np.sqrt((W * W).sum(axis=1)) <= p.feature.radius)
        best = float(row_norms(Phi.T @ eta, "l2").max())
        w, u, score = lmo(p, eta, (W, Phi))
        assert score >= best * (1.0 - 1e-12)
        atom = phi_matrix(p.feature, p.X, w[None, :])[:, 0] @ eta @ u
        assert score == pytest.approx(abs(atom), rel=1e-12)


@pytest.mark.parametrize("grid_per_dim", [None, 5])
def test_lambda_max_is_the_lmo_score_at_the_zero_measure(grid_per_dim):
    # free problems search the candidate set of seed 0, grid problems the grid
    p = _neural_problem(np.random.default_rng(7), n=5, grid_per_dim=grid_per_dim)
    eta = residual_duals(p, empty_measure(p.spec, p.feature.radius))
    assert lambda_max(p) == lmo(p, eta)[2] == lmo(p, eta, solver._search_set(p, 0))[2]
    if grid_per_dim is not None:
        V = phi_matrix(p.feature, p.X, p.omega_grid).T @ eta
        assert lambda_max(p) == float(row_norms(V, "l2").max())


@pytest.mark.parametrize("norm", ["l2", "l1"])
def test_a_certified_free_fit_leaves_no_candidate_above_the_threshold(norm):
    # the certificate is the polished score, never below the candidates'
    # best, so a certified fit's candidate set holds no atom above
    # lam (1 + tol) at the returned measure (up to the rounding by which its
    # predictions differ from the engine's)
    for seed in range(4):
        p = _neural_problem(np.random.default_rng(seed), n=5, dim=2, norm=norm)
        p = dataclasses.replace(p, lam=0.2 * lambda_max(p))
        opts = FitOptions(max_atoms=20, seed=seed)
        state = fit(p, opts)
        assert state.converged
        _, Phi = solver._search_set(p, seed)
        V = Phi.T @ residual_duals(p, state.measure)
        assert row_norms(V, p.spec.dual_norm).max() <= p.lam * (1.0 + opts.tol) * (1.0 + 1e-9)


def test_a_sparse_set_backs_its_certificate_with_more_polishes(monkeypatch):
    # dw = 5: the 1,024 candidates hold 4 points per dimension.  Polishing
    # the best one alone climbs a support atom's hill and certifies while an
    # ascent from a random point of the ball reaches 1.18 lam; the sparse
    # set's further polishes find that hill, and the fit certifies truthfully
    rng = np.random.default_rng(11)
    feat = FeatureMap("neural", dx=4, radius=2.0, activation="tanh")
    X = rng.uniform(-1.0, 1.0, (20, 4))
    Y = phi_matrix(feat, X, solver._ball_points(rng, 6, 5, 1.4)) @ rng.standard_normal((6, 2))
    p = Problem(X, Y, 1.0, feat, DualPairSpec(2, "l2"))
    p = dataclasses.replace(p, lam=0.05 * lambda_max(p))
    opts = FitOptions(tol=0.05, seed=11)
    threshold = p.lam * (1.0 + opts.tol)

    def best_ascent(state):
        value, direction = solver._oracle_score(p, residual_duals(p, state.measure))
        starts = solver._ball_points(np.random.default_rng(123), 32, 5, 2.0)
        return max(solver._ascend(value, direction, (feat,), s)[2] for s in starts)

    with monkeypatch.context() as m:
        m.setattr(solver, "POLISHES", 1)
        one = fit(p, opts)
    assert one.converged and best_ascent(one) > 1.15 * p.lam
    state = fit(p, opts)
    assert state.converged and state.certificate <= threshold
    assert best_ascent(state) <= threshold


def test_polish_passes_over_the_candidates_an_earlier_ascent_explains(monkeypatch):
    # hill A (top 1 at (0.6, 0), narrow across) holds the best candidates,
    # hill B (top 2 at (-1, 0)) a lower one.  The ascent from c0 climbs A,
    # 0.5 away, below the bar; c1, 0.2 from A's top, is passed over, and the
    # ascent from c2 climbs B and beats the bar
    A, B = np.array([0.6, 0.0]), np.array([-1.0, 0.0])

    def value(L):
        a = math.exp(-2.0 * (L[0] - A[0]) ** 2 - 16.0 * L[1] ** 2)
        b = 2.0 * math.exp(-4.0 * float(np.dot(L - B, L - B)))
        return a + b, (a, b)

    def direction(L, state):
        a, b = state
        return a * np.array([-4.0 * (L[0] - A[0]), -32.0 * L[1]]) - 8.0 * b * (L - B)

    starts = np.array([[0.1, 0.0], [0.6, 0.2], [-0.3, 0.0]])
    scores = np.array([value(s)[0] for s in starts])
    assert np.all(np.diff(scores) < 0)  # c0, c1, c2 in score order
    begun = []
    ascend = solver._ascend

    def logged(value, direction, features, L0):
        begun.append(np.array(L0))
        return ascend(value, direction, features, L0)

    monkeypatch.setattr(solver, "_ascend", logged)
    feat = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")  # dw = 2: a sparse set
    L, _, score = solver._polish(scores, starts, value, direction, (feat,), 1.5)
    assert np.array_equal(np.array(begun), starts[[0, 2]])
    assert np.allclose(L, B, atol=0.01) and score > 1.5
    begun.clear()
    assert solver._polish(scores, starts, value, direction, (feat,), math.inf)[2] == score
    assert np.array_equal(np.array(begun), starts[[0, 2]])  # nothing left once c2 climbed B


def test_lmo_builds_a_large_candidate_matrix_a_block_at_a_time(monkeypatch):
    # past _SET_BLOCK entries the free set's feature matrix is not held: lmo
    # scores the candidates a block at a time, to the same atom
    rng = np.random.default_rng(5)
    p = _neural_problem(rng, n=6, dim=2)
    eta = rng.standard_normal((6, 2))
    W, Phi = solver._search_set(p, 3)
    blocks = []
    original = solver.phi_matrix

    def counted(f, X, A):
        blocks.append(len(A))
        return original(f, X, A)

    monkeypatch.setattr(solver, "phi_matrix", counted)
    monkeypatch.setattr(solver, "_SET_BLOCK", 6 * 100)
    W2, none = solver._search_set(p, 3)
    assert none is None and np.array_equal(W, W2) and blocks == []
    w, u, score = lmo(p, eta, (W2, None))
    assert blocks == [100] * 10 + [24]
    w_full, u_full, score_full = lmo(p, eta, (W, Phi))
    assert np.array_equal(w, w_full) and np.array_equal(u, u_full)
    assert score == score_full


def test_lmo_rejects_nonfinite_residuals():
    rng = np.random.default_rng(4)
    p = _neural_problem(rng, grid_per_dim=3)
    eta = np.full((3, 2), np.nan)
    with pytest.raises(SolverError):
        lmo(p, eta)


ORACLE_FEATURES = [
    FeatureMap("neural", dx=2, radius=1.5, activation=act, beta=beta)
    for act in ACTIVATIONS for beta in ("smooth_bump", "hard")
] + [
    FeatureMap("gaussian", dx=2, radius=1.5, bandwidth=0.7),
    _tab_feature(),
]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(feat=st.sampled_from(ORACLE_FEATURES), norm=st.sampled_from(["l1", "l2", "linf"]),
       seed=st.integers(0, 2**32 - 1))
def test_oracle_score_matches_the_feature_calls_bitwise(feat, norm, seed):
    # the score and witness at w are those of phi_matrix and the dual pair,
    # and the direction at an accepted point is grad_phi_w_batch's, bit for
    # bit, also after other points were scored in between
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 30)), int(rng.integers(1, 4))
    X = rng.uniform(-1.0, 1.0, (n, feat.dx))
    p = Problem(X, np.zeros((n, dim)), 0.1, feat,
                DualPairSpec(dim, norm))
    eta = rng.standard_normal((n, dim))
    value, direction = _oracle_score(p, eta)
    ws = rng.uniform(-1.0, 1.0, (3, feat.dw)) * rng.uniform(0.0, 1.6, (3, 1))
    for w, (score, state) in zip(ws, [value(w) for w in ws]):
        v = phi_matrix(feat, X, w[None, :])[:, 0] @ eta
        u = primal_witness(p.spec, v)
        assert score == dual_norm_value(p.spec, v) and state[0].tobytes() == u.tobytes()
        expected = grad_phi_w_batch(feat, X, w).T @ (eta @ u)
        assert direction(w, state).tobytes() == expected.tobytes()


# ------------------------------------------------------------ product grid

def test_product_grid_stays_in_ball():
    pts = product_grid(1.0, 2, 4)
    assert len(pts) == 12  # the four corner cells fall outside the ball
    assert np.all(np.sqrt(np.sum(pts * pts, axis=1)) <= 1.0)


# --------------------------------------------------------------------- fit

def test_fit_above_lambda_max_returns_zero_measure():
    rng = np.random.default_rng(5)
    p = _neural_problem(rng, n=4, grid_per_dim=5, lam=1.0)
    # reference lambda_max from an explicit sweep at the zero measure
    eta = -p.Y / p.n_data
    V = phi_matrix(p.feature, p.X, p.omega_grid).T @ eta
    lam_star = max(float(np.linalg.norm(v)) for v in V)
    p_high = dataclasses.replace(p, lam=1.05 * lam_star)
    state = fit(p_high, FitOptions(max_atoms=10, seed=0))
    assert state.converged
    assert len(state.measure) == 0
    assert lambda_max(p) == pytest.approx(lam_star, rel=1e-12)


def test_fit_below_half_lambda_max_returns_atoms():
    rng = np.random.default_rng(6)
    p = _neural_problem(rng, n=4, grid_per_dim=5, lam=1.0)
    lam_star = lambda_max(p)
    state = fit(dataclasses.replace(p, lam=0.5 * lam_star), FitOptions(max_atoms=10))
    assert len(state.measure) >= 1


def test_fit_single_point_soft_threshold_closed_form():
    feat = FeatureMap("neural", dx=1, radius=2.0, beta="one", activation="tanh")
    spec = DualPairSpec(1, "l2")
    w = np.array([0.6, 0.3])
    x, y, lam = 0.4, 2.0, 0.1
    phi = math.tanh(0.6 * x + 0.3)
    c_star = (phi * y - lam) / phi**2  # positive branch of the optimality
    p = Problem(
        [[x]], [[y]], lam, feat, spec,
        omega_grid=w[None, :],
    )
    for norm in ("l2", "l1"):
        # the refit stops on objective change, so coefficients carry
        # roughly the square root of that tolerance
        q = dataclasses.replace(p, spec=DualPairSpec(1, norm))
        state = fit(q, FitOptions(max_atoms=3, tol=1e-6, refit_tol=1e-14))
        assert state.converged
        assert len(state.measure) == 1
        got = state.measure.C[0, 0]
        assert got == pytest.approx(c_star, rel=1e-6)


def _grid_optimum(p):
    # the certified grid solve of verify's representer check: tol 1e-9 and
    # an atom budget of the whole grid; (objective, measure, relative gap)
    opts = FitOptions(max_atoms=len(p.omega_grid), tol=1e-9, refit_tol=1e-13)
    state, _, gap = grid_oracle(p, opts)
    return state.objective_history[-1], state.measure, gap


def test_fit_matches_grid_oracle_l2_group():
    rng = np.random.default_rng(7)
    p = _neural_problem(rng, n=4, dim=2, norm="l2", grid_per_dim=7, lam=1.0)
    lam = 0.3 * lambda_max(p)
    p = dataclasses.replace(p, lam=lam)
    state = fit(p, FitOptions(max_atoms=40, tol=1e-6, refit_tol=1e-12))
    ref_obj, _, gap = _grid_optimum(p)
    got = objective(p, state.measure)
    assert abs(got - ref_obj) / ref_obj <= 1e-4
    assert gap <= 1e-7


def test_fit_matches_grid_oracle_l1_norm():
    rng = np.random.default_rng(8)
    p = _neural_problem(rng, n=3, dim=2, norm="l1", grid_per_dim=5, lam=1.0)
    lam = 0.4 * lambda_max(p)
    p = dataclasses.replace(p, lam=lam)
    state = fit(p, FitOptions(max_atoms=40, tol=1e-6, refit_tol=1e-12))
    ref_obj, _, gap = _grid_optimum(p)
    got = objective(p, state.measure)
    assert abs(got - ref_obj) / ref_obj <= 1e-4
    assert gap <= 1e-7


def test_fit_history_non_increasing_and_sparsity():
    rng = np.random.default_rng(9)
    for norm in ("l2", "l1", "l1"):  # three problems, one rng
        p = _neural_problem(rng, n=3, dim=2, norm=norm, grid_per_dim=5, lam=1.0)
        p = dataclasses.replace(p, lam=0.35 * lambda_max(p))
        state = fit(p, FitOptions(max_atoms=20))
        h = state.objective_history
        assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))
        if state.converged:
            assert len(state.measure) <= p.n_data * 2


def test_fit_l1_norm_rows_split_into_at_most_n_d_axis_atoms():
    rng = np.random.default_rng(10)
    p = _neural_problem(rng, n=3, dim=3, norm="l1", grid_per_dim=5, lam=1.0)
    p = dataclasses.replace(p, lam=0.3 * lambda_max(p))
    state = fit(p, FitOptions(max_atoms=20))
    assert len(state.measure)
    # under the l1 norm a row c is exactly the sum of the extreme-point atoms
    # c_i e_i, one per nonzero entry, at the same penalty
    assert np.count_nonzero(state.measure.C) <= p.n_data * p.spec.dim


def test_fit_l1_norm_one_location_holds_one_row_of_two_axis_atoms():
    # one candidate location, the l1 norm and targets along both axes: the
    # fit keeps one row there, the sum of one axis atom per nonzero entry,
    # and reaches the grid oracle's objective
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, (8, 1))
    Y = np.tanh(0.6 * X + 0.3) * [2.0, -1.5] + 0.05 * rng.standard_normal((8, 2))
    p = Problem(X, Y, 0.02, feat, DualPairSpec(2, "l1"),
                omega_grid=[[0.6, 0.3]])
    state = fit(p, FitOptions(max_atoms=5, tol=1e-8, refit_tol=1e-15))
    assert state.converged
    mu = state.measure
    assert mu.W.tolist() == [[0.6, 0.3]]
    assert np.count_nonzero(mu.C) == 2
    ref_obj = _grid_optimum(p)[0]
    assert abs(objective(p, mu) - ref_obj) <= 1e-10 * ref_obj


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(11)
    p = _neural_problem(rng, n=3, dim=2, lam=0.05)
    opts = FitOptions(max_atoms=4, seed=123)
    s1 = fit(p, opts)
    s2 = fit(p, opts)
    assert s1.objective_history == s2.objective_history
    assert len(s1.measure) == len(s2.measure)
    assert np.array_equal(s1.measure.W, s2.measure.W)
    assert np.array_equal(s1.measure.C, s2.measure.C)


def test_fit_refits_a_support_wider_than_the_data_by_fista(monkeypatch):
    # 3 rows of 2 observations: from the fourth atom on, a round refits more
    # payload entries than there are observations, which _group_refit sends
    # to _fista
    calls = []
    fista = solver._fista

    def counted(fam, D, C0, *args):
        calls.append(C0.size > fam.Y.size)
        return fista(fam, D, C0, *args)

    monkeypatch.setattr(solver, "_fista", counted)
    p = _neural_problem(np.random.default_rng(1), n=3, dim=2, lam=0.01)
    state = fit(p, FitOptions(max_atoms=8, seed=1))
    assert calls and all(calls)
    history = state.objective_history
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert objective(p, state.measure) <= history[-1] * (1.0 + 1e-12)


def test_fit_reduces_a_support_over_the_representer_bound(monkeypatch):
    # 3 rows of 2 observations: these wide refits certify 8 atoms, over the
    # N*d_meas = 6 bound; the support is reduced to the bound, and the last
    # history entry is the objective of the returned measure
    reduced = []
    reduce_support = solver._reduce_support

    def counted(fam, L, C):
        reduced.append(len(L))
        return reduce_support(fam, L, C)

    monkeypatch.setattr(solver, "_reduce_support", counted)
    p = _neural_problem(np.random.default_rng(15), n=3, dim=2, lam=0.01)
    state = fit(p, FitOptions(max_atoms=8, seed=15))
    assert reduced and reduced[0] > p.Y.size
    assert state.converged and len(state.measure) <= p.Y.size
    assert abs(objective(p, state.measure) - state.objective_history[-1]) <= 1e-12


def test_scalar_grid_solves_certify_after_wide_refits():
    # on 2 rows, a round with 3 atoms is refit by FISTA, which stopped short
    # of the optimum: 6 of these 20 solves ended with gaps of 2e-7 to 8e-6.
    # Newton steps finish such a refit on the narrow support it leaves.
    for seed in range(20):
        p = _neural_problem(np.random.default_rng(seed), n=2, dim=1, lam=0.02, grid_per_dim=5)
        assert _grid_optimum(p)[2] <= 1e-9


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_reduce_support_keeps_predictions_and_lowers_no_penalty(norm):
    rng = np.random.default_rng(8)
    p = _neural_problem(rng, n=2, dim=2, norm=norm)
    fam = _flat_family(p, FitOptions())
    L, C = rng.uniform(-1.0, 1.0, (9, 2)), rng.standard_normal((9, 2))
    L2, C2 = solver._reduce_support(fam, L, C)
    assert len(L2) <= p.Y.size
    before, after = fam.lift(L) @ C.ravel(), fam.lift(L2) @ C2.ravel()
    assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))
    assert row_norms(C2, norm).sum() <= row_norms(C, norm).sum()


def test_fit_invariant_under_functional_permutation():
    rng = np.random.default_rng(12)
    V = rng.standard_normal((3, 2))
    Y = rng.standard_normal((4, 3))
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l2")
    X = rng.uniform(-1, 1, (4, 1))
    grid = product_grid(1.5, 2, 5)
    perm = [2, 0, 1]
    p1 = Problem(X, Y, 0.05, feat, spec, omega_grid=grid, functionals=V)
    p2 = Problem(X, Y[:, perm], 0.05, feat, spec, omega_grid=grid, functionals=V[perm])
    o1 = objective(p1, fit(p1, FitOptions(max_atoms=15)).measure)
    o2 = objective(p2, fit(p2, FitOptions(max_atoms=15)).measure)
    assert abs(o1 - o2) <= 1e-10


def test_fit_requires_positive_lam():
    rng = np.random.default_rng(13)
    p = _neural_problem(rng, lam=0.0)
    with pytest.raises(ValueError):
        fit(p, FitOptions(max_atoms=2))


def test_fit_stops_when_the_refit_prunes_the_atom_it_inserted(monkeypatch):
    # A refit that zeroes the newest row ends the round on the support it
    # started from, so every later round would propose the same atom again
    # with the same objective; the run ends there as stalled.
    calls = []

    def prune_newest(fam, D, C0, max_iter, tol):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("the CG loop proposes the pruned atom forever")
        C = C0.copy()
        C[-1] = 0.0
        return C, _design_objective(fam, D, C)

    p = _neural_problem(np.random.default_rng(40), n=4, grid_per_dim=5)
    p = dataclasses.replace(p, lam=0.1 * lambda_max(p))
    monkeypatch.setattr(solver, "_group_refit", prune_newest)
    state = fit(p, FitOptions(max_atoms=10, tol=0.0))
    assert len(calls) == 1
    assert state.iterations == 1 and not state.converged
    assert len(state.measure) == 0


# ------------------------------------------------------------- grid oracle

def _grid_teacher(seed, n):
    # four-atom teacher plus noise on the 81-point grid of a 3-d weight ball
    rng = np.random.default_rng(seed)
    feat = FeatureMap("neural", dx=2, radius=2.0, activation="tanh")
    X = rng.uniform(-1.0, 1.0, (n, 2))
    W = rng.uniform(-0.8, 0.8, (4, 3))
    Y = phi_matrix(feat, X, W) @ rng.standard_normal((4, 3))
    Y = Y + 0.05 * rng.standard_normal((n, 3))
    p = Problem(X, Y, 1.0, feat,
                DualPairSpec(3, "l2"), omega_grid=product_grid(2.0, 3, 5))
    return dataclasses.replace(p, lam=0.05 * lambda_max(p))


def test_grid_oracle_refits_its_working_set_by_newton_steps(monkeypatch):
    # 81 grid rows of 3 payload entries on 50 rows of 3 observations: a
    # full-grid refit would be wide and go to FISTA; the working set stays
    # within N*d_meas unknowns
    sizes, fista_calls = [], []
    newton, fista = solver._newton_refit, solver._fista

    def counted_newton(fam, B, C0, *args):
        sizes.append((C0.size, fam.Y.size))
        return newton(fam, B, C0, *args)

    def counted_fista(*args):
        fista_calls.append(1)
        return fista(*args)

    monkeypatch.setattr(solver, "_newton_refit", counted_newton)
    monkeypatch.setattr(solver, "_fista", counted_fista)
    p = _grid_teacher(0, 50)
    assert p.omega_grid.shape == (81, 3)
    obj, mu, gap = _grid_optimum(p)
    assert fista_calls == []
    assert sizes and all(k <= m for k, m in sizes)
    assert all((p.omega_grid == w).all(axis=1).any() for w in mu.W)
    assert gap <= 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_grid_fit_and_its_dual_value_bracket_the_grid_optimum(seed):
    # on a grid the search is exhaustive, so the dual value of a grid fit's
    # duality gap is a lower bound on the grid optimum and the fit's
    # objective an upper one; grid_oracle is that fit and its gap
    p = _grid_teacher(seed, 30)
    opts = FitOptions(max_atoms=40, tol=0.05, seed=seed)
    state, dual, gap = grid_oracle(p, opts)
    assert state.objective_history == fit(p, opts).objective_history
    assert (dual, gap) == _duality_gap(_flat_family(p, opts), state.measure.W,
                                       state.measure.C)[1:]
    fit_obj = state.objective_history[-1]
    obj, grid_mu, oracle_gap = _grid_optimum(p)
    assert dual <= obj * (1.0 + 1e-12)
    assert obj <= fit_obj * (1.0 + 1e-12)
    assert fit_obj - dual == pytest.approx(gap * fit_obj, rel=1e-9)
    assert oracle_gap <= 1e-7
    assert objective(p, grid_mu) == pytest.approx(obj, rel=1e-10)


def test_grid_oracle_requires_positive_lam():
    p = _neural_problem(np.random.default_rng(41), lam=0.0, grid_per_dim=5)
    with pytest.raises(ValueError, match="requires lam > 0"):
        grid_oracle(p, FitOptions())


def test_grid_oracle_requires_a_grid():
    p = _neural_problem(np.random.default_rng(41), lam=0.1)
    with pytest.raises(ValueError, match="needs a problem with an omega_grid"):
        grid_oracle(p, FitOptions())


def test_grid_oracle_huge_lam_returns_zero():
    rng = np.random.default_rng(14)
    p = _neural_problem(rng, n=3, lam=1e6, grid_per_dim=5)
    obj, mu, _ = _grid_optimum(p)
    assert len(mu) == 0
    assert obj == pytest.approx(
        objective(p, empty_measure(p.spec, p.feature.radius)), rel=1e-12
    )


def test_grid_oracle_single_cell_soft_threshold():
    feat = FeatureMap("neural", dx=1, radius=2.0, beta="one", activation="tanh")
    spec = DualPairSpec(1, "l2")
    w = np.array([[0.6, 0.3]])
    x, y, lam = 0.4, 2.0, 0.1
    phi = math.tanh(0.6 * x + 0.3)
    c_star = (phi * y - lam) / phi**2
    p = Problem([[x]], [[y]], lam, feat, spec,
                omega_grid=w)
    obj, mu, _ = _grid_optimum(p)
    assert mu.C[0, 0] == pytest.approx(c_star, rel=1e-6)
    by_hand = 0.5 * (phi * c_star - y) ** 2 + lam * abs(c_star)
    assert obj == pytest.approx(by_hand, rel=1e-10)


def test_grid_oracle_objective_matches_reported_coefficients():
    rng = np.random.default_rng(15)
    p = _neural_problem(rng, n=4, lam=0.08, grid_per_dim=5)
    obj, mu, _ = _grid_optimum(p)
    assert objective(p, mu) == pytest.approx(obj, rel=1e-10)


def test_grid_oracle_rerun_identical():
    rng = np.random.default_rng(16)
    p = _neural_problem(rng, n=3, lam=0.05, grid_per_dim=5)
    o1, mu1, _ = _grid_optimum(p)
    o2, mu2, _ = _grid_optimum(p)
    assert abs(o1 - o2) <= 1e-8
    assert np.array_equal(mu1.W, mu2.W)
    assert np.allclose(mu1.C, mu2.C, atol=1e-10)


# ------------------------------------------------------------- step rules

@pytest.mark.parametrize("n", [40, 3])
def test_refit_step_is_inverse_top_eigenvalue_flat_identity(n):
    # 12 grid rows of 3 payload entries: a tall lifted design at n = 40 and
    # a wide one, stepped from the smaller Gram D D^T, at n = 3
    rng = np.random.default_rng(30)
    p = _neural_problem(rng, n=n, dim=3, grid_per_dim=4)
    fam = _flat_family(p, FitOptions())
    Phi = phi_matrix(p.feature, p.X, p.omega_grid)
    step = _refit_step(fam, fam.lift(p.omega_grid))[0]
    assert step == pytest.approx(p.n_data / np.linalg.norm(Phi, 2) ** 2, rel=1e-12)


def test_refit_step_zero_design_is_finite():
    rng = np.random.default_rng(31)
    p = _neural_problem(rng, n=5, dim=2)
    fam = _flat_family(p, FitOptions())
    # 3 rows of 2 payload entries on 5 rows of 2 observations
    step = _refit_step(fam, np.zeros((10, 6)))[0]
    assert math.isfinite(step) and step > 0


def _group_lasso(rng, n=30, m=5, dim=2, lam=0.05):
    # the design Phi on m free rows of dim entries, lifted to kron(Phi, I)
    Phi = rng.standard_normal((n, m))
    Y = rng.standard_normal((n, dim))
    fam = _AtomFamily(Y=Y, lam=lam, norm="l2", dim=dim, width=1,
                      lift=None, search=None)
    lip = np.linalg.norm(Phi, 2) ** 2 / n
    return fam, np.kron(Phi, np.eye(dim)), np.zeros((m, dim)), lip


def _prox_l2_masked(Z, tau):
    # the l2 branch as it was written with a silenced division
    norms = np.sqrt(np.sum(Z * Z, axis=-1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(norms > tau, 1.0 - tau / norms, 0.0)
    return Z * scale


def test_prox_rows_l2_is_bitwise_the_masked_formula_and_silent():
    rng = np.random.default_rng(41)
    cases = [(rng.standard_normal((m, d)), float(tau))
             for m, d in [(1, 1), (5, 3), (40, 2)]
             for tau in rng.uniform(0.0, 2.0, 3)]
    Z = rng.standard_normal((6, 3))
    Z[1] = 0.0
    Z[2] = -0.0
    Z[3] *= 0.8 / np.sqrt(np.dot(Z[3], Z[3]))   # norm exactly tau (up to rounding)
    Z[4, 1] = np.nan
    tau_row = float(np.sqrt(np.sum(Z[3] * Z[3])))
    cases += [(Z, 0.0), (Z, 0.8), (Z, tau_row), (np.zeros((3, 2)), 0.0),
              (np.zeros((3, 2)), 0.5)]
    for Z, tau in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _prox_rows(Z, tau, "l2")
        want = _prox_l2_masked(Z, tau)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_fista_long_step_stays_monotone_and_reaches_minimizer():
    fam, D, C0, lip = _group_lasso(np.random.default_rng(32))
    start = _design_objective(fam, D, C0)
    # the first k iterations are a prefix of the run, so this is the sequence
    objs = [_fista(fam, D, C0, 10.0 / lip, k, 0.0)[1] for k in range(1, 40)]
    assert max(objs) <= start
    # non-increasing up to the line search's rounding slack
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    C_long, obj_long = _fista(fam, D, C0, 10.0 / lip, 20000, 1e-15)
    C_safe, obj_safe = _fista(fam, D, C0, 1.0 / lip, 20000, 1e-15)
    assert abs(obj_long - obj_safe) <= 1e-12 * obj_safe
    # a stop on objective change pins the minimizer down to about the square
    # root of the objective's rounding, ~1e-8 here
    assert np.max(np.abs(C_long - C_safe)) <= 1e-7


def test_ascend_grows_its_step_to_an_interior_maximizer():
    feat = FeatureMap("neural", dx=2, radius=2.0, beta="one", activation="tanh")
    h = np.array([40.0, 25.0, 16.0])
    c = np.array([0.3, -0.2, 0.5])
    calls = []

    def value(L):
        calls.append(1)
        return -float(np.sum(h * (L - c) ** 2)), None

    def direction(L, state):
        return -2.0 * h * (L - c)

    L, _, score = _ascend(value, direction, (feat,), np.array([1.0, 1.0, -0.5]))
    assert np.max(np.abs(L - c)) <= 1e-6
    # restarting every step at 1.0 and halving took 98 evaluations
    assert len(calls) <= 50


def test_ascend_returns_the_start_at_a_zero_direction():
    # a stationary start: no trial step is taken, and the start's state and
    # score come back with a copy of the start
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    start, calls = np.array([0.3, -0.2]), []

    def value(L):
        calls.append(L.copy())
        return 0.7, "start state"

    L, state, score = _ascend(value, lambda L, state: np.zeros(2), (feat,), start)
    assert np.array_equal(L, start) and L is not start
    assert (state, score) == ("start state", 0.7)
    assert len(calls) == 1


def test_ascend_returns_the_start_when_no_step_passes_armijo():
    # a direction along which the score falls: every trial, halving from the
    # first step 1 down to 1e-12, fails the Armijo test, and the ascent ends
    # at its start
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    start, calls = np.array([0.5, -0.25]), []

    def value(L):
        calls.append(L.copy())
        return -float(np.sum(L)), len(calls)

    L, state, score = _ascend(value, lambda L, state: np.ones(2), (feat,), start)
    assert np.array_equal(L, start)
    assert (state, score) == (1, -0.25)
    # the start, then the 40 trial steps 2^-k for k = 0 .. 39 (2^-40 < 1e-12)
    assert len(calls) == 41
    assert all(not np.array_equal(c, start) for c in calls[1:])


# ----------------------------------------------------------- lifted design

def _design_objective(fam, D, C):
    # the refit objective of payload rows C on the lifted design D
    return solver._objective(fam, (D @ C.ravel()).reshape(fam.Y.shape) - fam.Y, C)


def _unit_probe(predict, k, dim):
    # column (m, i): the predictions of the unit payload e_i at atom m
    units = np.eye(k * dim).reshape(-1, k, dim)
    return np.stack([predict(E).ravel() for E in units], axis=1)


def _probe_flat(functionals, dim=3, seed=60):
    rng = np.random.default_rng(seed)
    p = _neural_problem(rng, n=7, dim=dim, functionals=functionals)
    W = rng.uniform(-1.0, 1.0, (4, p.feature.dw))
    Phi = phi_matrix(p.feature, p.X, W)
    return _flat_family(p, FitOptions()), W, _unit_probe(
        lambda C: Phi @ C if functionals is None else Phi @ C @ p.functionals.T, 4, dim)


def _probe_product():
    rng = np.random.default_rng(62)
    phi = psi = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    Z = rng.uniform(-1.0, 1.0, (6, 1))
    V = rng.standard_normal((4, 2))
    sampling = SampledMeasurement(np.linspace(-1.0, 1.0, 4)[:, None], V)
    fam = _product_family(Z, rng.standard_normal((6, 4)), sampling, phi, psi,
                          DualPairSpec(2, "l2"), 1.0)
    L = rng.uniform(-1.0, 1.0, (5, phi.dw + psi.dw))
    Phi, Psi = phi_matrix(phi, Z, L[:, :2]), phi_matrix(psi, sampling.points, L[:, 2:])
    return fam, L, _unit_probe(lambda C: Phi @ (Psi.T * (C @ V.T)), 5, 2)


PROBE_CASES = {
    "flat-identity": lambda: _probe_flat(None),
    "flat-functionals": lambda: _probe_flat(
        np.random.default_rng(63).standard_normal((2, 3))),
    # scalar payloads, one design column per atom
    "flat-d1-identity": lambda: _probe_flat(None, dim=1, seed=61),
    "flat-d1-functionals": lambda: _probe_flat(
        np.random.default_rng(64).standard_normal((2, 1)),
        dim=1, seed=61),
    "product": _probe_product,
}


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_lift_is_the_unit_payload_probe(case):
    # every entry of D is one product of the factors the probe multiplies
    # for its single nonzero term, so the two agree byte for byte once the
    # sign of zero is dropped (adding 0.0 maps -0.0 to 0.0): a zero of the
    # lift is a product, which keeps the sign of phi, a zero of the probe a sum
    fam, L, probe = PROBE_CASES[case]()
    D = fam.lift(L)
    assert D.shape == probe.shape == (fam.Y.size, len(L) * fam.dim)
    assert (D + 0.0).tobytes() == (probe + 0.0).tobytes()


@pytest.mark.parametrize("functionals", [None, np.array([[0.5, -1.0, 0.0], [-2.0, 0.0, 1.5]])],
                         ids=["identity", "functionals"])
def test_flat_lift_is_kron_of_phi_and_the_functionals_bit_for_bit(functionals):
    # the product design with a base level of ones multiplies each entry of
    # Phi by M[j, i] once, so every bit, the sign of zero included, is that
    # of kron(Phi, M); the atom at the origin gives zero columns of tanh
    rng = np.random.default_rng(65)
    p = _neural_problem(rng, n=5, dim=3, functionals=functionals)
    W = np.vstack([rng.uniform(-1.0, 1.0, (3, p.feature.dw)), np.zeros(p.feature.dw)])
    M = np.eye(3) if functionals is None else p.functionals
    Phi = phi_matrix(p.feature, p.X, W)
    kron = (Phi[:, None, :, None] * M[:, None, :]).reshape(p.Y.size, len(W) * 3)
    assert _flat_family(p, FitOptions()).lift(W).tobytes() == kron.tobytes()


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_lift_of_no_atoms_has_no_columns(case):
    fam = PROBE_CASES[case]()[0]
    assert fam.lift(np.zeros((0, fam.width))).shape == (fam.Y.size, 0)


# ------------------------------------------------------------ newton refit

def _at_fraction(fam, D, frac):
    # lam at ``frac`` of the smallest lam for which zero payloads are optimal
    dual = {"l1": "linf", "l2": "l2"}[fam.norm]
    pulled = (D.T @ fam.Y.ravel()).reshape(-1, fam.dim) / fam.Y.shape[0]
    return dataclasses.replace(fam, lam=frac * float(np.max(row_norms(pulled, dual))))


def _flat_case(seed, n, dim, norm, k, functionals=None, duplicate=False):
    rng = np.random.default_rng(seed)
    p = _neural_problem(rng, n=n, dim=dim, norm=norm, functionals=functionals)
    fam = _flat_family(p, FitOptions())
    W = rng.uniform(-1.0, 1.0, (k - duplicate, p.feature.dw))
    if duplicate:
        W = np.vstack([W, W[1]])
    return fam, fam.lift(W), k


def _product_case(seed):
    rng = np.random.default_rng(seed)
    phi = psi = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    Z = rng.uniform(-1.0, 1.0, (6, 1))
    V = rng.standard_normal((4, 2))
    sampling = SampledMeasurement(np.linspace(-1.0, 1.0, 4)[:, None], V)
    fam = _product_family(Z, rng.standard_normal((6, 4)), sampling, phi, psi,
                          DualPairSpec(2, "l2"), 1.0)
    L = rng.uniform(-1.0, 1.0, (6, phi.dw + psi.dw))
    return fam, fam.lift(L), 6


NEWTON_CASES = {
    "l2-d3": lambda s: _flat_case(s, 8, 3, "l2", 5),
    "l1-d3": lambda s: _flat_case(s, 8, 3, "l1", 5),
    "l2-d1": lambda s: _flat_case(s, 10, 1, "l2", 6),
    "l1-d1": lambda s: _flat_case(s, 10, 1, "l1", 6),
    "functionals": lambda s: _flat_case(
        s, 10, 3, "l2", 5,
        np.random.default_rng(s).standard_normal((2, 3))),
    "l1-functionals": lambda s: _flat_case(
        s, 10, 3, "l1", 5,
        np.random.default_rng(s).standard_normal((3, 3))),
    "product": _product_case,
    "K-equals-N-dmeas": lambda s: _flat_case(s, 4, 3, "l2", 4),
    "duplicated-location": lambda s: _flat_case(s, 8, 2, "l2", 5, duplicate=True),
}


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
@pytest.mark.parametrize("frac", [0.005, 0.02, 0.3])
def test_newton_refit_matches_fista(case, frac):
    for seed in range(5):
        fam, D, k = NEWTON_CASES[case](seed)
        fam = _at_fraction(fam, D, frac)
        C0 = np.zeros((k, fam.dim))
        assert C0.size <= fam.Y.size
        C_n, obj_n = _newton_refit(fam, D, C0, 5000, 1e-14)
        C_f, obj_f = _fista(fam, D, C0, _refit_step(fam, D)[0], 20000, 1e-14)
        assert obj_n == pytest.approx(_design_objective(fam, D, C_n), rel=1e-12)
        assert abs(obj_n - obj_f) <= 1e-9 * max(1.0, obj_f)
        assert obj_n <= _design_objective(fam, D, C0)


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
def test_newton_refit_never_raises_the_starting_objective(case):
    for seed in range(3):
        fam, D, k = NEWTON_CASES[case](seed)
        fam = _at_fraction(fam, D, 0.1)
        C0 = np.random.default_rng(seed + 50).standard_normal((k, fam.dim))
        start = _design_objective(fam, D, C0)
        for max_iter in (1, 2, 5000):
            assert _newton_refit(fam, D, C0, max_iter, 1e-14)[1] <= start


def test_group_refit_routes_wide_designs_to_fista(monkeypatch):
    calls = []
    fista = solver._fista

    def counted(*args):
        calls.append(1)
        return fista(*args)

    monkeypatch.setattr(solver, "_fista", counted)
    fam, D, k = _flat_case(0, 8, 3, "l2", 5)
    C0 = np.zeros((k, 3))
    _group_refit(fam, D, C0, 100, 1e-10)
    assert calls == []  # 5 rows of 3 payload entries on 8 rows of 3 observations
    wide, D_wide, _ = _flat_case(0, 8, 3, "l2", 9)
    _group_refit(wide, D_wide, np.zeros((9, 3)), 100, 1e-10)
    assert calls == [1]  # 9 rows


SINGULAR_SINGLE_ENTRY_CASES = {
    # 2 functionals of 3 entries on 10 rows: rank 10 of the 15 columns
    "l1-functionals-2x3": lambda s: _flat_case(
        s, 10, 3, "l1", 5,
        np.random.default_rng(s).standard_normal((2, 3))),
    "l1-duplicated-location": lambda s: _flat_case(s, 8, 2, "l1", 5, duplicate=True),
}


@pytest.mark.parametrize("case", sorted(SINGULAR_SINGLE_ENTRY_CASES))
def test_group_refit_matches_fista_on_singular_single_entry_groups(case):
    # single-entry groups add no Newton curvature, so on a singular Gram the
    # support Newton step failed and the refit stalled above the optimum
    # (seed 1 of the functionals case: 0.6135 against FISTA's 0.5887); such
    # a design now goes to _fista
    for seed in range(3):
        fam, D, k = SINGULAR_SINGLE_ENTRY_CASES[case](seed)
        fam = _at_fraction(fam, D, 0.005)
        C0 = np.zeros((k, fam.dim))
        assert C0.size <= fam.Y.size
        obj = _group_refit(fam, D, C0, 5000, 1e-14)[1]
        obj_f = _fista(fam, D, C0, _refit_step(fam, D)[0], 20000, 1e-14)[1]
        assert abs(obj - obj_f) <= 1e-9 * max(1.0, obj_f)


# ------------------------------------------------------------------ export

def test_export_single_atom_network():
    feat = FeatureMap("neural", dx=2, radius=2.0, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l2")
    mu = measure_from_arrays([[0.5, -0.3, 0.1]], [[1.0, -2.0]], spec, 2.0)
    state = SolverState(mu, (0.0,), 0.0, 0, 0, feat, True)
    net = export_network(state)
    assert net.U.shape == (2, 1)
    assert net.W.shape == (1, 2)
    x = np.array([0.4, 0.7])
    expected = math.tanh(0.5 * 0.4 - 0.3 * 0.7 + 0.1) * np.array([1.0, -2.0])
    assert np.allclose(network_apply(net, x[None, :])[0], expected, rtol=1e-14)


def test_export_empty_network():
    feat = FeatureMap("neural", dx=1, radius=1.0, beta="one", activation="tanh")
    spec = DualPairSpec(3, "l2")
    state = SolverState(empty_measure(spec, 1.0), (0.0,), 0.0, 0, 0, feat, True)
    net = export_network(state)
    assert net.U.shape == (3, 0)
    assert np.all(network_apply(net, [[0.2]]) == 0.0)


def test_export_identity_many_atoms():
    rng = np.random.default_rng(17)
    feat = FeatureMap(
        "neural", dx=2, radius=2.0, beta="smooth_bump", activation="sigmoid"
    )
    spec = DualPairSpec(3, "l2")
    W = rng.uniform(-1.0, 1.0, (6, 3))
    C = rng.standard_normal((6, 3))
    mu = measure_from_arrays(W, C, spec, 2.0)
    state = SolverState(mu, (0.0,), 0.0, 0, 0, feat, True)
    net = export_network(state)
    X = rng.uniform(-1.5, 1.5, (100, 2))
    direct = phi_matrix(feat, X, W) @ C
    out = network_apply(net, X)
    denom = np.maximum(1.0, np.abs(direct))
    assert np.max(np.abs(out - direct) / denom) <= 1e-12


def test_export_rejects_non_neural():
    spec = DualPairSpec(1, "l2")
    state = SolverState(empty_measure(spec, 1.0), (0.0,), 0.0, 0, 0, _tab_feature(), True)
    with pytest.raises(ValueError):
        export_network(state)


def test_network_json_shape():
    feat = FeatureMap("neural", dx=1, radius=1.0, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l2")
    mu = measure_from_arrays([[0.1, 0.2]], [[1.0, 2.0]], spec, 1.0)
    state = SolverState(mu, (0.0,), 0.0, 0, 0, feat, True)
    d = network_to_json_dict(export_network(state))
    assert list(d.keys()) == ["U", "W", "B"]
    assert d["W"] == [[0.1]]
    assert d["B"] == [0.2]
