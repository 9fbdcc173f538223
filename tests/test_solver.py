import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vvrkbs.dual_pair import DualPairSpec, dual_norm_value, primal_witness
from vvrkbs.feature import ACTIVATIONS, FeatureMap, eval_phi, grad_phi_w_batch, phi_matrix
from vvrkbs.measure import empty_measure, measure_from_arrays, total_variation
from vvrkbs.solver import (
    FitOptions,
    MeasurementOp,
    Problem,
    SolverError,
    SolverState,
    export_network,
    fit,
    functionals_measurement,
    grid_oracle,
    identity_measurement,
    lambda_max,
    lmo,
    measurement_adjoint,
    measurement_apply,
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
    _fista,
    _flat_family,
    _group_refit,
    _newton_refit,
    _oracle_score,
    _pinned,
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
    measurement=None,
):
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(dim, norm)
    meas = measurement if measurement is not None else identity_measurement()
    d_meas = dim if meas.kind == "identity" else meas.matrix.shape[0]
    X = rng.uniform(-1.0, 1.0, (n, 1))
    Y = rng.standard_normal((n, d_meas))
    grid = None
    if grid_per_dim is not None:
        grid = product_grid(feat.radius, feat.dw, grid_per_dim)
    return Problem(
        X, Y, meas, lam, feat, spec, omega_grid=grid
    )


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
    p = Problem([[0.1], [0.2]], Y, identity_measurement(), 0.5, feat, spec)
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
    args = {"X": [[0.1]], "Y": [[1.0, 0.0]],
            "measurement": identity_measurement(), "lam": 0.1, "feature": feat,
            "spec": DualPairSpec(2, "l2"), "omega_grid": [[0.1, 0.2]]}
    Problem(**args)
    args[field] = value
    with pytest.raises(ValueError, match=fault):
        Problem(**args)


# ------------------------------------------------------------- measurement

def test_measurement_apply_and_adjoint():
    V = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    m = functionals_measurement(V)
    U = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(measurement_apply(m, U), U @ V.T)
    G = np.array([[0.5, -1.0]])
    assert np.allclose(measurement_adjoint(m, G), G @ V)


def test_measurement_validation():
    with pytest.raises(ValueError):
        MeasurementOp("identity", np.eye(2))
    with pytest.raises(ValueError):
        MeasurementOp("functionals")
    with pytest.raises(ValueError):
        MeasurementOp("averages")


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
    p = Problem(X, Y, identity_measurement(), 0.0, feat, spec)
    mu = measure_from_arrays([w], [c], spec, feat.radius)
    assert objective(p, mu) == pytest.approx(0.0, abs=1e-15)


def test_objective_tiny_instance_by_hand():
    feat = _tab_feature()
    spec = DualPairSpec(1, "l2")
    X = np.array([[-1.0], [0.5]])
    Y = np.array([[1.0], [-0.5]])
    w, c, lam = 0.25, 0.8, 0.7
    p = Problem(X, Y, identity_measurement(), lam, feat, spec)
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
        [[0.3]], [[1.0, 0.0]], identity_measurement(), 0.1, feat, spec,
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
        X, np.zeros((3, 2)), identity_measurement(), 0.1, feat, spec,
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
    _, _, score = lmo(p, eta, restarts=16, seed=7)
    assert score >= grid_best - 1e-6


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
    p = Problem(X, np.zeros((n, dim)), identity_measurement(), 0.1, feat,
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
        [[x]], [[y]], identity_measurement(), lam, feat, spec,
        omega_grid=w[None, :],
    )
    for mode in ("group", "l1"):
        # the refit stops on objective change, so coefficients carry
        # roughly the square root of that tolerance
        state = fit(p, FitOptions(max_atoms=3, mode=mode, tol=1e-6, refit_tol=1e-14))
        assert state.converged
        assert len(state.measure) == 1
        got = state.measure.C[0, 0]
        assert got == pytest.approx(c_star, rel=1e-6)


def test_fit_matches_grid_oracle_l2_group():
    rng = np.random.default_rng(7)
    p = _neural_problem(rng, n=4, dim=2, norm="l2", grid_per_dim=7, lam=1.0)
    lam = 0.3 * lambda_max(p)
    p = dataclasses.replace(p, lam=lam)
    state = fit(p, FitOptions(max_atoms=40, mode="group", tol=1e-6, refit_tol=1e-12))
    ref_obj, _, gap = grid_oracle(p, 7)
    got = objective(p, state.measure)
    assert abs(got - ref_obj) / ref_obj <= 1e-4
    assert gap <= 1e-7


def test_fit_matches_grid_oracle_l1_mode():
    rng = np.random.default_rng(8)
    p = _neural_problem(rng, n=3, dim=2, norm="l1", grid_per_dim=5, lam=1.0)
    lam = 0.4 * lambda_max(p)
    p = dataclasses.replace(p, lam=lam)
    state = fit(p, FitOptions(max_atoms=40, mode="l1", tol=1e-6, refit_tol=1e-12))
    ref_obj, _, gap = grid_oracle(p, 5)
    got = objective(p, state.measure)
    assert abs(got - ref_obj) / ref_obj <= 1e-4
    assert gap <= 1e-7


def test_fit_history_non_increasing_and_sparsity():
    rng = np.random.default_rng(9)
    for norm, mode in (("l2", "group"), ("l1", "l1"), ("l1", "group")):
        p = _neural_problem(rng, n=3, dim=2, norm=norm, grid_per_dim=5, lam=1.0)
        p = dataclasses.replace(p, lam=0.35 * lambda_max(p))
        state = fit(p, FitOptions(max_atoms=20, mode=mode))
        h = state.objective_history
        assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))
        if state.converged:
            assert len(state.measure) <= p.n_data * 2


def test_fit_rejects_l1_mode_with_an_l2_primal_norm():
    # the l2 ball's extreme points are a continuum: l1 mode would stack
    # directions at one w instead of rotating one.  In d = 1 both norms
    # are |.| and l1 mode stays.
    rng = np.random.default_rng(9)
    for grid_per_dim in (5, None):
        p = _neural_problem(rng, n=3, dim=2, norm="l2", grid_per_dim=grid_per_dim)
        with pytest.raises(ValueError, match="mode 'l1' needs the l1 primal norm"):
            fit(p, FitOptions(max_atoms=20, mode="l1"))
    p = _neural_problem(rng, n=3, dim=1, norm="l2", grid_per_dim=5)
    assert fit(p, FitOptions(max_atoms=20, mode="l1")).converged


def test_fit_l1_mode_payloads_are_axis_aligned():
    rng = np.random.default_rng(10)
    p = _neural_problem(rng, n=3, dim=3, norm="l1", grid_per_dim=5, lam=1.0)
    p = dataclasses.replace(p, lam=0.3 * lambda_max(p))
    state = fit(p, FitOptions(max_atoms=20, mode="l1"))
    assert len(state.measure)
    for c in state.measure.C:
        off_axis = np.sort(np.abs(c))[:-1]
        assert np.all(off_axis <= 1e-10)


def test_fit_l1_mode_splits_one_location_into_one_atom_per_axis():
    # one candidate location, the l1 norm and targets along both axes: l1
    # mode keeps one atom per (w, direction), and it solves group mode's
    # convex problem, whose penalty on the single row is the same l1 norm
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, (8, 1))
    Y = np.tanh(0.6 * X + 0.3) * [2.0, -1.5] + 0.05 * rng.standard_normal((8, 2))
    p = Problem(X, Y, identity_measurement(), 0.02, feat, DualPairSpec(2, "l1"),
                omega_grid=[[0.6, 0.3]])
    states = {mode: fit(p, FitOptions(max_atoms=5, mode=mode, tol=1e-8, refit_tol=1e-15))
              for mode in ("l1", "group")}
    assert all(s.converged for s in states.values())
    mu = states["l1"].measure
    assert mu.W.tolist() == [[0.6, 0.3], [0.6, 0.3]]
    assert sorted(int(np.flatnonzero(c)[0]) for c in mu.C) == [0, 1]
    assert np.count_nonzero(mu.C) == 2
    assert len(states["group"].measure) == 1
    obj = {mode: objective(p, s.measure) for mode, s in states.items()}
    assert abs(obj["l1"] - obj["group"]) <= 1e-10 * obj["group"]


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(11)
    p = _neural_problem(rng, n=3, dim=2, lam=0.05)
    opts = FitOptions(max_atoms=4, restarts=6, seed=123)
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
    state = fit(p, FitOptions(max_atoms=8, restarts=4, seed=1))
    assert calls and all(calls)
    history = state.objective_history
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert objective(p, state.measure) <= history[-1] * (1.0 + 1e-12)


def test_fit_invariant_under_functional_permutation():
    rng = np.random.default_rng(12)
    V = rng.standard_normal((3, 2))
    Y = rng.standard_normal((4, 3))
    feat = FeatureMap("neural", dx=1, radius=1.5, beta="one", activation="tanh")
    spec = DualPairSpec(2, "l2")
    X = rng.uniform(-1, 1, (4, 1))
    grid = product_grid(1.5, 2, 5)
    perm = [2, 0, 1]
    p1 = Problem(X, Y, functionals_measurement(V), 0.05, feat, spec,
                 omega_grid=grid)
    p2 = Problem(X, Y[:, perm], functionals_measurement(V[perm]), 0.05,
                 feat, spec, omega_grid=grid)
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
    p = Problem(X, Y, identity_measurement(), 1.0, feat,
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
    obj, C, gap = grid_oracle(p, 5)
    assert fista_calls == []
    assert sizes and all(k <= m for k, m in sizes)
    assert C.shape == (81, 3)
    assert gap <= 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_grid_oracle_continues_a_grid_fit_to_the_same_optimum(seed):
    # the grid-restricted fit and the oracle are one engine on one grid, so
    # the oracle may start from the fit's measure and still certify
    p = _grid_teacher(seed, 30)
    mu = fit(p, FitOptions(max_atoms=40, tol=0.05, seed=seed)).measure
    obj0, C0, gap0 = grid_oracle(p, 5)
    obj, C, gap = grid_oracle(p, 5, start=(mu.W, mu.C))
    assert C.shape == C0.shape == (81, 3)
    assert gap <= 1e-7 and gap0 <= 1e-7
    assert obj == pytest.approx(obj0, rel=1e-8)
    grid_mu = measure_from_arrays(p.omega_grid, C, p.spec, p.feature.radius)
    assert objective(p, grid_mu) == pytest.approx(obj, rel=1e-10)
    # a start at the optimum stays there
    at = row_norms(C, "l2") > 0.0
    again = grid_oracle(p, 5, start=(p.omega_grid[at], C[at]))
    assert again[0] == pytest.approx(obj, rel=1e-12)


def test_grid_oracle_rejects_a_start_off_the_grid():
    p = _grid_teacher(0, 12)
    W = p.omega_grid[[3, 40]].copy()
    C = np.ones((2, 3))
    grid_oracle(p, 5, start=(W, C))
    W[1, 0] += 1e-9  # no snapping to the nearest grid point
    with pytest.raises(ValueError, match="not a grid point"):
        grid_oracle(p, 5, start=(W, C))
    for bad in [(W[:, :2], C), (W, C[:1])]:
        with pytest.raises(ValueError, match="start"):
            grid_oracle(p, 5, start=bad)


def test_grid_oracle_requires_positive_lam():
    p = _neural_problem(np.random.default_rng(41), lam=0.0)
    with pytest.raises(ValueError, match="requires lam > 0"):
        grid_oracle(p, 5)



def test_grid_oracle_huge_lam_returns_zero():
    rng = np.random.default_rng(14)
    p = _neural_problem(rng, n=3, lam=1e6)
    obj, C, _ = grid_oracle(p, 5)
    assert np.all(C == 0.0)
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
    p = Problem([[x]], [[y]], identity_measurement(), lam, feat, spec,
                omega_grid=w)
    obj, C, _ = grid_oracle(p, 1)
    assert C[0, 0] == pytest.approx(c_star, rel=1e-6)
    by_hand = 0.5 * (phi * c_star - y) ** 2 + lam * abs(c_star)
    assert obj == pytest.approx(by_hand, rel=1e-10)


def test_grid_oracle_objective_matches_reported_coefficients():
    rng = np.random.default_rng(15)
    p = _neural_problem(rng, n=4, lam=0.08)
    obj, C, _ = grid_oracle(p, 5)
    grid = product_grid(p.feature.radius, 2, 5)
    mu = measure_from_arrays(grid, C, p.spec, p.feature.radius)
    assert objective(p, mu) == pytest.approx(obj, rel=1e-10)


def test_grid_oracle_rerun_identical():
    rng = np.random.default_rng(16)
    p = _neural_problem(rng, n=3, lam=0.05)
    o1, C1, _ = grid_oracle(p, 5)
    o2, C2, _ = grid_oracle(p, 5)
    assert abs(o1 - o2) <= 1e-8
    assert np.allclose(C1, C2, atol=1e-10)


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


# ----------------------------------------------------------- lifted design

def _design_objective(fam, D, C):
    # the refit objective of payload rows C on the lifted design D
    return solver._objective(fam, (D @ C.ravel()).reshape(fam.Y.shape) - fam.Y, C)


def _unit_probe(predict, k, dim):
    # column (m, i): the predictions of the unit payload e_i at atom m
    units = np.eye(k * dim).reshape(-1, k, dim)
    return np.stack([predict(E).ravel() for E in units], axis=1)


def _probe_flat(measurement):
    rng = np.random.default_rng(60)
    p = _neural_problem(rng, n=7, dim=3, measurement=measurement)
    W = rng.uniform(-1.0, 1.0, (4, p.feature.dw))
    Phi = phi_matrix(p.feature, p.X, W)
    return _flat_family(p, FitOptions()), W, _unit_probe(
        lambda C: measurement_apply(p.measurement, Phi @ C), 4, 3)


def _probe_pinned(measurement):
    # signed unit directions, as the l1 witness gives
    rng = np.random.default_rng(61)
    p = _neural_problem(rng, n=7, dim=3, norm="l1", measurement=measurement)
    W = rng.uniform(-1.0, 1.0, (5, p.feature.dw))
    U = np.eye(3)[rng.integers(0, 3, 5)] * rng.choice([-1.0, 1.0], (5, 1))
    Phi, MU = phi_matrix(p.feature, p.X, W), measurement_apply(p.measurement, U)
    return (_pinned(_flat_family(p, FitOptions())), np.hstack([W, U]),
            _unit_probe(lambda a: (Phi * a[:, 0]) @ MU, 5, 1))


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
        functionals_measurement(np.random.default_rng(63).standard_normal((2, 3)))),
    "pinned-identity": lambda: _probe_pinned(None),
    "pinned-functionals": lambda: _probe_pinned(
        functionals_measurement(np.random.default_rng(64).standard_normal((2, 3)))),
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


def _flat_case(seed, n, dim, norm, k, measurement=None, duplicate=False):
    rng = np.random.default_rng(seed)
    p = _neural_problem(rng, n=n, dim=dim, norm=norm, measurement=measurement)
    fam = _flat_family(p, FitOptions())
    W = rng.uniform(-1.0, 1.0, (k - duplicate, p.feature.dw))
    if duplicate:
        W = np.vstack([W, W[1]])
    return fam, fam.lift(W), k


def _pinned_case(seed):
    rng = np.random.default_rng(seed)
    p = _neural_problem(rng, n=6, dim=3, norm="l1")
    fam = _pinned(_flat_family(p, FitOptions()))
    W = rng.uniform(-1.0, 1.0, (5, p.feature.dw))
    U = np.eye(3)[rng.integers(0, 3, 5)] * rng.choice([-1.0, 1.0], (5, 1))
    return fam, fam.lift(np.hstack([W, U])), 5


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
        s, 10, 3, "l2", 5, functionals_measurement(np.random.default_rng(s).standard_normal((2, 3)))),
    "pinned": _pinned_case,
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
