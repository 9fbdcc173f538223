import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vvrkbs.dual_pair import DualPairSpec
from vvrkbs.feature import (
    ACTIVATIONS,
    BETAS,
    FeatureMap,
    activation_values,
    beta_grad,
    beta_values,
    bind_locations,
    eval_phi,
    feature_column,
    feature_from_json_dict,
    feature_to_json_dict,
    grad_phi_w,
    grad_phi_w_batch,
    grid_sup_abs,
    phi_bound,
    phi_matrix,
    simple_approx_pairing,
)
from vvrkbs.measure import (
    AtomicVectorMeasure,
    measure_from_arrays,
    product_pairing,
    total_variation,
)


def _central_diff(f, x, w, h=1e-5):
    # independent finite-difference oracle for the w-gradient
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (eval_phi(f, x, wp) - eval_phi(f, x, wm)) / (2 * h)
    return g


# ------------------------------------------------------------- construction

def test_relu_without_truncation_rejected():
    with pytest.raises(ValueError):
        FeatureMap("neural", dx=2, radius=2.0, beta="one", activation="relu")


def test_bounded_activations_allow_beta_one():
    for act in ("tanh", "sigmoid", "gaussian_rbf"):
        f = FeatureMap("neural", dx=2, radius=2.0, beta="one", activation=act)
        assert f.dw == 3


def test_bad_enums_rejected():
    with pytest.raises(ValueError):
        FeatureMap("fourier", dx=1, radius=1.0)
    with pytest.raises(ValueError):
        FeatureMap("neural", dx=1, radius=1.0, activation="swish")
    with pytest.raises(ValueError):
        FeatureMap("neural", dx=1, radius=1.0, activation="tanh", beta="two")


TABLE = {"x_grid": [0.0, 0.5, 1.0], "w_grid": [-1.0, 1.0],
         "values": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]}


@pytest.mark.parametrize("kind,key,value,fault", [
    ("neural", "radius", math.nan, "radius must be finite and positive"),
    ("neural", "radius", math.inf, "radius must be finite and positive"),
    ("gaussian", "bandwidth", math.nan, "bandwidth must be finite and positive"),
    ("gaussian", "bandwidth", math.inf, "bandwidth must be finite and positive"),
    ("tabulated", "x_grid", [0.0, math.nan, 1.0], "x_grid must be finite"),
    ("tabulated", "w_grid", [-1.0, math.nan], "w_grid must be finite"),
    ("tabulated", "values", [[0.0, 1.0], [2.0, math.inf], [4.0, 5.0]], "values must be finite"),
    ("tabulated", "values", [[0.0, 1.0], [2.0, 3.0], [math.nan, 5.0]], "values must be finite"),
], ids=["radius-nan", "radius-inf", "bandwidth-nan", "bandwidth-inf", "x_grid-nan",
        "w_grid-nan", "values-inf", "values-nan"])
def test_non_finite_parameters_rejected(kind, key, value, fault):
    # a NaN compares false with everything and an inf is positive and
    # increasing, so neither fails a sign or an ordering test
    base = {"neural": {"activation": "tanh"}, "gaussian": {}, "tabulated": TABLE}[kind]
    with pytest.raises(ValueError, match=fault):
        FeatureMap(kind, dx=1, **{"radius": 1.5, **base, key: value})


# ------------------------------------------------------------------- values

def test_neural_relu_direct_formula():
    # relu(<omega,x>+b) inside the ball, hard cutoff inactive there
    f = FeatureMap("neural", dx=2, radius=2.0, beta="hard", activation="relu")
    assert eval_phi(f, [1, 1], [1, -1, 0.5]) == 0.5


def test_cutoff_kills_outside_ball():
    for beta in ("smooth_bump", "hard"):
        f = FeatureMap("neural", dx=1, radius=1.5, beta=beta, activation="tanh")
        w = np.array([3.0, 0.0])  # ||w|| = 2R
        assert eval_phi(f, [0.7], w) == 0.0


def test_tanh_odd_at_origin():
    f = FeatureMap("neural", dx=2, radius=3.0, beta="one", activation="tanh")
    assert eval_phi(f, [0, 0], [0.3, -0.4, 0.0]) == 0.0


def test_smooth_bump_formula():
    f = FeatureMap("neural", dx=1, radius=2.0, beta="smooth_bump", activation="tanh")
    w = np.array([1.0, 1.0])
    expected = (1 - 2.0 / 4.0) ** 2
    assert beta_values(f, w[None, :])[0] == pytest.approx(expected, rel=1e-14)


def test_gaussian_kind_value():
    f = FeatureMap("gaussian", dx=2, radius=3.0, beta="one", bandwidth=2.0)
    x = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert eval_phi(f, x, w) == pytest.approx(np.exp(-2.0 / 8.0), rel=1e-14)


def test_phi_matrix_matches_pointwise():
    rng = np.random.default_rng(5)
    f = FeatureMap("neural", dx=2, radius=2.5, activation="sigmoid")
    X = rng.standard_normal((4, 2))
    W = rng.standard_normal((6, 3))
    M = phi_matrix(f, X, W)
    for i in range(4):
        for j in range(6):
            assert M[i, j] == pytest.approx(eval_phi(f, X[i], W[j]), rel=1e-14)


def _table(values=((0.0, 2.0), (4.0, 6.0))):
    # built afresh each call, from lists, so no two calls share an array
    return FeatureMap("tabulated", dx=1, radius=2.0, beta="one", x_grid=[0.0, 1.0],
                      w_grid=[0.0, 2.0], values=[list(row) for row in values])


def test_tabulated_features_compare_and_hash_by_value():
    f, g = _table(), _table()
    assert f is not g and f.values is not g.values
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    changed = _table(((0.0, 2.0), (4.0, 6.5)))
    assert f != changed and changed not in {f}
    assert f != FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    assert not f.values.flags.writeable and not g.x_grid.flags.writeable


def test_tabulated_bilinear():
    f = FeatureMap(
        "tabulated",
        dx=1,
        radius=2.0,
        beta="one",
        x_grid=[0.0, 1.0],
        w_grid=[0.0, 2.0],
        values=[[0.0, 2.0], [4.0, 6.0]],
    )
    assert eval_phi(f, [0.0], [0.0]) == 0.0
    assert eval_phi(f, [1.0], [2.0]) == 6.0
    # center of the cell: average of the four corners
    assert eval_phi(f, [0.5], [1.0]) == pytest.approx(3.0, rel=1e-14)
    # zero extension outside the table
    assert eval_phi(f, [1.5], [1.0]) == 0.0
    assert eval_phi(f, [0.5], [-0.5]) == 0.0


def test_dimension_mismatch():
    f = FeatureMap("neural", dx=2, radius=1.0, activation="tanh")
    with pytest.raises(ValueError):
        eval_phi(f, [1.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        eval_phi(f, [1.0, 2.0], [0.1, 0.2])


# ---------------------------------------------------------------- gradients

def test_grad_tanh_at_zero_preactivation():
    f = FeatureMap("neural", dx=2, radius=5.0, beta="one", activation="tanh")
    x = np.array([0.5, -1.5])
    w = np.zeros(3)  # preactivation 0, tanh'(0) = 1
    assert np.allclose(grad_phi_w(f, x, w), np.append(x, 1.0), atol=1e-14)


def test_grad_zero_outside_support():
    f = FeatureMap("neural", dx=1, radius=1.0, beta="smooth_bump", activation="tanh")
    assert np.allclose(grad_phi_w(f, [0.3], [2.0, 1.0]), 0.0)


@pytest.mark.parametrize("act", ["tanh", "sigmoid", "gaussian_rbf"])
def test_grad_matches_central_differences_neural(act):
    rng = np.random.default_rng(17)
    f = FeatureMap("neural", dx=2, radius=2.0, beta="smooth_bump", activation=act)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-1, 1, 2)
        w = rng.uniform(-0.9, 0.9, 3)  # strictly inside the ball
        err = np.max(np.abs(grad_phi_w(f, x, w) - _central_diff(f, x, w)))
        worst = max(worst, err)
    assert worst <= 1e-4


def test_grad_matches_central_differences_relu_away_from_kink():
    rng = np.random.default_rng(19)
    f = FeatureMap("neural", dx=2, radius=2.0, beta="smooth_bump", activation="relu")
    for _ in range(200):
        x = rng.uniform(-1, 1, 2)
        w = rng.uniform(-0.9, 0.9, 3)
        if abs(np.dot(w[:2], x) + w[2]) < 1e-3:
            continue
        err = np.max(np.abs(grad_phi_w(f, x, w) - _central_diff(f, x, w)))
        assert err <= 1e-4


def test_grad_matches_central_differences_gaussian():
    rng = np.random.default_rng(23)
    f = FeatureMap("gaussian", dx=2, radius=2.0, beta="smooth_bump", bandwidth=1.5)
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        w = rng.uniform(-0.9, 0.9, 2)
        err = np.max(np.abs(grad_phi_w(f, x, w) - _central_diff(f, x, w)))
        assert err <= 1e-4


def test_grad_tabulated_inside_cell():
    f = FeatureMap(
        "tabulated",
        dx=1,
        radius=2.0,
        beta="one",
        x_grid=[0.0, 1.0],
        w_grid=[0.0, 2.0],
        values=[[0.0, 2.0], [4.0, 6.0]],
    )
    g = grad_phi_w(f, [0.5], [1.0])
    assert g[0] == pytest.approx(_central_diff(f, [0.5], [1.0])[0], abs=1e-9)


# every (kind, activation, beta) a FeatureMap accepts
FEATURE_CASES = [
    ("neural", act, beta) for act in ACTIVATIONS for beta in BETAS
    if not (beta == "one" and act == "relu")
] + [(kind, None, beta) for kind in ("gaussian", "tabulated") for beta in BETAS]


def _feature_case(kind, act, beta, dx, rng):
    if kind == "tabulated":
        return FeatureMap("tabulated", dx=1, radius=1.5, beta=beta,
                          x_grid=np.linspace(-1.0, 1.0, 5),
                          w_grid=np.linspace(-1.2, 1.2, 7),
                          values=rng.standard_normal((5, 7)))
    return FeatureMap(kind, dx=dx, radius=1.5, beta=beta, activation=act,
                      bandwidth=0.8)


def _parent_neural_grad(f, X, w):
    # grad_phi_w_batch's neural branch as it was when every call recomputed
    # the pre-activation and evaluated the activation twice
    pre = X @ w[: f.dx] + w[f.dx]
    core = activation_values(f.activation, pre)
    if f.activation == "tanh":
        th = np.tanh(pre)
        dcore = 1.0 - th * th
    elif f.activation == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-pre))
        dcore = s * (1.0 - s)
    elif f.activation == "gaussian_rbf":
        dcore = -2.0 * pre * np.exp(-pre * pre)
    else:
        dcore = (pre > 0.0).astype(float)
    aug = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    bv = beta_values(f, w[None, :])[0]
    return dcore[:, None] * aug * bv + core[:, None] * beta_grad(f, w)[None, :]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(FEATURE_CASES), dx=st.integers(1, 3),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_feature_column_reuse_is_bitwise_the_feature_calls(case, dx, n, seed):
    # The ascent's column and gradient at one w must be the bits of
    # phi_matrix and grad_phi_w_batch at that w, whatever else was evaluated
    # in between; the neural gradient also equals the formula that
    # re-evaluated the pre-activation.  Points reach past the ball, where
    # beta is 0, and relu meets its kink at x = 0, b = 0.  Since both calls
    # share one product rule, the gradient is also checked against central
    # differences of phi_matrix for every (kind, activation, beta).
    rng = np.random.default_rng(seed)
    f = _feature_case(*case, dx, rng)
    X = rng.uniform(-1.0, 1.0, (n, f.dx))
    X[rng.random(n) < 0.2] = 0.0
    ws = rng.uniform(-1.0, 1.0, (4, f.dw)) * rng.uniform(0.0, 2.0, (4, 1))
    ws[0, -1] = 0.0
    value, gradient = feature_column(f, X)
    kept = [value(w) for w in ws]
    for w, (col, parts) in zip(ws, kept):
        assert col.tobytes() == phi_matrix(f, X, w[None, :])[:, 0].tobytes()
        g = gradient(w, parts)
        assert g.tobytes() == grad_phi_w_batch(f, X, w).tobytes()
        if f.kind == "neural":
            assert g.tobytes() == _parent_neural_grad(f, X, w).tobytes()
    # w strictly inside the ball (|w| <= 1 < 1.5) and inside a table cell
    # (0.05 from the nodes -1.2 + 0.4 k), x off the relu kink
    w = rng.uniform(-0.5, 0.5, f.dw)
    if f.kind == "tabulated":
        w = 0.4 * rng.integers(-3, 3, 1) + rng.uniform(0.05, 0.35, 1)
    X = X[np.abs(X @ w[: f.dx] + w[-1]) > 1e-3] if f.kind == "neural" else X
    h = 1e-5
    fd = np.stack([(phi_matrix(f, X, (w + h * e)[None, :])
                    - phi_matrix(f, X, (w - h * e)[None, :]))[:, 0] / (2 * h)
                   for e in np.eye(f.dw)], axis=1)
    g = grad_phi_w_batch(f, X, w)
    assert np.max(np.abs(g - fd), initial=0.0) <= 1e-8 * (1.0 + np.max(np.abs(g), initial=0.0))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(FEATURE_CASES), dx=st.integers(1, 3),
       n=st.integers(0, 6), m=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_bound_locations_evaluate_bitwise_as_phi_matrix(case, dx, n, m, seed):
    # A location set bound once serves every input: phi_bound on the bound
    # W is phi_matrix on W, bit for bit, for every (kind, activation, beta),
    # with X or W empty, and with W reaching past the ball and the table.
    rng = np.random.default_rng(seed)
    f = _feature_case(*case, dx, rng)
    W = rng.uniform(-1.0, 1.0, (m, f.dw)) * rng.uniform(0.0, 2.0, (m, 1))
    bound = bind_locations(f, W)
    for _ in range(2):
        X = rng.uniform(-1.5, 1.5, (n, f.dx))
        got = phi_bound(f, X, bound)
        assert got.shape == (n, m)
        assert got.tobytes() == phi_matrix(f, X, W).tobytes()
    assert bound[0].tobytes() == W.tobytes()
    assert bound[1].tobytes() == beta_values(f, W).tobytes()
    assert (bound[2] is None) == (f.kind != "tabulated")
    assert not any(a.flags.writeable for a in (bound[1], *(bound[2] or ())))


def test_bound_locations_check_both_widths():
    f = FeatureMap("neural", dx=2, radius=1.0, activation="tanh")
    with pytest.raises(ValueError, match="weights must have shape"):
        bind_locations(f, np.zeros((4, 2)))
    bound = bind_locations(f, np.zeros((4, 3)))
    for X in (np.zeros((1, 1)), np.zeros((1, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="inputs must have shape"):
            phi_bound(f, X, bound)


def test_feature_column_checks_inputs_once():
    f = FeatureMap("neural", dx=2, radius=1.0, activation="tanh")
    with pytest.raises(ValueError):
        feature_column(f, np.zeros((3, 1)))


# ------------------------------------------------- simple-function pairing

def _pairing_instance():
    """Fixed smooth instance whose atoms sit at grid-32 cell centers.

    Center sampling is first-order accurate for atoms in general
    position, so the only way the finest grid can resolve the pairing
    to high accuracy is for the atoms to be resolved exactly; the
    coarser grids then show genuine refinement of the error.
    """
    spec = DualPairSpec(2, "l2")
    f = FeatureMap("neural", dx=1, radius=2.0, beta="one", activation="tanh")
    # all coordinates are odd multiples of 1/32 (rho box) / 1/16 (mu box)
    rho = measure_from_arrays(
        [[-0.46875], [0.59375]],
        [[1.1441658720372287, -0.32542283686782436],
         [0.7738065867276614, 0.28121066979764925]],
        spec,
        radius=1.0,
    )
    mu = measure_from_arrays(
        [[-0.8125, -0.3125], [1.3125, -0.1875], [-1.6875, -0.6875]],
        [[-0.5538228364240524, 0.9775674511260357],
         [-0.31055654665915255, -0.3288239040579627],
         [-0.7921467553588982, 0.45495807124085547]],
        spec,
        radius=2.0,
    )
    return f, rho, mu


def test_simple_approx_exact_at_cell_centers():
    spec = DualPairSpec(1, "l2")
    f = FeatureMap("neural", dx=1, radius=4.0, beta="one", activation="tanh")
    n = 4
    # centers of the boxes [-R, R] with R = 1 (rho) and R = 2 (mu)
    cx = -1.0 + (np.arange(n) + 0.5) * 2.0 / n
    cw = -2.0 + (np.arange(n) + 0.5) * 4.0 / n
    rho = measure_from_arrays([[cx[1]]], [[1.5]], spec, radius=1.0)
    mu = measure_from_arrays(
        [[cw[0], cw[2]]], [[0.75]], spec, radius=2.0
    )
    exact = product_pairing(rho, mu, f)
    assert simple_approx_pairing(f, rho, mu, n) == pytest.approx(exact, rel=1e-14)


def test_simple_approx_refinement_decreases():
    f, rho, mu = _pairing_instance()
    exact = product_pairing(rho, mu, f)
    errs = [
        abs(simple_approx_pairing(f, rho, mu, n) - exact) for n in (4, 8, 16, 32)
    ]
    assert all(errs[i + 1] < errs[i] for i in range(3))
    assert errs[-1] <= 1e-3 * total_variation(rho) * total_variation(mu)


def test_simple_approx_zero_measure():
    f, rho, _ = _pairing_instance()
    mu0 = AtomicVectorMeasure([], [], rho.space, 2.0)
    assert simple_approx_pairing(f, rho, mu0, 8) == 0.0


def test_grid_sup_abs_dominates_atom_sites():
    f, _, mu = _pairing_instance()
    x = np.array([0.4])
    s = grid_sup_abs(f, x, mu.radius, extra_ws=mu.W)
    vals = phi_matrix(f, x[None, :], mu.W)[0]
    assert s >= np.max(np.abs(vals)) - 1e-15


# ------------------------------------------------------------- serialization

def test_feature_json_round_trip():
    for f in (
        FeatureMap("neural", dx=2, radius=3.0, beta="smooth_bump", activation="relu"),
        FeatureMap("gaussian", dx=2, radius=1.5, beta="one", bandwidth=0.7),
        FeatureMap(
            "tabulated",
            dx=1,
            radius=2.0,
            beta="one",
            x_grid=[0.0, 1.0],
            w_grid=[0.0, 1.0],
            values=[[1.0, 2.0], [3.0, 4.0]],
        ),
    ):
        d = feature_to_json_dict(f)
        g = feature_from_json_dict(d)
        assert feature_to_json_dict(g) == d
    d = feature_to_json_dict(
        FeatureMap("neural", dx=2, radius=3.0, activation="relu")
    )
    assert list(d.keys()) == ["kind", "activation", "dx", "radius", "beta"]


def test_feature_record_of_the_required_keys_takes_the_feature_map_defaults():
    # the reader passes on only the keys a record holds, so the defaults
    # (beta, bandwidth, the tables) live in FeatureMap alone
    record = {"kind": "neural", "dx": 2, "radius": 1.5, "activation": "tanh"}
    assert feature_from_json_dict(record) == FeatureMap("neural", 2, 1.5, activation="tanh")


def test_feature_json_rejects_garbage():
    with pytest.raises(ValueError):
        feature_from_json_dict({"kind": "neural"})
    with pytest.raises(ValueError):
        feature_from_json_dict({"kind": "spline", "dx": 1, "radius": 1.0})
