import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from vvrkbs.dual_pair import (
    DualPairSpec,
    dual_norm_value,
    primal_witness,
    row_norms,
    vector_norm,
)
from vvrkbs.feature import FeatureMap, eval_phi, grad_phi_w_batch, phi_matrix
from vvrkbs.measure import MERGE_TOL, _coalesce_rows, _group_by_location, measure_from_arrays
from vvrkbs.rkbs import RkbsFunction, evaluate
from vvrkbs.solver import (
    FitOptions,
    Problem,
    _duality_gap,
    fit,
    identity_measurement,
    lambda_max,
    product_grid,
)
from vvrkbs.operator_learning import (
    HyperModel,
    SampledMeasurement,
    deeponet_embed,
    evaluate_function_form,
    evaluate_weight_form,
    function_form_tv_upper,
    hyper_evaluate,
    hyper_fit,
    hyper_model_from_json_dict,
    hyper_model_to_json_dict,
    hyper_objective,
    weight_form_tv,
)
from vvrkbs import operator_learning, solver
from vvrkbs.operator_learning import _hyper_oracle_score, _hyper_score_grid, _product_family


def _ones_table(dx_radius=1.0):
    # phi identically 1 on [-1,1] x [-1,1]
    return FeatureMap(
        "tabulated",
        dx=1,
        radius=dx_radius,
        beta="one",
        x_grid=[-1.0, 1.0],
        w_grid=[-1.0, 1.0],
        values=[[1.0, 1.0], [1.0, 1.0]],
    )


def _neural(dx, radius, activation, beta="one"):
    return FeatureMap("neural", dx=dx, radius=radius, activation=activation, beta=beta)


def _random_model(rng):
    dim = int(rng.integers(1, 4))
    norm = ["l1", "l2", "linf"][int(rng.integers(0, 3))]
    spec = DualPairSpec(dim, norm)
    phi = _neural(
        int(rng.integers(1, 3)),
        1.5,
        ["tanh", "sigmoid", "gaussian_rbf"][int(rng.integers(0, 3))],
        beta=["one", "smooth_bump"][int(rng.integers(0, 2))],
    )
    if rng.uniform() < 0.3:
        psi = FeatureMap("gaussian", dx=int(rng.integers(1, 3)), radius=1.2,
                         bandwidth=0.9)
    else:
        psi = _neural(1, 1.2, "sigmoid", beta=["one", "hard"][int(rng.integers(0, 2))])
    n_atoms = int(rng.integers(1, 6))
    a, W, Theta, V = [], [], [], []
    for k in range(n_atoms):
        if k > 0 and rng.uniform() < 0.5:
            w = W[0]  # duplicated hyper location
        else:
            w = rng.uniform(-0.5, 0.5, phi.dw) * phi.radius
        if k > 0 and rng.uniform() < 0.3:
            theta = Theta[0]
        else:
            theta = rng.uniform(-0.5, 0.5, psi.dw) * psi.radius
        W.append(w)
        Theta.append(theta)
        a.append(rng.standard_normal())
        V.append(rng.standard_normal(dim))
    return HyperModel(a, W, Theta, V, phi, psi, spec)


def test_single_atom_constant_features_returns_scaled_payload():
    spec = DualPairSpec(2, "l2")
    m = HyperModel(
        [1.75], [[0.0]], [[0.0]], [[2.0, -1.0]],
        _ones_table(),
        _ones_table(),
        spec,
    )
    out = hyper_evaluate(m, [0.3], [-0.4])
    assert out == pytest.approx([3.5, -1.75], abs=1e-14)


def test_evaluate_outside_table_support_is_zero():
    spec = DualPairSpec(1, "l2")
    m = HyperModel([2.0], [[0.5]], [[0.0]], [[1.0]], _ones_table(), _ones_table(), spec)
    assert hyper_evaluate(m, [2.5], [0.0]) == pytest.approx([0.0], abs=0.0)


def test_opposite_payloads_cancel_everywhere():
    spec = DualPairSpec(2, "l1")
    v = np.array([0.7, -0.4])
    w, theta = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
    phi = _neural(1, 1.0, "tanh")
    psi = _neural(1, 1.0, "sigmoid")
    m = HyperModel(
        [1.0, 1.0], [w, w], [theta, theta], [v, -v],
        phi,
        psi,
        spec,
    )
    assert hyper_evaluate(m, [0.2], [0.6]) == pytest.approx([0.0, 0.0], abs=1e-15)
    assert weight_form_tv(m) == 0.0
    assert function_form_tv_upper(m) == 0.0


def test_empty_model_is_zero():
    spec = DualPairSpec(3, "l2")
    m = HyperModel([], [], [], [], _neural(1, 1.0, "tanh"), _neural(1, 1.0, "tanh"), spec)
    assert m.groups == ()
    assert hyper_evaluate(m, [0.1], [0.2]) == pytest.approx([0.0] * 3, abs=0.0)
    assert evaluate_function_form(m, [0.1], [0.2]) == pytest.approx([0.0] * 3, abs=0.0)
    assert weight_form_tv(m) == 0.0
    assert function_form_tv_upper(m) == 0.0


def test_two_path_agreement_random_models():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        m = _random_model(rng)
        z = rng.uniform(-0.8, 0.8, m.phi.dx)
        x = rng.uniform(-0.8, 0.8, m.psi.dx)
        wf = evaluate_weight_form(m, z, x)
        ff = evaluate_function_form(m, z, x)
        rel = np.max(np.abs(wf - ff) / np.maximum(1.0, np.maximum(np.abs(wf), np.abs(ff))))
        worst = max(worst, float(rel))
        hyper_evaluate(m, z, x)  # internal agreement guard must stay quiet
    assert worst <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_evaluations_match_the_written_out_sum(seed):
    # 12 atoms on 3 distinct w rows and 4 distinct theta rows, so both
    # collapse orders group and sum atoms before the base level
    rng = np.random.default_rng(seed)
    spec = DualPairSpec(3, ["l1", "l2", "linf"][seed % 3])
    phi = _neural(2, 1.5, "tanh", beta="smooth_bump")
    if seed % 2:
        psi = FeatureMap("gaussian", dx=1, radius=1.2, bandwidth=0.7)
    else:
        psi = _neural(1, 1.2, "sigmoid", beta="hard")
    n = 12
    W = (rng.uniform(-0.5, 0.5, (3, phi.dw)) * phi.radius)[rng.integers(0, 3, n)]
    Theta = (rng.uniform(-0.5, 0.5, (4, psi.dw)) * psi.radius)[rng.integers(0, 4, n)]
    a = rng.standard_normal(n)
    V = rng.standard_normal((n, spec.dim))
    m = HyperModel(a, W, Theta, V, phi, psi, spec)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, phi.dx)
        x = rng.uniform(-1.0, 1.0, psi.dx)
        terms = np.array([
            a[k] * eval_phi(phi, z, W[k]) * eval_phi(psi, x, Theta[k]) * V[k]
            for k in range(n)
        ])
        ref = terms.sum(axis=0)
        bound = 1e-12 * np.abs(terms).sum(axis=0)
        for evaluate_model in (evaluate_weight_form, evaluate_function_form,
                               hyper_evaluate):
            assert np.all(np.abs(evaluate_model(m, z, x) - ref) <= bound)


def _function_form_by_regrouping(m, z, x):
    # reference: regroup the w rows on every call and make two feature calls
    # per group, one for the hyper weight and one for the base row; each
    # group is summed with the same segment sum as the stored layout's
    z, x = np.atleast_1d(z), np.atleast_1d(x)
    weights, sums = [], []
    for idx in _group_by_location(m.W):
        weights.append(phi_matrix(m.phi, z[None, :], m.W[idx[0]][None, :])[0, 0])
        base = phi_matrix(m.psi, x[None, :], m.Theta[idx])[0]
        terms = base[:, None] * (m.a[idx, None] * m.V[idx])
        sums.append(np.add.reduceat(terms, [0], axis=0)[0])
    return np.array(weights) @ np.array(sums)


@pytest.mark.parametrize("dx", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_function_form_reads_the_stored_groups(seed, dx):
    # 40 atoms on 6 distinct w rows, interleaved; about a third of the rows
    # are moved by less than MERGE_TOL / 2, so they group with their row.
    # With dx = 1 every feature value is one product, so batching the feature
    # calls rounds nothing differently; with dx = 2 a batched product may.
    rng = np.random.default_rng(seed)
    spec = DualPairSpec(2, ["l1", "l2", "linf"][seed % 3])
    phi = _neural(dx, 1.5, "tanh", beta="smooth_bump")
    if seed % 2:
        psi = FeatureMap("gaussian", dx=dx, radius=1.2, bandwidth=0.7)
    else:
        psi = _neural(dx, 1.2, "sigmoid", beta="hard")
    n = 40
    W = (rng.uniform(-0.5, 0.5, (6, phi.dw)) * phi.radius)[rng.integers(0, 6, n)]
    near = rng.uniform(size=n) < 0.3
    W[near] += rng.uniform(-0.5, 0.5, (near.sum(), phi.dw)) * MERGE_TOL
    Theta = (rng.uniform(-0.5, 0.5, (8, psi.dw)) * psi.radius)[rng.integers(0, 8, n)]
    a = rng.standard_normal(n)
    V = rng.standard_normal((n, spec.dim))
    m = HyperModel(a, W, Theta, V, phi, psi, spec)
    assert len(m.groups) == 6 < len(np.unique(W, axis=0))
    assert [g.tolist() for g in m.groups] == _group_by_location(W)
    for g in m.groups:
        assert not g.flags.writeable
    m2 = hyper_model_from_json_dict(
        json.loads(json.dumps(hyper_model_to_json_dict(m))), spec
    )
    assert [g.tolist() for g in m2.groups] == [g.tolist() for g in m.groups]
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, phi.dx)
        x = rng.uniform(-1.0, 1.0, psi.dx)
        got = evaluate_function_form(m, z, x)
        ref = _function_form_by_regrouping(m, z, x)
        if dx == 1:
            assert got.tobytes() == ref.tobytes()
        else:
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("layout", ["distinct", "shared"])
@pytest.mark.parametrize("seed", range(3))
def test_function_form_segment_sum_edge_layouts(seed, layout):
    # every w distinct (groups of one atom) or all atoms at one w (one group)
    rng = np.random.default_rng(100 + seed)
    spec = DualPairSpec(3, ["l1", "l2", "linf"][seed])
    phi = _neural(2, 1.5, "tanh", beta="smooth_bump")
    psi = _neural(1, 1.2, "sigmoid")
    n = 9
    W = rng.uniform(-0.5, 0.5, (n, phi.dw)) * phi.radius
    if layout == "shared":
        W[:] = W[0]
    Theta = rng.uniform(-0.5, 0.5, (n, psi.dw)) * psi.radius
    a = rng.standard_normal(n)
    V = rng.standard_normal((n, spec.dim))
    m = HyperModel(a, W, Theta, V, phi, psi, spec)
    assert len(m.groups) == (n if layout == "distinct" else 1)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, phi.dx)
        x = rng.uniform(-1.0, 1.0, psi.dx)
        terms = np.array([
            a[k] * eval_phi(phi, z, W[k]) * eval_phi(psi, x, Theta[k]) * V[k]
            for k in range(n)
        ])
        bound = 1e-12 * np.abs(terms).sum(axis=0)
        for evaluate_model in (evaluate_weight_form, evaluate_function_form,
                               hyper_evaluate):
            assert np.all(np.abs(evaluate_model(m, z, x) - terms.sum(axis=0)) <= bound)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["z", "x"])
@pytest.mark.parametrize("evaluate_model",
                         [evaluate_weight_form, evaluate_function_form, hyper_evaluate])
def test_non_finite_query_point_is_rejected(evaluate_model, where, bad):
    spec = DualPairSpec(2, "l2")
    m = HyperModel([1.0], [[0.2, 0.1]], [[0.3, -0.2]], [[1.0, -0.5]],
                   _neural(1, 1.0, "tanh"), _neural(1, 1.0, "sigmoid"), spec)
    z, x = np.array([0.3]), np.array([-0.4])
    (z if where == "z" else x)[0] = bad
    with pytest.raises(ValueError, match="finite"):
        evaluate_model(m, z, x)


def _one_d_feature(kind, rng):
    # a 1-d feature of each kind, on the radius-1 weight ball
    if kind == "tabulated":
        return FeatureMap("tabulated", dx=1, radius=1.0, x_grid=np.linspace(-1.0, 1.0, 4),
                          w_grid=np.linspace(-1.0, 1.0, 5), values=rng.standard_normal((4, 5)))
    if kind == "gaussian":
        return FeatureMap("gaussian", dx=1, radius=1.0, bandwidth=0.9)
    return _neural(1, 1.0, "tanh", beta="smooth_bump")


def _one_d_model(kind, rng, n=6):
    phi, psi = _one_d_feature(kind, rng), _one_d_feature(kind, rng)
    return HyperModel(rng.standard_normal(n), rng.uniform(-0.7, 0.7, (n, phi.dw)),
                      rng.uniform(-0.7, 0.7, (n, psi.dw)), rng.standard_normal((n, 2)),
                      phi, psi, DualPairSpec(2, "l2"))


@pytest.mark.parametrize("width", [0, 2])
@pytest.mark.parametrize("kind", ["neural", "gaussian", "tabulated"])
@pytest.mark.parametrize("where", ["z", "x"])
@pytest.mark.parametrize("evaluate_model",
                         [evaluate_weight_form, evaluate_function_form, hyper_evaluate])
def test_wrong_width_query_point_is_rejected(evaluate_model, where, kind, width):
    # the query rows keep phi_matrix's input check: a tabulated feature
    # would otherwise read the first entry of a 2-wide point
    m = _one_d_model(kind, np.random.default_rng(3))
    z, x = np.array([0.3]), np.array([-0.4])
    bad = np.full(width, 0.1)
    with pytest.raises(ValueError, match="inputs must have shape"):
        evaluate_model(m, bad if where == "z" else z, bad if where == "x" else x)


@pytest.mark.parametrize("kind", ["neural", "gaussian", "tabulated", "random"])
def test_query_rows_are_phi_matrix_bitwise_and_survive_pickling(kind):
    # the model binds its locations once; a query's rows are the bits of
    # phi_matrix on the model's arrays, and a pickled copy evaluates the same
    rng = np.random.default_rng(37)
    for _ in range(5):
        m = _random_model(rng) if kind == "random" else _one_d_model(kind, rng)
        copy = pickle.loads(pickle.dumps(m))
        for _ in range(4):
            z = rng.uniform(-1.2, 1.2, m.phi.dx)
            x = rng.uniform(-1.2, 1.2, m.psi.dx)
            hw, base = operator_learning._query_rows(m, z, x)
            assert hw.tobytes() == phi_matrix(m.phi, z[None, :], m.W)[0].tobytes()
            assert base.tobytes() == phi_matrix(m.psi, x[None, :], m.Theta)[0].tobytes()
            for evaluate_model in (evaluate_weight_form, evaluate_function_form,
                                   hyper_evaluate):
                want = evaluate_model(m, z, x).tobytes()
                assert evaluate_model(copy, z, x).tobytes() == want


@pytest.mark.parametrize("corrupt", [lambda p: 2.0 * p, lambda p: np.full_like(p, np.nan)])
def test_corrupted_layout_payloads_raise_arithmetic_error(corrupt):
    # the function form reads the stored layout, the weight form the atoms:
    # corrupted payload rows make the two disagree, a NaN one included
    m = _one_d_model("neural", np.random.default_rng(6))
    z, x = np.array([0.3]), np.array([-0.4])
    assert np.max(np.abs(hyper_evaluate(m, z, x))) > 1e-3
    order, starts, payloads, leads = m.layout
    object.__setattr__(m, "layout", (order, starts, corrupt(payloads), leads))
    with pytest.raises(ArithmeticError, match="disagree"):
        hyper_evaluate(m, z, x)


def test_agreement_guard_treats_nan_as_disagreement(monkeypatch):
    spec = DualPairSpec(2, "l2")
    m = HyperModel([1.0], [[0.2, 0.1]], [[0.3, -0.2]], [[1.0, -0.5]],
                   _neural(1, 1.0, "tanh"), _neural(1, 1.0, "sigmoid"), spec)
    monkeypatch.setattr(operator_learning, "_function_form",
                        lambda m, hw, base: np.full(m.spec.dim, np.nan))
    with pytest.raises(ArithmeticError):
        hyper_evaluate(m, [0.3], [-0.4])


def test_tv_single_atom_both_forms():
    spec = DualPairSpec(2, "l1")
    v = np.array([3.0, -4.0])
    m = HyperModel(
        [-0.5], [[0.2, 0.1]], [[0.3, -0.2]], [[3.0, -4.0]],
        _neural(1, 1.0, "tanh"),
        _neural(1, 1.0, "sigmoid"),
        spec,
    )
    expected = 0.5 * vector_norm(v, "l1")
    assert weight_form_tv(m) == pytest.approx(expected, rel=1e-14)
    assert function_form_tv_upper(m) == pytest.approx(expected, rel=1e-14)


def test_duplicate_base_functions_give_strict_gap():
    # psi is tabulated with rows constant along the theta axis, so distinct
    # theta values carry the same base function; the function-form bound
    # merges them while the weight form keeps both payloads.
    psi = FeatureMap(
        "tabulated",
        dx=1,
        radius=1.0,
        beta="one",
        x_grid=[-1.0, 0.0, 1.0],
        w_grid=[-1.0, 1.0],
        values=[[0.5, 0.5], [2.0, 2.0], [-1.0, -1.0]],
    )
    spec = DualPairSpec(2, "l2")
    phi = _neural(1, 1.0, "tanh")
    w = np.array([0.2, -0.1])
    v1, v2 = np.array([1.0, 0.0]), np.array([-0.6, 0.3])
    m = HyperModel(
        [1.0, 1.0], [w, w], [[-0.5], [0.7]], [v1, v2],
        phi,
        psi,
        spec,
    )
    wf = weight_form_tv(m)
    ff = function_form_tv_upper(m)
    assert wf == pytest.approx(np.linalg.norm(v1) + np.linalg.norm(v2), rel=1e-14)
    assert ff == pytest.approx(np.linalg.norm(v1 + v2), rel=1e-14)
    assert ff < wf


def test_tv_domination_random_models():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = _random_model(rng)
        assert function_form_tv_upper(m) <= weight_form_tv(m) + 1e-12


def _norms_recoalesced(m):
    # both norms as computed when every call coalesced the inner measures anew
    norm = m.spec.primal_norm
    inner = [_coalesce_rows(m.Theta[idx], m.a[idx, None] * m.V[idx], norm)
             for idx in m.groups]
    wf = float(sum(float(sum(row_norms(C, norm).tolist())) for _, C in inner))
    probes = np.random.default_rng(operator_learning.PROBE_SEED).uniform(
        -operator_learning.PROBE_RADIUS, operator_learning.PROBE_RADIUS,
        (operator_learning.PROBES, m.psi.dx))
    ff = 0.0
    for Theta, C in inner:
        if len(C):
            cols = phi_matrix(m.psi, probes, Theta)
            _, sums = _coalesce_rows(cols.T, C, norm, tol=1e-12, prune_tol=0.0)
            ff += float(sum(row_norms(sums, norm).tolist()))
    return wf, ff


def test_norm_pair_caches_the_inner_measures_bitwise():
    # the inner measures are coalesced at the first norm, not at
    # construction, kept read-only, and every later norm reads the same bits
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = _random_model(rng)
        assert "inner" not in vars(m)
        ref = _norms_recoalesced(m)
        for _ in range(2):
            assert (weight_form_tv(m), function_form_tv_upper(m)) == ref
        assert len(m.inner) == len(m.groups)
        assert not any(a.flags.writeable for pair in m.inner for a in pair)


def test_model_validation():
    spec = DualPairSpec(2, "l2")
    phi = _neural(1, 1.0, "tanh")
    psi = _neural(1, 1.0, "sigmoid")
    with pytest.raises(ValueError):
        HyperModel([1.0], [[0.1, 0.2, 0.3]], [[0.0]], [[1.0, 0.0]], phi, psi, spec)
    with pytest.raises(ValueError):
        HyperModel([1.0], [[0.1, 0.2]], [[0.0, 0.0, 0.0]], [[1.0, 0.0]], phi, psi, spec)
    with pytest.raises(ValueError):
        HyperModel([1.0], [[0.1, 0.2]], [[0.0]], [[1.0]], phi, psi, spec)
    with pytest.raises(ValueError):
        HyperModel([1.0], [[3.0, 0.0]], [[0.0]], [[1.0, 0.0]], phi, psi, spec)


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", [[1.0]]),           # not a vector
        ("a", [1.0, 2.0]),        # one weight per row of the other arrays
        ("W", [[0.1, 0.2, 0.3]]),
        ("Theta", [[0.0]]),
        ("V", [[1.0]]),
        ("W", [[3.0, 0.0]]),      # outside the radius-1 ball
        ("Theta", [[0.0, 1.5]]),
        ("a", [np.inf]),
        ("V", [[np.nan, 0.0]]),
    ],
)
def test_model_rejects_each_malformed_array(field, value):
    # every case of test_model_validation also has a theta of the wrong width;
    # here each case breaks one array of an otherwise valid model
    spec = DualPairSpec(2, "l2")
    features = {"phi": _neural(1, 1.0, "tanh"), "psi": _neural(1, 1.0, "sigmoid"),
                "spec": spec}
    arrays = {"a": [1.0], "W": [[0.1, 0.2]], "Theta": [[0.0, 0.3]], "V": [[1.0, 0.0]]}
    HyperModel(**arrays, **features)
    arrays[field] = value
    with pytest.raises(ValueError):
        HyperModel(**arrays, **features)


# ------------------------------------------------------------------ fitting

def _fit_instance(rng, n=3, j=2, dim=2):
    spec = DualPairSpec(dim, "l2")
    phi = _neural(1, 1.5, "tanh")
    psi = _neural(1, 1.2, "sigmoid")
    Z = rng.uniform(-1.0, 1.0, (n, 1))
    Xj = rng.uniform(-1.0, 1.0, (j, 1))
    V = rng.standard_normal((j, dim))
    Y = rng.standard_normal((n, j))
    w_grid = rng.uniform(-0.6, 0.6, (4, 2)) * phi.radius
    theta_grid = rng.uniform(-0.6, 0.6, (3, 2)) * psi.radius
    return spec, phi, psi, Z, Xj, V, Y, w_grid, theta_grid


def _lambda_max_sweep(spec, phi, psi, Z, Xj, V, Y, w_grid, theta_grid):
    # largest oracle score at the zero model, by exhaustive enumeration
    n = len(Z)
    best = 0.0
    for w in w_grid:
        for th in theta_grid:
            q = np.zeros(spec.dim)
            for i in range(n):
                for jj in range(len(Xj)):
                    q += (-Y[i, jj] / n) * eval_phi(phi, Z[i], w) * eval_phi(
                        psi, Xj[jj], th
                    ) * V[jj]
            best = max(best, dual_norm_value(spec, q))
    return best


def test_hyper_fit_lambda_threshold():
    rng = np.random.default_rng(11)
    spec, phi, psi, Z, Xj, V, Y, wg, tg = _fit_instance(rng)
    samp = SampledMeasurement(Xj, V)
    lam_max = _lambda_max_sweep(spec, phi, psi, Z, Xj, V, Y, wg, tg)
    above = hyper_fit(Z, Y, samp, phi, psi, spec, 1.01 * lam_max,
                      w_grid=wg, theta_grid=tg)
    assert above.converged
    assert len(above.model.a) == 0
    below = hyper_fit(Z, Y, samp, phi, psi, spec, 0.5 * lam_max,
                      w_grid=wg, theta_grid=tg)
    assert len(below.model.a) > 0


def _product_grid_optimum(Z, Y, samp, phi, psi, spec, lam, wg, tg):
    # hyper_fit on both grids at tol 1e-9 with the whole product as the atom
    # budget, and its relative duality gap, a certificate on the grids
    opts = FitOptions(max_atoms=len(wg) * len(tg), tol=1e-9, refit_tol=1e-13)
    state = hyper_fit(Z, Y, samp, phi, psi, spec, lam, opts=opts, w_grid=wg, theta_grid=tg)
    m = state.model
    fam = _product_family(Z, Y, samp, phi, psi, spec, lam, opts, wg, tg)
    return state, _duality_gap(fam, np.hstack([m.W, m.Theta]), m.V)[2]


def test_hyper_fit_matches_product_grid_oracle():
    rng = np.random.default_rng(23)
    spec, phi, psi, Z, Xj, V, Y, wg, tg = _fit_instance(rng)
    samp = SampledMeasurement(Xj, V)
    lam = 0.4 * _lambda_max_sweep(spec, phi, psi, Z, Xj, V, Y, wg, tg)
    state = hyper_fit(
        Z, Y, samp, phi, psi, spec, lam,
        opts=FitOptions(max_atoms=14, tol=1e-6, refit_tol=1e-12),
        w_grid=wg, theta_grid=tg,
    )
    optimum, gap = _product_grid_optimum(Z, Y, samp, phi, psi, spec, lam, wg, tg)
    obj_oracle = optimum.objective_history[-1]
    assert gap <= 1e-7
    assert hyper_objective(Z, Y, samp, optimum.model, lam) == pytest.approx(obj_oracle, rel=1e-10)
    assert state.objective_history[-1] <= obj_oracle * (1 + 1e-4)
    assert abs(state.objective_history[-1] - obj_oracle) / obj_oracle <= 1e-4
    # the reported objective matches the model-level recomputation
    recomputed = hyper_objective(Z, Y, samp, state.model, lam)
    assert recomputed == pytest.approx(state.objective_history[-1], rel=1e-9)


def test_hyper_grid_fit_huge_lambda_returns_zero_with_no_gap():
    # no atom enters, so the duality gap is taken on the empty product lift
    rng = np.random.default_rng(24)
    spec, phi, psi, Z, Xj, V, Y, wg, tg = _fit_instance(rng)
    samp = SampledMeasurement(Xj, V)
    lam = 1e6 * _lambda_max_sweep(spec, phi, psi, Z, Xj, V, Y, wg, tg)
    state, gap = _product_grid_optimum(Z, Y, samp, phi, psi, spec, lam, wg, tg)
    obj = state.objective_history[-1]
    assert len(state.model.a) == 0
    assert obj == pytest.approx(0.5 * float(np.sum(Y * Y)) / len(Z), rel=1e-12)
    # zero in exact arithmetic; primal and dual value round apart by ulps
    assert abs(gap) <= 4 * np.finfo(float).eps


def test_hyper_fit_constant_features_soft_threshold():
    # with phi = psi = 1 and a single sampling functional the problem is
    # min_c 0.5 (c - y)^2 + lam |c|
    spec = DualPairSpec(1, "l2")
    ones = _ones_table()
    y, lam = 1.3, 0.25
    samp = SampledMeasurement(np.array([[0.2]]), np.array([[1.0]]))
    state = hyper_fit(
        np.array([[0.1]]), np.array([[y]]), samp, ones, ones, spec, lam,
        opts=FitOptions(max_atoms=3, tol=1e-6, refit_tol=1e-14),
        w_grid=np.array([[0.0]]), theta_grid=np.array([[0.0]]),
    )
    assert state.converged
    assert len(state.model.a) == 1
    c = state.model.a[0] * state.model.V[0, 0]
    assert c == pytest.approx(y - lam, rel=1e-6)


def test_hyper_fit_sparsity_bound():
    rng = np.random.default_rng(31)
    spec, phi, psi, Z, Xj, V, Y, wg, tg = _fit_instance(rng)
    samp = SampledMeasurement(Xj, V)
    lam = 0.3 * _lambda_max_sweep(spec, phi, psi, Z, Xj, V, Y, wg, tg)
    state = hyper_fit(
        Z, Y, samp, phi, psi, spec, lam,
        opts=FitOptions(max_atoms=20, tol=1e-5, refit_tol=1e-12),
        w_grid=wg, theta_grid=tg,
    )
    assert state.converged
    assert len(state.model.a) <= len(Z) * samp.n_samples


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_hyper_fit_certifies_with_default_refit_settings(seed):
    # A three-atom teacher on the 5x5 product grid, with the CLI's default
    # refit (tol 1e-8, 5000 iterations).  Refit by FISTA to that tolerance,
    # each of these fits ended uncertified through the stall branch: the
    # oracle re-proposed a location of the support and the refit gained
    # nothing, while the certificate stayed above lam (1 + tol).
    rng = np.random.default_rng(seed)
    phi = psi = _neural(1, 2.0, "tanh", beta="smooth_bump")
    Z = rng.uniform(-1.0, 1.0, (20, 1))
    Xj = np.linspace(-1.0, 1.0, 6)[:, None]
    V = rng.standard_normal((6, 2))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    W, T = rng.uniform(-1.0, 1.0, (3, 2)), rng.uniform(-1.0, 1.0, (3, 2))
    Y = phi_matrix(phi, Z, W) @ (phi_matrix(psi, Xj, T) * (rng.standard_normal((3, 2)) @ V.T).T).T
    Y = Y + 0.05 * np.std(Y) * rng.standard_normal(Y.shape)
    grid = product_grid(2.0, 2, 5)
    opts = FitOptions(max_atoms=50, tol=1e-3)
    state = hyper_fit(Z, Y, SampledMeasurement(Xj, V), phi, psi, DualPairSpec(2, "l2"),
                      0.002, opts, w_grid=grid, theta_grid=grid)
    assert state.converged
    assert state.certificate <= 0.002 * (1 + opts.tol)


def test_hyper_fit_free_search_smoke():
    rng = np.random.default_rng(5)
    spec = DualPairSpec(1, "l2")
    phi = _neural(1, 1.2, "tanh")
    psi = _neural(1, 1.0, "sigmoid")
    Z = rng.uniform(-1.0, 1.0, (2, 1))
    Y = rng.standard_normal((2, 1))
    samp = SampledMeasurement(np.array([[0.3]]), np.array([[1.0]]))
    state = hyper_fit(
        Z, Y, samp, phi, psi, spec, 0.05,
        opts=FitOptions(max_atoms=8, tol=1e-4, refit_tol=1e-10),
    )
    assert state.converged
    assert state.certificate <= 0.05 * (1 + 1e-4)
    assert state.objective_history[-1] <= state.objective_history[0]


def test_a_certified_free_hyper_fit_leaves_no_candidate_above_the_threshold(monkeypatch):
    # the free product search scores isqrt(SEARCH_POINTS) w candidates times
    # as many theta candidates, drawn by default_rng(seed) w first, and
    # polishes the best pairs; at a certified model no pair scores above
    # lam (1 + tol), here scored by one contraction over tasks, samples and
    # functionals (up to the rounding of the model's predictions); scored in
    # blocks of one theta, the pairs give the same model bit for bit
    rng = np.random.default_rng(3)
    spec = DualPairSpec(2, "l2")
    phi, psi = _neural(1, 1.5, "tanh"), _neural(1, 1.2, "sigmoid")
    Z, Xj = rng.uniform(-1.0, 1.0, (8, 1)), np.linspace(-1.0, 1.0, 4)[:, None]
    Vf, Y = rng.standard_normal((4, 2)), rng.standard_normal((8, 4))
    draw, k = np.random.default_rng(4), math.isqrt(solver.SEARCH_POINTS)
    Wc = solver._ball_points(draw, k, phi.dw, phi.radius)
    Tc = solver._ball_points(draw, k, psi.dw, psi.radius)

    def best_pair(G):
        Q = np.einsum("nw,nj,jt,jd->wtd", phi_matrix(phi, Z, Wc), G / len(Z),
                      phi_matrix(psi, Xj, Tc), Vf)
        return float(np.sqrt((Q * Q).sum(axis=2)).max())

    lam = 0.2 * best_pair(-Y)
    opts = FitOptions(max_atoms=20, seed=4)
    state = hyper_fit(Z, Y, SampledMeasurement(Xj, Vf), phi, psi, spec, lam, opts)
    assert state.converged and len(state.model.a) >= 2
    m = state.model
    P = (phi_matrix(phi, Z, m.W) * m.a) @ (phi_matrix(psi, Xj, m.Theta) * (m.V @ Vf.T).T).T
    assert best_pair(P - Y) <= lam * (1.0 + opts.tol) * (1.0 + 1e-9)
    monkeypatch.setattr(operator_learning, "_GRID_BLOCK", 1)
    blocked = hyper_fit(Z, Y, SampledMeasurement(Xj, Vf), phi, psi, spec, lam, opts).model
    for a, b in zip((m.a, m.W, m.Theta, m.V), (blocked.a, blocked.W, blocked.Theta, blocked.V)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_hyper_oracle_score_matches_the_feature_calls_bitwise(seed):
    # value and direction at (w, theta) are those of phi_matrix, the dual
    # pair and grad_phi_w_batch, bit for bit, for every dual norm
    rng = np.random.default_rng(seed)
    spec = DualPairSpec(int(rng.integers(1, 4)), ["l1", "l2", "linf"][seed % 3])
    phi = _neural(1 + seed % 2, 1.5, ["tanh", "sigmoid", "relu"][seed % 3], "smooth_bump")
    psi = [_neural(1, 1.2, "gaussian_rbf", "hard"), _ones_table(1.2)][seed % 2]
    n, J = int(rng.integers(1, 20)), int(rng.integers(1, 6))
    Z = rng.uniform(-1.0, 1.0, (n, phi.dx))
    Xj = rng.uniform(-1.0, 1.0, (J, 1))
    GN, V = rng.standard_normal((n, J)), rng.standard_normal((J, spec.dim))
    value, direction = _hyper_oracle_score(phi, psi, Z, Xj, GN, V, spec)
    Ls = [np.concatenate([rng.uniform(-1.0, 1.0, phi.dw), rng.uniform(-0.8, 0.8, psi.dw)])
          for _ in range(3)]
    for L, (score, state) in zip(Ls, [value(L) for L in Ls]):
        w, th = L[:phi.dw], L[phi.dw:]
        pc, qc = phi_matrix(phi, Z, w[None, :])[:, 0], phi_matrix(psi, Xj, th[None, :])[:, 0]
        q = ((pc @ GN) * qc) @ V
        u = primal_witness(spec, q)
        assert score == dual_norm_value(spec, q) and state[0].tobytes() == u.tobytes()
        e = V @ u
        expected = np.concatenate([
            grad_phi_w_batch(phi, Z, w).T @ (GN @ (qc * e)),
            grad_phi_w_batch(psi, Xj, th).T @ ((GN.T @ pc) * e),
        ])
        assert direction(L, state).tobytes() == expected.tobytes()


def _score_grid_by_theta(PhiG, PsiG, GN, V, spec, w_grid, theta_grid):
    # the per-theta loop the batched search replaced: the first theta that
    # reaches the best score wins, and within it the lowest w
    R = PhiG.T @ GN
    best = None
    for t in range(theta_grid.shape[0]):
        Q = (R * PsiG[:, t][None, :]) @ V
        scores = row_norms(Q, spec.dual_norm)
        g = int(np.argmax(scores))
        if best is None or scores[g] > best[0]:
            best = (float(scores[g]), g, t, Q[g])
    score, g, t, q = best
    return w_grid[g].copy(), theta_grid[t].copy(), primal_witness(spec, q), score


@pytest.mark.parametrize("block", [operator_learning._GRID_BLOCK, 512, 1])
@pytest.mark.parametrize("seed", range(8))
def test_batched_grid_search_is_the_per_theta_loop(seed, block, monkeypatch):
    # bit for bit on random grids, and on repeated grids, where every score
    # is tied with its copies across theta and across w; in one batch, in
    # blocks of a few theta and in blocks of one theta
    monkeypatch.setattr(operator_learning, "_GRID_BLOCK", block)
    rng = np.random.default_rng(seed)
    spec = DualPairSpec(int(rng.integers(1, 4)), ["l1", "l2", "linf"][seed % 3])
    phi, psi = _neural(1, 2.0, "tanh", "smooth_bump"), _neural(1, 2.0, "sigmoid", "hard")
    n, J = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    Z, Xj = rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(-1.0, 1.0, (J, 1))
    GN, V = rng.standard_normal((n, J)), rng.standard_normal((J, spec.dim))
    w_grid = product_grid(phi.radius, phi.dw, int(rng.integers(1, 8)))
    theta_grid = product_grid(psi.radius, psi.dw, int(rng.integers(1, 8)))
    for wg, tg in ((w_grid, theta_grid), (np.vstack([w_grid] * 2), np.vstack([theta_grid] * 3))):
        args = (phi_matrix(phi, Z, wg), phi_matrix(psi, Xj, tg), GN, V, spec, wg, tg)
        got, ref = _hyper_score_grid(*args), _score_grid_by_theta(*args)
        for a, b in zip(got, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("block", [operator_learning._GRID_BLOCK, 1])
def test_batched_grid_search_breaks_a_cross_tie_toward_the_lowest_theta(block, monkeypatch):
    # scores (theta 0, w 1) and (theta 1, w 0) tie at 2.0 above every other
    # pair; the lowest theta wins, as in the per-theta loop, although w 0 is
    # the lower w, in one batch and with each theta in a block of its own
    monkeypatch.setattr(operator_learning, "_GRID_BLOCK", block)
    spec = DualPairSpec(2, "l2")
    w_grid, theta_grid = np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[-0.1, 0.0], [0.5, 0.1]])
    args = (np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), np.eye(2), spec,
            w_grid, theta_grid)
    w, th, u, score = _hyper_score_grid(*args)
    assert (w.tolist(), th.tolist(), u.tolist(), score) == ([0.3, 0.4], [-0.1, 0.0],
                                                            [0.0, 1.0], 2.0)
    assert [np.asarray(a).tolist() for a in _score_grid_by_theta(*args)] == [
        [0.3, 0.4], [-0.1, 0.0], [0.0, 1.0], 2.0]


def test_grid_search_temporaries_stay_within_the_block(monkeypatch):
    # 400 x 400 pairs and J = 10: one batch over all theta would allocate a
    # 12.8 MB (Gt, Gw, J) temporary; blocks of 2**14 entries keep the peak
    # allocation of the search below 1 MB, with the per-theta loop's result
    monkeypatch.setattr(operator_learning, "_GRID_BLOCK", 1 << 14)
    rng = np.random.default_rng(4)
    spec = DualPairSpec(2, "l2")
    args = (rng.standard_normal((30, 400)), rng.standard_normal((10, 400)),
            rng.standard_normal((30, 10)), rng.standard_normal((10, 2)), spec,
            rng.standard_normal((400, 2)), rng.standard_normal((400, 2)))
    tracemalloc.start()
    try:
        got = _hyper_score_grid(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for a, b in zip(got, _score_grid_by_theta(*args)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_two_level_fit_with_unit_base_feature_is_the_flat_fit(seed):
    # psi = 1, one functional [[1.0]] and theta pinned to 0: every hyper-atom
    # is the flat atom delta_w v, so both fits take bit-identical steps
    rng = np.random.default_rng(seed)
    spec = DualPairSpec(1, "l2")
    phi = _neural(1, 1.5, "tanh", beta="smooth_bump")
    Z = rng.uniform(-1.0, 1.0, (12, 1))
    Y = rng.standard_normal((12, 1))
    grid = product_grid(phi.radius, phi.dw, 7)

    def problem(lam):
        return Problem(Z, Y, identity_measurement(), lam, phi, spec,
                       omega_grid=grid)

    lam = 0.2 * lambda_max(problem(1.0))
    opts = FitOptions(max_atoms=15, tol=1e-5, refit_tol=1e-11, seed=seed)
    flat = fit(problem(lam), opts)
    two = hyper_fit(
        Z, Y, SampledMeasurement(np.array([[0.0]]), np.array([[1.0]])),
        phi, _ones_table(), spec, lam, opts=opts,
        w_grid=grid, theta_grid=np.array([[0.0]]),
    )
    assert np.array_equal(two.objective_history, flat.objective_history)
    assert two.converged == flat.converged
    assert two.certificate == flat.certificate
    a, W, Theta, V = two.model.a, two.model.W, two.model.Theta, two.model.V
    assert len(W) == len(flat.measure) > 0
    assert np.array_equal(W, flat.measure.W)
    assert np.array_equal(a[:, None] * V, flat.measure.C)
    assert np.all(Theta == 0.0)


def test_hyper_fit_validation():
    spec = DualPairSpec(1, "l2")
    ones = _ones_table()
    samp = SampledMeasurement(np.array([[0.0]]), np.array([[1.0]]))
    Z, Y = np.array([[0.0]]), np.array([[1.0]])
    with pytest.raises(ValueError):
        hyper_fit(Z, Y, samp, ones, ones, spec, 0.0)
    with pytest.raises(ValueError):
        hyper_fit(Z, np.array([[1.0, 2.0]]), samp, ones, ones, spec, 0.1)
    with pytest.raises(ValueError):
        SampledMeasurement(np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="need at least one task input"):
        hyper_fit(np.zeros((0, 1)), np.zeros((0, 1)), samp, ones, ones, spec, 0.1)
    grid = np.array([[0.0]])
    with pytest.raises(ValueError, match="both"):
        hyper_fit(Z, Y, samp, ones, ones, spec, 0.1, w_grid=grid)
    with pytest.raises(ValueError, match="both"):
        hyper_fit(Z, Y, samp, ones, ones, spec, 0.1, theta_grid=grid)


@pytest.mark.parametrize(
    "which, grid, fault",
    [
        ("w", [[0.1, 0.2, 0.3]], r"w_grid must be a non-empty \(n, 2\) array"),
        ("theta", [[0.1]], r"theta_grid must be a non-empty \(n, 2\) array"),
        ("w", np.zeros((0, 2)), "w_grid must be a non-empty"),
        ("w", [[np.nan, 0.0]], "w_grid must be finite"),
        ("theta", [[0.0, np.inf]], "theta_grid must be finite"),
        ("w", [[3.0, 0.0]], "w_grid must lie in the radius-1.5 ball"),
        ("theta", [[0.0, 1.3]], "theta_grid must lie in the radius-1.2 ball"),
    ],
)
def test_hyper_fit_rejects_each_malformed_grid(which, grid, fault):
    # each case breaks one grid of an otherwise valid grid-restricted fit
    spec = DualPairSpec(2, "l2")
    phi, psi = _neural(1, 1.5, "tanh"), _neural(1, 1.2, "sigmoid")
    samp = SampledMeasurement(np.array([[0.2], [-0.5]]), np.array([[1.0, 0.0], [0.5, -1.0]]))
    Z, Y = np.array([[0.1], [-0.4], [0.7]]), np.array([[0.9, -0.3], [0.2, 0.8], [-0.5, 0.1]])
    grids = {"w": [[0.5, 0.1], [-0.4, 0.3]], "theta": [[0.2, -0.1]]}
    opts = FitOptions(max_atoms=2)
    hyper_fit(Z, Y, samp, phi, psi, spec, 0.05, opts, grids["w"], grids["theta"])
    grids[which] = grid
    with pytest.raises(ValueError, match=fault):
        hyper_fit(Z, Y, samp, phi, psi, spec, 0.05, opts, grids["w"], grids["theta"])


@pytest.mark.parametrize("where", ["points", "functionals"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_measurement_rejects_non_finite_entries(where, bad):
    arrays = {"points": np.array([[0.2], [-0.5]]),
              "functionals": np.array([[1.0, 0.0], [0.5, -1.0]])}
    arrays[where][1, 0] = bad
    with pytest.raises(ValueError, match=f"sampling {where} must be finite"):
        SampledMeasurement(arrays["points"], arrays["functionals"])


def _oracle_instance():
    # the grid-restricted instance of the malformed-grid test, with its grids
    spec = DualPairSpec(2, "l2")
    phi, psi = _neural(1, 1.5, "tanh"), _neural(1, 1.2, "sigmoid")
    samp = SampledMeasurement(np.array([[0.2], [-0.5]]), np.array([[1.0, 0.0], [0.5, -1.0]]))
    Z, Y = np.array([[0.1], [-0.4], [0.7]]), np.array([[0.9, -0.3], [0.2, 0.8], [-0.5, 0.1]])
    return {"Z": Z, "Y": Y, "sampling": samp, "phi": phi, "psi": psi, "spec": spec,
            "lam": 0.05, "w_grid": np.array([[0.5, 0.1], [-0.4, 0.3]]),
            "theta_grid": np.array([[0.2, -0.1]])}


@pytest.mark.parametrize(
    "key, value, fault",
    [
        ("w_grid", np.array([[3.0, 0.0]]), "w_grid must lie in the radius-1.5 ball"),
        ("theta_grid", np.array([[np.nan, 0.0]]), "theta_grid must be finite"),
        ("Y", np.zeros((3, 3)), "Y width must equal the number of functionals"),
        ("Y", np.zeros((2, 2)), "Z and Y differ in length"),
        ("Z", np.zeros((3, 2)), "Z width does not match the hyper feature"),
        ("Z", np.array([[0.1], [np.nan], [0.7]]), "Z must be finite"),
        ("Y", np.array([[0.9, -0.3], [0.2, np.inf], [-0.5, 0.1]]), "Y must be finite"),
        ("lam", -0.1, "lam must be finite and positive"),
        ("lam", np.inf, "lam must be finite and positive"),
    ],
)
def test_hyper_fit_checks_its_inputs(key, value, fault):
    # each case breaks one input of an instance hyper_fit solves
    args = _oracle_instance()
    hyper_fit(**args)
    args[key] = value
    with pytest.raises(ValueError, match=fault):
        hyper_fit(**args)


def test_hyper_fit_requires_positive_lambda_and_both_grids():
    # lam = 0 is refused, as by the flat fit and grid_oracle
    args = {**_oracle_instance(), "lam": 0.0}
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        hyper_fit(**args)
    with pytest.raises(ValueError, match="needs both w_grid and theta_grid"):
        hyper_fit(**{**args, "lam": 0.05, "theta_grid": None})


def test_measurement_factorization():
    # <v_j, (A nu)(x_j)> computed through the base function equals the
    # atom-wise pairing of nu with psi(x_j, .) v_j
    rng = np.random.default_rng(17)
    spec = DualPairSpec(3, "l2")
    psi = _neural(2, 1.3, "gaussian_rbf", beta="smooth_bump")
    for _ in range(50):
        k = int(rng.integers(1, 5))
        thetas = rng.uniform(-0.5, 0.5, (k, psi.dw)) * psi.radius
        C = rng.standard_normal((k, 3))
        nu = measure_from_arrays(thetas, C, spec, psi.radius)
        g = RkbsFunction(nu, psi, spec)
        x = rng.uniform(-1.0, 1.0, 2)
        v = rng.standard_normal(3)
        lhs = float(v @ evaluate(g, x))
        rhs = float(
            sum(eval_phi(psi, x, th) * (v @ c) for th, c in zip(thetas, C))
        )
        assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) <= 1e-12


# ----------------------------------------------------------------- deeponet

def test_deeponet_embed_matches_direct_sum():
    rng = np.random.default_rng(3)
    spec = DualPairSpec(2, "l1")
    phi = FeatureMap("gaussian", dx=2, radius=1.0, bandwidth=0.8)
    psi = _neural(1, 1.5, "gaussian_rbf", beta="smooth_bump")
    basis, coeffs = [], []
    for _ in range(2):
        th = rng.uniform(-0.6, 0.6, (2, 2))
        C = rng.standard_normal((2, 2))
        basis.append(RkbsFunction(measure_from_arrays(th, C, spec, psi.radius), psi, spec))
        coeffs.append(
            [(rng.standard_normal(), rng.uniform(-0.5, 0.5, 2)) for _ in range(2)]
        )
    m = deeponet_embed(basis, coeffs, phi)
    assert len(m.a) == 8
    for _ in range(50):
        z = rng.uniform(-0.7, 0.7, 2)
        x = rng.uniform(-1.0, 1.0, 1)
        direct = np.zeros(2)
        for zeta, pairs in zip(basis, coeffs):
            a_z = sum(a * eval_phi(phi, z, w) for a, w in pairs)
            direct += a_z * evaluate(zeta, x)
        got = hyper_evaluate(m, z, x)
        rel = np.max(np.abs(got - direct) / np.maximum(1.0, np.abs(direct)))
        assert rel <= 1e-12


def test_deeponet_embed_rejects_bad_basis():
    spec = DualPairSpec(1, "l2")
    psi = _neural(1, 1.0, "tanh")
    phi = _neural(1, 1.0, "tanh")
    zeta = RkbsFunction(
        measure_from_arrays([[0.1, 0.2]], [[1.0]], spec, psi.radius), psi, spec
    )
    adj = RkbsFunction(zeta.measure, psi, spec, adjoint=True)
    with pytest.raises(ValueError):
        deeponet_embed([], [], phi)
    with pytest.raises(ValueError):
        deeponet_embed([zeta], [], phi)
    with pytest.raises(ValueError):
        deeponet_embed([adj], [[(1.0, [0.0, 0.0])]], phi)
    other = RkbsFunction(zeta.measure, _neural(1, 1.0, "sigmoid"), spec)
    with pytest.raises(ValueError):
        deeponet_embed([zeta, other], [[(1.0, [0.0, 0.0])], [(1.0, [0.0, 0.0])]], phi)


def test_deeponet_embed_accepts_equal_tabulated_features_built_apart():
    spec = DualPairSpec(1, "l2")

    def psi():  # a fresh feature, with fresh tables, per call
        return FeatureMap("tabulated", dx=1, radius=1.0, beta="one", x_grid=[-1.0, 1.0],
                          w_grid=[-1.0, 1.0], values=[[1.0, 2.0], [3.0, -4.0]])

    basis = [RkbsFunction(measure_from_arrays([[w]], [[1.0]], spec, 1.0), psi(), spec)
             for w in (0.2, -0.5)]
    assert basis[0].feature is not basis[1].feature
    m = deeponet_embed(basis, [[(1.0, [0.0, 0.0])], [(2.0, [0.1, 0.0])]], _neural(1, 1.0, "tanh"))
    assert m.psi == basis[1].feature and len(m.a) == 2


# --------------------------------------------------------------------- json

def test_hyper_model_json_round_trip():
    rng = np.random.default_rng(29)
    m = _random_model(rng)
    d = hyper_model_to_json_dict(m)
    assert list(d.keys()) == ["atoms", "phi", "psi"]
    assert list(d["atoms"][0].keys()) == ["a", "w", "theta", "v"]
    m2 = hyper_model_from_json_dict(d, m.spec)
    z = rng.uniform(-0.5, 0.5, m.phi.dx)
    x = rng.uniform(-0.5, 0.5, m.psi.dx)
    assert hyper_evaluate(m2, z, x) == pytest.approx(hyper_evaluate(m, z, x), abs=1e-15)
    with pytest.raises(ValueError):
        hyper_model_from_json_dict({"atoms": []}, m.spec)
