import numpy as np
import pytest

from vvrkbs.dual_pair import DualPairSpec, dual_norm_value, vector_norm
from vvrkbs.feature import FeatureMap, eval_phi
from vvrkbs.measure import measure_from_arrays
from vvrkbs.rkbs import RkbsFunction, evaluate
from vvrkbs.solver import (
    FitOptions,
    Loss,
    Problem,
    fit,
    identity_measurement,
    lambda_max,
    product_grid,
)
from vvrkbs.operator_learning import (
    HyperAtom,
    HyperModel,
    SampledMeasurement,
    deeponet_embed,
    evaluate_function_form,
    evaluate_weight_form,
    function_form_tv_upper,
    hyper_evaluate,
    hyper_fit,
    hyper_grid_oracle,
    hyper_model_from_json_dict,
    hyper_model_to_json_dict,
    hyper_objective,
    weight_form_tv,
)


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
    atoms = []
    for k in range(n_atoms):
        if k > 0 and rng.uniform() < 0.5:
            w = atoms[0].w  # duplicated hyper location
        else:
            w = rng.uniform(-0.5, 0.5, phi.dw) * phi.radius
        if k > 0 and rng.uniform() < 0.3:
            theta = atoms[0].theta
        else:
            theta = rng.uniform(-0.5, 0.5, psi.dw) * psi.radius
        atoms.append(
            HyperAtom(rng.standard_normal(), w, theta, rng.standard_normal(dim))
        )
    return HyperModel(tuple(atoms), phi, psi, spec)


def test_single_atom_constant_features_returns_scaled_payload():
    spec = DualPairSpec(2, "l2")
    m = HyperModel(
        (HyperAtom(1.75, [0.0], [0.0], [2.0, -1.0]),),
        _ones_table(),
        _ones_table(),
        spec,
    )
    out = hyper_evaluate(m, [0.3], [-0.4])
    assert out == pytest.approx([3.5, -1.75], abs=1e-14)


def test_evaluate_outside_table_support_is_zero():
    spec = DualPairSpec(1, "l2")
    m = HyperModel(
        (HyperAtom(2.0, [0.5], [0.0], [1.0]),), _ones_table(), _ones_table(), spec
    )
    assert hyper_evaluate(m, [2.5], [0.0]) == pytest.approx([0.0], abs=0.0)


def test_opposite_payloads_cancel_everywhere():
    spec = DualPairSpec(2, "l1")
    v = np.array([0.7, -0.4])
    w, theta = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
    phi = _neural(1, 1.0, "tanh")
    psi = _neural(1, 1.0, "sigmoid")
    m = HyperModel(
        (HyperAtom(1.0, w, theta, v), HyperAtom(1.0, w, theta, -v)),
        phi,
        psi,
        spec,
    )
    assert hyper_evaluate(m, [0.2], [0.6]) == pytest.approx([0.0, 0.0], abs=1e-15)
    assert weight_form_tv(m) == 0.0
    assert function_form_tv_upper(m) == 0.0


def test_empty_model_is_zero():
    spec = DualPairSpec(3, "l2")
    m = HyperModel((), _neural(1, 1.0, "tanh"), _neural(1, 1.0, "tanh"), spec)
    assert hyper_evaluate(m, [0.1], [0.2]) == pytest.approx([0.0] * 3, abs=0.0)
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


def test_tv_single_atom_both_forms():
    spec = DualPairSpec(2, "l1")
    v = np.array([3.0, -4.0])
    m = HyperModel(
        (HyperAtom(-0.5, [0.2, 0.1], [0.3, -0.2], [3.0, -4.0]),),
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
        (HyperAtom(1.0, w, [-0.5], v1), HyperAtom(1.0, w, [0.7], v2)),
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


def test_model_validation():
    spec = DualPairSpec(2, "l2")
    phi = _neural(1, 1.0, "tanh")
    psi = _neural(1, 1.0, "sigmoid")
    with pytest.raises(ValueError):
        HyperModel((HyperAtom(1.0, [0.1, 0.2, 0.3], [0.0], [1.0, 0.0]),), phi, psi, spec)
    with pytest.raises(ValueError):
        HyperModel((HyperAtom(1.0, [0.1, 0.2], [0.0, 0.0, 0.0], [1.0, 0.0]),), phi, psi, spec)
    with pytest.raises(ValueError):
        HyperModel((HyperAtom(1.0, [0.1, 0.2], [0.0], [1.0]),), phi, psi, spec)
    with pytest.raises(ValueError):
        HyperModel((HyperAtom(1.0, [3.0, 0.0], [0.0], [1.0, 0.0]),), phi, psi, spec)


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
    assert len(above.model.atoms) == 0
    below = hyper_fit(Z, Y, samp, phi, psi, spec, 0.5 * lam_max,
                      w_grid=wg, theta_grid=tg)
    assert len(below.model.atoms) > 0


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
    obj_oracle, _ = hyper_grid_oracle(
        Z, Y, samp, phi, psi, spec, lam, wg, tg, max_iter=50000, tol=1e-13
    )
    assert state.objective_history[-1] <= obj_oracle * (1 + 1e-4)
    assert abs(state.objective_history[-1] - obj_oracle) / obj_oracle <= 1e-4
    # the reported objective matches the model-level recomputation
    recomputed = hyper_objective(Z, Y, samp, state.model, lam)
    assert recomputed == pytest.approx(state.objective_history[-1], rel=1e-9)


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
    assert len(state.model.atoms) == 1
    c = state.model.atoms[0].a * state.model.atoms[0].v[0]
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
    assert len(state.model.atoms) <= len(Z) * samp.n_samples


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
        opts=FitOptions(max_atoms=8, restarts=8, tol=1e-4, refit_tol=1e-10),
    )
    assert state.converged
    assert state.certificate <= 0.05 * (1 + 1e-4)
    assert state.objective_history[-1] <= state.objective_history[0]


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
        return Problem(Z, Y, Loss(), identity_measurement(), lam, phi, spec,
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
    a, W, Theta, V = two.model.arrays()
    assert len(W) == len(flat.measure.atoms) > 0
    assert np.array_equal(W, flat.measure.locations())
    assert np.array_equal(a[:, None] * V, flat.measure.payloads())
    assert np.all(Theta == 0.0)


def test_hyper_fit_validation():
    spec = DualPairSpec(1, "l2")
    ones = _ones_table()
    samp = SampledMeasurement(np.array([[0.0]]), np.array([[1.0]]))
    Z, Y = np.array([[0.0]]), np.array([[1.0]])
    with pytest.raises(ValueError):
        hyper_fit(Z, Y, samp, ones, ones, spec, 0.0)
    with pytest.raises(ValueError):
        hyper_fit(Z, Y, samp, ones, ones, spec, 0.1, opts=FitOptions(mode="l1"))
    with pytest.raises(ValueError):
        hyper_fit(Z, np.array([[1.0, 2.0]]), samp, ones, ones, spec, 0.1)
    with pytest.raises(ValueError):
        SampledMeasurement(np.zeros((2, 1)), np.zeros((3, 1)))


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
    assert len(m.atoms) == 8
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
