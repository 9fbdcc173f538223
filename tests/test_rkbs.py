import math
import warnings

import numpy as np
import pytest

from vvrkbs.dual_pair import DualPairSpec, conjugate
from vvrkbs.feature import FeatureMap
from vvrkbs.measure import (
    AtomicVectorMeasure,
    empty_measure,
    measure_from_arrays,
)
from vvrkbs.rkbs import (
    GaussianKernel,
    RkbsFunction,
    RkhsModel,
    TabulatedKernel,
    b_norm_lower,
    b_norm_upper,
    evaluate,
    rkhs_fit,
    rkhs_predict,
    rkhs_stationarity,
    verify_reproducing,
)

L2 = DualPairSpec(2, "l2")


def _function(rng, n_atoms=4, norm="l2", dx=1):
    spec = DualPairSpec(2, norm)
    f = FeatureMap("neural", dx=dx, radius=2.0, beta="smooth_bump", activation="tanh")
    W = rng.uniform(-1.0, 1.0, (n_atoms, dx + 1))
    C = rng.standard_normal((n_atoms, 2))
    mu = measure_from_arrays(W, C, spec, radius=2.0)
    return RkbsFunction(mu, f, spec)


# ----------------------------------------------------------------- evaluate

def test_evaluate_is_atom_sum():
    rng = np.random.default_rng(0)
    f = _function(rng)
    x = np.array([0.3])
    expected = sum(
        float(np.tanh(w[0] * x[0] + w[1]))
        * (1 - np.dot(w, w) / 4.0) ** 2
        * c
        for w, c in zip(f.measure.W, f.measure.C)
    )
    assert np.allclose(evaluate(f, x), expected, rtol=1e-12)


def test_evaluate_zero_outside_support():
    spec = DualPairSpec(2, "l2")
    feat = FeatureMap("neural", dx=1, radius=1.0, beta="hard", activation="tanh")
    # atoms on the sphere of radius 2R are outside the weight ball of phi
    mu = measure_from_arrays([[2.0, 0.0]], [[1.0, 1.0]], spec, radius=2.0)
    f = RkbsFunction(mu, feat, spec)
    for x in ([0.0], [0.5], [-1.0]):
        assert np.allclose(evaluate(f, x), 0.0)


def test_evaluate_homogeneous():
    rng = np.random.default_rng(1)
    f = _function(rng)
    mu = f.measure
    g = RkbsFunction(
        measure_from_arrays(mu.W, -2.5 * mu.C, mu.space, mu.radius), f.feature, f.spec
    )
    x = np.array([0.7])
    assert np.allclose(evaluate(g, x), -2.5 * evaluate(f, x))


def test_adjoint_side_evaluation():
    spec = DualPairSpec(2, "l2")
    feat = FeatureMap("neural", dx=1, radius=2.0, beta="one", activation="sigmoid")
    xs = np.array([[0.2], [-0.5]])
    cds = np.array([[1.0, 0.0], [0.5, -1.0]])
    rho = measure_from_arrays(xs, cds, spec, radius=1.0)
    g = RkbsFunction(rho, feat, spec, adjoint=True)
    w = np.array([0.4, 0.1])
    expected = sum(
        float(1 / (1 + np.exp(-(x[0] * w[0] + w[1])))) * cd for x, cd in zip(xs, cds)
    )
    assert np.allclose(evaluate(g, w), expected, rtol=1e-12)


# ------------------------------------------------------------- norm bracket

def test_norm_single_atom_upper():
    spec = DualPairSpec(2, "l2")
    feat = FeatureMap("neural", dx=1, radius=2.0, beta="one", activation="tanh")
    u = np.array([3.0, 4.0])
    mu = measure_from_arrays([[0.5, 0.2]], [u], spec, radius=2.0)
    f = RkbsFunction(mu, feat, spec)
    assert b_norm_upper(f) == pytest.approx(5.0, rel=1e-14)


def test_norm_zero_function():
    f = RkbsFunction(empty_measure(L2, 1.0),
                     FeatureMap("neural", dx=1, radius=1.0, activation="tanh"), L2)
    assert b_norm_upper(f) == 0.0
    assert b_norm_lower(f, [[0.0]]) == 0.0


def test_norm_coalesce_triangle():
    spec = DualPairSpec(2, "l2")
    feat = FeatureMap("neural", dx=1, radius=2.0, activation="tanh")
    w = [0.5, 0.2]
    mu = measure_from_arrays([w, w], [[1.0, 0.0], [-0.5, 1.0]], spec, radius=2.0)
    f = RkbsFunction(mu, feat, spec)
    assert b_norm_upper(f) <= 1.0 + np.sqrt(1.25) + 1e-14


def test_norm_bracket_ordered_random():
    rng = np.random.default_rng(8)
    probes = rng.uniform(-1, 1, (8, 1))
    for norm in ("l1", "l2"):
        for _ in range(50):
            f = _function(rng, n_atoms=int(rng.integers(1, 6)), norm=norm)
            lo = b_norm_lower(f, probes)
            hi = b_norm_upper(f)
            assert lo <= hi + 1e-12


# ------------------------------------------------------- reproducing checks

def test_verify_reproducing_passes():
    rng = np.random.default_rng(3)
    f = _function(rng, n_atoms=5)
    report = verify_reproducing(f, trials=1000, seed=11)
    assert report.passed
    assert report.max_rel_error <= 1e-10


def test_verify_reproducing_zero_function():
    feat = FeatureMap("neural", dx=1, radius=1.0, activation="tanh")
    f = RkbsFunction(empty_measure(L2, 1.0), feat, L2)
    report = verify_reproducing(f, trials=10, seed=0)
    assert report.passed
    assert report.max_rel_error == 0.0


def test_verify_reproducing_adjoint_side():
    rng = np.random.default_rng(9)
    feat = FeatureMap("neural", dx=2, radius=2.0, activation="sigmoid")
    xs = rng.uniform(-1, 1, (4, 2))
    cds = rng.standard_normal((4, L2.dim))
    rho = measure_from_arrays(xs, cds, conjugate(L2), radius=2.0)
    g = RkbsFunction(rho, feat, L2, adjoint=True)
    report = verify_reproducing(g, trials=300, seed=12)
    assert report.passed
    assert report.max_rel_error <= 1e-10


def test_verify_reproducing_corrupted_fails():
    rng = np.random.default_rng(4)
    f = _function(rng)
    report = verify_reproducing(f, trials=50, seed=5, corruption=1e-3)
    assert not report.passed


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("corruption", [math.nan, math.inf])
def test_verify_reproducing_fails_on_a_non_finite_corruption(corruption, adjoint):
    # the error is NaN, which max() would drop after a finite one; it counts
    # as infinite, so the check fails
    rng = np.random.default_rng(4)
    f = _function(rng)
    if adjoint:
        rho = measure_from_arrays(rng.uniform(-1, 1, (4, 1)), rng.standard_normal((4, 2)),
                                  conjugate(L2), radius=2.0)
        f = RkbsFunction(rho, f.feature, L2, adjoint=True)
    report = verify_reproducing(f, trials=5, seed=5, corruption=corruption)
    assert not report.passed
    assert report.max_rel_error == math.inf


# ----------------------------------------------------------------- vv-RKHS

def test_gaussian_kernel_is_the_gaussian_feature():
    # pairwise is phi_matrix of a gaussian feature with beta one, bit for bit
    # the squared-distance formula; a non-finite bandwidth is rejected
    rng = np.random.default_rng(12)
    for d in (1, 2, 4):
        A = rng.standard_normal((7, d)) * 3.0
        B = np.concatenate([A[:2], rng.standard_normal((5, d))])
        s = 0.7
        d2 = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
              - 2.0 * (A @ B.T))
        expected = np.exp(-np.maximum(d2, 0.0) / (2.0 * s**2))
        assert GaussianKernel(s).pairwise(A, B).tobytes() == expected.tobytes()
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            GaussianKernel(bad)


def test_rkhs_single_point_closed_form():
    y = np.array([[2.0, -1.0]])
    lam = 0.3
    model = rkhs_fit([[0.0]], y, GaussianKernel(1.0), lam)
    # (1 + 1*lam) u = y
    assert np.allclose(model.coeffs, y / (1 + lam), rtol=1e-12)


def test_rkhs_interpolates_at_lambda_zero():
    rng = np.random.default_rng(6)
    X = rng.uniform(-2, 2, (12, 2))
    Y = rng.standard_normal((12, 3))
    model = rkhs_fit(X, Y, GaussianKernel(1.0), 0.0)
    resid = np.max(np.abs(rkhs_predict(model, X) - Y))
    assert resid <= 1e-8
    assert model.coeffs.shape == (12, 3)  # one center per datum


def test_rkhs_two_point_frozen_solve():
    # two centers at distance 2, bandwidth 1, lam = 0.1, identity targets.
    # Expected coefficients from the 2x2 adjugate formula with
    # k = exp(-2): C = [[1.2, -k], [-k, 1.2]] / (1.44 - k^2).
    X = np.array([[0.0], [2.0]])
    Y = np.eye(2)
    model = rkhs_fit(X, Y, GaussianKernel(1.0), 0.1)
    expected = np.array(
        [
            [0.8440692131283029, -0.0951936216916864],
            [-0.0951936216916864, 0.8440692131283029],
        ]
    )
    assert np.allclose(model.coeffs, expected, rtol=1e-12, atol=1e-14)


def test_rkhs_stationarity():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (15, 2))
    Y = rng.standard_normal((15, 2))
    for lam in (0.0, 0.05, 1.0):
        model = rkhs_fit(X, Y, GaussianKernel(0.8), lam)
        assert rkhs_stationarity(model, Y, lam) <= 1e-9


def test_rkhs_duplicate_centers_fail_at_zero():
    X = np.array([[0.5], [0.5]])
    Y = np.array([[1.0], [0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        rkhs_fit(X, Y, GaussianKernel(1.0), 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "Y"])
def test_rkhs_rejects_non_finite_inputs_before_any_arithmetic(where, bad, lam):
    # without the check the Cholesky solve returns NaN coefficients, and at
    # lam = 0 the duplicate-center distances warn on an infinite X first
    data = {"X": np.array([[0.0], [1.0], [2.0]]), "Y": np.array([[1.0], [0.0], [2.0]])}
    data[where][1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="inputs and targets must be finite"):
            rkhs_fit(data["X"], data["Y"], GaussianKernel(1.0), lam)


@pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
def test_rkhs_rejects_a_lambda_that_is_negative_or_not_finite(lam):
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        rkhs_fit([[0.0], [1.0]], [[1.0], [2.0]], GaussianKernel(1.0), lam)


def test_rkhs_tabulated_kernel():
    feat = FeatureMap(
        "tabulated", dx=1, radius=2.0, beta="one",
        x_grid=[-1.0, 0.0, 1.0], w_grid=[-1.0, 0.0, 1.0],
        values=np.eye(3) + 1.0,
    )
    k = TabulatedKernel(feat)
    model = rkhs_fit([[0.0], [1.0]], [[1.0], [2.0]], k, 0.5)
    assert rkhs_stationarity(model, [[1.0], [2.0]], 0.5) <= 1e-9

