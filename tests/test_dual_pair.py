import numpy as np
import pytest

from vvrkbs.dual_pair import (
    DualPairSpec,
    _norm_and_witness,
    TwinOperator,
    conjugate,
    conjugate_norm,
    dual_norm_value,
    dual_witness,
    induced_matrix_norm,
    norm_witness,
    operator_norm_dual,
    operator_norm_primal,
    pair,
    primal_norm_value,
    primal_witness,
    row_norms,
    twin_apply_dual,
    twin_apply_primal,
    twin_norm,
    twin_value,
    vector_norm,
)

NORMS = ("l1", "l2", "linf")


# ---------------------------------------------------------------- oracle

def _ball_norm(u, norm):
    # independent norm formulas for the sampling oracle below
    if norm == "l1":
        return np.abs(u).sum(axis=-1)
    if norm == "l2":
        return np.sqrt((u * u).sum(axis=-1))
    return np.abs(u).max(axis=-1)


def _sampled_twin_norm(matrix, primal, n_samples, seed):
    """Lower bound on sup |u_dual^T M u| from sampled unit-ball pairs.

    Samples u on the extreme points of the primal ball (where the sup
    lives) and pairs each with the best u_dual in the conjugate ball,
    chosen by the elementary closed form for maximizing a linear
    functional over an lp ball.  Every sample is a legitimate pair of
    unit-ball vectors, so the max is a certified lower bound.
    """
    rng = np.random.default_rng(seed)
    m = np.asarray(matrix, float)
    d = m.shape[1]
    if primal == "l1":
        js = rng.integers(0, d, size=n_samples)
        signs = rng.choice([-1.0, 1.0], size=n_samples)
        U = np.zeros((n_samples, d))
        U[np.arange(n_samples), js] = signs
    elif primal == "l2":
        U = rng.standard_normal((n_samples, d))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    else:  # linf: extreme points are sign vectors
        U = rng.choice([-1.0, 1.0], size=(n_samples, d))
    MU = U @ m.T
    # best conjugate-ball u_dual for each Mu: value is the primal norm of Mu
    vals = _ball_norm(MU, primal)
    return float(vals.max())


# ---------------------------------------------------------------- spec

def test_conjugate_norms():
    assert conjugate_norm("l1") == "linf"
    assert conjugate_norm("linf") == "l1"
    assert conjugate_norm("l2") == "l2"
    with pytest.raises(ValueError):
        conjugate_norm("l3")


def test_spec_validation():
    s = DualPairSpec(3, "l1")
    assert s.dual_norm == "linf"
    assert s.pairing_constant == 1.0
    assert conjugate(s).primal_norm == "linf"
    with pytest.raises(ValueError):
        DualPairSpec(0, "l2")
    with pytest.raises(ValueError):
        DualPairSpec(2, "lp")


# ---------------------------------------------------------------- pairing

def test_pair_dot_product():
    s = DualPairSpec(2, "l2")
    assert pair(s, [1, 2], [3, 4]) == 11.0


def test_pair_orthonormal_basis():
    s = DualPairSpec(3, "l2")
    e = np.eye(3)
    for j in range(3):
        for k in range(3):
            if j != k:
                assert pair(s, e[j], e[k]) == 0.0


def test_pair_cancellation_l1():
    s = DualPairSpec(2, "l1")
    assert pair(s, [1, -1], [0.5, 0.5]) == 0.0


def test_pair_dimension_mismatch():
    s = DualPairSpec(2, "l2")
    with pytest.raises(ValueError):
        pair(s, [1, 2, 3], [1, 2])


def test_dual_norm_values():
    assert dual_norm_value(DualPairSpec(2, "l2"), [3, -4]) == 5.0
    # dual of l1 is linf
    assert dual_norm_value(DualPairSpec(2, "l1"), [3, -4]) == 4.0
    # dual of linf is l1
    assert dual_norm_value(DualPairSpec(2, "linf"), [3, -4]) == 7.0


def test_norming_identity_witnessed():
    rng = np.random.default_rng(7)
    for norm in NORMS:
        s = DualPairSpec(4, norm)
        for _ in range(200):
            u = rng.standard_normal(4) * 10 ** rng.uniform(-2, 2)
            w = dual_witness(s, u)
            assert dual_norm_value(s, w) == pytest.approx(1.0, abs=1e-12)
            assert pair(s, w, u) == pytest.approx(
                primal_norm_value(s, u), rel=1e-12
            )
            # and the mirror identity on the dual side
            v = primal_witness(s, u)
            assert primal_norm_value(s, v) == pytest.approx(1.0, abs=1e-12)
            assert pair(s, u, v) == pytest.approx(
                dual_norm_value(s, u), rel=1e-12
            )


def test_pairing_bound_holds():
    rng = np.random.default_rng(11)
    for norm in NORMS:
        s = DualPairSpec(3, norm)
        for _ in range(300):
            ud = rng.standard_normal(3)
            u = rng.standard_normal(3)
            assert abs(pair(s, ud, u)) <= (
                dual_norm_value(s, ud) * primal_norm_value(s, u) + 1e-12
            )


# ---------------------------------------------------------------- twin ops

def test_twin_identity_form():
    T = TwinOperator(np.eye(2))
    assert np.allclose(twin_apply_primal(T, [2, 5]), [2, 5])


def test_twin_projection():
    T = TwinOperator(np.diag([1.0, 0.0]))
    assert np.allclose(twin_apply_primal(T, [3, 7]), [3, 0])


def test_twin_adjoint_relation_sampled():
    rng = np.random.default_rng(3)
    T = TwinOperator(rng.standard_normal((3, 3)))
    s = DualPairSpec(3, "l2")
    worst = 0.0
    for _ in range(100):
        ud = rng.standard_normal(3)
        u = rng.standard_normal(3)
        a = pair(s, twin_apply_dual(T, ud), u)
        b = pair(s, ud, twin_apply_primal(T, u))
        c = twin_value(T, ud, u)
        worst = max(worst, abs(a - b), abs(a - c))
    scale = max(1.0, abs(a))
    assert worst / scale <= 1e-12


def test_twin_bilinearity_exact_on_rationals():
    # dyadic-rational inputs keep the arithmetic exact
    T = TwinOperator(np.array([[0.5, 0.25], [1.0, -0.75]]))
    ud1 = np.array([1.0, 2.0])
    ud2 = np.array([-0.5, 4.0])
    u = np.array([0.25, -1.0])
    assert twin_value(T, ud1 + 2.0 * ud2, u) == (
        twin_value(T, ud1, u) + 2.0 * twin_value(T, ud2, u)
    )
    u2 = np.array([2.0, 0.5])
    assert twin_value(T, ud1, u + 4.0 * u2) == (
        twin_value(T, ud1, u) + 4.0 * twin_value(T, ud1, u2)
    )


def test_twin_value_dimension_mismatch():
    T = TwinOperator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        twin_value(T, [1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        twin_apply_primal(T, [1, 2])
    with pytest.raises(ValueError):
        twin_apply_dual(T, [1, 2, 3])


def test_twin_norm_identity_and_diag():
    s = DualPairSpec(2, "l2")
    assert twin_norm(s, TwinOperator(np.eye(2))) == pytest.approx(1.0, rel=1e-12)
    assert twin_norm(s, TwinOperator(np.diag([2.0, 3.0]))) == pytest.approx(
        3.0, rel=1e-12
    )


def test_induced_norm_closed_forms():
    m = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert induced_matrix_norm(m, "l1") == 6.0  # max column abs sum
    assert induced_matrix_norm(m, "linf") == 7.0  # max row abs sum
    assert induced_matrix_norm(m, "l2") == pytest.approx(
        np.linalg.svd(m, compute_uv=False)[0], rel=1e-14
    )


def test_twin_norm_equals_both_operator_norms():
    rng = np.random.default_rng(21)
    for norm in NORMS:
        s = DualPairSpec(4, norm)
        for _ in range(100):
            T = TwinOperator(rng.standard_normal((4, 4)))
            tn = twin_norm(s, T)
            assert abs(tn - operator_norm_primal(s, T)) <= 1e-10
            assert abs(tn - operator_norm_dual(s, T)) <= 1e-10


def test_twin_norm_vs_sampling_oracle_4x4():
    rng = np.random.default_rng(42)
    for norm in NORMS:
        s = DualPairSpec(4, norm)
        for k in range(5):
            T = TwinOperator(rng.standard_normal((4, 4)))
            closed = twin_norm(s, T)
            sampled = _sampled_twin_norm(T.matrix, norm, 100_000, seed=1000 + k)
            assert sampled <= closed + 1e-12
            assert closed <= sampled + 1e-2


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_row_norms_match_vector_norm_bitwise(norm):
    rng = np.random.default_rng(17)
    for d in range(1, 41):
        block = rng.standard_normal((30, 2 * d + 1)) * 10.0 ** rng.uniform(-6, 6)
        contiguous = np.ascontiguousarray(block[:, :d])
        for A in (contiguous, block[:, ::2][:, :d], block[::2, 1:]):
            expected = np.array([vector_norm(row, norm) for row in A])
            assert np.array_equal(row_norms(A, norm), expected)
    assert row_norms(np.zeros((0, 3)), norm).shape == (0,)


@pytest.mark.parametrize("norm", NORMS)
def test_norm_and_witness_is_vector_norm_and_norm_witness_bitwise(norm):
    # the oracle scores take both from one helper; zero vectors included
    rng = np.random.default_rng(3)
    vectors = [np.zeros(1), np.zeros(3), np.array([0.0, -0.0, 5e-324]),
               *rng.standard_normal((20, 4)), *(1e-200 * rng.standard_normal((5, 2)))]
    for u in vectors:
        score, witness = _norm_and_witness(u, norm)
        assert np.float64(score).tobytes() == np.float64(vector_norm(u, norm)).tobytes()
        assert witness.tobytes() == norm_witness(u, norm).tobytes()
