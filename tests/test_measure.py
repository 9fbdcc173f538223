import numpy as np
import pytest

from vvrkbs.dual_pair import DualPairSpec, conjugate
from vvrkbs.feature import FeatureMap, grid_sup_abs, phi_matrix
from vvrkbs.measure import (
    MERGE_TOL,
    Atom,
    AtomicVectorMeasure,
    add,
    coalesce,
    empty_measure,
    integrate,
    measure_from_arrays,
    measure_from_json_dict,
    measure_to_json_dict,
    product_pairing,
    scale,
    total_variation,
    _group_by_location,
)

L2 = DualPairSpec(2, "l2")
TANH = FeatureMap("neural", dx=1, radius=3.0, beta="one", activation="tanh")


def _random_measure(rng, spec, radius, n_atoms, dw):
    W = rng.uniform(-radius / 2, radius / 2, size=(n_atoms, dw))
    C = rng.standard_normal((n_atoms, spec.dim))
    return measure_from_arrays(W, C, spec, radius)


# ------------------------------------------------------------- construction

def test_atom_rejects_nonfinite():
    with pytest.raises(ValueError):
        Atom([0.0], [np.inf])


def test_measure_rejects_atom_outside_radius():
    with pytest.raises(ValueError):
        measure_from_arrays([[3.0, 0.0]], [[1.0, 0.0]], L2, radius=1.0)


def test_measure_rejects_payload_dim_mismatch():
    with pytest.raises(ValueError):
        measure_from_arrays([[0.0]], [[1.0, 0.0, 0.0]], L2, radius=1.0)


def test_atoms_are_immutable():
    mu = measure_from_arrays([[0.5]], [[1.0, 2.0]], L2, radius=1.0)
    with pytest.raises(ValueError):
        mu.atoms[0].c[0] = 5.0


# --------------------------------------------------------------- variation

def test_tv_two_distinct_atoms():
    mu = measure_from_arrays(
        [[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, -3.0]], L2, radius=2.0
    )
    assert total_variation(mu) == 5.0


def test_tv_coalesces_same_location():
    mu = measure_from_arrays(
        [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], L2, radius=1.0
    )
    assert total_variation(mu) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_tv_empty():
    assert total_variation(empty_measure(L2, 1.0)) == 0.0


def test_tv_invariant_under_atom_splitting():
    rng = np.random.default_rng(1)
    for norm in ("l1", "l2", "linf"):
        spec = DualPairSpec(3, norm)
        w = np.array([0.25, -0.5])
        c = rng.standard_normal(3)
        whole = measure_from_arrays([w], [c], spec, 1.0)
        split = measure_from_arrays([w, w, w], [0.3 * c, 0.5 * c, 0.2 * c], spec, 1.0)
        assert total_variation(split) == pytest.approx(
            total_variation(whole), rel=1e-12
        )


# ----------------------------------------------------------------- coalesce

def test_coalesce_exact_merge():
    mu = measure_from_arrays(
        [[0.5], [0.5]], [[1.0, 0.0], [0.0, 1.0]], L2, radius=1.0
    )
    merged = coalesce(mu)
    assert len(merged) == 1
    assert np.allclose(merged.atoms[0].c, [1.0, 1.0])


def test_coalesce_annihilation_prunes():
    mu = measure_from_arrays(
        [[0.5], [0.5]], [[1.0, -2.0], [-1.0, 2.0]], L2, radius=1.0
    )
    assert len(coalesce(mu)) == 0


def test_coalesce_tol_zero_identity():
    mu = measure_from_arrays(
        [[0.1], [0.2]], [[1.0, 0.0], [0.0, 1.0]], L2, radius=1.0
    )
    out = coalesce(mu, tol=0.0)
    assert len(out) == 2
    assert np.allclose(out.locations(), mu.locations())
    assert np.allclose(out.payloads(), mu.payloads())


def test_coalesce_preserves_integrate_and_tv():
    rng = np.random.default_rng(3)
    mu = _random_measure(rng, L2, 2.0, 6, 2)
    out = coalesce(mu, tol=0.0, prune_tol=0.0)
    x = np.array([0.4])
    assert np.allclose(integrate(TANH, mu, x), integrate(TANH, out, x))
    assert total_variation(mu) == total_variation(out)


def _greedy_groups(points, tol):
    # reference: compare each row with every group's first row, in order
    groups, reps = [], []
    for i, p in enumerate(points):
        for g, r in enumerate(reps):
            if np.max(np.abs(p - r)) <= tol:
                groups[g].append(i)
                break
        else:
            groups.append([i])
            reps.append(p)
    return groups


@pytest.mark.parametrize("tol", [0.0, 1e-12, MERGE_TOL, 0.3])
def test_group_by_location_matches_greedy_reference(tol):
    rng = np.random.default_rng(8)
    for _ in range(20):
        P = rng.uniform(-1.0, 1.0, (40, 3))
        P[20:] = P[rng.integers(0, 20, 20)] + tol * rng.uniform(-1.5, 1.5, (20, 3))
        assert _group_by_location(P, tol) == _greedy_groups(P, tol)
    assert _group_by_location(np.zeros((0, 2)), tol) == []


# ---------------------------------------------------------------- integrate

def test_integrate_single_atom():
    # tabulated feature pinned to the constant 0.5
    f = FeatureMap(
        "tabulated", dx=1, radius=2.0, beta="one",
        x_grid=[-1.0, 1.0], w_grid=[-2.0, 2.0],
        values=[[0.5, 0.5], [0.5, 0.5]],
    )
    c = np.array([2.0, -4.0])
    mu = measure_from_arrays([[0.3]], [c], L2, radius=2.0)
    assert np.allclose(integrate(f, mu, [0.0]), 0.5 * c)


def test_integrate_empty_measure():
    assert np.allclose(integrate(TANH, empty_measure(L2, 1.0), [0.2]), 0.0)


def test_integrate_cancellation():
    # tanh is odd, so mirrored weights give phi values 1 and -1 times each other
    f = FeatureMap("neural", dx=1, radius=3.0, beta="one", activation="tanh")
    c = np.array([1.0, 1.0])
    mu = measure_from_arrays([[1.0, 0.5], [-1.0, -0.5]], [c, c], L2, radius=2.0)
    assert np.allclose(integrate(f, mu, [0.7]), 0.0, atol=1e-15)


def test_integrate_linear_in_measure():
    rng = np.random.default_rng(9)
    mu1 = _random_measure(rng, L2, 2.0, 4, 2)
    mu2 = _random_measure(rng, L2, 2.0, 3, 2)
    f = FeatureMap("neural", dx=1, radius=2.0, activation="sigmoid")
    x = np.array([0.3])
    alpha = -1.7
    combo = add(scale(mu1, alpha), mu2)
    lhs = integrate(f, combo, x)
    rhs = alpha * integrate(f, mu1, x) + integrate(f, mu2, x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


# ------------------------------------------------------------------ pairing

def test_pairing_single_atoms():
    rng = np.random.default_rng(2)
    ud = rng.standard_normal(2)
    u = rng.standard_normal(2)
    x = np.array([0.4])
    w = np.array([0.6, -0.2])
    rho = measure_from_arrays([x], [ud], conjugate(L2), radius=1.0)
    mu = measure_from_arrays([w], [u], L2, radius=1.0)
    f = FeatureMap("neural", dx=1, radius=1.0, activation="tanh")
    expected = phi_matrix(f, x[None, :], w[None, :])[0, 0] * np.dot(ud, u)
    assert product_pairing(rho, mu, f) == pytest.approx(expected, rel=1e-14)


def test_pairing_zero_measure():
    rho = measure_from_arrays([[0.1]], [[1.0, 1.0]], conjugate(L2), radius=1.0)
    assert product_pairing(rho, empty_measure(L2, 1.0), TANH) == 0.0


def test_pairing_orthogonal_payloads():
    rho = measure_from_arrays(
        [[0.1], [0.4]], [[1.0, 0.0], [2.0, 0.0]], conjugate(L2), radius=1.0
    )
    mu = measure_from_arrays(
        [[0.3, 0.2], [0.5, -0.1]], [[0.0, 1.0], [0.0, -2.0]], L2, radius=1.0
    )
    assert product_pairing(rho, mu, TANH) == 0.0


def test_pairing_requires_conjugate_specs():
    rho = measure_from_arrays([[0.1]], [[1.0, 0.0]], DualPairSpec(2, "l1"), 1.0)
    mu = measure_from_arrays([[0.1]], [[1.0, 0.0]], DualPairSpec(2, "l1"), 1.0)
    with pytest.raises(ValueError):
        product_pairing(rho, mu, TANH)


def test_pairing_tv_bound():
    rng = np.random.default_rng(13)
    f = FeatureMap("neural", dx=1, radius=2.0, beta="smooth_bump", activation="tanh")
    for _ in range(100):
        rho = _random_measure(rng, conjugate(L2), 1.0, rng.integers(1, 5), 1)
        mu = _random_measure(rng, L2, 2.0, rng.integers(1, 5), 2)
        val = abs(product_pairing(rho, mu, f))
        # |phi| <= 1 for tanh with a bump truncation
        assert val <= total_variation(rho) * total_variation(mu) + 1e-12


def test_point_evaluation_bound():
    rng = np.random.default_rng(14)
    f = FeatureMap("neural", dx=1, radius=2.0, beta="smooth_bump", activation="sigmoid")
    for _ in range(100):
        mu = _random_measure(rng, L2, 2.0, rng.integers(1, 6), 2)
        x = rng.uniform(-1, 1, 1)
        val = np.linalg.norm(integrate(f, mu, x))
        sup = grid_sup_abs(f, x, mu.radius, per_dim=9, extra_ws=mu.locations())
        assert val <= sup * total_variation(mu) + 1e-12


# ------------------------------------------------------------- serialization

def test_measure_json_round_trip():
    mu = measure_from_arrays(
        [[0.5, -0.25], [1.0, 0.75]], [[1.5, 0.0], [0.0, -2.5]], L2, radius=2.0
    )
    d = measure_to_json_dict(mu)
    assert list(d.keys()) == ["atoms", "norm", "radius"]
    assert list(d["atoms"][0].keys()) == ["w", "c"]
    back = measure_from_json_dict(d)
    assert np.allclose(back.locations(), mu.locations())
    assert np.allclose(back.payloads(), mu.payloads())
    assert back.space == mu.space
    assert back.radius == mu.radius


def test_measure_json_rejects_garbage():
    with pytest.raises(ValueError):
        measure_from_json_dict({"atoms": []})
