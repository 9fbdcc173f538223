"""Two-level spaces for operator learning.

A hyper-atom contributes a * phi(z, w) * psi(x, theta) * v, so a finite
atomic model is simultaneously a measure over (w, theta) with vector
payloads (weight form) and a measure over w whose payloads are base
functions of x (function form).  Both views evaluate identically; their
norms differ, with the function-form upper bound dominated by the
weight-form total variation.  A hyper-atom is an atom of the flat
solver over the product feature phi(z_n, w) psi(x_j, theta) <v_j, v>, so
the joint fit and the product-grid oracle run on the solver's engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dual_pair import DualPairSpec, dual_norm_value, primal_witness, row_norms
from .feature import (
    FeatureMap,
    feature_from_json_dict,
    feature_to_json_dict,
    grad_phi_w_batch,
    phi_matrix,
)
from .measure import (
    _coalesce_rows,
    _frozen,
    _group_by_location,
    coalesce,
    integrate,
    measure_from_arrays,
    total_variation,
)
from .rkbs import RkbsFunction, evaluate as rkbs_evaluate
from .solver import (
    FitOptions,
    Loss,
    _AtomFamily,
    _cg_fit,
    _group_refit,
    _multistart,
    loss_values,
)


@dataclasses.dataclass(frozen=True)
class HyperAtom:
    """One product atom a * phi(., w) psi(., theta) v."""

    a: float
    w: np.ndarray
    theta: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        for name in ("w", "theta", "v"):
            arr = _frozen(np.atleast_1d(getattr(self, name)))
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"atom field {name} must be a finite vector")
            object.__setattr__(self, name, arr)
        if not np.isfinite(self.a):
            raise ValueError("atom weight must be finite")


def _check_ball(points: np.ndarray, radius: float, what: str):
    norms = np.sqrt(np.sum(points * points, axis=1))
    if np.any(norms > radius * (1 + 1e-9) + 1e-12):
        raise ValueError(f"{what} must lie in the radius-{radius} ball")


@dataclasses.dataclass(frozen=True)
class HyperModel:
    """Atomic two-level model with hyper feature phi and base feature psi."""

    atoms: tuple
    phi: FeatureMap
    psi: FeatureMap
    spec: DualPairSpec

    def __post_init__(self):
        atoms = tuple(self.atoms)
        for at in atoms:
            if len(at.w) != self.phi.dw:
                raise ValueError("atom w does not match the hyper feature")
            if len(at.theta) != self.psi.dw:
                raise ValueError("atom theta does not match the base feature")
            if len(at.v) != self.spec.dim:
                raise ValueError("atom payload does not match the value space")
        if atoms:
            _check_ball(np.stack([a.w for a in atoms]), self.phi.radius, "w")
            _check_ball(
                np.stack([a.theta for a in atoms]), self.psi.radius, "theta"
            )
        object.__setattr__(self, "atoms", atoms)

    def arrays(self):
        """(a, W, Theta, V) stacked over atoms."""
        return (
            np.array([at.a for at in self.atoms], dtype=float),
            np.array([at.w for at in self.atoms]).reshape(-1, self.phi.dw),
            np.array([at.theta for at in self.atoms]).reshape(-1, self.psi.dw),
            np.array([at.v for at in self.atoms]).reshape(-1, self.spec.dim),
        )


# ------------------------------------------------------------- evaluation

def evaluate_weight_form(m: HyperModel, z, x) -> np.ndarray:
    """Collapse the hyper level first: inner measure over theta, then base."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, W, Theta, V = m.arrays()
    if not m.atoms:
        return np.zeros(m.spec.dim)
    coeff = a * phi_matrix(m.phi, z[None, :], W)[0]
    inner = measure_from_arrays(Theta, coeff[:, None] * V, m.spec, m.psi.radius)
    return integrate(m.psi, inner, x)


def _w_groups(m: HyperModel):
    """(w, inner measure over theta) for each distinct-w group of atoms."""
    a, W, Theta, V = m.arrays()
    for idx in _group_by_location(W):
        inner = measure_from_arrays(
            Theta[idx], a[idx, None] * V[idx], m.spec, m.psi.radius
        )
        yield W[idx[0]], inner


def evaluate_function_form(m: HyperModel, z, x) -> np.ndarray:
    """Collapse the base level first: one base function per distinct w."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(m.spec.dim)
    for w, inner in _w_groups(m):
        weight = float(phi_matrix(m.phi, z[None, :], w[None, :])[0, 0])
        out += weight * rkbs_evaluate(RkbsFunction(inner, m.psi, m.spec), x)
    return out


def hyper_evaluate(m: HyperModel, z, x) -> np.ndarray:
    """Evaluate f(z)(x), checking that both collapse orders agree."""
    wf = evaluate_weight_form(m, z, x)
    ff = evaluate_function_form(m, z, x)
    scale = np.maximum(1.0, np.maximum(np.abs(wf), np.abs(ff)))
    err = np.max(np.abs(wf - ff) / scale)
    if err > 1e-12:
        raise ArithmeticError(
            f"weight-form and function-form evaluations disagree ({err:.3e})"
        )
    return wf


# ------------------------------------------------------------------- norms

def _inner_measures(m: HyperModel):
    """Coalesced inner measure over theta for each distinct w group."""
    return [coalesce(inner) for _, inner in _w_groups(m)]


def weight_form_tv(m: HyperModel) -> float:
    """Total variation of the measure over (w, theta): sum over distinct w
    of the inner measure's total variation."""
    return float(sum(total_variation(inner) for inner in _inner_measures(m)))


def _probe_points(psi: FeatureMap, n_probes: int, radius: float, seed: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(-radius, radius, (n_probes, psi.dx))


def function_form_tv_upper(
    m: HyperModel, n_probes: int = 32, probe_radius: float = 1.0, seed: int = 0
) -> float:
    """Upper bound on the function-form norm.

    Within each distinct-w group, inner atoms whose base functions
    psi(., theta) coincide on a probe set are merged before summing
    payload norms; by the triangle inequality the result never exceeds
    weight_form_tv.  The true function-space infimum is not computable,
    so this representative bound is what the domination statement is
    about.
    """
    probes = _probe_points(m.psi, n_probes, probe_radius, seed)
    norm = m.spec.primal_norm
    total = 0.0
    for inner in _inner_measures(m):
        if not inner.atoms:
            continue
        cols = phi_matrix(m.psi, probes, inner.locations())
        _, sums = _coalesce_rows(cols.T, inner.payloads(), norm, tol=1e-12, prune_tol=0.0)
        total += float(sum(row_norms(sums, norm).tolist()))
    return total


# --------------------------------------------------------------------- fit

@dataclasses.dataclass(frozen=True)
class SampledMeasurement:
    """Base-space sampling functionals: M_j f = <v_j, f(x_j)>."""

    points: np.ndarray
    functionals: np.ndarray

    def __post_init__(self):
        P = _frozen(np.atleast_2d(self.points))
        V = _frozen(np.atleast_2d(self.functionals))
        if P.shape[0] != V.shape[0]:
            raise ValueError("points and functionals differ in length")
        if P.shape[0] < 1:
            raise ValueError("need at least one sampling functional")
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "functionals", V)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]


@dataclasses.dataclass(frozen=True)
class HyperFitState:
    model: HyperModel
    objective_history: tuple
    certificate: float
    iterations: int
    seed: int
    converged: bool


def _hyper_predictions(Phi, Psi, V, C):
    # P[n, j] = sum_m Phi[n, m] Psi[j, m] (C V^T)[m, j]
    B = C @ V.T
    return Phi @ (Psi.T * B)


def hyper_objective(
    Z, Y, sampling: SampledMeasurement, model: HyperModel, lam: float,
    loss: Loss = Loss(),
) -> float:
    """Mean loss of the sampled predictions plus lam * weight_form_tv."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    a, W, Theta, Vp = model.arrays()
    if model.atoms:
        Phi = phi_matrix(model.phi, Z, W)
        Psi = phi_matrix(model.psi, sampling.points, Theta)
        P = _hyper_predictions(Phi, Psi, sampling.functionals, a[:, None] * Vp)
    else:
        P = np.zeros_like(Y)
    data = float(np.sum(loss_values(loss, P, Y))) / len(Z)
    return data + lam * weight_form_tv(model)


def _hyper_score_grid(phi_f, psi_f, Z, Xj, GN, V, spec, w_grid, theta_grid):
    """Exhaustive oracle over the product grid; ties to the lowest pair."""
    PhiG = phi_matrix(phi_f, Z, w_grid)           # (N, Gw)
    PsiG = phi_matrix(psi_f, Xj, theta_grid)      # (J, Gt)
    R = PhiG.T @ GN                               # (Gw, J)
    best = None
    for t in range(theta_grid.shape[0]):
        Q = (R * PsiG[:, t][None, :]) @ V         # (Gw, d)
        scores = row_norms(Q, spec.dual_norm)
        g = int(np.argmax(scores))
        if best is None or scores[g] > best[0]:
            best = (float(scores[g]), g, t, Q[g])
    score, g, t, q = best
    return w_grid[g].copy(), theta_grid[t].copy(), primal_witness(spec, q), score


def _hyper_oracle_score(phi_f, psi_f, Z, Xj, GN, V, spec):
    """(value, direction) of the oracle score at a location (w, theta)."""
    dw = phi_f.dw

    def value(L):
        pc = phi_matrix(phi_f, Z, L[None, :dw])[:, 0]
        qc = phi_matrix(psi_f, Xj, L[None, dw:])[:, 0]
        q = ((pc @ GN) * qc) @ V
        return dual_norm_value(spec, q), (primal_witness(spec, q), pc, qc)

    def direction(L, state):
        u, pc, qc = state
        e = V @ u
        gw = grad_phi_w_batch(phi_f, Z, L[:dw]).T @ (GN @ (qc * e))
        gt = grad_phi_w_batch(psi_f, Xj, L[dw:]).T @ ((GN.T @ pc) * e)
        return np.concatenate([gw, gt])

    return value, direction


def _product_family(Z, Y, sampling, phi, psi, spec, lam, opts=FitOptions(),
                    w_grid=None, theta_grid=None) -> _AtomFamily:
    """Hyper-atoms as flat atoms of the product feature.

    The location is (w, theta), the payload v, and the measurement is the
    lifted sampling: atom columns phi(z_n, w) psi(x_j, theta) <v_j, v>.
    The oracle searches the product grid when both grids are given and
    runs multistart ascent over both balls otherwise.
    """
    n, dw = Z.shape[0], phi.dw
    Xj, V = sampling.points, sampling.functionals

    def design(L):
        return phi_matrix(phi, Z, L[:, :dw]), phi_matrix(psi, Xj, L[:, dw:])

    def pull_back(B, G):
        Phi, Psi = B
        return ((Phi.T @ G) * Psi.T) @ V

    def search(G, k):
        GN = G / n
        if w_grid is not None and theta_grid is not None:
            w, th, u, score = _hyper_score_grid(
                phi, psi, Z, Xj, GN, V, spec, w_grid, theta_grid
            )
            return np.concatenate([w, th]), u, score
        value, direction = _hyper_oracle_score(phi, psi, Z, Xj, GN, V, spec)
        L, (u, _, _), score = _multistart(
            value, direction, (phi, psi), opts.restarts, opts.seed + 7919 * k
        )
        return L, u, score

    return _AtomFamily(
        Y=Y,
        loss=Loss(),
        lam=lam,
        norm=spec.primal_norm,
        dim=spec.dim,
        features=(phi, psi),
        design=design,
        predict=lambda B, C: _hyper_predictions(B[0], B[1], V, C),
        pull_back=pull_back,
        search=search,
    )


def hyper_fit(
    Z,
    Y,
    sampling: SampledMeasurement,
    phi: FeatureMap,
    psi: FeatureMap,
    spec: DualPairSpec,
    lam: float,
    opts: FitOptions = FitOptions(),
    w_grid=None,
    theta_grid=None,
) -> HyperFitState:
    """Conditional gradient over hyper-atoms with free payload refits.

    The lifted data matrix couples each training input z_n with every
    sampling functional (v_j, x_j); atom locations are (w, theta) pairs
    searched jointly.  The weight-form total variation is the penalty,
    which for free payload rows is the usual sum of primal norms.  The
    loop is the flat solver's, run on the product feature.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if not lam > 0:
        raise ValueError("hyper_fit requires lam > 0")
    if opts.mode != "group":
        raise ValueError("hyper_fit refits free payloads (group mode only)")
    if Z.shape[0] != Y.shape[0]:
        raise ValueError("Z and Y differ in length")
    if Z.shape[1] != phi.dx:
        raise ValueError("Z width does not match the hyper feature")
    if sampling.points.shape[1] != psi.dx:
        raise ValueError("sampling points do not match the base feature")
    if sampling.functionals.shape[1] != spec.dim:
        raise ValueError("functionals do not match the value space")
    if Y.shape[1] != sampling.n_samples:
        raise ValueError("Y width must equal the number of functionals")
    if w_grid is not None:
        w_grid = np.atleast_2d(np.asarray(w_grid, dtype=float))
        _check_ball(w_grid, phi.radius, "w_grid")
    if theta_grid is not None:
        theta_grid = np.atleast_2d(np.asarray(theta_grid, dtype=float))
        _check_ball(theta_grid, psi.radius, "theta_grid")
    fam = _product_family(Z, Y, sampling, phi, psi, spec, lam, opts, w_grid, theta_grid)
    L, C, history, certificate, iterations, converged = _cg_fit(fam, opts)
    dw = phi.dw
    atoms = tuple(HyperAtom(1.0, loc[:dw], loc[dw:], c) for loc, c in zip(L, C))
    return HyperFitState(
        model=HyperModel(atoms, phi, psi, spec),
        objective_history=history,
        certificate=certificate,
        iterations=iterations,
        seed=opts.seed,
        converged=converged,
    )


def hyper_grid_oracle(
    Z,
    Y,
    sampling: SampledMeasurement,
    phi: FeatureMap,
    psi: FeatureMap,
    spec: DualPairSpec,
    lam: float,
    w_grid,
    theta_grid,
    max_iter: int = 20000,
    tol: float = 1e-10,
):
    """Solve the product-grid discretization: one free payload row per
    (w, theta) pair.  Returns (objective, coefficient matrix)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    w_grid = np.atleast_2d(np.asarray(w_grid, dtype=float))
    theta_grid = np.atleast_2d(np.asarray(theta_grid, dtype=float))
    # product enumeration: pair index p = gw * Gt + gt
    Gw, Gt = w_grid.shape[0], theta_grid.shape[0]
    L = np.hstack([np.repeat(w_grid, Gt, axis=0), np.tile(theta_grid, (Gw, 1))])
    fam = _product_family(Z, Y, sampling, phi, psi, spec, lam)
    C0 = np.zeros((Gw * Gt, spec.dim))
    C, obj = _group_refit(fam, fam.design(L), C0, max_iter, tol)
    return obj, C


# ---------------------------------------------------------------- deeponet

def deeponet_embed(basis, coeffs, phi: FeatureMap) -> HyperModel:
    """Build the hyper model Sum_n a_n(z) zeta_n(x).

    ``basis`` holds atomic base functions zeta_n, ``coeffs[n]`` the list
    of (a_nk, w_nk) pairs defining a_n(z) = Sum_k a_nk phi(z, w_nk).
    Every (coefficient atom, basis atom) pair becomes one hyper-atom.
    """
    if len(basis) != len(coeffs):
        raise ValueError("need one coefficient list per basis function")
    if not basis:
        raise ValueError("need at least one basis function")
    for zeta in basis:
        if not isinstance(zeta, RkbsFunction) or zeta.adjoint:
            raise ValueError("basis functions must be atomic primal-side functions")
    psi = basis[0].feature
    spec = basis[0].spec
    for zeta in basis[1:]:
        same_feature = zeta.feature is psi or feature_to_json_dict(
            zeta.feature
        ) == feature_to_json_dict(psi)
        if not same_feature or zeta.spec != spec:
            raise ValueError("basis functions must share one feature and space")
    atoms = []
    for zeta, pairs in zip(basis, coeffs):
        for a_nk, w_nk in pairs:
            for at in zeta.measure.atoms:
                atoms.append(HyperAtom(float(a_nk), w_nk, at.w, at.c))
    return HyperModel(tuple(atoms), phi, psi, spec)


# -------------------------------------------------------------------- json

def hyper_model_to_json_dict(m: HyperModel) -> dict:
    return {
        "atoms": [
            {
                "a": float(at.a),
                "w": [float(v) for v in at.w],
                "theta": [float(v) for v in at.theta],
                "v": [float(v) for v in at.v],
            }
            for at in m.atoms
        ],
        "phi": feature_to_json_dict(m.phi),
        "psi": feature_to_json_dict(m.psi),
    }


def hyper_model_from_json_dict(d: dict, spec: DualPairSpec) -> HyperModel:
    """The value-space pairing is not serialized, so the caller names it."""
    try:
        phi = feature_from_json_dict(d["phi"])
        psi = feature_from_json_dict(d["psi"])
        atoms = tuple(
            HyperAtom(e["a"], e["w"], e["theta"], e["v"]) for e in d["atoms"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hyper model payload: {exc}") from exc
    return HyperModel(atoms, phi, psi, spec)
