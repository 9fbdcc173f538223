"""Two-level spaces for operator learning.

A two-level model is a finite atomic measure over the product parameter
(w, theta), held as four arrays: atom m contributes
a[m] * phi(z, W[m]) * psi(x, Theta[m]) * V[m].  The same atoms are a
measure over (w, theta) with vector payloads (weight form) and a measure
over w whose payloads are base functions of x (function form).  Both
views evaluate identically; their norms differ, with the function-form
upper bound dominated by the weight-form total variation.  The groups of
atoms that share a w are computed once, when the model is built, and
every evaluation and norm reads them.  A query evaluates phi(z, W) and
psi(x, Theta) once each; both collapse orders read those two rows, the
function form as one segment sum over the groups.  What the features
read of the atoms alone, the truncations beta(W) and beta(Theta) and the
tabulated w-cells, is bound when the model is built, so a query computes
only what depends on z and x.  An atom is an
atom of the flat solver over the product feature
phi(z_n, w) psi(x_j, theta) <v_j, v>, so the joint fit and the
product-grid oracle run on the solver's engine.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .dual_pair import DualPairSpec, _reals, norm_witness, primal_witness, row_norms, vector_norm
from .feature import (
    FeatureMap,
    bind_locations,
    feature_column,
    feature_from_json_dict,
    feature_to_json_dict,
    phi_bound,
    phi_matrix,
)
from .measure import _check_ball, _check_grid, _coalesce_rows, _frozen, _group_by_location
from .rkbs import RkbsFunction
from .solver import (
    FitOptions,
    _AtomFamily,
    _cg_fit,
    _data_fit,
    _grid_solve,
    _multistart,
    _positive_lam,
)

PROBES = 32         # probe points of the function-form bound
PROBE_RADIUS = 1.0  # the probes are uniform in [-PROBE_RADIUS, PROBE_RADIUS]^dx
PROBE_SEED = 0      # seed of the probe draw


@dataclasses.dataclass(frozen=True)
class HyperModel:
    """Atomic two-level model with hyper feature phi and base feature psi.

    Atom m is a[m] * phi(., W[m]) psi(., Theta[m]) V[m]; the arrays are
    read-only, C-ordered floats (``_reals``) of shapes (n,), (n, phi.dw),
    (n, psi.dw) and (n, spec.dim).  ``groups`` holds one read-only index array per
    distinct w, in order of first occurrence, computed at construction.
    ``layout`` is the same grouping flat, for segment sums: the atom
    order (the groups concatenated), each group's offset in it, and the
    rows a[m] V[m] in that order, all read-only.  ``w_bound`` and
    ``theta_bound`` are ``bind_locations`` of phi over W and of psi over
    Theta: the truncations and tabulated w-cells a query reads, read-only
    arrays, so the model pickles.
    """

    a: np.ndarray
    W: np.ndarray
    Theta: np.ndarray
    V: np.ndarray
    phi: FeatureMap
    psi: FeatureMap
    spec: DualPairSpec
    groups: tuple = dataclasses.field(init=False, repr=False, compare=False)
    layout: tuple = dataclasses.field(init=False, repr=False, compare=False)
    w_bound: tuple = dataclasses.field(init=False, repr=False, compare=False)
    theta_bound: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _frozen(_reals(self.a, "a"))
        if a.ndim != 1:
            raise ValueError("atom weights a must be a vector")
        widths = {"W": self.phi.dw, "Theta": self.psi.dw, "V": self.spec.dim}
        for name, width in widths.items():
            # a fixed layout, so matrix products do not round by the caller's
            arr = np.array(_reals(getattr(self, name), name), order="C")
            if arr.size == 0:  # an empty model may come as empty lists
                arr = arr.reshape(0, width)
            if arr.shape != (len(a), width):
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected ({len(a)}, {width})"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not all(np.isfinite(x).all() for x in (a, self.W, self.Theta, self.V)):
            raise ValueError("atoms must have finite entries")
        _check_ball(self.W, self.phi.radius, "w")
        _check_ball(self.Theta, self.psi.radius, "theta")
        object.__setattr__(self, "a", a)
        groups = tuple(_frozen(g, int) for g in _group_by_location(self.W))
        object.__setattr__(self, "groups", groups)
        order = np.concatenate([np.zeros(0, dtype=int), *groups])
        starts = np.cumsum([0] + [len(g) for g in groups])[:-1]
        layout = (_frozen(order, int), _frozen(starts, int),
                  _frozen(a[order, None] * self.V[order]))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "w_bound", bind_locations(self.phi, self.W))
        object.__setattr__(self, "theta_bound", bind_locations(self.psi, self.Theta))

    @functools.cached_property
    def inner(self) -> tuple:
        """Coalesced (Theta, payload) rows of the inner measure of each
        distinct w, read-only; computed at the first norm and kept."""
        return tuple(
            tuple(_frozen(r) for r in _coalesce_rows(
                self.Theta[idx], self.a[idx, None] * self.V[idx], self.spec.primal_norm))
            for idx in self.groups)

    @functools.cached_property
    def _tv_upper(self) -> float:
        """``function_form_tv_upper``, computed at its first call and kept."""
        probes = np.random.default_rng(PROBE_SEED).uniform(
            -PROBE_RADIUS, PROBE_RADIUS, (PROBES, self.psi.dx))
        norm = self.spec.primal_norm
        total = 0.0
        for Theta, C in self.inner:
            if not len(C):
                continue
            cols = phi_matrix(self.psi, probes, Theta)
            _, sums = _coalesce_rows(cols.T, C, norm, tol=1e-12, prune_tol=0.0)
            total += float(sum(row_norms(sums, norm).tolist()))
        return total


# ------------------------------------------------------------- evaluation

def _query_rows(m: HyperModel, z, x):
    """phi(z, W) and psi(x, Theta) over all atoms, bitwise as phi_matrix: a
    query's two feature rows, each computing only what reads z or x on the
    model's bound locations.  Raises ValueError on a non-finite z or x, and
    phi_matrix's ValueError on a z or x of the wrong width."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (np.isfinite(z).all() and np.isfinite(x).all()):
        raise ValueError("query points z and x must be finite")
    return (phi_bound(m.phi, z[None, :], m.w_bound)[0],
            phi_bound(m.psi, x[None, :], m.theta_bound)[0])


def _weight_form(m: HyperModel, hw, base) -> np.ndarray:
    return base @ ((m.a * hw)[:, None] * m.V)


def _function_form(m: HyperModel, hw, base) -> np.ndarray:
    order, starts, payloads = m.layout
    if not len(starts):  # reduceat takes no empty offsets
        return np.zeros(m.spec.dim)
    sums = np.add.reduceat(base[order, None] * payloads, starts, axis=0)
    return hw[order[starts]] @ sums


def evaluate_weight_form(m: HyperModel, z, x) -> np.ndarray:
    """Collapse the hyper level first: inner measure over theta, then base."""
    return _weight_form(m, *_query_rows(m, z, x))


def evaluate_function_form(m: HyperModel, z, x) -> np.ndarray:
    """Collapse the base level first: one base function per distinct w."""
    return _function_form(m, *_query_rows(m, z, x))


def hyper_evaluate(m: HyperModel, z, x) -> np.ndarray:
    """Evaluate f(z)(x), checking that both collapse orders agree.

    Raises ValueError on a non-finite z or x, and ArithmeticError when
    the two orders differ by more than 1e-12 relative.
    """
    hw, base = _query_rows(m, z, x)
    wf = _weight_form(m, hw, base)
    ff = _function_form(m, hw, base)
    scale = np.maximum(1.0, np.maximum(np.abs(wf), np.abs(ff)))
    err = np.max(np.abs(wf - ff) / scale)
    if not err <= 1e-12:
        raise ArithmeticError(
            f"weight-form and function-form evaluations disagree ({err:.3e})"
        )
    return wf


# ------------------------------------------------------------------- norms

def weight_form_tv(m: HyperModel) -> float:
    """Total variation of the measure over (w, theta): sum over distinct w
    of the inner measure's total variation."""
    norm = m.spec.primal_norm
    return float(sum(
        float(sum(row_norms(C, norm).tolist())) for _, C in m.inner
    ))


def function_form_tv_upper(m: HyperModel) -> float:
    """Upper bound on the function-form norm.

    Within each distinct-w group, inner atoms whose base functions
    psi(., theta) coincide on the probe set are merged before summing
    payload norms; by the triangle inequality the result never exceeds
    weight_form_tv.  The probes are PROBES points drawn uniformly from
    [-PROBE_RADIUS, PROBE_RADIUS]^dx by ``default_rng(PROBE_SEED)``.  The
    true function-space infimum is not computable, so this representative
    bound is what the domination statement is about.  The bound is kept
    with the model.
    """
    return m._tv_upper


# --------------------------------------------------------------------- fit

@dataclasses.dataclass(frozen=True)
class SampledMeasurement:
    """Base-space sampling functionals: M_j f = <v_j, f(x_j)>, the points
    and functionals stored as read-only 2-d float arrays (``_reals``)."""

    points: np.ndarray
    functionals: np.ndarray

    def __post_init__(self):
        P = _frozen(np.atleast_2d(_reals(self.points, "sampling points")))
        V = _frozen(np.atleast_2d(_reals(self.functionals, "sampling functionals")))
        if P.shape[0] != V.shape[0]:
            raise ValueError("points and functionals differ in length")
        if P.shape[0] < 1:
            raise ValueError("need at least one sampling functional")
        if not np.isfinite(P).all():
            raise ValueError("sampling points must be finite")
        if not np.isfinite(V).all():
            raise ValueError("sampling functionals must be finite")
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


def _product_design(Phi, Psi, V):
    """Lifted design of sampled two-level predictions: entry ((n, j), (m, i))
    is Phi[n, m] (Psi[j, m] V[j, i]), the prediction at task n and functional
    j of the unit payload e_i at atom m, for Phi = phi(z_n, w_m),
    Psi = psi(x_j, theta_m) and the functional rows V."""
    shape = (Phi.shape[0] * Psi.shape[0], Phi.shape[1] * V.shape[1])
    return (Phi[:, None, :, None] * (Psi[:, :, None] * V[:, None, :])).reshape(shape)


def hyper_objective(Z, Y, sampling: SampledMeasurement, model: HyperModel, lam: float) -> float:
    """Mean squared-half loss of the sampled predictions plus lam * weight_form_tv."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    D = _product_design(phi_matrix(model.phi, Z, model.W),
                        phi_matrix(model.psi, sampling.points, model.Theta),
                        sampling.functionals)
    P = (D @ (model.a[:, None] * model.V).ravel()).reshape(len(Z), sampling.n_samples)
    return _data_fit(P - Y, len(Z)) + lam * weight_form_tv(model)


_GRID_BLOCK = 1 << 20  # entries of a batch temporary in the grid search


def _hyper_score_grid(PhiG, PsiG, GN, V, spec, w_grid, theta_grid):
    """Exhaustive oracle over the product grid given its feature matrices, one batch
    per block of theta of at most _GRID_BLOCK entries; ties to the lowest (theta, w)."""
    R = PhiG.T @ GN                               # (Gw, J)
    Gw, best = R.shape[0], None
    step = max(1, _GRID_BLOCK // (Gw * max(R.shape[1], V.shape[1])))
    for t0 in range(0, PsiG.shape[1], step):
        Q = (R[None, :, :] * PsiG[:, t0:t0 + step].T[:, None, :]) @ V  # (block, Gw, d)
        scores = row_norms(Q.reshape(-1, Q.shape[2]), spec.dual_norm)
        k = int(np.argmax(scores))
        if best is None or scores[k] > best[0]:
            t, g = divmod(k, Gw)
            best = (float(scores[k]), t0 + t, g, Q[t, g].copy())
    score, t, g, q = best
    return w_grid[g].copy(), theta_grid[t].copy(), primal_witness(spec, q), score


def _hyper_oracle_score(phi_f, psi_f, Z, Xj, GN, V, spec):
    """(value, direction) of the oracle score at a location (w, theta)."""
    dw, kind = phi_f.dw, spec.dual_norm
    phi_column, phi_gradient = feature_column(phi_f, Z)
    psi_column, psi_gradient = feature_column(psi_f, Xj)

    def value(L):
        pc, phi_parts = phi_column(L[:dw])
        qc, psi_parts = psi_column(L[dw:])
        q = ((pc @ GN) * qc) @ V
        return vector_norm(q, kind), (norm_witness(q, kind), pc, qc, phi_parts, psi_parts)

    def direction(L, state):
        u, pc, qc, phi_parts, psi_parts = state
        e = V @ u
        gw = phi_gradient(L[:dw], phi_parts).T @ (GN @ (qc * e))
        gt = psi_gradient(L[dw:], psi_parts).T @ ((GN.T @ pc) * e)
        return np.concatenate([gw, gt])

    return value, direction


def _product_family(Z, Y, sampling, phi, psi, spec, lam, opts=FitOptions(),
                    w_grid=None, theta_grid=None) -> _AtomFamily:
    """Hyper-atoms as flat atoms of the product feature.

    The location is (w, theta), the payload v, and the measurement is the
    lifted sampling: atom columns phi(z_n, w) psi(x_j, theta) <v_j, v>.
    The oracle searches the product grid when the grids are given and
    runs multistart ascent over both balls otherwise.
    """
    n, dw = Z.shape[0], phi.dw
    Xj, V = sampling.points, sampling.functionals
    if w_grid is not None:
        grid_features = phi_matrix(phi, Z, w_grid), phi_matrix(psi, Xj, theta_grid)

    def lift(L):
        return _product_design(phi_matrix(phi, Z, L[:, :dw]), phi_matrix(psi, Xj, L[:, dw:]), V)

    def search(G, seed):
        GN = G / n
        if w_grid is not None:
            w, th, u, score = _hyper_score_grid(
                *grid_features, GN, V, spec, w_grid, theta_grid
            )
            return np.concatenate([w, th]), u, score
        value, direction = _hyper_oracle_score(phi, psi, Z, Xj, GN, V, spec)
        L, (u, *_), score = _multistart(value, direction, (phi, psi), opts.restarts, seed)
        return L, u, score

    return _AtomFamily(
        Y=Y,
        lam=lam,
        norm=spec.primal_norm,
        dim=spec.dim,
        width=phi.dw + psi.dw,
        lift=lift,
        search=search,
    )


def _check_hyper_grids(phi, psi, w_grid=None, theta_grid=None):
    """(w_grid, theta_grid) as checked float arrays: both None, or each a
    non-empty list of finite rows of its feature's weight width inside its
    ball; the ValueError names the first fault."""
    if (w_grid is None) != (theta_grid is None):
        raise ValueError("grid search needs both w_grid and theta_grid, or neither")
    if w_grid is None:
        return None, None
    return (_check_grid(w_grid, phi.dw, phi.radius, "w_grid"),
            _check_grid(theta_grid, psi.dw, psi.radius, "theta_grid"))


def _check_hyper_inputs(Z, Y, sampling, phi, psi, spec, lam, w_grid, theta_grid):
    """lam, Z, Y and the grids checked, for hyper_fit and hyper_grid_oracle;
    the ValueError names the first fault.  lam must be finite and positive
    (``_positive_lam``); the grids go through ``_check_hyper_grids``."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    lam = _positive_lam(lam)
    if Z.shape[0] != Y.shape[0]:
        raise ValueError("Z and Y differ in length")
    if Z.shape[0] < 1:
        raise ValueError("need at least one task input")
    if Z.shape[1] != phi.dx:
        raise ValueError("Z width does not match the hyper feature")
    if sampling.points.shape[1] != psi.dx:
        raise ValueError("sampling points do not match the base feature")
    if sampling.functionals.shape[1] != spec.dim:
        raise ValueError("functionals do not match the value space")
    if Y.shape[1] != sampling.n_samples:
        raise ValueError("Y width must equal the number of functionals")
    if not np.isfinite(Z).all():
        raise ValueError("Z must be finite")
    if not np.isfinite(Y).all():
        raise ValueError("Y must be finite")
    return (lam, Z, Y, *_check_hyper_grids(phi, psi, w_grid, theta_grid))


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
    loop is the flat solver's, run on the product feature.  ``w_grid`` and
    ``theta_grid`` restrict the search to their product; give both or
    neither.
    """
    if opts.mode != "group":
        raise ValueError("hyper_fit refits free payloads (group mode only)")
    lam, Z, Y, w_grid, theta_grid = _check_hyper_inputs(
        Z, Y, sampling, phi, psi, spec, lam, w_grid, theta_grid
    )
    fam = _product_family(Z, Y, sampling, phi, psi, spec, lam, opts, w_grid, theta_grid)
    L, C, history, certificate, iterations, converged = _cg_fit(fam, opts)
    dw = phi.dw
    return HyperFitState(
        model=HyperModel(np.ones(len(L)), L[:, :dw], L[:, dw:], C, phi, psi, spec),
        objective_history=history,
        certificate=certificate,
        iterations=iterations,
        seed=opts.seed,
        converged=converged,
    )


def hyper_grid_oracle(Z, Y, sampling: SampledMeasurement, phi: FeatureMap, psi: FeatureMap,
                      spec: DualPairSpec, lam: float, w_grid, theta_grid):
    """Solve the product-grid discretization, certified: hyper_fit's engine on
    both grids until the score is within 1e-9 relative of lam.  Returns
    (objective, coefficient matrix with row gw * len(theta_grid) + gt for
    (w_grid[gw], theta_grid[gt]), relative duality gap)."""
    if w_grid is None or theta_grid is None:
        raise ValueError("the grid oracle needs both w_grid and theta_grid")
    lam, Z, Y, w_grid, theta_grid = _check_hyper_inputs(
        Z, Y, sampling, phi, psi, spec, lam, w_grid, theta_grid
    )
    fam = _product_family(Z, Y, sampling, phi, psi, spec, lam, w_grid=w_grid,
                          theta_grid=theta_grid)
    return _grid_solve(fam, (w_grid, theta_grid))


# ---------------------------------------------------------------- deeponet

def deeponet_embed(basis, coeffs, phi: FeatureMap) -> HyperModel:
    """Build the hyper model Sum_n a_n(z) zeta_n(x).

    ``basis`` holds atomic base functions zeta_n, ``coeffs[n]`` the list
    of (a_nk, w_nk) pairs defining a_n(z) = Sum_k a_nk phi(z, w_nk).
    Every (coefficient atom, basis atom) pair becomes one atom of the model,
    ordered by basis function, then coefficient atom, then basis atom.
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
        if zeta.feature != psi or zeta.spec != spec:
            raise ValueError("basis functions must share one feature and space")
    rows = [
        (a_nk, w_nk, w, c)
        for zeta, pairs in zip(basis, coeffs)
        for a_nk, w_nk in pairs
        for w, c in zip(zeta.measure.W, zeta.measure.C)
    ]
    a, W, Theta, V = zip(*rows) if rows else ((), (), (), ())
    return HyperModel(a, W, Theta, V, phi, psi, spec)


# -------------------------------------------------------------------- json

def hyper_model_to_json_dict(m: HyperModel) -> dict:
    return {
        "atoms": [
            {"a": a, "w": w, "theta": theta, "v": v}
            for a, w, theta, v in zip(
                m.a.tolist(), m.W.tolist(), m.Theta.tolist(), m.V.tolist()
            )
        ],
        "phi": feature_to_json_dict(m.phi),
        "psi": feature_to_json_dict(m.psi),
    }


def hyper_model_from_json_dict(d: dict, spec: DualPairSpec) -> HyperModel:
    """The value-space pairing is not serialized, so the caller names it."""
    try:
        phi = feature_from_json_dict(d["phi"])
        psi = feature_from_json_dict(d["psi"])
        a, W, Theta, V = ([e[k] for e in d["atoms"]] for k in ("a", "w", "theta", "v"))
        return HyperModel(a, W, Theta, V, phi, psi, spec)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed hyper model payload: {exc}") from exc
