"""Sparse measure regression by generalized conditional gradient.

The learning problem is

    min over mu   (1/N) sum_n L(M f_mu(x_n), y_n) + lam * |mu|_TV

where f_mu integrates the feature map against an atomic vector measure.
Atoms delta_w u are inserted by a linear maximization oracle over the
extreme points of the primal unit ball, coefficients are refit by
accelerated proximal descent, and a fully discretized solve on a fixed
weight grid provides an independent check of the optimal objective.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from .dual_pair import (
    L1,
    L2,
    DualPairSpec,
    dual_norm_value,
    primal_witness,
    row_norms,
)
from .feature import (
    FeatureMap,
    activation_values,
    beta_values,
    grad_phi_w_batch,
    phi_matrix,
)
from .measure import (
    MERGE_TOL,
    AtomicVectorMeasure,
    _coalesce_rows,
    _frozen,
    empty_measure,
    measure_from_arrays,
    total_variation,
)


class SolverError(RuntimeError):
    """Raised when descent or the atom search cannot proceed."""


# ------------------------------------------------------------------ losses

SQUARED_HALF = "squared_half"
HUBER = "huber"


@dataclasses.dataclass(frozen=True)
class Loss:
    """Data-fit term applied row-wise to (prediction, target) pairs.

    ``squared_half`` is 0.5 * ||p - y||_2^2.  ``huber`` applies the
    scalar Huber function componentwise with transition at ``delta``,
    so its gradient is the clipped residual.
    """

    kind: str = SQUARED_HALF
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in (SQUARED_HALF, HUBER):
            raise ValueError(f"unknown loss {self.kind!r}")
        if self.kind == HUBER and not self.delta > 0:
            raise ValueError("huber delta must be positive")


def loss_values(loss: Loss, P, Y) -> np.ndarray:
    """Per-row loss values, shape (N,)."""
    R = np.asarray(P, dtype=float) - np.asarray(Y, dtype=float)
    if loss.kind == SQUARED_HALF:
        return 0.5 * np.sum(R * R, axis=-1)
    d = loss.delta
    A = np.abs(R)
    vals = np.where(A <= d, 0.5 * R * R, d * A - 0.5 * d * d)
    return np.sum(vals, axis=-1)


def loss_grad(loss: Loss, P, Y) -> np.ndarray:
    """Gradient of the row-wise loss in the prediction, shape (N, d_meas)."""
    R = np.asarray(P, dtype=float) - np.asarray(Y, dtype=float)
    if loss.kind == SQUARED_HALF:
        return R
    return np.clip(R, -loss.delta, loss.delta)


# ------------------------------------------------------------- measurement

@dataclasses.dataclass(frozen=True)
class MeasurementOp:
    """Linear map from function values to observed components.

    ``identity`` observes the full value (d_meas = d).  ``functionals``
    observes (Mu)_j = <v_j, u> for the rows v_j of ``matrix``.
    """

    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "functionals"):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind == "functionals":
            if self.matrix is None:
                raise ValueError("functionals measurement needs a matrix")
            m = _frozen(self.matrix)
            if m.ndim != 2 or m.shape[0] < 1:
                raise ValueError("functional matrix must be 2-d and non-empty")
            if not np.all(np.isfinite(m)):
                raise ValueError("functional matrix must be finite")
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError("identity measurement takes no matrix")


def identity_measurement() -> MeasurementOp:
    return MeasurementOp("identity")


def functionals_measurement(V) -> MeasurementOp:
    return MeasurementOp("functionals", V)


def measurement_dim(m: MeasurementOp, spec: DualPairSpec) -> int:
    if m.kind == "identity":
        return spec.dim
    if m.matrix.shape[1] != spec.dim:
        raise ValueError("functional rows do not match the space dimension")
    return m.matrix.shape[0]


def measurement_apply(m: MeasurementOp, U: np.ndarray) -> np.ndarray:
    """Apply M to each row of U, (N, d) -> (N, d_meas)."""
    if m.kind == "identity":
        return U
    return U @ m.matrix.T


def measurement_adjoint(m: MeasurementOp, G: np.ndarray) -> np.ndarray:
    """Pull rows of G back into the dual of the value space, (N, d_meas) -> (N, d)."""
    if m.kind == "identity":
        return G
    return G @ m.matrix


# ----------------------------------------------------------------- problem

@dataclasses.dataclass(frozen=True)
class Problem:
    """A regression instance over atomic measures.

    ``omega_grid`` optionally restricts the atom locations to a fixed
    finite set; the oracle then searches it exhaustively, which makes
    the outer problem convex and certifiable.
    """

    X: np.ndarray
    Y: np.ndarray
    loss: Loss
    measurement: MeasurementOp
    lam: float
    feature: FeatureMap
    spec: DualPairSpec
    omega_grid: np.ndarray | None = None

    def __post_init__(self):
        X = _frozen(np.atleast_2d(self.X))
        Y = _frozen(np.atleast_2d(self.Y))
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y differ in length")
        if X.shape[0] < 1:
            raise ValueError("need at least one data point")
        if X.shape[1] != self.feature.dx:
            raise ValueError("X width does not match the feature input dim")
        if Y.shape[1] != measurement_dim(self.measurement, self.spec):
            raise ValueError("Y width does not match the measurement output")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("data must be finite")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if self.omega_grid is not None:
            G = _frozen(np.atleast_2d(self.omega_grid))
            if G.shape[1] != self.feature.dw:
                raise ValueError("omega_grid width does not match the weight dim")
            norms = np.sqrt(np.sum(G * G, axis=1))
            if np.any(norms > self.feature.radius * (1 + 1e-9)):
                raise ValueError("omega_grid points must lie in the weight ball")
            object.__setattr__(self, "omega_grid", G)

    @property
    def n_data(self) -> int:
        return self.X.shape[0]


def product_grid(radius: float, dim: int, per_dim: int) -> np.ndarray:
    """Cell centers of a regular product grid on [-R, R]^dim, kept inside
    the radius-R ball.  The same construction backs the discretized
    oracle, so grid-restricted problems and the oracle see identical
    candidate sets."""
    if per_dim < 1:
        raise ValueError("per_dim must be >= 1")
    width = 2.0 * radius / per_dim
    axis = -radius + (np.arange(per_dim) + 0.5) * width
    pts = np.stack(
        np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius
    return pts[keep]


def _predictions(p: Problem, mu: AtomicVectorMeasure) -> np.ndarray:
    """M f_mu(x_n) for every data row, (N, d_meas)."""
    if not mu.atoms:
        return np.zeros_like(p.Y)
    Phi = phi_matrix(p.feature, p.X, mu.locations())
    return measurement_apply(p.measurement, Phi @ mu.payloads())


def objective(p: Problem, mu: AtomicVectorMeasure) -> float:
    """(1/N) sum_n L(M f_mu(x_n), y_n) + lam * |mu|_TV."""
    if mu.space.dim != p.spec.dim or mu.space.primal_norm != p.spec.primal_norm:
        raise ValueError("measure space does not match the problem space")
    P = _predictions(p, mu)
    data = float(np.sum(loss_values(p.loss, P, p.Y))) / p.n_data
    return data + p.lam * total_variation(mu)


def residual_duals(p: Problem, mu: AtomicVectorMeasure) -> np.ndarray:
    """Loss gradients mapped through the measurement adjoint, rows eta_n.

    Includes the 1/N data weight, so the oracle score compares directly
    against lam."""
    G = loss_grad(p.loss, _predictions(p, mu), p.Y)
    return measurement_adjoint(p.measurement, G) / p.n_data


# --------------------------------------------------------------------- lmo

def _random_ball(rng, dim: int, radius: float) -> np.ndarray:
    """Random point of the radius ball: a normal direction, then a radius."""
    d = rng.standard_normal(dim)
    n = float(np.sqrt(np.dot(d, d)))
    r = radius * float(rng.uniform()) ** (1.0 / dim)
    return d * (r / n) if n > 0 else np.zeros(dim)


def _project_balls(L: np.ndarray, features) -> np.ndarray:
    """Project each consecutive block of L onto the weight ball of its feature."""
    parts = []
    start = 0
    for f in features:
        v = L[start:start + f.dw]
        start += f.dw
        n = float(np.sqrt(np.dot(v, v)))
        parts.append(v * (f.radius / n) if n > f.radius else v)
    return np.concatenate(parts)


def _ascend(value, direction, features, L0, max_steps: int = 200):
    """Projected gradient ascent on an oracle score from one start.

    ``value(L)`` returns (score, payload state) at a location vector L,
    ``direction(L, state)`` the ascent direction at that payload (Danskin);
    L holds one weight block per feature in ``features`` and steps are
    projected onto their balls.  Returns (L, state, score).
    """
    L = np.asarray(L0, dtype=float).copy()
    score, state = value(L)
    for _ in range(max_steps):
        g = direction(L, state)
        if not np.all(np.isfinite(g)):
            raise SolverError("non-finite oracle gradient")
        gg = float(np.dot(g, g))
        if gg == 0.0:
            break
        step = 1.0
        improved = False
        while step >= 1e-12:
            cand = _project_balls(L + step * g, features)
            cand_score, cand_state = value(cand)
            if cand_score >= score + 1e-4 * step * gg:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = cand_score - score
        L, score, state = cand, cand_score, cand_state
        if gain <= 1e-12 * (1.0 + score):
            break
    return L, state, score


def _multistart(value, direction, features, restarts: int, seed: int):
    """Best of ``restarts`` ascents started at random points of the balls."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        L0 = np.concatenate([_random_ball(rng, f.dw, f.radius) for f in features])
        cand = _ascend(value, direction, features, L0)
        if best is None or cand[2] > best[2]:
            best = cand
    return best


def _oracle_score(p: Problem, eta: np.ndarray):
    """(value, direction) of the oracle score |sum_n phi(x_n, w) eta_n| at w."""

    def value(w):
        v = phi_matrix(p.feature, p.X, w[None, :])[:, 0] @ eta
        return dual_norm_value(p.spec, v), primal_witness(p.spec, v)

    def direction(w, u):
        return grad_phi_w_batch(p.feature, p.X, w).T @ (eta @ u)

    return value, direction


def lmo(p: Problem, eta, restarts: int = 32, seed: int = 0):
    """Search for the atom delta_w u maximizing |sum_n phi(x_n, w) <eta_n, u>|.

    Over u the inner maximum is closed-form (primal-ball witness of the
    aggregated dual vector).  Over w the search is exhaustive when the
    problem carries an ``omega_grid`` (ties toward the lowest index) and
    multistart projected ascent otherwise.  Returns (w, u, score).
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (p.n_data, p.spec.dim):
        raise ValueError("residual rows do not match the problem")
    if not np.all(np.isfinite(eta)):
        raise SolverError("non-finite residual duals")
    if p.omega_grid is not None:
        V = phi_matrix(p.feature, p.X, p.omega_grid).T @ eta
        scores = row_norms(V, p.spec.dual_norm)
        g = int(np.argmax(scores))
        return p.omega_grid[g].copy(), primal_witness(p.spec, V[g]), float(scores[g])
    value, direction = _oracle_score(p, eta)
    return _multistart(value, direction, (p.feature,), restarts, seed)


# ------------------------------------------------------------------- fista

def _prox_rows(Z: np.ndarray, tau: float, norm: str) -> np.ndarray:
    """Proximal map of tau * sum of row norms (l1 or l2)."""
    if norm == L1:
        return np.sign(Z) * np.maximum(np.abs(Z) - tau, 0.0)
    if norm == L2:
        norms = np.sqrt(np.sum(Z * Z, axis=-1, keepdims=True))
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(norms > tau, 1.0 - tau / norms, 0.0)
        return Z * scale
    raise ValueError(f"no proximal map for row norm {norm!r}")


def _fista(x0, val_grad, penalty, prox, max_iter: int, tol: float):
    """Accelerated proximal descent with backtracking.

    Momentum restarts whenever the composite objective would increase,
    so the returned objective never exceeds the starting one.  Stops on
    relative objective change below tol.  Returns (x, objective).
    """
    x = np.array(x0, dtype=float)
    z = x.copy()
    t_mom = 1.0
    step = 1.0
    obj = val_grad(x)[0] + penalty(x)

    def descend(point):
        nonlocal step
        fz, gz = val_grad(point)
        if not np.all(np.isfinite(gz)):
            raise SolverError("non-finite refit gradient")
        while True:
            cand = prox(point - step * gz, step)
            diff = cand - point
            fc = val_grad(cand)[0]
            bound = fz + float(np.vdot(gz, diff))
            bound += float(np.vdot(diff, diff)) / (2.0 * step)
            if fc <= bound + 1e-12 * (1.0 + abs(fz)):
                return cand, fc + penalty(cand)
            step *= 0.5
            if step < 1e-18:
                raise SolverError("refit line search failed")

    for _ in range(max_iter):
        cand, cand_obj = descend(z)
        if cand_obj > obj:
            # extrapolation overshot: restart momentum, plain step from x
            z = x.copy()
            t_mom = 1.0
            cand, cand_obj = descend(z)
        prev_obj, x_prev = obj, x
        x, obj = cand, cand_obj
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = x + ((t_mom - 1.0) / t_next) * (x - x_prev)
        t_mom = t_next
        if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
            break
    return x, obj


@dataclasses.dataclass(frozen=True)
class _AtomFamily:
    """One regression problem as the conditional-gradient engine sees it.

    An atom is a location row, one weight block per feature in
    ``features``, and a payload row in R^dim.  ``design(L)`` precomputes what
    ``predict`` needs for fixed locations L; ``predict(B, C)`` maps payload
    rows C to the (N, d_meas) predictions and ``pull_back(B, G)`` is its
    adjoint, taking loss gradients back to payload rows.  ``search(G, k)``
    is the atom oracle at CG iteration k for the loss gradients G of the
    current model; it returns (location, unit payload, score), with the
    score on the scale of lam.  ``measured(U)`` applies the measurement to
    unit directions; families without it fit in group mode only.
    """

    Y: np.ndarray
    loss: Loss
    lam: float
    norm: str
    dim: int
    features: tuple
    design: Callable
    predict: Callable
    pull_back: Callable
    search: Callable
    measured: Callable | None = None


def _group_refit(fam: _AtomFamily, B, C0: np.ndarray, max_iter, tol):
    """Refit free payload rows on the locations behind the design B."""
    n = fam.Y.shape[0]

    def val_grad(C):
        P = fam.predict(B, C)
        val = float(np.sum(loss_values(fam.loss, P, fam.Y))) / n
        return val, fam.pull_back(B, loss_grad(fam.loss, P, fam.Y)) / n

    def penalty(C):
        return fam.lam * float(np.sum(row_norms(C, fam.norm)))

    def prox(Z, step):
        return _prox_rows(Z, step * fam.lam, fam.norm)

    return _fista(C0, val_grad, penalty, prox, max_iter, tol)


def _l1_refit(fam: _AtomFamily, Phi, U: np.ndarray, a0: np.ndarray, max_iter, tol):
    """Refit scalar weights on the feature columns Phi and unit directions U."""
    D = fam.measured(U)
    n = fam.Y.shape[0]

    def val_grad(a):
        P = (Phi * a) @ D
        val = float(np.sum(loss_values(fam.loss, P, fam.Y))) / n
        G = loss_grad(fam.loss, P, fam.Y)
        return val, np.sum(Phi * (G @ D.T), axis=0) / n

    def penalty(a):
        return fam.lam * float(np.sum(np.abs(a)))

    def prox(z, step):
        return np.sign(z) * np.maximum(np.abs(z) - step * fam.lam, 0.0)

    return _fista(a0, val_grad, penalty, prox, max_iter, tol)


# --------------------------------------------------------------------- fit

@dataclasses.dataclass(frozen=True)
class FitOptions:
    """Knobs for the conditional-gradient loop.

    ``mode`` selects the coefficient penalty during refits: ``group``
    keeps payloads free and penalizes their primal norms; ``l1`` pins
    each atom to the extreme-point direction found by the oracle and
    penalizes the scalar weights.
    """

    max_atoms: int = 50
    mode: str = "group"
    restarts: int = 32
    tol: float = 1e-3
    refit_max_iter: int = 5000
    refit_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")
        if self.mode not in ("l1", "group"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tol < 0 or self.refit_tol < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclasses.dataclass(frozen=True)
class SolverState:
    """Outcome of a conditional-gradient run.

    ``certificate`` is the oracle score at the last iteration; the run
    converged when it dropped to lam*(1+tol), otherwise the state is
    returned as-is with ``converged`` False.
    """

    measure: AtomicVectorMeasure
    objective_history: tuple
    certificate: float
    iterations: int
    seed: int
    feature: FeatureMap
    converged: bool


def _cg_fit(fam: _AtomFamily, opts: FitOptions):
    """Conditional-gradient loop: insert, refit, prune, until certified.

    Terminates when the oracle score drops to lam*(1+tol), the atom budget
    is exhausted, or the oracle re-proposes the current support without
    progress; in every case the certificate (last oracle score) is
    recorded.  Returns (locations, payload rows, objective history,
    certificate, iterations, converged); group-mode payloads come out
    coalesced, l1-mode atoms keep one row per (location, direction).
    """
    n = fam.Y.shape[0]
    L = np.zeros((0, sum(f.dw for f in fam.features)))
    U = np.zeros((0, fam.dim))   # oracle directions
    C = np.zeros((0, fam.dim))   # payload rows
    a = np.zeros(0)              # l1 mode weights, C = a * U

    history = [float(np.sum(loss_values(fam.loss, np.zeros_like(fam.Y), fam.Y))) / n]
    certificate = math.inf
    threshold = fam.lam * (1.0 + opts.tol)
    converged = False
    iterations = 0

    while True:
        P = fam.predict(fam.design(L), C)
        G = loss_grad(fam.loss, P, fam.Y)
        if not np.all(np.isfinite(G)):
            raise SolverError("non-finite residuals")
        loc, u_new, score = fam.search(G, iterations)
        certificate = score
        if score <= threshold:
            converged = True
            break

        # merge into an existing slot when the oracle re-proposes it; in
        # l1 mode the slot identity includes the payload direction
        merged = False
        if len(L) > 0:
            dists = np.max(np.abs(L - loc), axis=1)
            for k in np.flatnonzero(dists <= MERGE_TOL):
                if opts.mode == "group" or np.allclose(U[k], u_new, atol=1e-12):
                    merged = True
                    break
        if not merged:
            if len(L) >= opts.max_atoms:
                break
            L, U = np.vstack([L, loc]), np.vstack([U, u_new])
            C, a = np.vstack([C, np.zeros(fam.dim)]), np.append(a, 0.0)

        B = fam.design(L)
        if opts.mode == "group":
            C, obj = _group_refit(fam, B, C, opts.refit_max_iter, opts.refit_tol)
        else:
            a, obj = _l1_refit(fam, B, U, a, opts.refit_max_iter, opts.refit_tol)
            C = a[:, None] * U

        # drop slots the threshold zeroed out exactly; tiny survivors are
        # left for the final coalesce so the recorded objective stays the
        # objective of the kept state
        keep = row_norms(C, fam.norm) > 0.0
        L, U, C, a = L[keep], U[keep], C[keep], a[keep]

        history.append(obj)
        iterations += 1
        if merged and history[-2] - history[-1] <= opts.refit_tol * max(1.0, abs(obj)):
            break  # oracle keeps proposing the same support: stalled

    if opts.mode == "l1":
        # keep one atom per (location, direction) so every payload stays a
        # scalar multiple of an extreme point; a blanket coalesce would fuse
        # different directions parked at the same site
        keep = np.abs(a) > 1e-10
        L, C = L[keep], C[keep]
    else:
        L, C = _coalesce_rows(L, C, fam.norm)
    if converged:
        count = len(_coalesce_rows(L, C, fam.norm)[0])
        if count > fam.Y.size:
            raise SolverError(
                f"converged model has {count} atoms, over the N*d_meas "
                f"bound {fam.Y.size}"
            )
    return L, C, tuple(history), certificate, iterations, converged


def _flat_family(p: Problem, opts: FitOptions) -> _AtomFamily:
    """Atoms delta_w c of the flat problem; the oracle is ``lmo``."""
    m = p.measurement

    def search(G, k):
        eta = measurement_adjoint(m, G) / p.n_data
        return lmo(p, eta, opts.restarts, opts.seed + 7919 * k)

    return _AtomFamily(
        Y=p.Y,
        loss=p.loss,
        lam=p.lam,
        norm=p.spec.primal_norm,
        dim=p.spec.dim,
        features=(p.feature,),
        design=lambda W: phi_matrix(p.feature, p.X, W),
        predict=lambda Phi, C: measurement_apply(m, Phi @ C),
        pull_back=lambda Phi, G: Phi.T @ measurement_adjoint(m, G),
        search=search,
        measured=lambda U: measurement_apply(m, U),
    )


def fit(p: Problem, opts: FitOptions) -> SolverState:
    """Conditional-gradient fit of an atomic measure, until certified.

    Terminates when the oracle score drops to lam*(1+tol) or the atom
    budget is exhausted; in either case the certificate (last oracle
    score) is recorded.  Deterministic for a fixed seed.
    """
    if not p.lam > 0:
        raise ValueError("fit requires lam > 0")
    if p.spec.primal_norm not in (L1, L2):
        raise ValueError("fit supports l1 and l2 primal norms")
    W, rows, history, certificate, iterations, converged = _cg_fit(
        _flat_family(p, opts), opts
    )
    return SolverState(
        measure=measure_from_arrays(W, rows, p.spec, p.feature.radius),
        objective_history=history,
        certificate=certificate,
        iterations=iterations,
        seed=opts.seed,
        feature=p.feature,
        converged=converged,
    )


def lambda_max(p: Problem, grid_per_dim: int = 17, restarts: int = 8, seed: int = 0) -> float:
    """Smallest lam for which the zero measure is optimal.

    Equals the oracle score at mu = 0.  Exact for grid-restricted
    problems; otherwise a dense-grid sweep polished by ascent.
    """
    eta = residual_duals(p, empty_measure(p.spec, p.feature.radius))
    if p.omega_grid is not None:
        return lmo(p, eta, seed=seed)[2]
    grid = product_grid(p.feature.radius, p.feature.dw, grid_per_dim)
    w, _, score = lmo(dataclasses.replace(p, omega_grid=grid), eta)
    value, direction = _oracle_score(p, eta)
    best = _ascend(value, direction, (p.feature,), w)[2]
    rand = lmo(p, eta, restarts=restarts, seed=seed)[2]
    return max(score, best, rand)


def grid_oracle(p: Problem, grid_per_dim: int, max_iter: int = 20000, tol: float = 1e-10):
    """Solve the weight-grid discretization of the problem to high accuracy.

    All grid locations get a free payload row; the penalty is the sum of
    primal row norms, handled by row-wise soft thresholding.  Uses the
    problem's ``omega_grid`` when present so that grid-restricted fits
    and this oracle optimize over the identical candidate set.  Returns
    (objective, coefficient matrix).
    """
    if p.omega_grid is not None:
        grid = np.asarray(p.omega_grid)
    else:
        grid = product_grid(p.feature.radius, p.feature.dw, grid_per_dim)
    if p.spec.primal_norm not in (L1, L2):
        raise ValueError("grid oracle supports l1 and l2 primal norms")
    fam = _flat_family(p, FitOptions())
    C0 = np.zeros((grid.shape[0], p.spec.dim))
    C, obj = _group_refit(fam, fam.design(grid), C0, max_iter, tol)
    return obj, C


# ------------------------------------------------------------------ export

@dataclasses.dataclass(frozen=True)
class NetworkDescription:
    """One-hidden-layer network U sigma(Wx + B); columns of U are the
    atom payloads with the window factor absorbed."""

    activation: str
    U: np.ndarray
    W: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _frozen(self.U))
        object.__setattr__(self, "W", _frozen(self.W))
        object.__setattr__(self, "B", _frozen(self.B))


def export_network(state: SolverState) -> NetworkDescription:
    """Rewrite a fitted neural-feature measure as an explicit network.

    phi(x, (omega, b)) = sigma(<omega, x> + b) * beta(omega, b), so the
    column for atom m is beta(w_m) c_m and the evaluation identity is
    exact up to float reassociation.
    """
    feat = state.feature
    if feat.kind != "neural":
        raise ValueError("network export needs a neural feature")
    mu = state.measure
    d = mu.space.dim
    dx = feat.dx
    if not mu.atoms:
        return NetworkDescription(
            feat.activation, np.zeros((d, 0)), np.zeros((0, dx)), np.zeros(0)
        )
    locs = mu.locations()
    scale = beta_values(feat, locs)
    U = (mu.payloads() * scale[:, None]).T
    return NetworkDescription(feat.activation, U, locs[:, :dx], locs[:, dx])


def network_apply(net: NetworkDescription, X) -> np.ndarray:
    """Evaluate the exported network on rows of X, (n, dx) -> (n, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if net.W.shape[0] == 0:
        return np.zeros((X.shape[0], net.U.shape[0]))
    return activation_values(net.activation, X @ net.W.T + net.B) @ net.U.T


def network_to_json_dict(net: NetworkDescription) -> dict:
    return {
        "U": [[float(v) for v in row] for row in net.U],
        "W": [[float(v) for v in row] for row in net.W],
        "B": [float(v) for v in net.B],
    }
