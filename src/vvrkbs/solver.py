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
import functools
import math
from collections.abc import Callable

import numpy as np

from .dual_pair import (
    L1,
    L2,
    DualPairSpec,
    norm_witness,
    primal_witness,
    row_norms,
    vector_norm,
)
from .feature import (
    FeatureMap,
    activation_values,
    beta_values,
    feature_column,
    phi_matrix,
)
from .measure import (
    MERGE_TOL,
    AtomicVectorMeasure,
    _check_grid,
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


def loss_total(loss: Loss, P, Y) -> float:
    """Sum of the row-wise loss over all rows of the (N, d_meas) float
    arrays P (predictions) and Y (targets), in one reduction."""
    R = P - Y
    if loss.kind == SQUARED_HALF:
        return 0.5 * float(np.vdot(R, R))
    d = loss.delta
    A = np.abs(R)
    return float(np.where(A <= d, 0.5 * R * R, d * A - 0.5 * d * d).sum())


def loss_grad(loss: Loss, P, Y) -> np.ndarray:
    """Gradient of the row-wise loss in the prediction, shape (N, d_meas)."""
    R = P - Y
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
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if self.omega_grid is not None:
            G = _check_grid(self.omega_grid, self.feature.dw, self.feature.radius, "omega_grid")
            object.__setattr__(self, "omega_grid", _frozen(G))

    @property
    def n_data(self) -> int:
        return self.X.shape[0]

    @functools.cached_property
    def grid_phi(self) -> np.ndarray:
        """phi on (X, omega_grid), read-only; built at the first use and kept."""
        return _frozen(phi_matrix(self.feature, self.X, self.omega_grid))


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
    if not len(mu):
        return np.zeros_like(p.Y)
    Phi = phi_matrix(p.feature, p.X, mu.W)
    return measurement_apply(p.measurement, Phi @ mu.C)


def objective(p: Problem, mu: AtomicVectorMeasure) -> float:
    """(1/N) sum_n L(M f_mu(x_n), y_n) + lam * |mu|_TV."""
    if mu.space.dim != p.spec.dim or mu.space.primal_norm != p.spec.primal_norm:
        raise ValueError("measure space does not match the problem space")
    P = _predictions(p, mu)
    data = loss_total(p.loss, P, p.Y) / p.n_data
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
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _ascend(value, direction, features, L0, max_steps: int = 200):
    """Projected gradient ascent on an oracle score from one start.

    ``value(L)`` returns (score, payload state) at a location vector L,
    ``direction(L, state)`` the ascent direction at that payload (Danskin);
    L holds one weight block per feature in ``features`` and steps are
    projected onto their balls.  The first trial step is 1 and each trial
    halves until the Armijo test passes.  The accepted step is carried to
    the next ascent step, doubled only when it passed on its first trial,
    so a step that needed halving is not grown back into a rejection.
    Returns (L, state, score).
    """
    L = np.asarray(L0, dtype=float).copy()
    score, state = value(L)
    step = 1.0
    for _ in range(max_steps):
        g = direction(L, state)
        gg = float(np.dot(g, g))  # finite unless g holds a non-finite entry or overflows
        if not math.isfinite(gg) and not np.isfinite(g).all():
            raise SolverError("non-finite oracle gradient")
        if gg == 0.0:
            break
        first = step
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
        if step == first:
            step *= 2.0
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
    """(value, direction) of the oracle score |sum_n phi(x_n, w) eta_n| at w;
    ``direction`` reuses the feature parts ``value`` kept with the witness."""
    column, gradient = feature_column(p.feature, p.X)
    kind = p.spec.dual_norm

    def value(w):
        col, parts = column(w)
        v = col @ eta
        return vector_norm(v, kind), (norm_witness(v, kind), parts)

    def direction(w, state):
        u, parts = state
        return gradient(w, parts).T @ (eta @ u)

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
        V = p.grid_phi.T @ eta
        scores = row_norms(V, p.spec.dual_norm)
        g = int(np.argmax(scores))
        return p.omega_grid[g].copy(), primal_witness(p.spec, V[g]), float(scores[g])
    value, direction = _oracle_score(p, eta)
    w, (u, _), score = _multistart(value, direction, (p.feature,), restarts, seed)
    return w, u, score


# ------------------------------------------------------------------- fista

def _prox_rows(Z: np.ndarray, tau: float, norm: str) -> np.ndarray:
    """Proximal map of tau * sum of row norms (l1 or l2).

    An l2 row shrinks by 1 - tau/||z|| when ||z|| > tau and is zeroed
    otherwise (NaN norms included); tau/||z|| is formed only where the test
    holds, so zero rows and tau = 0 divide by nothing.
    """
    if norm == L1:
        return np.sign(Z) * np.maximum(np.abs(Z) - tau, 0.0)
    if norm == L2:
        norms = np.sqrt((Z * Z).sum(axis=-1))[..., None]
        shrink = np.divide(tau, norms, out=np.ones_like(norms), where=norms > tau)
        return Z * (1.0 - shrink)
    raise ValueError(f"no proximal map for row norm {norm!r}")


def _refit_step(normal, shape, max_iter: int = 100, tol: float = 1e-6) -> float:
    """Initial refit step 1/L, L the top eigenvalue of the data term's
    normal operator ``normal`` on arrays of ``shape``.

    Power iteration from a fixed seeded direction (not all-ones: odd
    features on a symmetric grid map that to zero), stopped when the
    Rayleigh quotient changes by at most tol relative.  The estimate never
    exceeds L, so the step can be too long; the backtracking in ``_fista``
    guards that.  Huber curvature is at most 1, so the squared-loss L bounds
    both losses.  Returns 1.0 when the operator vanishes on the iterates.
    """
    v = np.random.default_rng(0).standard_normal(shape)
    if v.size == 0:
        return 1.0
    v /= math.sqrt(float(np.vdot(v, v)))
    est = 0.0
    for _ in range(max_iter):
        Av = normal(v)
        rq = float(np.vdot(v, Av))
        size = math.sqrt(float(np.vdot(Av, Av)))
        if not (rq > 0.0 and math.isfinite(size)):
            break
        done = abs(rq - est) <= tol * rq
        v, est = Av / size, rq
        if done:
            break
    return 1.0 / est if est > 0.0 else 1.0


def _fista(x0, forward, value, grad, penalty, prox, step: float, max_iter: int, tol: float):
    """Accelerated proximal descent with backtracking from the step ``step``.

    ``forward`` is the linear map from coefficients to predictions,
    ``value(P)`` the data term at predictions P and ``grad(P)`` its gradient
    in the coefficients.  A line-search trial costs one ``forward`` and one
    ``value``; the gradient is taken only where a descent step starts, and
    the extrapolated point's predictions follow from linearity.  Momentum
    restarts whenever the composite objective would increase, so the
    returned objective never exceeds the starting one.  Stops on relative
    objective change below tol.  Returns (x, objective).
    """
    x = np.array(x0, dtype=float)
    Px = forward(x)
    fx = value(Px)
    obj = fx + penalty(x)
    z, Pz, fz = x, Px, fx
    t_mom = 1.0

    def descend(point, P, fp):
        nonlocal step
        g = grad(P)
        if not np.isfinite(g).all():
            raise SolverError("non-finite refit gradient")
        while True:
            cand = prox(point - step * g, step)
            diff = cand - point
            Pc = forward(cand)
            fc = value(Pc)
            bound = fp + float(np.vdot(g, diff))
            bound += float(np.vdot(diff, diff)) / (2.0 * step)
            if fc <= bound + 1e-12 * (1.0 + abs(fp)):
                return cand, Pc, fc, fc + penalty(cand)
            step *= 0.5
            if step < 1e-18:
                raise SolverError("refit line search failed")

    for _ in range(max_iter):
        cand = descend(z, Pz, fz)
        if cand[3] > obj:
            # extrapolation overshot: restart momentum, plain step from x
            t_mom = 1.0
            cand = descend(x, Px, fx)
        prev_obj, x_prev, P_prev = obj, x, Px
        x, Px, fx, obj = cand
        if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
            break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_next
        z, Pz = x + beta * (x - x_prev), Px + beta * (Px - P_prev)
        fz = value(Pz)
        t_mom = t_next
    return x, obj


@dataclasses.dataclass(frozen=True)
class _AtomFamily:
    """One regression problem as the conditional-gradient engine sees it.

    An atom is a location row of ``width`` entries and a free payload row
    in R^dim, penalized by its ``norm``.  ``design(L)`` precomputes what
    ``predict`` needs for fixed locations L; ``predict(B, C)`` maps payload
    rows C to the (N, d_meas) predictions and ``pull_back(B, G)`` is its
    adjoint, taking loss gradients back to payload rows.  ``search(G, seed)``
    is the atom oracle, seeded for its random starts, at the loss gradients
    G of the current model; it returns (location, unit payload, score), the
    score on the scale of lam.  ``measured(U)`` applies the measurement to
    unit directions; only families with it have a ``_pinned`` form.
    """

    Y: np.ndarray
    loss: Loss
    lam: float
    norm: str
    dim: int
    width: int
    design: Callable
    predict: Callable
    pull_back: Callable
    search: Callable
    measured: Callable | None = None


def _group_refit(fam: _AtomFamily, B, C0: np.ndarray, max_iter, tol):
    """Refit free payload rows on the locations behind the design B."""
    n = fam.Y.shape[0]

    def forward(C):
        return fam.predict(B, C)

    def value(P):
        return loss_total(fam.loss, P, fam.Y) / n

    def grad(P):
        return fam.pull_back(B, loss_grad(fam.loss, P, fam.Y)) / n

    def penalty(C):
        return fam.lam * float(row_norms(C, fam.norm).sum())

    def prox(Z, step):
        return _prox_rows(Z, step * fam.lam, fam.norm)

    step = _refit_step(lambda C: fam.pull_back(B, forward(C)) / n, C0.shape)
    return _fista(C0, forward, value, grad, penalty, prox, step, max_iter, tol)


# --------------------------------------------------------------------- fit

@dataclasses.dataclass(frozen=True)
class FitOptions:
    """Knobs for the conditional-gradient loop.

    ``mode`` selects the atoms: ``group`` keeps payloads free and
    penalizes their primal norms; ``l1`` pins each atom to the
    extreme-point direction found by the oracle and penalizes its scalar
    weight (see ``_pinned``).
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
        if self.refit_max_iter < 1:
            # a refit that takes no step leaves the new atom at zero; it is
            # pruned and re-inserted forever
            raise ValueError("refit_max_iter must be >= 1")
        if self.mode not in ("l1", "group"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (0 <= self.tol < math.inf and 0 <= self.refit_tol < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")


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

    Every atom is a location row and a free payload row, refit by
    ``_group_refit``; round k seeds the atom search with opts.seed + 7919 k.
    Terminates when the oracle score drops to lam*(1+tol), the atom budget
    is exhausted, or the oracle re-proposes the current support without
    progress; in every case the certificate (last oracle score) is
    recorded.  Returns (locations, coalesced payload rows, objective
    history, certificate, iterations, converged).
    """
    n = fam.Y.shape[0]
    L = np.zeros((0, fam.width))  # locations
    C = np.zeros((0, fam.dim))    # payload rows

    history = [loss_total(fam.loss, np.zeros_like(fam.Y), fam.Y) / n]
    certificate = math.inf
    threshold = fam.lam * (1.0 + opts.tol)
    converged = False
    iterations = 0

    P = np.zeros_like(fam.Y)     # predictions of the current model
    while True:
        G = loss_grad(fam.loss, P, fam.Y)
        if not np.all(np.isfinite(G)):
            raise SolverError("non-finite residuals")
        loc, _, score = fam.search(G, opts.seed + 7919 * iterations)
        certificate = score
        if score <= threshold:
            converged = True
            break

        # merge into an existing slot when the oracle re-proposes its location
        merged = bool(np.any(np.max(np.abs(L - loc), axis=1) <= MERGE_TOL))
        if not merged:
            if len(L) >= opts.max_atoms:
                break
            L, C = np.vstack([L, loc]), np.vstack([C, np.zeros(fam.dim)])

        B = fam.design(L)
        C, obj = _group_refit(fam, B, C, opts.refit_max_iter, opts.refit_tol)
        P = fam.predict(B, C)

        # drop slots the threshold zeroed out exactly, which leaves P as the
        # predictions of the kept state; tiny survivors are left for the
        # final coalesce so the recorded objective stays the objective of
        # the kept state
        keep = row_norms(C, fam.norm) > 0.0
        L, C = L[keep], C[keep]

        history.append(obj)
        iterations += 1
        if merged and history[-2] - history[-1] <= opts.refit_tol * max(1.0, abs(obj)):
            break  # oracle keeps proposing the same support: stalled

    L, C = _coalesce_rows(L, C, fam.norm)
    if converged and len(L) > fam.Y.size:
        raise SolverError(
            f"converged model has {len(L)} atoms, over the N*d_meas bound {fam.Y.size}")
    return L, C, tuple(history), certificate, iterations, converged


def _flat_family(p: Problem, opts: FitOptions) -> _AtomFamily:
    """Atoms delta_w c of the flat problem; the oracle is ``lmo``."""
    m = p.measurement

    def search(G, seed):
        eta = measurement_adjoint(m, G) / p.n_data
        return lmo(p, eta, opts.restarts, seed)

    return _AtomFamily(
        Y=p.Y,
        loss=p.loss,
        lam=p.lam,
        norm=p.spec.primal_norm,
        dim=p.spec.dim,
        width=p.feature.dw,
        design=lambda W: phi_matrix(p.feature, p.X, W),
        predict=lambda Phi, C: measurement_apply(m, Phi @ C),
        pull_back=lambda Phi, G: Phi.T @ measurement_adjoint(m, G),
        search=search,
        measured=lambda U: measurement_apply(m, U),
    )


def _pinned(fam: _AtomFamily) -> _AtomFamily:
    """The l1-mode form of ``fam``: atoms a delta_w u, u the oracle's direction.

    The location is [w, u], the direction riding after the weights, and the
    payload is the scalar a with penalty |a|, so a re-proposal merges only
    when both w and u agree to MERGE_TOL; ``fit`` returns the row a u.
    """
    def design(L):
        return fam.design(L[:, :fam.width]), fam.measured(L[:, fam.width:])

    def search(G, seed):
        w, u, score = fam.search(G, seed)
        return np.concatenate([w, u]), np.ones(1), score

    return dataclasses.replace(
        fam, norm=L1, dim=1, width=fam.width + fam.dim, design=design, search=search,
        predict=lambda B, a: (B[0] * a[:, 0]) @ B[1],
        pull_back=lambda B, G: (B[0] * (G @ B[1].T)).sum(axis=0)[:, None],
        measured=None)


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
    fam = _flat_family(p, opts)
    W, rows, history, certificate, iterations, converged = _cg_fit(
        _pinned(fam) if opts.mode == "l1" else fam, opts)
    if opts.mode == "l1":  # locations [w, u], payloads a
        W, rows = W[:, :p.feature.dw], rows * W[:, p.feature.dw:]
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
    if p.spec.primal_norm not in (L1, L2):
        raise ValueError("grid oracle supports l1 and l2 primal norms")
    if p.omega_grid is None:
        p = dataclasses.replace(
            p, omega_grid=product_grid(p.feature.radius, p.feature.dw, grid_per_dim))
    fam = _flat_family(p, FitOptions())
    C0 = np.zeros((p.omega_grid.shape[0], p.spec.dim))
    C, obj = _group_refit(fam, p.grid_phi, C0, max_iter, tol)
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
    if not len(mu):
        return NetworkDescription(
            feat.activation, np.zeros((d, 0)), np.zeros((0, dx)), np.zeros(0)
        )
    scale = beta_values(feat, mu.W)
    U = (mu.C * scale[:, None]).T
    return NetworkDescription(feat.activation, U, mu.W[:, :dx], mu.W[:, dx])


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
