"""Sparse measure regression by generalized conditional gradient.

The learning problem is

    min over mu   (1/2N) sum_n |M f_mu(x_n) - y_n|^2 + lam * |mu|_TV

where f_mu integrates the feature map against an atomic vector measure.
Atoms delta_w u are inserted by a linear maximization oracle over the
extreme points of the primal unit ball.  On fixed atoms the problem is a
group lasso on one matrix, the lifted design D, whose column (m, i) holds
the predictions of the unit payload e_i at atom m.  Each round builds D
once; the payloads are refit on it by proximal and Newton steps on the
support (accelerated proximal descent for designs wider than the data),
and the predictions are D times the payloads.  The same loop on a fixed
weight grid, whose atom search is exhaustive, certifies the optimum by a
duality gap.
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
    _integer,
    _real,
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
        lam = _real(self.lam, "lam")
        if not 0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {lam}")
        object.__setattr__(self, "lam", lam)
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


def _positive_lam(lam) -> float:
    """lam as a float, if finite and positive: the one check of fit,
    grid_oracle, hyper_fit and hyper_grid_oracle.  A Problem also takes
    lam = 0, where lambda_max probes."""
    lam = _real(lam, "lam")
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}: a solve requires lam > 0")
    return lam


_grid_size = functools.partial(_integer, what="grid_per_dim", low=1)  # a product grid's per_dim


def product_grid(radius: float, dim: int, per_dim: int) -> np.ndarray:
    """Cell centers of a regular product grid on [-R, R]^dim, kept inside
    the radius-R ball.  The same construction backs the discretized
    oracle, so grid-restricted problems and the oracle see identical
    candidate sets."""
    per_dim = _grid_size(per_dim)
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


def _data_fit(R, n: int) -> float:
    """The data term 0.5 |R|^2 / n of the residuals R = P - Y of n rows."""
    return 0.5 * float(np.vdot(R, R)) / n


def objective(p: Problem, mu: AtomicVectorMeasure) -> float:
    """0.5 (1/N) sum_n |M f_mu(x_n) - y_n|^2 + lam * |mu|_TV."""
    if mu.space.dim != p.spec.dim or mu.space.primal_norm != p.spec.primal_norm:
        raise ValueError("measure space does not match the problem space")
    return _data_fit(_predictions(p, mu) - p.Y, p.n_data) + p.lam * total_variation(mu)


def residual_duals(p: Problem, mu: AtomicVectorMeasure) -> np.ndarray:
    """Residuals P - Y mapped through the measurement adjoint, rows eta_n.

    Includes the 1/N data weight, so the oracle score compares directly
    against lam."""
    return measurement_adjoint(p.measurement, _predictions(p, mu) - p.Y) / p.n_data


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


def _ascend(value, direction, features, L0):
    """Spectral projected gradient ascent on an oracle score from one start.

    ``value(L)`` returns (score, payload state) at a location vector L,
    ``direction(L, state)`` the ascent direction at that payload (Danskin);
    L holds one weight block per feature in ``features`` and steps are
    projected onto their balls.  The first trial step is 1; from the second
    ascent step on it is the Barzilai-Borwein step s.s / -(s.y), s and y the
    last changes of L and of the direction, when s.y < 0, and otherwise the
    step carried from the last acceptance, doubled only when that passed on
    its first trial.  Each trial halves until the Armijo test on the
    projected step passes (Birgin, Martinez & Raydan 2000).  At most 200
    steps are taken.  Returns (L, state, score).
    """
    L = np.asarray(L0, dtype=float).copy()
    score, state = value(L)
    step = 1.0
    prev = None  # (L, direction) where the last accepted step started
    for _ in range(200):
        g = direction(L, state)
        gg = float(np.dot(g, g))  # finite unless g holds a non-finite entry or overflows
        if not math.isfinite(gg) and not np.isfinite(g).all():
            raise SolverError("non-finite oracle gradient")
        if gg == 0.0:
            break
        if prev is not None:
            s, y = L - prev[0], g - prev[1]
            sy = float(np.dot(s, y))
            if sy < 0.0:
                step = min(max(float(np.dot(s, s)) / -sy, 1e-10), 1e10)
        first = step
        improved = False
        while step >= 1e-12:
            cand = _project_balls(L + step * g, features)
            cand_score, cand_state = value(cand)
            if cand_score >= score + 1e-4 * float(np.dot(g, cand - L)):
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = cand_score - score
        prev = L, g
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


def _fista(fam: _AtomFamily, D, C0: np.ndarray, step: float, max_iter: int, tol: float):
    """Accelerated proximal descent on payload rows acting through the lifted
    design D, with backtracking from the step ``step``; any number of rows,
    so also a design wider than the data, whose Gram can be singular.

    A line-search trial costs one product with D and one data term; the
    gradient is taken only where a descent step starts, and the extrapolated
    point's predictions follow from linearity.  Momentum restarts whenever
    the composite objective would increase, so the returned objective never
    exceeds the starting one.  Stops on relative objective change below tol.
    Returns (C, objective).
    """
    n, y = fam.Y.shape[0], fam.Y.ravel()
    x = np.array(C0, dtype=float)
    Px = D @ x.ravel()
    fx = _data_fit(Px - y, n)
    obj = _objective(fam, Px - y, x)
    z, Pz, fz = x, Px, fx
    t_mom = 1.0

    def descend(point, P, fp):
        nonlocal step
        g = (D.T @ (P - y)).reshape(point.shape) / n
        if not np.isfinite(g).all():
            raise SolverError("non-finite refit gradient")
        while True:
            cand = _prox_rows(point - step * g, step * fam.lam, fam.norm)
            diff = cand - point
            Pc = D @ cand.ravel()
            fc = _data_fit(Pc - y, n)
            bound = fp + float(np.vdot(g, diff))
            bound += float(np.vdot(diff, diff)) / (2.0 * step)
            if fc <= bound + 1e-12 * (1.0 + abs(fp)):
                return cand, Pc, fc, _objective(fam, Pc - y, cand)
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
        fz = _data_fit(Pz - y, n)
        t_mom = t_next
    return x, obj


@dataclasses.dataclass(frozen=True)
class _AtomFamily:
    """One regression problem as the conditional-gradient engine sees it.

    An atom is a location row of ``width`` entries and a free payload row
    in R^dim, penalized by its ``norm``.  On fixed locations L the model is
    linear in the payloads: ``lift(L)`` is the lifted design D, of shape
    (Y.size, len(L) * dim), whose column (m, i) holds the predictions of
    the unit payload e_i at atom m, so payload rows C predict
    (D @ C.ravel()).reshape(Y.shape); an empty L gives shape (Y.size, 0).
    ``search(G, seed)`` is the atom oracle, seeded for its random starts, at
    the residuals G = P - Y of the current model; it returns (location, unit
    payload, score), the score on the scale of lam.
    """

    Y: np.ndarray
    lam: float
    norm: str
    dim: int
    width: int
    lift: Callable
    search: Callable


def _objective(fam: _AtomFamily, R, C) -> float:
    """The composite objective 0.5 |R|^2 / N + lam * sum_m |c_m| of the
    payload rows C, whose residuals are R = P - Y."""
    return _data_fit(R, fam.Y.shape[0]) + fam.lam * float(row_norms(C, fam.norm).sum())


def _group_refit(fam: _AtomFamily, D, C0: np.ndarray, max_iter, tol):
    """Refit payload rows on the lifted design D of their locations.

    A design with at most N*d_meas coefficients goes to ``_newton_refit``;
    a wider one, whose support Hessians can be singular, to ``_fista``.
    Returns (payload rows, objective).
    """
    if C0.size <= fam.Y.size:
        return _newton_refit(fam, D, C0, max_iter, tol)
    return _fista(fam, D, C0, _refit_step(fam, D)[0], max_iter, tol)


def _refit_step(fam: _AtomFamily, D):
    """Step 1/lambda_max(D^T D / N) of a refit on the lifted design D, from
    ``eigvalsh`` on the smaller Gram: D^T D / N, or D D^T / N when D is wide;
    1.0 when D vanishes.  Returns (step, Gram)."""
    gram = (D @ D.T if D.shape[1] > D.shape[0] else D.T @ D) / fam.Y.shape[0]
    top = float(np.linalg.eigvalsh(gram)[-1])
    return (1.0 / top if top > 0.0 else 1.0), gram


def _newton_refit(fam: _AtomFamily, D, C0: np.ndarray, max_iter, tol):
    """Squared-loss group-lasso refit: prox-gradient steps, each followed by
    Newton steps on the support (Pieper & Walter 2021).

    The K = k*dim payload entries act through the lifted design D, whose
    columns are the predictions of unit payloads, so the data term is
    0.5 |D c - y|^2 / N with Hessian H = D^T D / N.  A prox-gradient step
    takes the step 1/lambda_max(H).  The penalty is a sum of l2 norms of
    groups: the rows for the l2 norm, single entries for l1.  The Newton
    step solves the smooth problem on the nonzero groups: its Hessian is H
    there plus lam (I - u u^T) / |c_m| for a group c_m of direction u, its
    gradient (H c - q) plus lam u.  A group that turns by a right angle or
    more along the step is set to zero.  The full step is kept on Armijo
    decrease of the exact objective, computed from the residual.  When it
    fails and a group turns before it, the iterate moves to the first such
    turn, that group is set to zero and the step is solved again on the
    smaller support (feature-sign search, Lee et al. 2007); otherwise the
    step is halved until Armijo passes, and dropped if it never does, as it
    is when numpy finds the Newton system singular.  A prox step is kept
    only if it does not raise the objective, so the returned objective never
    exceeds the starting one.  Stops when one iteration changes the
    objective by at most tol relative, or after max_iter iterations.
    Returns (C, objective).
    """
    k, dim = C0.shape
    n = fam.Y.shape[0]
    y = fam.Y.ravel()
    step, H = _refit_step(fam, D)   # K <= N*d_meas: the Gram is H
    q = D.T @ y / n
    lam = fam.lam
    g = dim if fam.norm == L2 else 1   # an l1 entry is an l2 group of one

    def objective(c):
        return _objective(fam, D @ c - y, c.reshape(k, dim))

    def move(c, on, d, t, zero):
        # c + t d on the groups ``on``, with the groups on[zero] set to zero
        new = c.reshape(-1, g).copy()
        new[on] += t * d.reshape(-1, g)
        new[on[zero]] = 0.0
        return new.ravel()

    def newton(c, obj):
        while True:
            groups = c.reshape(-1, g)
            norms = np.sqrt((groups * groups).sum(axis=1))
            on = np.flatnonzero(norms > 0.0)
            if not on.size:
                return c, obj
            s, r = len(on), norms[on]
            idx = (on[:, None] * g + np.arange(g)).ravel()
            u = groups[on] / r[:, None]
            grad = H[idx] @ c - q[idx] + lam * u.ravel()
            hess = H[np.ix_(idx, idx)]
            diag = np.arange(s)
            hess.reshape(s, g, s, g)[diag, :, diag, :] += (
                (np.eye(g) - u[:, :, None] * u[:, None, :]) * (lam / r)[:, None, None])
            try:
                d = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                return c, obj
            slope = float(grad @ d)
            if not (math.isfinite(slope) and slope < 0.0):
                return c, obj
            # group m turns by a right angle at t = |c_m|^2 / -(c_m . d_m)
            cd = (groups[on] * d.reshape(s, g)).sum(axis=1)
            turn = np.divide(r * r, -cd, out=np.full(s, np.inf), where=cd < 0.0)
            new = move(c, on, d, 1.0, turn <= 1.0)
            new_obj = objective(new)
            if new_obj <= obj + 1e-4 * slope:
                return new, new_obj
            first = int(np.argmin(turn))
            if turn[first] < 1.0:
                new = move(c, on, d, turn[first], [first])
                new_obj = objective(new)
                if new_obj <= obj:
                    c, obj = new, new_obj
                    continue
            t = 0.5
            while t >= 1e-6:
                new = move(c, on, d, t, turn <= t)
                new_obj = objective(new)
                if new_obj <= obj + 1e-4 * t * slope:
                    return new, new_obj
                t *= 0.5
            return c, obj

    c = np.array(C0, dtype=float).ravel()
    obj = objective(c)
    for _ in range(max_iter):
        start = obj
        cand = _prox_rows((c - step * (H @ c - q)).reshape(k, dim), step * lam, fam.norm).ravel()
        cand_obj = objective(cand)
        if cand_obj <= obj:
            c, obj = cand, cand_obj
        c, obj = newton(c, obj)
        if start - obj <= tol * max(1.0, abs(obj)):
            break
    return c.reshape(k, dim), obj


# --------------------------------------------------------------------- fit

@dataclasses.dataclass(frozen=True)
class FitOptions:
    """Knobs for the conditional-gradient loop.

    ``mode`` selects the atoms: ``group`` keeps payloads free and
    penalizes their primal norms; ``l1`` pins each atom to the
    extreme-point direction found by the oracle and penalizes its scalar
    weight (see ``_pinned``), and ``fit`` takes it only for the l1 primal
    norm or d = 1.  The counts are stored as ints by ``_integer`` and the
    tolerances as floats by ``_real``.
    """

    max_atoms: int = 50
    mode: str = "group"
    restarts: int = 32
    tol: float = 1e-3
    refit_max_iter: int = 5000
    refit_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # numpy seeds no generator from a negative int, and a refit that takes
        # no step prunes each new atom, so the run would stall at once
        for name, low in (("max_atoms", 1), ("restarts", 1), ("refit_max_iter", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name in ("tol", "refit_tol"):
            value = _real(getattr(self, name), name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            object.__setattr__(self, name, value)
        if self.mode not in ("l1", "group"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclasses.dataclass(frozen=True)
class SolverState:
    """Outcome of a conditional-gradient run.

    ``certificate`` is the oracle score at the last iteration.  The run
    ends in one of three ways: certified (``converged`` True), when that
    score dropped to lam*(1+tol); at the atom budget, when a new atom would
    exceed ``max_atoms``; or stalled, when a round ended on the support it
    started from with the objective down by at most ``refit_tol`` relative.
    The last two return the state as-is with ``converged`` False.
    """

    measure: AtomicVectorMeasure
    objective_history: tuple
    certificate: float
    iterations: int
    seed: int
    feature: FeatureMap
    converged: bool


def _cg_fit(fam: _AtomFamily, opts: FitOptions, start=None):
    """Conditional-gradient loop: insert, refit, prune, until certified.

    Every atom is a location row and a free payload row.  The loop starts
    from the zero measure, or from ``start`` = (locations, payload rows)
    when given; the objective history opens with the start's objective.
    Each round builds the lifted design D of its locations once;
    ``_group_refit`` refits the payload rows on D and the predictions are D
    times them.  Round k seeds the atom search with opts.seed + 7919 k.
    There are three exits:
    certified, when the oracle score drops to lam*(1+tol); atom budget, when
    a new atom would exceed opts.max_atoms; and stalled, when a round ends
    on the support it started from (the proposal merged, or its new slot was
    pruned) with the objective down by at most refit_tol relative, so that
    the next round would repeat it.  In every case the certificate (last
    oracle score) is recorded.  Returns
    (locations, coalesced payload rows, objective history, certificate,
    iterations, converged).
    """
    if start is None:
        start = np.zeros((0, fam.width)), np.zeros((0, fam.dim))
    L, C = (np.array(a, dtype=float) for a in start)  # locations, payload rows
    # predictions of the current model
    P = (fam.lift(L) @ C.ravel()).reshape(fam.Y.shape) if len(L) else np.zeros_like(fam.Y)

    history = [_objective(fam, P - fam.Y, C)]
    certificate = math.inf
    threshold = fam.lam * (1.0 + opts.tol)
    converged = False
    iterations = 0

    while True:
        G = P - fam.Y
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

        D = fam.lift(L)
        C, obj = _group_refit(fam, D, C, opts.refit_max_iter, opts.refit_tol)
        P = (D @ C.ravel()).reshape(fam.Y.shape)

        # drop slots the threshold zeroed out exactly, which leaves P as the
        # predictions of the kept state; tiny survivors are left for the
        # final coalesce so the recorded objective stays the objective of
        # the kept state
        keep = row_norms(C, fam.norm) > 0.0
        L, C = L[keep], C[keep]

        history.append(obj)
        iterations += 1
        stalled = history[-2] - history[-1] <= opts.refit_tol * max(1.0, abs(obj))
        if stalled and (merged or not keep[-1]):
            break  # back on the support the round started from

    L, C = _coalesce_rows(L, C, fam.norm)
    if converged and len(L) > fam.Y.size:
        raise SolverError(
            f"converged model has {len(L)} atoms, over the N*d_meas bound {fam.Y.size}")
    return L, C, tuple(history), certificate, iterations, converged


def _flat_family(p: Problem, opts: FitOptions) -> _AtomFamily:
    """Atoms delta_w c of the flat problem; the oracle is ``lmo``.

    The lifted design is kron(Phi, M), M the measurement matrix (the
    identity for the identity measurement): entry ((n, j), (m, i)) is
    phi(x_n, w_m) M[j, i].
    """
    m = p.measurement
    M = np.eye(p.spec.dim) if m.kind == "identity" else m.matrix

    def lift(W):
        Phi = phi_matrix(p.feature, p.X, W)
        return (Phi[:, None, :, None] * M[:, None, :]).reshape(p.Y.size, len(W) * p.spec.dim)

    def search(G, seed):
        eta = measurement_adjoint(m, G) / p.n_data
        return lmo(p, eta, opts.restarts, seed)

    return _AtomFamily(
        Y=p.Y,
        lam=p.lam,
        norm=p.spec.primal_norm,
        dim=p.spec.dim,
        width=p.feature.dw,
        lift=lift,
        search=search,
    )


def _pinned(fam: _AtomFamily) -> _AtomFamily:
    """The l1-mode form of ``fam``: atoms a delta_w u, u the oracle's direction.

    The location is [w, u], the direction riding after the weights, and the
    payload is the scalar a with penalty |a|, so a re-proposal merges only
    when both w and u agree to MERGE_TOL; ``fit`` returns the row a u.  The
    lifted design contracts each atom's block of the free design with u.
    """
    def lift(L):
        D = fam.lift(L[:, :fam.width]).reshape(fam.Y.size, len(L), fam.dim)
        return (D * L[:, fam.width:]).sum(axis=2)

    def search(G, seed):
        w, u, score = fam.search(G, seed)
        return np.concatenate([w, u]), np.ones(1), score

    return dataclasses.replace(
        fam, norm=L1, dim=1, width=fam.width + fam.dim, lift=lift, search=search)


def fit(p: Problem, opts: FitOptions) -> SolverState:
    """Conditional-gradient fit of an atomic measure, until certified.

    Terminates certified, when the oracle score drops to lam*(1+tol); at
    the atom budget, when a new atom would exceed opts.max_atoms; or
    stalled, when a round would repeat the last one (see ``_cg_fit``).  In
    every case the certificate (last oracle score) is recorded, and only
    the first sets ``converged``.  Deterministic for a fixed seed.
    """
    _positive_lam(p.lam)
    if p.spec.primal_norm not in (L1, L2):
        raise ValueError("fit supports l1 and l2 primal norms")
    if opts.mode == "l1" and p.spec.primal_norm == L2 and p.spec.dim > 1:
        # the l2 ball's extreme points are a continuum: CG rounds would add
        # directions at one w instead of rotating one
        raise ValueError("mode 'l1' needs the l1 primal norm when d > 1")
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


def lambda_max(p: Problem) -> float:
    """Smallest lam for which the zero measure is optimal.

    Equals the oracle score at mu = 0.  Exact for grid-restricted
    problems; otherwise the best of a sweep over the 17-per-dimension
    product grid, one ascent polishing the sweep's best point, and 8
    ascents from random starts seeded with 0.
    """
    eta = residual_duals(p, empty_measure(p.spec, p.feature.radius))
    if p.omega_grid is not None:
        return lmo(p, eta)[2]
    grid = product_grid(p.feature.radius, p.feature.dw, 17)
    w, _, score = lmo(dataclasses.replace(p, omega_grid=grid), eta)
    value, direction = _oracle_score(p, eta)
    best = _ascend(value, direction, (p.feature,), w)[2]
    rand = lmo(p, eta, restarts=8)[2]
    return max(score, best, rand)


def _duality_gap(fam: _AtomFamily, L: np.ndarray, C: np.ndarray):
    """Objective and relative duality gap of payload rows C at locations L.

    With G = P - Y the residuals and s = ``fam.search(G, 0)``, the dual point
    theta = -G/N min(1, lam/s) is feasible, with the dual value
    <theta, Y> - N|theta|^2/2.  A certificate when the search is exhaustive,
    as on a grid."""
    n = fam.Y.shape[0]
    G = (fam.lift(L) @ C.ravel()).reshape(fam.Y.shape) - fam.Y
    primal = _objective(fam, G, C)
    s = fam.search(G, 0)[2]
    theta = -G / n * (1.0 if s <= fam.lam else fam.lam / s)
    dual = float(np.vdot(theta, fam.Y)) - 0.5 * n * float(np.vdot(theta, theta))
    return primal, (primal - dual) / primal if primal > 0.0 else primal - dual


def _grid_solve(fam: _AtomFamily, grids, start=None):
    """The CG engine at fixed tolerances on a grid family over the product
    of ``grids``, each holding the next columns of a location, from the
    zero measure or from ``start`` = (locations, payload rows).  A start
    location whose columns are not a row of their grid raises ValueError.
    The family proposes grid rows only, so every fitted location is one.
    Returns (objective, payload rows for every grid point in C order,
    relative gap)."""
    sizes = [len(g) for g in grids]
    ends = np.cumsum([g.shape[1] for g in grids])

    def grid_rows(L):  # per grid, the first row that each location's columns equal
        match = [(L[:, None, e - g.shape[1]:e] == g).all(axis=2) for g, e in zip(grids, ends)]
        on = np.all([m.any(axis=1) for m in match], axis=0)
        if not on.all():
            raise ValueError(f"start location {L[np.argmin(on)]} is not a grid point")
        return [m.argmax(axis=1) for m in match]

    if start is not None:
        L0, C0 = (np.asarray(a, dtype=float) for a in start)
        if L0.ndim != 2 or L0.shape[1] != fam.width or C0.shape != (len(L0), fam.dim):
            raise ValueError(
                f"start must be locations (k, {fam.width}) and payload rows (k, {fam.dim})")
        grid_rows(L0)
    L, C = _cg_fit(fam, FitOptions(max_atoms=math.prod(sizes), tol=1e-9, refit_tol=1e-13),
                   start)[:2]
    rows = np.zeros((math.prod(sizes), fam.dim))
    rows[np.ravel_multi_index(grid_rows(L), sizes)] = C
    obj, gap = _duality_gap(fam, L, C)
    return obj, rows, gap


def grid_oracle(p: Problem, grid_per_dim: int, start=None):
    """Solve the weight-grid discretization of the problem, certified.

    The CG engine runs on the grid (the problem's ``omega_grid`` when
    present, so grid-restricted fits and this oracle share their candidate
    set) until the score is within 1e-9 relative of lam > 0.  It starts from
    the zero measure, or continues from ``start`` = (W, C), atoms at grid
    points such as a grid-restricted fit's measure; a location off the grid
    raises ValueError.  Returns (objective, coefficient matrix with a row per
    grid point, relative duality gap).
    """
    _positive_lam(p.lam)
    if p.spec.primal_norm not in (L1, L2):
        raise ValueError("grid oracle supports l1 and l2 primal norms")
    if p.omega_grid is None:
        p = dataclasses.replace(
            p, omega_grid=product_grid(p.feature.radius, p.feature.dw, grid_per_dim))
    return _grid_solve(_flat_family(p, FitOptions()), (p.omega_grid,), start)


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
