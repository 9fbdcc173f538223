"""Sparse measure regression by generalized conditional gradient.

The learning problem is

    min over mu   (1/2N) sum_n |M f_mu(x_n) - y_n|^2 + lam * |mu|_TV

where f_mu integrates the feature map against an atomic vector measure and
M is the identity or a matrix of functionals.  Atoms delta_w u are inserted
by a linear maximization oracle over the extreme points of the primal unit
ball; over w it scores a candidate set and, on a free problem, ascends from
the best (ADCG), and on a sparse set from further ones while none beats the
certification threshold.  On fixed atoms the problem is a group lasso on
one matrix, the lifted design D (``_product_design``), whose column (m, i)
holds the predictions of the unit payload e_i at atom m.  Each round builds
D once; the payloads are refit on it by proximal and Newton steps on the
support (accelerated proximal descent for designs wider than the data, and
for singular ones of single-entry groups), and the predictions are D times
the payloads.  The same loop on a fixed weight grid, whose atom search is
exhaustive, certifies the optimum by a duality gap; a free search's
certificate is heuristic.
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
    _norm_and_witness,
    _real,
    _reals,
    primal_witness,
    row_norms,
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


# ----------------------------------------------------------------- problem

@dataclasses.dataclass(frozen=True)
class Problem:
    """A regression instance over atomic measures.

    ``omega_grid`` optionally restricts the atom locations to a fixed
    finite set; the oracle then searches it exhaustively, which makes
    the outer problem convex and certifiable.  ``functionals`` is None when
    Y observes the full value; otherwise it is the read-only matrix M whose
    rows v_j, of width spec.dim, observe Y[n, j] ~ <v_j, f(x_n)>.
    """

    X: np.ndarray
    Y: np.ndarray
    lam: float
    feature: FeatureMap
    spec: DualPairSpec
    omega_grid: np.ndarray | None = None
    functionals: np.ndarray | None = None

    def __post_init__(self):
        X = _frozen(np.atleast_2d(self.X))
        Y = _frozen(np.atleast_2d(self.Y))
        M = self.functionals
        if M is not None:
            M = _frozen(_reals(M, "functionals"))
            if M.ndim != 2 or not len(M) or M.shape[1] != self.spec.dim:
                raise ValueError(f"functionals must be a non-empty (k, {self.spec.dim}) array, "
                                 f"got shape {M.shape}")
            if not np.isfinite(M).all():
                raise ValueError("functionals must be finite")
            object.__setattr__(self, "functionals", M)
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y differ in length")
        if X.shape[0] < 1:
            raise ValueError("need at least one data point")
        if X.shape[1] != self.feature.dx:
            raise ValueError("X width does not match the feature input dim")
        if Y.shape[1] != (self.spec.dim if M is None else len(M)):
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
    """lam as a float, if finite and positive: the one check of fit (so of
    grid_oracle) and hyper_fit.  A Problem also takes lam = 0, where
    lambda_max probes."""
    lam = _real(lam, "lam")
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}: a solve requires lam > 0")
    return lam


_grid_size = functools.partial(_integer, what="grid_per_dim", low=1)  # a product grid's per_dim


def product_grid(radius: float, dim: int, per_dim: int) -> np.ndarray:
    """Cell centers of a regular product grid on [-R, R]^dim, kept inside
    the radius-R ball: the ``omega_grid`` of the CLI's grid problems, of
    per_dim points a dimension.  A center whose squared norm overflows lies
    outside the ball, as R^2 is finite, and is dropped."""
    per_dim = _grid_size(per_dim)
    width = 2.0 * radius / per_dim
    axis = -radius + (np.arange(per_dim) + 0.5) * width
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    with np.errstate(over="ignore"):
        keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius
    return pts[keep]


def _predictions(p: Problem, mu: AtomicVectorMeasure) -> np.ndarray:
    """M f_mu(x_n) for every data row, (N, d_meas)."""
    if not len(mu):
        return np.zeros_like(p.Y)
    U = phi_matrix(p.feature, p.X, mu.W) @ mu.C
    return U if p.functionals is None else U @ p.functionals.T


def _pull_back(p: Problem, G: np.ndarray) -> np.ndarray:
    """Rows of G pulled back into the dual of the value space: G M, or G."""
    return G if p.functionals is None else G @ p.functionals


def _product_design(Phi, Psi, V):
    """Lifted design of sampled two-level predictions: entry ((n, j), (m, i))
    is Phi[n, m] (Psi[j, m] V[j, i]), the prediction at input n and functional
    j of the unit payload e_i at atom m, for Phi = phi(z_n, w_m), the
    functional rows V and Psi = psi(x_j, theta_m), all ones when flat."""
    shape = (Phi.shape[0] * Psi.shape[0], Phi.shape[1] * V.shape[1])
    return (Phi[:, None, :, None] * (Psi[:, :, None] * V[:, None, :])).reshape(shape)


def _data_fit(R, n: int) -> float:
    """The data term 0.5 |R|^2 / n of the residuals R = P - Y of n rows."""
    return 0.5 * float(np.vdot(R, R)) / n


def objective(p: Problem, mu: AtomicVectorMeasure) -> float:
    """0.5 (1/N) sum_n |M f_mu(x_n) - y_n|^2 + lam * |mu|_TV."""
    if mu.space.dim != p.spec.dim or mu.space.primal_norm != p.spec.primal_norm:
        raise ValueError("measure space does not match the problem space")
    return _data_fit(_predictions(p, mu) - p.Y, p.n_data) + p.lam * total_variation(mu)


def residual_duals(p: Problem, mu: AtomicVectorMeasure) -> np.ndarray:
    """Residuals P - Y pulled back through the functionals, rows eta_n.

    Includes the 1/N data weight, so the oracle score compares directly
    against lam."""
    return _pull_back(p, _predictions(p, mu) - p.Y) / p.n_data


# --------------------------------------------------------------------- lmo

SEARCH_POINTS = 1024  # candidate locations of a free atom search, drawn once per fit
POLISHES = 32  # most candidates a search of a sparse set polishes before it reports none
DENSE = 8  # points per dimension from which a candidate set counts as dense
_SET_BLOCK = 1 << 20  # entries of a candidate feature matrix held at once


def _ball_points(rng, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform in the radius ball: normal directions, radii R U^(1/dim)."""
    d = rng.standard_normal((n, dim))
    r = radius * rng.uniform(size=n) ** (1.0 / dim)
    return d * (r / np.sqrt((d * d).sum(axis=1)))[:, None]


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


def _oracle_score(p: Problem, eta: np.ndarray):
    """(value, direction) of the oracle score |sum_n phi(x_n, w) eta_n| at w;
    ``direction`` reuses the feature parts ``value`` kept with the witness."""
    column, gradient = feature_column(p.feature, p.X)
    kind = p.spec.dual_norm

    def value(w):
        col, parts = column(w)
        score, u = _norm_and_witness(col @ eta, kind)
        return score, (u, parts)

    def direction(w, state):
        u, parts = state
        return gradient(w, parts).T @ (eta @ u)

    return value, direction


def _polish(scores, starts, value, direction, features, bar):
    """The best (L, state, score) of ascents from the best-scoring rows of
    ``starts`` in turn, ties to the lowest index: one on a set of at least
    DENSE points per dimension; on a sparser one, whose best candidate may
    stand on a support atom's hill below a higher hill, up to POLISHES until
    one exceeds bar, each passing over the candidates nearer an earlier
    ascent's end L than its start s was, as likely to climb to L again."""
    polishes = POLISHES if len(starts) < DENSE ** starts.shape[1] else 1
    g, best, open_ = int(np.argmax(scores)), None, np.ones(len(scores), dtype=bool)
    for k in range(polishes):
        found = _ascend(value, direction, features, starts[g])
        if best is None or found[2] > best[2]:
            best = found
        if best[2] > bar or k + 1 == polishes:
            break
        d = starts - found[0]
        open_ &= np.einsum("ij,ij->i", d, d) >= d[g] @ d[g]
        open_[g] = False
        if not open_.any():
            break
        g = int(np.argmax(np.where(open_, scores, -np.inf)))
    return best


def _search_set(p: Problem, seed: int = 0):
    """Candidate locations of the atom search and their feature matrix on the
    data: a grid problem's grid, or SEARCH_POINTS points drawn uniformly
    from the weight ball by default_rng(seed).  A free set's matrix is None
    when it would hold more than _SET_BLOCK entries; ``lmo`` then builds it
    a block of candidates at a time."""
    if p.omega_grid is not None:
        return p.omega_grid, p.grid_phi
    W = _ball_points(np.random.default_rng(seed), SEARCH_POINTS, p.feature.dw, p.feature.radius)
    return W, phi_matrix(p.feature, p.X, W) if p.n_data * len(W) <= _SET_BLOCK else None


def lmo(p: Problem, eta, candidates=None, bar=math.inf):
    """Search for the atom delta_w u maximizing |sum_n phi(x_n, w) <eta_n, u>|.

    Over u the inner maximum is closed-form (primal-ball witness of the
    aggregated dual vector).  Over w one product scores the candidates, a
    ``_search_set`` (that of seed 0 when none is given), ties toward the
    lowest index.  On a grid problem the best candidate is the answer,
    exact over the grid.  Otherwise projected ascents polish the best
    candidates in turn (``_polish``): the best one, and on a sparse set the
    next ones while no polished score exceeds ``bar``, which a fit sets to
    its certification threshold.  A free set whose matrix is not held is
    scored a block of _SET_BLOCK entries at a time.  The score is never
    below the candidates' best; it is a heuristic maximum.  Returns
    (w, u, score).
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (p.n_data, p.spec.dim):
        raise ValueError("residual rows do not match the problem")
    if not np.all(np.isfinite(eta)):
        raise SolverError("non-finite residual duals")
    W, Phi = _search_set(p) if candidates is None else candidates
    if Phi is None:
        step = max(1, _SET_BLOCK // p.n_data)
        V = np.concatenate([phi_matrix(p.feature, p.X, W[i:i + step]).T @ eta
                            for i in range(0, len(W), step)])
    else:
        V = Phi.T @ eta
    scores = row_norms(V, p.spec.dual_norm)
    if p.omega_grid is not None:
        g = int(np.argmax(scores))
        return W[g].copy(), primal_witness(p.spec, V[g]), float(scores[g])
    value, direction = _oracle_score(p, eta)
    w, (u, _), score = _polish(scores, W, value, direction, (p.feature,), bar)
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
    ``search(G)`` is the atom oracle at the residuals G = P - Y of the
    current model; it returns (location, score), the score on the scale of
    lam.
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

    A design with at most N*d_meas coefficients goes to ``_newton_refit``,
    unless its Gram is singular and its groups are single entries (the l1
    norm, or d = 1), which add no Newton curvature; those and wider designs,
    whose support Hessians can be singular, go to ``_fista``.  Returns
    (payload rows, objective).
    """
    step, gram, singular = _refit_step(fam, D)
    if C0.size > fam.Y.size or (singular and (fam.norm == L1 or fam.dim == 1)):
        return _fista(fam, D, C0, step, max_iter, tol)
    return _newton_refit(fam, D, C0, max_iter, tol, (step, gram))


def _refit_step(fam: _AtomFamily, D):
    """Step 1/lambda_max(D^T D / N) of a refit on the lifted design D, from
    ``eigvalsh`` on the smaller Gram: D^T D / N, or D D^T / N when D is wide;
    1.0 when D vanishes.  The Gram counts as singular when its smallest
    eigenvalue is at most 1e-12 times its largest.  Returns (step, Gram,
    singular)."""
    gram = (D @ D.T if D.shape[1] > D.shape[0] else D.T @ D) / fam.Y.shape[0]
    eig = np.linalg.eigvalsh(gram)
    top = float(eig[-1])
    return (1.0 / top if top > 0.0 else 1.0), gram, bool(eig[0] <= 1e-12 * top)


def _newton_refit(fam: _AtomFamily, D, C0: np.ndarray, max_iter, tol, step_gram=None):
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
    ``step_gram`` is the (step, Gram) of ``_refit_step`` when already taken.
    Returns (C, objective).
    """
    k, dim = C0.shape
    n = fam.Y.shape[0]
    y = fam.Y.ravel()
    step, H = step_gram or _refit_step(fam, D)[:2]   # K <= N*d_meas: the Gram is H
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

    ``seed`` draws the candidate set of a free atom search.  The counts are
    stored as ints by ``_integer`` and the tolerances as floats by ``_real``.
    """

    max_atoms: int = 50
    tol: float = 1e-3
    refit_max_iter: int = 5000
    refit_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # numpy seeds no generator from a negative int, and a refit that takes
        # no step prunes each new atom, so the run would stall at once
        for name, low in (("max_atoms", 1), ("refit_max_iter", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name in ("tol", "refit_tol"):
            value = _real(getattr(self, name), name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            object.__setattr__(self, name, value)


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


def _cg_fit(fam: _AtomFamily, opts: FitOptions):
    """Conditional-gradient loop from the zero measure: insert, refit,
    prune, until certified.

    Every atom is a location row and a free payload row.  Each round builds
    the lifted design D of its locations once; ``_group_refit`` refits the
    payload rows on D and the predictions are D times them; a wide refit
    whose nonzero rows form a narrow design is refit again on them, by
    Newton steps unless ``_group_refit`` sends it back to ``_fista``.  There
    are three exits: certified, when the oracle score drops to lam*(1+tol);
    atom budget, when a new atom would exceed opts.max_atoms; and stalled,
    when a round ends on the support it started from (the proposal merged,
    or its new slot was pruned) with the objective down by at most
    refit_tol relative, so that the next round would repeat it.  In every
    case the certificate (last oracle score) is recorded.  A support over
    the N*d_meas bound is then reduced to it (``_reduce_support``), and the
    last history entry is the reduced state's objective.  Returns
    (locations, coalesced payload rows, objective history, certificate,
    iterations, converged).  A norm other than l1 and l2, which has no
    proximal map here, raises ValueError before any search.
    """
    if fam.norm not in (L1, L2):
        raise ValueError(f"fits support l1 and l2 primal norms, got {fam.norm!r}")
    L, C = np.zeros((0, fam.width)), np.zeros((0, fam.dim))  # locations, payload rows
    P = np.zeros_like(fam.Y)  # predictions of the current model

    history = [_objective(fam, P - fam.Y, C)]
    certificate = math.inf
    threshold = fam.lam * (1.0 + opts.tol)
    converged = False
    iterations = 0

    while True:
        G = P - fam.Y
        if not np.all(np.isfinite(G)):
            raise SolverError("non-finite residuals")
        loc, score = fam.search(G)
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
        on = row_norms(C, fam.norm) > 0.0
        if on.any() and C.size > fam.Y.size >= C[on].size:
            # a wide refit left a narrow support, where Newton steps converge
            C[on], obj = _group_refit(fam, fam.lift(L[on]), C[on], opts.refit_max_iter,
                                      opts.refit_tol)
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
    if len(L) > fam.Y.size:
        L, C = _reduce_support(fam, L, C)
        history[-1] = _objective(fam, (fam.lift(L) @ C.ravel()).reshape(fam.Y.shape) - fam.Y, C)
    return L, C, tuple(history), certificate, iterations, converged


def _reduce_support(fam: _AtomFamily, L, C):
    """Coalesced (L, C) of at most Y.size atoms, the representer bound, with
    the same predictions and no larger penalty: while there are more, scale
    c_m by 1 + s t_m, t a null vector of the atoms' prediction columns with
    sum_m t_m |c_m| <= 0, up to the first zero, and drop that atom."""
    while len(L) > fam.Y.size:
        A = (fam.lift(L).reshape(fam.Y.size, len(L), fam.dim) * C).sum(axis=2)
        t = np.linalg.svd(A)[2][-1]
        if t @ row_norms(C, fam.norm) > 0.0 or t.min() >= 0.0:
            t = -t
        s = np.divide(-1.0, t, out=np.full(len(t), np.inf), where=t < 0.0)
        drop = int(np.argmin(s))
        L, C = np.delete(L, drop, 0), np.delete(C * (1.0 + s[drop] * t)[:, None], drop, 0)
    return _coalesce_rows(L, C, fam.norm)


def _flat_family(p: Problem, opts: FitOptions) -> _AtomFamily:
    """Atoms delta_w c of the flat problem; the oracle is ``lmo`` on the
    ``_search_set`` of opts.seed, built here once for every round, up to
    the certification threshold lam (1 + opts.tol).

    The lifted design is ``_product_design`` with a base level of ones and
    the functionals M (the identity when the full value is observed):
    entry ((n, j), (m, i)) is phi(x_n, w_m) M[j, i].
    """
    M = np.eye(p.spec.dim) if p.functionals is None else p.functionals

    def lift(W):
        return _product_design(phi_matrix(p.feature, p.X, W), np.ones((len(M), len(W))), M)

    candidates = _search_set(p, opts.seed)
    threshold = p.lam * (1.0 + opts.tol)

    def search(G):
        w, _, score = lmo(p, _pull_back(p, G) / p.n_data, candidates, threshold)
        return w, score

    return _AtomFamily(
        Y=p.Y,
        lam=p.lam,
        norm=p.spec.primal_norm,
        dim=p.spec.dim,
        width=p.feature.dw,
        lift=lift,
        search=search,
    )


def fit(p: Problem, opts: FitOptions) -> SolverState:
    """Conditional-gradient fit of an atomic measure, until certified.

    Terminates certified, when the oracle score drops to lam*(1+tol); at
    the atom budget, when a new atom would exceed opts.max_atoms; or
    stalled, when a round would repeat the last one (see ``_cg_fit``).  In
    every case the certificate (last oracle score) is recorded, and only
    the first sets ``converged``.  Deterministic for a fixed seed.
    """
    _positive_lam(p.lam)
    W, rows, history, certificate, iterations, converged = _cg_fit(_flat_family(p, opts), opts)
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
    """Smallest lam for which the zero measure is optimal: the ``lmo`` score
    at mu = 0, on the candidates of seed 0 with no threshold to beat, so a
    sparse set runs all its polishes.  Exact for grid-restricted problems
    and heuristic otherwise, as the free search is."""
    return lmo(p, residual_duals(p, empty_measure(p.spec, p.feature.radius)))[2]


def _duality_gap(fam: _AtomFamily, L: np.ndarray, C: np.ndarray):
    """Objective, dual value and relative duality gap of payload rows C at
    locations L.

    With P the predictions, G = P - Y the residuals and s = ``fam.search(G)``,
    the dual point theta = -a G/N, a = min(1, lam/s), is feasible, with the
    dual value <theta, Y> - N|theta|^2/2.  The gap is formed directly, as
    ((1-a)^2 |G|^2 + 2a <G, P>)/(2N) + lam sum_m |c_m|, so it is exactly 0 at
    the zero measure when s <= lam; it is taken relative to the objective
    when that is positive.  A certificate when the search is exhaustive, as
    on a grid."""
    n = fam.Y.shape[0]
    P = (fam.lift(L) @ C.ravel()).reshape(fam.Y.shape)
    G = P - fam.Y
    s = fam.search(G)[1]
    a = 1.0 if s <= fam.lam else fam.lam / s
    penalty = fam.lam * float(row_norms(C, fam.norm).sum())
    primal = _data_fit(G, n) + penalty
    gap = ((1.0 - a) ** 2 * float(np.vdot(G, G)) + 2.0 * a * float(np.vdot(G, P))) / (2 * n)
    gap += penalty
    return primal, primal - gap, gap / primal if primal > 0.0 else gap


def grid_oracle(p: Problem, opts: FitOptions):
    """The grid fit of ``p`` and its duality gap on ``p.omega_grid``, whose
    exhaustive search makes the gap a certificate.  Returns (state, dual
    value, relative gap): the dual value is a lower bound on the grid
    optimum and the state's last objective an upper one.  A problem with
    no grid raises ValueError."""
    if p.omega_grid is None:
        raise ValueError("grid_oracle needs a problem with an omega_grid")
    state = fit(p, opts)
    _, dual, gap = _duality_gap(_flat_family(p, opts), state.measure.W, state.measure.C)
    return state, dual, gap


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
