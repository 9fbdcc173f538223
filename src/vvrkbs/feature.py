"""Scalar feature functions phi(x, w) and the kernel they induce.

Three families are provided, all continuous and vanishing at infinity in
w (C0 behavior) once the truncation beta is applied:

* neural:    phi(x, (omega, b)) = sigma(<omega, x> + b) * beta(w), with
             w = (omega, b) in R^{dx+1} and sigma one of relu, tanh,
             sigmoid, gaussian_rbf (t -> exp(-t^2));
* gaussian:  phi(x, omega) = exp(-||x - omega||^2 / (2 s^2)) * beta(w);
* tabulated: bilinear interpolation of a value table over a rectangle
             (1-d x, 1-d w), zero outside the table.

The truncation beta is one of

* smooth_bump: beta(w) = max(0, 1 - (||w||_2 / R)^2)^2   (C^1, supported
  on the ball of radius R),
* hard: indicator of the ball,
* one: no truncation (only allowed when phi is bounded without it).

The kernel of the induced integral space is scalar times identity:
K(x, w)(u_dual, u) = phi(x, w) * <u_dual, u>.

Each kind's core, phi before beta, is written once, on operands of the
inputs and of the weights.  ``bind_locations`` holds what reads the weights
alone: beta(W) and the weight operands (the neural omega^T and bias row, the
gaussian W^T and squared norms, the tabulated w-cells).  ``phi_bound`` is the
core on them times beta, and ``phi_matrix`` binds afresh, so a caller that
evaluates one location set at many inputs binds it once.  ``feature_column``
binds inputs X once and evaluates the column phi(X, w) and its w-gradient,
the product rule dcore * beta + core * dbeta, at one w at a time, bitwise as
``phi_matrix`` and ``grad_phi_w_batch``.

``simple_approx_pairing`` is the verification route for the pairing: it
replaces phi by the piecewise-constant function taking phi's value at
the centers of a product grid of cells and pairs the cell masses of the
two measures directly.  As the grid refines the value converges to
``measure.product_pairing`` with error bounded by the sup deviation of
the approximation times the product of total variations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dual_pair import _integer, _radius, _real, _reals

# each activation, and its derivative at t from core = activation(t); relu's
# at the kink (t == 0) is pinned to 0 for determinism
_ACTIVATIONS = {
    "relu": (lambda t: np.maximum(t, 0.0), lambda t, core: (t > 0.0).astype(float)),
    "tanh": (np.tanh, lambda t, core: 1.0 - core * core),
    "sigmoid": (lambda t: 1.0 / (1.0 + np.exp(-t)), lambda t, core: core * (1.0 - core)),
    "gaussian_rbf": (lambda t: np.exp(-t * t), lambda t, core: -2.0 * t * core),
}
KINDS = ("neural", "gaussian", "tabulated")
ACTIVATIONS = tuple(_ACTIVATIONS)
BETAS = ("smooth_bump", "hard", "one")
_BOUNDED_ACTIVATIONS = ("tanh", "sigmoid", "gaussian_rbf")


def activation_values(name: str, t) -> np.ndarray:
    """Apply the named scalar activation elementwise."""
    return _act(name, np.asarray(t, dtype=float))


def _act(name: str, t: np.ndarray) -> np.ndarray:
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return _ACTIVATIONS[name][0](t)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Evaluable scalar feature with its truncation and weight ball.

    ``dx`` is the input dimension, ``dw`` the weight dimension (derived:
    dx+1 for neural, dx for gaussian, 1 for tabulated), ``radius`` the
    Euclidean weight ball.  ``bandwidth`` applies to the gaussian kind;
    ``x_grid``/``w_grid``/``values`` to the tabulated kind.  Numeric fields
    are stored converted: ``dx`` by ``_integer``, ``radius`` by ``_radius``,
    ``bandwidth`` (finite and positive, whatever the kind) by ``_real`` and
    the tables, when given, as read-only float arrays by ``_reals``.  Two
    features are equal when their records (``feature_to_json_dict``) are:
    the fields phi reads, the tables compared by value.
    """

    kind: str
    dx: int
    radius: float
    beta: str = "smooth_bump"
    activation: str | None = None
    bandwidth: float = 1.0
    x_grid: np.ndarray | None = None
    w_grid: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "dx", _integer(self.dx, "dx", 1))
        object.__setattr__(self, "radius", _radius(self.radius))
        object.__setattr__(self, "bandwidth", _real(self.bandwidth, "bandwidth", positive=True))
        for name in ("x_grid", "w_grid", "values"):
            if getattr(self, name) is not None or self.kind == "tabulated":
                arr = np.array(_reals(getattr(self, name), name))
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.kind not in KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.beta not in BETAS:
            raise ValueError(f"unknown beta kind {self.beta!r}")
        if self.kind == "neural":
            if self.activation not in ACTIVATIONS:
                raise ValueError(
                    f"neural feature needs an activation from {ACTIVATIONS}"
                )
            if self.beta == "one" and self.activation not in _BOUNDED_ACTIVATIONS:
                raise ValueError(
                    "beta='one' requires a bounded activation "
                    f"({', '.join(_BOUNDED_ACTIVATIONS)})"
                )
        elif self.kind == "tabulated":
            if self.dx != 1:
                raise ValueError("tabulated features are 1-d in x and w")
            xg, wg, vv = self.x_grid, self.w_grid, self.values
            if xg.ndim != 1 or wg.ndim != 1 or len(xg) < 2 or len(wg) < 2:
                raise ValueError("tabulated grids must be 1-d with >= 2 nodes")
            if np.any(np.diff(xg) <= 0) or np.any(np.diff(wg) <= 0):
                raise ValueError("tabulated grids must be strictly increasing")
            if vv.shape != (len(xg), len(wg)):
                raise ValueError(
                    f"value table of shape {vv.shape} does not match grids "
                    f"({len(xg)}, {len(wg)})"
                )
            for name, arr in (("x_grid", xg), ("w_grid", wg), ("values", vv)):
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"tabulated {name} must be finite")

    def __eq__(self, other):
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return self is other or feature_to_json_dict(self) == feature_to_json_dict(other)

    def __hash__(self):  # equal records hold equal kinds, dx and radii
        return hash((self.kind, self.dx, self.radius))

    @property
    def dw(self) -> int:
        if self.kind == "neural":
            return self.dx + 1
        if self.kind == "gaussian":
            return self.dx
        return 1


def beta_values(f: FeatureMap, W: np.ndarray) -> np.ndarray:
    """beta(w) for rows of W, shape (m,)."""
    W = np.asarray(W, dtype=float)
    return _truncation(f, (W * W).sum(axis=1) / (f.radius * f.radius))


def _truncation(f: FeatureMap, r2):
    """beta from r2 = |w|^2 / R^2, elementwise on an array or a scalar."""
    if f.beta == "one":
        return np.ones_like(r2)
    if f.beta == "hard":
        return (r2 <= 1.0).astype(float)
    t = np.maximum(0.0, 1.0 - r2)
    return t * t


def beta_grad(f: FeatureMap, w: np.ndarray) -> np.ndarray:
    """Gradient of beta at a single w (zero for hard and one)."""
    w = np.asarray(w, dtype=float)
    if f.beta != "smooth_bump":
        return np.zeros_like(w)
    t = 1.0 - np.dot(w, w) / (f.radius * f.radius)
    if t <= 0.0:
        return np.zeros_like(w)
    return -4.0 * t * w / (f.radius * f.radius)


def _check_inputs(f: FeatureMap, X: np.ndarray):
    if X.ndim != 2 or X.shape[1] != f.dx:
        raise ValueError(f"inputs must have shape (n, {f.dx}), got {X.shape}")


def _check_weights(f: FeatureMap, W: np.ndarray):
    if W.ndim != 2 or W.shape[1] != f.dw:
        raise ValueError(f"weights must have shape (m, {f.dw}), got {W.shape}")


def _tab_axis(grid: np.ndarray, t: np.ndarray):
    """Bilinear weights along one axis: cell index, fraction, inside mask."""
    idx = np.searchsorted(grid, t, side="right") - 1
    idx = np.clip(idx, 0, len(grid) - 2)
    frac = (t - grid[idx]) / (grid[idx + 1] - grid[idx])
    inside = (t >= grid[0]) & (t <= grid[-1])
    return idx, frac, inside


# Each kind's core, phi before beta, on input and weight operands that broadcast:
# inputs as columns and weights as a row give (n, m), one weight gives a column.
def _neural(f: FeatureMap, X, omega_t, bias):
    """(sigma(<omega, x> + b), the pre-activation) for X and omega^T, b."""
    pre = X @ omega_t + bias
    return _act(f.activation, pre), pre


def _gaussian(f: FeatureMap, X, xx, w_t, ww):
    """exp(-|x - w|^2 / (2 s^2)) from X, W^T and their squared row norms."""
    return np.exp(-np.maximum(xx + ww - 2.0 * (X @ w_t), 0.0) / (2.0 * f.bandwidth**2))


def _tabulated(f: FeatureMap, ix, fx, okx, iw, fw, okw):
    """Bilinear interpolation on the cells of both axes, zero outside the table."""
    V = f.values
    out = ((1 - fx) * (1 - fw) * V[ix, iw] + fx * (1 - fw) * V[ix + 1, iw]
           + (1 - fx) * fw * V[ix, iw + 1] + fx * fw * V[ix + 1, iw + 1])
    out *= okx * okw
    return out


def _bind(f: FeatureMap, W: np.ndarray) -> tuple:
    """``bind_locations`` unchecked and writable; omega^T is the transpose
    of a C-ordered copy, a layout that pickling keeps."""
    if f.kind == "neural":
        ops = (np.ascontiguousarray(W[:, : f.dx]).T, W[:, f.dx].copy())
    elif f.kind == "gaussian":
        ops = (W.T, np.sum(W * W, axis=1))
    else:
        ops = _tab_axis(f.w_grid, W[:, 0])
    return W, beta_values(f, W), ops


def bind_locations(f: FeatureMap, W) -> tuple:
    """What phi reads of the weights W alone, for ``phi_bound``.

    Returns (W, beta(W), operands): W as a float array, and read-only beta(W)
    and weight operands of the kind's core: omega^T and the bias row
    (neural), W^T and the squared row norms (gaussian), or the cells along w
    (tabulated).  Raises ValueError when W is not of shape (m, dw).
    """
    W = np.asarray(W, dtype=float)
    _check_weights(f, W)
    bound = _bind(f, W)
    for part in (bound[1], *bound[2]):
        part.setflags(write=False)
    return bound


def _core(f: FeatureMap, X: np.ndarray, bound: tuple) -> np.ndarray:
    """phi before beta on all pairs of X and the bound locations, (n, m)."""
    if f.kind == "neural":
        return _neural(f, X, *bound[2])[0]
    if f.kind == "gaussian":
        return _gaussian(f, X, np.sum(X * X, axis=1)[:, None], *bound[2])
    return _tabulated(f, *(a[:, None] for a in _tab_axis(f.x_grid, X[:, 0])), *bound[2])


def phi_matrix(f: FeatureMap, X, W) -> np.ndarray:
    """phi evaluated on all pairs: result[i, j] = phi(X[i], W[j])."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    _check_inputs(f, X)
    _check_weights(f, W)
    return phi_bound(f, X, _bind(f, W))


def phi_bound(f: FeatureMap, X, bound: tuple) -> np.ndarray:
    """phi_matrix(f, X, W) for bound = bind_locations(f, W), bitwise; it
    computes only what reads X, after phi_matrix's check of X."""
    X = np.asarray(X, dtype=float)
    _check_inputs(f, X)
    return _core(f, X, bound) * bound[1][None, :]


def _phi_row(f: FeatureMap, X: np.ndarray, bound: tuple) -> np.ndarray:
    """phi_bound(f, X, bound)[0], bitwise, for a checked float row X, (1, dx)."""
    return _core(f, X, bound)[0] * bound[1]


def eval_phi(f: FeatureMap, x, w) -> float:
    """phi at a single (x, w) pair."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return float(phi_matrix(f, x[None, :], w[None, :])[0, 0])


def grad_phi_w_batch(f: FeatureMap, X, w) -> np.ndarray:
    """d phi(x, w) / dw for every row x of X; shape (n, dw).

    Product rule on the truncated feature; the relu kink uses the
    pinned subgradient 0, the hard cutoff contributes no gradient.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    _check_inputs(f, X)
    _check_weights(f, w[None, :])
    value, gradient = feature_column(f, X)
    return gradient(w, value(w)[1])


def feature_column(f: FeatureMap, X):
    """(value, gradient) of phi(X, w) at one float vector w at a time.

    X is checked, and what reads X alone computed, once, and the kind's core
    and derivative are chosen once.  ``value(w)`` returns (phi_matrix(f, X,
    w[None, :])[:, 0], parts), bitwise, with parts the column's core, kept
    part and beta; ``gradient(w, parts)`` is grad_phi_w_batch(f, X, w).
    """
    X = np.asarray(X, dtype=float)
    _check_inputs(f, X)
    r2 = f.radius * f.radius
    if f.kind == "neural":
        aug = np.concatenate([X, np.ones((len(X), 1))], axis=1)  # d pre / dw
        deriv = _ACTIVATIONS[f.activation][1]
        def core(w):
            return _neural(f, X, w[: f.dx], w[f.dx])
        def dcore(w, col, pre):
            return deriv(pre, col)[:, None] * aug
    elif f.kind == "gaussian":
        xx = np.sum(X * X, axis=1)
        def core(w):
            return _gaussian(f, X, xx, w, np.sum(w * w)), None
        def dcore(w, col, _):
            return col[:, None] * (X - w[None, :]) / f.bandwidth**2
    else:  # tabulated: linear in w inside a cell, zero outside the table
        ix, fx, okx = cx = _tab_axis(f.x_grid, X[:, 0])
        V, wg = f.values, f.w_grid
        def core(w):
            cw = _tab_axis(wg, w[:1])
            return _tabulated(f, *cx, *cw), cw
        def dcore(w, col, cw):
            i, okw = cw[0][0], cw[2][0]
            slope = ((1 - fx) * (V[ix, i + 1] - V[ix, i])
                     + fx * (V[ix + 1, i + 1] - V[ix + 1, i])) / (wg[i + 1] - wg[i])
            return (slope * okx * okw)[:, None]

    def value(w):
        col, kept = core(w)
        bv = _truncation(f, (w * w).sum() / r2)
        return col * bv, (col, kept, bv)

    def gradient(w, parts):
        col, kept, bv = parts
        return dcore(w, col, kept) * bv + col[:, None] * beta_grad(f, w)[None, :]

    return value, gradient


# ------------------------------------------------- simple-function pairing

def _cell_masses(measure, grid_per_dim: int):
    """Sum the payloads per grid cell of the box [-R, R]^dim.

    Returns (centers, masses) for the occupied cells, ordered by flat
    cell index so the downstream reduction order is deterministic.
    """
    W, C, R = measure.W, measure.C, measure.radius
    dim = W.shape[1]
    if np.any(np.abs(W) > R + 1e-12):
        raise ValueError("atom outside the declared bounding box")
    width = 2.0 * R / grid_per_dim
    idx = np.clip(((W + R) / width).astype(int), 0, grid_per_dim - 1)
    flat = np.ravel_multi_index(idx.T, (grid_per_dim,) * dim)
    occupied, inverse = np.unique(flat, return_inverse=True)
    masses = np.zeros((len(occupied), C.shape[1]))
    np.add.at(masses, inverse, C)
    multi = np.stack(np.unravel_index(occupied, (grid_per_dim,) * dim), axis=1)
    centers = -R + (multi + 0.5) * width
    return centers, masses


def simple_approx_pairing(f: FeatureMap, rho, mu, grid_per_dim: int) -> float:
    """Pairing against the piecewise-constant phi on a product grid.

    phi is frozen to its value at the (x-cell, w-cell) center pair; the
    pairing is then the double sum of phi_eps times the pairing of the
    cell masses.  Exact when all atoms sit at cell centers; converges to
    the atomic product pairing with error <= sup|phi_eps - phi| * |rho| * |mu|.
    """
    grid_per_dim = _integer(grid_per_dim, "grid_per_dim", 1)
    if not len(rho) or not len(mu):
        return 0.0
    cx, px = _cell_masses(rho, grid_per_dim)
    cw, pw = _cell_masses(mu, grid_per_dim)
    vals = phi_matrix(f, cx, cw)
    gram = px @ pw.T
    # compensated, order-fixed reduction
    return math.fsum((vals * gram).ravel().tolist())


def grid_sup_abs(f: FeatureMap, x, radius: float, sites) -> float:
    """max |phi(x, .)| over the product grid of 9 points per dimension
    on [-radius, radius]^dw, kept inside the weight ball, origin included,
    and over the weight rows ``sites`` (the atoms of a measure), so bounds
    built from this estimate stay ordered, also where grid points whose
    squared norm overflows, near the largest radius, are dropped.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # the filter drops inf and NaN points
        axes = [np.linspace(-radius, radius, 9)] * f.dw
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dw)
        keep = np.sqrt(np.sum(grid * grid, axis=1)) <= radius + 1e-12
    grid = np.concatenate([grid[keep], np.asarray(sites, dtype=float)], axis=0)
    vals = phi_matrix(f, x[None, :], grid)[0]
    return float(np.max(np.abs(vals)))


# ------------------------------------------------------------- serialization

def feature_to_json_dict(f: FeatureMap) -> dict:
    d = {"kind": f.kind}
    if f.kind == "neural":
        d["activation"] = f.activation
    d["dx"] = f.dx
    d["radius"] = f.radius
    d["beta"] = f.beta
    if f.kind == "gaussian":
        d["bandwidth"] = f.bandwidth
    if f.kind == "tabulated":
        d.update(x_grid=f.x_grid.tolist(), w_grid=f.w_grid.tolist(), values=f.values.tolist())
    return d


def feature_from_json_dict(d: dict) -> FeatureMap:
    """The feature of a record, whose keys are FeatureMap's fields; a key
    the record does not hold takes FeatureMap's default."""
    try:
        return FeatureMap(**{f.name: d[f.name] for f in fields(FeatureMap) if f.name in d})
    except TypeError as exc:  # a record that is not an object, or lacks a key
        raise ValueError(f"malformed feature record: {exc}") from exc
