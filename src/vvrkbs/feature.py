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

``simple_approx_pairing`` is the verification route for the pairing: it
replaces phi by the piecewise-constant function taking phi's value at
the centers of a product grid of cells and pairs the cell masses of the
two measures directly.  As the grid refines the value converges to
``measure.product_pairing`` with error bounded by the sup deviation of
the approximation times the product of total variations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


KINDS = ("neural", "gaussian", "tabulated")
ACTIVATIONS = ("relu", "tanh", "sigmoid", "gaussian_rbf")
BETAS = ("smooth_bump", "hard", "one")
_BOUNDED_ACTIVATIONS = ("tanh", "sigmoid", "gaussian_rbf")


def activation_values(name: str, t) -> np.ndarray:
    """Apply the named scalar activation elementwise."""
    return _act(name, np.asarray(t, dtype=float))


def _act(name: str, t: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(t, 0.0)
    if name == "tanh":
        return np.tanh(t)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-t))
    if name == "gaussian_rbf":
        return np.exp(-t * t)
    raise ValueError(f"unknown activation {name!r}")


def _act_deriv(name: str, t: np.ndarray) -> np.ndarray:
    # relu derivative at the kink (t == 0) is pinned to 0 for determinism
    if name == "relu":
        return (t > 0.0).astype(float)
    if name == "tanh":
        th = np.tanh(t)
        return 1.0 - th * th
    if name == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-t))
        return s * (1.0 - s)
    if name == "gaussian_rbf":
        return -2.0 * t * np.exp(-t * t)
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class FeatureMap:
    """Evaluable scalar feature with its truncation and weight ball.

    ``dx`` is the input dimension, ``dw`` the weight dimension (derived:
    dx+1 for neural, dx for gaussian, 1 for tabulated), ``radius`` the
    Euclidean weight ball.  ``bandwidth`` applies to the gaussian kind;
    ``x_grid``/``w_grid``/``values`` to the tabulated kind.
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.beta not in BETAS:
            raise ValueError(f"unknown beta kind {self.beta!r}")
        if self.dx < 1:
            raise ValueError("dx must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
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
        elif self.kind == "gaussian":
            if self.bandwidth <= 0:
                raise ValueError("gaussian bandwidth must be positive")
        else:  # tabulated
            if self.dx != 1:
                raise ValueError("tabulated features are 1-d in x and w")
            xg = np.asarray(self.x_grid, dtype=float)
            wg = np.asarray(self.w_grid, dtype=float)
            vv = np.asarray(self.values, dtype=float)
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
                arr = arr.copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

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
    if f.beta == "one":
        return np.ones(len(W))
    r2 = np.sum(W * W, axis=1) / (f.radius * f.radius)
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


def _check_points(f: FeatureMap, X: np.ndarray, W: np.ndarray):
    if X.ndim != 2 or X.shape[1] != f.dx:
        raise ValueError(f"inputs must have shape (n, {f.dx}), got {X.shape}")
    if W.ndim != 2 or W.shape[1] != f.dw:
        raise ValueError(f"weights must have shape (m, {f.dw}), got {W.shape}")


def _tab_axis(grid: np.ndarray, t: np.ndarray):
    """Bilinear weights along one axis: cell index, fraction, inside mask."""
    idx = np.searchsorted(grid, t, side="right") - 1
    idx = np.clip(idx, 0, len(grid) - 2)
    frac = (t - grid[idx]) / (grid[idx + 1] - grid[idx])
    inside = (t >= grid[0]) & (t <= grid[-1])
    return idx, frac, inside


def phi_matrix(f: FeatureMap, X, W) -> np.ndarray:
    """phi evaluated on all pairs: result[i, j] = phi(X[i], W[j])."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    _check_points(f, X, W)
    if X.size == 0 or W.size == 0:
        return np.zeros((len(X), len(W)))
    if f.kind == "neural":
        omega = W[:, : f.dx]
        b = W[:, f.dx]
        pre = X @ omega.T + b[None, :]
        return _act(f.activation, pre) * beta_values(f, W)[None, :]
    if f.kind == "gaussian":
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(W * W, axis=1)[None, :]
            - 2.0 * (X @ W.T)
        )
        core = np.exp(-np.maximum(d2, 0.0) / (2.0 * f.bandwidth**2))
        return core * beta_values(f, W)[None, :]
    # tabulated, bilinear with zero extension outside the table
    ix, fx, okx = _tab_axis(f.x_grid, X[:, 0])
    iw, fw, okw = _tab_axis(f.w_grid, W[:, 0])
    V = f.values
    v00 = V[np.ix_(ix, iw)]
    v10 = V[np.ix_(ix + 1, iw)]
    v01 = V[np.ix_(ix, iw + 1)]
    v11 = V[np.ix_(ix + 1, iw + 1)]
    gx = fx[:, None]
    gw = fw[None, :]
    out = (
        (1 - gx) * (1 - gw) * v00
        + gx * (1 - gw) * v10
        + (1 - gx) * gw * v01
        + gx * gw * v11
    )
    out *= okx[:, None] * okw[None, :]
    return out * beta_values(f, W)[None, :]


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
    _check_points(f, X, w[None, :])
    bv = beta_values(f, w[None, :])[0]
    bg = beta_grad(f, w)
    if f.kind == "neural":
        omega = w[: f.dx]
        b = w[f.dx]
        pre = X @ omega + b
        core = _act(f.activation, pre)
        dcore = _act_deriv(f.activation, pre)
        aug = np.concatenate([X, np.ones((len(X), 1))], axis=1)  # d pre / dw
        return dcore[:, None] * aug * bv + core[:, None] * bg[None, :]
    if f.kind == "gaussian":
        diff = X - w[None, :]
        core = np.exp(-np.sum(diff * diff, axis=1) / (2.0 * f.bandwidth**2))
        dcore = core[:, None] * diff / f.bandwidth**2
        return dcore * bv + core[:, None] * bg[None, :]
    # tabulated: piecewise-linear in w inside each cell, zero outside
    ix, fx, okx = _tab_axis(f.x_grid, X[:, 0])
    iw, fw, okw = _tab_axis(f.w_grid, np.array([w[0]]))
    V = f.values
    dw_cell = f.w_grid[iw[0] + 1] - f.w_grid[iw[0]]
    slope = (
        (1 - fx) * (V[ix, iw[0] + 1] - V[ix, iw[0]])
        + fx * (V[ix + 1, iw[0] + 1] - V[ix + 1, iw[0]])
    ) / dw_cell
    slope = slope * okx * okw[0]
    # value itself, for the beta product rule
    val = phi_matrix(f, X, w[None, :])[:, 0]
    if bv != 0.0:
        core_val = val / bv
    else:
        core_val = np.zeros(len(X))
    return (slope * bv + core_val * bg[0])[:, None]


def grad_phi_w(f: FeatureMap, x, w) -> np.ndarray:
    """d phi / dw at one (x, w); vector of length dw."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return grad_phi_w_batch(f, x[None, :], np.asarray(w, dtype=float))[0]


# ------------------------------------------------- simple-function pairing

def _cell_masses(measure, grid_per_dim: int):
    """Sum the payloads per grid cell of the box [-R, R]^dim.

    Returns (centers, masses) for the occupied cells, ordered by flat
    cell index so the downstream reduction order is deterministic.
    """
    W = measure.locations()
    C = measure.payloads()
    R = measure.radius
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
    if grid_per_dim < 1:
        raise ValueError("grid_per_dim must be >= 1")
    if not rho.atoms or not mu.atoms:
        return 0.0
    cx, px = _cell_masses(rho, grid_per_dim)
    cw, pw = _cell_masses(mu, grid_per_dim)
    vals = phi_matrix(f, cx, cw)
    gram = px @ pw.T
    # compensated, order-fixed reduction
    return math.fsum((vals * gram).ravel().tolist())


def grid_sup_abs(
    f: FeatureMap, x, radius: float, per_dim: int = 9, extra_ws=None
) -> float:
    """max |phi(x, .)| over a product grid of the weight ball.

    ``extra_ws`` lets callers include specific weight sites (e.g. the
    atoms of a measure) so bounds built from this estimate stay ordered.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    axes = [np.linspace(-radius, radius, per_dim)] * f.dw
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dw)
    keep = np.sqrt(np.sum(grid * grid, axis=1)) <= radius + 1e-12
    grid = grid[keep]
    if extra_ws is not None and len(extra_ws):
        grid = np.concatenate([grid, np.asarray(extra_ws, dtype=float)], axis=0)
    if len(grid) == 0:
        return 0.0
    vals = phi_matrix(f, x[None, :], grid)[0]
    return float(np.max(np.abs(vals)))


# ------------------------------------------------------------- serialization

def feature_to_json_dict(f: FeatureMap) -> dict:
    d = {"kind": f.kind}
    if f.kind == "neural":
        d["activation"] = f.activation
    d["dx"] = int(f.dx)
    d["radius"] = float(f.radius)
    d["beta"] = f.beta
    if f.kind == "gaussian":
        d["bandwidth"] = float(f.bandwidth)
    if f.kind == "tabulated":
        d["x_grid"] = [float(v) for v in f.x_grid]
        d["w_grid"] = [float(v) for v in f.w_grid]
        d["values"] = [[float(v) for v in row] for row in f.values]
    return d


def feature_from_json_dict(d: dict) -> FeatureMap:
    try:
        kind = d["kind"]
        dx = int(d["dx"])
        radius = float(d["radius"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed feature record: {exc}") from exc
    return FeatureMap(
        kind=kind,
        dx=dx,
        radius=radius,
        beta=d.get("beta", "smooth_bump"),
        activation=d.get("activation"),
        bandwidth=float(d.get("bandwidth", 1.0)),
        x_grid=d.get("x_grid"),
        w_grid=d.get("w_grid"),
        values=d.get("values"),
    )
