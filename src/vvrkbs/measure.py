"""Finitely atomic vector measures.

A measure here is a finite sum of point masses mu = sum_m delta_{w_m} c_m
with locations w_m in a Euclidean ball of declared radius and vector
payloads c_m in R^d.  Everything a general vector measure contributes to
the pairing theory survives in closed form on atoms:

* total variation |mu|(Omega) = sum_k ||c_k||  over coalesced atoms
  (atoms at the same location merged by summing payloads);
* the integration operator (A mu)(x) = sum_m phi(x, w_m) c_m;
* the product pairing of a dual-side measure rho = sum_i delta_{x_i} cd_i
  against mu,

      <g, f> = sum_i sum_j phi(x_i, w_j) <cd_i, c_j>,

  which is bounded by sup|phi| * |rho| * |mu|.

A measure is two arrays, the stacked locations W (n, dw) and payloads
C (n, d), checked once and read-only after construction; all operations
return new measures.  The payload norm is the primal norm of the
measure's own ``space``; a dual-side measure simply carries the
conjugate spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_pair import DualPairSpec, _radius, _reals, row_norms
from .feature import phi_matrix

MERGE_TOL = 1e-9   # linf distance on w below which atoms are merged
PRUNE_TOL = 1e-10  # payload norm below which an atom is dropped


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _check_ball(points: np.ndarray, radius: float, what: str):
    norms = np.sqrt(np.sum(points * points, axis=1))
    if np.any(norms > radius * (1 + 1e-9) + 1e-12):
        raise ValueError(f"{what} must lie in the radius-{radius} ball")


def _check_grid(points, width: int, radius: float, what: str) -> np.ndarray:
    """``points`` as a non-empty (n, width) float array of finite rows inside
    the radius ball; the ValueError names the first fault found."""
    G = np.atleast_2d(_reals(points, what))
    if G.ndim != 2 or G.shape[1] != width or not len(G):
        raise ValueError(f"{what} must be a non-empty (n, {width}) array, got shape {G.shape}")
    if not np.isfinite(G).all():
        raise ValueError(f"{what} must be finite")
    _check_ball(G, radius, what)
    return G


@dataclass(frozen=True)
class AtomicVectorMeasure:
    """mu = sum_m delta_{W[m]} C[m], with payloads in ``space``.

    ``W`` holds the locations and ``C`` the payloads, read-only and
    C-ordered, with shapes (n, dw) and (n, space.dim); an empty measure
    may come as empty lists.  ``radius`` declares the Euclidean ball
    containing all locations; construction rejects a location outside it
    (tiny slack for roundoff), and a string, boolean or None anywhere in the
    radius or the arrays (``_radius``, ``_reals``).
    """

    W: np.ndarray
    C: np.ndarray
    space: DualPairSpec
    radius: float

    def __post_init__(self):
        radius = _radius(self.radius)
        # a fixed layout, so matrix products do not round by the caller's
        W = np.array(_reals(self.W, "atom locations"), order="C")
        C = np.array(_reals(self.C, "payloads"), order="C")
        if W.shape == (0,):  # an empty measure may come as empty lists
            W = W.reshape(0, 0)
        if C.shape == (0,):
            C = C.reshape(0, self.space.dim)
        if W.ndim != 2:
            raise ValueError(f"locations W must be 2-d, got shape {W.shape}")
        if C.shape != (len(W), self.space.dim):
            raise ValueError(
                f"payloads C have shape {C.shape}, expected ({len(W)}, {self.space.dim})"
            )
        if not (np.isfinite(W).all() and np.isfinite(C).all()):
            raise ValueError("atoms must have finite entries")
        _check_ball(W, radius, "atom locations")
        W.setflags(write=False)
        C.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "radius", radius)

    def __len__(self):
        return len(self.W)


def measure_from_arrays(W, C, space: DualPairSpec, radius: float) -> AtomicVectorMeasure:
    return AtomicVectorMeasure(W, C, space, radius)


def empty_measure(space: DualPairSpec, radius: float) -> AtomicVectorMeasure:
    return AtomicVectorMeasure([], [], space, radius)


def _group_by_location(points, tol: float = MERGE_TOL) -> list:
    """Group the rows of ``points`` by max-norm distance to a group's first row.

    Each row joins the earliest group whose first row lies within ``tol``,
    otherwise it opens a new one.  Returns index lists in order of first
    occurrence.  The rows are finite, so an exact copy of an earlier row
    joins that row's group without a scan.
    """
    points = np.asarray(points, dtype=float)
    groups, seen = [], {}  # row bytes -> group of its first copy
    reps = np.empty_like(points)
    for i, p in enumerate(points):
        key = p.tobytes()
        if key not in seen:
            dists = np.max(np.abs(reps[: len(groups)] - p), axis=1)
            hits = np.flatnonzero(dists <= tol)
            seen[key] = hits[0] if len(hits) else len(groups)
            if not len(hits):
                reps[len(groups)] = p
                groups.append([])
        groups[seen[key]].append(i)
    return groups


def _coalesce_rows(W, C, norm: str, tol=MERGE_TOL, prune_tol=PRUNE_TOL):
    """``coalesce`` on stacked locations W and payloads C; returns (W, C)."""
    groups = _group_by_location(W, tol)
    sums = np.array([sum(C[g[1:]], C[g[0]]) for g in groups]).reshape(-1, C.shape[1])
    keep = row_norms(sums, norm) >= prune_tol
    reps = W[np.array([g[0] for g in groups], dtype=int)]
    return reps[keep], sums[keep]


def coalesce(
    mu: AtomicVectorMeasure,
    tol: float = MERGE_TOL,
    prune_tol: float = PRUNE_TOL,
) -> AtomicVectorMeasure:
    """Merge atoms whose locations agree to ``tol`` in linf, then prune.

    Merging sums payloads; pruning drops atoms with payload norm below
    ``prune_tol``.  The first occurrence fixes the representative
    location, so the output order follows the input order.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    W, C = _coalesce_rows(mu.W, mu.C, mu.space.primal_norm, tol, prune_tol)
    return AtomicVectorMeasure(W, C, mu.space, mu.radius)


def total_variation(mu: AtomicVectorMeasure) -> float:
    """|mu|(Omega) = sum of payload norms over coalesced atoms."""
    norm = mu.space.primal_norm
    return float(sum(row_norms(_coalesce_rows(mu.W, mu.C, norm)[1], norm).tolist()))


def integrate(phi, mu: AtomicVectorMeasure, x) -> np.ndarray:
    """(A mu)(x) = sum_m phi(x, w_m) c_m."""
    x = np.asarray(x, dtype=float)
    if not len(mu):
        return np.zeros(mu.space.dim)
    vals = phi_matrix(phi, x[None, :], mu.W)[0]  # (n_atoms,)
    return vals @ mu.C


def product_pairing(rho: AtomicVectorMeasure, mu: AtomicVectorMeasure, phi) -> float:
    """<g, f> = sum_i sum_j phi(x_i, w_j) <cd_i, c_j>.

    ``rho`` is the dual-side measure (payloads in U_dual, locations in
    the input domain); ``mu`` the primal one.  Their specs must be
    conjugate to each other.
    """
    if rho.space.dim != mu.space.dim:
        raise ValueError("payload dimensions differ")
    if rho.space.primal_norm != mu.space.dual_norm:
        raise ValueError(
            "dual-side measure must carry the conjugate norm of the primal one"
        )
    if not len(rho) or not len(mu):
        return 0.0
    vals = phi_matrix(phi, rho.W, mu.W)  # (n_rho, n_mu)
    gram = rho.C @ mu.C.T                # <cd_i, c_j>
    return float(np.sum(vals * gram))


# ------------------------------------------------------------- serialization

def measure_to_json_dict(mu: AtomicVectorMeasure) -> dict:
    """Plain-dict form with fixed key order: atoms, norm, radius."""
    return {
        "atoms": [{"w": w, "c": c} for w, c in zip(mu.W.tolist(), mu.C.tolist())],
        "norm": mu.space.primal_norm,
        "radius": float(mu.radius),
    }


def measure_from_json_dict(d: dict) -> AtomicVectorMeasure:
    try:
        norm = d["norm"]
        radius = d["radius"]
        W, C = ([a[k] for a in d["atoms"]] for k in ("w", "c"))
        shape = np.shape(C)
        dim = d.get("dim", shape[1] if len(shape) == 2 else 1)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed measure record: {exc}") from exc
    return AtomicVectorMeasure(W, C, DualPairSpec(dim, norm), radius)
