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

Values are immutable after construction; all operations return new
measures.  The payload norm is the primal norm of the measure's own
``space``; a dual-side measure simply carries the conjugate spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_pair import DualPairSpec, row_norms
from .feature import phi_matrix

MERGE_TOL = 1e-9   # linf distance on w below which atoms are merged
PRUNE_TOL = 1e-10  # payload norm below which an atom is dropped


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Atom:
    """One point mass: location ``w`` and vector payload ``c`` (= a*u)."""

    w: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        w = _frozen(self.w)
        c = _frozen(self.c)
        if w.ndim != 1 or c.ndim != 1:
            raise ValueError("atom location and payload must be 1-d vectors")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(c))):
            raise ValueError("atom contains non-finite entries")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class AtomicVectorMeasure:
    """Ordered list of atoms + the dual-pair spec of the payload space.

    ``radius`` declares the Euclidean ball containing all locations;
    construction rejects atoms outside it (tiny slack for roundoff).
    """

    atoms: tuple
    space: DualPairSpec
    radius: float

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        dw = None
        for a in atoms:
            if not isinstance(a, Atom):
                a = Atom(*a)
            if a.c.shape != (self.space.dim,):
                raise ValueError(
                    f"payload of shape {a.c.shape} does not match space "
                    f"dim {self.space.dim}"
                )
            if dw is None:
                dw = a.w.shape[0]
            elif a.w.shape[0] != dw:
                raise ValueError("atoms live in different weight dimensions")
            if np.sqrt(np.dot(a.w, a.w)) > self.radius * (1 + 1e-9) + 1e-12:
                raise ValueError(
                    f"atom at {a.w} lies outside the declared radius {self.radius}"
                )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "radius", float(self.radius))

    def __len__(self):
        return len(self.atoms)

    def locations(self) -> np.ndarray:
        """Atom locations stacked as a (n_atoms, dw) array."""
        if not self.atoms:
            return np.zeros((0, 0))
        return np.stack([a.w for a in self.atoms])

    def payloads(self) -> np.ndarray:
        """Atom payloads stacked as a (n_atoms, d) array."""
        if not self.atoms:
            return np.zeros((0, self.space.dim))
        return np.stack([a.c for a in self.atoms])


def measure_from_arrays(W, C, space: DualPairSpec, radius: float) -> AtomicVectorMeasure:
    W = np.asarray(W, dtype=float)
    C = np.asarray(C, dtype=float)
    if len(W) != len(C):
        raise ValueError("location and payload counts differ")
    atoms = tuple(Atom(w, c) for w, c in zip(W, C))
    return AtomicVectorMeasure(atoms, space, radius)


def empty_measure(space: DualPairSpec, radius: float) -> AtomicVectorMeasure:
    return AtomicVectorMeasure((), space, radius)


def scale(mu: AtomicVectorMeasure, alpha: float) -> AtomicVectorMeasure:
    atoms = tuple(Atom(a.w, alpha * a.c) for a in mu.atoms)
    return AtomicVectorMeasure(atoms, mu.space, mu.radius)


def add(mu1: AtomicVectorMeasure, mu2: AtomicVectorMeasure) -> AtomicVectorMeasure:
    """Concatenation of atom lists (no merging; coalesce separately)."""
    if mu1.space != mu2.space:
        raise ValueError("measures live on different payload spaces")
    radius = max(mu1.radius, mu2.radius)
    return AtomicVectorMeasure(mu1.atoms + mu2.atoms, mu1.space, radius)


def _group_by_location(points, tol: float = MERGE_TOL) -> list:
    """Group the rows of ``points`` by max-norm distance to a group's first row.

    Each row joins the earliest group whose first row lies within ``tol``,
    otherwise it opens a new one.  Returns index lists in order of first
    occurrence.
    """
    points = np.asarray(points, dtype=float)
    groups = []
    reps = np.empty_like(points)
    for i, p in enumerate(points):
        dists = np.max(np.abs(reps[: len(groups)] - p), axis=1)
        hits = np.flatnonzero(dists <= tol)
        if len(hits):
            groups[hits[0]].append(i)
        else:
            reps[len(groups)] = p
            groups.append([i])
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
    W, C = _coalesce_rows(
        mu.locations(), mu.payloads(), mu.space.primal_norm, tol, prune_tol
    )
    atoms = tuple(Atom(w, c) for w, c in zip(W, C))
    return AtomicVectorMeasure(atoms, mu.space, mu.radius)


def total_variation(
    mu: AtomicVectorMeasure,
    tol: float = MERGE_TOL,
    prune_tol: float = PRUNE_TOL,
) -> float:
    """|mu|(Omega) = sum of payload norms over coalesced atoms."""
    merged = coalesce(mu, tol, prune_tol)
    return float(sum(row_norms(merged.payloads(), mu.space.primal_norm).tolist()))


def integrate(phi, mu: AtomicVectorMeasure, x) -> np.ndarray:
    """(A mu)(x) = sum_m phi(x, w_m) c_m."""
    x = np.asarray(x, dtype=float)
    if not mu.atoms:
        return np.zeros(mu.space.dim)
    vals = phi_matrix(phi, x[None, :], mu.locations())[0]  # (n_atoms,)
    return vals @ mu.payloads()


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
    if not rho.atoms or not mu.atoms:
        return 0.0
    vals = phi_matrix(phi, rho.locations(), mu.locations())  # (n_rho, n_mu)
    gram = rho.payloads() @ mu.payloads().T                  # <cd_i, c_j>
    return float(np.sum(vals * gram))


# ------------------------------------------------------------- serialization

def measure_to_json_dict(mu: AtomicVectorMeasure) -> dict:
    """Plain-dict form with fixed key order: atoms, norm, radius."""
    return {
        "atoms": [
            {"w": [float(v) for v in a.w], "c": [float(v) for v in a.c]}
            for a in mu.atoms
        ],
        "norm": mu.space.primal_norm,
        "radius": float(mu.radius),
    }


def measure_from_json_dict(d: dict) -> AtomicVectorMeasure:
    try:
        raw = d["atoms"]
        norm = d["norm"]
        radius = float(d["radius"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measure record: {exc}") from exc
    atoms = tuple(Atom(np.asarray(a["w"], float), np.asarray(a["c"], float)) for a in raw)
    dim = atoms[0].c.shape[0] if atoms else 1
    if "dim" in d:
        dim = int(d["dim"])
    return AtomicVectorMeasure(atoms, DualPairSpec(dim, norm), radius)
