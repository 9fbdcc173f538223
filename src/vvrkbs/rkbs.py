"""Space-level operations on integral-RKBS functions.

An ``RkbsFunction`` wraps an atomic measure and a feature into the
function it integrates to: f(x) = sum_m phi(x, w_m) c_m.  The adjoint
side lives in the same type with the feature slots swapped: a dual-side
measure rho = sum_i delta_{x_i} cd_i integrates to g(w) = sum_i
phi(x_i, w) cd_i.

The function norm of the underlying space is an infimum over all
representing measures and is not computable exactly; it is reported as
a bracket:

* upper bound: total variation of the coalesced representing measure;
* lower bound: the pairing against explicit dual certificates
  g = phi(x, .) u_dual, normalized by an estimate of sup_w |phi(x, w)|
  that always includes the atom sites (so the bracket is ordered by
  construction, not by grid luck).

``rkhs_fit`` is the Hilbert-space baseline the sparse solver is
contrasted with: kernel ridge regression for the operator-valued kernel
K_s(x, y) * Id, which decouples into d scalar ridge problems sharing
one Gram matrix.  ``verify_reproducing`` batch-checks the reproducing
identities that make these spaces reproducing-kernel spaces at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dual_pair import (
    DualPairSpec,
    conjugate,
    pair,
    primal_norm_value,
)
from .feature import FeatureMap, grid_sup_abs, phi_matrix
from .measure import (
    AtomicVectorMeasure,
    integrate,
    measure_from_arrays,
    product_pairing,
    total_variation,
)


@dataclass(frozen=True)
class RkbsFunction:
    """f = integral of phi against ``measure`` (or g, if ``adjoint``).

    For ``adjoint=True`` the atom locations are input-domain points and
    evaluation plugs the argument into the second feature slot.
    """

    measure: AtomicVectorMeasure
    feature: FeatureMap
    spec: DualPairSpec
    adjoint: bool = False


def evaluate(f: RkbsFunction, point) -> np.ndarray:
    """f(x) (primal side) or g(w) (adjoint side)."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    mu = f.measure
    if not f.adjoint:
        return integrate(f.feature, mu, point)
    if not mu.atoms:
        return np.zeros(mu.space.dim)
    vals = phi_matrix(f.feature, mu.locations(), point[None, :])[:, 0]
    return vals @ mu.payloads()


def b_norm_upper(f: RkbsFunction) -> float:
    """Total variation of the coalesced representing measure."""
    return total_variation(f.measure)


def b_norm_lower(f: RkbsFunction, probe_xs, sup_grid_per_dim: int = 9) -> float:
    """Best dual-certificate value: a certified lower bound for the norm.

    For each probe x the certificate g = phi(x, .) u_dual with the dual
    witness of f(x) pairs to ||f(x)||_primal; dividing by the estimated
    certificate norm sup_w |phi(x, w)| (atom sites included) gives a
    value that never exceeds the representative total variation.
    """
    probe_xs = np.atleast_2d(np.asarray(probe_xs, dtype=float))
    if len(probe_xs) == 0:
        raise ValueError("probe set must be non-empty")
    if f.adjoint:
        raise ValueError("lower bound is defined for primal-side functions")
    mu = f.measure
    if not mu.atoms:
        return 0.0
    best = 0.0
    sites = mu.locations()
    for x in probe_xs:
        val = primal_norm_value(f.spec, evaluate(f, x))
        sup = grid_sup_abs(f.feature, x, mu.radius, sup_grid_per_dim, extra_ws=sites)
        if sup > 1e-300:
            best = max(best, val / sup)
    return best


# --------------------------------------------------------- reproducing check

@dataclass(frozen=True)
class ReproducingReport:
    max_rel_error: float
    trials: int
    passed: bool


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def verify_reproducing(
    f: RkbsFunction, trials: int, seed: int, tol: float = 1e-10,
    corruption: float = 0.0,
) -> ReproducingReport:
    """Check the reproducing identity of f's side plus the three-way pairing.

    Per trial, for a primal-side f with measure mu and a freshly drawn
    dual-side measure rho (and symmetrically for an adjoint-side g):

    * <u_dual, f(x)> equals the pairing of delta_x u_dual against mu
      (point evaluation is reproduced by the kernel section at x);
    * the double-sum pairing of (rho, mu) equals both single-sum
      reductions: through f at the rho atoms and through g at the mu
      atoms.

    ``corruption`` is a test hook: it is added to the evaluation side of
    the first identity so negative controls can watch the check fail.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    spec = f.spec
    feat = f.feature
    dx = feat.dx
    if f.adjoint:
        rho = f.measure
    else:
        mu = f.measure
    worst = 0.0
    for _ in range(trials):
        n_other = int(rng.integers(1, 4))
        if f.adjoint:
            # draw a primal-side partner measure
            Wo = rng.uniform(-feat.radius, feat.radius, (n_other, feat.dw))
            Wo /= np.sqrt(feat.dw)
            Co = rng.standard_normal((n_other, spec.dim))
            mu = measure_from_arrays(Wo, Co, spec, radius=feat.radius)
            w = rng.uniform(-feat.radius, feat.radius, feat.dw) / np.sqrt(feat.dw)
            u = rng.standard_normal(spec.dim)
            lhs = pair(spec, evaluate(f, w), u) + corruption
            delta_w = measure_from_arrays([w], [u], spec, radius=feat.radius)
            worst = max(worst, _rel(lhs, product_pairing(rho, delta_w, feat)))
            g = f
        else:
            # draw a dual-side partner measure
            xs = rng.uniform(-1.0, 1.0, (n_other, dx))
            cds = rng.standard_normal((n_other, spec.dim))
            rho = measure_from_arrays(
                xs, cds, conjugate(spec), radius=float(np.sqrt(dx))
            )
            x = rng.uniform(-1.0, 1.0, dx)
            u_dual = rng.standard_normal(spec.dim)
            lhs = pair(spec, u_dual, evaluate(f, x)) + corruption
            delta_x = measure_from_arrays(
                [x], [u_dual], conjugate(spec),
                radius=max(1.0, float(np.linalg.norm(x))),
            )
            worst = max(worst, _rel(lhs, product_pairing(delta_x, mu, feat)))
            g = RkbsFunction(rho, feat, spec, adjoint=True)

        fn = f if not f.adjoint else RkbsFunction(mu, feat, spec)
        double = product_pairing(rho, mu, feat)
        via_f = sum(pair(spec, a.c, evaluate(fn, a.w)) for a in rho.atoms)
        via_g = sum(pair(spec, evaluate(g, a.w), a.c) for a in mu.atoms)
        worst = max(worst, _rel(double, via_f), _rel(double, via_g))
    return ReproducingReport(worst, trials, worst <= tol)


# ------------------------------------------------------------ vv-RKHS ridge

@dataclass(frozen=True)
class GaussianKernel:
    """K(x, y) = exp(-||x - y||^2 / (2 s^2)); the canonical scalar kernel."""

    bandwidth: float = 1.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def pairwise(self, A, B) -> np.ndarray:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        d2 = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * self.bandwidth**2))


@dataclass(frozen=True)
class TabulatedKernel:
    """Scalar kernel looked up from a feature table over X x X."""

    feature: FeatureMap

    def __post_init__(self):
        if self.feature.kind != "tabulated":
            raise ValueError("TabulatedKernel wraps a tabulated feature")

    def pairwise(self, A, B) -> np.ndarray:
        return phi_matrix(self.feature, np.atleast_2d(A), np.atleast_2d(B))


@dataclass(frozen=True)
class RkhsModel:
    """Kernel-ridge predictor x -> sum_n K(x, x_n) u_n."""

    centers: np.ndarray
    coeffs: np.ndarray
    kernel: object

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        coeffs = np.array(self.coeffs, dtype=float)
        centers.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)


def rkhs_fit(X, Y, kernel, lam: float) -> RkhsModel:
    """Solve (G + N lam I) C = Y for the coefficient rows u_n.

    This is the normal equation of ridge regression in the space with
    operator-valued kernel K_s * Id; one SPD factorization serves all d
    output components.  At lam = 0 a 1e-12 jitter keeps the Cholesky
    factorization alive on badly conditioned but invertible Grams;
    duplicated centers make the system genuinely singular, so they are
    rejected up front rather than papered over by the jitter.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if len(X) != len(Y):
        raise ValueError("inputs and targets differ in length")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = len(X)
    if lam == 0 and n > 1:
        diffs = X[:, None, :] - X[None, :, :]
        dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
        dists[np.diag_indices(n)] = np.inf
        if np.min(dists) <= 1e-12:
            raise np.linalg.LinAlgError(
                "Gram system is singular: duplicate centers at lam=0"
            )
    G = kernel.pairwise(X, X)
    ridge = n * lam if lam > 0 else 1e-12
    try:
        factor = cho_factor(G + ridge * np.eye(n), lower=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Gram system is singular (duplicate centers at lam={lam}?)"
        ) from exc
    C = cho_solve(factor, Y)
    return RkhsModel(X, C, kernel)


def rkhs_predict(model: RkhsModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return model.kernel.pairwise(X, model.centers) @ model.coeffs


def rkhs_stationarity(model: RkhsModel, Y, lam: float) -> float:
    """max-abs residual of the fitted normal equations (0 at optimum)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = len(model.centers)
    G = model.kernel.pairwise(model.centers, model.centers)
    ridge = n * lam if lam > 0 else 1e-12
    R = (G + ridge * np.eye(n)) @ model.coeffs - Y
    return float(np.max(np.abs(R)))

