"""Finite-dimensional dual pairs and twin operators.

A dual pair here is (R^d, ||.||_p) together with its conjugate space
(R^d, ||.||_q), 1/p + 1/q = 1, linked by the dot-product pairing
<u_dual, u> = sum_i u_dual[i] * u[i].  The supported norms are the
conjugate combinations l1 <-> linf and l2 <-> l2, for which the pairing
is norming with constant C = 1:

    ||u||_primal = sup { <u_dual, u> : ||u_dual||_dual <= 1 }

and symmetrically for the dual norm.  Both suprema are attained by
explicit witnesses (sign patterns for l1/linf, the normalized vector for
l2), which is what makes the identities testable in exact-ish arithmetic.

A twin operator is a bounded bilinear form T(u_dual, u) = u_dual^T M u.
It induces a linear map on each factor (M and M^T) and its bilinear norm

    ||T|| = sup { |T(u_dual, u)| : ||u_dual||_dual <= 1, ||u||_primal <= 1 }

coincides with the induced operator norm of M (primal -> primal) and of
M^T (dual -> dual).  For the norms supported here those are closed
forms: spectral norm for l2, max column / row absolute sum for l1 / linf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

L1 = "l1"
L2 = "l2"
LINF = "linf"

_NORMS = (L1, L2, LINF)
_CONJUGATE = {L1: LINF, L2: L2, LINF: L1}
_NOT_NUMBERS = (str, bytes, bool, np.bool_, type(None))


def _integer(value, what: str, low: int) -> int:
    """``value`` as an int >= ``low`` if it is an int or an integral float;
    anything else raises ValueError, TypeError or OverflowError naming
    ``what``, so nothing truncates."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError) as exc:  # None, a string, NaN, infinity
        raise type(exc)(f"{what} must be an integer, got {value!r}") from None
    if n != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if n < low:
        raise ValueError(f"{what} must be >= {low}, got {n}")
    return n


def _real(value, what: str, positive: bool = False) -> float:
    """``value`` as a float, finite and positive if ``positive``; a string,
    a boolean or None raises TypeError, so nothing is parsed or read as 0
    or 1."""
    if isinstance(value, _NOT_NUMBERS):
        raise TypeError(f"{what} must be a number, got {value!r}")
    x = float(value)
    if positive and not 0 < x < math.inf:
        raise ValueError(f"{what} must be finite and positive, got {x}")
    return x


def _reals(value, what: str) -> np.ndarray:
    """``value`` as a float array; a string, a boolean or None at any depth
    raises TypeError.  A float ndarray passes on its dtype alone."""
    def bad(v):
        if isinstance(v, np.ndarray) and v.dtype != float:
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return any(map(bad, v))
        return isinstance(v, _NOT_NUMBERS)

    if bad(value):
        raise TypeError(f"{what} must hold numbers only")
    return np.asarray(value, dtype=float)


def conjugate_norm(norm: str) -> str:
    """Conjugate exponent norm: l1 <-> linf, l2 <-> l2."""
    if norm not in _CONJUGATE:
        raise ValueError(f"unknown norm {norm!r}; expected one of {_NORMS}")
    return _CONJUGATE[norm]


@dataclass(frozen=True)
class DualPairSpec:
    """A conjugate pair of norms on R^dim with the dot-product pairing.

    ``primal_norm`` is the norm of the value space U; the dual space
    U_dual carries the conjugate norm.  The pairing constant is 1 for
    every conjugate pair (norming identity holds with equality).
    """

    dim: int
    primal_norm: str = L2

    def __post_init__(self):
        dim = _integer(self.dim, "dim", 1)
        if self.primal_norm not in _NORMS:
            raise ValueError(
                f"unknown norm {self.primal_norm!r}; expected one of {_NORMS}"
            )
        object.__setattr__(self, "dim", dim)

    @property
    def dual_norm(self) -> str:
        return _CONJUGATE[self.primal_norm]

    @property
    def pairing_constant(self) -> float:
        return 1.0


def conjugate(spec: DualPairSpec) -> DualPairSpec:
    """The same pair seen from the dual side (primal and dual norms swap)."""
    return DualPairSpec(spec.dim, spec.dual_norm)


def _as_vector(spec: DualPairSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.dim,):
        raise ValueError(f"expected vector of shape ({spec.dim},), got {u.shape}")
    return u


def vector_norm(u, norm: str) -> float:
    """||u|| in the given lp norm (norm is one of 'l1', 'l2', 'linf')."""
    u = np.asarray(u, dtype=float)
    if norm == L1:
        return float(np.sum(np.abs(u)))
    if norm == L2:
        return float(np.sqrt(np.dot(u, u)))
    if norm == LINF:
        return float(np.max(np.abs(u))) if u.size else 0.0
    raise ValueError(f"unknown norm {norm!r}")


def row_norms(A, norm: str) -> np.ndarray:
    """||A[i]|| for every row of a 2-d array, shape (n,).

    Each entry equals ``vector_norm(A[i], norm)`` bit for bit: the l2 form
    is a batched dot product, which reduces in the same order as np.dot
    (np.linalg.norm and einsum do not).
    """
    A = np.asarray(A, dtype=float)
    if norm == L1:
        return np.sum(np.abs(A), axis=1)
    if norm == L2:
        return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])
    if norm == LINF:
        return np.max(np.abs(A), axis=1)
    raise ValueError(f"unknown norm {norm!r}")


def norm_witness(u, norm: str) -> np.ndarray:
    """A vector v with ||v||_conjugate = 1 and <v, u> = ||u||_norm.

    This is the analytic maximizer of the pairing over the conjugate
    unit ball: sign pattern for l1, normalized vector for l2, signed
    argmax basis vector for linf (ties broken toward the lowest index).
    For u = 0 any admissible unit vector works; a deterministic one is
    returned.
    """
    u = np.asarray(u, dtype=float)
    if norm == L1:
        return np.where(u >= 0.0, 1.0, -1.0)
    if norm == L2:
        n = np.sqrt(np.dot(u, u))
        if n == 0.0:
            e = np.zeros_like(u)
            e[0] = 1.0
            return e
        return u / n
    if norm == LINF:
        j = int(np.argmax(np.abs(u)))
        e = np.zeros_like(u)
        e[j] = 1.0 if u[j] >= 0.0 else -1.0
        return e
    raise ValueError(f"unknown norm {norm!r}")


def pair(spec: DualPairSpec, u_dual, u) -> float:
    """The canonical pairing <u_dual, u> (dot product)."""
    u_dual = _as_vector(spec, u_dual)
    u = _as_vector(spec, u)
    return float(np.dot(u_dual, u))


def primal_norm_value(spec: DualPairSpec, u) -> float:
    return vector_norm(_as_vector(spec, u), spec.primal_norm)


def dual_norm_value(spec: DualPairSpec, u_dual) -> float:
    return vector_norm(_as_vector(spec, u_dual), spec.dual_norm)


def dual_witness(spec: DualPairSpec, u) -> np.ndarray:
    """u_dual with ||u_dual||_dual = 1 and <u_dual, u> = ||u||_primal."""
    return norm_witness(_as_vector(spec, u), spec.primal_norm)


def primal_witness(spec: DualPairSpec, u_dual) -> np.ndarray:
    """u with ||u||_primal = 1 and <u_dual, u> = ||u_dual||_dual.

    For the l1 primal ball this lands on an extreme point +-e_j; for l2
    on the unit sphere; for linf on a sign vector.  These are exactly
    the directions an optimal atom payload can take.
    """
    return norm_witness(_as_vector(spec, u_dual), spec.dual_norm)


@dataclass(frozen=True)
class TwinOperator:
    """Bilinear form T(u_dual, u) = u_dual^T matrix u on a dual pair."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def twin_value(T: TwinOperator, u_dual, u) -> float:
    """T(u_dual, u)."""
    u_dual = np.asarray(u_dual, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape != (T.matrix.shape[1],) or u_dual.shape != (T.matrix.shape[0],):
        raise ValueError(
            f"operands of shape {u_dual.shape}, {u.shape} do not fit "
            f"matrix of shape {T.matrix.shape}"
        )
    return float(u_dual @ T.matrix @ u)


def twin_apply_primal(T: TwinOperator, u) -> np.ndarray:
    """The induced map on U: <u_dual, T_U u> = T(u_dual, u)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (T.matrix.shape[1],):
        raise ValueError(
            f"vector of shape {u.shape} does not fit matrix {T.matrix.shape}"
        )
    return T.matrix @ u


def twin_apply_dual(T: TwinOperator, u_dual) -> np.ndarray:
    """The induced map on U_dual: <T_Udual u_dual, u> = T(u_dual, u)."""
    u_dual = np.asarray(u_dual, dtype=float)
    if u_dual.shape != (T.matrix.shape[0],):
        raise ValueError(
            f"vector of shape {u_dual.shape} does not fit matrix {T.matrix.shape}"
        )
    return T.matrix.T @ u_dual


def induced_matrix_norm(matrix, norm: str) -> float:
    """Operator norm of u -> matrix @ u from (R^n, norm) to (R^m, norm)."""
    m = np.asarray(matrix, dtype=float)
    if norm == L1:
        # max column absolute sum
        return float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0
    if norm == L2:
        return float(np.linalg.norm(m, 2)) if m.size else 0.0
    if norm == LINF:
        # max row absolute sum
        return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    raise ValueError(f"unknown norm {norm!r}")


def operator_norm_primal(spec: DualPairSpec, T: TwinOperator) -> float:
    """||T_U||: induced norm of the primal action, primal -> primal."""
    return induced_matrix_norm(T.matrix, spec.primal_norm)


def operator_norm_dual(spec: DualPairSpec, T: TwinOperator) -> float:
    """||T_Udual||: induced norm of the transpose action, dual -> dual."""
    return induced_matrix_norm(T.matrix.T, spec.dual_norm)


def twin_norm(spec: DualPairSpec, T: TwinOperator) -> float:
    """sup over both unit balls of |T(u_dual, u)|.

    For a norming pair this equals the induced operator norm of either
    action; the primal one is used.  Eliminating the dual ball first
    shows why: sup over ||u_dual||_dual <= 1 of <u_dual, Mu> is
    ||Mu||_primal, so the twin norm is the primal -> primal norm of M.
    """
    return operator_norm_primal(spec, T)
