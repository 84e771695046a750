"""Exact linear algebra for maps on d x d complex matrices.

Conventions used throughout the package:

* Algebra elements are plain complex numpy arrays of shape ``(d, d)``.
  The involution is the conjugate transpose, the unit is the identity
  matrix, and scalars are embedded as multiples of the identity.
* A linear map on the algebra (a "superoperator") is stored as its
  d^2 x d^2 matrix acting on column-stacked vectorizations: ``vec(b)``
  stacks the columns of ``b``, so ``vec(p @ b @ q) == kron(q.T, p) @ vec(b)``.
  :func:`left_right_rep` is the one place that builds such a matrix.
* The Choi matrix of a map ``T`` is the d^2 x d^2 block matrix whose
  (i, j) block is ``T(e_ij)``.  ``T`` is completely positive exactly when
  its Choi matrix is positive semidefinite (Choi, Linear Algebra Appl. 10,
  1975), i.e. when the one-label kernel with entry ``T`` passes
  :func:`trotterlab.kernels.is_cpd`.

The map norm quoted in reports is ``superop_norm``, the norm induced by
the usual matrix operator norm on the algebra.  It maximizes
``|A(b)| / |b|`` over a fixed seeded set of directions and refines the
best candidates by alternating maximization.  The result is a lower
bound that is tight in practice at the small dimensions used here.

scipy is the package's one dependency that loads only when first needed:
:func:`superop_exp` imports ``scipy.linalg`` inside its body.  Everything
else here, and every other module, uses numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "dagger",
    "left_right_rep",
    "unit_element",
    "matrix_unit",
    "Superoperator",
    "superop_exp",
    "expm_times",
    "superop_norm",
    "choi_matrix",
]

# Seed for the deterministic direction set used by the norm estimator.
_NORM_SEED = 1729
_NORM_DIRECTIONS = 500
# The norm estimator refines its _NORM_REFINE_FROM best candidates, each
# for at most _NORM_MAX_ITER steps or until a step gains less than _NORM_RTOL.
_NORM_REFINE_FROM = 8
_NORM_MAX_ITER = 80
_NORM_RTOL = 1e-12
# Unit roundoff of float64, the target of expm_times' Taylor truncation.
_UNIT_ROUNDOFF = 2.0 ** -53


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector: ``vec(b)[i + j*d] == b[i, j]``."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for ``dim`` x ``dim`` matrices."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if dim * dim != v.size:
        raise ValueError(f"cannot unvec a vector of size {v.size} into a {dim}x{dim} matrix")
    return v.reshape((dim, dim), order="F")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def left_right_rep(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Representation ``kron(q.T, p)`` of the map ``b -> p @ b @ q``.

    ``p`` and ``q`` may carry stacked leading axes, which broadcast; the
    result then stacks one d^2 x d^2 matrix per broadcast index.
    """
    p, q = np.asarray(p), np.asarray(q)
    out = q.swapaxes(-1, -2)[..., :, None, :, None] * p[..., None, :, None, :]
    d2 = out.shape[-4] * out.shape[-3]
    return out.reshape(*out.shape[:-4], d2, d2)


def unit_element(dim: int) -> np.ndarray:
    """The algebra unit, i.e. the identity matrix."""
    return np.eye(dim, dtype=complex)


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    """The matrix unit e_ij."""
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


@dataclass(frozen=True)
class Superoperator:
    """A linear map on d x d matrices, stored as its d^2 x d^2 representation.

    Instances are immutable; all operations return new objects.
    """

    dim: int
    rep: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        rep = np.asarray(self.rep, dtype=complex)
        d2 = self.dim * self.dim
        if rep.shape != (d2, d2):
            raise ValueError(f"representation shape {rep.shape} does not match dim {self.dim}")
        rep = rep.copy()
        rep.flags.writeable = False
        object.__setattr__(self, "rep", rep)

    def apply(self, b: np.ndarray) -> np.ndarray:
        return unvec(self.rep @ vec(b), self.dim)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Superoperator(self.dim, self.rep - other.rep)


def superop_exp(generator: Superoperator, t: float) -> Superoperator:
    """The exponential ``exp(t * G)`` by scipy's Pade scaling-and-squaring ``expm``.

    ``scipy.linalg`` is imported at the first call, so parsing, the gate
    and ``validate`` never load it; a run loads it at its first limit map.
    The call stays ``scipy.linalg.expm`` rather than :func:`expm_times`
    until scipy leaves the package as a whole, because the benchmark's
    tracer requires a run to reach that attribute.

    Negative times are allowed for diagnostics but flagged with a warning.
    """
    import scipy.linalg

    if not np.isfinite(generator.rep).all():
        raise ValueError("generator has non-finite entries")
    if not np.isfinite(t):
        raise ValueError("non-finite evolution time")
    if t < 0:
        warnings.warn(f"evolving for negative time t={t}", stacklevel=2)
    return Superoperator(generator.dim, scipy.linalg.expm(t * generator.rep))


def _taylor_degree(r: float) -> int:
    """Smallest K >= 1 with ``r^(K+1)/(K+1)! * (K+2)/(K+2-r) <= 2^-53 * exp(-r)``, for r <= 1."""
    bound = _UNIT_ROUNDOFF * np.exp(-r)
    degree, term = 1, r  # term = r^degree / degree!
    while True:
        term *= r / (degree + 1)
        if term * (degree + 2) / (degree + 2 - r) <= bound:
            return degree
        degree += 1


def expm_times(rep: np.ndarray, times) -> np.ndarray:
    """``exp(t * rep)`` for every ``t`` in ``times``, shape ``times.shape + rep.shape``.

    ``rep`` is one square matrix or a table of them stacked on leading
    axes, e.g. a generator kernel as (labels, labels, d^2, d^2).  The
    one-parameter structure makes the whole batch one Taylor evaluation:

    * ``rho = max|t| * max ||rep||_1`` over the table, and ``s`` the
      smallest ``s >= 0`` with ``r = rho / 2^s <= 1``;
    * K the smallest degree K >= 1 whose Taylor tail bound (below) is at most
      ``2^-53 * exp(-r)``;
    * the powers ``rep^1 .. rep^K`` once, the coefficients
      ``(t / 2^s)^k / k!`` by one ``cumprod``, and the deviation
      ``D = exp(t rep / 2^s) - I`` as the single product ``coef @ powers``;
    * ``s`` stacked squarings in deviation form, ``D <- 2 D + D @ D``
      (``(I + D)^2 - I``), and the identity added once, last.

    Keeping I out until the end matters: near the identity, D is small
    and carries all its significant bits, while ``I + D`` rounded early
    loses the last bit of the diagonal, and the pairings raise blocks to
    powers of up to 4096.  1 x 1 generators give ``np.exp(t * rep)``.

    Truncation error.  Let ``X = t rep / 2^s``; ``||.||_1`` is an induced,
    hence submultiplicative, norm with ``||I||_1 = 1``, and
    ``||X||_1 <= r``.  The Taylor remainder after degree K obeys
    ``||R_K||_1 <= sum_{k>K} r^k / k!
    <= r^(K+1)/(K+1)! * sum_{j>=0} (r/(K+2))^j
    = r^(K+1)/(K+1)! * (K+2)/(K+2-r)``, because the ratio of consecutive
    terms ``r/(k+1)`` is at most ``r/(K+2)`` for ``k > K``.  Also
    ``1 = ||exp(X) exp(-X)||_1 <= ||exp(X)||_1 * e^r``, so
    ``||exp(X)||_1 >= e^-r``.  With the degree chosen above,
    ``||R_K||_1 <= 2^-53 ||exp(X)||_1``: the truncation is below the unit
    roundoff relative to the result, before the squarings.  For r <= 1
    this needs K <= 18; the cost is K - 1 products of the table, one
    (times, K) x (K, table) matmul and s stacked squarings.
    """
    rep = np.asarray(rep)
    times = np.asarray(times, dtype=float)
    if not (np.isfinite(rep).all() and np.isfinite(times).all()):
        raise ValueError("non-finite generator or time")
    n = rep.shape[-1]
    if n == 1:
        return np.exp(times[(...,) + (None,) * rep.ndim] * rep)
    rho = float(np.max(np.abs(times), initial=0.0)
                * np.max(np.abs(rep).sum(axis=-2), initial=0.0))
    s = 0
    while rho > 2.0 ** s:
        s += 1
    degree = _taylor_degree(rho / 2.0 ** s)
    powers = np.empty((degree, *rep.shape), dtype=rep.dtype)
    powers[0] = rep
    for k in range(1, degree):
        np.matmul(powers[k - 1], rep, out=powers[k])
    coef = np.cumprod(times.reshape(-1, 1) / 2.0 ** s / np.arange(1, degree + 1), axis=1)
    dev = (coef @ powers.reshape(degree, -1)).reshape(*times.shape, *rep.shape)
    for _ in range(s):
        dev = 2.0 * dev + dev @ dev
    return dev + np.eye(n)


def _norm_candidates(op: Superoperator, directions: int) -> np.ndarray:
    """Starting directions of :func:`superop_norm`, stacked as (k, d, d).

    The identity, all matrix units, the Hilbert-Schmidt maximizer (top
    right singular vector of the representation) and ``directions``
    seeded complex Gaussian matrices.
    """
    d = op.dim
    _, _, vh = np.linalg.svd(op.rep)
    fixed = [unit_element(d), *(matrix_unit(d, i, j) for i in range(d) for j in range(d)),
             unvec(vh[0].conj(), d)]
    draws = np.random.default_rng(_NORM_SEED).standard_normal((directions, 2, d, d))
    return np.concatenate([np.stack(fixed), draws[:, 0] + 1j * draws[:, 1]])


def _apply_stack(rep: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``A(b)`` for each b of a (k, d, d) stack, with A given by its representation."""
    k, d = len(stack), stack.shape[-1]
    vecs = np.swapaxes(stack, 1, 2).reshape(k, d * d)
    return np.swapaxes((vecs @ rep.T).reshape(k, d, d), 1, 2)


def _candidate_ratios(op: Superoperator, candidates: np.ndarray) -> np.ndarray:
    """``|A(b)| / |b|`` in operator norm for each stacked nonzero ``b``."""
    images = _apply_stack(op.rep, candidates)
    return np.linalg.norm(images, 2, axis=(1, 2)) / np.linalg.norm(candidates, 2, axis=(1, 2))


def superop_norm(op: Superoperator) -> float:
    """Estimate the operator-norm-induced map norm ``sup |A(b)| / |b|``.

    Deterministic: a fixed seeded direction set (plus the identity, all
    matrix units and the Hilbert-Schmidt maximizer) is scored, and the top
    ``_NORM_REFINE_FROM`` candidates are refined by alternating
    maximization over the unit ball, all in lockstep on one stack.  A
    step takes the polar factor of the gradient of ``b -> Re <u1, A(b) v1>``
    (u1, v1 the top singular pair of ``A(b)``), which is exact and keeps
    ``|b| = 1``, so the ratio is the top singular value of ``A(b)``.  A
    candidate stops when the gradient vanishes, when a step gains less
    than ``_NORM_RTOL`` relative, or after ``_NORM_MAX_ITER`` steps.  The
    iteration is monotone; the value returned is a lower bound on the
    true norm, converged to relative accuracy ~1e-8 on the local maxima
    it finds.
    """
    candidates = _norm_candidates(op, _NORM_DIRECTIONS)
    ratios = _candidate_ratios(op, candidates)
    order = np.argsort(-ratios, kind="stable")
    best = float(ratios[order[0]])
    if best == 0.0:
        return 0.0
    adjoint = dagger(op.rep)  # Hilbert-Schmidt adjoint
    starts = candidates[order[:_NORM_REFINE_FROM]]
    starts = starts / np.linalg.norm(starts, 2, axis=(1, 2))[:, None, None]
    u, sv, vh = np.linalg.svd(_apply_stack(op.rep, starts))
    val = sv[:, 0]
    active = np.ones(len(starts), dtype=bool)
    for _ in range(_NORM_MAX_ITER):
        ug, sg, vgh = np.linalg.svd(_apply_stack(adjoint, u[:, :, :1] * vh[:, :1, :]))
        u_new, sv_new, vh_new = np.linalg.svd(_apply_stack(op.rep, ug @ vgh))
        active &= (sg[:, 0] != 0.0) & (sv_new[:, 0] > val * (1.0 + _NORM_RTOL))
        if not active.any():
            break
        val[active], u[active], vh[active] = sv_new[active, 0], u_new[active], vh_new[active]
    return max(best, float(val.max()))


def choi_matrix(rep: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 block matrix with (i, j) block ``op(e_ij)``, for op's representation.

    Entry (a, b) of ``op(e_ij)`` is the representation's entry
    ``(a + b*d, i + j*d)``, so the Choi matrix is the representation with
    the first and last of its four d-sized axes swapped.  A stack of
    representations on leading axes gives the stack of Choi matrices.
    """
    d = math.isqrt(rep.shape[-1])
    return rep.reshape(*rep.shape[:-2], d, d, d, d).swapaxes(-4, -1).reshape(rep.shape)
