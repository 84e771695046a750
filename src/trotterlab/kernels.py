"""Operator-valued kernels on finite label sets and their semigroups.

A kernel assigns a superoperator to every ordered pair of labels.  Over
n labels and d x d matrices it is stored as one table of shape
(n, n, d^2, d^2), whose (i, j) entry is the d^2 x d^2 representation of
the map for the i-th and j-th labels.  The central notions are complete
positive definiteness (the block quadratic form
``sum_ij b_i* K^{s_i,s_j}(a_i* a_j) b_j`` is positive for every finite
tuple) and its conditional variant under the constraint
``sum_i a_i b_i = 0``.  A uniformly continuous semigroup of completely
positive definite kernels is, entrywise, the exponential of a single
conditionally completely positive definite generator kernel, and that
correspondence (Schoenberg-type) is what the tests here exercise in both
directions.

Both decision procedures are deterministic eigenvalue tests.  A kernel
is completely positive definite exactly when the block Choi matrix,
whose (s, t) block is the Choi matrix of the (s, t) entry, is positive
semidefinite; it is conditionally completely positive definite exactly
when that matrix is positive semidefinite on the orthogonal complement
of ``(Omega, ..., Omega)``, one copy of ``Omega = sum_i e_i (x) e_i``
per label (:func:`is_conditionally_cpd` proves the equivalence).
Tolerances are relative to the largest absolute eigenvalue of the block
Choi matrix, so neither verdict changes when the kernel is multiplied by
a positive constant.  A negative eigenvector yields a concrete witness
tuple violating the quadratic form (for the conditional test, one
satisfying the constraint), which is re-evaluated directly so that every
negative verdict carries a certificate.  Sampling the constrained
quadratic form and testing the exponentials on a small-time grid remain
in the test suite as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    Superoperator,
    choi_matrix,
    dagger,
    left_right_rep,
    superop_exp,
)

__all__ = [
    "KernelSymmetryError",
    "NotCompletelyPositiveError",
    "OperatorKernel",
    "scalar_kernel",
    "christensen_evans_kernel",
    "evaluate_positivity_form",
    "CpdWitness",
    "PositivityReport",
    "is_cpd",
    "is_conditionally_cpd",
    "CpdSemigroup",
    "KolmogorovDecomposition",
    "kolmogorov_decompose",
    "kernel_from_json_dict",
]

# Relative tolerances, each against the size of the kernel under test: of
# hermitian symmetry, of block-Choi positivity, and of positivity on the
# constrained subspace.
_HERMITIAN_TOL = 1e-9
_CPD_TOL = 1e-10
_CONDITIONAL_TOL = 1e-8


class KernelSymmetryError(ValueError):
    """Raised when a map family fails hermitian symmetry, i.e. is not a kernel candidate."""


class NotCompletelyPositiveError(ValueError):
    """Raised when an operation requires a completely positive definite kernel."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class OperatorKernel:
    """A kernel on a finite ordered label set, stored as one table.

    ``table[i, j]`` is the d^2 x d^2 representation of the entry
    ``(labels[i], labels[j])``; the table is one read-only complex array of
    shape (n, n, d^2, d^2), and ``dim`` is read off its last axis.
    ``kernel[(s, t)]`` is that entry as a :class:`Superoperator`.
    Hermitian symmetry, ``K^{t,s}(b) == (K^{s,t}(b*))*``, is not enforced
    at construction; use :meth:`hermitian_defect` or
    :meth:`require_hermitian`.
    """

    labels: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("a kernel needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        table = np.array(self.table, dtype=complex)
        n, d = len(labels), math.isqrt(table.shape[-1])
        if d < 1 or table.shape != (n, n, d * d, d * d):
            raise ValueError(f"table shape {table.shape} is not (n, n, d^2, d^2) for {n} labels")
        table.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", table)

    @property
    def dim(self) -> int:
        return math.isqrt(self.table.shape[-1])

    @property
    def entries(self) -> dict[tuple[str, str], Superoperator]:
        """Every entry, keyed by its pair of labels."""
        return {(s, t): self[(s, t)] for s in self.labels for t in self.labels}

    def __getitem__(self, pair: tuple[str, str]) -> Superoperator:
        s, t = pair
        return Superoperator(self.dim, self.table[self.labels.index(s), self.labels.index(t)])

    def hermitian_defect(self) -> float:
        """Largest representation-matrix deviation from hermitian symmetry.

        Each entry of ``block_choi() - block_choi()*`` is, up to sign and
        conjugation, one entry of the representation of ``K^{t,s} - (K^{s,t})^*``.
        """
        block = self.block_choi()
        return float(np.max(np.abs(block - dagger(block))))

    def require_hermitian(self) -> None:
        scale = float(np.max(np.abs(self.table)))
        defect = self.hermitian_defect()
        if defect > _HERMITIAN_TOL * scale:
            raise KernelSymmetryError(
                f"not a kernel candidate: hermitian symmetry defect {defect:.3e} "
                f"exceeds {_HERMITIAN_TOL:.1e} * scale {scale:.3e}")

    def block_choi(self) -> np.ndarray:
        """Block matrix whose (s, t) block is the Choi matrix of entry (s, t)."""
        n, d2 = self.table.shape[1:3]
        return choi_matrix(self.table).swapaxes(1, 2).reshape(n * d2, n * d2)


def scalar_kernel(matrix: np.ndarray, labels: Sequence[str]) -> OperatorKernel:
    """A kernel over the scalars (dim 1) given by a plain complex matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    labels = tuple(labels)
    if matrix.shape != (len(labels), len(labels)):
        raise ValueError("matrix shape does not match the label count")
    return OperatorKernel(labels, matrix[:, :, None, None])


def christensen_evans_kernel(labels: Sequence[str], dim: int,
                             eta: Mapping[str, np.ndarray],
                             beta: Mapping[str, np.ndarray]) -> OperatorKernel:
    """Generator kernel of the form ``(s,t): b -> eta_s* b eta_t + b beta_t + beta_s* b``.

    Conditionally completely positive definite by construction; this is the
    scenario directive ``generator ce``.  No decision procedure assumes the
    form: the gate tests it like any other kernel.
    """
    eye = np.eye(dim)
    etas = np.array([eta[s] for s in labels], dtype=complex)
    betas = np.array([beta[s] for s in labels], dtype=complex)
    table = (left_right_rep(dagger(etas)[:, None], etas[None, :])
             + left_right_rep(eye, betas)[None, :]
             + left_right_rep(dagger(betas), eye)[:, None])
    return OperatorKernel(labels, table)


def evaluate_positivity_form(kernel: OperatorKernel, sigmas: Sequence[str],
                             lefts: Sequence[np.ndarray],
                             rights: Sequence[np.ndarray]) -> np.ndarray:
    """The quadratic form ``sum_ij b_i* K^{s_i,s_j}(a_i* a_j) b_j``."""
    d = kernel.dim
    out = np.zeros((d, d), dtype=complex)
    for i, s in enumerate(sigmas):
        for j, t in enumerate(sigmas):
            inner = kernel[(s, t)].apply(dagger(lefts[i]) @ lefts[j])
            out += dagger(rights[i]) @ inner @ rights[j]
    return out


@dataclass(frozen=True)
class CpdWitness:
    """A tuple violating the positivity form, extracted from a Choi eigenvector."""

    sigmas: tuple[str, ...]
    lefts: tuple[np.ndarray, ...]
    rights: tuple[np.ndarray, ...]
    form_min_eigenvalue: float


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of an exact positivity test, plain or conditional.

    ``min_eigenvalue`` is the smallest eigenvalue of the hermitian block
    Choi matrix (compressed onto the constrained subspace for the
    conditional test) and ``scale`` the largest absolute eigenvalue of the
    uncompressed one; their ratio, the margin of a pass or the depth of a
    failure, does not change when the kernel is multiplied by a positive
    constant.  A failure carries a witness tuple (one with
    ``sum a_i b_i = 0`` for the conditional test) whose quadratic form was
    re-evaluated and found negative.
    """

    ok: bool
    min_eigenvalue: float
    scale: float
    witness: CpdWitness | None

    @property
    def min_scaled_eigenvalue(self) -> float:
        return self.min_eigenvalue / self.scale if self.scale else 0.0


def _witness_from_eigenvector(kernel: OperatorKernel, vector: np.ndarray) -> CpdWitness:
    """Turn a negative block-Choi eigenvector into an explicit violating tuple.

    Each label block of the eigenvector is reshaped to a matrix and split
    by SVD into rank-one components u (x) v; the tuple member for (s, u, v)
    is ``a = e1 u^T`` and ``b = v e1^T`` so that the (1, 1) entry of the
    quadratic form equals the Rayleigh quotient of the eigenvector.
    """
    d = kernel.dim
    sigmas, lefts, rights = [], [], []
    for s, block in zip(kernel.labels, vector.reshape(-1, d, d)):
        u, sv, vh = np.linalg.svd(block)
        for p in range(d):
            if sv[p] <= 1e-14:
                continue
            uvec = sv[p] * u[:, p]
            vvec = vh[p, :]
            a = np.zeros((d, d), dtype=complex)
            a[0, :] = uvec
            b = np.zeros((d, d), dtype=complex)
            b[:, 0] = vvec
            sigmas.append(s)
            lefts.append(a)
            rights.append(b)
    form = evaluate_positivity_form(kernel, sigmas, lefts, rights)
    min_eig = float(np.linalg.eigvalsh((form + dagger(form)) / 2.0)[0])
    return CpdWitness(tuple(sigmas), tuple(lefts), tuple(rights), min_eig)


def _choi_spectrum(kernel: OperatorKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The hermitian block Choi matrix H of a kernel, ``eigh(H)`` and its scale.

    Raises :class:`KernelSymmetryError` when the kernel is not hermitian
    symmetric.  Every positivity question about the kernel is answered
    from this one eigendecomposition.
    """
    kernel.require_hermitian()
    block = kernel.block_choi()
    herm = (block + dagger(block)) / 2.0
    eigvals, eigvecs = np.linalg.eigh(herm)
    return herm, eigvals, eigvecs, float(np.max(np.abs(eigvals)))


def _positivity(kernel: OperatorKernel, eigvals: np.ndarray, eigvecs: np.ndarray,
                scale: float, tol: float) -> PositivityReport:
    """Pass when the smallest eigenvalue is at least ``-tol * scale``, else a witness."""
    min_eig = float(eigvals[0])
    if min_eig >= -tol * scale:
        return PositivityReport(True, min_eig, scale, None)
    witness = _witness_from_eigenvector(kernel, eigvecs[:, 0])
    return PositivityReport(False, min_eig, scale, witness)


def is_cpd(kernel: OperatorKernel) -> PositivityReport:
    """Complete positive definiteness via block-Choi positivity.

    Raises :class:`KernelSymmetryError` when the kernel is not hermitian
    symmetric.  On a negative verdict the result carries a witness tuple
    whose quadratic form has a negative eigenvalue.  For one label this is
    Choi's test: a map T is completely positive exactly when its kernel passes.
    """
    _, eigvals, eigvecs, scale = _choi_spectrum(kernel)
    return _positivity(kernel, eigvals, eigvecs, scale, _CPD_TOL)


def is_conditionally_cpd(kernel: OperatorKernel) -> PositivityReport:
    """Conditional complete positive definiteness by one compressed eigendecomposition.

    Let H be the hermitian block Choi matrix of ``kernel`` and
    ``omega = (Omega, ..., Omega)`` over the labels, with
    ``Omega = sum_i e_i (x) e_i`` (the vector ``vec`` of the identity in
    the Choi index ``i*d + k``).  The kernel is conditionally completely
    positive definite exactly when ``V* H V`` is positive semidefinite, V
    an orthonormal basis of the orthogonal complement of ``omega``; it
    passes when the smallest eigenvalue is at least
    ``-_CONDITIONAL_TOL * scale``.

    Proof of the equivalence.  Write a vector v in label blocks v_s, each
    reshaped to a d x d matrix ``V_s[i, k] = v[s, i*d + k]``.

    (=>) Split every ``V_s`` by SVD into rank-one terms ``sigma u v^T``
    and take the tuple members ``a = e_1 (sigma u)^T``, ``b = v e_1^T``
    (:func:`_witness_from_eigenvector`).  Then ``sum a_i b_i`` is
    ``e_11`` times ``sum_s trace(V_s)``, a multiple of ``<omega, v>``, so
    the tuple is admissible whenever v is orthogonal to omega, and the
    (1, 1) entry of its quadratic form is ``<v, H v>``.  A positive form
    has non-negative diagonal, hence ``<v, H v> >= 0`` on the complement.

    (<=) With P the projection onto the complement and w = omega/|omega|,
    ``H = P H P + |w><X| + |X><w|`` for ``X = P H w + <w, H w> w / 2``.
    ``P H P`` is positive semidefinite, so it is the block Choi matrix of
    a completely positive definite kernel.  In this Choi convention
    ``|w><X| + |X><w|`` is the block Choi matrix of
    ``(s, t): b -> b beta_t + beta_s* b`` with ``beta_t[j, l]`` the
    conjugate of ``X[t, j*d + l] / |omega|`` (the Christensen-Evans
    form), whose quadratic form is
    ``(sum a_i b_i)* (...) + (...)* (sum a_i b_i)`` and vanishes under
    the constraint.  So the constrained form is that of a
    completely positive definite kernel, which is positive.

    This is the Christensen-Evans characterisation of conditionally
    completely positive definite kernels (Barreto, Bhat, Liebscher and
    Skeide, J. Funct. Anal. 212, 2004); for one label it is the
    Omega-complement criterion of Wolf and Cirac (Commun. Math. Phys. 279,
    2008).  The zero kernel passes exactly, and so does any kernel of one
    label over the scalars, whose complement is empty.
    """
    herm, _, _, scale = _choi_spectrum(kernel)
    d, n = kernel.dim, len(kernel.labels)
    if scale == 0.0 or n * d * d == 1:
        return PositivityReport(True, 0.0, scale, None)
    omega = np.tile(np.eye(d).reshape(-1), n) / np.sqrt(n * d)
    complement = np.linalg.svd(omega[None, :])[2][1:].T
    eigvals, eigvecs = np.linalg.eigh(dagger(complement) @ herm @ complement)
    return _positivity(kernel, eigvals, complement @ eigvecs, scale, _CONDITIONAL_TOL)


@dataclass(frozen=True)
class CpdSemigroup:
    """The entrywise exponential family ``t -> exp(t * generator)``.

    It serves the limit maps of a convergence report.  Each entry is its
    own one-parameter semigroup under composition.  Nothing is cached:
    every call exponentiates, and a caller that revisits the same times
    keeps its own table.
    """

    generator: OperatorKernel

    def entry_rep(self, s: str, t: str, time: float) -> np.ndarray:
        """Representation matrix of ``exp(time * generator[s, t])``."""
        return superop_exp(self.generator[(s, t)], float(time)).rep

    def entry(self, s: str, t: str, time: float) -> Superoperator:
        return Superoperator(self.generator.dim, self.entry_rep(s, t, time))


@dataclass(frozen=True)
class KolmogorovDecomposition:
    """Factorization of a completely positive definite kernel.

    ``factors`` has shape (n, r, d, d), one stack of r factors per label;
    the kernel entries are reproduced as
    ``K^{labels[i],labels[j]}(b) = sum_r factors[i, r]* b factors[j, r]``.
    """

    labels: tuple[str, ...]
    factors: np.ndarray

    @property
    def rank(self) -> int:
        return self.factors.shape[1]

    def max_reconstruction_error(self, kernel: OperatorKernel) -> float:
        # One row of the table at a time holds n r d^4 terms, not n^2 r d^4.
        rows = (left_right_rep(dagger(f), self.factors).sum(axis=1) for f in self.factors)
        return max(float(np.max(np.abs(rep - row))) for rep, row in zip(rows, kernel.table))


def kolmogorov_decompose(kernel: OperatorKernel) -> KolmogorovDecomposition:
    """Single-time Kolmogorov-type factorization via the block Choi matrix.

    Requires the kernel to be completely positive definite (the test of
    :func:`is_cpd`, from the same eigendecomposition); eigenvalues below
    the positivity tolerance raise, tiny negative ripple is clipped.  Each
    kept eigenvector, scaled by the root of its eigenvalue, holds one
    factor per label, conjugated, in its label blocks.
    """
    _, eigvals, eigvecs, scale = _choi_spectrum(kernel)
    result = _positivity(kernel, eigvals, eigvecs, scale, _CPD_TOL)
    if not result.ok:
        raise NotCompletelyPositiveError(
            f"kernel is not completely positive definite "
            f"(min eigenvalue {result.min_eigenvalue:.3e})", result)
    keep = eigvals > 1e-14 * float(eigvals[-1])
    d = kernel.dim
    vectors = (np.sqrt(eigvals[keep]) * eigvecs[:, keep]).T
    factors = vectors.reshape(-1, len(kernel.labels), d, d).swapaxes(0, 1).conj()
    return KolmogorovDecomposition(kernel.labels, factors)


# -- JSON decoding ----------------------------------------------------------

def _is_finite_pair(pair) -> bool:
    """Whether ``pair`` is ``[re, im]`` with both parts finite JSON numbers (not bools)."""
    try:
        return (isinstance(pair, list) and len(pair) == 2
                and all(type(x) in (int, float) and math.isfinite(x) for x in pair))
    except OverflowError:  # an integer beyond the float range
        return False


def kernel_from_json_dict(data: Mapping) -> OperatorKernel:
    """Decode ``{"dim", "labels", "entries": {"s|t": [[re, im], ...]}}``.

    Each entry lists its map's d^4 representation entries row-major as
    [re, im] pairs.  Any malformed field raises ``ValueError``.
    """
    try:
        dim, labels, raw = data["dim"], data["labels"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or bad field {exc}") from exc
    if not isinstance(labels, (list, tuple)) or not isinstance(raw, Mapping):
        raise ValueError("labels must be a list and entries an object")
    bad = next((s for s in labels if not isinstance(s, str) or "|" in s), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} is not a string free of '|'")
    labels = tuple(labels)
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    keys = {f"{s}|{t}" for s in labels for t in labels}
    stray = next((key for key in raw if key not in keys), None)
    if stray is not None:
        raise ValueError(f"entry key {stray!r} names no pair of declared labels")
    d2 = dim * dim
    reps = []
    for s in labels:
        for t in labels:
            key = f"{s}|{t}"
            if key not in raw:
                raise ValueError(f"missing kernel entry {key!r}")
            pairs = raw[key]
            if not isinstance(pairs, list) or len(pairs) != d2 * d2:
                raise ValueError(f"entry {key!r} must be a list of {d2 * d2} [re, im] pairs")
            bad = next((pair for pair in pairs if not _is_finite_pair(pair)), None)
            if bad is not None:
                raise ValueError(f"entry {key!r} holds {bad!r}, not a finite [re, im] pair")
            flat = np.array([complex(re, im) for re, im in pairs])
            reps.append(Superoperator(dim, flat.reshape(d2, d2)).rep)
    return OperatorKernel(labels, np.reshape(reps, (len(labels),) * 2 + (d2, d2)))
