"""Operator-valued kernels on finite label sets and their semigroups.

A kernel assigns a superoperator to every ordered pair of labels.  The
central notions are complete positive definiteness (the block quadratic
form ``sum_ij b_i* K^{s_i,s_j}(a_i* a_j) b_j`` is positive for every
finite tuple) and its conditional variant under the constraint
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
from typing import Callable, Mapping, Sequence

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
    "identity_kernel",
    "zero_kernel",
    "scalar_kernel",
    "christensen_evans_kernel",
    "random_christensen_evans",
    "evaluate_positivity_form",
    "CpdWitness",
    "PositivityReport",
    "is_cpd",
    "is_conditionally_cpd",
    "CpdSemigroup",
    "KolmogorovDecomposition",
    "kolmogorov_decompose",
    "kernel_to_json_dict",
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
    """A kernel on a finite ordered label set with superoperator entries.

    ``entries`` must hold one superoperator for every ordered pair of
    labels.  Hermitian symmetry, ``K^{t,s}(b) == (K^{s,t}(b*))*``, is not
    enforced at construction; use :meth:`hermitian_defect` or
    :meth:`require_hermitian`.
    """

    labels: tuple[str, ...]
    dim: int
    entries: Mapping[tuple[str, str], Superoperator]

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("a kernel needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        entries = dict(self.entries)
        for s in labels:
            for t in labels:
                if (s, t) not in entries:
                    raise ValueError(f"missing kernel entry ({s}, {t})")
                if entries[(s, t)].dim != self.dim:
                    raise ValueError(f"entry ({s}, {t}) has wrong dimension")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, pair: tuple[str, str]) -> Superoperator:
        return self.entries[pair]

    @classmethod
    def build(cls, labels: Sequence[str], dim: int,
              entry: Callable[[str, str], Superoperator]) -> "OperatorKernel":
        labels = tuple(labels)
        return cls(labels, dim, {(s, t): entry(s, t) for s in labels for t in labels})

    def hermitian_defect(self) -> float:
        """Largest representation-matrix deviation from hermitian symmetry."""
        worst = 0.0
        for s in self.labels:
            for t in self.labels:
                diff = self.entries[(t, s)].rep - self.entries[(s, t)].star_conjugate().rep
                worst = max(worst, float(np.max(np.abs(diff))))
        return worst

    def require_hermitian(self) -> None:
        scale = max(float(np.max(np.abs(op.rep))) for op in self.entries.values())
        defect = self.hermitian_defect()
        if defect > _HERMITIAN_TOL * scale:
            raise KernelSymmetryError(
                f"not a kernel candidate: hermitian symmetry defect {defect:.3e} "
                f"exceeds {_HERMITIAN_TOL:.1e} * scale {scale:.3e}")

    def block_choi(self) -> np.ndarray:
        """Block matrix whose (s, t) block is the Choi matrix of entry (s, t)."""
        return np.block([[choi_matrix(self.entries[(s, t)]) for t in self.labels]
                         for s in self.labels])


def identity_kernel(labels: Sequence[str], dim: int) -> OperatorKernel:
    """Kernel whose every entry is the identity map."""
    ident = Superoperator.identity(dim)
    return OperatorKernel.build(labels, dim, lambda s, t: ident)


def zero_kernel(labels: Sequence[str], dim: int) -> OperatorKernel:
    zero = Superoperator.zero(dim)
    return OperatorKernel.build(labels, dim, lambda s, t: zero)


def scalar_kernel(matrix: np.ndarray, labels: Sequence[str]) -> OperatorKernel:
    """A kernel over the scalars (dim 1) given by a plain complex matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    labels = tuple(labels)
    if matrix.shape != (len(labels), len(labels)):
        raise ValueError("matrix shape does not match the label count")
    entries = {}
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            entries[(s, t)] = Superoperator(1, np.array([[matrix[i, j]]]))
    return OperatorKernel(labels, 1, entries)


def christensen_evans_kernel(labels: Sequence[str], dim: int,
                             eta: Mapping[str, np.ndarray],
                             beta: Mapping[str, np.ndarray]) -> OperatorKernel:
    """Generator kernel of the form ``(s,t): b -> eta_s* b eta_t + b beta_t + beta_s* b``.

    Conditionally completely positive definite by construction; used to
    generate test instances, never assumed by any decision procedure.
    """
    eye = np.eye(dim)

    def entry(s: str, t: str) -> Superoperator:
        rep = (left_right_rep(dagger(eta[s]), np.asarray(eta[t], dtype=complex))
               + left_right_rep(eye, np.asarray(beta[t], dtype=complex))
               + left_right_rep(dagger(beta[s]), eye))
        return Superoperator(dim, rep)

    return OperatorKernel.build(labels, dim, entry)


def random_christensen_evans(labels: Sequence[str], dim: int, rng: np.random.Generator,
                             scale: float = 1.0) -> OperatorKernel:
    """Random generator kernel in the form above, with entries of size ~``scale``."""
    def draw():
        return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    eta = {s: draw() for s in labels}
    beta = {s: draw() for s in labels}
    return christensen_evans_kernel(labels, dim, eta, beta)


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

    def form(self, kernel: OperatorKernel) -> np.ndarray:
        return evaluate_positivity_form(kernel, self.sigmas, self.lefts, self.rights)


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

    def __bool__(self) -> bool:
        return self.ok


def _witness_from_eigenvector(kernel: OperatorKernel, vector: np.ndarray) -> CpdWitness:
    """Turn a negative block-Choi eigenvector into an explicit violating tuple.

    Each label block of the eigenvector is reshaped to a matrix and split
    by SVD into rank-one components u (x) v; the tuple member for (s, u, v)
    is ``a = e1 u^T`` and ``b = v e1^T`` so that the (1, 1) entry of the
    quadratic form equals the Rayleigh quotient of the eigenvector.
    """
    d = kernel.dim
    d2 = d * d
    sigmas, lefts, rights = [], [], []
    for idx, s in enumerate(kernel.labels):
        block = vector[idx * d2:(idx + 1) * d2].reshape(d, d)
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

    Each entry is its own one-parameter semigroup under composition; there
    is no joint exponential of a stacked operator.  Nothing is cached:
    every call exponentiates, and a caller that revisits the same times
    keeps its own table.
    """

    generator: OperatorKernel

    @property
    def labels(self) -> tuple[str, ...]:
        return self.generator.labels

    @property
    def dim(self) -> int:
        return self.generator.dim

    def entry_rep(self, s: str, t: str, time: float) -> np.ndarray:
        """Representation matrix of ``exp(time * generator[s, t])``."""
        return superop_exp(self.generator[(s, t)], float(time)).rep

    def entry(self, s: str, t: str, time: float) -> Superoperator:
        return Superoperator(self.dim, self.entry_rep(s, t, time))

    def evaluate(self, time: float) -> OperatorKernel:
        if time < 0:
            raise ValueError("semigroup evaluation requires time >= 0")
        return OperatorKernel.build(
            self.labels, self.dim, lambda s, t: self.entry(s, t, time))


@dataclass(frozen=True)
class KolmogorovDecomposition:
    """Factorization of a completely positive definite kernel.

    ``factors[s]`` is an array of shape (r, d, d); the kernel entries are
    reproduced as ``K^{s,t}(b) = sum_r factors[s][r]* b factors[t][r]``.
    """

    labels: tuple[str, ...]
    dim: int
    factors: Mapping[str, np.ndarray]

    @property
    def rank(self) -> int:
        return next(iter(self.factors.values())).shape[0]

    def reconstruct_entry(self, s: str, t: str) -> Superoperator:
        rep = left_right_rep(dagger(self.factors[s]), self.factors[t]).sum(axis=0)
        return Superoperator(self.dim, rep)

    def max_reconstruction_error(self, kernel: OperatorKernel) -> float:
        worst = 0.0
        for s in self.labels:
            for t in self.labels:
                diff = self.reconstruct_entry(s, t).rep - kernel[(s, t)].rep
                worst = max(worst, float(np.max(np.abs(diff))))
        return worst


def kolmogorov_decompose(kernel: OperatorKernel) -> KolmogorovDecomposition:
    """Single-time Kolmogorov-type factorization via the block Choi matrix.

    Requires the kernel to be completely positive definite (the test of
    :func:`is_cpd`, from the same eigendecomposition); eigenvalues below
    the positivity tolerance raise, tiny negative ripple is clipped.
    """
    _, eigvals, eigvecs, scale = _choi_spectrum(kernel)
    result = _positivity(kernel, eigvals, eigvecs, scale, _CPD_TOL)
    if not result.ok:
        raise NotCompletelyPositiveError(
            f"kernel is not completely positive definite "
            f"(min eigenvalue {result.min_eigenvalue:.3e})", result)
    keep = eigvals > 1e-14 * float(eigvals[-1])
    d = kernel.dim
    d2 = d * d
    rank = int(np.count_nonzero(keep))
    factors = {s: np.zeros((rank, d, d), dtype=complex) for s in kernel.labels}
    r = 0
    for lam, vec_col in zip(eigvals[keep], eigvecs[:, keep].T):
        v = np.sqrt(lam) * vec_col
        for idx, s in enumerate(kernel.labels):
            factors[s][r] = v[idx * d2:(idx + 1) * d2].reshape(d, d).conj()
        r += 1
    return KolmogorovDecomposition(kernel.labels, d, factors)


# -- JSON codec -------------------------------------------------------------

def kernel_to_json_dict(kernel: OperatorKernel) -> dict:
    """Encode as ``{"dim", "labels", "entries": {"s|t": [[re, im], ...]}}``.

    The d^4 representation entries are stored row-major as [re, im] pairs;
    the round trip through JSON is exact for double precision values.
    """
    for label in kernel.labels:
        if "|" in label:
            raise ValueError(f"label {label!r} may not contain '|'")
    entries = {}
    for (s, t), op in kernel.entries.items():
        flat = op.rep.reshape(-1)
        entries[f"{s}|{t}"] = [[float(z.real), float(z.imag)] for z in flat]
    return {"dim": kernel.dim, "labels": list(kernel.labels), "entries": entries}


def _is_finite_pair(pair) -> bool:
    """Whether ``pair`` is ``[re, im]`` with both parts finite JSON numbers (not bools)."""
    try:
        return (isinstance(pair, list) and len(pair) == 2
                and all(type(x) in (int, float) and math.isfinite(x) for x in pair))
    except OverflowError:  # an integer beyond the float range
        return False


def kernel_from_json_dict(data: Mapping) -> OperatorKernel:
    """Decode :func:`kernel_to_json_dict`'s format; any malformed field raises ``ValueError``."""
    try:
        dim, labels, raw = data["dim"], data["labels"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or bad field {exc}") from exc
    if not isinstance(labels, (list, tuple)) or not isinstance(raw, Mapping):
        raise ValueError("labels must be a list and entries an object")
    labels = tuple(str(s) for s in labels)
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    d2 = dim * dim
    entries = {}
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
            entries[(s, t)] = Superoperator(dim, flat.reshape(d2, d2))
    return OperatorKernel(labels, dim, entries)
