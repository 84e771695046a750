"""Test-only kernel and section builders, the kernel document encoder,
the paper's unit normalisation, the star conjugate of a map, a certified
upper bound on the map norm and the Prop 3.3 product-bound check.

``trotterlab run`` and ``trotterlab validate`` reach none of this: the
scenario grammar builds its own terms and generators, and the CLI only
reads kernel documents.  Sections the grammar can write (twists
``expm(t*B)``, modifications ``A*x*B``) are built with
:func:`parse_section`, through the grammar's own parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from trotterlab.algebra import Superoperator, choi_matrix, dagger, superop_exp, unit_element
from trotterlab.kernels import CpdSemigroup, OperatorKernel, christensen_evans_kernel
from trotterlab.scenario import parse_expression
from trotterlab.trotter import Partition, eval_pairing
from trotterlab.units import Segment, Term, UnitExpression, extend_generator

# Small times of the second-order estimate, and the fractions of the
# horizon at which the Prop 3.3 bound is checked.
SECOND_ORDER_TIMES = (1e-1, 1e-2, 1e-3, 1e-4)
HORIZON_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
# Normalization: relative tolerance of the selfadjointness and K(1) = 0 checks.
_NORMALIZE_TOL = 1e-10


def build_kernel(labels: Sequence[str],
                 entry: Callable[[str, str], Superoperator]) -> OperatorKernel:
    """The kernel over ``labels`` whose (s, t) entry is ``entry(s, t)``."""
    return OperatorKernel(labels, [[entry(s, t).rep for t in labels] for s in labels])


def kernel_from_entries(labels: Sequence[str],
                        entries: Mapping[tuple[str, str], Superoperator]) -> OperatorKernel:
    """The kernel over ``labels`` with one entry per ordered pair of labels."""
    return build_kernel(labels, lambda s, t: entries[(s, t)])


def identity_kernel(labels: Sequence[str], dim: int) -> OperatorKernel:
    """Kernel whose every entry is the identity map."""
    ident = Superoperator(dim, np.eye(dim * dim))
    return build_kernel(labels, lambda s, t: ident)


def zero_kernel(labels: Sequence[str], dim: int) -> OperatorKernel:
    zero = Superoperator(dim, np.zeros((dim * dim, dim * dim)))
    return build_kernel(labels, lambda s, t: zero)


def star_conjugate(op: Superoperator) -> Superoperator:
    """The map ``b -> (T(b*))*``, the involution-conjugated partner of T.

    Entry ``(a + b*d, i + j*d)`` of its representation is the conjugate
    of T's entry ``(b + a*d, j + i*d)``: both vec indices transposed.
    """
    d = op.dim
    rep = op.rep.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    return Superoperator(d, rep.conj())


def random_christensen_evans(labels: Sequence[str], dim: int, rng: np.random.Generator,
                             scale: float = 1.0) -> OperatorKernel:
    """Random Christensen-Evans generator kernel with entries of size ~``scale``."""
    def draw():
        return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    eta = {s: draw() for s in labels}
    beta = {s: draw() for s in labels}
    return christensen_evans_kernel(labels, dim, eta, beta)


def evaluate(semigroup: CpdSemigroup, time: float) -> OperatorKernel:
    """The kernel ``exp(time * generator)``, entrywise."""
    if time < 0:
        raise ValueError("semigroup evaluation requires time >= 0")
    return build_kernel(semigroup.generator.labels, lambda s, t: semigroup.entry(s, t, time))


def affine_expression(coefficients: Sequence[complex], labels: Sequence[str],
                      dim: int) -> UnitExpression:
    """``y_t = sum_l k_l xi^l_t`` with scalar coefficients (usually summing to 1)."""
    if len(coefficients) != len(labels):
        raise ValueError("need one coefficient per label")
    eye = unit_element(dim)
    terms = tuple(Term(complex(k) * eye, eye, (Segment(label, 1.0),))
                  for k, label in zip(coefficients, labels))
    return UnitExpression(dim, terms)


def parse_section(text: str, generator: OperatorKernel, **matrices: np.ndarray) -> UnitExpression:
    """The scenario expression ``text`` over ``generator``'s labels, with named matrices."""
    return parse_expression(text, generator.dim, generator.labels, matrices)


def concat_expression(segments: Sequence[tuple[str, float]], dim: int) -> UnitExpression:
    """One term concatenating unit segments over consecutive fractions of the horizon."""
    eye = unit_element(dim)
    segs = tuple(Segment(label, float(frac)) for label, frac in segments)
    return UnitExpression(dim, (Term(eye, eye, segs),))


def certified_norm(op: Superoperator) -> float:
    """An upper bound on the operator-norm-induced norm ``sup |A(b)| / |b|``.

    A hermitian Choi matrix splits with one ``eigh`` as C+ - C-, the Choi
    matrices of CP maps P and N, and the map's norm is at most ``|P + N| =
    |(P + N)(1)|``, the norm of the sum of the diagonal d x d blocks of
    ``|C|``.  A's Choi matrix is H + iK with H and K hermitian, and the
    bound is the sum of theirs; K is rounding for a hermitian-preserving
    A.  On a CP map the bound is ``|A(1)|``, the norm itself.
    """
    d = op.dim
    choi = choi_matrix(op.rep)
    bound = 0.0
    for part in ((choi + dagger(choi)) / 2.0, (choi - dagger(choi)) / 2.0j):
        values, vectors = np.linalg.eigh(part)
        absolute = (vectors * np.abs(values)) @ dagger(vectors)
        bound += float(np.linalg.norm(np.einsum("iaib->ab", absolute.reshape(d, d, d, d)), 2))
    return bound


def prop33_bound_check(section: UnitExpression, kernel: OperatorKernel,
                       horizon: float, schedule: Sequence[Partition]):
    """Check the first-order-in-norm bound on the gram defect (Prop 3.3).

    Returns ``(rows, bounds_hold, eventually_bounded)``.  ``rows`` maps each
    time t in ``HORIZON_FRACTIONS`` of the horizon to one row per scheduled
    partition, coarsest first, rescaled to length t: its gram defect
    against ``norm * t * exp(t * growth) * assembled`` and its pairing norm
    against ``exp(t * growth)``.  ``second``, the largest
    ``|<y_s, . y_s> - id - s K| / s^2`` over ``SECOND_ORDER_TIMES``, bounds
    the section pairing's remainder after its identity and first-order
    parts; ``assembled`` covers its per-interval distance from the limit
    semigroup.  Every norm is :func:`certified_norm`, so no defect reads
    too small.  At the full horizon the gram differences are those of
    :func:`trotterlab.trotter.convergence_verdict`, which measures them
    with the lower estimate ``superop_norm``.
    """
    zeta = kernel.labels[-1]
    diagonal = kernel[(zeta, zeta)]
    k_norm = certified_norm(diagonal)
    second = 0.0
    for s in SECOND_ORDER_TIMES:
        part = Partition((s,))
        remainder = (eval_pairing(section, part, section, part, kernel).rep
                     - np.eye(kernel.dim ** 2) - s * diagonal.rep)
        second = max(second, certified_norm(Superoperator(kernel.dim, remainder)) / s ** 2)
    growth = max(k_norm, second)
    assembled = second + k_norm ** 2 * float(np.exp(horizon * k_norm))

    rows = {}
    for fraction in HORIZON_FRACTIONS:
        t = horizon * fraction
        t_rows = []
        for base in sorted(schedule, key=lambda p: p.norm, reverse=True):
            part = Partition(tuple(w * (t / sum(base.parts)) for w in base.parts))
            pairing = eval_pairing(section, part, section, part, kernel)
            defect = certified_norm(pairing - superop_exp(diagonal, t))
            bound = part.norm * t * float(np.exp(t * growth)) * assembled
            size = certified_norm(pairing)
            size_bound = float(np.exp(sum(part.parts) * growth))
            t_rows.append({
                "n": part.size, "norm": part.norm, "gram_defect": defect,
                "bound": bound, "bound_ok": defect <= bound + 1e-12,
                "pairing_norm": size, "pairing_norm_bound": size_bound,
                "bounded_ok": size <= size_bound + 1e-9,
            })
        rows[t] = tuple(t_rows)
    every_row = [row for t_rows in rows.values() for row in t_rows]
    return (rows, all(row["bound_ok"] for row in every_row),
            all(row["bounded_ok"] for row in every_row))


@dataclass(frozen=True)
class NormalizedUnit:
    expression: UnitExpression
    extension: OperatorKernel
    beta: np.ndarray


def normalize_unit(label: str, generator: OperatorKernel,
                   h: np.ndarray | None = None, *, side: str = "right") -> NormalizedUnit:
    """Twist a unit so that the limit unit generates a unital CP semigroup.

    With ``q = generator[label, label](1)`` (which must be selfadjoint),
    the twist is ``beta = -q/2 + i h`` for an arbitrary selfadjoint ``h``.
    The extended diagonal K must satisfy ``K(1) = 0``, which decides
    unitality exactly: ``exp(tK)(1) = 1`` for all t if and only if ``K(1) = 0``.
    The selfadjointness checks and the ``K(1)`` check are relative to the
    size of their own inputs, so they do not change when the generator
    (or ``h``) is multiplied by a positive constant.
    """
    if label not in generator.labels:
        raise KeyError(f"unknown unit label {label!r}")
    d = generator.dim
    eye = unit_element(d)
    q_one = generator[(label, label)].apply(eye)
    scale = float(np.linalg.norm(q_one, 2))
    if float(np.linalg.norm(q_one - dagger(q_one), 2)) > _NORMALIZE_TOL * scale:
        raise ValueError("malformed generator: diagonal value at the unit is not selfadjoint")
    if h is None:
        h = np.zeros((d, d))
    h = np.asarray(h, dtype=complex)
    if float(np.linalg.norm(h - dagger(h), 2)) > _NORMALIZE_TOL * float(np.linalg.norm(h, 2)):
        raise ValueError("h must be selfadjoint")

    beta = -q_one / 2.0 + 1j * h
    twisted = {"right": f"{label}*expm(t*B)", "left": f"expm(t*B)*{label}"}[side]
    expression = parse_section(twisted, generator, B=beta)
    extension = extend_generator(expression, generator)

    # K(1) = L(1) + beta* + beta cancels to zero; its rounding scales with the summands.
    zeta = extension.labels[-1]
    k_at_one = extension[(zeta, zeta)].apply(eye)
    k_scale = (float(np.linalg.norm(generator[(label, label)].rep, 2))
               + 2.0 * float(np.linalg.norm(beta, 2)))
    if float(np.linalg.norm(k_at_one, 2)) > _NORMALIZE_TOL * k_scale:
        raise ArithmeticError(
            f"normalization failed: K(1) has norm {np.linalg.norm(k_at_one, 2):.3e}")
    return NormalizedUnit(expression, extension, beta)


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
