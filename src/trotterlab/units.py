"""Formal unit combinations and their infinitesimal data.

A section ``t -> y_t`` is described symbolically as a sum of terms.  Each
term sandwiches a chain of unit segments between a left and a right
algebra element and may carry one exponential twist ``exp(t * beta)`` on
a declared side.  A chain is a list of (label, fraction) segments whose
fractions sum to one, so a term evaluated at horizon ``t`` concatenates
the labelled units over consecutive subintervals covering ``[0, t]``.

The inner products ``<y_t, . y'_t>`` of two such sections are smooth in
``t``; :func:`pair_derivative` returns the exact derivative at ``t = 0``
by bilinear expansion over term pairs:

* the chain contributes the fraction-weighted sum of generator entries
  over the common refinement of both terms' segment grids,
* a twist contributes a left multiplication by ``beta*`` (first slot) or
  a right multiplication by ``beta`` (second slot); at first order the
  declared side does not matter,
* the constant multipliers conjugate the whole expression.

Adjoining a new label for the prospective limit unit of a section ``y``
extends the generator kernel with the derivative data; the extension is
accepted only when it passes the conditional positivity test, which is
precisely the condition for the limit unit to exist in some enlargement
of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Superoperator, dagger, left_right_rep, unit_element
from .kernels import OperatorKernel, PositivityReport, is_conditionally_cpd

__all__ = [
    "Segment",
    "Term",
    "UnitExpression",
    "unit_expression",
    "pair_derivative",
    "ExtendedGenerator",
    "ExtensionPositivityError",
    "extend_generator",
]

_FRACTION_TOL = 1e-9
# A section's value at t = 0 may differ from the unit by this much.
_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Segment:
    label: str
    fraction: float

    def __post_init__(self):
        if not self.fraction > 0:
            raise ValueError(f"segment fraction must be positive, got {self.fraction}")


@dataclass(frozen=True)
class Term:
    """One summand ``left * twist? * chain * twist? * right`` of a section."""

    left: np.ndarray
    right: np.ndarray
    segments: tuple[Segment, ...]
    twist: np.ndarray | None = None
    twist_side: str = "none"

    def __post_init__(self):
        left = np.asarray(self.left, dtype=complex)
        right = np.asarray(self.right, dtype=complex)
        if left.shape != right.shape or left.ndim != 2 or left.shape[0] != left.shape[1]:
            raise ValueError("term multipliers must be square matrices of equal size")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a term needs at least one segment")
        total = sum(seg.fraction for seg in segments)
        if abs(total - 1.0) > _FRACTION_TOL:
            raise ValueError(f"segment fractions must sum to 1, got {total}")
        object.__setattr__(self, "segments", segments)
        if self.twist_side not in ("none", "left", "right"):
            raise ValueError(f"invalid twist side {self.twist_side!r}")
        if (self.twist is None) != (self.twist_side == "none"):
            raise ValueError("twist and twist_side must be given together")
        if self.twist is not None:
            twist = np.asarray(self.twist, dtype=complex)
            if twist.shape != left.shape:
                raise ValueError("twist must match the multiplier size")
            object.__setattr__(self, "twist", twist)

    @property
    def dim(self) -> int:
        return self.left.shape[0]

    def cut_fractions(self) -> tuple[float, ...]:
        cuts = np.cumsum([seg.fraction for seg in self.segments])[:-1]
        return tuple(float(c) for c in cuts)

    def segment_index(self, fraction):
        """Index of the segment containing ``fraction``, elementwise for an array."""
        ends = np.cumsum([seg.fraction for seg in self.segments])
        return np.minimum(np.searchsorted(ends, fraction, side="right"), len(ends) - 1)

    def label_at(self, fraction: float) -> str:
        return self.segments[int(self.segment_index(fraction))].label


@dataclass(frozen=True)
class UnitExpression:
    """A formal combination of unit symbols defining a section ``t -> y_t``."""

    dim: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("an expression needs at least one term")
        for term in terms:
            if term.dim != self.dim:
                raise ValueError("all terms must share the expression dimension")
        object.__setattr__(self, "terms", terms)

    def labels_used(self) -> set[str]:
        return {seg.label for term in self.terms for seg in term.segments}

    def require_labels(self, labels: Sequence[str]) -> None:
        missing = self.labels_used() - set(labels)
        if missing:
            raise KeyError(f"expression uses unknown unit labels {sorted(missing)}")

    def value_at_zero(self) -> np.ndarray:
        """The element the section degenerates to at ``t = 0``."""
        return sum(term.left @ term.right for term in self.terms)

    def unit_section_defect(self) -> float:
        """Deviation of the time-zero value from the algebra unit."""
        return float(np.linalg.norm(self.value_at_zero() - unit_element(self.dim), 2))


def unit_expression(label: str, dim: int) -> UnitExpression:
    eye = unit_element(dim)
    return UnitExpression(dim, (Term(eye, eye, (Segment(label, 1.0),)),))


def _merged_segments(t1: Term, t2: Term):
    """Yield (width, label1, label2) over the union of both segment grids."""
    cuts = sorted(set(t1.cut_fractions()) | set(t2.cut_fractions()))
    grid = [0.0, *cuts, 1.0]
    for lo, hi in zip(grid[:-1], grid[1:]):
        if hi - lo <= 1e-15:
            continue
        mid = (lo + hi) / 2.0
        yield hi - lo, t1.label_at(mid), t2.label_at(mid)


def pair_derivative(e1: UnitExpression, e2: UnitExpression,
                    generator: OperatorKernel) -> Superoperator:
    """Derivative at ``t = 0`` of the pairing map ``t -> <e1_t, . e2_t>``."""
    if e1.dim != e2.dim or e1.dim != generator.dim:
        raise ValueError("expression and generator dimensions disagree")
    e1.require_labels(generator.labels)
    e2.require_labels(generator.labels)
    d = generator.dim
    eye = np.eye(d)
    total = np.zeros((d * d, d * d), dtype=complex)
    for t1 in e1.terms:
        for t2 in e2.terms:
            inner = np.zeros_like(total)
            for width, s, t in _merged_segments(t1, t2):
                inner += width * generator[(s, t)].rep
            if t1.twist is not None:
                inner += left_right_rep(dagger(t1.twist), eye)
            if t2.twist is not None:
                inner += left_right_rep(eye, t2.twist)
            outer_rep = left_right_rep(dagger(t1.right), t2.right)
            deep_rep = left_right_rep(dagger(t1.left), t2.left)
            total += outer_rep @ inner @ deep_rep
    return Superoperator(d, total)


class ExtensionPositivityError(ValueError):
    """The extended kernel failed conditional positivity.

    Either the section violates the first-order hypotheses, or the check
    broke down numerically; the witness magnitude distinguishes the two.
    """

    def __init__(self, message, report: PositivityReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ExtendedGenerator:
    """Generator kernel extended by a new label for the limit unit of a section.

    The limit row lives in ``kernel`` alone, as the last row and column of
    its table; the rows and columns before it are the generator's table.
    ``kernel[(zeta, zeta)]`` is the derivative of the section's own
    pairing, ``kernel[(zeta, s)]`` pairs the section against unit ``s``,
    and ``kernel[(s, zeta)]`` is its hermitian mirror.
    """

    zeta: str
    kernel: OperatorKernel
    report: PositivityReport


def _fresh_label(taken: Sequence[str]) -> str:
    label, k = "zeta", 0
    while label in taken:
        k += 1
        label = f"zeta_{k}"
    return label


def extend_generator(section: UnitExpression, generator: OperatorKernel) -> ExtendedGenerator:
    """Adjoin the limit-unit label of ``section`` to ``generator``.

    The diagonal entry of the new row is the derivative of the section's
    own pairing, the cross entries pair the section against each existing
    unit, and the mirror column is fixed by hermitian symmetry.  The
    extension must pass the conditional positivity test; failure raises
    with the witness attached.
    """
    defect = section.unit_section_defect()
    if defect > _UNIT_TOL:
        raise ValueError(
            f"section value at t=0 differs from the unit by {defect:.3e}; "
            "the term multipliers must sum to the identity")
    n, d = len(generator.labels), generator.dim
    crosses = [pair_derivative(section, unit_expression(s, d), generator)
               for s in generator.labels]
    table = np.pad(generator.table, ((0, 1), (0, 1), (0, 0), (0, 0)))
    table[n, :n] = [cross.rep for cross in crosses]
    table[:n, n] = [cross.star_conjugate().rep for cross in crosses]
    table[n, n] = pair_derivative(section, section, generator).rep
    zeta = _fresh_label(generator.labels)
    kernel = OperatorKernel(generator.labels + (zeta,), table)

    report = is_conditionally_cpd(kernel)
    if not report.ok:
        magnitude = abs(report.min_scaled_eigenvalue)
        kind = ("hypothesis violation" if magnitude > 1e-3
                else "numerical breakdown near tolerance")
        raise ExtensionPositivityError(
            f"extended kernel is not conditionally positive definite "
            f"(worst scaled eigenvalue {report.min_scaled_eigenvalue:.3e}; "
            f"likely {kind})", report)
    return ExtendedGenerator(zeta, kernel, report)

