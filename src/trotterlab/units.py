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

The pairings of :mod:`trotterlab.trotter` read the same term pairs.

Adjoining a new label for the prospective limit unit of a section ``y``
extends the generator kernel to the :func:`pair_derivative` kernel of the
ambient units followed by ``y``, with the new label last.  The extension
is accepted only when it passes the conditional positivity test, which is
precisely the condition for the limit unit to exist in some enlargement
of the system, up to rounding.  It also checks the new row and column
for hermitian symmetry, which nothing else guarantees.  The same pass sums
each entry's maps by absolute value into |K|, which sizes the table's
``rounding`` that the test reads, and makes the :class:`Extension`'s criterion
and verdict allowance, so :func:`_decide_verdict` only compares stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Superoperator, dagger, left_right_rep, unit_element
from .kernels import NotCompletelyPositiveError, OperatorKernel, _allowance, is_conditionally_cpd

__all__ = [
    "Segment",
    "Term",
    "UnitExpression",
    "unit_expression",
    "pair_derivative",
    "Extension",
    "extend_generator",
]

_FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class Segment:
    label: str
    fraction: float

    def __post_init__(self):
        if not self.fraction > 0:
            raise ValueError(f"segment fraction must be positive, got {self.fraction}")


@dataclass(frozen=True)
class Term:
    """One summand ``left * twist? * chain * twist? * right`` of a section.

    ``cuts``, the chain's interior cut fractions in time order, is computed
    once here; a chain whose fractions sum to just over 1 still ends at 1.
    """

    left: np.ndarray
    right: np.ndarray
    segments: tuple[Segment, ...]
    twist: np.ndarray | None = None
    twist_side: str = "none"
    cuts: np.ndarray = field(init=False, repr=False, compare=False)

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
        ends = np.cumsum([seg.fraction for seg in segments])
        if abs(ends[-1] - 1.0) > _FRACTION_TOL:
            raise ValueError(f"segment fractions must sum to 1, got {ends[-1]}")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "cuts", np.minimum(ends[:-1], 1.0))
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

    def segment_index(self, fraction):
        """Index of the segment containing ``fraction``, elementwise for an array."""
        return np.searchsorted(self.cuts, fraction, side="right")


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


def unit_expression(label: str, dim: int) -> UnitExpression:
    eye = unit_element(dim)
    return UnitExpression(dim, (Term(eye, eye, (Segment(label, 1.0),)),))


def _merged_segments(t1: Term, t2: Term) -> list[tuple[float, str, str]]:
    """(width, label1, label2) over the union of both terms' cut fractions, in time order."""
    grid = np.array(sorted({0.0, 1.0, *t1.cuts.tolist(), *t2.cuts.tolist()}))
    mids = (grid[:-1] + grid[1:]) / 2.0
    labels1, labels2 = ([t.segments[i].label for i in t.segment_index(mids)] for t in (t1, t2))
    return list(zip(np.diff(grid).tolist(), labels1, labels2))


def _term_pairs(e1: UnitExpression, e2: UnitExpression, generator: OperatorKernel):
    """``(stack, pairs)``, the one statement of where maps enter a pairing of ``e1`` with ``e2``.

    ``stack`` holds each distinct map once: ``fraction * generator[(s, t)]``
    per merged segment, ``left_right_rep(beta*, I)`` per twist ``beta`` of
    an ``e1`` term and ``left_right_rep(I, beta)`` per one of an ``e2`` term.
    Per term pair, ``pairs`` holds ``(open, keys, close)``: ``open`` is
    ``left_right_rep(t1.right*, t2.right)``, ``close`` the same of the lefts,
    and ``keys`` index ``stack`` in the order the maps act within an
    interval: right-side twists, merged segments, left-side twists.
    """
    if e1.dim != generator.dim or e2.dim != generator.dim:
        raise ValueError("expression and generator dimensions disagree")
    used = {seg.label for e in (e1, e2) for term in e.terms for seg in term.segments}
    missing = used - set(generator.labels)
    if missing:
        raise KeyError(f"expression uses unknown unit labels {sorted(missing)}")
    eye, at = np.eye(generator.dim), {label: i for i, label in enumerate(generator.labels)}
    maps: dict[tuple, np.ndarray] = {}
    for side, expr in ((1, e1), (2, e2)):
        for i, term in enumerate(expr.terms):
            if term.twist is not None:
                ends = (dagger(term.twist), eye) if side == 1 else (eye, term.twist)
                maps[side, i] = left_right_rep(*ends)
    pairs = []
    for i, t1 in enumerate(e1.terms):
        for j, t2 in enumerate(e2.terms):
            chain = _merged_segments(t1, t2)
            for fraction, s, t in chain:
                if (fraction, s, t) not in maps:
                    maps[fraction, s, t] = fraction * generator.table[at[s], at[t]]
            twists = (((1, i), t1.twist_side), ((2, j), t2.twist_side))
            keys = ([key for key, side in twists if side == "right"] + chain
                    + [key for key, side in twists if side == "left"])
            pairs.append((left_right_rep(dagger(t1.right), t2.right), keys,
                          left_right_rep(dagger(t1.left), t2.left)))
    index = {key: k for k, key in enumerate(maps)}
    return np.stack(list(maps.values())), [(open_, [index[key] for key in keys], close)
                                           for open_, keys, close in pairs]


def _pair_sum(stack: np.ndarray, pairs, size=np.asarray) -> np.ndarray:
    """Sum of ``size(open) @ (sum of size(stack)[keys]) @ size(close)`` over :func:`_term_pairs`."""
    stack = size(stack)
    return sum(size(open_) @ stack[keys].sum(axis=0) @ size(close) for open_, keys, close in pairs)


def pair_derivative(e1: UnitExpression, e2: UnitExpression,
                    generator: OperatorKernel) -> Superoperator:
    """Derivative at ``t = 0`` of the pairing map ``t -> <e1_t, . e2_t>``."""
    return Superoperator(generator.dim, _pair_sum(*_term_pairs(e1, e2, generator)))


@dataclass(frozen=True, kw_only=True)
class Extension(OperatorKernel):
    """An extended kernel K, zeta its last label, with its ``rounding``, its criterion
    ``pair_derivative(zeta, section)``'s representation and the ``allowance`` of equal entries."""

    criterion: np.ndarray
    allowance: float


def _extended_tables(section: UnitExpression,
                     generator: OperatorKernel) -> tuple[Extension, OperatorKernel, int]:
    """``(K, |K|, L)``: ``section``'s extension, its magnitudes, and how often it rounds.

    Entry (a, b) of K is ``pair_derivative(a, b)`` over the ambient units and,
    last, ``section`` under a fresh label; |K| sums the same maps by absolute
    value.  An entry of k terms of at most m segments rounds twice for ``open``
    and ``close``, once per stacked map, 2 m times over at most 2 m + 1 keys,
    d^2 times per matmul and k^2 - 1 times over term pairs, fewer than L =
    k^2 + 2 d^2 + 2 m + 3 in all, so it lies within ``_allowance(L, |K|)`` of
    its exact value, and K's ``rounding`` is ``_allowance(L, |C|_2)``, C the
    block Choi matrix of |K|.  The criterion nests two L, so K's allowance is
    ``_allowance(2 L, M)``, M the largest entry of |K| or of the criterion
    summed over |K|.  ``ValueError`` when |K| overflows.
    """
    family = [unit_expression(s, generator.dim) for s in generator.labels] + [section]
    table, magnitudes = [], []
    for a in family:
        row = [_term_pairs(a, b, generator) for b in family]
        table.append([_pair_sum(*pairs) for pairs in row])
        magnitudes.append([_pair_sum(*pairs, np.abs) for pairs in row])
    if not np.isfinite(magnitudes).all():
        raise ValueError("the magnitudes of the extended kernel are not finite: the products "
                         "of the section's term multipliers overflow")
    names = ["zeta"] + [f"zeta_{k}" for k in range(1, len(generator.labels) + 1)]  # one is free
    labels = generator.labels + (next(s for s in names if s not in generator.labels),)
    chain = max(len(term.segments) for term in section.terms)
    roundings = len(section.terms) ** 2 + 2 * generator.dim ** 2 + 2 * chain + 3
    kernel, magnitudes = OperatorKernel(labels, table), OperatorKernel(labels, magnitudes)
    zeta = unit_expression(labels[-1], generator.dim)
    bound = _pair_sum(*_term_pairs(zeta, section, magnitudes), np.abs).max()
    allowance = _allowance(2 * roundings, max(magnitudes.table.real.max(), bound))
    rounding = _allowance(roundings, float(np.linalg.norm(magnitudes.block_choi(), 2)))
    return (Extension(labels, kernel.table, rounding=rounding, allowance=allowance,
                      criterion=pair_derivative(zeta, section, kernel).rep), magnitudes, roundings)


def _decide_verdict(extension: Extension, candidate: str | None) -> tuple[str, bool]:
    """The verdict from entries K of the extension, zeta its last label, and whether grams agree.

    By Chernoff's product formula every pairing of sectioned products tends
    to ``exp(t K)``.  Without a candidate the section converges in norm when
    its criterion ``pair_derivative(zeta, section)`` equals ``K^{zeta zeta}``,
    and else weakly.  Against an ambient candidate w it converges in norm when
    ``K^{zeta zeta} = K^{w w}`` (the grams agree) ``= K^{w zeta}``, weakly
    when ``K^{s zeta} = K^{s w}`` for every ambient s, and otherwise not even
    weakly (``divergent``).  Entries are equal within the extension's
    ``allowance``; ``ValueError`` when it reaches the largest entry.
    """
    table, z, allowance = extension.table, len(extension.labels) - 1, extension.allowance
    largest = np.abs(table).max()
    if allowance >= largest > 0:
        raise ValueError(f"rounding allowance {allowance:.3e} of the extended kernel reaches "
                         f"its largest entry {largest:.3e}; the section's terms cancel "
                         "beyond double precision")
    if candidate is None:
        gap = np.abs(extension.criterion - table[z, z]).max()
        return ("norm-convergent" if gap <= allowance else "weak-only"), True
    w = extension.labels.index(candidate)
    grams, limit, weak = (np.abs(a - b).max() <= allowance for a, b in (
        (table[z, z], table[w, w]), (table[z, z], table[w, z]), (table[:z, z], table[:z, w])))
    return ("norm-convergent" if grams and limit else "weak-only" if weak
            else "divergent"), bool(grams)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are refused below
def extend_generator(section: UnitExpression, generator: OperatorKernel) -> Extension:
    """The :class:`Extension` of ``generator`` by a fresh last label for ``section``'s limit unit.

    It refuses a non-finite value at t = 0, then one off the unit by more than
    its k products' rounding, ``_allowance(d + k + 1, sum |left| |right|)``
    entrywise, then non-finite magnitudes; K with its rounding, criterion and
    allowance comes from :func:`_extended_tables`.  K must pass
    :func:`~trotterlab.kernels.is_conditionally_cpd` (hermitian to 1e-9
    relative, else ``KernelSymmetryError``), else ``NotCompletelyPositiveError``.
    """
    d, terms = generator.dim, section.terms
    deviation = sum(t.left @ t.right for t in terms) - unit_element(d)
    defect = float(np.linalg.norm(deviation, 2)) if np.isfinite(deviation).all() else np.inf
    bound = _allowance(d + len(terms) + 1, sum(np.abs(t.left) @ np.abs(t.right) for t in terms))
    if defect == np.inf or not (np.abs(deviation) <= bound).all():
        raise ValueError(
            f"section value at t=0 differs from the unit by {defect:.3e}; "
            "the term multipliers must sum to the identity")
    kernel = _extended_tables(section, generator)[0]
    report = is_conditionally_cpd(kernel)
    if not report.ok:
        raise NotCompletelyPositiveError(
            "extended kernel is not conditionally positive definite (worst eigenvalue "
            f"{report.min_eigenvalue:.3e} below the rounding allowance {-report.allowance:.3e})",
            report)
    return kernel
