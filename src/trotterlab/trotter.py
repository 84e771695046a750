"""Interval partitions, pairings of sectioned products, and convergence verdicts.

A partition of ``[0, t]`` is stored as the tuple of its interval widths in
the customary reversed order (latest interval first); ``parts[-1]`` covers
``[0, parts[-1])``.  Partitions of equal length are paired over their
common refinement, the union of their cut points, which the transfer walk
merges into its own event grid; no partition object is built for it.

Pairing convention.  For elements composed over consecutive intervals,
the inner-product map of a composition factorizes into the entry maps of
the two sides' labels on each interval of the common refinement.  The
factor belonging to the *latest* interval acts first on the operand, so
representation matrices multiply in time order, earliest leftmost:

    rep(<x, . y>) = piece(I_1) @ piece(I_2) @ ... @ piece(I_N)

with ``I_1`` the earliest interval.  A term's right multiplier (and a
right-side twist, whose exponent scales with the interval width) enters
at its interval's earliest position, the left multiplier (and left-side
twist) at the latest position.

:func:`eval_pairing` picks one of three evaluations from the partitions.
When both sides use the same partition, which is every caller in this
module, the refinement is that partition and the pairing is the ordered
product ``B(w_1) @ ... @ B(w_n)`` of blocks that depend only on the
interval width.  A uniform partition of more than 8 parts is one block
raised to the n-th power: O(log n) d^2 x d^2 products.  Any other shared
partition builds the blocks of all distinct widths with stacked matrix
exponentials and multiplies them by pairwise halving: O(n) work in
O(log n) numpy calls and O(n d^4) memory.  Different partitions on the
two sides go through a transfer walk over the N events of the grid that
merges both sides' bounds and segment cuts.  Its state is one map per
pair of terms, and each side has one open step (sum over its term axis,
then its stacked open multipliers) and one close step; it takes O(N)
numpy steps, multiplier stacks of O(n * terms * d^4) and entry
exponentials of O(N * terms1 * terms2 * d^4), all built up front.

Every matrix exponential here is a semigroup ``exp(w L)`` at many times
``w``, which :func:`trotterlab.algebra.expm_times` evaluates as one batch:
one (times x degree) by (degree x table) matmul per (label pair, segment
fraction), per twisted term, or per generator table, plus s stacked
squarings, with s the scaling exponent of the largest time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    Superoperator,
    dagger,
    expm_times,
    left_right_rep,
    superop_norm,
    unit_element,
)
from .kernels import CpdSemigroup, OperatorKernel
from .units import (
    ExtendedGenerator,
    Term,
    UnitExpression,
    _merged_segments,
    extend_generator,
    unit_expression,
)

__all__ = [
    "Partition",
    "dyadic_schedule",
    "random_schedule",
    "eval_pairing",
    "VerdictThresholds",
    "ConvergenceReport",
    "assemble_report",
    "convergence_verdict",
    "Prop33Report",
    "prop33_bound_check",
    "fit_rate",
]

_LENGTH_TOL = 1e-12
# Defects at or below this are rounding noise and do not enter rate fits.
_RATE_FLOOR = 1e-13
# Small times of the second-order estimate, and the fractions of the
# horizon at which the Prop 3.3 bound is checked.
_SECOND_ORDER_TIMES = (1e-1, 1e-2, 1e-3, 1e-4)
_HORIZON_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Partition:
    """An interval partition, widths stored latest-first."""

    parts: tuple[float, ...]

    def __post_init__(self):
        parts = tuple(float(p) for p in self.parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p <= 0 for p in parts):
            raise ValueError("all parts must be positive")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def uniform(cls, length: float, n: int) -> "Partition":
        if n < 1:
            raise ValueError("need at least one part")
        return cls((float(length) / n,) * n)

    @classmethod
    def from_time_widths(cls, widths: Sequence[float]) -> "Partition":
        return cls(tuple(widths)[::-1])

    @property
    def length(self) -> float:
        return float(sum(self.parts))

    @property
    def norm(self) -> float:
        return float(max(self.parts))

    @property
    def size(self) -> int:
        return len(self.parts)

    @property
    def time_widths(self) -> tuple[float, ...]:
        """Widths in time order, earliest first."""
        return self.parts[::-1]

    def scaled(self, factor: float) -> "Partition":
        return Partition(tuple(p * factor for p in self.parts))


def _merge_cuts(cuts: Sequence[float], tol: float) -> list[float]:
    out: list[float] = []
    for c in sorted(cuts):
        if not out or c - out[-1] > tol:
            out.append(c)
    return out


def dyadic_schedule(length: float, k_min: int = 3, k_max: int = 12) -> list[Partition]:
    """Uniform partitions with 2^k parts, k = k_min..k_max."""
    if k_min > k_max:
        raise ValueError(f"empty dyadic schedule: k_min {k_min} > k_max {k_max}")
    return [Partition.uniform(length, 2 ** k) for k in range(k_min, k_max + 1)]


def random_schedule(length: float, count: int, seed: int = 0) -> list[Partition]:
    """Random partitions with shrinking norms, exercising the net claim."""
    if count < 1:
        raise ValueError(f"a random schedule needs at least one partition, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(round(8 * 2 ** (i * 9.0 / max(count - 1, 1))))
        while True:
            cuts = np.sort(rng.uniform(0.0, length, size=n - 1)) if n > 1 else np.array([])
            grid = np.concatenate([[0.0], cuts, [length]])
            widths = np.diff(grid)
            if widths.min(initial=length) > 1e-6 * length / n:
                break
        out.append(Partition.from_time_widths([float(w) for w in widths]))
    return out


# -- pairing evaluation -------------------------------------------------------


def _open_mult(term: Term, width) -> np.ndarray:
    """Multiplier entering at an interval's earliest end (right factor).

    ``width`` is one interval width or an array of them; an array gives
    the multipliers stacked along a leading axis.
    """
    if term.twist_side == "right":
        return expm_times(term.twist, width) @ term.right
    return term.right


def _close_mult(term: Term, width) -> np.ndarray:
    """Multiplier entering at an interval's latest end (left factor); see :func:`_open_mult`."""
    if term.twist_side == "left":
        return term.left @ expm_times(term.twist, width)
    return term.left


def _tree_product(stack: np.ndarray) -> np.ndarray:
    """The ordered product ``stack[0] @ stack[1] @ ...`` by pairwise halving."""
    while len(stack) > 1:
        even = len(stack) - len(stack) % 2
        paired = stack[0:even:2] @ stack[1:even:2]
        stack = np.concatenate([paired, stack[even:]]) if even < len(stack) else paired
    return stack[0]


def eval_pairing(e1: UnitExpression, p1: Partition, e2: UnitExpression, p2: Partition,
                 semigroup: CpdSemigroup) -> Superoperator:
    """The map ``b -> <x composed over p1, b * (y composed over p2)>``.

    Exact up to matrix-exponential accuracy: every interval of the common
    refinement contributes the entry exponential for the two sides' active
    labels, with multipliers and twists inserted at the proper boundaries.
    One of three evaluations runs, chosen from the partitions:

    * the same uniform partition of more than 8 parts on both sides: the
      one-interval block, from a recursive call, raised to the n-th power;
      O(log n) products of d^2 x d^2 matrices;
    * the same partition on both sides: every interval's block at once,
      then their ordered product (:func:`_batched_pairing`); O(n) work in
      O(log n) stacked numpy calls and O(n d^4) memory;
    * different partitions: the transfer walk over the N events of the
      common refinement and the segment cuts (:func:`_walk_pairing`);
      O(N) numpy steps on a (terms1, terms2, d^2, d^2) state, with the
      multipliers stacked per interval, O(n * terms * d^4), and the entry
      exponentials per event, O(N * terms1 * terms2 * d^4), gathered from
      one exponential of the generator table at every event width.

    The exponentials come from :func:`trotterlab.algebra.expm_times`: one
    matmul per (label pair, segment fraction) and per twisted term, plus
    s stacked squarings (2^s bounds the largest time times the generator's
    1-norm).
    """
    length = p1.length
    if abs(length - p2.length) > _LENGTH_TOL * max(1.0, length):
        raise ValueError(f"partition lengths differ: {length} vs {p2.length}")
    if e1.dim != semigroup.dim or e2.dim != semigroup.dim:
        raise ValueError("expression and semigroup dimensions disagree")
    e1.require_labels(semigroup.labels)
    e2.require_labels(semigroup.labels)

    # Same uniform partition on both sides: one interval block, then a power.
    if (p1.size == p2.size and p1.size > 8
            and max(p1.parts) - min(p1.parts) <= _LENGTH_TOL
            and max(p2.parts) - min(p2.parts) <= _LENGTH_TOL):
        w = length / p1.size
        block = eval_pairing(e1, Partition((w,)), e2, Partition((w,)), semigroup)
        return Superoperator(semigroup.dim, np.linalg.matrix_power(block.rep, p1.size))
    if p1.parts == p2.parts:
        return _batched_pairing(e1, e2, p1, semigroup)
    return _walk_pairing(e1, p1, e2, p2, semigroup)


def _batched_pairing(e1: UnitExpression, e2: UnitExpression, partition: Partition,
                     semigroup: CpdSemigroup) -> Superoperator:
    """Pairing over the same partition on both sides, as a product of interval blocks.

    On an interval of width w the pairing is the block
    ``B(w) = sum over term pairs of open @ (product of segment exponentials) @ close``,
    with the segments of a term pair taken over the union of its two
    terms' cut fractions.  The blocks of all distinct widths are built
    with one :func:`trotterlab.algebra.expm_times` call per segment of
    each term pair and per twisted term, each one matmul over the
    distinct widths plus s stacked squarings, and multiplied in time
    order, earliest leftmost.
    """
    widths, inverse = np.unique(np.asarray(partition.time_widths), return_inverse=True)
    d2 = semigroup.dim ** 2
    blocks = np.zeros((widths.size, d2, d2), dtype=complex)
    mults2 = [(_open_mult(t2, widths), _close_mult(t2, widths)) for t2 in e2.terms]
    for t1 in e1.terms:
        open1, close1 = _open_mult(t1, widths), _close_mult(t1, widths)
        for t2, (open2, close2) in zip(e2.terms, mults2):
            acc = left_right_rep(dagger(open1), open2)
            for fraction, s, t in _merged_segments(t1, t2):
                acc = acc @ expm_times(semigroup.generator[(s, t)].rep, fraction * widths)
            blocks += acc @ left_right_rep(dagger(close1), close2)
    return Superoperator(semigroup.dim, _tree_product(blocks[inverse]))


def _walk_pairing(e1: UnitExpression, p1: Partition, e2: UnitExpression, p2: Partition,
                  semigroup: CpdSemigroup) -> Superoperator:
    """Pairing over arbitrary partitions by a transfer walk over the common refinement.

    The walk visits, in time order, the events of the grid that merges
    both sides' interval bounds and segment cuts.  Its state holds one map
    per pair of active terms, shape (n1, n2, d^2, d^2).  Where a side's
    interval starts, the state is summed over that side's term axis and
    multiplied by the stacked open multipliers; on every event it is
    multiplied by the entry exponentials of the two sides' labels,
    gathered by label code from the generator table exponentiated at
    every event width; where the interval ends, by the stacked close
    multipliers.  Side-1 factors ``b -> m* b`` and side-2 factors
    ``b -> b m`` act on opposite slots and commute, so bounds the two
    sides share need no step of their own.
    Inputs are those :func:`eval_pairing` has validated.
    """
    d, labels = semigroup.dim, semigroup.labels
    bounds = [np.concatenate(([0.0], np.cumsum(p.time_widths))) for p in (p1, p2)]
    events = [*bounds[0], *bounds[1]]
    for expr, b in zip((e1, e2), bounds):
        for term in expr.terms:
            cuts = b[:-1, None] + np.asarray(term.cut_fractions()) * np.diff(b)[:, None]
            events.extend(cuts.ravel())
    grid = np.array(_merge_cuts(events, _LENGTH_TOL * max(1.0, p1.length)))
    mids = (grid[:-1] + grid[1:]) / 2.0
    i1, start1, end1, codes1, open1, close1 = _walk_side(e1, bounds[0], mids, labels, 0)
    i2, start2, end2, codes2, open2, close2 = _walk_side(e2, bounds[1], mids, labels, 1)

    gens = np.array([[semigroup.generator[(s, t)].rep for t in labels] for s in labels])
    table = expm_times(gens, np.diff(grid))
    exps = table[np.arange(mids.size)[:, None, None], codes1[:, :, None], codes2[:, None, :]]

    state = np.eye(d * d, dtype=complex)[None, None]
    for k in range(mids.size):
        if start1[k]:
            state = state.sum(axis=0, keepdims=True) @ open1[i1[k]]
        if start2[k]:
            state = state.sum(axis=1, keepdims=True) @ open2[i2[k]]
        state = state @ exps[k]
        if end1[k]:
            state = state @ close1[i1[k]]
        if end2[k]:
            state = state @ close2[i2[k]]
    return Superoperator(d, state.sum(axis=(0, 1)))


def _walk_side(expr: UnitExpression, bounds: np.ndarray, mids: np.ndarray,
               labels: Sequence[str], axis: int):
    """One side of :func:`_walk_pairing`, read off the midpoints of the event grid.

    Per event: the side's interval index, whether that interval starts or
    ends there, and the label index of every term (events x terms).  Per
    interval: the open and close factors of every term, shaped to act on
    the side's own term axis of the state, (intervals, terms, 1, d^2, d^2)
    for side 1 (``axis`` 0, ``b -> m* b``) and (intervals, 1, terms, d^2,
    d^2) for side 2 (``b -> b m``).
    """
    index = np.searchsorted(bounds, mids, side="right") - 1
    change = index[1:] != index[:-1]
    fractions = (mids - bounds[index]) / (bounds[index + 1] - bounds[index])
    codes = np.stack([np.array([labels.index(seg.label) for seg in term.segments])
                      [term.segment_index(fractions)] for term in expr.terms], axis=1)
    widths = np.diff(bounds)
    eye = np.eye(expr.dim)
    factors = []
    for mult in (_open_mult, _close_mult):
        stack = np.stack([np.broadcast_to(mult(term, widths), (widths.size, *eye.shape))
                          for term in expr.terms], axis=1)
        rep = left_right_rep(dagger(stack), eye) if axis == 0 else left_right_rep(eye, stack)
        factors.append(np.expand_dims(rep, 2 - axis))
    return index, np.r_[True, change], np.r_[change, True], codes, *factors


# -- reports ------------------------------------------------------------------


def fit_rate(norms: Sequence[float], defects: Sequence[float]) -> float | None:
    """Log-log slope of defect against partition norm, ignoring noise-floor points."""
    xs, ys = [], []
    for nrm, dft in zip(norms, defects):
        if dft > _RATE_FLOOR:
            xs.append(np.log(nrm))
            ys.append(np.log(dft))
    if len(xs) < 3:
        return None
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class VerdictThresholds:
    """Floating-point realization of the convergent / weak-only / divergent split."""

    convergent_defect: float = 1e-6
    convergent_rate: float = 0.5
    plateau_defect: float = 1e-3
    plateau_rate: float = 0.1
    ambient_defect: float = 1e-6
    obs35_rate: float = 0.9


@dataclass(frozen=True)
class ConvergenceReport:
    """Defect series of a sectioned product against a target unit.

    ``gram_defect`` measures the pairing of the section with itself against
    the limit gram predicted by the extension; ``criterion_defect`` the
    pairing of the target unit with the section against that same limit
    gram, both evaluated at the algebra unit for the element form; and
    ``norm_defect`` is the squared distance assembled from the three
    pairings, reported as the top eigenvalue of the (ideally positive)
    difference element.
    """

    horizon: float
    target: str
    target_kind: str  # "adjoined" or "ambient"
    sizes: tuple[int, ...]
    norms: tuple[float, ...]
    gram_defects: tuple[float, ...]
    criterion_defects: tuple[float, ...]
    norm_defects: tuple[float, ...]
    ambient_defects: Mapping[str, tuple[float, ...]]
    criterion_rate: float | None
    gram_rate: float | None
    verdict: str
    obs35_sequences_suffice: bool
    thresholds: VerdictThresholds
    notes: tuple[str, ...] = ()
    seed: int | None = None

    def csv_rows(self) -> list[str]:
        rows = ["n,norm,gram_defect,criterion_defect,norm_defect"]
        for n, nrm, g, c, m in zip(self.sizes, self.norms, self.gram_defects,
                                   self.criterion_defects, self.norm_defects):
            rows.append(f"{n},{nrm!r},{g!r},{c!r},{m!r}")
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("\n".join(self.csv_rows()) + "\n")

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["ambient_defects"] = {k: list(v) for k, v in self.ambient_defects.items()}
        data["thresholds"] = asdict(self.thresholds)
        return data

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _decide_verdict(criterion: Sequence[float], rate: float | None,
                    ambient_final: float, thr: VerdictThresholds) -> str:
    finest = criterion[-1]
    if finest <= thr.convergent_defect and (rate is None or rate >= thr.convergent_rate):
        return "norm-convergent"
    plateau = rate is not None and rate < thr.plateau_rate
    if finest > thr.plateau_defect and plateau and ambient_final <= thr.ambient_defect:
        return "weak-only"
    return "divergent"


def assemble_report(*, horizon: float, target: str, target_kind: str,
                    partitions: Sequence[Partition],
                    gram_defects: Sequence[float],
                    criterion_defects: Sequence[float],
                    norm_defects: Sequence[float],
                    ambient_defects: Mapping[str, Sequence[float]],
                    thresholds: VerdictThresholds | None = None,
                    notes: Sequence[str] = (), seed: int | None = None) -> ConvergenceReport:
    """Fit rates and apply the verdict rules to precomputed defect series."""
    thr = thresholds or VerdictThresholds()
    norms = tuple(p.norm for p in partitions)
    sizes = tuple(p.size for p in partitions)
    crit_rate = fit_rate(norms, criterion_defects)
    gram_rate = fit_rate(norms, gram_defects)
    ambient_final = max((series[-1] for series in ambient_defects.values()), default=0.0)
    verdict = _decide_verdict(tuple(criterion_defects), crit_rate, ambient_final, thr)
    obs35 = verdict == "norm-convergent" and (crit_rate is None or crit_rate >= thr.obs35_rate)
    all_notes = list(notes)
    if obs35:
        all_notes.append(
            "criterion defect decays at first order in the partition norm "
            "(second order per interval); uniform dyadic sequences suffice")
    return ConvergenceReport(
        horizon=horizon, target=target, target_kind=target_kind,
        sizes=sizes, norms=norms,
        gram_defects=tuple(float(g) for g in gram_defects),
        criterion_defects=tuple(float(c) for c in criterion_defects),
        norm_defects=tuple(float(m) for m in norm_defects),
        ambient_defects={k: tuple(float(x) for x in v) for k, v in ambient_defects.items()},
        criterion_rate=crit_rate, gram_rate=gram_rate, verdict=verdict,
        obs35_sequences_suffice=obs35, thresholds=thr,
        notes=tuple(all_notes), seed=seed)


def _hermitian_top_eigenvalue(matrix: np.ndarray) -> float:
    herm = (matrix + dagger(matrix)) / 2.0
    return float(np.linalg.eigvalsh(herm)[-1])


def convergence_verdict(section: UnitExpression, generator: OperatorKernel,
                        horizon: float, schedule: Sequence[Partition], *,
                        candidate: str | None = None,
                        extension: ExtendedGenerator | None = None,
                        thresholds: VerdictThresholds | None = None,
                        seed: int | None = None) -> ConvergenceReport:
    """Run the full convergence analysis of a section over a schedule.

    The limit data comes from the adjoined label of the section's
    extension.  With ``candidate`` set, the criterion pairing is taken
    against that ambient unit instead, which tests whether the section
    converges to it; the limit gram stays the one the extension predicts.
    """
    ext = extension or extend_generator(section, generator)
    semigroup = ext.semigroup()
    d = generator.dim
    eye = unit_element(d)

    target = candidate if candidate is not None else ext.zeta
    if target not in semigroup.labels:
        raise KeyError(f"unknown target label {target!r}")
    target_kind = "ambient" if candidate is not None else "adjoined"
    target_expr = unit_expression(target, d)

    limit_gram = ext.diagonal.expm(horizon)          # pairing of the limit with itself
    limit_gram_one = limit_gram.apply(eye)
    target_gram_one = semigroup.entry(target, target, horizon).apply(eye)
    ambient_limits = {s: semigroup.entry(s, ext.zeta, horizon).apply(eye)
                      for s in generator.labels}

    schedule = sorted(schedule, key=lambda p: p.norm, reverse=True)

    def defects_for(partition: Partition):
        gram_map = eval_pairing(section, partition, section, partition, semigroup)
        gram_defect = superop_norm(gram_map - limit_gram)
        criterion_map = eval_pairing(target_expr, partition, section, partition, semigroup)
        criterion_one = criterion_map.apply(eye)
        criterion_defect = float(np.linalg.norm(criterion_one - limit_gram_one, 2))
        difference = (gram_map.apply(eye) - criterion_one - dagger(criterion_one)
                      + target_gram_one)
        norm_defect = _hermitian_top_eigenvalue(difference)
        ambient = {}
        for s in generator.labels:
            pairing = eval_pairing(unit_expression(s, d), partition, section, partition,
                                   semigroup).apply(eye)
            ambient[s] = float(np.linalg.norm(pairing - ambient_limits[s], 2))
        return gram_defect, criterion_defect, norm_defect, ambient

    results = [defects_for(p) for p in schedule]

    gram = [r[0] for r in results]
    crit = [r[1] for r in results]
    norm_d = [r[2] for r in results]
    ambient = {s: [r[3][s] for r in results] for s in generator.labels}

    notes = []
    if candidate is not None:
        gap = float(np.linalg.norm(target_gram_one - limit_gram_one, 2))
        if gap > 1e-12:
            notes.append(
                f"candidate gram differs from the predicted limit gram by {gap:.6e}; "
                "the limit unit lies outside the span of the candidate")
    return assemble_report(
        horizon=horizon, target=target, target_kind=target_kind,
        partitions=schedule, gram_defects=gram, criterion_defects=crit,
        norm_defects=norm_d, ambient_defects=ambient,
        thresholds=thresholds, notes=notes, seed=seed)


# -- second-order estimates and the product bound ----------------------------


@dataclass(frozen=True)
class Prop33Report:
    """Empirical constants and the partition-norm bound on the gram defect.

    ``second_order`` bounds the remainder of the section's pairing after
    removing identity and first-order parts; ``assembled_constant`` covers
    the per-interval distance between the section pairing and the limit
    semigroup.  The defect of every scheduled partition is compared with
    ``norm * horizon * exp(horizon * max(k_norm, second_order)) * assembled_constant``
    at the requested horizons (uniformity check).
    """

    k_norm: float
    second_order: float
    assembled_constant: float
    horizons: tuple[float, ...]
    rows: Mapping[float, tuple[dict, ...]]
    gram_rate: float | None
    bounds_hold: bool
    eventually_bounded: bool

    def __bool__(self) -> bool:
        return self.bounds_hold and self.eventually_bounded


def estimate_second_order(section: UnitExpression, extension: ExtendedGenerator) -> float:
    """Max of ``|<y_t, . y_t> - id - t K| / t^2`` over a small-time grid."""
    semigroup = extension.semigroup()
    d = semigroup.dim
    ident = Superoperator.identity(d)
    worst = 0.0
    for t in _SECOND_ORDER_TIMES:
        part = Partition((float(t),))
        pairing = eval_pairing(section, part, section, part, semigroup)
        remainder = pairing - ident - float(t) * extension.diagonal
        worst = max(worst, superop_norm(remainder) / float(t) ** 2)
    return worst


def prop33_bound_check(section: UnitExpression, extension: ExtendedGenerator,
                       horizon: float, schedule: Sequence[Partition]) -> Prop33Report:
    """Check the first-order-in-norm bound on the gram defect, report only."""
    semigroup = extension.semigroup()
    k_norm = superop_norm(extension.diagonal)
    second = estimate_second_order(section, extension)
    growth = max(k_norm, second)
    assembled = second + k_norm ** 2 * float(np.exp(horizon * k_norm))

    schedule = sorted(schedule, key=lambda p: p.norm, reverse=True)
    rows: dict[float, tuple[dict, ...]] = {}
    bounds_hold = True
    eventually_bounded = True
    gram_series: list[float] = []
    norm_series: list[float] = []
    for fraction in _HORIZON_FRACTIONS:
        t = horizon * fraction
        t_rows = []
        for base in schedule:
            part = base.scaled(t / base.length)
            pairing = eval_pairing(section, part, section, part, semigroup)
            defect = superop_norm(pairing - extension.diagonal.expm(t))
            bound = part.norm * t * float(np.exp(t * growth)) * assembled
            size_bound = float(np.exp(part.length * growth))
            size = superop_norm(pairing)
            ok = defect <= bound + 1e-12
            bounded = size <= size_bound + 1e-9
            bounds_hold = bounds_hold and ok
            eventually_bounded = eventually_bounded and bounded
            t_rows.append({
                "n": part.size, "norm": part.norm, "gram_defect": defect,
                "bound": bound, "bound_ok": ok,
                "pairing_norm": size, "pairing_norm_bound": size_bound,
                "bounded_ok": bounded,
            })
            if fraction == _HORIZON_FRACTIONS[-1]:
                gram_series.append(defect)
                norm_series.append(part.norm)
        rows[t] = tuple(t_rows)
    gram_rate = fit_rate(norm_series, gram_series)
    return Prop33Report(
        k_norm=k_norm, second_order=second, assembled_constant=assembled,
        horizons=tuple(horizon * f for f in _HORIZON_FRACTIONS), rows=rows,
        gram_rate=gram_rate, bounds_hold=bounds_hold,
        eventually_bounded=eventually_bounded)
