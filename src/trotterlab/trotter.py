"""Interval partitions, pairings of sectioned products, and convergence verdicts.

A partition of ``[0, t]`` is stored as the tuple of its interval widths in
time order (earliest interval first); ``parts[0]`` covers ``[0, parts[0])``.
Partitions of equal length are paired over their common refinement, the
union of their cut points, which the transfer walk merges into its own
event grid; no partition object is built for it.

A pairing takes a generator kernel.  :func:`convergence_verdict` passes
the section's extended kernel and reads its limit maps off that kernel's
semigroup at the horizon.

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

A cut that both partitions share splits the pairing.  Units compose over
consecutive intervals, so at such a cut both sides close an interval and
open the next: every pair of terms ends on its close multipliers, the sum
over term pairs is one map, and the rest of the product starts from that
map alone.  The pairing is the ordered product of the pairings of the
pieces between shared cuts.  :func:`eval_pairing` uses this where the
pieces are alike: with every width equal on each side and
g = gcd(n1, n2) > 8, it pairs one period and raises it to the g-th power.
The same partition of n equal parts is the case g = n; nested dyadic
partitions pair one interval against two.  Other pairs are evaluated
whole, from the stacked interval blocks of a shared partition (every
caller in this module) or by a transfer walk over both sides' events.

Every matrix exponential here is a semigroup ``exp(w L)`` at many times
``w``, which :func:`trotterlab.algebra.expm_times` evaluates as one batch:
one (times x degree) by (degree x table) matmul per (label pair, segment
fraction), per twisted term, or per generator table, plus s stacked
squarings, with s the scaling exponent of the largest time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
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
from .units import ExtendedGenerator, Term, UnitExpression, _merged_segments, unit_expression

__all__ = [
    "Partition",
    "dyadic_schedule",
    "random_schedule",
    "eval_pairing",
    "VerdictThresholds",
    "ConvergenceReport",
    "assemble_report",
    "convergence_verdict",
    "fit_rate",
]

# Of equal lengths and of merged walk events, relative to the partition length
# so that no decision depends on the time unit.
_LENGTH_TOL = 1e-12
# Defects at or below this are rounding noise and do not enter rate fits.
_RATE_FLOOR = 1e-13


@dataclass(frozen=True)
class Partition:
    """An interval partition, widths stored in time order, earliest first."""

    parts: tuple[float, ...]

    def __post_init__(self):
        parts = tuple(float(p) for p in self.parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if not all(0.0 < p < math.inf for p in parts):  # NaN fails both comparisons
            raise ValueError("all parts must be positive and finite")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def uniform(cls, length: float, n: int) -> "Partition":
        if n < 1:
            raise ValueError("need at least one part")
        return cls((float(length) / n,) * n)

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
        """The widths, earliest first: ``parts`` under the name the benchmark reads."""
        return self.parts


def _merge_cuts(cuts: Sequence[float], tol: float) -> list[float]:
    out: list[float] = []
    for c in sorted(cuts):
        if not out or c - out[-1] > tol:
            out.append(c)
    return out


def dyadic_schedule(length: float, k_min: int, k_max: int) -> list[Partition]:
    """Uniform partitions with 2^k parts, k = k_min..k_max."""
    return [Partition.uniform(length, 2 ** k) for k in range(k_min, k_max + 1)]


def random_schedule(length: float, count: int, seed: int = 0) -> list[Partition]:
    """Random partitions with shrinking norms, exercising the net claim."""
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
        out.append(Partition(widths))
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
                 generator: OperatorKernel) -> Superoperator:
    """The map ``b -> <x composed over p1, b * (y composed over p2)>``.

    ``generator`` is the generator kernel over the expressions' labels.
    Exact up to matrix-exponential accuracy: every interval of the common
    refinement contributes the generator entry's exponential for the two
    sides' active labels, with multipliers and twists inserted at the
    proper boundaries.
    One of three evaluations runs, chosen from the partitions:

    * every width equal on each side, with g = gcd(n1, n2) > 8: the pairing
      of one period, n1/g parts against n2/g, from a recursive call, raised
      to the g-th power; both sides cut at every multiple of t/g, where
      the walk's state sums to a single map, so the product splits into g
      equal factors; O(log g) products of d^2 x d^2 matrices;
    * otherwise the same partition on both sides: every interval's block
      at once, then their ordered product (:func:`_batched_pairing`); O(n)
      work in O(log n) stacked numpy calls and O(n d^4) memory;
    * otherwise the transfer walk over the N events of the common
      refinement and the segment cuts (:func:`_walk_pairing`); O(N) numpy
      steps on a (terms1, terms2, d^2, d^2) state, with the multipliers
      stacked per interval, O(n * terms * d^4), and the entry exponentials
      per event, O(N * terms1 * terms2 * d^4), gathered from one
      exponential of the generator table at every event width.

    The exponentials come from :func:`trotterlab.algebra.expm_times`: one
    matmul per (label pair, segment fraction) and per twisted term, plus
    s stacked squarings (2^s bounds the largest time times the generator's
    1-norm).
    """
    length = p1.length
    if abs(length - p2.length) > _LENGTH_TOL * length:
        raise ValueError(f"partition lengths differ: {length} vs {p2.length}")
    if e1.dim != generator.dim or e2.dim != generator.dim:
        raise ValueError("expression and generator dimensions disagree")
    e1.require_labels(generator.labels)
    e2.require_labels(generator.labels)

    g = math.gcd(p1.size, p2.size)
    if g > 8 and len(set(p1.parts)) == 1 and len(set(p2.parts)) == 1:
        # Equal widths on each side: every (size // g)-th cut is shared, one period repeats.
        period1, period2 = (Partition(p.parts[:p.size // g]) for p in (p1, p2))
        block = eval_pairing(e1, period1, e2, period2, generator)
        return Superoperator(generator.dim, np.linalg.matrix_power(block.rep, g))
    if p1.parts == p2.parts:
        return _batched_pairing(e1, e2, p1, generator)
    return _walk_pairing(e1, p1, e2, p2, generator)


def _batched_pairing(e1: UnitExpression, e2: UnitExpression, partition: Partition,
                     generator: OperatorKernel) -> Superoperator:
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
    widths, inverse = np.unique(np.asarray(partition.parts), return_inverse=True)
    d2 = generator.dim ** 2
    blocks = np.zeros((widths.size, d2, d2), dtype=complex)
    mults2 = [(_open_mult(t2, widths), _close_mult(t2, widths)) for t2 in e2.terms]
    for t1 in e1.terms:
        open1, close1 = _open_mult(t1, widths), _close_mult(t1, widths)
        for t2, (open2, close2) in zip(e2.terms, mults2):
            acc = left_right_rep(dagger(open1), open2)
            for fraction, s, t in _merged_segments(t1, t2):
                acc = acc @ expm_times(generator[(s, t)].rep, fraction * widths)
            blocks += acc @ left_right_rep(dagger(close1), close2)
    return Superoperator(generator.dim, _tree_product(blocks[inverse]))


def _walk_pairing(e1: UnitExpression, p1: Partition, e2: UnitExpression, p2: Partition,
                  generator: OperatorKernel) -> Superoperator:
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
    d, labels = generator.dim, generator.labels
    bounds = [np.concatenate(([0.0], np.cumsum(p.parts))) for p in (p1, p2)]
    events = [*bounds[0], *bounds[1]]
    for expr, b in zip((e1, e2), bounds):
        for term in expr.terms:
            cuts = b[:-1, None] + np.asarray(term.cut_fractions()) * np.diff(b)[:, None]
            events.extend(cuts.ravel())
    grid = np.array(_merge_cuts(events, _LENGTH_TOL * p1.length))
    mids = (grid[:-1] + grid[1:]) / 2.0
    i1, start1, end1, codes1, open1, close1 = _walk_side(e1, bounds[0], mids, labels, 0)
    i2, start2, end2, codes2, open2, close2 = _walk_side(e2, bounds[1], mids, labels, 1)

    table = expm_times(generator.table, np.diff(grid))
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

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
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
    obs35 = verdict == "norm-convergent" and crit_rate is not None and crit_rate >= thr.obs35_rate
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


@np.errstate(over="ignore", invalid="ignore")  # overflow raises the ValueError below
def convergence_verdict(section: UnitExpression, extension: ExtendedGenerator,
                        horizon: float, schedule: Sequence[Partition], *,
                        candidate: str | None = None,
                        thresholds: VerdictThresholds | None = None,
                        seed: int | None = None) -> ConvergenceReport:
    """Run the full convergence analysis of a section over a schedule.

    ``extension`` is the section's :func:`trotterlab.units.extend_generator`
    result.  Every limit map is an entry of its kernel's semigroup at the
    horizon, and its labels other than the adjoined one are the ambient
    units.  With ``candidate`` set, the criterion pairing is taken
    against that ambient unit instead, which tests whether the section
    converges to it; the limit gram stays the one the extension predicts.
    Each ambient defect compares the pairing of unit ``s`` with the
    section against ``s``'s pairing with the target (the adjoined label,
    or the candidate), so a candidate that the products do not approach
    even weakly leaves a finite ambient defect.  A pairing or limit map
    that overflows is not finite, and raises ``ValueError`` naming the
    partition size.
    """
    kernel, zeta = extension.kernel, extension.zeta
    semigroup = CpdSemigroup(kernel)
    ambient_labels = tuple(s for s in kernel.labels if s != zeta)
    d = kernel.dim
    eye = unit_element(d)

    target = candidate if candidate is not None else zeta
    if candidate is not None and candidate not in ambient_labels:
        raise KeyError(f"candidate {candidate!r} is not an ambient unit label")
    target_kind = "ambient" if candidate is not None else "adjoined"
    target_expr = unit_expression(target, d)

    limit_gram = semigroup.entry(zeta, zeta, horizon)  # pairing of the limit with itself
    limit_gram_one = limit_gram.apply(eye)
    ambient_limits = {s: semigroup.entry(s, target, horizon).apply(eye) for s in ambient_labels}
    # A candidate is ambient, so its own gram is among the ambient limits.
    target_gram_one = limit_gram_one if candidate is None else ambient_limits[target]
    limits = [limit_gram.rep, target_gram_one, *ambient_limits.values()]

    schedule = sorted(schedule, key=lambda p: p.norm, reverse=True)

    def defects_for(partition: Partition):
        gram_map = eval_pairing(section, partition, section, partition, kernel)
        criterion_map = eval_pairing(target_expr, partition, section, partition, kernel)
        ambient_maps = {s: eval_pairing(unit_expression(s, d), partition, section, partition,
                                        kernel) for s in ambient_labels}
        maps = [gram_map.rep, criterion_map.rep, *(m.rep for m in ambient_maps.values())]
        if not all(np.isfinite(m).all() for m in maps + limits):
            raise ValueError(f"pairing or limit map is not finite at partition size "
                             f"{partition.size} (horizon {horizon})")
        gram_defect = superop_norm(gram_map - limit_gram)
        criterion_one = criterion_map.apply(eye)
        criterion_defect = float(np.linalg.norm(criterion_one - limit_gram_one, 2))
        difference = (gram_map.apply(eye) - criterion_one - dagger(criterion_one)
                      + target_gram_one)
        norm_defect = _hermitian_top_eigenvalue(difference)
        ambient = {s: float(np.linalg.norm(ambient_maps[s].apply(eye) - ambient_limits[s], 2))
                   for s in ambient_labels}
        return gram_defect, criterion_defect, norm_defect, ambient

    results = [defects_for(p) for p in schedule]

    gram = [r[0] for r in results]
    crit = [r[1] for r in results]
    norm_d = [r[2] for r in results]
    ambient = {s: [r[3][s] for r in results] for s in ambient_labels}

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

