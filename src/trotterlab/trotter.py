"""Interval partitions, pairings of sectioned products, and convergence verdicts.

A partition of ``[0, t]`` is stored as the tuple of its interval widths in
time order (earliest interval first); ``parts[0]`` covers ``[0, parts[0])``.
A pairing cuts both sides by the same partition and takes a generator
kernel.  :func:`convergence_verdict` takes the section's verdict from
:func:`trotterlab.units._decide_verdict`, which compares the entries that
the section's :class:`trotterlab.units.Extension` carries, then pairs every
partition of its schedule with itself under that kernel and reads its
limit maps off the kernel's semigroup at the horizon.

Pairing convention.  For elements composed over consecutive intervals,
the inner-product map of a composition factorizes into the entry maps of
the two sides' labels on each interval.  The factor belonging to the
*latest* interval acts first on the operand, so representation matrices
multiply in time order, earliest leftmost:

    rep(<x, . y>) = block(I_1) @ block(I_2) @ ... @ block(I_n)

with ``I_1`` the earliest interval.  Units compose over consecutive
intervals, so at every cut both sides close an interval and open the
next: every pair of terms ends on its close multipliers, and the sum over
term pairs on one interval is one block map.  Within an interval a term's
right multiplier (and a right-side twist, whose exponent scales with the
interval width) enters at the earliest position, the left multiplier (and
left-side twist) at the latest, as :func:`trotterlab.units._term_pairs`
states.  Equal widths give equal blocks, so :func:`eval_pairing` raises
the block of one interval to the n-th power when more than 8 widths are
all equal.

Every matrix exponential here is a semigroup ``exp(w L)`` at many times
``w``, which :func:`trotterlab.algebra.expm_times` evaluates as one batch:
one (times x degree) by (degree x table) matmul plus s stacked squarings,
with s the scaling exponent of the largest time.  A pairing makes one
such call per chunk of its intervals, on the stack of every map it needs:
the (segment fraction, label pair) entries and the twists.  It holds one
chunk at a time, so its memory does not grow with the partition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Mapping, Sequence

import numpy as np

from .algebra import Superoperator, dagger, expm_times, superop_norm, unit_element
from .kernels import CpdSemigroup, OperatorKernel
from .units import Extension, UnitExpression, _decide_verdict, _term_pairs, unit_expression

__all__ = [
    "Partition",
    "dyadic_schedule",
    "random_schedule",
    "eval_pairing",
    "ConvergenceReport",
    "assemble_report",
    "convergence_verdict",
    "fit_rate",
]

# Defects at or below this are rounding noise and do not enter rate fits.
_RATE_FLOOR = 1e-13
# A norm-convergent criterion defect fitted at least this rate in h2 decays at
# first order (Obs. 3.5): uniform dyadic sequences then suffice.
_OBS35_RATE = 0.9
# Draws per random partition.  One fails with probability about 1 - exp(-n * 1e-6),
# at most 0.4% for n <= 4096, so only a horizon too small for n parts fails them all.
_SCHEDULE_DRAWS = 100
# A same-partition pairing exponentiates its stacked generator entries for
# a chunk of intervals at a time: as many as fit this many bytes, at least
# the floor.  The budget sets the chunk at d <= 2, the floor at d >= 3.
# Larger budgets ran slower at d = 2.  At d = 1 the budget holds whole
# partitions of 4,096 parts: a fixed 128 intervals instead made
# counterexample_41 on random:8 take 125 ms rather than 78 ms (medians of
# 12 fresh processes, 2 vCPU).  Without the floor, d >= 4 gets 1-4
# intervals per chunk and pays numpy call overhead on each.
_CHUNK_BYTES = 128 * 1024
_CHUNK_MIN_INTERVALS = 64


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
    def norm(self) -> float:
        return float(max(self.parts))

    @property
    def size(self) -> int:
        return len(self.parts)

    @property
    def time_widths(self) -> tuple[float, ...]:
        """The widths, earliest first: ``parts`` under the name the benchmark reads."""
        return self.parts


def dyadic_schedule(length: float, k_min: int, k_max: int) -> list[Partition]:
    """Uniform partitions with 2^k parts, k = k_min..k_max."""
    return [Partition.uniform(length, 2 ** k) for k in range(k_min, k_max + 1)]


def random_schedule(length: float, count: int, seed: int = 0) -> list[Partition]:
    """Random partitions with shrinking norms, exercising the net claim.

    A draw with a part narrower than ``1e-6 * length / n`` is redrawn, and
    ``ValueError`` is raised after ``_SCHEDULE_DRAWS`` failed draws.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(round(8 * 2 ** (i * 9.0 / max(count - 1, 1))))
        for _ in range(_SCHEDULE_DRAWS):
            cuts = np.sort(rng.uniform(0.0, length, size=n - 1)) if n > 1 else np.array([])
            grid = np.concatenate([[0.0], cuts, [length]])
            widths = np.diff(grid)
            if widths.min(initial=length) > 1e-6 * length / n:
                break
        else:
            raise ValueError(f"no random partition of horizon {length!r} into {n} parts "
                             f"in {_SCHEDULE_DRAWS} draws; the horizon is too small")
        out.append(Partition(widths))
    return out


# -- pairing evaluation -------------------------------------------------------


def _tree_product(stack: np.ndarray) -> np.ndarray:
    """The ordered product ``stack[0] @ stack[1] @ ...`` by pairwise halving."""
    while len(stack) > 1:
        even = len(stack) - len(stack) % 2
        paired = stack[0:even:2] @ stack[1:even:2]
        stack = np.concatenate([paired, stack[even:]]) if even < len(stack) else paired
    return stack[0]


def eval_pairing(e1: UnitExpression, p1: Partition, e2: UnitExpression, p2: Partition,
                 generator: OperatorKernel) -> Superoperator:
    """The map ``b -> <x composed over p1, b * (y composed over p2)>``, for ``p1 == p2``.

    ``generator`` is the generator kernel over the expressions' labels.
    Exact up to matrix-exponential accuracy: every interval contributes the
    generator entry's exponential for the two sides' active labels, with
    multipliers and twists inserted at the proper boundaries.  Both sides
    are cut by the same partition; two different ones raise ``ValueError``.
    One of two evaluations runs:

    * more than 8 parts, all of equal width: the pairing of one interval,
      from a recursive call, raised to the n-th power; O(log n) products of
      d^2 x d^2 matrices;
    * otherwise the interval blocks of one time-ordered chunk of intervals
      at a time, each chunk's ordered product folded into the running one
      (:func:`_batched_pairing`); O(n) work in O(n / chunk * log chunk)
      stacked numpy calls, and O(chunk * keys * d^4) memory whatever n,
      with keys the distinct maps, generator entries and twists.

    The exponentials come from :func:`trotterlab.algebra.expm_times`: one
    matmul per chunk of the stacked maps plus s stacked squarings (2^s
    bounds the largest time times the largest 1-norm of a stacked map).
    """
    if p1.parts != p2.parts:
        raise ValueError(f"a pairing needs the same partition on both sides, got partitions "
                         f"of {p1.size} and {p2.size} parts")
    n = p1.size
    if n > 8 and p1.parts.count(p1.parts[0]) == n:
        interval = Partition(p1.parts[:1])
        block = eval_pairing(e1, interval, e2, interval, generator)
        return Superoperator(generator.dim, np.linalg.matrix_power(block.rep, n))
    return _batched_pairing(e1, e2, p1, generator)


def _batched_pairing(e1: UnitExpression, e2: UnitExpression, partition: Partition,
                     generator: OperatorKernel) -> Superoperator:
    """Pairing over the same partition on both sides, as a product of interval blocks.

    On an interval of width w the pairing is the block
    ``B(w) = sum over term pairs of open @ exp(w stack[keys]) in order @ close``,
    from :func:`trotterlab.units._term_pairs`: its stack holds every
    distinct map once, the (segment fraction, label1, label2) entries of
    the term pairs' merged segments and the twists, so ``B``'s derivative
    at w = 0 is :func:`trotterlab.units.pair_derivative`.  The intervals
    are taken in time-ordered chunks of
    ``max(_CHUNK_MIN_INTERVALS, _CHUNK_BYTES // stack bytes)``.  Per chunk:

    * one :func:`trotterlab.algebra.expm_times` call exponentiates the whole
      stack at every width of the chunk, laid out key-major;
    * a multiplier that is a multiple of the identity scales the stack
      instead of multiplying it, decided once by :func:`_multiplier`;
    * the chunk's blocks are multiplied in time order, earliest leftmost,
      by :func:`_tree_product`, and the chunk product is folded into the
      running product from the right.

    Work is O(n * keys * d^6) in O(n / chunk) rounds of stacked numpy
    calls; memory is O(chunk * keys * d^4), however long the partition.
    """
    stack, pairs = _term_pairs(e1, e2, generator)
    pairs = [(_multiplier(o, left=True), keys, _multiplier(c, left=False)) for o, keys, c in pairs]
    step = max(_CHUNK_MIN_INTERVALS, _CHUNK_BYTES // stack.nbytes)
    parts = np.asarray(partition.parts)
    total = None
    for start in range(0, parts.size, step):
        exps = np.ascontiguousarray(expm_times(stack, parts[start:start + step]).swapaxes(0, 1))
        blocks = 0.0
        for open_, (first, *rest), close in pairs:
            acc = open_(exps[first])
            for k in rest:
                acc = acc @ exps[k]
            blocks = blocks + close(acc)
        product = _tree_product(blocks)
        total = product if total is None else total @ product
    return Superoperator(generator.dim, total)


def _multiplier(m: np.ndarray, left: bool):
    """``m`` applied to a stack from the left or the right; a scaling where ``m == c * I``.

    The multipliers of affine sections are such multiples, so their
    pairings scale a stack instead of running one small matmul per slice.
    """
    scale = m[0, 0]
    if np.array_equal(m, scale * np.eye(len(m))):
        return (lambda stack: stack) if scale == 1 else (lambda stack: scale * stack)
    return (lambda stack: m @ stack) if left else (lambda stack: stack @ m)


# -- reports ------------------------------------------------------------------


def fit_rate(norms: Sequence[float], defects: Sequence[float]) -> float | None:
    """Log-log slope of defect against step size, ignoring noise-floor points."""
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
class ConvergenceReport:
    """Defect series of a sectioned product against a target unit.

    ``gram_defect`` measures the pairing of the section with itself against
    the limit gram predicted by the extension; ``criterion_defect`` the
    pairing of the target unit with the section against that same limit
    gram, both evaluated at the algebra unit for the element form; and
    ``norm_defect`` is the squared distance assembled from the three
    pairings, reported as the top eigenvalue of the (ideally positive)
    difference element.  ``norms`` are the partition norms; the rates are
    fitted against h2 = sum of squared widths over the horizon.
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


def assemble_report(*, horizon: float, target: str, target_kind: str,
                    partitions: Sequence[Partition],
                    gram_defects: Sequence[float],
                    criterion_defects: Sequence[float],
                    norm_defects: Sequence[float],
                    ambient_defects: Mapping[str, Sequence[float]],
                    verdict: str,
                    notes: Sequence[str] = (), seed: int | None = None) -> ConvergenceReport:
    """Fit rates against h2 to precomputed defect series, and record the caller's verdict."""
    norms = tuple(p.norm for p in partitions)
    sizes = tuple(p.size for p in partitions)
    h2 = [float(w @ w / w.sum()) for w in (np.asarray(p.parts) for p in partitions)]
    crit_rate = fit_rate(h2, criterion_defects)
    gram_rate = fit_rate(h2, gram_defects)
    obs35 = verdict == "norm-convergent" and crit_rate is not None and crit_rate >= _OBS35_RATE
    all_notes = list(notes)
    if obs35:
        all_notes.append(
            "criterion defect decays at first order in h2 = sum of squared widths / t "
            "(second order per interval); uniform dyadic sequences suffice")
    return ConvergenceReport(
        horizon=horizon, target=target, target_kind=target_kind,
        sizes=sizes, norms=norms,
        gram_defects=tuple(float(g) for g in gram_defects),
        criterion_defects=tuple(float(c) for c in criterion_defects),
        norm_defects=tuple(float(m) for m in norm_defects),
        ambient_defects={k: tuple(float(x) for x in v) for k, v in ambient_defects.items()},
        criterion_rate=crit_rate, gram_rate=gram_rate, verdict=verdict,
        obs35_sequences_suffice=obs35, notes=tuple(all_notes), seed=seed)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises the ValueError below
def convergence_verdict(section: UnitExpression, extension: Extension,
                        horizon: float, schedule: Sequence[Partition], *,
                        candidate: str | None = None,
                        seed: int | None = None) -> ConvergenceReport:
    """Run the full convergence analysis of a section over a schedule.

    ``extension`` is the section's :func:`trotterlab.units.extend_generator`
    result.  Every limit map is an entry of its semigroup at the horizon;
    its last label is the adjoined one, and the others are the ambient
    units.  With ``candidate`` set, the criterion pairing is taken
    against that ambient unit instead, which tests whether the section
    converges to it; the limit gram stays the one the extension predicts.
    Each ambient defect compares the pairing of unit ``s`` with the
    section against ``s``'s pairing with the target (the adjoined label,
    or the candidate), so a candidate that the products do not approach
    even weakly leaves a finite ambient defect.  The verdict compares what
    ``extension`` carries (:func:`trotterlab.units._decide_verdict`) before
    any limit map or pairing is made; the defect series show how the
    schedule approaches the limits.  A note gives the limit grams' gap
    when ``K^{zeta zeta}`` and ``K^{w w}`` differ under the same rule.  A
    pairing or limit map that overflows raises ``ValueError`` naming the
    verdict and the partition size (a refused allowance raises it first).
    """
    kernel, zeta = extension, extension.labels[-1]
    ambient_labels = tuple(s for s in kernel.labels if s != zeta)
    d = kernel.dim
    eye = unit_element(d)

    target = candidate if candidate is not None else zeta
    if candidate is not None and candidate not in ambient_labels:
        raise KeyError(f"candidate {candidate!r} is not an ambient unit label")
    verdict, grams_agree = _decide_verdict(kernel, candidate)
    semigroup = CpdSemigroup(kernel)
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
            raise ValueError(f"the verdict is {verdict}, but a pairing or limit map is not "
                             f"finite at partition size {partition.size} (horizon {horizon})")
        gram_defect = superop_norm(gram_map - limit_gram)
        criterion_one = criterion_map.apply(eye)
        criterion_defect = float(np.linalg.norm(criterion_one - limit_gram_one, 2))
        difference = (gram_map.apply(eye) - criterion_one - dagger(criterion_one)
                      + target_gram_one)
        norm_defect = float(np.linalg.eigvalsh((difference + dagger(difference)) / 2.0)[-1])
        ambient = {s: float(np.linalg.norm(ambient_maps[s].apply(eye) - ambient_limits[s], 2))
                   for s in ambient_labels}
        return gram_defect, criterion_defect, norm_defect, ambient

    results = [defects_for(p) for p in schedule]

    gram = [r[0] for r in results]
    crit = [r[1] for r in results]
    norm_d = [r[2] for r in results]
    ambient = {s: [r[3][s] for r in results] for s in ambient_labels}

    notes = []
    if not grams_agree:
        gap = float(np.linalg.norm(target_gram_one - limit_gram_one, 2))
        notes.append(f"candidate gram differs from the predicted limit gram by {gap:.6e}; "
                     "the limit unit lies outside the span of the candidate")
    return assemble_report(
        horizon=horizon, target=target, target_kind=target_kind,
        partitions=schedule, gram_defects=gram, criterion_defects=crit,
        norm_defects=norm_d, ambient_defects=ambient,
        verdict=verdict, notes=notes, seed=seed)

