"""Independent oracles for pairings of sectioned products.

``trotterlab.trotter.eval_pairing`` pairs one partition with itself, as
every convergence report does.  These oracles also pair two different
partitions of the same length, over their common refinement, and check
the package's evaluation where the partitions agree:

* ``walk_pairing`` is a transfer walk over the distinct events of both
  sides' interval bounds and segment cuts, one map per pair of active
  terms;
* ``brute_force_pairing`` sums one chain per assignment of terms to
  intervals, exponential in the number of intervals.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
import scipy.linalg

from trotterlab.algebra import Superoperator, dagger, expm_times, left_right_rep
from trotterlab.kernels import OperatorKernel
from trotterlab.trotter import Partition
from trotterlab.units import Term, UnitExpression


def end_multipliers(term: Term, width):
    """A term's right and left multipliers on an interval of ``width``, twist included.

    A twist ``expm(width * twist)`` joins the multiplier of its declared
    side; an array of widths stacks that multiplier along a leading axis.
    """
    if term.twist is None:
        return term.right, term.left
    twist = scipy.linalg.expm(np.multiply.outer(width, term.twist))
    if term.twist_side == "right":
        return twist @ term.right, term.left
    return term.right, term.left @ twist


def walk_pairing(e1: UnitExpression, p1: Partition, e2: UnitExpression, p2: Partition,
                 generator: OperatorKernel) -> Superoperator:
    """Pairing over arbitrary partitions by a transfer walk over the common refinement.

    The walk visits, in time order, the events between the distinct points
    of both sides' interval bounds and segment cuts, both sides ending at
    the first side's length.  Points a rounding error apart give an event
    that narrow, so no segment is dropped.  The walk's state holds one map
    per pair of active terms, shape (n1, n2, d^2, d^2).  Where a side's
    interval starts, the state is summed over that side's term axis and
    multiplied by the stacked open multipliers; on every event it is
    multiplied by the entry exponentials of the two sides' labels,
    gathered by label code from the generator table exponentiated at
    every event width; where the interval ends, by the stacked close
    multipliers.  A term's twist joins its multiplier on the declared side,
    exponentiated by ``scipy.linalg.expm`` at the interval's width
    (:func:`end_multipliers`), not through the package's exponentials.  Side-1
    factors ``b -> m* b`` and side-2 factors ``b -> b m`` act on opposite
    slots and commute, so bounds the two sides share need no step of their
    own, and nearly shared bounds may come in either order.
    The partitions must have equal lengths, and the expressions the
    generator's dimension and labels.
    """
    d, labels = generator.dim, generator.labels
    bounds = [np.concatenate(([0.0], np.cumsum(p.parts))) for p in (p1, p2)]
    end = bounds[1][-1] = bounds[0][-1]
    events = [*bounds]
    for expr, b in zip((e1, e2), bounds):
        for term in expr.terms:
            events.append((b[:-1, None] + term.cuts * np.diff(b)[:, None]).ravel())
    grid = np.unique(np.minimum(np.concatenate(events), end))
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
    """One side of :func:`walk_pairing`, read off the midpoints of the event grid.

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
    for mults in zip(*(end_multipliers(term, widths) for term in expr.terms)):
        stack = np.stack([np.broadcast_to(m, (widths.size, *eye.shape)) for m in mults], axis=1)
        rep = left_right_rep(dagger(stack), eye) if axis == 0 else left_right_rep(eye, stack)
        factors.append(np.expand_dims(rep, 2 - axis))
    return index, np.r_[True, change], np.r_[change, True], codes, *factors


def brute_force_pairing(e1, p1, e2, p2, semigroup):
    """The pairing as a sum of single-term chains, one per assignment of terms to intervals.

    Each chain is the time-ordered product, over the grid of the distinct
    points of both sides' bounds and every term's segment cuts (both sides
    ending at the first side's length), of the entry exponential of the two
    assigned terms' labels, with a side's right multiplier (and right
    twist) entering where a grid point equals its interval's start and its
    left multiplier (and left twist) where one equals its end.
    """
    d = semigroup.generator.dim
    eye = np.eye(d)
    sides = [(expr, np.concatenate(([0.0], np.cumsum(p.parts))))
             for expr, p in ((e1, p1), (e2, p2))]
    end = sides[1][1][-1] = sides[0][1][-1]
    points = set()
    for expr, bounds in sides:
        points.update(bounds)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            points.update(lo + f * (hi - lo) for term in expr.terms for f in term.cuts)
    grid = sorted({min(x, end) for x in points})

    total = np.zeros((d * d, d * d), dtype=complex)
    choices = [itertools.product(range(len(expr.terms)), repeat=len(b) - 1) for expr, b in sides]
    for assignment in itertools.product(*choices):
        rep = np.eye(d * d, dtype=complex)
        for lo, hi in zip(grid[:-1], grid[1:]):
            mid = (lo + hi) / 2
            pieces = []
            for (expr, bounds), chosen in zip(sides, assignment):
                i = int(np.searchsorted(bounds, mid, side="right")) - 1
                term = expr.terms[chosen[i]]
                width = bounds[i + 1] - bounds[i]
                right, left = end_multipliers(term, width)
                label = term.segments[term.segment_index((mid - bounds[i]) / width)].label
                pieces.append((right, left, label, lo == bounds[i], hi == bounds[i + 1]))
            (r1, l1, s, open1, close1), (r2, l2, t, open2, close2) = pieces
            if open1:
                rep = rep @ left_right_rep(dagger(r1), eye)
            if open2:
                rep = rep @ left_right_rep(eye, r2)
            rep = rep @ semigroup.entry_rep(s, t, hi - lo)
            if close1:
                rep = rep @ left_right_rep(dagger(l1), eye)
            if close2:
                rep = rep @ left_right_rep(eye, l2)
        total += rep
    return total
