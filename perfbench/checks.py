"""Correctness checks on the CSVs that ``trotterlab run`` writes.

Two independent sources of expected defect series:

* :func:`fock_expected` -- the counterexample scenario (vacuum and
  indicator alternation against the candidate ``w``) has exact defects on
  every partition, taken from the closed-form exponential vectors of
  :mod:`trotterlab.fock`: gram defect 0, criterion and norm defect
  ``e^{t/2} - e^{t/4}``; the section of ``w`` itself has all defects 0.
* :func:`affine_expected` -- an affine section ``y = sum_l c_l xi_l`` over
  one partition on both sides pairs to the time-ordered product of
  per-interval blocks ``sum_{l,m} conj(c_l) c_m exp(w K(l, m))``.  This
  evaluates that product with one stacked ``expm`` per label pair, a
  different path from the package's transfer walk.

Both are compared with an absolute tolerance that grows with the number
of intervals, :func:`tolerance`.  A relative tolerance cannot work: the
norm defects fall to ~1e-8 while the pairings they are differences of
are of size ~1, so rounding of ~1e-16 per interval product shows up as a
relative error of up to ~1e-5.  For scale: at 4096 intervals the pairing
maps of the package's own uniform fast path and of its walk differ by up
to 1.4e-12 entrywise.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import scipy.linalg

COLUMNS = ("n", "norm", "gram_defect", "criterion_defect", "norm_defect")
DEFECTS = COLUMNS[2:]

# Absolute tolerance a + b * n for a defect on a partition of n intervals.
ATOL_BASE = 1e-13
ATOL_PER_INTERVAL = 1e-15


def tolerance(n: int) -> float:
    return ATOL_BASE + ATOL_PER_INTERVAL * n


def read_defect_csv(path) -> list[dict]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != COLUMNS:
            raise ValueError(f"{path}: columns {reader.fieldnames}, expected {list(COLUMNS)}")
        return [{"n": int(row["n"]), **{c: float(row[c]) for c in COLUMNS[1:]}}
                for row in reader]


def compare_rows(name: str, actual: list[dict], expected: list[dict]) -> list[str]:
    """Problems found comparing one expression's CSV rows with expected rows."""
    if [r["n"] for r in actual] != [r["n"] for r in expected]:
        return [f"{name}: sizes {[r['n'] for r in actual]} != "
                f"expected {[r['n'] for r in expected]}"]
    problems = []
    for got, want in zip(actual, expected):
        n = got["n"]
        if abs(got["norm"] - want["norm"]) > 1e-12 * want["norm"]:
            problems.append(f"{name} n={n}: norm {got['norm']!r} != {want['norm']!r}")
        for column in DEFECTS:
            diff = abs(got[column] - want[column])
            if not diff <= tolerance(n):
                problems.append(f"{name} n={n}: {column} {got[column]!r} differs from "
                                f"{want[column]!r} by {diff:.3e} > {tolerance(n):.3e}")
    return problems


def _rows(partitions, gram, criterion, norm_defect) -> list[dict]:
    return [{"n": p.size, "norm": p.norm, "gram_defect": float(g),
             "criterion_defect": float(c), "norm_defect": float(m)}
            for p, g, c, m in zip(partitions, gram, criterion, norm_defect)]


def _by_norm(schedule):
    # The CLI reports partitions coarsest first.
    return sorted(schedule, key=lambda p: p.norm, reverse=True)


# -- counterexample: exact Fock-space values -----------------------------------

def fock_expected(scenario, schedule) -> dict[str, list[dict]]:
    """Exact defect rows of ``counterexample_41`` on every scheduled partition."""
    from trotterlab.fock import (ExponentialUnit, ExponentialVector, StepFunction,
                                 covariance_kernel, fock_inner)
    from trotterlab.scenario import build_generator

    vacuum = ExponentialUnit(0.0, (0.0,))
    indicator = ExponentialUnit(0.0, (1.0,))
    candidate = ExponentialUnit(0.0, (0.5,))
    kernel = covariance_kernel({"u": vacuum, "v": indicator, "w": candidate})
    generator = build_generator(scenario)
    if generator.labels != kernel.labels or any(
            not np.allclose(generator[k].rep, kernel[k].rep, atol=0, rtol=0)
            for k in kernel.entries):
        raise ValueError("scenario generator is not the Fock covariance of the "
                         "vacuum, indicator and candidate units")
    t = scenario.horizon
    # The limit unit lives in doubled multiplicity; its gram is the limit gram.
    zeta = ExponentialUnit(0.0, (0.5, 0.5)).vector(t)
    limit_gram = fock_inner(zeta, zeta).real
    w = candidate.vector(t)
    w_gram = fock_inner(w, w).real

    y_rows, w_rows = [], []
    partitions = _by_norm(schedule)
    for p in partitions:
        # concat(u@0.5, v@0.5) on every interval: vacuum on the first half,
        # indicator on the second.
        widths = np.asarray(p.time_widths)
        lo = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
        mids = lo + widths / 2.0
        breakpoints = np.empty(2 * len(widths) + 1)
        breakpoints[0] = 0.0
        breakpoints[1::2] = mids
        breakpoints[2::2] = np.cumsum(widths)
        breakpoints[-1] = t
        values = [vacuum.amplitude, indicator.amplitude] * len(widths)
        y = ExponentialVector(1.0, StepFunction(1, tuple(breakpoints), tuple(values)))
        y_gram = fock_inner(y, y).real
        w_pair = fock_inner(w, y)
        y_rows.append((abs(y_gram - limit_gram), abs(w_pair - limit_gram),
                       y_gram - 2.0 * w_pair.real + w_gram))
        w_rows.append((0.0, 0.0, 0.0))
    return {"y": _rows(partitions, *zip(*y_rows)),
            "w_section": _rows(partitions, *zip(*w_rows))}


# -- affine sections: stacked per-interval blocks ------------------------------

def _affine_terms(expression):
    """(coefficient, label) per term of a section made of scalar multiples of units."""
    d = expression.dim
    eye = np.eye(d)
    terms = []
    for term in expression.terms:
        if term.twist is not None or len(term.segments) != 1:
            raise ValueError("affine reference needs untwisted single-segment terms")
        coefficient = term.left[0, 0] * term.right[0, 0]
        if not (np.allclose(term.left, term.left[0, 0] * eye, atol=0)
                and np.allclose(term.right, term.right[0, 0] * eye, atol=0)):
            raise ValueError("affine reference needs scalar multipliers")
        terms.append((complex(coefficient), term.segments[0].label))
    return terms


def _ordered_product(blocks: np.ndarray) -> np.ndarray:
    acc = blocks[0]
    for block in blocks[1:]:
        acc = acc @ block
    return acc


def affine_expected(scenario, schedule) -> dict[str, list[dict]]:
    """Defect rows of every affine section of ``scenario`` against its limit unit."""
    from trotterlab.algebra import Superoperator, superop_norm
    from trotterlab.scenario import build_generator

    generator = build_generator(scenario)
    d = generator.dim
    eye = np.eye(d)
    t = scenario.horizon
    partitions = _by_norm(schedule)
    out = {}
    for name, expression in scenario.expressions.items():
        if name in scenario.candidates:
            raise ValueError("affine reference covers sections against their limit unit")
        terms = _affine_terms(expression)
        K = {(a, b): generator[(a, b)].rep for a in generator.labels for b in generator.labels}
        # Derivative data of the adjoined limit unit zeta.
        k_zz = sum(np.conj(cl) * cm * K[(a, b)] for cl, a in terms for cm, b in terms)
        k_z = {b: sum(np.conj(cl) * K[(a, b)] for cl, a in terms) for b in generator.labels}
        limit = scipy.linalg.expm(t * k_zz)
        limit_one = Superoperator(d, limit).apply(eye)

        gram, criterion, norm_defect = [], [], []
        for p in partitions:
            w = np.asarray(p.time_widths)[:, None, None]
            exp = {}
            for _, a in terms:
                for _, b in terms:
                    if (a, b) not in exp:
                        exp[(a, b)] = scipy.linalg.expm(w * K[(a, b)])
                if ("zeta", a) not in exp:
                    exp[("zeta", a)] = scipy.linalg.expm(w * k_z[a])
            gram_blocks = sum(np.conj(cl) * cm * exp[(a, b)] for cl, a in terms for cm, b in terms)
            crit_blocks = sum(cm * exp[("zeta", b)] for cm, b in terms)
            gram_map = _ordered_product(gram_blocks)
            crit_one = Superoperator(d, _ordered_product(crit_blocks)).apply(eye)
            gram.append(superop_norm(Superoperator(d, gram_map - limit)))
            criterion.append(float(np.linalg.norm(crit_one - limit_one, 2)))
            difference = (Superoperator(d, gram_map).apply(eye) - crit_one
                          - crit_one.conj().T + limit_one)
            norm_defect.append(float(np.linalg.eigvalsh(
                (difference + difference.conj().T) / 2.0)[-1]))
        out[name] = _rows(partitions, gram, criterion, norm_defect)
    return out


def check_outputs(out_dir: Path, expected: dict[str, list[dict]]) -> list[str]:
    """Problems with the CSVs in ``out_dir`` against the expected rows."""
    problems = []
    for name, rows in expected.items():
        path = Path(out_dir) / f"{name}.csv"
        try:
            actual = read_defect_csv(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: unreadable CSV: {exc}")
            continue
        problems.extend(compare_rows(name, actual, rows))
    return problems
