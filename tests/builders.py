"""Test-only kernel and section builders, and the Prop 3.3 product-bound check.

``trotterlab run`` and ``trotterlab validate`` reach none of this: the
scenario grammar builds its own terms and generators, and the CLI reads
kernels from documents.  The tests build their instances here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from trotterlab.algebra import Superoperator, superop_exp, superop_norm, unit_element
from trotterlab.kernels import CpdSemigroup, OperatorKernel, christensen_evans_kernel
from trotterlab.trotter import Partition, eval_pairing
from trotterlab.units import ExtendedGenerator, Segment, Term, UnitExpression

# Small times of the second-order estimate, and the fractions of the
# horizon at which the Prop 3.3 bound is checked.
SECOND_ORDER_TIMES = (1e-1, 1e-2, 1e-3, 1e-4)
HORIZON_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def identity_kernel(labels: Sequence[str], dim: int) -> OperatorKernel:
    """Kernel whose every entry is the identity map."""
    ident = Superoperator.identity(dim)
    return OperatorKernel.build(labels, dim, lambda s, t: ident)


def zero_kernel(labels: Sequence[str], dim: int) -> OperatorKernel:
    zero = Superoperator.zero(dim)
    return OperatorKernel.build(labels, dim, lambda s, t: zero)


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
    return OperatorKernel.build(
        semigroup.generator.labels, semigroup.generator.dim,
        lambda s, t: semigroup.entry(s, t, time))


def affine_expression(coefficients: Sequence[complex], labels: Sequence[str],
                      dim: int) -> UnitExpression:
    """``y_t = sum_l k_l xi^l_t`` with scalar coefficients (usually summing to 1)."""
    if len(coefficients) != len(labels):
        raise ValueError("need one coefficient per label")
    eye = unit_element(dim)
    terms = tuple(Term(complex(k) * eye, eye, (Segment(label, 1.0),))
                  for k, label in zip(coefficients, labels))
    return UnitExpression(dim, terms)


def concat_expression(segments: Sequence[tuple[str, float]], dim: int) -> UnitExpression:
    """One term concatenating unit segments over consecutive fractions of the horizon."""
    eye = unit_element(dim)
    segs = tuple(Segment(label, float(frac)) for label, frac in segments)
    return UnitExpression(dim, (Term(eye, eye, segs),))


def prop33_bound_check(section: UnitExpression, extension: ExtendedGenerator,
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
    semigroup.  At the full horizon the gram defects are those of
    :func:`trotterlab.trotter.convergence_verdict`.
    """
    kernel = extension.kernel
    diagonal = kernel[(extension.zeta, extension.zeta)]
    k_norm = superop_norm(diagonal)
    ident = Superoperator.identity(kernel.dim)
    second = 0.0
    for s in SECOND_ORDER_TIMES:
        part = Partition((s,))
        remainder = (eval_pairing(section, part, section, part, kernel)
                     - ident - s * diagonal)
        second = max(second, superop_norm(remainder) / s ** 2)
    growth = max(k_norm, second)
    assembled = second + k_norm ** 2 * float(np.exp(horizon * k_norm))

    rows = {}
    for fraction in HORIZON_FRACTIONS:
        t = horizon * fraction
        t_rows = []
        for base in sorted(schedule, key=lambda p: p.norm, reverse=True):
            part = Partition(tuple(w * (t / base.length) for w in base.parts))
            pairing = eval_pairing(section, part, section, part, kernel)
            defect = superop_norm(pairing - superop_exp(diagonal, t))
            bound = part.norm * t * float(np.exp(t * growth)) * assembled
            size = superop_norm(pairing)
            size_bound = float(np.exp(part.length * growth))
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
