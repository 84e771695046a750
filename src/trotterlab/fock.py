"""Closed-form symmetric Fock space backend over step functions.

Exponential vectors of piecewise-constant vector-valued functions have
the inner product

    <psi(f), psi(g)> = exp( integral <f(s), g(s)> ds ),

which is evaluated exactly over the merged breakpoint grid; nothing is
ever truncated.  Prefactors carry scalar twists ``exp(t a)``.  This makes
the weak-versus-norm gap of alternating Trotter products an exact
quantity rather than a fitted limit, and provides an independent oracle
for the scalar kernel engine: the unit with twist exponent ``a`` and
amplitude ``c`` pairs with the unit ``(a', c')`` to
``exp(t (conj(a) + a' + <c, c'>))``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .kernels import OperatorKernel, scalar_kernel
from .trotter import (
    ConvergenceReport,
    Partition,
    VerdictThresholds,
    assemble_report,
)

__all__ = [
    "StepFunction",
    "ExponentialVector",
    "ExponentialUnit",
    "concat",
    "fock_inner",
    "covariance",
    "covariance_kernel",
    "trotter_vector",
    "CounterexampleResult",
    "counterexample_scenario",
]

_TIME_TOL = 1e-12


@dataclass(frozen=True)
class StepFunction:
    """Piecewise constant function on [0, t] with values in C^k."""

    multiplicity: int
    breakpoints: tuple[float, ...]
    values: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        if not bps or bps[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if any(b2 - b1 <= 0 for b1, b2 in zip(bps[:-1], bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        values = tuple(tuple(complex(c) for c in v) for v in self.values)
        if len(values) != len(bps) - 1:
            raise ValueError("need one value per interval")
        if any(len(v) != self.multiplicity for v in values):
            raise ValueError("value length must equal the multiplicity")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: Sequence[complex], length: float) -> "StepFunction":
        value = tuple(complex(c) for c in value)
        if length == 0.0:
            return cls(len(value), (0.0,), ())
        return cls(len(value), (0.0, float(length)), (value,))

    @property
    def length(self) -> float:
        return self.breakpoints[-1]


def concat(f: StepFunction, g: StepFunction) -> StepFunction:
    """Concatenate, shifting the second function's domain behind the first."""
    if f.multiplicity != g.multiplicity:
        raise ValueError("multiplicity mismatch")
    if not f.values:
        return g
    if not g.values:
        return f
    shift = f.length
    bps = f.breakpoints + tuple(b + shift for b in g.breakpoints[1:])
    return StepFunction(f.multiplicity, bps, f.values + g.values)


@dataclass(frozen=True)
class ExponentialVector:
    """``prefactor * psi(argument)``."""

    prefactor: complex
    argument: StepFunction

    @property
    def length(self) -> float:
        return self.argument.length

    @property
    def multiplicity(self) -> int:
        return self.argument.multiplicity

    def concat(self, other: "ExponentialVector") -> "ExponentialVector":
        return ExponentialVector(self.prefactor * other.prefactor,
                                 concat(self.argument, other.argument))


def fock_inner(x: ExponentialVector, y: ExponentialVector) -> complex:
    """Exact inner product over the merged breakpoint grid."""
    if x.multiplicity != y.multiplicity:
        raise ValueError("multiplicity mismatch")
    if abs(x.length - y.length) > _TIME_TOL * x.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    if not x.argument.values or not y.argument.values:
        return complex(x.prefactor.conjugate() * y.prefactor)
    grid = np.array(sorted(set(x.argument.breakpoints) | set(y.argument.breakpoints)))
    mids = (grid[:-1] + grid[1:]) / 2.0
    widths = np.diff(grid)

    def values_on_grid(step: StepFunction) -> np.ndarray:
        idx = np.searchsorted(step.breakpoints, mids, side="right") - 1
        idx = np.clip(idx, 0, len(step.values) - 1)
        return np.asarray(step.values, dtype=complex)[idx]

    fx = values_on_grid(x.argument)
    fy = values_on_grid(y.argument)
    total = complex(np.sum(widths * np.sum(fx.conj() * fy, axis=1)))
    return complex(x.prefactor.conjugate() * y.prefactor * cmath.exp(total))


@dataclass(frozen=True)
class ExponentialUnit:
    """The unit ``t -> exp(t * alpha) psi(amplitude * 1_[0,t])``."""

    alpha: complex
    amplitude: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "amplitude", tuple(complex(c) for c in self.amplitude))

    @property
    def multiplicity(self) -> int:
        return len(self.amplitude)

    def vector(self, t: float) -> ExponentialVector:
        return ExponentialVector(cmath.exp(t * self.alpha),
                                 StepFunction.constant(self.amplitude, t))


def covariance(u: ExponentialUnit, v: ExponentialUnit) -> complex:
    """Derivative at 0 of ``t -> <u_t, v_t>``."""
    if u.multiplicity != v.multiplicity:
        raise ValueError("multiplicity mismatch")
    overlap = sum(a.conjugate() * b for a, b in zip(u.amplitude, v.amplitude))
    return u.alpha.conjugate() + v.alpha + overlap


def covariance_kernel(units: Mapping[str, ExponentialUnit]) -> OperatorKernel:
    """Scalar generator kernel of a family of exponential units."""
    labels = tuple(units)
    gamma = np.array([[covariance(units[s], units[t]) for t in labels] for s in labels])
    return scalar_kernel(gamma, labels)


def trotter_vector(u: ExponentialUnit, v: ExponentialUnit, t: float, n: int,
                   fractions: tuple[float, float] = (0.5, 0.5)) -> ExponentialVector:
    """The n-fold alternation of ``u`` and ``v`` slices over [0, t].

    Each of the n slots of width t/n carries ``u`` on its first fraction
    and ``v`` on the second; prefactors accumulate to
    ``exp(t (k u.alpha + l v.alpha))`` exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if u.multiplicity != v.multiplicity:
        raise ValueError("multiplicity mismatch")
    kappa, lam = fractions
    if kappa <= 0 or lam <= 0 or abs(kappa + lam - 1.0) > 1e-12:
        raise ValueError("fractions must be positive and sum to 1")
    if t == 0.0:
        return ExponentialVector(1.0, StepFunction(u.multiplicity, (0.0,), ()))
    slot = t / n
    breakpoints = [0.0]
    values = []
    for i in range(n):
        start = i * slot
        breakpoints.extend([start + kappa * slot, start + slot])
        values.extend([u.amplitude, v.amplitude])
    breakpoints[-1] = t  # guard the far end against accumulation error
    prefactor = cmath.exp(t * (kappa * u.alpha + lam * v.alpha))
    return ExponentialVector(prefactor, StepFunction(u.multiplicity, tuple(breakpoints),
                                                     tuple(values)))


@dataclass(frozen=True)
class CounterexampleResult:
    """Exact quantities of the vacuum/indicator Trotter alternation.

    ``values`` holds, per n: the squared norm of the alternation, its
    pairing with the ambient candidate ``w = psi(0.5 * 1)``, the candidate's
    squared norm, and the squared distance.  The alternation's norms match
    the limit gram ``exp(t/2)`` exactly, yet its pairing with the adjoined
    limit unit ``zeta = psi((0.5, 0.5) * 1)`` stays at ``exp(t/4)`` for every
    n: the limit unit exists only in the doubled-multiplicity enlargement,
    where the ambient system embeds as the first component.
    """

    horizon: float
    values: tuple[dict, ...]
    zeta_norm_sq: float
    zeta_pairings: tuple[complex, ...]
    criterion_gap: float
    report_vs_candidate: ConvergenceReport
    report_zeta_section: ConvergenceReport


def counterexample_scenario(t: float, sizes: Sequence[int] = (1, 8, 1024), *,
                            thresholds: VerdictThresholds | None = None
                            ) -> CounterexampleResult:
    """Evaluate the alternating Trotter product of the vacuum and the indicator unit.

    All quantities are exponentials of exact integrals; the verdict against
    the ambient candidate is assembled from them, and the adjoined limit
    unit is realized concretely in multiplicity two.
    """
    sizes = tuple(int(n) for n in sizes)
    vacuum = ExponentialUnit(0.0, (0.0,))
    indicator = ExponentialUnit(0.0, (1.0,))
    candidate = ExponentialUnit(0.0, (0.5,))

    # Doubled multiplicity: the ambient units sit in the first component.
    vacuum2 = ExponentialUnit(0.0, (0.0, 0.0))
    indicator2 = ExponentialUnit(0.0, (1.0, 0.0))
    zeta = ExponentialUnit(0.0, (0.5, 0.5))

    w_gram = fock_inner(candidate.vector(t), candidate.vector(t)).real if t > 0 else 1.0
    zeta_vec = zeta.vector(t)
    zeta_gram = fock_inner(zeta_vec, zeta_vec).real

    rows = []
    w_pair_defects, gram_defects, norm_defects = [], [], []
    ambient = {"u": [], "v": []}
    zeta_pairings = []
    for n in sizes:
        y = trotter_vector(vacuum, indicator, t, n)
        y2 = trotter_vector(vacuum2, indicator2, t, n)
        norm_sq = fock_inner(y, y).real
        w_pair = fock_inner(candidate.vector(t), y)
        gap_sq = norm_sq - 2 * w_pair.real + w_gram
        rows.append({"n": n, "y_norm_sq": norm_sq, "w_pairing": complex(w_pair),
                     "w_norm_sq": w_gram, "distance_sq": gap_sq})
        gram_defects.append(abs(norm_sq - zeta_gram))
        w_pair_defects.append(abs(w_pair - zeta_gram))
        norm_defects.append(gap_sq)
        ambient["u"].append(abs(fock_inner(vacuum.vector(t), y) - 1.0))
        v_limit = fock_inner(indicator2.vector(t), zeta_vec)
        ambient["v"].append(abs(fock_inner(indicator.vector(t), y) - v_limit))
        zeta_pairings.append(fock_inner(zeta_vec, y2))

    partitions = [Partition.uniform(t if t > 0 else 1.0, n) for n in sizes]
    report_w = assemble_report(
        horizon=t, target="w", target_kind="ambient", partitions=partitions,
        gram_defects=gram_defects, criterion_defects=w_pair_defects,
        norm_defects=norm_defects, ambient_defects=ambient,
        thresholds=thresholds,
        notes=("candidate gram exp(t/4) differs from the limit gram exp(t/2); "
               "inner products converge but norms do not",))

    # The limit unit's own section in the enlargement: every defect vanishes.
    zeta_defects = []
    for n in sizes:
        pieces = zeta.vector(t / n) if t > 0 else zeta.vector(0.0)
        acc = pieces
        for _ in range(n - 1):
            acc = acc.concat(zeta.vector(t / n) if t > 0 else zeta.vector(0.0))
        zeta_defects.append(abs(fock_inner(zeta_vec, acc) - zeta_gram))
    zeros = [0.0] * len(sizes)
    report_zeta = assemble_report(
        horizon=t, target="zeta", target_kind="adjoined", partitions=partitions,
        gram_defects=zeros, criterion_defects=zeta_defects, norm_defects=zeros,
        ambient_defects={"u": zeros, "v": zeros}, thresholds=thresholds,
        notes=("limit unit realized with doubled multiplicity; "
               "its own sectioned products converge trivially",))

    criterion_gap = abs(zeta_gram - zeta_pairings[-1]) if sizes else 0.0
    return CounterexampleResult(
        horizon=t, values=tuple(rows),
        zeta_norm_sq=zeta_gram, zeta_pairings=tuple(zeta_pairings),
        criterion_gap=criterion_gap,
        report_vs_candidate=report_w, report_zeta_section=report_zeta)
