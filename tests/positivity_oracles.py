"""Independent oracles for conditional complete positive definiteness.

Neither oracle is a decision procedure: the sampler can miss a violating
direction and the grid only looks at finitely many times.  They are kept
to check the exact test in ``trotterlab.kernels.is_conditionally_cpd``
from two unrelated directions:

* ``sampled_conditional_form`` draws tuples with ``sum a_i b_i = 0`` and
  evaluates the quadratic form directly;
* ``schoenberg_grid_ok`` exponentiates the generator over a geometric
  small-time grid and tests every exponential for complete positive
  definiteness (Schoenberg's correspondence).
"""

from __future__ import annotations

import numpy as np

from trotterlab.algebra import dagger
from trotterlab.kernels import (
    CpdSemigroup,
    CpdWitness,
    OperatorKernel,
    evaluate_positivity_form,
    is_cpd,
)

SCHOENBERG_GRID = tuple(np.geomspace(1e-3, 1.0, 12))


def constrained_tuple(kernel: OperatorKernel, rng: np.random.Generator):
    """Draw (sigmas, lefts, rights) with ``sum_i a_i b_i = 0``.

    The last left factor is drawn invertible (condition number < 1e3) and
    the last right factor solves the constraint.
    """
    d = kernel.dim
    n = int(rng.integers(2, 4))
    sigmas = [str(rng.choice(kernel.labels)) for _ in range(n)]

    def draw():
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return m / max(np.linalg.norm(m, 2), 1e-12)

    lefts = [draw() for _ in range(n)]
    rights = [draw() for _ in range(n - 1)]
    while np.linalg.cond(lefts[-1]) >= 1e3:
        lefts[-1] = draw()
    acc = sum(lefts[i] @ rights[i] for i in range(n - 1))
    rights.append(-np.linalg.solve(lefts[-1], acc))
    return sigmas, lefts, rights


def sampled_conditional_form(kernel: OperatorKernel, *, samples: int = 500, seed: int = 7,
                             tol: float = 1e-8):
    """Sampler verdict: ``(ok, worst scaled eigenvalue, witness or None)``.

    Each constrained tuple's form minimum is scaled by the entry norm
    times the squared tuple magnitude; the verdict fails below ``-tol``.
    """
    kernel.require_hermitian()
    rng = np.random.default_rng(seed)
    entry_scale = max(float(np.linalg.norm(op.rep, 2)) for op in kernel.entries.values())
    worst = 0.0
    witness = None
    for _ in range(samples):
        sigmas, lefts, rights = constrained_tuple(kernel, rng)
        form = evaluate_positivity_form(kernel, sigmas, lefts, rights)
        min_eig = float(np.linalg.eigvalsh((form + dagger(form)) / 2.0)[0])
        magnitude = sum(np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
                        for a, b in zip(lefts, rights))
        scaled = min_eig / max(1.0, entry_scale * magnitude ** 2)
        if scaled < worst:
            worst = scaled
            if scaled < -tol:
                witness = CpdWitness(tuple(sigmas), tuple(lefts), tuple(rights), min_eig)
    return worst >= -tol, worst, witness


def schoenberg_grid_ok(kernel: OperatorKernel, grid=SCHOENBERG_GRID,
                       cpd_tol: float = 1e-10) -> bool:
    """Whether ``exp(t * kernel)`` is completely positive definite at every grid time."""
    semigroup = CpdSemigroup(kernel)
    return all(is_cpd(semigroup.evaluate(float(t)), tol=cpd_tol).ok for t in grid)
