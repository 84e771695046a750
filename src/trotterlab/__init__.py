"""Numerical laboratory for Trotter-type limits of units in product systems.

Everything is exactly computable over the algebra of d x d complex
matrices: operator-valued kernels and their entrywise exponential
semigroups, formal unit combinations with their first-order data,
pairings of sectioned products over interval partitions, and a
closed-form symmetric Fock space backend for the scalar case.
"""

__version__ = "0.1.0"

from .algebra import (
    Superoperator,
    choi_matrix,
    frobenius_norm,
    superop_exp,
    superop_norm,
)
from .kernels import (
    CpdSemigroup,
    OperatorKernel,
    christensen_evans_kernel,
    identity_kernel,
    is_conditionally_cpd,
    is_cpd,
    kernel_from_json_dict,
    kernel_to_json_dict,
    kolmogorov_decompose,
    scalar_kernel,
)
from .units import (
    UnitExpression,
    affine_expression,
    concat_expression,
    extend_generator,
    modified_expression,
    normalize_unit,
    pair_derivative,
    twisted_expression,
    unit_expression,
)
from .trotter import (
    ConvergenceReport,
    Partition,
    VerdictThresholds,
    convergence_verdict,
    dyadic_schedule,
    eval_pairing,
    prop33_bound_check,
)
from .fock import (
    ExponentialUnit,
    ExponentialVector,
    StepFunction,
    counterexample_scenario,
    covariance_kernel,
    fock_inner,
    trotter_vector,
)

__all__ = [
    "__version__",
    "Superoperator", "choi_matrix", "frobenius_norm", "superop_exp",
    "superop_norm",
    "CpdSemigroup", "OperatorKernel", "christensen_evans_kernel",
    "identity_kernel", "is_conditionally_cpd", "is_cpd",
    "kernel_from_json_dict", "kernel_to_json_dict", "kolmogorov_decompose",
    "scalar_kernel",
    "UnitExpression", "affine_expression", "concat_expression",
    "extend_generator", "modified_expression", "normalize_unit",
    "pair_derivative", "twisted_expression", "unit_expression",
    "ConvergenceReport", "Partition", "VerdictThresholds",
    "convergence_verdict", "dyadic_schedule", "eval_pairing",
    "prop33_bound_check",
    "ExponentialUnit", "ExponentialVector", "StepFunction",
    "counterexample_scenario", "covariance_kernel", "fock_inner",
    "trotter_vector",
]
