"""Numerical laboratory for Trotter-type limits of units in product systems.

Everything is exactly computable over the algebra of d x d complex
matrices: operator-valued kernels and their entrywise exponential
semigroups, formal unit combinations with their first-order data,
pairings of sectioned products over interval partitions, and a
closed-form symmetric Fock space backend for the scalar case.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
