"""Exact harmonic analysis on filtered vector spaces over finite fields.

Everything here is exact: scalars are elements of the cyclotomic field
Q(zeta_p), measures and volume factors are rationals, and every identity is
checked by exact equality on finite "window" truncations.
"""

from fqharmonic.exactnum import CycNum, DomainError, FqElem, FqField, field_for, psi

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "DomainError",
    "FqElem",
    "FqField",
    "field_for",
    "psi",
    "__version__",
]
