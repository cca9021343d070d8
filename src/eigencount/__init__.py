"""Exact counting of diagonalizable matrices over finite fields.

The closed-form side expresses, for any n and any k prescribed distinct
eigenvalues, the number of n-by-n matrices over F_q that are
diagonalizable with spectrum inside (or exactly equal to) the prescribed
set, as an integer polynomial in q.  The oracle side recounts the same
sets by exhaustive enumeration over small prime fields, and the bounds
side certifies potent-count inequalities in exact integer arithmetic.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it, loaded on first use
# (PEP 562) so that importing the package loads no module a command skips
_EXPORTS = {
    "IntPoly": "qpoly",
    "class_size_poly": "counting",
    "count_e_poly": "counting",
    "count_m_poly": "counting",
    "gl_order_poly": "counting",
    "is_prime": "counting",
    "potent_count": "counting",
    "roots_of_unity": "counting",
    "strict_compositions": "counting",
    "table_rows": "counting",
    "validate_spectrum": "counting",
    "BoundVerdict": "bounds",
    "ModeMismatch": "bounds",
    "RingSpec": "bounds",
    "bound_finite_ring": "bounds",
    "bound_matrix_ring": "bounds",
    "REFERENCE_BY_NK": "reference",
    "REFERENCE_E_TABLE": "reference",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
