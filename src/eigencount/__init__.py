"""Exact counting of diagonalizable matrices over finite fields.

The closed-form side expresses, for any n and any k prescribed distinct
eigenvalues, the number of n-by-n matrices over F_q that are
diagonalizable with spectrum inside (or exactly equal to) the prescribed
set, as an integer polynomial in q.  The oracle side recounts the same
sets by exhaustive enumeration over small prime fields, and the bounds
side certifies potent-count inequalities in exact integer arithmetic.
"""

from .qpoly import IntPoly
from .counting import (
    class_size_poly,
    count_e_poly,
    count_m_poly,
    gl_order_poly,
    is_prime,
    potent_count,
    roots_of_unity,
    strict_compositions,
    table_rows,
    validate_spectrum,
)
from .bounds import (
    BoundVerdict,
    ModeMismatch,
    RingSpec,
    bound_finite_ring,
    bound_matrix_ring,
)
from .reference import REFERENCE_BY_NK, REFERENCE_E_TABLE

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "class_size_poly",
    "count_e_poly",
    "count_m_poly",
    "gl_order_poly",
    "is_prime",
    "potent_count",
    "roots_of_unity",
    "strict_compositions",
    "table_rows",
    "validate_spectrum",
    "BoundVerdict",
    "ModeMismatch",
    "RingSpec",
    "bound_finite_ring",
    "bound_matrix_ring",
    "REFERENCE_BY_NK",
    "REFERENCE_E_TABLE",
    "__version__",
]
