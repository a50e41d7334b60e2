"""qladder: hypergeometric-type difference equations on nonuniform lattices,
their polynomial and orthonormal-function solutions, ladder operators, and
factorization identity checks for six q-polynomial families.
"""

from .qkernel import (
    NonConvergedError,
    QBase,
    QKernelError,
    alpha_q,
    basic_hypergeometric,
    q_factorial,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
)
from .lattice import DegenerateStepError, Lattice
from .hypergeometric_core import EquationData
from .families import (
    FamilyError,
    FamilySpec,
    eval_series,
    eval_ttrr,
    make_family,
    reference_params,
)

__version__ = "0.1.0"

__all__ = [
    "QBase",
    "QKernelError",
    "NonConvergedError",
    "DegenerateStepError",
    "q_number",
    "alpha_q",
    "q_factorial",
    "q_pochhammer",
    "q_pochhammer_inf",
    "basic_hypergeometric",
    "Lattice",
    "EquationData",
    "FamilyError",
    "FamilySpec",
    "make_family",
    "reference_params",
    "eval_series",
    "eval_ttrr",
    "__version__",
]
