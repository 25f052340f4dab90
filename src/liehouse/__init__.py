"""Exact bracket calculus and homology for a greenhouse climate model.

The model is a three-state control-affine system whose only
nonlinearity is the evapotranspiration surface E(x, y).  This package
builds the vector fields from parameters, computes the iterated Lie
brackets that decide whether the generated algebra closes at step two,
verifies candidate E surfaces symbolically and on numeric grids, and
computes the homology of the resulting seven-dimensional nilpotent
algebra over the rationals.
"""

from .closure import (
    CROSS_VARIANTS, ClosureDefectError, ClosureEngine, ClosureReport,
    check_closure, delta_ij, delta_ij_formula, delta_ijk, delta_ijk_formula,
    lambda_ijk, magic_tuples,
)
from .evapo import (
    CharacteristicFamily, ConditionMeasurement, PoleError, TanhConstants,
    VerificationReport, characteristic_line, default_grid, descriptor_to_expr,
    e_characteristic, e_tanh, make_grid, parse_descriptor, verify_candidate,
)
from .fields import (
    ZERO_FIELD, VectorField, apply_to_scalar, exact_div, lie_bracket,
    proportional_to,
)
from .homology import (
    Algebra7, ChainComplex, StructureMatrix, betti_numbers, boundary_matrix,
    build_algebra, chain_complex, euler_characteristic, homology_report,
    is_heisenberg, jacobi_check, rank_exact,
)
from .model import (
    ControlSchedule, InvalidParamsError, Params, Trajectory, build_fields,
    demo_params, simulate, validate_params,
)
from .parsing import ParseError, parse
from .symbolic import (
    EvaluationError, Expr, InconsistentBindingError, MissingAssignmentError,
    Program, SymbolicError, compile_exprs, cos, differentiate, epartial,
    eval_numeric, evaluate, exp, is_zero, param, sin, substitute, tanh,
    to_text, var,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra7", "ChainComplex", "CharacteristicFamily", "ClosureDefectError",
    "ClosureEngine", "ClosureReport", "ConditionMeasurement",
    "ControlSchedule", "CROSS_VARIANTS", "EvaluationError", "Expr",
    "InconsistentBindingError", "InvalidParamsError",
    "MissingAssignmentError", "Params", "ParseError", "PoleError", "Program",
    "StructureMatrix", "SymbolicError", "TanhConstants", "Trajectory",
    "VectorField", "VerificationReport", "ZERO_FIELD", "apply_to_scalar",
    "betti_numbers", "boundary_matrix", "build_algebra", "build_fields",
    "chain_complex", "characteristic_line", "check_closure", "compile_exprs",
    "cos", "default_grid", "delta_ij", "delta_ij_formula", "delta_ijk",
    "delta_ijk_formula", "demo_params", "descriptor_to_expr",
    "differentiate", "e_characteristic", "e_tanh", "epartial",
    "euler_characteristic", "eval_numeric", "evaluate", "exact_div", "exp",
    "homology_report", "is_heisenberg", "is_zero", "jacobi_check",
    "lambda_ijk", "lie_bracket", "magic_tuples", "make_grid", "param",
    "parse", "parse_descriptor", "proportional_to", "rank_exact", "simulate",
    "sin", "substitute", "tanh", "to_text", "validate_params", "var",
]
