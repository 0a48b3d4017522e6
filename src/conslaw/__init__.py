"""Conservation laws for constant-coefficient linear PDE systems.

Builds conserved currents from arbitrary symmetry operators of the system,
including discrete and antilinear ones, through the formal adjoint and its
constant-matrix factorization, and verifies every resulting functional by
exact per-mode spectral evolution on a torus.
"""

from .adjoint import (
    AdjointFactorization,
    ConjugacyPair,
    SemiConjugacyNotFound,
    adjoint_factorization,
    classify_adjointness,
    clifford_conjugators,
    formal_adjoint,
    semi_conjugacy_solve,
    transpose_adjoint,
)
from .current import (
    BilinearFlux,
    Characteristic,
    adjoint_characteristic,
    concomitant_flux,
)
from .dsl import format_operator, parse_operator
from .opcore import (
    ConstCoeffOperator,
    identity_operator,
    op_add,
    op_commutator,
    op_compose,
    zero_operator,
)
from .spectral import (
    EvolutionSystem,
    KappaSeries,
    SpectralState,
    TorusGrid,
    Trajectory,
    kappa_series,
)
from .symmetry import (
    Conjugation,
    DiffFactor,
    KernelShift,
    MatrixFactor,
    PointReflect,
    SymmetryOp,
    verify_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointFactorization",
    "BilinearFlux",
    "Characteristic",
    "Conjugation",
    "ConjugacyPair",
    "ConstCoeffOperator",
    "DiffFactor",
    "EvolutionSystem",
    "KappaSeries",
    "KernelShift",
    "MatrixFactor",
    "PointReflect",
    "SemiConjugacyNotFound",
    "SpectralState",
    "SymmetryOp",
    "TorusGrid",
    "Trajectory",
    "adjoint_characteristic",
    "adjoint_factorization",
    "classify_adjointness",
    "clifford_conjugators",
    "concomitant_flux",
    "format_operator",
    "formal_adjoint",
    "identity_operator",
    "kappa_series",
    "op_add",
    "op_commutator",
    "op_compose",
    "parse_operator",
    "semi_conjugacy_solve",
    "transpose_adjoint",
    "verify_symmetry",
    "zero_operator",
]
