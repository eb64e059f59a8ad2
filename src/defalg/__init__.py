"""Exact deformation invariants of finitely presented commutative
algebras: derivations, square-zero extensions, homomorphism lifts and
obstructions, with brute-force enumeration oracles cross-checking the
linear-algebra side on small finite rings.
"""

from .budget import BudgetExceeded, EnumerationBudget
from .fields import GF, QQ, field_by_name
from .poly import GREVLEX, LEX, MonomialOrder, Polynomial
from .algebras import (
    AlgebraHom,
    FiniteModule,
    PresentedAlgebra,
    StructureAlgebra,
    truncate,
    validate,
)
from .differential import Derivation, derivation_space, kaehler
from .cotangent import (
    CohomologyClass,
    cotangent_complex,
    are_coboundaries,
    cochain_maps,
    is_coboundary,
    t_module,
    t_modules,
)
from .deformation import (
    BaseDeformationProblem,
    ExtensionStack,
    LiftProblem,
    LiftResult,
    ObstructionResult,
    RealizedDeformation,
    SquareZeroExtension,
    baer_difference,
    baer_sum,
    baer_sums,
    classify_extensions,
    cocycle_from_extension,
    cocycles_from_extensions,
    equivalent_extensions,
    extension_class,
    extension_from_cocycle,
    extensions_equivalent,
    extensions_from_cocycles,
    is_trivial_extension,
    lift_homomorphism,
    obstruction_class,
    realize_deformation,
    torsor_action,
    trivial_extension,
)
from .oracle import (
    DeformationScan,
    DerivationScan,
    ExtensionScan,
    LiftScan,
    check_torsor_action,
    enumerate_deformations,
    enumerate_derivations,
    enumerate_extensions,
    enumerate_lifts,
)
from .problems import (
    ParseError,
    ProblemFileError,
    ProblemSet,
    load_problem_file,
    parse_polynomial,
)

__version__ = "0.1.0"
