"""Desk-scale computations with Hilbert modules over block C*-algebras.

The package realizes correspondences, internal tensor products, product
systems, and the staged unitary dilation of a unital endomorphism
semigroup, and verifies every identity numerically at truncation stages.
"""

from .algebra import Algebra, make_algebra
from .endo import (
    Endomorphism,
    associated_correspondence,
    endomorphism_from_conjugation,
    endomorphism_from_map,
    find_intertwining_isometry,
    isometry_from_unit,
    power_coherence,
    u_unitary,
    validate_endomorphism,
)
from .errors import (
    ConstructionError,
    CorrkitError,
    IncompatibleOperandsError,
    InstanceFormatError,
    InvalidPresentationError,
    InvalidSignatureError,
    PreconditionError,
    ResourceBudgetError,
)
from .hilbmod import (
    AdjointableOperator,
    Correspondence,
    FactorMap,
    ModulePresentation,
    adjointable_basis,
    algebra_correspondence,
    fullness_check,
    internal_tensor,
    left_faithful_check,
    rank_one,
    validate_module,
)
from .dilation import (
    DilationPipeline,
    build_w,
    compare_unit_limits,
    left_limit,
    right_limit,
    spatiality_report,
    unit_pairing_check,
    verify_main,
    verify_supplement,
    weak_dilation_check,
)
from .instance import (
    Instance,
    RunConfig,
    emit_instance,
    generate_instance,
    parse_instance,
)
from .prodsys import (
    ProductSystem,
    Unit,
    check_unit,
    cp_of_unit,
    derive_unit,
    find_central_unital_unit,
)
from .report import VerificationReport

__version__ = "0.1.0"
