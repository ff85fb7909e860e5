"""Tight frames in finitely generated modules over block C*-algebras.

Construction, verification, factorization into the coisometry normal form,
ortho-decomposition, admissible-partition enumeration, and a frame-potential
optimizer, over algebras of the form ⊕_j M_{m_j}(C).
"""

from .algebra import AlgebraElement, AlgebraSpec, ShapeError
from .decomposition import (
    DivisibilityReport,
    Partition,
    SplitEquivalenceReport,
    commutation_residual,
    count_partitions,
    direct_sum_frames,
    divisibility_check,
    enumerate_partitions,
    ortho_decompose,
    range_constant,
    restrict,
    split_equivalence,
)
from .frames import (
    FactorizationResult,
    Frame,
    NotTightError,
    ScalarCheckReport,
    SphericalReport,
    TightnessReport,
    canonical_coisometry,
    canonical_frame,
    check_tight,
    factorize,
    frame_operator,
    gram_matrix,
    is_spherical,
    random_tight_frame,
    random_unitary,
    scalar_definition_check,
)
from .module import (
    AMatrix,
    NotCoisometricError,
    complete_to_unitary,
    inner_product,
    is_partial_isometry,
    is_unitary,
)
from .optimize import (
    DegenerateColumnError,
    OptimizerConfig,
    OptimizerTrace,
    frame_potential,
    minimize,
    potential_gradient,
    retract_spherical,
)

__version__ = "0.1.0"
