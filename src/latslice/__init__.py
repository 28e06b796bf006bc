"""latslice: exact lattice-point counting and discrete slicing checks.

Counting, successive minima, slice profiles, and the inequality-chain
verifiers all run in exact rational arithmetic; nothing in a counting
path ever compares floats.
"""

from .bodies import (
    ConvexBody,
    Volume,
    body_from_dict,
    body_from_spec,
    body_to_dict,
    box,
    cross,
    cube,
    exact_dim_cap,
    from_hrep,
    from_vertices,
    polar_volume,
    volume,
)
from .errors import (
    BodyFormatError,
    DegenerateBodyError,
    DimensionMismatchError,
    ExactVolumeUnsupportedError,
    LatsliceError,
    SubspaceError,
    SymmetryError,
    UnboundedBodyError,
)
from .lattices import (
    Lattice,
    LatticeSubspace,
    PointCount,
    count_points,
    dim_of_lattice_span,
    enumerate_points,
    project_count,
    sublattice,
)
from .minima import (
    Progression,
    SuccessiveMinima,
    heuristic_progression,
    make_progression,
    minkowski_first_check,
    minkowski_second_check,
    progression_image,
    progression_volume_bound,
    successive_minima,
)
from .slicing import (
    BrunnReport,
    MaxSliceResult,
    SliceProfile,
    brunn_check,
    max_slice,
    slice_count,
    slice_profile,
)
from .verify import (
    GaussScalingReport,
    PickQuantities,
    SlicingReport,
    covering_lemma_check,
    gauss_scaling,
    packing_lemma_check,
    pick_quantities,
    verify_dim2,
    verify_main,
    verify_unconditional,
)

__version__ = "0.1.0"
