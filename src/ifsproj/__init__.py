"""Self-similar and graph-directed IFS toolkit.

Represents self-similar and graph-directed iterated function systems,
builds projection graph-directed systems and dimension-dropping projections,
extracts strongly separated subsystems, selects disjoint cylinder families
with rotation targets, and cross-checks dimension predictions by attractor
sampling and box counting.
"""

__version__ = "0.1.0"

from .constructions import (
    CylinderSelection,
    DimensionDropResult,
    HypothesisViolationError,
    ProjectionGdifsResult,
    Subsystem,
    annihilating_rotation,
    build_projection_gdifs,
    find_dimension_drop,
    select_disjoint_cylinders,
    ssc_subsystem,
    verify_pairwise_disjoint,
)
from .dimension import (
    DimensionReport,
    Edge,
    GDIFS,
    GdifsStructureError,
    is_strongly_connected,
    perron_eigenpair,
    sim_dim_gdifs,
    sim_dim_ssifs,
    sim_dim_words,
    single_vertex_gdifs,
    spectral_radius,
)
from .estimation import (
    BoxDimEstimate,
    PointCloud,
    SamplingMethod,
    box_count,
    box_dim,
    covering_sum_upper_bound,
    default_scales,
    project_cloud,
    sample_attractor,
)
from .geometry import (
    DegenerateSystemError,
    DimensionMismatchError,
    GeometryError,
    LinearMap,
    NumericFailureError,
    SSIFS,
    Similarity,
    Subspace,
    Word,
    WordLevel,
    attractor_bounding_ball,
    compose,
    cylinder_ball,
    similarity_equal,
)
from .groups import (
    Block,
    BlockForm,
    BlockKind,
    OrbitDensity,
    TransformationGroup,
    angle_order,
    block_diagonalize,
    group_closure,
    kronecker_power,
    orbit_dense_classification,
    planar_rotation,
    power_witness,
    rotation_distance,
)
