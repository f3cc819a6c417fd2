"""Distances on graphons.

Exact operator algebra for step graphons and controlled discretization for
general graphons; the integer-valued Varadhan (shortest-path) distance, the
communicability distance with its spectral embedding, classical
neighbourhood/similarity and cut metrics, and a W-random graph sampler for
empirical validation.
"""

__version__ = "0.1.0"

from .connectivity import (
    GRID_EPSILON,
    STEP_EPSILON,
    UNREACHABLE,
    SupportGraph,
    block_distance_matrix,
    diameter,
    is_connected,
    support_graph,
)
from .core import (
    BlockFunction,
    GridGraphon,
    IntervalSet,
    MathDomainError,
    Partition,
    StepGraphon,
    ValidationError,
    apply_adjacency,
    coarsen,
    comp_power,
    degree,
    evaluate,
    lift,
    mat,
    permute_blocks,
    step,
    to_grid,
)
from .io import (
    bipartite_graphon,
    builtin_graphon,
    circular_band_graphon,
    dump_graphon,
    er_graphon,
    graphon_from_dict,
    graphon_to_dict,
    load_graphon,
    one_minus_max_graphon,
)
from .linalg import (
    EXPONENTIAL,
    RESOLVENT,
    SpectralData,
    TaylorFamily,
    analytic_transform,
    expm,
    sym_eig,
)
from .metrics import (
    Embedding,
    communicability_distance,
    communicability_embedding,
    cut_distance_homogeneous,
    cut_norm,
    merge_twins,
    neighbourhood_distance,
    similarity_distance,
)
from .sampler import (
    RNG_ALGORITHM,
    SampledGraph,
    compare_sample,
    compare_with_varadhan,
    empirical_distance_profile,
    sample_graph,
)
from .varadhan import (
    DistanceField,
    SlopeEstimate,
    TransformSlopes,
    default_t_grid,
    distance_field,
    general_varadhan_slope,
    heat_content,
    set_distance,
    transform_slopes,
    varadhan_distance,
    varadhan_slope,
)

__all__ = [
    "__version__",
    # core types
    "Partition", "IntervalSet", "StepGraphon", "GridGraphon", "BlockFunction",
    "ValidationError", "MathDomainError",
    # operator algebra
    "lift", "step", "mat", "coarsen", "comp_power", "degree",
    "apply_adjacency", "evaluate", "permute_blocks", "to_grid",
    # linear algebra
    "SpectralData", "TaylorFamily", "EXPONENTIAL", "RESOLVENT",
    "sym_eig", "expm", "analytic_transform",
    # connectivity
    "SupportGraph", "support_graph", "is_connected", "block_distance_matrix",
    "diameter", "UNREACHABLE", "STEP_EPSILON", "GRID_EPSILON",
    # varadhan
    "DistanceField", "SlopeEstimate", "distance_field", "varadhan_distance",
    "set_distance", "heat_content", "varadhan_slope",
    "general_varadhan_slope", "TransformSlopes", "transform_slopes",
    "default_t_grid",
    # metrics
    "Embedding", "communicability_distance", "communicability_embedding",
    "neighbourhood_distance", "similarity_distance", "merge_twins",
    "cut_norm", "cut_distance_homogeneous",
    # sampling
    "SampledGraph", "sample_graph", "empirical_distance_profile",
    "compare_with_varadhan", "compare_sample", "RNG_ALGORITHM",
    # io
    "load_graphon", "dump_graphon", "graphon_from_dict", "graphon_to_dict",
    "builtin_graphon", "bipartite_graphon", "er_graphon",
    "circular_band_graphon", "one_minus_max_graphon",
]
