"""Color image segmentation by swarm-seeded fuzzy clustering.

The package clusters the pixel cloud of an image and repaints every pixel
with its cluster's prototype color. Four algorithms share one interface:
k-means, fuzzy c-means, and two pipelines that seed fuzzy c-means with
the best center set found by a particle swarm (classic or adaptive).
"""

from .core import (
    EPS_ZERO,
    ClusterConfig,
    DeadClusterError,
    DegenerateClusteringError,
    InvalidClusterCountError,
    InvalidFuzzifierError,
    PixelDataset,
    TooManyClustersError,
    assign_nearest,
    min_squared_distances,
    sample_distinct_pixels,
    squared_distances,
    validate_config,
)
from .fcm import (
    FcmResult,
    compute_memberships,
    fcm_objective,
    run_fcm,
    update_centers,
)
from .imaging import (
    PpmBadDimensionsError,
    PpmBadMagicError,
    PpmParseError,
    PpmTruncatedError,
    PpmUnsupportedMaxvalError,
    RawImage,
    load_ppm,
    reconstruct_quantized,
    to_dataset,
    write_ppm,
)
from .kmeans import KmeansResult, run_kmeans
from .pipeline import ALGORITHMS, SegmentationResult, run_algorithm, run_apsof
from .report import (
    AlgorithmEntry,
    ComparisonReport,
    NormalizedPair,
    UndefinedNormalizationError,
    aggregate_reports,
    build_report,
    evaluate_jm,
    normalized_jm_pair,
    report_to_json,
)
from .swarm import (
    Particle,
    SwarmConfig,
    SwarmHistory,
    SwarmStats,
    adaptive_inertia,
    adaptive_learning_factors,
    particle_fitness,
    run_swarm,
    step_particle,
    swarm_stats,
)
from .synthetic import gaussian_blob_image, random_image, solid_block_image

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmEntry",
    "ClusterConfig",
    "ComparisonReport",
    "DeadClusterError",
    "DegenerateClusteringError",
    "EPS_ZERO",
    "FcmResult",
    "InvalidClusterCountError",
    "InvalidFuzzifierError",
    "KmeansResult",
    "NormalizedPair",
    "Particle",
    "PixelDataset",
    "PpmBadDimensionsError",
    "PpmBadMagicError",
    "PpmParseError",
    "PpmTruncatedError",
    "PpmUnsupportedMaxvalError",
    "RawImage",
    "SegmentationResult",
    "SwarmConfig",
    "SwarmHistory",
    "SwarmStats",
    "TooManyClustersError",
    "UndefinedNormalizationError",
    "adaptive_inertia",
    "adaptive_learning_factors",
    "aggregate_reports",
    "assign_nearest",
    "build_report",
    "compute_memberships",
    "evaluate_jm",
    "fcm_objective",
    "gaussian_blob_image",
    "load_ppm",
    "min_squared_distances",
    "normalized_jm_pair",
    "particle_fitness",
    "random_image",
    "reconstruct_quantized",
    "report_to_json",
    "run_algorithm",
    "run_apsof",
    "run_fcm",
    "run_kmeans",
    "run_swarm",
    "sample_distinct_pixels",
    "solid_block_image",
    "squared_distances",
    "step_particle",
    "swarm_stats",
    "to_dataset",
    "update_centers",
    "validate_config",
    "write_ppm",
]
