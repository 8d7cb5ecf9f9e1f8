"""Dynamic random connection hypergraph model: exact simulation of the
bipartite edge-count process, closed-form and quadrature moment oracles,
samplers for its Gaussian and heavy-tailed limits, and a Monte Carlo
validation harness for the corresponding limit theorems.
"""

from .model import (
    FactorizationError,
    Interaction,
    ModelParams,
    RegimeError,
    TruncationError,
    Vertex,
    is_connected,
    spatial_nbhd_size,
    spatial_radius,
)
from .sampler import (
    InteractionSample,
    LimitPointSample,
    SamplerConfig,
    VertexSample,
    limit_jump_threshold,
    missed_edge_bound,
    sample_interactions,
    sample_limit_band,
    sample_limit_points,
    sample_vertices,
)
from .paths import (
    EdgeSet,
    StepPath,
    build_edges,
    edge_count_at,
    edge_count_path,
    edge_count_path_at,
    mark_split_marginals,
    mark_split_paths,
    normalize_path,
    pm_edge_count_paths,
    sup_norm_distance,
)
from .oracles import (
    CovarianceConstants,
    QuadratureConfig,
    adjudicated_constants,
    mean_edge_count,
    oracle_covariance,
    oracle_variance,
    printed_covariance,
    printed_variance_limit,
    stable_band_variance,
    stable_mean,
)
from .catalog import CatalogRecord, lemma_catalog_check, write_catalog_jsonl
from .limits import (
    GaussianGrid,
    RefinementReport,
    StablePath,
    StablePathSample,
    epsilon_refinement_study,
    sample_gaussian_path,
    sample_stable_path,
    stable_marginals,
)
from .stats import (
    MomentSummary,
    cross_covariance,
    hill_tail_index,
    ks_distance,
    normality_statistic,
    omnibus_threshold,
)
from .experiments import ExperimentConfig, edge_count_ensemble, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
