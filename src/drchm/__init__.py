"""Dynamic random connection hypergraph model: exact simulation of the
bipartite edge-count process, closed-form and quadrature moment oracles,
samplers for its Gaussian and heavy-tailed limits, and a Monte Carlo
validation harness for the corresponding limit theorems.
"""

from .limits import GaussianGrid, sample_gaussian_path
from .model import ModelParams
from .oracles import adjudicated_constants, mean_edge_count, oracle_covariance, stable_mean
from .paths import build_edges, edge_count_path
from .sampler import SamplerConfig, sample_interactions, sample_limit_points, sample_vertices

__all__ = [
    "GaussianGrid",
    "ModelParams",
    "SamplerConfig",
    "adjudicated_constants",
    "build_edges",
    "edge_count_path",
    "mean_edge_count",
    "oracle_covariance",
    "sample_gaussian_path",
    "sample_interactions",
    "sample_limit_points",
    "sample_vertices",
    "stable_mean",
]

__version__ = "0.1.0"
