"""Lead-lag dependency graphs from asset returns, fused into dynamic embeddings."""

from .diffusion import NodeFeatureSet, RwrConfig, node_features, ppmi, rwr_accumulate
from .fusion import (
    EmbeddingFrame,
    FusionArchitecture,
    FusionModel,
    TrainingSample,
    TrainingSettings,
    TrainReport,
    extract_embeddings,
)
from .fusion import train as train_fusion
from .infotheory import (
    DiscreteSeries,
    MiTestConfig,
    discretize_equal_frequency,
    mutual_information_bits,
    significance_threshold,
    test_link,
)
from .leadlag import LagSpec, LeadLagGraph, build_graph, lagged_mi_matrix
from .market_data import PricePanel, ReturnMatrix, load_prices, log_returns, resample
from .pipeline import (
    RunConfig,
    RunResult,
    cosine_similarity,
    pca_project,
    run_dynamic_fusion,
    similarity_matrix,
    similarity_series,
)
from .synthetic import PlantedCoupling, SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "DiscreteSeries",
    "EmbeddingFrame",
    "FusionArchitecture",
    "FusionModel",
    "LagSpec",
    "LeadLagGraph",
    "MiTestConfig",
    "NodeFeatureSet",
    "PlantedCoupling",
    "PricePanel",
    "ReturnMatrix",
    "RunConfig",
    "RunResult",
    "RwrConfig",
    "SyntheticSpec",
    "TrainReport",
    "TrainingSample",
    "TrainingSettings",
    "build_graph",
    "cosine_similarity",
    "discretize_equal_frequency",
    "extract_embeddings",
    "generate_synthetic",
    "lagged_mi_matrix",
    "load_prices",
    "log_returns",
    "mutual_information_bits",
    "node_features",
    "pca_project",
    "ppmi",
    "resample",
    "run_dynamic_fusion",
    "rwr_accumulate",
    "significance_threshold",
    "similarity_matrix",
    "similarity_series",
    "test_link",
    "train_fusion",
]
