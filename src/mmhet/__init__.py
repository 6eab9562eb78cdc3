"""Variance-aware estimation and inference for Michaelis-Menten curves.

The public surface is re-exported here: data containers and variance
specifications (core), single-curve profile fits and model screening
(single), clustered working-covariance fits (cluster), wild-bootstrap
intervals (wildboot), Monte Carlo benchmark suites (simbench), and CSV
ingestion plus report emission (dataio, report), with their result types
and exceptions.  The building blocks behind them (profile equations,
plug-ins, covariances, the root solver) stay in their own modules.
"""

# The one source of the version: pyproject.toml reads it, and reports
# stamp it.  Defined before the submodule imports so report can use it.
__version__ = "0.1.0"

from .cluster import ClusterFitResult, fit_clustered
from .core import (
    DEFAULT_CANDIDATES,
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceFamily,
    VarianceSpec,
    mm_mean,
)
from .dataio import IngestOptions, InputTable, ingest_csv
from .exceptions import (
    AllCandidatesFailed,
    DegenerateDesign,
    EmptyAfterFiltering,
    IngestError,
    InsufficientReplication,
    InsufficientSuccesses,
    MissingColumn,
    MMHetError,
    NoFiniteEvaluation,
    NonconvergedFit,
    NonPositiveGamma,
    ParseError,
    SingularInformation,
    TooManyFailures,
)
from .report import ReportDocument, emit_report
from .simbench import (
    BenchmarkReport,
    ClusterBenchmarkConfig,
    ClusterScenario,
    MetricsRow,
    SingleBenchmarkConfig,
    SingleScenario,
    VarianceShape,
    generate_clustered,
    generate_single,
    run_clustered_benchmark,
    run_single_benchmark,
)
from .single import (
    FitConfig,
    FitResult,
    GroupFitResult,
    ScreenEntry,
    fit_single,
    group_fit,
    screen_models,
)
from .wildboot import BootstrapConfig, BootstrapResult, wild_bootstrap_ci

__all__ = [
    "AllCandidatesFailed",
    "BenchmarkReport",
    "BootstrapConfig",
    "BootstrapResult",
    "ClusterBenchmarkConfig",
    "ClusterFitResult",
    "ClusterScenario",
    "ClusteredDataset",
    "Dataset",
    "DEFAULT_CANDIDATES",
    "DegenerateDesign",
    "EmptyAfterFiltering",
    "FitConfig",
    "FitResult",
    "GroupFitResult",
    "IngestError",
    "IngestOptions",
    "InputTable",
    "InsufficientReplication",
    "InsufficientSuccesses",
    "MMHetError",
    "MMParams",
    "MetricsRow",
    "MissingColumn",
    "NoFiniteEvaluation",
    "NonPositiveGamma",
    "NonconvergedFit",
    "ParseError",
    "ReportDocument",
    "ScreenEntry",
    "SingleBenchmarkConfig",
    "SingleScenario",
    "SingularInformation",
    "TooManyFailures",
    "VarianceFamily",
    "VarianceShape",
    "VarianceSpec",
    "__version__",
    "emit_report",
    "fit_clustered",
    "fit_single",
    "generate_clustered",
    "generate_single",
    "group_fit",
    "ingest_csv",
    "mm_mean",
    "run_clustered_benchmark",
    "run_single_benchmark",
    "screen_models",
    "wild_bootstrap_ci",
]
