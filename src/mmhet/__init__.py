"""Variance-aware estimation and inference for Michaelis-Menten curves.

The public surface is re-exported here: data containers and variance
specifications (core), single-curve profile fits and model screening
(single), clustered working-covariance fits (cluster), wild-bootstrap
intervals (wildboot), Monte Carlo benchmark suites (simbench), and CSV
ingestion plus report emission (dataio, report).
"""

# The one source of the version: pyproject.toml reads it, and reports
# stamp it.  Defined before the submodule imports so report can use it.
__version__ = "0.1.0"

from .cluster import (
    ClusterFitResult,
    cluster_covariance,
    fit_clustered,
    gls_km_profile,
    moment_update_variance,
    solve_working_cov,
)
from .core import (
    DEFAULT_CANDIDATES,
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceFamily,
    VarianceSpec,
    eval_h,
    mm_gradient,
    mm_mean,
    residuals,
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
from .report import ReportDocument, emit_report, fit_block
from .rootfind import SolverDiagnostics
from .simbench import (
    BenchmarkReport,
    ClusterBenchmarkConfig,
    ClusterScenario,
    MetricsRow,
    SingleBenchmarkConfig,
    SingleScenario,
    VarianceShape,
    compute_metrics,
    generate_clustered,
    generate_single,
    run_clustered_benchmark,
    run_single_benchmark,
    true_variance,
)
from .single import (
    FitConfig,
    FitResult,
    GroupFitResult,
    ScreenEntry,
    fit_single,
    gamma_hat,
    group_fit,
    information_criteria,
    plugin_covariance,
    profile_F,
    screen_models,
    solve_km,
    vmax_plugin,
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
    "SolverDiagnostics",
    "TooManyFailures",
    "VarianceFamily",
    "VarianceShape",
    "VarianceSpec",
    "__version__",
    "compute_metrics",
    "emit_report",
    "cluster_covariance",
    "eval_h",
    "fit_block",
    "fit_clustered",
    "fit_single",
    "gamma_hat",
    "gls_km_profile",
    "generate_clustered",
    "generate_single",
    "group_fit",
    "information_criteria",
    "ingest_csv",
    "mm_gradient",
    "mm_mean",
    "moment_update_variance",
    "plugin_covariance",
    "profile_F",
    "residuals",
    "run_clustered_benchmark",
    "run_single_benchmark",
    "screen_models",
    "solve_km",
    "solve_working_cov",
    "true_variance",
    "vmax_plugin",
    "wild_bootstrap_ci",
]
