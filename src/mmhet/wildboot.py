"""Studentized wild bootstrap for the single-curve fit.

Resamples y*_i = mu_i + resid_i * w_i with mean-zero unit-variance
multipliers, refits under the same working variance shape, and inverts the
percentile-t pivot: with t* = (theta* - theta) / se*, the level (1 - alpha)
interval is

    [ theta - q_{1-alpha/2}(t*) * se,  theta - q_{alpha/2}(t*) * se ].

Replicate b draws its multipliers from an independent stream keyed by
(seed, stream tag, b).  Refits run through single.fit_rows, which works
in fixed blocks of replicates; every row's arithmetic is independent of the
rows beside it, so results are identical whatever the block size.
Quantiles are the usual linear-interpolation (type 7) ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Dataset, mm_mean
from .exceptions import MMHetError, TooManyFailures
from .single import FitConfig, FitResult, fit_rows, fit_single

# Stream tag separating bootstrap draws from the benchmark generators.
BOOT_STREAM = 3

# Mammen two-point law: values -(sqrt5-1)/2 and (sqrt5+1)/2 with
# probabilities (sqrt5+1)/(2 sqrt5) and (sqrt5-1)/(2 sqrt5); matches the
# first three moments of a standardized residual.
_SQRT5 = np.sqrt(5.0)
MAMMEN_LOW = -(_SQRT5 - 1.0) / 2.0
MAMMEN_HIGH = (_SQRT5 + 1.0) / 2.0
MAMMEN_P_LOW = (_SQRT5 + 1.0) / (2.0 * _SQRT5)

FLAG_FAILURE_FRAC = 0.05
MAX_FAILURE_FRAC = 0.20

# Failure reason of a refit whose studentized pivot is not finite.
NONFINITE_PIVOT = "nonfinite_pivot"


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 999
    multiplier: str = "rademacher"
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if self.replicates < 99:
            raise ValueError("need at least 99 bootstrap replicates")
        if self.multiplier not in ("rademacher", "mammen"):
            raise ValueError("multiplier must be 'rademacher' or 'mammen'")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    ci_vmax: tuple[float, float]
    ci_km: tuple[float, float]
    t_quantiles: np.ndarray  # rows (vmax, km), columns (lower, upper)
    replicates_used: int
    failures: int
    flagged: bool
    level: float
    # failed refits by exception-class name (or NONFINITE_PIVOT); sums to failures
    failure_reasons: dict[str, int]


def draw_multipliers(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Mean-zero, unit-variance wild multipliers of the requested law."""
    if kind == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    if kind == "mammen":
        return np.where(rng.random(n) < MAMMEN_P_LOW, MAMMEN_LOW, MAMMEN_HIGH)
    raise ValueError(f"unknown multiplier law {kind!r}")


def _replicate_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, BOOT_STREAM, index)))


def _pivots(boot_theta: np.ndarray, boot_se: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Studentized pivots (theta* - theta) / se* row by row."""
    diff = boot_theta - theta
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / boot_se
    t[(boot_se == 0.0) & (diff == 0.0)] = 0.0  # degenerate 0/0 pivot guarded to zero
    return t


def _refit_pivot(s, y, spec, theta, fit_conf) -> tuple[np.ndarray, str | None]:
    """Pivot of one replicate through fit_single, and its failure reason."""
    try:
        refit = fit_single(Dataset(s, y), spec, fit_conf)
    except MMHetError as err:
        return np.full(2, np.nan), type(err).__name__
    return _pivots(refit.params.as_array()[None, :], refit.se[None, :], theta)[0], None


def replicate_pivots(
    data: Dataset, fit: FitResult, conf: BootstrapConfig
) -> tuple[np.ndarray, list[str | None]]:
    """Pivots of replicates 1..B as a (B, 2) array over (vmax, km), and
    each replicate's failure reason (None where it fit).

    Replicates are refit together by fit_rows; the rows it leaves unsolved
    go through fit_single one by one.
    """
    mu = mm_mean(data.s, fit.params)
    resid = data.y - mu
    theta = fit.params.as_array()
    fit_conf = FitConfig(alpha=fit.alpha)
    spec = fit.variance_spec
    # y*_b = mu + resid * w_b, built in place over the multipliers
    y = np.empty((conf.replicates, data.n))
    for b in range(conf.replicates):
        y[b] = draw_multipliers(conf.multiplier, data.n, _replicate_stream(conf.seed, b + 1))
    y *= resid
    y += mu
    rows = fit_rows(data.s, y, spec)
    pivots = _pivots(rows.theta, rows.se, theta)
    failure = rows.failure
    for i in np.flatnonzero(~rows.solved):
        pivots[i], failure[i] = _refit_pivot(data.s, y[i], spec, theta, fit_conf)
    failure[np.equal(failure, None) & ~np.isfinite(pivots).all(axis=1)] = NONFINITE_PIVOT
    return pivots, failure.tolist()


def wild_bootstrap_ci(
    data: Dataset, fit: FitResult, conf: BootstrapConfig | None = None
) -> BootstrapResult:
    """Percentile-t wild bootstrap intervals for (vmax, km).

    Failed refits are dropped and counted; more than 5 percent flags the
    result, and more than 20 percent raises TooManyFailures.
    """
    conf = conf if conf is not None else BootstrapConfig()
    if not np.all(np.isfinite(fit.se)):
        raise ValueError("original fit must carry finite standard errors")
    theta = fit.params.as_array()
    pivots, reasons = replicate_pivots(data, fit, conf)
    pivots = pivots[[r is None for r in reasons]]
    failed = [r for r in reasons if r is not None]
    failures = len(failed)
    failure_frac = failures / conf.replicates
    if failure_frac > MAX_FAILURE_FRAC:
        raise TooManyFailures(
            f"{failures} of {conf.replicates} bootstrap refits failed"
        )

    alpha = 1.0 - conf.level
    q = np.quantile(
        pivots, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0, method="linear"
    )  # shape (2 quantiles, 2 params)
    t_quantiles = q.T.copy()
    ci = [
        (theta[j] - t_quantiles[j, 1] * fit.se[j], theta[j] - t_quantiles[j, 0] * fit.se[j])
        for j in range(2)
    ]
    return BootstrapResult(
        ci_vmax=ci[0],
        ci_km=ci[1],
        t_quantiles=t_quantiles,
        replicates_used=int(len(pivots)),
        failures=int(failures),
        flagged=bool(failure_frac > FLAG_FAILURE_FRAC),
        level=conf.level,
        failure_reasons=dict(sorted(Counter(failed).items())),
    )
