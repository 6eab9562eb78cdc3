"""Studentized wild bootstrap for the single-curve fit.

Resamples y*_i = mu_i + resid_i * w_i with mean-zero unit-variance
multipliers, refits under the same working variance shape, and inverts the
percentile-t pivot: with t* = (theta* - theta) / se*, the level (1 - alpha)
interval is

    [ theta - q_{1-alpha/2}(t*) * se,  theta - q_{alpha/2}(t*) * se ].

Replicate b draws its multipliers from an independent stream keyed by
(seed, stream tag, b).  All refits share the original design and are one
single.fit_rows call, which also refits the replicates it cannot bracket
and names each failed refit.  Every row's arithmetic is independent of the
rows beside it, so results are identical whatever fit_rows' block size.
Quantiles are the usual linear-interpolation (type 7) ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import BOOT_STREAM, Dataset, mm_mean, replicate_stream
from .exceptions import TooManyFailures
from .single import FitResult, fit_rows, fit_single  # fit_single: bench/tracing.py wraps it here

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


def _linear_quantiles(x: np.ndarray, probs) -> np.ndarray:
    """numpy's quantile(x, probs, axis=0, method="linear") for a nonempty x
    (n, k), as (len(probs), k).

    quantile imports numpy.ma lazily on its first call; sorting does not,
    so no bootstrap runs a module import partway through.  The rule is
    numpy's: with v = (n - 1) p and t its fractional part, interpolate
    between the order statistics on either side of v, from the lower one
    when t < 0.5 and from the upper one otherwise.  The result is bit for
    bit numpy's, except that the sign of a zero may differ where x holds
    both 0.0 and -0.0; pivots never hold -0.0.
    """
    x = np.sort(x, axis=0)
    n = x.shape[0]
    v = (n - 1) * np.asarray(probs, dtype=np.float64)
    i = np.floor(v).astype(np.intp)
    t = (v - i)[:, None]
    a = x[i]
    b = x[np.minimum(i + 1, n - 1)]
    d = b - a
    return np.where(t >= 0.5, b - d * (1.0 - t), a + d * t)


def replicate_pivots(
    data: Dataset, fit: FitResult, conf: BootstrapConfig
) -> tuple[np.ndarray, list[str | None]]:
    """Studentized pivots (theta* - theta) / se* of replicates 1..B as a
    (B, 2) array over (vmax, km), and each replicate's failure reason (None
    where it fit).  All replicates are refit by one fit_rows call.
    """
    mu = mm_mean(data.s, fit.params)
    resid = data.y - mu
    # y*_b = mu + resid * w_b, built in place over the multipliers
    y = np.empty((conf.replicates, data.n))
    for b in range(conf.replicates):
        rng = replicate_stream(conf.seed, BOOT_STREAM, b + 1)
        y[b] = draw_multipliers(conf.multiplier, data.n, rng)
    y *= resid
    y += mu
    rows = fit_rows(data.s, y, fit.variance_spec)
    diff = rows.theta - fit.params.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        pivots = diff / rows.se
    pivots[(rows.se == 0.0) & (diff == 0.0)] = 0.0  # degenerate 0/0 pivot guarded to zero
    failure = rows.failure
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
    q = _linear_quantiles(pivots, [alpha / 2.0, 1.0 - alpha / 2.0])
    t_quantiles = q.T.copy()  # rows (vmax, km), columns (lower, upper)
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
