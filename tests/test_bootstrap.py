from collections import Counter

import numpy as np
import pytest

from mmhet import (
    BootstrapConfig,
    Dataset,
    MMParams,
    VarianceSpec,
    fit_single,
    mm_mean,
    wild_bootstrap_ci,
)
from mmhet import single, wildboot
from mmhet.core import BOOT_STREAM, replicate_stream
from mmhet.exceptions import MMHetError, TooManyFailures
from mmhet.wildboot import (
    MAMMEN_HIGH,
    MAMMEN_LOW,
    NONFINITE_PIVOT,
    draw_multipliers,
    replicate_pivots,
)

POW_HALF = VarianceSpec.power(0.5)
CONSTANT = VarianceSpec.constant()


def _fit_and_data(rng, n=30, noise=2.0):
    s = np.geomspace(1.0, 150.0, n)
    y = mm_mean(s, MMParams(100.0, 20.0)) + rng.normal(0.0, noise, n)
    data = Dataset(s=s, y=y)
    return data, fit_single(data, CONSTANT)


# --- multiplier laws ------------------------------------------------------------


def test_rademacher_moments_and_support():
    rng = np.random.default_rng(99)
    w = draw_multipliers("rademacher", 1_000_000, rng)
    assert set(np.unique(w)) == {-1.0, 1.0}
    assert abs(w.mean()) < 4e-3
    assert abs(w.var() - 1.0) < 1e-4  # w^2 = 1 pointwise


def test_mammen_moments_and_support():
    rng = np.random.default_rng(99)
    w = draw_multipliers("mammen", 1_000_000, rng)
    assert set(np.unique(w)) == {MAMMEN_LOW, MAMMEN_HIGH}
    assert abs(w.mean()) < 4e-3
    assert abs(w.var() - 1.0) < 4e-3
    # the two-point law matches the third moment of a standardized draw
    assert abs((w ** 3).mean() - 1.0) < 8e-3


def test_draw_multipliers_rejects_unknown_law():
    with pytest.raises(ValueError):
        draw_multipliers("gaussian", 10, np.random.default_rng(0))


# --- interval mechanics ---------------------------------------------------------


def test_percentile_t_inversion_orientation(rng):
    data, fit = _fit_and_data(rng)
    res = wild_bootstrap_ci(data, fit, BootstrapConfig(replicates=199, seed=4))
    tq = res.t_quantiles
    # upper t quantile builds the lower bound and vice versa
    assert res.ci_vmax[0] == fit.params.vmax - tq[0, 1] * fit.se[0]
    assert res.ci_vmax[1] == fit.params.vmax - tq[0, 0] * fit.se[0]
    assert res.ci_km[0] == fit.params.km - tq[1, 1] * fit.se[1]
    assert res.ci_km[1] == fit.params.km - tq[1, 0] * fit.se[1]
    assert res.ci_vmax[0] < fit.params.vmax < res.ci_vmax[1]
    assert res.ci_km[0] < fit.params.km < res.ci_km[1]
    assert res.replicates_used + res.failures == 199
    assert not res.flagged


def test_higher_level_nests_interval(rng):
    # Same seed means identical pivot draws, so the 99 percent interval
    # must contain the 95 percent one.
    data, fit = _fit_and_data(rng)
    r95 = wild_bootstrap_ci(
        data, fit, BootstrapConfig(replicates=399, seed=7, level=0.95)
    )
    r99 = wild_bootstrap_ci(
        data, fit, BootstrapConfig(replicates=399, seed=7, level=0.99)
    )
    assert r99.ci_vmax[0] <= r95.ci_vmax[0] and r95.ci_vmax[1] <= r99.ci_vmax[1]
    assert r99.ci_km[0] <= r95.ci_km[0] and r95.ci_km[1] <= r99.ci_km[1]


def test_noiseless_interval_degenerates(noiseless_data):
    fit = fit_single(noiseless_data, CONSTANT)
    res = wild_bootstrap_ci(
        noiseless_data, fit, BootstrapConfig(replicates=199, seed=3)
    )
    assert res.failures == 0
    assert abs(res.ci_vmax[0] - 100.0) < 1e-6
    assert abs(res.ci_vmax[1] - 100.0) < 1e-6
    assert abs(res.ci_km[0] - 20.0) < 1e-6
    assert abs(res.ci_km[1] - 20.0) < 1e-6


# --- determinism ----------------------------------------------------------------


def test_bootstrap_deterministic_across_block_sizes(rng, monkeypatch):
    # 99 = 14 * 7 + 1 and 129 = 128 + 1 leave a one-row tail block.
    data, fit = _fit_and_data(rng)
    default = single.BLOCK_ROWS
    for replicates in (99, 129, 199):
        conf = BootstrapConfig(replicates=replicates, seed=21)
        runs = []
        for block in (1, 7, default):
            monkeypatch.setattr(single, "BLOCK_ROWS", block)
            runs.append(wild_bootstrap_ci(data, fit, conf))
        for other in runs[1:]:
            assert np.array_equal(other.t_quantiles, runs[0].t_quantiles)
            assert other.ci_vmax == runs[0].ci_vmax
            assert other.ci_km == runs[0].ci_km
            assert other.failures == runs[0].failures


def test_mammen_interval_end_to_end(rng):
    data, fit = _fit_and_data(rng)
    res = wild_bootstrap_ci(
        data, fit, BootstrapConfig(replicates=199, seed=4, multiplier="mammen")
    )
    assert res.ci_vmax[0] < fit.params.vmax < res.ci_vmax[1]
    rad = wild_bootstrap_ci(data, fit, BootstrapConfig(replicates=199, seed=4))
    assert not np.array_equal(res.t_quantiles, rad.t_quantiles)


def test_seed_changes_draws(rng):
    data, fit = _fit_and_data(rng)
    a = wild_bootstrap_ci(data, fit, BootstrapConfig(replicates=199, seed=1))
    b = wild_bootstrap_ci(data, fit, BootstrapConfig(replicates=199, seed=2))
    assert not np.array_equal(a.t_quantiles, b.t_quantiles)


# --- failure accounting ---------------------------------------------------------

# Low-signal noisy curves whose wild resamples often lose the profile root;
# frozen literals so the failure fractions stay put.
_S8 = np.geomspace(1.0, 60.0, 8)
_Y_FLAGGED = np.array(
    [0.54702, 4.18002, 4.331617, 0.675154, 2.037537, 2.330558, 5.839442, 4.859839]
)
_Y_TOOMANY = np.array(
    [0.444472, 3.396009, 3.123785, 3.760813, 6.829401, 0.635123, 2.847737, 1.698342]
)


def _loop_pivots(data, fit, conf):
    """Per-replicate fit_single refits on the same multiplier streams."""
    mu = mm_mean(data.s, fit.params)
    theta = fit.params.as_array()
    pivots = np.full((conf.replicates, 2), np.nan)
    reasons = []
    for b in range(1, conf.replicates + 1):
        w = draw_multipliers(
            conf.multiplier, data.n, replicate_stream(conf.seed, BOOT_STREAM, b)
        )
        try:
            refit = fit_single(Dataset(data.s, mu + (data.y - mu) * w), fit.variance_spec)
        except MMHetError as err:
            reasons.append(type(err).__name__)
            continue
        diff = refit.params.as_array() - theta
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where((refit.se == 0.0) & (diff == 0.0), 0.0, diff / refit.se)
        if np.all(np.isfinite(t)):
            pivots[b - 1] = t
            reasons.append(None)
        else:
            reasons.append(NONFINITE_PIVOT)
    return pivots, reasons


def _bench_curve(n, seed):
    rng = np.random.default_rng((seed, n))
    vmax, km = rng.uniform(50.0, 150.0), rng.uniform(5.0, 50.0)
    s = np.geomspace(km / 8.0, km * 25.0, n)
    y = mm_mean(s, MMParams(vmax, km)) + 0.003 * vmax * np.sqrt(s) * rng.standard_normal(n)
    return Dataset(s=s, y=y), POW_HALF


@pytest.mark.parametrize("multiplier", ["rademacher", "mammen"])
@pytest.mark.parametrize(
    "case", ["n8", "n16", "n50", "n120", "flagged", "toomany"]
)
def test_batched_pivots_match_fit_single_loop(case, multiplier):
    # The low-signal curves lose the profile bracket on many replicates,
    # which sends those rows down the per-row fit_single fallback.
    if case == "flagged":
        data, spec = Dataset(s=_S8, y=_Y_FLAGGED), CONSTANT
    elif case == "toomany":
        data, spec = Dataset(s=_S8, y=_Y_TOOMANY), CONSTANT
    else:
        data, spec = _bench_curve(int(case[1:]), 5)
    fit = fit_single(data, spec)
    conf = BootstrapConfig(replicates=199, seed=2, multiplier=multiplier)
    got, got_reasons = replicate_pivots(data, fit, conf)
    want, want_reasons = _loop_pivots(data, fit, conf)
    assert got_reasons == want_reasons
    ok = np.array([r is None for r in want_reasons])
    assert ok.any()
    scale = np.maximum(np.maximum(np.abs(got[ok]), np.abs(want[ok])), 1.0)
    assert np.max(np.abs(got[ok] - want[ok]) / scale) <= 1e-12


def test_moderate_failures_set_flag():
    data = Dataset(s=_S8, y=_Y_FLAGGED)
    fit = fit_single(data, CONSTANT)
    res = wild_bootstrap_ci(data, fit, BootstrapConfig(replicates=199, seed=1))
    assert res.flagged
    assert 0.05 < res.failures / 199 <= 0.20
    assert res.replicates_used == 199 - res.failures
    assert np.all(np.isfinite(res.t_quantiles))
    _, reasons = _loop_pivots(data, fit, BootstrapConfig(replicates=199, seed=1))
    want = Counter(r for r in reasons if r is not None)
    assert res.failure_reasons == dict(want)
    assert sum(res.failure_reasons.values()) == res.failures


def test_excessive_failures_raise():
    data = Dataset(s=_S8, y=_Y_TOOMANY)
    fit = fit_single(data, CONSTANT)
    conf = BootstrapConfig(replicates=199, seed=1)
    with pytest.raises(TooManyFailures):
        wild_bootstrap_ci(data, fit, conf)
    _, got = replicate_pivots(data, fit, conf)
    _, want = _loop_pivots(data, fit, conf)
    assert Counter(got) == Counter(want)
    assert sum(r is not None for r in got) > 0.20 * 199


def test_linear_quantiles_match_numpy():
    # One row, all-tied columns, ties, B = 999 and extreme levels: equal to
    # np.quantile's linear rule bit for bit.
    rng = np.random.default_rng(7)
    cases = [
        rng.standard_normal((1, 2)),
        np.full((50, 2), 1.25),
        np.column_stack([np.round(rng.standard_normal(300), 1), np.full(300, -3.0)]),
        rng.standard_normal((999, 2)),
        rng.standard_t(3, (998, 2)),
    ]
    for x in cases:
        for alpha in (1e-4, 0.01, 0.05, 0.1, 0.5, 0.999):
            probs = [alpha / 2.0, 1.0 - alpha / 2.0]
            got = wildboot._linear_quantiles(x, probs)
            want = np.quantile(x, probs, axis=0, method="linear")
            assert got.tobytes() == want.tobytes()


# --- config validation ----------------------------------------------------------


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=98)
    with pytest.raises(ValueError):
        BootstrapConfig(multiplier="gaussian")
    with pytest.raises(ValueError):
        BootstrapConfig(level=1.0)
    with pytest.raises(ValueError):
        BootstrapConfig(seed=-1)


def test_bootstrap_rejects_fit_without_finite_se(rng):
    data, fit = _fit_and_data(rng)
    bad_se = type(fit)(
        **{
            **{f: getattr(fit, f) for f in fit.__dataclass_fields__},
            "se": np.array([np.nan, 1.0]),
        }
    )
    with pytest.raises(ValueError):
        wild_bootstrap_ci(data, bad_se, BootstrapConfig(replicates=99))
