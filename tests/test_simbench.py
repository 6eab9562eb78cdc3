from dataclasses import replace

import numpy as np
import pytest

from mmhet import (
    DEFAULT_CANDIDATES,
    ClusterScenario,
    MMParams,
    SingleBenchmarkConfig,
    SingleScenario,
    VarianceShape,
    VarianceSpec,
    fit_single,
    generate_clustered,
    generate_single,
    run_clustered_benchmark,
    run_single_benchmark,
)
from mmhet import cluster, simbench, single
from mmhet.core import eval_h
from mmhet.exceptions import InsufficientSuccesses, MMHetError
from mmhet.rootfind import solve_rows
from mmhet.simbench import ClusterBenchmarkConfig, compute_metrics, true_variance
from test_bootstrap import assert_km_matches_chandrupatla, recorded_fit_rows

TRUTH = MMParams(100.0, 20.0)


# --- generative variance shapes ------------------------------------------------


def test_true_variance_spot_values():
    assert true_variance("mm", 20.0) == pytest.approx(5.5, rel=1e-14)
    assert true_variance("hill", 20.0) == pytest.approx(5.5, rel=1e-14)
    assert true_variance("exp", 20.0) == pytest.approx(
        1.0 + 9.0 * (1.0 - np.exp(-1.0)), rel=1e-14
    )
    for shape in VarianceShape:
        assert true_variance(shape, 0.0) == pytest.approx(1.0)


def test_true_variance_bounded_increasing():
    s = np.linspace(0.0, 1e6, 2001)
    for shape in VarianceShape:
        v = true_variance(shape, s)
        assert np.all(v >= 1.0) and np.all(v <= 10.0)
        assert np.all(np.diff(v) >= 0.0)


# --- replicate generators -------------------------------------------------------


def test_generate_single_deterministic_streams():
    sc = SingleScenario(shape="mm", replications=10, master_seed=42)
    a = generate_single(sc, 3)
    b = generate_single(sc, 3)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.s, sc.grid())
    c = generate_single(sc, 4)
    assert not np.array_equal(a.y, c.y)
    other = generate_single(SingleScenario(shape="mm", master_seed=43), 3)
    assert not np.array_equal(a.y, other.y)


def test_generate_single_matches_declared_moments():
    # Column mean and variance across replicates against the declared
    # curve and noise shape; 50k draws puts 2.5 percent beyond 4 sigma.
    sc = SingleScenario(shape="hill", n=20, master_seed=7)
    cols = np.array([generate_single(sc, r).y for r in range(50_000)])
    j = 10
    s_j = sc.grid()[j]
    v_j = float(true_variance("hill", s_j))
    mean_tol = 4.0 * np.sqrt(v_j / 50_000)
    assert abs(cols[:, j].mean() - 100.0 * s_j / (20.0 + s_j)) < mean_tol
    assert abs(cols[:, j].var() / v_j - 1.0) < 0.025


def test_generate_clustered_structure_and_moments():
    sc = ClusterScenario(m=3, master_seed=5)
    data = generate_clustered(sc, 0)
    assert len(data.clusters) == 3
    assert all(np.array_equal(c.s, sc.cluster_s()) for c in data.clusters)
    assert np.array_equal(
        generate_clustered(sc, 0).clusters[1].y, data.clusters[1].y
    )

    # shared-shift covariance: var matches the marginal, cross-point
    # covariance within a cluster matches tau^2 z_a z_b
    reps = 20_000
    ya = np.empty(reps)
    yb = np.empty(reps)
    for r in range(reps):
        c0 = generate_clustered(sc, r).clusters[0]
        ya[r] = c0.y[0]  # s = 10, first rep
        yb[r] = c0.y[-1]  # s = 1200, last rep
    s_lo, s_hi = sc.cluster_s()[0], sc.cluster_s()[-1]
    var_lo = float(sc.marginal_variance(s_lo))
    var_hi = float(sc.marginal_variance(s_hi))
    z = lambda s: s / (sc.truth.km + s)
    cov_ab = sc.tau**2 * z(s_lo) * z(s_hi)
    assert abs(ya.var() / var_lo - 1.0) < 0.05
    assert abs(yb.var() / var_hi - 1.0) < 0.05
    got_cov = np.cov(ya, yb, ddof=0)[0, 1]
    assert abs(got_cov - cov_ab) < 0.08 * cov_ab


def _drawn_single(sc, r):
    """Replicate r as the seed semantics state it: n standard normals from
    the stream keyed (master_seed, 1, r)."""
    rng = np.random.default_rng(np.random.SeedSequence((sc.master_seed, 1, r)))
    s = sc.grid()
    return TRUTH.vmax * (s / (TRUTH.km + s)) + np.sqrt(true_variance(sc.shape, s)) * (
        rng.standard_normal(s.size)
    )


def _drawn_panel(sc, r):
    """Pooled replicate panel r as the seed semantics state it: from the
    stream keyed (master_seed, 2, r), the m vmax shifts, then one vector of
    standard normals per cluster, in cluster order."""
    rng = np.random.default_rng(np.random.SeedSequence((sc.master_seed, 2, r)))
    s = sc.cluster_s()
    shifts = rng.normal(0.0, sc.tau, size=sc.m)
    sd = np.sqrt(sc.gamma_true * eval_h(sc.h_true, s))
    frac = s / (TRUTH.km + s)
    return np.concatenate(
        [(TRUTH.vmax + shift) * frac + sd * rng.standard_normal(s.size) for shift in shifts]
    )


def _fit_rows_inputs(monkeypatch):
    """Wrap fit_rows wherever a module holds it; the returned list records
    each call's (y, spec)."""
    calls = []
    fit = single.fit_rows

    def recorded(s, y, spec):
        calls.append((y, spec))
        return fit(s, y, spec)

    for module in (single, simbench, cluster):
        if hasattr(module, "fit_rows"):
            monkeypatch.setattr(module, "fit_rows", recorded)
    return calls


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_suite_response_rows_match_generators(monkeypatch):
    # The suites draw every replicate straight into one response array; each
    # row must be, bit for bit, the replicate generate_single and
    # generate_clustered return and the one its keyed stream defines.
    calls = _fit_rows_inputs(monkeypatch)
    sc = SingleScenario(shape="exp", n=20, replications=40, master_seed=123)
    run_single_benchmark(
        SingleBenchmarkConfig(scenarios=(sc,), methods=(VarianceSpec.constant(),))
    )
    (y, _), = calls
    for r in (0, 1, sc.replications - 1):
        assert _same_bits(y[r], generate_single(sc, r).y)
        assert _same_bits(y[r], _drawn_single(sc, r))

    calls.clear()
    cfg = ClusterBenchmarkConfig.default(replications=40, master_seed=123, cluster_sizes=(3, 6))
    run_clustered_benchmark(cfg)
    per_scenario = len(cfg.pooled_specs)
    for k, sc in enumerate(cfg.scenarios):
        y, _ = calls[k * per_scenario]
        for r in (0, 1, sc.replications - 1):
            assert _same_bits(y[r], generate_clustered(sc, r).pooled().y)
            assert _same_bits(y[r], _drawn_panel(sc, r))

    # the R=1000 suite's floor panels at the shipped seed
    for m, r in ((3, 927), (6, 415)):
        sc = ClusterScenario(m=m)
        y = simbench._cluster_responses(sc, range(sc.replications))
        assert y.shape == (sc.replications, m, sc.cluster_s().size)
        assert _same_bits(y[r].ravel(), generate_clustered(sc, r).pooled().y)
        assert _same_bits(y[r].ravel(), _drawn_panel(sc, r))


def test_clustered_suite_fits_each_pooled_panel_once(monkeypatch):
    # The clustered cell starts from its pooled cell's fits, so a scenario
    # makes one fit_rows call per pooled spec; a clustered spec without a
    # pooled cell gets its starts from one more call, with the same result.
    calls = _fit_rows_inputs(monkeypatch)
    cfg = ClusterBenchmarkConfig.default(replications=30, master_seed=5, cluster_sizes=(3, 6))
    shared = run_clustered_benchmark(cfg)
    assert [spec for _, spec in calls] == list(cfg.pooled_specs) * len(cfg.scenarios)

    calls.clear()
    alone = replace(cfg, pooled_specs=(VarianceSpec.constant(),))
    own = run_clustered_benchmark(alone)
    assert [spec for _, spec in calls] == [VarianceSpec.constant(), cfg.clustered_spec] * 2
    want, got = (
        [row for row in report.canonical_dict()["rows"] if row["method"].startswith("clustered")]
        for report in (shared, own)
    )
    assert len(got) == 2 and got == want


def test_scenario_validation():
    with pytest.raises(ValueError):
        SingleScenario(n=2)
    with pytest.raises(ValueError):
        SingleScenario(replications=0)
    with pytest.raises(ValueError):
        SingleScenario(shape="cauchy")
    with pytest.raises(ValueError):
        ClusterScenario(m=1)
    with pytest.raises(ValueError):
        ClusterScenario(reps_per_level=0)
    with pytest.raises(ValueError):
        ClusterScenario(tau=-1.0)
    with pytest.raises(ValueError):
        ClusterScenario(gamma_true=0.0)
    with pytest.raises(ValueError):
        ClusterScenario(replications=0)
    with pytest.raises(ValueError):
        ClusterScenario(replications=-3)
    with pytest.raises(ValueError):
        run_clustered_benchmark(ClusterBenchmarkConfig.default(replications=0))


# --- metric aggregation ---------------------------------------------------------


def test_compute_metrics_spreadsheet_oracle():
    estimates = np.array([[101.0, 21.0], [99.0, 19.0], [102.0, 22.0], [98.0, 18.0]])
    ses = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
    intervals = np.array(
        [
            [[100.5, 103.0], [19.0, 23.0]],  # vmax interval misses low
            [[97.0, 101.0], [18.0, 20.5]],
            [[96.0, 104.0], [17.0, 23.0]],
            [[95.0, 103.0], [16.0, 24.0]],
        ]
    )
    fitted = np.array([[1.0, 2.0], [2.0, 3.0], [1.0, 2.0], [2.0, 3.0]])
    v_true = np.array([1.5, 2.5])
    runtimes = np.array([0.1, 0.2, 0.3, 0.4])
    row = compute_metrics(
        "mm",
        "constant",
        estimates,
        intervals,
        ses,
        fitted,
        TRUTH,
        v_true,
        runtimes,
        alpha=0.05,
        replications=5,
    )
    assert row.scenario == "mm" and row.method == "constant"
    assert row.bias_vmax == 0.0 and row.bias_km == 0.0
    assert row.rmse_vmax == pytest.approx(np.sqrt(2.5), rel=1e-14)
    assert row.rmse_km == pytest.approx(np.sqrt(2.5), rel=1e-14)
    assert row.cp_vmax == 0.75 and row.cp_km == 1.0
    assert row.mil_vmax == 5.625 and row.mil_km == 5.125
    # one miss by 0.5 at alpha = 0.05 adds (2/alpha)*0.5 = 20 to that row
    assert row.interval_score_vmax == 10.625
    assert row.interval_score_km == row.mil_km  # all covered: no penalty
    assert row.secr_vmax == pytest.approx(np.sqrt(2.5) / 1.5, rel=1e-14)
    assert row.secr_km == pytest.approx(np.sqrt(2.5) / 1.5, rel=1e-14)
    assert row.var_mse == 0.25
    assert row.mean_runtime_s == 0.25
    assert row.successes == 4 and row.replications == 5
    assert row.var_rmse is None and row.tau2_rmse is None


def test_rmse_decomposition_identity(rng):
    # 1/R moments make rmse^2 = bias^2 + population variance exactly.
    for _ in range(5):
        est = rng.normal(50.0, 5.0, (17, 2))
        row = compute_metrics(
            "mm",
            "constant",
            est,
            np.tile([[0.0, 1e6]], (17, 2, 1)),
            np.ones((17, 2)),
            np.ones((17, 3)),
            TRUTH,
            np.ones(3),
            np.zeros(17),
        )
        for rmse, bias, col in (
            (row.rmse_vmax, row.bias_vmax, est[:, 0]),
            (row.rmse_km, row.bias_km, est[:, 1]),
        ):
            assert rmse**2 == pytest.approx(bias**2 + col.var(ddof=0), rel=1e-12)


def test_compute_metrics_requires_two_successes():
    with pytest.raises(InsufficientSuccesses):
        compute_metrics(
            "mm",
            "constant",
            np.array([[100.0, 20.0]]),
            np.zeros((1, 2, 2)),
            np.ones((1, 2)),
            np.ones((1, 3)),
            TRUTH,
            np.ones(3),
            np.zeros(1),
        )


# --- benchmark drivers ----------------------------------------------------------


def _small_single_config(methods=None, seed=123, reps=30):
    sc = SingleScenario(shape="mm", n=20, replications=reps, master_seed=seed)
    kwargs = {"scenarios": (sc,)}
    if methods is not None:
        kwargs["methods"] = methods
    return SingleBenchmarkConfig(**kwargs)


def test_single_benchmark_deterministic_and_complete():
    r1 = run_single_benchmark(_small_single_config())
    r2 = run_single_benchmark(_small_single_config())
    assert r1.canonical_dict() == r2.canonical_dict()
    assert r1.suite == "single"
    assert [row.method for row in r1.rows] == [
        "constant",
        "log",
        "pow:0.5",
        "pow:0.333333",
    ]
    assert all(row.scenario == "mm" for row in r1.rows)
    assert all(row.replications == 30 for row in r1.rows)
    assert all(row.successes <= 30 for row in r1.rows)
    assert r1.meta["scenarios"][0]["master_seed"] == 123
    # timing is excluded from the canonical document but present on demand
    with_timing = r1.canonical_dict(include_timing=True)
    assert with_timing["rows"][0]["mean_runtime_s"] is not None
    assert r1.canonical_dict()["rows"][0]["mean_runtime_s"] is None


def test_single_benchmark_common_random_numbers():
    # Each method sees the same replicate data, so a joint run must equal
    # per-method runs cell for cell.
    joint = run_single_benchmark(
        _small_single_config(methods=(VarianceSpec.constant(), VarianceSpec.log_shift()))
    )
    solo_const = run_single_benchmark(
        _small_single_config(methods=(VarianceSpec.constant(),))
    )
    solo_log = run_single_benchmark(
        _small_single_config(methods=(VarianceSpec.log_shift(),))
    )
    rows = joint.canonical_dict()["rows"]
    assert rows[0] == solo_const.canonical_dict()["rows"][0]
    assert rows[1] == solo_log.canonical_dict()["rows"][0]


def test_benchmark_reports_identical_across_block_sizes(monkeypatch):
    # 15 = 2 * 7 + 1 and 129 = 128 + 1 leave a one-row tail block.
    default = single.BLOCK_ROWS
    for reps in (15, 129):
        suites = (
            lambda: run_single_benchmark(_small_single_config(reps=reps)),
            lambda: run_clustered_benchmark(
                ClusterBenchmarkConfig.default(
                    replications=reps, master_seed=77, cluster_sizes=(3, 6)
                )
            ),
        )
        for run in suites:
            docs = []
            for block in (1, 7, default):
                monkeypatch.setattr(single, "BLOCK_ROWS", block)
                docs.append(run().canonical_dict())
            assert docs[1] == docs[0]
            assert docs[2] == docs[0]


def _loop_cell(datasets, spec):
    """Per-replicate fit_single outcomes of one cell, as the suite keeps them."""
    est, intervals, ses, gammas = [], [], [], []
    for data in datasets:
        try:
            fit = fit_single(data, spec)
        except MMHetError:
            continue
        if np.all(np.isfinite(fit.se)):
            est.append(fit.params.as_array())
            intervals.append([fit.ci_vmax, fit.ci_km])
            ses.append(fit.se)
            gammas.append(fit.gamma)
    return np.array(est), np.array(intervals), np.array(ses), np.array(gammas)


def _count_fallback(monkeypatch):
    """Wrap single.fit_single, the fallback inside fit_rows; the returned
    list records True for each call that fit and False for each that raised."""
    outcomes = []
    fit = single.fit_single

    def counted(*args, **kwargs):
        try:
            result = fit(*args, **kwargs)
        except MMHetError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return result

    monkeypatch.setattr(single, "fit_single", counted)
    return outcomes


def _bracket_nothing(values, ks, evaluate):
    # solve_rows on grid values that bracket no row
    return solve_rows(np.full_like(values, np.nan), ks, evaluate)


# The shipped design fits every row in the batched stage.  "fallback" runs
# the same design with solve_rows bracketing no row, so fit_rows sends every
# row through its fit_single fallback, since suite data whose fallback rows
# fit are not known (none of 8969 in a sweep of low-signal scenarios).  The
# low-signal curve mixes all three outcomes per method: rows fit_rows fails
# itself, rows it hands to the fallback (which fail there too), and rows it
# fits.  Some of its roots sit near k = 8000, 160 times the truth, where the
# computed profile equation changes sign several times within 5e-11 of the
# root; the batched and the scalar solver then stop at different sign
# changes, both valid, whose estimates differ by up to 3.2e-11.
_SHIPPED = SingleScenario(shape="hill", n=20, replications=60, master_seed=5)
_ORACLE_CASES = {
    "shipped": (_SHIPPED, 1e-12),
    "fallback": (_SHIPPED, 0.0),
    "mixed": (
        SingleScenario(n=8, truth=MMParams(2.0, 50.0), replications=200, master_seed=5),
        1e-10,
    ),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_single_benchmark_matches_fit_single_loop(monkeypatch, case):
    sc, rtol = _ORACLE_CASES[case]
    datasets = [generate_single(sc, r) for r in range(sc.replications)]
    if case == "fallback":
        monkeypatch.setattr(single, "solve_rows", _bracket_nothing)
    if case == "mixed":
        y = np.array([data.y for data in datasets])
        for spec in DEFAULT_CANDIDATES:
            with monkeypatch.context() as patch:
                fallback = _count_fallback(patch)
                rows = single.fit_rows(sc.grid(), y, spec)
            failed = int(np.not_equal(rows.failure, None).sum())
            assert fallback  # handed to the fallback
            assert failed > fallback.count(False)  # failed in the batched stage
            assert sc.replications - failed > fallback.count(True)  # fit in the batched stage

    fallback = _count_fallback(monkeypatch)
    cells = recorded_fit_rows(monkeypatch, simbench)
    calls = []
    compute = simbench.compute_metrics

    def record(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(simbench, "compute_metrics", record)
    report = run_single_benchmark(SingleBenchmarkConfig(scenarios=(sc,)))
    if case == "fallback":
        assert len(fallback) == sc.replications * len(DEFAULT_CANDIDATES)
    assert len(calls) == len(report.rows) == len(cells) == len(DEFAULT_CANDIDATES)
    for cell in cells:
        assert_km_matches_chandrupatla(*cell)
    for spec, args, row in zip(DEFAULT_CANDIDATES, calls, report.rows):
        est, intervals, ses, gammas = _loop_cell(datasets, spec)
        assert row.successes == len(est) and row.replications == sc.replications
        want = (est, intervals, ses, np.outer(gammas, eval_h(spec, sc.grid())))
        for got, expected in zip(args[2:6], want):
            assert got.shape == expected.shape
            scale = np.maximum(np.maximum(np.abs(got), np.abs(expected)), 1.0)
            assert np.max(np.abs(got - expected) / scale) <= rtol


def test_clustered_benchmark_rows_and_determinism():
    cfg = ClusterBenchmarkConfig.default(replications=25, master_seed=77, cluster_sizes=(3,))
    r1 = run_clustered_benchmark(cfg)
    r2 = run_clustered_benchmark(cfg)
    assert r1.canonical_dict() == r2.canonical_dict()
    assert r1.suite == "clustered"
    methods = [row.method for row in r1.rows]
    assert methods == ["pooled-constant", "pooled-pow:0.5", "clustered-pow:0.5"]
    for row in r1.rows:
        assert row.scenario == "m3"
        assert row.var_rmse is not None and row.var_rmse > 0.0
    assert r1.rows[0].tau2_rmse is None
    assert r1.rows[1].tau2_rmse is None
    assert r1.rows[2].tau2_rmse is not None


def test_clustered_benchmark_correct_specification_coverage():
    # With no cluster effect and the pooled working shape equal to the
    # generative one, plug-in intervals should be near nominal.
    sc = ClusterScenario(m=4, tau=0.0, replications=400, master_seed=31)
    cfg = ClusterBenchmarkConfig(
        scenarios=(sc,), pooled_specs=(VarianceSpec.power(0.5),)
    )
    report = run_clustered_benchmark(cfg)
    pooled = report.rows[0]
    assert 0.92 <= pooled.cp_vmax <= 0.98
    assert 0.92 <= pooled.cp_km <= 0.98


def _loop_clustered(panels, spec):
    """Per-replicate fit_clustered outcomes, kept as the suite keeps them:
    (ok, theta, se, gamma, tau2) with NaN where a fit raised."""
    R = len(panels)
    theta, se = np.full((R, 2), np.nan), np.full((R, 2), np.nan)
    gamma, tau2 = np.full(R, np.nan), np.full(R, np.nan)
    ok = np.zeros(R, dtype=bool)
    for r, data in enumerate(panels):
        try:
            fit = cluster.fit_clustered(data, spec)
        except MMHetError:
            continue
        theta[r], se[r], gamma[r], tau2[r] = fit.params.as_array(), fit.se, fit.gamma, fit.tau2
        ok[r] = fit.converged and np.all(np.isfinite(fit.se))
    return ok, theta, se, gamma, tau2


# "shipped" runs the suite's default scenarios, whose balanced replicates
# all take their pooled fit as the fixed point.  "fallback" passes all-NaN
# pooled fits, so every row goes through fit_clustered's per-panel fit.
# "floor" holds the two replicates of the default R=1000 suite whose gamma is
# pinned at its floor and whose information is singular (m3 replicate 927,
# m6 replicate 415), each beside replicate 0.  The pooled root and
# fit_clustered's GLS root are up to ~1e-14 apart, and cluster_covariance's
# rank-one downdate loses digits when tau2 * z'Ginv z is large, which bounds
# the se agreement.
_CLUSTER_CASES = {
    "shipped-m3": (3, range(60), 1e-12),
    "shipped-m6": (6, range(60), 1e-12),
    "fallback": (6, range(60), 0.0),
    "floor-m3": (3, (0, 927), 1e-12),
    "floor-m6": (6, (0, 415), 1e-12),
}


@pytest.mark.parametrize("case", sorted(_CLUSTER_CASES))
def test_clustered_cell_matches_fit_clustered_loop(monkeypatch, case):
    m, replicates, rtol = _CLUSTER_CASES[case]
    sc = ClusterScenario(m=m)
    spec = ClusterBenchmarkConfig().clustered_spec
    panels = [generate_clustered(sc, r) for r in replicates]
    want = _loop_clustered(panels, spec)

    calls = []
    fit = cluster._fit_stacked

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(cluster, "_fit_stacked", counted)
    s = np.tile(sc.cluster_s(), m)
    starts = np.arange(m) * sc.cluster_s().size
    y = np.array([p.pooled().y for p in panels])
    pooled = single.fit_rows(s, y, spec).theta
    if case == "fallback":
        pooled = np.full_like(pooled, np.nan)
    got = simbench._clustered_cell(s, starts, y, spec, pooled)

    assert len(calls) == (len(panels) if case == "fallback" else 0)
    assert np.array_equal(got.ok, want[0])
    if case.startswith("floor"):
        assert got.ok.tolist() == [True, False]
    for g, w in zip((got.theta, got.se, got.gamma, got.tau2), want[1:]):
        g, w = g[got.ok], w[got.ok]
        scale = np.maximum(np.maximum(np.abs(g), np.abs(w)), 1.0)
        assert np.max(np.abs(g - w) / scale) <= rtol
