"""End-to-end acceptance gate.

Regenerates the calibrated Monte Carlo reference tables for the seeded
default benchmarks, then checks oracle equivalences, exactness identities,
bootstrap properties, and panel model-selection ordering.  Each criterion
prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line on the live terminal
so the gate can be scanned without reading tracebacks.
"""

import time

import numpy as np
import pytest

from mmhet import (
    BootstrapConfig,
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    fit_clustered,
    fit_single,
    group_fit,
    mm_mean,
    wild_bootstrap_ci,
)
from mmhet.cluster import solve_working_cov
from mmhet.core import eval_h, mm_gradient
from mmhet.simbench import (
    ClusterBenchmarkConfig,
    SingleBenchmarkConfig,
    SingleScenario,
    generate_single,
    run_clustered_benchmark,
    run_single_benchmark,
)
from mmhet import single
from mmhet.wildboot import draw_multipliers

from acceptance_checks import clustered_checks, single_checks
from oracles import dense_solve, grid_profile_wsse, lm_weighted_fit

TRUTH = MMParams(vmax=100.0, km=20.0)

CONSTANT = VarianceSpec.constant()
NONCONSTANT = (
    VarianceSpec.log_shift(),
    VarianceSpec.power(0.5),
    VarianceSpec.power(1.0 / 3.0),
)


def _verdict(idx, name, failures):
    print(f"\nACCEPTANCE {idx} {name}: {'PASS' if not failures else 'FAIL'}", flush=True)
    assert not failures, "\n".join(str(f) for f in failures)


@pytest.fixture(scope="module")
def single_run():
    cfg = SingleBenchmarkConfig.default(replications=1000)
    t0 = time.perf_counter()
    report = run_single_benchmark(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def clustered_run():
    cfg = ClusterBenchmarkConfig.default(replications=1000)
    t0 = time.perf_counter()
    report = run_clustered_benchmark(cfg)
    return report, time.perf_counter() - t0


def _failed(checks, criterion):
    return [c for c in checks if c.criterion == criterion and not c.passed]


def test_acceptance_1_single_bias_rmse(single_run):
    report, elapsed = single_run
    failures = []
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    failures += _failed(single_checks(report), 1)
    _verdict(1, "single benchmark bias/rmse", failures)


def test_acceptance_2_single_coverage(single_run):
    report, _ = single_run
    _verdict(2, "single benchmark coverage/widths", _failed(single_checks(report), 2))


def test_acceptance_3_secr_band(single_run):
    report, _ = single_run
    _verdict(3, "se calibration ratios", _failed(single_checks(report), 3))


def test_acceptance_4_clustered_benchmark(clustered_run):
    report, elapsed = clustered_run
    failures = []
    if elapsed > 900.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 900s")
    failures += _failed(clustered_checks(report), 4)
    _verdict(4, "clustered benchmark", failures)


def test_acceptance_5_oracle_equivalences():
    failures = []
    # (a) constant-weights fit agrees with an independent damped
    # least-squares solver on 200 seeded datasets.
    for i in range(200):
        rng = np.random.default_rng((4242, i))
        truth = MMParams(rng.uniform(60, 140), rng.uniform(5, 45))
        s = np.geomspace(1.0, 150.0, 25)
        y = mm_mean(s, truth) + rng.normal(0.0, rng.uniform(0.5, 3.0), 25)
        res = fit_single(Dataset(s, y), CONSTANT)
        ref = lm_weighted_fit(s, y)
        if abs(res.params.vmax - ref[0]) > 1e-6 * abs(ref[0]) or abs(
            res.params.km - ref[1]
        ) > 1e-6 * abs(ref[1]):
            failures.append(("lm", i, res.params, ref))
    # (b) each non-constant spec agrees with a brute-force weighted-SSE
    # grid minimizer on 50 seeded small datasets.
    for j, spec in enumerate(NONCONSTANT):
        for i in range(50):
            rng = np.random.default_rng((5150, j, i))
            s = np.geomspace(0.8, 120.0, 12)
            h = eval_h(spec, s)
            y = mm_mean(s, MMParams(90.0, 15.0)) + rng.normal(0.0, 1.0, 12) * np.sqrt(
                2.0 * h
            )
            res = fit_single(Dataset(s, y), spec)
            k0, _, _ = grid_profile_wsse(s, y, h, np.geomspace(0.5, 500.0, 3000))
            k_ref, v_ref, _ = grid_profile_wsse(
                s, y, h, np.linspace(0.9 * k0, 1.1 * k0, 2000)
            )
            if abs(res.params.km - k_ref) > 1e-3 * abs(k_ref):
                failures.append(("grid km", spec.label(), i, res.params.km, k_ref))
            if abs(res.params.vmax - v_ref) > 1e-3 * abs(v_ref):
                failures.append(("grid vmax", spec.label(), i, res.params.vmax, v_ref))
    # (c) rank-one working-covariance solves match dense solves on 1000
    # randomized instances with cluster sizes up to 8.
    for i in range(1000):
        rng = np.random.default_rng((9090, i))
        n = int(rng.integers(1, 9))
        z = rng.normal(0.0, 1.0, n)
        h = rng.lognormal(0.0, 0.7, n)
        tau2 = 0.0 if i % 7 == 0 else float(rng.uniform(0.0, 50.0))
        gamma = float(rng.uniform(0.1, 30.0))
        rhs = rng.normal(0.0, 1.0, (n, 2)) if i % 3 == 0 else rng.normal(0.0, 1.0, n)
        got = solve_working_cov(z, h, tau2, gamma, rhs)
        want = dense_solve(z, h, tau2, gamma, rhs)
        scale = np.max(np.abs(want)) + 1.0
        if np.max(np.abs(got - want)) > 1e-10 * scale:
            failures.append(("solve", i, float(np.max(np.abs(got - want)))))
    _verdict(5, "oracle equivalences", failures)


def test_acceptance_6_exactness():
    failures = []
    s = np.geomspace(1.0, 200.0, 40)
    clean = Dataset(s, mm_mean(s, TRUTH))
    # noiseless recovery for every default candidate
    for spec in (CONSTANT,) + NONCONSTANT:
        res = fit_single(clean, spec)
        if abs(res.params.vmax - 100.0) > 1e-6 * 100.0 or abs(
            res.params.km - 20.0
        ) > 1e-6 * 20.0:
            failures.append(("noiseless params", spec.label(), res.params))
        if res.gamma > 1e-10:
            failures.append(("noiseless gamma", spec.label(), res.gamma))
    # central finite differences reproduce the analytic gradient
    for i in range(200):
        rng = np.random.default_rng((6060, i))
        sv = float(rng.uniform(0.5, 300.0))
        p = MMParams(float(rng.uniform(20, 180)), float(rng.uniform(2, 80)))
        g = mm_gradient(sv, p)
        dv = 1e-6 * max(1.0, abs(p.vmax))
        dk = 1e-6 * max(1.0, abs(p.km))
        fd = np.array(
            [
                (mm_mean(sv, MMParams(p.vmax + dv, p.km))
                 - mm_mean(sv, MMParams(p.vmax - dv, p.km))) / (2 * dv),
                (mm_mean(sv, MMParams(p.vmax, p.km + dk))
                 - mm_mean(sv, MMParams(p.vmax, p.km - dk))) / (2 * dk),
            ]
        )
        if np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-12)) > 1e-6:
            failures.append(("gradient fd", i, g, fd))
    # response rescaling by powers of two moves the estimate exactly
    rng = np.random.default_rng(7171)
    y = mm_mean(s, TRUTH) + rng.normal(0.0, 2.0, 40)
    for spec in (CONSTANT, VarianceSpec.power(0.5)):
        base = fit_single(Dataset(s, y), spec)
        for c in (2.0, 0.5):
            scaled = fit_single(Dataset(s, c * y), spec)
            if scaled.params.km != base.params.km:
                failures.append(("scale km", spec.label(), c))
            if scaled.params.vmax != c * base.params.vmax:
                failures.append(("scale vmax", spec.label(), c))
            if scaled.gamma != c * c * base.gamma:
                failures.append(("scale gamma", spec.label(), c))
    # tau2 truncated at zero collapses the clustered fit onto the pooled fit
    s8 = np.geomspace(2.0, 80.0, 8)
    e = 2.0 * (-1.0) ** np.arange(8)
    y8 = mm_mean(s8, TRUTH) + e
    panel = ClusteredDataset(clusters=(Dataset(s8, y8), Dataset(s8, y8)))
    res = fit_clustered(panel, CONSTANT)
    pooled = fit_single(panel.pooled(), CONSTANT)
    if res.tau2 != 0.0:
        failures.append(("tau2 not truncated", res.tau2))
    for name, a, b in (
        ("vmax", res.params.vmax, pooled.params.vmax),
        ("km", res.params.km, pooled.params.km),
    ):
        if abs(a - b) > 1e-8 * abs(b):
            failures.append(("tau2=0 reduction", name, a, b))
    _verdict(6, "exactness identities", failures)


@pytest.mark.slow
def test_acceptance_7_bootstrap_properties(monkeypatch):
    failures = []
    # multiplier moments at 1e6 draws, 3-decimal agreement; deterministic
    # under the fixed stream, so sampling noise sits below the bar while a
    # mis-specified two-point law would miss by ~0.24
    for kind, skew in (("rademacher", 0.0), ("mammen", 1.0)):
        w = draw_multipliers(kind, 1_000_000, np.random.default_rng(30))
        for name, got, want in (
            ("mean", w.mean(), 0.0),
            ("var", w.var(), 1.0),
            ("third", (w**3).mean(), skew),
        ):
            if abs(got - want) > 5e-4:
                failures.append((kind, name, round(float(got), 5)))
    # fixed seed, identical intervals across refit block sizes (99 and 129
    # leave one-row tail blocks)
    sc = SingleScenario(master_seed=11)
    data = generate_single(sc, 0)
    fit = fit_single(data, CONSTANT)
    default = single.BLOCK_ROWS
    for replicates in (99, 129, 199):
        conf = BootstrapConfig(replicates=replicates, seed=5)
        runs = []
        for block in (1, 7, default):
            monkeypatch.setattr(single, "BLOCK_ROWS", block)
            runs.append(wild_bootstrap_ci(data, fit, conf))
        monkeypatch.setattr(single, "BLOCK_ROWS", default)
        for other in runs[1:]:
            if other.ci_vmax != runs[0].ci_vmax or other.ci_km != runs[0].ci_km:
                failures.append(("block determinism", replicates, other.ci_vmax))
            if not np.array_equal(other.t_quantiles, runs[0].t_quantiles):
                failures.append(("block determinism", replicates, "t_quantiles differ"))
    # nested Monte Carlo: percentile-t coverage of vmax at nominal 0.95
    t0 = time.perf_counter()
    hits = used = 0
    for r in range(500):
        rep = generate_single(sc, r)
        try:
            base = fit_single(rep, CONSTANT)
            boot = wild_bootstrap_ci(
                rep, base, BootstrapConfig(replicates=499, seed=r)
            )
        except Exception:
            continue
        used += 1
        lo, hi = boot.ci_vmax
        hits += int(lo <= TRUTH.vmax <= hi)
    elapsed = time.perf_counter() - t0
    if elapsed > 1800.0:
        failures.append(f"nested runtime {elapsed:.0f}s exceeds 1800s")
    if used < 490:
        failures.append(("too many outer failures", used))
    coverage = hits / used if used else 0.0
    if not (0.90 <= coverage <= 0.99):
        failures.append(("coverage", round(coverage, 4)))
    _verdict(7, "bootstrap properties", failures)


def test_acceptance_8_panel_model_ordering():
    failures = []
    expected = [
        VarianceSpec.power(0.5).label(),
        VarianceSpec.power(1.0 / 3.0).label(),
        VarianceSpec.log_shift().label(),
        VarianceSpec.constant().label(),
    ]
    s = np.geomspace(0.5, 5000.0, 60)
    sd = np.sqrt(4.0 * np.sqrt(s))
    ok = 0
    for p in range(100):
        rng = np.random.default_rng((97, 0, p))
        panel = {}
        for g in range(8):
            truth = MMParams(rng.uniform(60, 140), rng.uniform(8, 45))
            panel[f"g{g}"] = Dataset(s, mm_mean(s, truth) + rng.normal(0, 1, 60) * sd)
        res = group_fit(panel)
        order = [row.spec.label() for row in res.summary]
        ok += int(order == expected)
    if ok < 95:
        failures.append(("panels with expected mean-AIC order", ok))
    _verdict(8, "panel model ordering", failures)
