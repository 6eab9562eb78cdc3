import struct
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mmhet import (
    ClusterScenario,
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    fit_clustered,
    fit_single,
    generate_clustered,
    mm_mean,
)
from mmhet import rootfind
from mmhet.cluster import (
    GAMMA_FLOOR_REL,
    _covariance_rows,
    _loadings,
    _moment_update,
    _prepare,
    _score,
    _score_sums,
    _stack,
    cluster_covariance,
    fit_clustered_rows,
    gls_km_profile,
    solve_working_cov,
)
from mmhet.core import eval_h
from mmhet.exceptions import InsufficientReplication, NonPositiveGamma, SingularInformation
from mmhet.simbench import DEFAULT_MASTER_SEED
from mmhet.single import _plugin_cov_rows, fit_rows
from oracles import (
    dense_solve,
    gls_quadratic,
    long_double_cluster_covariance,
    plain_alternation,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import make_cluster_panel  # noqa: E402

POW_HALF = VarianceSpec.power(0.5)
CONSTANT = VarianceSpec.constant()
TRUTH = MMParams(100.0, 20.0)


def _make_clustered(rng, m=6, n=10, tau=3.0, gamma=4.0, spec=POW_HALF, balanced=True):
    clusters = []
    for i in range(m):
        if balanced:
            s = np.geomspace(1.0, 100.0, n)
        else:
            s = np.geomspace(1.0 + 0.7 * i, 100.0 + 11.0 * i, n + (i % 3))
        z = s / (TRUTH.km + s)
        u = rng.normal(0.0, tau)
        noise = rng.normal(0.0, 1.0, s.size) * np.sqrt(gamma * eval_h(spec, s))
        clusters.append(Dataset(s=s, y=TRUTH.vmax * z + u * z + noise))
    return ClusteredDataset(clusters=tuple(clusters))


# --- rank-one working-covariance solves ---------------------------------------


def test_solve_working_cov_hand_2x2():
    # V = [[2,1],[1,2]] from z=(1,1), h=(1,1), tau2=1, gamma=1.
    z = np.ones(2)
    h = np.ones(2)
    x = solve_working_cov(z, h, 1.0, 1.0, np.array([1.0, 0.0]))
    assert x == pytest.approx([2.0 / 3.0, -1.0 / 3.0], rel=1e-14)
    # matrix right-hand side: columns of the inverse
    xi = solve_working_cov(z, h, 1.0, 1.0, np.eye(2))
    assert np.allclose(xi, np.array([[2, -1], [-1, 2]]) / 3.0, rtol=1e-14)


def test_solve_working_cov_matches_dense(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        z = rng.uniform(0.01, 1.0, n)
        h = rng.uniform(0.1, 4.0, n)
        tau2 = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
        gamma = float(rng.uniform(0.1, 3.0))
        rhs = rng.normal(0.0, 1.0, n)
        got = solve_working_cov(z, h, tau2, gamma, rhs)
        want = dense_solve(z, h, tau2, gamma, rhs)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
        rhs_mat = rng.normal(0.0, 1.0, (n, 3))
        got_mat = solve_working_cov(z, h, tau2, gamma, rhs_mat)
        for j in range(3):
            assert np.allclose(
                got_mat[:, j],
                dense_solve(z, h, tau2, gamma, rhs_mat[:, j]),
                rtol=1e-10,
                atol=1e-12,
            )


def test_solve_working_cov_rejects_bad_variance():
    z, h = np.ones(2), np.ones(2)
    with pytest.raises(NonPositiveGamma):
        solve_working_cov(z, h, 1.0, 0.0, np.ones(2))
    with pytest.raises(ValueError):
        solve_working_cov(z, h, -1.0, 1.0, np.ones(2))


# --- moment updates -------------------------------------------------------------


def test_moment_update_recovers_planted_shift():
    # Residuals exactly b_i * z_ij with b_i = +-3 make the off-diagonal
    # moment equal 9 and leave zero diagonal slack, so gamma hits its floor.
    s = np.geomspace(2.0, 80.0, 8)
    z = s / (TRUTH.km + s)
    mu = TRUTH.vmax * z
    clusters = tuple(
        Dataset(s=s, y=mu + b * z) for b in (3.0, -3.0, 3.0, -3.0)
    )
    data = ClusteredDataset(clusters=clusters)
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    moments = _moment_update(_prepare(*_stack(data), CONSTANT), TRUTH, floor)
    assert moments.tau2 == pytest.approx(9.0, rel=1e-12)
    assert moments.gamma == floor


def test_moment_update_truncates_negative_tau2():
    # Alternating within-cluster residual signs force negative raw
    # cross-products, so tau2 is clipped at zero.
    s = np.geomspace(2.0, 80.0, 8)
    mu = mm_mean(s, TRUTH)
    e = 2.0 * (-1.0) ** np.arange(8)
    data = ClusteredDataset(
        clusters=(Dataset(s=s, y=mu + e), Dataset(s=s, y=mu + e))
    )
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    moments = _moment_update(_prepare(*_stack(data), CONSTANT), TRUTH, floor)
    assert moments.tau2 == 0.0 and moments.truncated
    assert moments.gamma > 0.0


def test_moment_update_requires_replication():
    s = np.array([5.0])
    singles = tuple(
        Dataset(s=s * (i + 1), y=np.array([float(i + 10)])) for i in range(3)
    )
    data = ClusteredDataset(clusters=singles)
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    with pytest.raises(InsufficientReplication):
        _moment_update(_prepare(*_stack(data), CONSTANT), TRUTH, floor)


# --- covariance ------------------------------------------------------------------


def test_duplicating_clusters_halves_covariance(rng):
    data = _make_clustered(rng, m=4)
    doubled = ClusteredDataset(clusters=data.clusters + data.clusters)
    c1 = cluster_covariance(_prepare(*_stack(data), POW_HALF), TRUTH, 2.0, 1.5)
    c2 = cluster_covariance(_prepare(*_stack(doubled), POW_HALF), TRUTH, 2.0, 1.5)
    assert np.allclose(c2, c1 / 2.0, rtol=1e-13)


def test_zero_tau2_covariance_matches_single_curve(rng):
    data = _make_clustered(rng, m=4, tau=0.0)
    pooled = data.pooled()
    gamma = 2.25
    got = cluster_covariance(_prepare(*_stack(data), POW_HALF), TRUTH, 0.0, gamma)
    want, ok = _plugin_cov_rows(
        pooled.s, eval_h(POW_HALF, pooled.s),
        np.array([TRUTH.vmax]), np.array([TRUTH.km]), np.array([gamma]),
    )
    assert ok[0]
    assert np.allclose(got, want[0], rtol=1e-10)


def test_cluster_covariance_matches_long_double_oracle():
    # A dense long-double inverse of every V_i.  At moderate tau2 * z'Ginv z
    # the rank-one downdate keeps ~1e-15; at large values it loses digits
    # (5e-9 at tau2 = 1e5, gamma = 1e-2), so it is checked at moderate tau2
    # only.  _covariance_rows, the form the clustered suite reports, keeps
    # ~3e-13 there as well.
    data = generate_clustered(ClusterScenario(m=6), 0)
    panel = _prepare(*_stack(data), POW_HALF)

    def oracle(tau2, gamma):
        return long_double_cluster_covariance(
            [c.s for c in data.clusters], TRUTH.vmax, TRUTH.km, tau2, gamma,
            lambda s: eval_h(POW_HALF, s),
        )

    def rows(tau2, gamma):
        cov, ok = _covariance_rows(
            panel.s, panel.h, panel.starts, np.array([TRUTH.vmax]),
            np.array([TRUTH.km]), np.array([tau2]), np.array([gamma]),
        )
        assert ok.tolist() == [True]
        return cov[0]

    def rel_err(got, want):
        return np.max(np.abs(got - want) / np.abs(want))

    want = oracle(2.0, 1.5)
    assert rel_err(cluster_covariance(panel, TRUTH, 2.0, 1.5), want) <= 1e-13
    assert rel_err(rows(2.0, 1.5), want) <= 1e-13
    assert rel_err(rows(1e5, 1e-2), oracle(1e5, 1e-2)) <= 1e-11


# --- full fit ---------------------------------------------------------------------


def test_fit_clustered_recovers_truth(rng):
    data = _make_clustered(rng, m=8, n=12, tau=3.0, gamma=4.0)
    res = fit_clustered(data, POW_HALF)
    assert res.converged
    assert not res.boundary_tau2
    assert res.params.vmax == pytest.approx(TRUTH.vmax, rel=0.15)
    assert res.params.km == pytest.approx(TRUTH.km, rel=0.35)
    assert res.tau2 > 0.0
    assert res.gamma > 0.0
    assert res.se.shape == (2,)
    assert np.all(res.se > 0.0)
    assert res.ci_vmax[0] < res.params.vmax < res.ci_vmax[1]
    assert res.ci_km[0] < res.params.km < res.ci_km[1]


def test_truncated_tau2_reduces_to_pooled_fit():
    # With tau2 stuck at zero the GLS score is the pooled weighted score,
    # so the clustered fit must land on the single-curve estimate.
    s = np.geomspace(2.0, 80.0, 8)
    mu = mm_mean(s, TRUTH)
    e = 2.0 * (-1.0) ** np.arange(8)
    data = ClusteredDataset(
        clusters=(Dataset(s=s, y=mu + e), Dataset(s=s, y=mu + e))
    )
    res = fit_clustered(data, CONSTANT)
    assert res.tau2 == 0.0
    assert res.boundary_tau2
    single = fit_single(data.pooled(), CONSTANT)
    assert res.params.vmax == pytest.approx(single.params.vmax, rel=1e-8)
    assert res.params.km == pytest.approx(single.params.km, rel=1e-8)


def test_fitted_point_minimizes_frozen_gls_criterion(rng):
    # Freeze V at the fitted parameters and scan the GLS quadratic on a
    # local grid: no perturbed point may beat the fit.
    data = _make_clustered(rng, m=6, n=10, tau=3.0, gamma=4.0, balanced=False)
    res = fit_clustered(data, POW_HALF)
    clusters = [(c.s, c.y) for c in data.clusters]
    h_of = lambda s: eval_h(POW_HALF, s)

    def q(vmax, km):
        return gls_quadratic(
            clusters, km, vmax, res.tau2, res.gamma, h_of, res.params.km
        )

    q_fit = q(res.params.vmax, res.params.km)
    for dv in (-3e-3, 3e-3):
        for dk in (-3e-3, 3e-3):
            q_off = q(res.params.vmax * (1 + dv), res.params.km * (1 + dk))
            assert q_fit <= q_off


def test_fit_clustered_permutation_invariant(rng):
    data = _make_clustered(rng, m=5, n=9, balanced=False)
    res = fit_clustered(data, POW_HALF)
    perm = (3, 0, 4, 1, 2)
    shuffled = ClusteredDataset(
        clusters=tuple(data.clusters[i] for i in perm),
        cluster_ids=tuple(data.cluster_ids[i] for i in perm),
    )
    res_p = fit_clustered(shuffled, POW_HALF)
    assert res_p.params.vmax == pytest.approx(res.params.vmax, rel=1e-10)
    assert res_p.params.km == pytest.approx(res.params.km, rel=1e-10)
    assert res_p.tau2 == pytest.approx(res.tau2, rel=1e-10)
    assert res_p.gamma == pytest.approx(res.gamma, rel=1e-10)


def test_balanced_design_converges_immediately(rng):
    # Identical designs across clusters make the GLS point estimate equal
    # the pooled weighted fit, so the alternation hits its fixed point on
    # the first pass.
    data = _make_clustered(rng, m=6, n=10, balanced=True)
    res = fit_clustered(data, POW_HALF)
    assert res.converged
    assert res.iterations <= 2
    pooled = fit_single(data.pooled(), POW_HALF)
    assert res.params.vmax == pytest.approx(pooled.params.vmax, rel=1e-7)
    assert res.params.km == pytest.approx(pooled.params.km, rel=1e-7)


@pytest.mark.parametrize("master_seed", [DEFAULT_MASTER_SEED, 0, 5])
def test_balanced_suite_panels_stop_at_the_pooled_fit(master_seed):
    # On the clustered suite's balanced panels z = dmu/dvmax is a column of
    # the mean Jacobian, so GLS equals the pooled weighted fit (a Kruskal
    # 1968-type identity): the first GLS profile re-finds the pooled root and
    # the alternation stops after one iteration.  fit_clustered_rows takes
    # the pooled fit as that fixed point.
    for m in (3, 6):
        sc = ClusterScenario(m=m, master_seed=master_seed)
        for r in range(50):
            data = generate_clustered(sc, r)
            res = fit_clustered(data, POW_HALF)
            pooled = fit_single(data.pooled(), POW_HALF)
            assert res.converged and res.iterations == 1
            got, want = res.params.as_array(), pooled.params.as_array()
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        # the rows stop there too, none handed to fit_clustered
        s = np.tile(sc.cluster_s(), m)
        starts = np.arange(m) * sc.cluster_s().size
        y = np.array([generate_clustered(sc, r).pooled().y for r in range(50)])
        rows = fit_clustered_rows(s, starts, y, POW_HALF, fit_rows(s, y, POW_HALF).theta)
        assert rows.converged.all() and (rows.iterations == 1).all()
        assert not rows.fallback.any()


def _random_balanced_panel(seed):
    # 4 clusters sharing 6 random levels, each observed twice
    rng = np.random.default_rng(seed)
    s = np.repeat(np.sort(rng.uniform(0.5, 150.0, 6)), 2)
    return ClusteredDataset(tuple(
        Dataset(s, (100.0 + shift) * s / (20.0 + s) + 5.0 * s**0.25 * rng.standard_normal(s.size))
        for shift in rng.normal(0.0, 40.0, 4)
    ))


@pytest.mark.parametrize("panel", ["m3", "m6", "random", "plate"])
def test_gls_profile_on_balanced_panels_is_the_pooled_fit(panel):
    # fit_clustered_rows' fixed point: when every cluster observes the same
    # levels in the same order, the GLS profile at any (tau2, gamma) has the
    # pooled weighted fit's root and plug-in vmax.  On an unbalanced plate
    # panel it does only at tau2 = 0.  (Past tau2 ~ 1e8 with gamma at its
    # floor, _score_sums' t = 1 - c * a2 loses every digit.)
    data = {
        "m3": lambda: generate_clustered(ClusterScenario(m=3), 0),
        "m6": lambda: generate_clustered(ClusterScenario(m=6), 1),
        "random": lambda: _random_balanced_panel(0),
        "plate": lambda: _plate_panel(1),
    }[panel]()
    want = fit_single(data.pooled(), POW_HALF).params.as_array()
    prepared = _prepare(*_stack(data), POW_HALF)
    var_y = float(np.var(data.pooled().y))
    for tau2 in (0.0, 1e2, 1e6):
        for gamma in (var_y, GAMMA_FLOOR_REL * var_y):
            km, vmax, _ = gls_km_profile(prepared, tau2, gamma)
            rel = np.max(np.abs(np.array([vmax, km]) - want) / want)
            assert (rel <= 1e-12) == (panel != "plate" or tau2 == 0.0)


def _row_bits(rows, i):
    # float.hex of row i's (vmax, km, se_vmax, se_km, gamma, tau2)
    return [float.hex(float(v)) for v in (*rows.theta[i], *rows.se[i], rows.gamma[i], rows.tau2[i])]


def _fit_bits(fit):
    # float.hex of fit_clustered's (vmax, km, se_vmax, se_km, gamma, tau2)
    return [float.hex(float(v)) for v in (*fit.params.as_array(), *fit.se, fit.gamma, fit.tau2)]


def test_unbalanced_rows_and_rows_without_a_pooled_fit_go_to_fit_clustered():
    # Clusters of equal size at different levels are unbalanced: every row
    # goes to fit_clustered and reports its result bit for bit.
    rng = np.random.default_rng(3)
    s = np.concatenate([PLATE_LEVELS * (1.0 + 0.1 * i) for i in range(3)])
    starts = np.arange(3) * PLATE_LEVELS.size
    y = 100.0 * s / (20.0 + s) + rng.normal(0.0, 3.0, (3, s.size))
    rows = fit_clustered_rows(s, starts, y, POW_HALF, fit_rows(s, y, POW_HALF).theta)
    assert rows.fallback.all()
    for i in range(3):
        one = fit_clustered(ClusteredDataset(tuple(
            Dataset(s[lo:lo + PLATE_LEVELS.size], y[i, lo:lo + PLATE_LEVELS.size]) for lo in starts
        )), POW_HALF)
        assert _row_bits(rows, i) == _fit_bits(one)
        assert (rows.iterations[i], rows.converged[i]) == (one.iterations, one.converged)

    # On a balanced design only the row without a pooled fit falls back.
    sc = ClusterScenario(m=3)
    panels = [generate_clustered(sc, r) for r in range(4)]
    s, starts, _ = _stack(panels[0])
    y = np.array([p.pooled().y for p in panels])
    pooled = fit_rows(s, y, POW_HALF).theta
    pooled[2] = np.nan
    rows = fit_clustered_rows(s, starts, y, POW_HALF, pooled)
    assert rows.fallback.tolist() == [False, False, True, False]
    assert rows.iterations.tolist() == [1, 1, 1, 1] and rows.converged.all()
    assert _row_bits(rows, 2) == _fit_bits(fit_clustered(panels[2], POW_HALF))


def test_fit_clustered_rows_names_fit_clustered_failures():
    # Rows without a pooled fit go to fit_clustered, whose
    # exception names the failure: two substrate levels cannot identify the
    # curve, and one-observation clusters leave tau2 without a moment.
    y = np.random.default_rng(0).normal(5.0, 1.0, (2, 12))
    cases = (
        (np.tile([1.0, 1.0, 5.0, 5.0], 3), np.arange(3) * 4, "DegenerateDesign"),
        (np.geomspace(1.0, 90.0, 12), np.arange(12), "InsufficientReplication"),
    )
    for s, starts, name in cases:
        rows = fit_clustered_rows(s, starts, y, POW_HALF, fit_rows(s, y, POW_HALF).theta)
        assert rows.failure.tolist() == [name, name]
        assert np.isnan(rows.theta).all() and not rows.converged.any()
        assert rows.fallback.all() and (rows.iterations == 0).all()


@pytest.mark.parametrize("m, replicate", [(3, 927), (6, 415)])
def test_singular_lockstep_rows_report_no_iterations(m, replicate):
    # At the pooled fit of these suite replicates gamma is at its floor,
    # where the information is singular: the row names the failure
    # fit_clustered raises, with iterations 0 as for any row that raised.
    data = generate_clustered(ClusterScenario(m=m, master_seed=DEFAULT_MASTER_SEED), replicate)
    s, starts, y = _stack(data)
    y = y[None, :]
    rows = fit_clustered_rows(s, starts, y, POW_HALF, fit_rows(s, y, POW_HALF).theta)
    assert rows.failure.tolist() == [SingularInformation.__name__]
    assert rows.iterations.tolist() == [0] and rows.fallback.tolist() == [False]
    assert np.isnan(rows.theta).all() and not rows.converged.any()
    with pytest.raises(SingularInformation):
        fit_clustered(data, POW_HALF)


def test_iteration_cap_flags_nonconvergence(rng, monkeypatch):
    monkeypatch.setattr("mmhet.cluster.MAX_ITER", 1)
    monkeypatch.setattr("mmhet.cluster.REL_TOL", 1e-14)
    data = _make_clustered(rng, m=6, n=10, balanced=False)
    res = fit_clustered(data, POW_HALF)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.params.vmax) and np.isfinite(res.params.km)


def test_fit_clustered_insufficient_replication():
    singles = tuple(
        Dataset(s=np.array([float(2 ** i)]), y=np.array([float(5 + i)]))
        for i in range(4)
    )
    with pytest.raises(InsufficientReplication):
        fit_clustered(ClusteredDataset(clusters=singles), CONSTANT)


# --- unbalanced plate panels, pinned bit for bit ------------------------------

PLATE_LEVELS = np.array([10.0, 40.0, 80.0, 130.0, 200.0, 350.0, 700.0, 1200.0])


def _plate_panel(seed):
    # 3-8 clusters, each keeping 4-11 of the 16 wells of an 8-level x
    # 2-replicate plate; a normal vmax shift per cluster (sd 40) and noise of
    # variance 25 sqrt(S) around vmax = 100, km = 20.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    clusters = []
    for shift in rng.normal(0.0, 40.0, m):
        wells = np.sort(rng.choice(16, size=int(rng.integers(4, 12)), replace=False))
        s = PLATE_LEVELS[wells % 8]
        y = (100.0 + shift) * s / (20.0 + s) + 5.0 * s**0.25 * rng.standard_normal(s.size)
        clusters.append(Dataset(s, y))
    return ClusteredDataset(tuple(clusters))


# case -> seed, float.hex of (vmax, km, tau2, gamma, se_vmax, se_km),
# iterations, converged.  "gamma_floor" ends with gamma at its floor,
# "boundary_tau2" with tau2 truncated at 0, and "max_iter" never converges:
# it cycles at the floor and stops at its first repeated state.
_PINNED = {
    "converged": (1, (
        "0x1.aa678993fa84ep+6", "0x1.26622b636d448p+4", "0x1.313fad82387cfp+7",
        "0x1.0b1c08014197ap+5", "0x1.08c5405a7215fp+3", "0x1.ea47cdece8c28p+1",
    ), 9, True),
    "gamma_floor": (231, (
        "0x1.199e125799e57p+7", "0x1.a0f5ca7d9d42dp+4", "0x1.b5e05b82f5a5ap+11",
        "0x1.bf44a0aa82ab9p-29", "0x1.d97b590e4949bp+4", "0x1.039cec35aac47p-14",
    ), 11, True),
    "boundary_tau2": (200, (
        "0x1.4de4911b24604p+6", "0x1.699d62196d06ap+2", "0x0.0p+0",
        "0x1.28841a85e9298p+4", "0x1.3754818681da5p+2", "0x1.41bbe5d64cdb7p+1",
    ), 1, True),
    "max_iter": (34, (
        "0x1.00ff4fbb6cc23p+7", "0x1.3d6d4b129c095p+4", "0x1.114fcf1f32dc2p+12",
        "0x1.e505d3250c34fp-29", "0x1.316d21786c081p+5", "0x1.887b02b57ce8dp-15",
    ), 92, False),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_fit_clustered_pinned_on_unbalanced_panels(case):
    seed, want, iterations, converged = _PINNED[case]
    data = _plate_panel(seed)
    res = fit_clustered(data, POW_HALF)
    got = (res.params.vmax, res.params.km, res.tau2, res.gamma, *res.se.tolist())
    assert [float.hex(v) for v in got] == list(want)
    assert (res.iterations, res.converged) == (iterations, converged)
    # seed 34's iteration 92 starts from iteration 90's (tau2, gamma)
    assert res.cycle == ((90, 2) if case == "max_iter" else None)
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    assert (res.gamma == floor) == (case in ("gamma_floor", "max_iter"))
    assert res.boundary_tau2 == (case == "boundary_tau2")


def test_damped_steps_count_the_damping_rule():
    stalled = fit_clustered(_plate_panel(34), POW_HALF)
    assert not stalled.converged
    assert 0 < stalled.damped_steps < stalled.iterations
    assert fit_clustered(_plate_panel(200), POW_HALF).damped_steps == 0


def _field_bits(res) -> dict:
    def bits(value):
        if isinstance(value, MMParams):
            value = value.as_array()
        if isinstance(value, VarianceSpec):
            return value.label()
        if value is None:
            return None
        return [float.hex(float(v)) for v in np.ravel(value)]

    return {f.name: bits(getattr(res, f.name)) for f in fields(res)}


@pytest.mark.parametrize("seed", [1, 9, 21, 34, 128, 148])
def test_cycle_stop_matches_the_plain_alternation(seed):
    # Seeds 9-148 cycle with periods 8, 3, 2, 18 and 2; seed 1 converges.
    data = _plate_panel(seed)
    res = fit_clustered(data, POW_HALF)
    assert (res.cycle is None) == (seed == 1)
    assert _field_bits(res) == _field_bits(plain_alternation(data, POW_HALF))


@pytest.mark.parametrize("seed", [1, 9, 21, 34, 128, 148])
def test_cycling_fit_stops_at_its_first_repeated_state(monkeypatch, seed):
    # Each km solve records the (tau2, gamma) its iteration starts from and
    # its (km, vmax).  A cycling fit computes iterations up to the first one
    # that starts from an earlier one's state, and returns that one's own
    # outcome; seed 1 converges with no state repeated.
    calls = []

    def recorded(panel, tau2, gamma, scan_to=None):
        out = gls_km_profile(panel, tau2, gamma, scan_to)
        calls.append((struct.pack("<2d", tau2, gamma), out[:2]))
        return out

    monkeypatch.setattr("mmhet.cluster.gls_km_profile", recorded)
    res = fit_clustered(_plate_panel(seed), POW_HALF)
    *earlier, last = [state for state, _ in calls]
    assert len(set(earlier)) == len(earlier)
    assert res.iterations == len(calls)
    km, vmax = calls[-1][1]
    assert [float.hex(v) for v in res.params.as_array()] == [float.hex(vmax), float.hex(km)]
    if seed == 1:
        assert res.cycle is None and res.converged and last not in earlier
        return
    assert not res.converged
    assert [i for i, state in enumerate(earlier) if state == last] == [res.cycle[0] - 1]
    assert res.iterations == sum(res.cycle)


def test_fit_clustered_rows_report_iterations_and_fallback():
    # These panels are unbalanced (seed 1 converges after 9 iterations,
    # seed 34 cycles and stops after 92), so each goes to fit_clustered,
    # whose result the row reports bit for bit.
    for seed in (1, 34):
        data = _plate_panel(seed)
        s, starts, y = _stack(data)
        y = y[None, :]
        rows = fit_clustered_rows(s, starts, y, POW_HALF, fit_rows(s, y, POW_HALF).theta)
        one = fit_clustered(data, POW_HALF)
        assert rows.fallback.tolist() == [True]
        assert _row_bits(rows, 0) == _fit_bits(one)
        assert rows.iterations.tolist() == [one.iterations]
        assert rows.converged.tolist() == [one.converged]


def _pool_panel(index):
    # pool panel ``index`` of the benchmark's cluster_panels workload, its
    # sentinel rows dropped as ingest drops them
    rows = [(c, s, v) for c, s, v in make_cluster_panel(index) if not np.isnan(v)]
    labels, s, y = zip(*rows)
    return ClusteredDataset.from_labels(s, y, labels)


@pytest.mark.parametrize("index", [421, 19])
def test_warm_started_scan_matches_the_cold_solve(monkeypatch, index):
    # Pool panel 421 converges after 104 iterations and panel 19 cycles and
    # stops after 24, both with gamma at its floor.  At the final (tau2,
    # gamma), a scan of any prefix of the grid first gives the cold solve's
    # bits, and a prefix that holds the bracket [ks[root - 1], ks[root]] is
    # all it scans.
    data = _pool_panel(index)
    res = fit_clustered(data, POW_HALF)
    assert (res.iterations, res.cycle) == ((104, None) if index == 421 else (24, (18, 6)))
    assert res.gamma == GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    panel = _prepare(*_stack(data), POW_HALF)
    cold = gls_km_profile(panel, res.tau2, res.gamma)
    root, size = int(panel.ks.searchsorted(cold[0])), panel.ks.size
    scanned = []

    def counted(evaluate, terms, ks, scan_to=None):
        def scan(k):
            if isinstance(k, np.ndarray):
                scanned.append(k.size)
            return evaluate(k)

        return rootfind.solve_scalar(scan, terms, ks, scan_to)

    monkeypatch.setattr("mmhet.cluster.solve_scalar", counted)
    for j in (1, root - 3, root, root + 1, size):
        scanned.clear()
        km, vmax, diag = gls_km_profile(panel, res.tau2, res.gamma, scan_to=j)
        assert [float.hex(km), float.hex(vmax)] == [float.hex(cold[0]), float.hex(cold[1])]
        assert (diag.iterations, diag.converged) == (cold[2].iterations, cold[2].converged)
        assert scanned == ([j] if j > root else [j, size - j])


def _score_reference(ks, s, y, h, starts, tau2, gamma):
    # The stacked score's km component on an array of k values, written out
    # in one pass over (K, N) arrays.
    kk = np.atleast_1d(np.asarray(ks, dtype=np.float64))[:, None]
    d = kk + s
    z = s / d
    ginv = 1.0 / (gamma * h)
    uz = z * ginv
    a1 = np.add.reduceat(uz * y, starts, axis=1)
    a2 = np.add.reduceat(uz * z, starts, axis=1)
    c = tau2 / (1.0 + tau2 * a2)
    t = 1.0 - c * a2
    vhat = (a1 * t).sum(axis=1) / (a2 * t).sum(axis=1)
    e = z / d
    q1 = np.add.reduceat(e * ginv * y, starts, axis=1)
    q2 = np.add.reduceat(e * ginv * z, starts, axis=1)
    vh = vhat[:, None]
    inner = (q1 - vh * q2) - c * q2 * (a1 - vh * a2)
    return -vhat * inner.sum(axis=1)


@pytest.mark.parametrize("seed, at_floor", [(1, False), (231, True)])
def test_grid_and_scalar_scores_agree_bit_for_bit(monkeypatch, seed, at_floor):
    # gls_km_profile scans its grid with (K, N) arrays and takes each Brent
    # step on (N,) ones; at the same k both give the reference's bits.
    data = _plate_panel(seed)
    panel = _prepare(*_stack(data), POW_HALF)
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    moments = _moment_update(panel, fit_single(data.pooled(), POW_HALF).params, floor)
    tau2, gamma = moments.tau2, moments.gamma
    assert (gamma == floor) == at_floor

    steps = []
    brent = rootfind._brent

    def recorded(f, a, b, fa, fb):
        def g(k):
            steps.append((k, f(k)))
            return steps[-1][1]

        # the scan's end values (from panel.loadings) are the scalar score's
        assert hexes([fa, fb]) == hexes([g(a), g(b)])
        return brent(g, a, b, fa, fb)

    def hexes(values):
        return [float.hex(float(v)) for v in values]

    monkeypatch.setattr(rootfind, "_brent", recorded)
    gls_km_profile(panel, tau2, gamma)
    assert len(steps) > 5

    ginv = 1.0 / (gamma * panel.h)
    s, y, starts = panel.s, panel.y, panel.starts
    with np.errstate(invalid="ignore", divide="ignore"):
        on_grid = [
            _score(*_score_sums(*_loadings(k, s), y, ginv, starts, tau2)) for k in panel.ks
        ]
        for ks, scalar in (
            (np.array([k for k, _ in steps]), [f for _, f in steps]),
            (panel.ks, on_grid),
        ):
            grid = _score(*_score_sums(*_loadings(ks, s), y, ginv, starts, tau2))
            want = _score_reference(ks, s, y, panel.h, starts, tau2, gamma)
            assert hexes(scalar) == hexes(grid) == hexes(want)
