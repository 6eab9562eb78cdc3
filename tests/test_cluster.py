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
from mmhet.cluster import (
    GAMMA_FLOOR_REL,
    cluster_covariance,
    fit_clustered_rows,
    moment_update_variance,
    solve_working_cov,
)
from mmhet.core import eval_h
from mmhet.exceptions import InsufficientReplication, NonPositiveGamma
from mmhet.single import plugin_covariance
from oracles import dense_solve, gls_quadratic, long_double_cluster_covariance

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
    tau2, gamma = moment_update_variance(data, TRUTH, CONSTANT)
    assert tau2 == pytest.approx(9.0, rel=1e-12)
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    assert gamma == floor


def test_moment_update_truncates_negative_tau2():
    # Alternating within-cluster residual signs force negative raw
    # cross-products, so tau2 is clipped at zero.
    s = np.geomspace(2.0, 80.0, 8)
    mu = mm_mean(s, TRUTH)
    e = 2.0 * (-1.0) ** np.arange(8)
    data = ClusteredDataset(
        clusters=(Dataset(s=s, y=mu + e), Dataset(s=s, y=mu + e))
    )
    tau2, gamma = moment_update_variance(data, TRUTH, CONSTANT)
    assert tau2 == 0.0
    assert gamma > 0.0


def test_moment_update_requires_replication():
    s = np.array([5.0])
    singles = tuple(
        Dataset(s=s * (i + 1), y=np.array([float(i + 10)])) for i in range(3)
    )
    with pytest.raises(InsufficientReplication):
        moment_update_variance(
            ClusteredDataset(clusters=singles), TRUTH, CONSTANT
        )


# --- covariance ------------------------------------------------------------------


def test_duplicating_clusters_halves_covariance(rng):
    data = _make_clustered(rng, m=4)
    doubled = ClusteredDataset(clusters=data.clusters + data.clusters)
    c1 = cluster_covariance(data, TRUTH, 2.0, 1.5, POW_HALF)
    c2 = cluster_covariance(doubled, TRUTH, 2.0, 1.5, POW_HALF)
    assert np.allclose(c2, c1 / 2.0, rtol=1e-13)


def test_zero_tau2_covariance_matches_single_curve(rng):
    data = _make_clustered(rng, m=4, tau=0.0)
    pooled = data.pooled()
    gamma = 2.25
    got = cluster_covariance(data, TRUTH, 0.0, gamma, POW_HALF)
    want = plugin_covariance(pooled, TRUTH, gamma, POW_HALF)
    assert np.allclose(got, want, rtol=1e-10)


def test_cluster_covariance_matches_long_double_oracle():
    # A dense long-double inverse of every V_i.  At moderate tau2 * z'Ginv z
    # the rank-one downdate keeps ~1e-15; at large values it loses digits
    # (ROADMAP item 3), which this check would show.
    data = generate_clustered(ClusterScenario(m=6), 0)
    tau2, gamma = 2.0, 1.5
    got = cluster_covariance(data, TRUTH, tau2, gamma, POW_HALF)
    want = long_double_cluster_covariance(
        [c.s for c in data.clusters], TRUTH.vmax, TRUTH.km, tau2, gamma,
        lambda s: eval_h(POW_HALF, s),
    )
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


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


def test_balanced_suite_panels_stop_at_the_pooled_fit():
    # On the clustered suite's balanced panels z = dmu/dvmax is a column of
    # the mean Jacobian, so GLS equals the pooled weighted fit (a Kruskal
    # 1968-type identity): the first GLS profile re-finds the pooled root and
    # the alternation stops after one iteration.
    for m in (3, 6):
        sc = ClusterScenario(m=m)
        for r in range(50):
            data = generate_clustered(sc, r)
            res = fit_clustered(data, POW_HALF)
            pooled = fit_single(data.pooled(), POW_HALF)
            assert res.converged and res.iterations == 1
            got, want = res.params.as_array(), pooled.params.as_array()
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_fit_clustered_rows_names_fit_clustered_failures():
    # Rows the lockstep stage cannot start go to fit_clustered, whose
    # exception names the failure: two substrate levels cannot identify the
    # curve, and one-observation clusters leave tau2 without a moment.
    y = np.random.default_rng(0).normal(5.0, 1.0, (2, 12))
    cases = (
        (np.tile([1.0, 1.0, 5.0, 5.0], 3), np.arange(3) * 4, "DegenerateDesign"),
        (np.geomspace(1.0, 90.0, 12), np.arange(12), "InsufficientReplication"),
    )
    for s, starts, name in cases:
        rows = fit_clustered_rows(s, starts, y, POW_HALF)
        assert rows.failure.tolist() == [name, name]
        assert np.isnan(rows.theta).all() and not rows.converged.any()


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
