import re

import numpy as np
import pytest

from mmhet import (
    Dataset,
    FitConfig,
    MMParams,
    VarianceSpec,
    fit_single,
    group_fit,
    mm_mean,
    screen_models,
)
from mmhet.core import DEFAULT_CANDIDATES, eval_h, mm_gradient, residuals
from mmhet import single
from mmhet.exceptions import (
    AllCandidatesFailed,
    DegenerateDesign,
    MMHetError,
    NonconvergedFit,
    SingularInformation,
)
from mmhet.rootfind import GRID_POINTS, k_bracket, log_grid, solve_rows
from mmhet.single import COND_LIMIT, fit_rows, sym2_inverse
from oracles import chandrupatla_roots, cov_2x2_inverse, grid_profile_wsse, lm_weighted_fit
from test_bootstrap import _S8, _Y_FLAGGED, _Y_TOOMANY

POW_HALF = VarianceSpec.power(0.5)
CONSTANT = VarianceSpec.constant()


def _noisy(rng, spec=None, n=40, vmax=100.0, km=20.0, gamma=4.0):
    s = np.geomspace(1.0, 200.0, n)
    h = eval_h(spec, s) if spec is not None else np.ones(n)
    y = mm_mean(s, MMParams(vmax, km)) + rng.normal(0.0, 1.0, n) * np.sqrt(
        gamma * h
    )
    return Dataset(s=s, y=y)


# --- profile equation and plug-in -------------------------------------------


def test_profile_f_hand_value():
    # s=(1,2,3), y=(1,1,1), h=1, k=1.  With w_i = s_i/(1+s_i):
    #   S1 = 23/12, S4 = 181/144, S2 = 95/144, S3 = 715/1728,
    #   F  = S1*S3 - S2*S4 = -125/3456.
    value, _ = single._profile_terms(1.0, np.array([1.0, 2.0, 3.0]), np.ones(3), np.ones(3))
    assert value == pytest.approx(-125.0 / 3456.0, rel=1e-14)


def test_vmax_plugin_hand_value():
    # s=(10,10), y=(4,6), km=20: w_i = 1/3, num = 10/3, den = 2/9 -> 15.
    vmax, _ = single._vmax_rows(
        np.array([20.0]), np.array([10.0, 10.0]), np.array([[4.0, 6.0]]), np.ones(2)
    )
    assert vmax[0] == pytest.approx(15.0, rel=1e-14)


def test_profile_root_is_wnls_stationary_point(rng):
    # The root of F with the plug-in vmax must satisfy the weighted NLS
    # normal equations: sum g_i r_i / h_i = 0 in both coordinates.
    for spec in DEFAULT_CANDIDATES:
        data = _noisy(rng, spec)
        res = fit_single(data, spec)
        h = eval_h(spec, data.s)
        g = mm_gradient(data.s, res.params)
        r = residuals(data, res.params)
        score = g.T @ (r / h)
        scale = np.sqrt((g * g / h[:, None]).sum(axis=0) * (r * r / h).sum())
        assert np.all(np.abs(score) <= 1e-6 * scale)


# --- agreement with independent fitters --------------------------------------


def test_fit_matches_levenberg_marquardt(rng):
    for spec in DEFAULT_CANDIDATES:
        for _ in range(3):
            data = _noisy(rng, spec)
            res = fit_single(data, spec)
            vm, km = lm_weighted_fit(data.s, data.y, h=eval_h(spec, data.s))
            assert res.params.vmax == pytest.approx(vm, rel=1e-6)
            assert res.params.km == pytest.approx(km, rel=1e-6)


def test_fit_beats_dense_wsse_grid(rng):
    # The fitted km cannot lose to a brute-force profile-WSSE scan.
    for spec in (CONSTANT, POW_HALF):
        data = _noisy(rng, spec)
        res = fit_single(data, spec)
        h = eval_h(spec, data.s)
        k_grid = np.geomspace(1.0, 400.0, 4001)
        k_best, _, wsse_best = grid_profile_wsse(data.s, data.y, h, k_grid)
        _, _, wsse_fit = grid_profile_wsse(
            data.s, data.y, h, np.array([res.params.km])
        )
        assert wsse_fit <= wsse_best * (1.0 + 1e-12)
        assert res.params.km == pytest.approx(k_best, rel=2e-3)


# --- exactness and equivariance ----------------------------------------------


def test_noiseless_recovery(noiseless_data):
    for spec in DEFAULT_CANDIDATES:
        res = fit_single(noiseless_data, spec)
        assert res.params.vmax == pytest.approx(100.0, rel=1e-9)
        assert res.params.km == pytest.approx(20.0, rel=1e-9)
        assert res.gamma <= 1e-16


def test_y_scaling_equivariance(rng):
    # Doubling y is exact in binary, so km is bit-identical, vmax exactly
    # doubles, and the dispersion exactly quadruples.
    data = _noisy(rng, POW_HALF)
    r1 = fit_single(data, POW_HALF)
    r2 = fit_single(Dataset(s=data.s, y=2.0 * data.y), POW_HALF)
    assert r2.params.km == r1.params.km
    assert r2.params.vmax == 2.0 * r1.params.vmax
    assert r2.gamma == 4.0 * r1.gamma


def test_s_scaling_equivariance_constant_h(rng):
    # Under h = 1, rescaling substrate units rescales km and leaves vmax
    # and gamma alone.  Not bitwise: the search grid endpoints move.
    data = _noisy(rng, CONSTANT)
    r1 = fit_single(data, CONSTANT)
    r2 = fit_single(Dataset(s=2.0 * data.s, y=data.y), CONSTANT)
    assert r2.params.km == pytest.approx(2.0 * r1.params.km, rel=1e-12)
    assert r2.params.vmax == pytest.approx(r1.params.vmax, rel=1e-12)
    assert r2.gamma == pytest.approx(r1.gamma, rel=1e-12)


def test_negated_y_keeps_profile_root(rng):
    # F is linear in y, so y -> -y flips F's sign but not its root; the
    # fit itself must then refuse the negative plug-in vmax.
    data = _noisy(rng, CONSTANT)
    h = eval_h(CONSTANT, data.s)
    km_pos, _ = single._solve_km(data.s, data.y, h, k_bracket(data.s))
    km_neg, _ = single._solve_km(data.s, -data.y, h, k_bracket(data.s))
    assert km_neg == km_pos
    with pytest.raises(DegenerateDesign):
        fit_single(Dataset(s=data.s, y=-data.y), CONSTANT)


# --- dispersion, covariance, information criteria ----------------------------


def test_gamma_hat_direct_formula():
    s = np.array([4.0, 9.0])
    # vmax 10, km 6: residuals 3 - 4 = -1, 5 - 6 = -1; h = sqrt(s) = (2, 3)
    gamma = single._gamma_rows(
        s, eval_h(POW_HALF, s), np.array([[3.0, 5.0]]), np.array([10.0]), np.array([6.0])
    )
    expected = 0.5 * (1.0 / 2.0 + 1.0 / 3.0)
    assert gamma[0] == pytest.approx(expected, rel=1e-14)


def test_plugin_covariance_matches_direct_inverse(rng):
    data = _noisy(rng, POW_HALF)
    p = MMParams(95.0, 22.0)
    gamma = 3.7
    g = mm_gradient(data.s, p)
    h = eval_h(POW_HALF, data.s)
    m = np.einsum("ij,ik->jk", g / h[:, None], g) / data.n
    expected = (gamma / data.n) * np.linalg.inv(m)
    cov, ok = single._plugin_cov_rows(
        data.s, h, np.array([p.vmax]), np.array([p.km]), np.array([gamma])
    )
    assert ok[0]
    assert np.allclose(cov[0], expected, rtol=1e-12)


def test_plugin_covariance_singular_design():
    # All observations at one substrate level: rank-1 information.
    s = np.full(5, 5.0)
    *_, failure = single._plugin_rows(
        s, eval_h(CONSTANT, s), np.arange(5.0)[None, :], np.array([5.0])
    )
    assert isinstance(failure[0], SingularInformation)


def test_sym2_inverse_matches_cofactor_oracle(rng):
    a = rng.uniform(0.5, 5.0, 50)
    d = rng.uniform(0.5, 5.0, 50)
    b = rng.uniform(-0.9, 0.9, 50) * np.sqrt(a * d)
    ia, ib, id_, ok = sym2_inverse(a, b, d)
    assert ok.all()
    for i in range(50):
        want = cov_2x2_inverse(np.array([[a[i], b[i]], [b[i], d[i]]]))
        got = np.array([[ia[i], ib[i]], [ib[i], id_[i]]])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_sym2_inverse_flags_singular_and_ill_conditioned():
    # rank one, eigenvalue ratio just past and just inside the limit,
    # indefinite, and non-finite entries
    a = np.array([1.0, 1.0, 1.0, 1.0, 1.0, np.nan])
    b = np.array([1.0, 0.0, 0.0, 0.0, 2.0, 0.0])
    d = np.array([1.0, 1.0 / (2.0 * COND_LIMIT), 1.0 / (0.5 * COND_LIMIT), 1.0, 1.0, 1.0])
    ok = sym2_inverse(a, b, d)[3]
    assert ok.tolist() == [False, False, True, True, False, False]


def test_information_criteria_closed_form(rng):
    # With h = 1 the maximized Gaussian log-likelihood reduces to
    # -(n/2) log(2 pi gamma) - n/2.
    data = _noisy(rng, CONSTANT)
    res = fit_single(data, CONSTANT)
    n = data.n
    expected = -0.5 * n * np.log(2.0 * np.pi * res.gamma) - 0.5 * n
    assert res.loglik == pytest.approx(expected, rel=1e-12)
    assert res.aic == pytest.approx(-2.0 * expected + 6.0, rel=1e-12)
    assert res.bic - res.aic == pytest.approx(3.0 * (np.log(n) - 2.0), rel=1e-12)


def test_ic_consistent_across_specs(rng):
    # The Gaussian log-likelihood with variance gamma * h at the fit, under
    # each shape: -1/2 sum[log(2 pi gamma h) + r^2 / (gamma h)], p = 3.
    data = _noisy(rng, POW_HALF)
    for spec in DEFAULT_CANDIDATES:
        res = fit_single(data, spec)
        gh = res.gamma * eval_h(spec, data.s)
        r = residuals(data, res.params)
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * gh) + r * r / gh)
        assert res.loglik == pytest.approx(ll, rel=1e-13)
        assert res.aic == pytest.approx(-2.0 * ll + 6.0, rel=1e-13)
        assert res.bic == pytest.approx(-2.0 * ll + 3.0 * np.log(data.n), rel=1e-13)


# --- intervals ----------------------------------------------------------------


def test_wider_alpha_nests_interval(rng):
    data = _noisy(rng, POW_HALF)
    r95 = fit_single(data, POW_HALF, FitConfig(alpha=0.05))
    r99 = fit_single(data, POW_HALF, FitConfig(alpha=0.01))
    assert r99.ci_vmax[0] < r95.ci_vmax[0] < r95.ci_vmax[1] < r99.ci_vmax[1]
    assert r99.ci_km[0] < r95.ci_km[0] < r95.ci_km[1] < r99.ci_km[1]
    assert r95.params == r99.params


def test_interval_is_centered_wald(rng):
    data = _noisy(rng, CONSTANT)
    res = fit_single(data, CONSTANT)
    half = 0.5 * (res.ci_vmax[1] - res.ci_vmax[0])
    assert res.ci_vmax[0] + half == pytest.approx(res.params.vmax, rel=1e-12)
    assert half == pytest.approx(1.959963984540054 * res.se[0], rel=1e-9)


def test_fit_config_rejects_bad_alpha():
    with pytest.raises(ValueError):
        FitConfig(alpha=0.0)
    with pytest.raises(ValueError):
        FitConfig(alpha=1.0)


# --- failure paths ------------------------------------------------------------


def test_identifiability_guards():
    with pytest.raises(DegenerateDesign):
        fit_single(Dataset(s=np.array([1.0, 2.0]), y=np.array([1.0, 2.0])), CONSTANT)
    with pytest.raises(DegenerateDesign):
        # 4 points but only 2 distinct levels
        fit_single(
            Dataset(s=np.array([1.0, 1.0, 2.0, 2.0]), y=np.arange(4.0)), CONSTANT
        )


def test_distinct_levels_matches_unique(rng):
    # Replicated levels, a single level, and 0.0 beside -0.0, which np.unique
    # counts as one value.
    designs = [
        np.repeat(np.geomspace(1.0, 200.0, 8), 3),
        rng.permutation(np.repeat([0.5, 2.0, 8.0, 8.0, 32.0], 4)),
        np.full(6, 5.0),
        np.array([0.0, -0.0, 1.0, -0.0, 2.0, 0.0]),
        np.array([-0.0, -0.0, 0.0]),
        np.array([3.0]),
        rng.integers(0, 5, 40).astype(np.float64),
    ]
    for s in designs:
        assert single.distinct_levels(s) == np.unique(s).size


def test_flat_data_nonconverged_carries_partial_result():
    # Constant velocity has no interior profile root: the solver falls
    # back to golden-section and flags the fit instead of converging.
    data = Dataset(s=np.array([1.0, 2.0, 4.0, 8.0]), y=np.ones(4))
    with pytest.raises(NonconvergedFit) as excinfo:
        fit_single(data, CONSTANT)
    err = excinfo.value
    assert err.result is not None
    assert not err.result.solver.used_root
    assert err.result.solver.sign_changes == 0
    assert np.isfinite(err.result.params.vmax)


def test_convex_data_nonconverged():
    data = Dataset(
        s=np.array([1.0, 2.0, 4.0, 8.0]), y=np.array([1.0, 4.0, 16.0, 64.0])
    )
    with pytest.raises(NonconvergedFit):
        fit_single(data, CONSTANT)


# --- screening and panels -------------------------------------------------------


def test_screen_orders_by_aic(rng):
    data = _noisy(rng, POW_HALF, n=60)
    entries = screen_models(data)
    fitted = [e for e in entries if e.error is None]
    assert [e.rank for e in fitted] == list(range(1, len(fitted) + 1))
    aics = [e.result.aic for e in fitted]
    assert aics == sorted(aics)
    assert len(entries) == len(DEFAULT_CANDIDATES)


def test_screen_keeps_failures_at_end():
    # Noisy non-monotone curve where the profile root exists under h = 1
    # but vanishes under every increasing h shape: one fit, three failures.
    data = Dataset(
        s=np.array([0.5, 1.255943, 3.154787, 7.924466, 19.905359, 50.0]),
        y=np.array([12.47505, 3.10999, 6.022706, 13.115479, 11.591095, 21.304235]),
    )
    entries = screen_models(data)
    assert [e.error is None for e in entries] == [True, False, False, False]
    assert entries[0].rank == 1 and entries[0].spec.label() == "constant"
    assert all(e.rank is None and e.error for e in entries[1:])


def test_screen_all_candidates_failed():
    neg = Dataset(s=np.array([1.0, 2.0, 4.0]), y=np.array([-1.0, -2.0, -3.0]))
    with pytest.raises(AllCandidatesFailed):
        screen_models(neg)
    # flat data fails every candidate through the no-root path instead
    flat = Dataset(s=np.array([1.0, 2.0, 4.0, 8.0]), y=np.ones(4))
    with pytest.raises(AllCandidatesFailed):
        screen_models(flat)


def test_screen_rejects_empty_candidates(rng):
    with pytest.raises(ValueError):
        screen_models(_noisy(rng), candidates=())


# Each list names one label twice (pow:0.333333, pow:0.5).  Reports and the
# group summary key models by label(), so each fit would be counted twice.
REPEATED_LABELS = ("pow:0.3333333,pow:0.33333333", "pow:0.5,pow:0.5")


@pytest.mark.parametrize("text", REPEATED_LABELS)
def test_screening_rejects_repeated_candidate_labels(rng, text):
    candidates = [VarianceSpec.parse(tok) for tok in text.split(",")]
    data = _noisy(rng)
    with pytest.raises(ValueError, match="labels repeat"):
        screen_models(data, candidates)
    with pytest.raises(ValueError, match="labels repeat"):
        group_fit({"a": data, "b": _noisy(rng)}, candidates)


def test_group_fit_isolates_broken_label(rng):
    good1 = _noisy(rng, POW_HALF)
    good2 = _noisy(rng, POW_HALF)
    broken = Dataset(s=np.array([1.0, 2.0, 4.0]), y=np.array([-1.0, -2.0, -3.0]))
    out = group_fit({"a": good1, "b": good2, "bad": broken})
    assert set(out.label_errors) == {"bad"}
    assert out.per_label["bad"] == []
    assert set(out.best_by_label) == {"a", "b"}
    assert all(row.labels_used == 2 for row in out.summary)
    assert sum(row.wins for row in out.summary) == 2
    mean_aics = [row.mean_aic for row in out.summary]
    assert mean_aics == sorted(mean_aics)


def test_group_fit_isolates_overflowing_dispersion(rng):
    # Squared residuals of a 1e155-scaled curve overflow, so gamma is inf.
    ok = _noisy(rng, POW_HALF)
    out = group_fit({"ok": ok, "huge": Dataset(ok.s, 1e155 * ok.y)})
    assert set(out.label_errors) == {"huge"}
    assert "gamma = inf" in out.label_errors["huge"]
    assert set(out.best_by_label) == {"ok"}
    with pytest.raises(DegenerateDesign):
        fit_single(Dataset(ok.s, 1e155 * ok.y), POW_HALF)


@pytest.mark.parametrize(
    "s", [[0.0, 1e-320, 2e-320, 4e-320], [1e305, 2e305, 4e305, 8e305]],
    ids=["lower-end-underflows", "upper-end-overflows"],
)
def test_design_without_a_km_bracket_is_degenerate(rng, s):
    # 1e-4 times the smallest positive level underflows to 0, or 1e4 times
    # the largest overflows, so no km grid exists.  The identifiability
    # check names such a design, so group_fit isolates its label and
    # fit_rows fails each row instead of raising for all of them.
    s = np.array(s)
    bad = Dataset(s, np.array([1.0, 2.0, 3.0, 3.5]))
    with pytest.raises(DegenerateDesign, match="no km search bracket"):
        fit_single(bad, CONSTANT)
    ok = _noisy(rng, POW_HALF)
    out = group_fit({"ok": ok, "bad": bad})
    assert set(out.label_errors) == {"bad"}
    assert "no km search bracket" in out.label_errors["bad"]
    assert set(out.best_by_label) == {"ok"}
    rows = fit_rows(s, np.tile(bad.y, (3, 1)), CONSTANT)
    assert rows.failure.tolist() == ["DegenerateDesign"] * 3
    assert np.isnan(rows.theta).all()


def test_group_fit_rejects_empty_panel():
    with pytest.raises(ValueError):
        group_fit({})
    with pytest.raises(ValueError):
        group_fit({"a": Dataset(np.array([1.0, 2.0, 4.0]), np.ones(3))}, candidates=())


def _screen_loop(data, candidates):
    # screen_models' contract written out: one fit_single per candidate,
    # fits ranked by (AIC, BIC, order), failures after them.
    fitted, failed = [], []
    for i, spec in enumerate(candidates):
        try:
            fitted.append((i, spec, fit_single(data, spec)))
        except NonconvergedFit as err:
            failed.append((spec, err.result, str(err)))
        except MMHetError as err:
            failed.append((spec, None, str(err)))
    if not fitted:
        raise AllCandidatesFailed(
            "; ".join(f"{spec.label()}: {msg}" for spec, _, msg in failed)
        )
    fitted.sort(key=lambda item: (item[2].aic, item[2].bic, item[0]))
    ranked = [(spec, res, None, rank) for rank, (_, spec, res) in enumerate(fitted, start=1)]
    return ranked + [(spec, res, msg, None) for spec, res, msg in failed]


def _fit_numbers(res):
    return np.array([
        *res.params.as_array(), *res.se, *res.cov.ravel(), res.gamma, res.loglik,
        res.aic, res.bic, *res.ci_vmax, *res.ci_km, res.solver.f_at_solution,
    ])


def _mixed_panel():
    # Curves of lengths 6, 9, 14 and 30, so blocks hold several curves and
    # one curve alone, plus one label for each way a screening row fails:
    # too few levels (DegenerateDesign before any solve), a 1e155 scale
    # (gamma overflows after the batched root), a flat curve (no sign
    # change, golden fallback, NonconvergedFit for every candidate), a
    # falling curve (a root with vmax < 0, whose message quotes vmax) and a
    # non-monotone curve (one fit, three NonconvergedFit partial results).
    rng = np.random.default_rng(11)
    panel = {}
    for i, n in enumerate((6, 9, 9, 9, 14, 14, 30, 9, 6)):
        s = np.geomspace(rng.uniform(0.2, 2.0), rng.uniform(50.0, 300.0), n)
        spec = DEFAULT_CANDIDATES[i % 4]
        y = mm_mean(s, MMParams(rng.uniform(20.0, 200.0), rng.uniform(5.0, 40.0)))
        noise = rng.standard_normal(n) * np.sqrt(0.01 * y.mean() * eval_h(spec, s))
        panel[f"c{i}"] = Dataset(s, y + noise)
    panel["degenerate"] = Dataset(np.array([1.0, 1.0, 2.0, 2.0]), np.arange(4.0))
    panel["huge"] = Dataset(panel["c1"].s, 1e155 * panel["c1"].y)
    panel["flat"] = Dataset(np.geomspace(1.0, 32.0, 6), np.full(6, 3.0))
    panel["falling"] = Dataset(panel["c2"].s, -panel["c2"].y)
    panel["nonmonotone"] = Dataset(
        s=np.array([0.5, 1.255943, 3.154787, 7.924466, 19.905359, 50.0]),
        y=np.array([12.47505, 3.10999, 6.022706, 13.115479, 11.591095, 21.304235]),
    )
    return panel


def _on_grid_curve():
    # A noiseless curve whose km is a grid point: every shape's profile
    # equation vanishes there up to rounding, so no grid value there has a
    # sign the shared scan can certify.
    s = np.geomspace(0.5, 60.0, 9)
    ks = log_grid(*k_bracket(s))
    return Dataset(s, mm_mean(s, MMParams(40.0, float(ks[131]))))


def _counted_fit_single(monkeypatch) -> list:
    # the shape of each call screening makes to fit_single
    handed = []
    fit = single.fit_single

    def counted(data, spec, *args, **kwargs):
        handed.append(spec)
        return fit(data, spec, *args, **kwargs)

    monkeypatch.setattr(single, "fit_single", counted)
    return handed


def _assert_entries_are_fit_singles(entries, data):
    # screening entries equal to screen_models' contract written out with
    # fit_single, field for field and bit for bit, solver diagnostics
    # included
    want = _screen_loop(data, DEFAULT_CANDIDATES)
    assert [(e.spec, e.error, e.rank) for e in entries] == [(w[0], w[2], w[3]) for w in want]
    for entry, (_, res, _, _) in zip(entries, want):
        assert (entry.result is None) == (res is None)
        if res is not None:
            got = entry.result
            assert (got.solver, got.variance_spec, got.alpha) == (
                res.solver, res.variance_spec, res.alpha
            )
            assert _fit_numbers(got).tobytes() == _fit_numbers(res).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_group_fit_matches_fit_single_loop(monkeypatch):
    panel = {**_mixed_panel(), "on-grid": _on_grid_curve()}
    handed = _counted_fit_single(monkeypatch)
    out = group_fit(panel)
    monkeypatch.undo()
    # fit_single refits only the rows the batched stage cannot finish: the
    # flat, falling and huge labels, the non-monotone curve's three
    # unbracketed candidates and the on-grid curve, which fails the sign
    # certificate
    assert len(handed) == 4 * len(DEFAULT_CANDIDATES) + 3

    want_errors = {}
    for label, data in panel.items():
        try:
            want = _screen_loop(data, DEFAULT_CANDIDATES)
        except AllCandidatesFailed as err:
            want_errors[label] = str(err)
            want = []
        got = out.per_label[label]
        assert [(e.spec, e.error, e.rank) for e in got] == [(w[0], w[2], w[3]) for w in want]
        for entry, (_, res, _, _) in zip(got, want):
            assert (entry.result is None) == (res is None)
            if res is None:
                continue
            a, b = entry.result.solver, res.solver
            assert (a.bracket, a.used_root, a.converged, a.sign_changes) == (
                b.bracket, b.used_root, b.converged, b.sign_changes
            )
            assert (entry.result.variance_spec, entry.result.alpha) == (res.variance_spec, res.alpha)
            x, y = _fit_numbers(entry.result), _fit_numbers(res)
            # equal values drop out first: the on-grid curve's zero-dispersion
            # fits have an infinite loglik
            x, y = x[x != y], y[x != y]
            scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
            assert np.all(np.abs(x - y) <= 1e-12 * scale)
    assert out.label_errors == want_errors
    assert set(want_errors) == {"degenerate", "huge", "flat", "falling"}
    assert "plug-in vmax = -" in want_errors["falling"]
    assert out.best_by_label == {
        label: entries[0].spec.label() for label, entries in out.per_label.items() if entries
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_models_is_group_fit_of_one():
    panel = _mixed_panel()
    out = group_fit(panel)
    for label, data in panel.items():
        if label in out.label_errors:
            with pytest.raises(AllCandidatesFailed, match="^" + re.escape(out.label_errors[label]) + "$"):
                screen_models(data)
            continue
        alone = screen_models(data)
        assert [(e.spec, e.error, e.rank) for e in alone] == [
            (e.spec, e.error, e.rank) for e in out.per_label[label]
        ]
        for a, b in zip(alone, out.per_label[label]):
            assert _fit_numbers(a.result).tobytes() == _fit_numbers(b.result).tobytes()


def _scalar_information_criteria(s, y, h, vmax, km, gamma):
    """Reference: the one-curve information criteria, written with scalars."""
    r = y - mm_mean(s, MMParams(vmax, km))
    if gamma == 0.0:
        assert not np.any(r != 0.0)
        loglik = np.inf
    else:
        loglik = -0.5 * float(np.sum(np.log(2.0 * np.pi * gamma * h) + r * r / (gamma * h)))
    return [float(loglik), float(-2.0 * loglik + 6.0), float(-2.0 * loglik + 3 * np.log(s.size))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_information_criteria_rows_match_one_row_calls():
    # Screening computes loglik, aic and bic for a whole block of rows in one
    # call; each row's values are those of fit_single's one-row call at the
    # same (vmax, km, gamma), and of the scalar formula, bit for bit.  The
    # last label is noiseless under pow:0.333333: gamma = 0, loglik = inf.
    panel = _mixed_panel()
    s5 = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    panel["noiseless"] = Dataset(s5, s5 / (1.0 + s5))
    out = group_fit(panel)
    checked = 0
    for label, entries in out.per_label.items():
        data = panel[label]
        for e in entries:
            if e.result is None:
                continue
            res = e.result
            one_row = single._information_criteria(
                data.s, eval_h(e.spec, data.s), data.y[None, :],
                np.array([res.params.vmax]), np.array([res.params.km]), np.array([res.gamma]),
            )
            want = [float.hex(v[0]) for v in one_row]
            assert [float.hex(v) for v in (res.loglik, res.aic, res.bic)] == want, (label, e.spec)
            scalar = _scalar_information_criteria(
                data.s, data.y, eval_h(e.spec, data.s), res.params.vmax, res.params.km, res.gamma
            )
            assert [float.hex(v) for v in scalar] == want, (label, e.spec)
            checked += 1
    assert checked >= 9 * len(DEFAULT_CANDIDATES)
    noiseless = {e.spec.label(): e.result for e in out.per_label["noiseless"]}
    assert noiseless["pow:0.333333"].gamma == 0.0
    assert noiseless["pow:0.333333"].loglik == np.inf
    assert noiseless["pow:0.333333"].aic == -np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_information_criteria_zero_dispersion_rule():
    # gamma == 0 with every residual zero is a perfect fit (loglik = inf);
    # with a nonzero residual it contradicts gamma = mean(r^2 / h) and raises.
    s = np.array([1.0, 2.0, 4.0, 8.0])
    h = np.sqrt(s)
    exact = 3.0 * (s / (2.0 + s))
    y = np.stack([exact, exact + np.array([0.0, 0.5, -0.5, 0.0])])
    vmax, km = np.array([3.0, 3.0]), np.array([2.0, 2.0])
    gamma = np.array([0.0, 0.125])
    loglik, aic, bic = single._information_criteria(s, h, y, vmax, km, gamma)
    assert loglik[0] == np.inf and aic[0] == bic[0] == -np.inf
    assert [float.hex(v) for v in (loglik[1], aic[1], bic[1])] == [
        float.hex(v) for v in _scalar_information_criteria(s, y[1], h, 3.0, 2.0, 0.125)
    ]
    with pytest.raises(MMHetError, match="zero dispersion with nonzero residuals"):
        single._information_criteria(s, h, y[1:], vmax[1:], km[1:], np.array([0.0]))


# --- batched rows ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [CONSTANT, POW_HALF], ids=lambda spec: spec.label())
def test_fit_rows_matches_fit_single_loop(monkeypatch, spec):
    # Wild resamples of the low-signal curves with doubled Gaussian
    # multipliers: fit_rows fits some rows in its batched stage, fails some
    # there (vmax <= 0) and hands the rows it cannot bracket to fit_single.
    # Of the last two rows, one has a vmax of ~1e-9, so its information
    # matrix is singular, and one overflows the dispersion.
    rng = np.random.default_rng(7)
    blocks = []
    for y0 in (_Y_FLAGGED, _Y_TOOMANY):
        mu = mm_mean(_S8, fit_single(Dataset(_S8, y0), spec).params)
        blocks.append(mu + 2.0 * (y0 - mu) * rng.standard_normal((150, _S8.size)))
    y = np.vstack(blocks + [1e-9 * _Y_FLAGGED, 1e155 * _Y_FLAGGED])

    handed = []
    fit = single.fit_single

    def counted(data, *args, **kwargs):
        handed.append(data.y.tobytes())
        return fit(data, *args, **kwargs)

    monkeypatch.setattr(single, "fit_single", counted)
    rows = fit_rows(_S8, y, spec)
    monkeypatch.undo()

    want = np.full((y.shape[0], 5), np.nan)
    reasons = []
    solves = np.full((y.shape[0], 2), -1)  # fit_single's (iterations, sign_changes)
    for i, yi in enumerate(y):
        try:
            one = fit_single(Dataset(_S8, yi), spec)
        except MMHetError as err:
            reasons.append(type(err).__name__)
            if isinstance(err, NonconvergedFit):
                solves[i] = err.diagnostics.iterations, err.diagnostics.sign_changes
            continue
        reasons.append(None)
        want[i] = [*one.params.as_array(), *one.se, one.gamma]
        solves[i] = one.solver.iterations, one.solver.sign_changes
    assert rows.failure.tolist() == reasons
    got = np.column_stack([rows.theta, rows.se, rows.gamma])
    failed = np.array([r is not None for r in reasons])
    assert np.isnan(got[failed]).all()
    scale = np.maximum(np.maximum(np.abs(got[~failed]), np.abs(want[~failed])), 1.0)
    assert np.max(np.abs(got[~failed] - want[~failed]) / scale) <= 1e-12

    batched = np.array([yi.tobytes() not in handed for yi in y])
    assert (~batched).any()
    assert (batched[:-2] & failed[:-2]).any()
    assert (batched & ~failed).any()
    assert batched[-2] and reasons[-2] == "SingularInformation"
    assert batched[-1] and reasons[-1] == "DegenerateDesign"

    # How each row was solved: a fallback row reports its fit_single solve,
    # a batched row the lockstep stage's steps and grid sign changes.
    assert rows.fallback.tolist() == (~batched).tolist()
    got = np.column_stack([rows.steps, rows.sign_changes])
    assert (got[~batched] == solves[~batched]).all()
    assert (got[~batched, 0] > 0).any()
    h, ks = eval_h(spec, _S8), log_grid(*k_bracket(_S8))
    values = single._grid_values(y, single._grid_terms(ks, _S8, h))
    roots = solve_rows(values, ks, single._row_values(_S8, y, h))
    assert (got[batched] == np.column_stack([roots.steps, roots.sign_changes])[batched]).all()
    assert (rows.steps[batched] > 0).all()


# --- the screening grid scan's sign certificate ---------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_row_failing_the_certificate_is_refit_through_fit_single(monkeypatch):
    # The shared scan decides brackets and sign-change counts only for rows
    # that pass its certificate; every other row is refit through
    # fit_single.  With the threshold at infinity no row passes, so every
    # screened row is fit_single's own, solver diagnostics included.
    panel = _mixed_panel()
    monkeypatch.setattr(single, "CERT_TOL", np.inf)
    handed = _counted_fit_single(monkeypatch)
    out = group_fit(panel)
    monkeypatch.undo()
    screened = len(panel) - 1  # all labels but the degenerate one
    assert len(handed) == screened * len(DEFAULT_CANDIDATES)
    for label, data in panel.items():
        if label in out.label_errors:
            with pytest.raises(AllCandidatesFailed):
                _screen_loop(data, DEFAULT_CANDIDATES)
            assert out.per_label[label] == []
        else:
            _assert_entries_are_fit_singles(out.per_label[label], data)
    assert set(out.label_errors) == {"degenerate", "huge", "flat", "falling"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_curve_with_km_on_a_grid_point_is_refit_through_fit_single(monkeypatch):
    # The value at km rounds to an exact zero in one formula and to a sign
    # change in another, so the exact batched formula and fit_single's scan
    # can count sign changes differently there.  No row of this curve
    # passes the certificate, so each is refit through fit_single and
    # reports fit_single's result and grid signs exactly.
    data = _on_grid_curve()
    handed = _counted_fit_single(monkeypatch)
    out = group_fit({"on-grid": data})
    monkeypatch.undo()
    assert len(handed) == len(DEFAULT_CANDIDATES)
    entries = out.per_label["on-grid"]
    _assert_entries_are_fit_singles(entries, data)
    km = log_grid(*k_bracket(data.s))[131]
    for entry in entries:
        assert entry.error is None and entry.result.solver.used_root
        assert abs(entry.result.params.km / km - 1.0) <= 1e-12


def _benchmark_curves(rng, curves, n=None):
    # (s, y) of curves drawn as the screen_panel benchmark draws them: 6-24
    # points (or n) over a random geometric range, noise under one of four
    # shapes
    out = []
    for _ in range(curves):
        size = int(rng.integers(6, 25)) if n is None else n
        s_lo = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
        ratio = float(np.exp(rng.uniform(np.log(30.0), np.log(400.0))))
        s = np.geomspace(s_lo, s_lo * ratio, size)
        km = s_lo * ratio ** rng.uniform(0.15, 0.6)
        vmax = float(np.exp(rng.uniform(np.log(5.0), np.log(500.0))))
        shape = [np.ones_like, np.log1p, np.sqrt, np.cbrt][int(rng.integers(4))]
        sd = rng.uniform(0.03, 0.1) * 0.5 * vmax * np.sqrt(shape(s) / shape(np.array([km])))
        out.append((s, vmax * s / (km + s) + sd * rng.standard_normal(size)))
    return out


def _screen_rows(rng, n, curves, y_scale=1.0):
    # benchmark-like curves of n points, each under every default candidate,
    # as _screen_fits stacks them: s, y, h (rows, n) and the grids ks
    shapes = len(DEFAULT_CANDIDATES)
    s, y = map(np.array, zip(*_benchmark_curves(rng, curves, n)))
    s, y = np.repeat(s, shapes, axis=0), np.repeat(y_scale * y, shapes, axis=0)
    h = np.stack([eval_h(spec, si) for si in s[::shapes] for spec in DEFAULT_CANDIDATES])
    ks = np.repeat(log_grid(*np.array([k_bracket(si) for si in s[::shapes]]).T), shapes, axis=0)
    return s, y, h, ks


@pytest.mark.parametrize("n", [3, 6, 24, 600])
def test_exact_bracket_ends_equal_the_full_grid_values(n):
    # _screen_brackets recomputes a certified row's end values on a (rows,
    # 2) grid; they must be the full grid's values bit for bit, at any pair
    # of neighbouring grid points.
    rng = np.random.default_rng(n)
    s, y, h, ks = _screen_rows(rng, n, 6)
    full = single._grid_values(y, single._grid_terms(ks, s, h))
    j = rng.integers(0, GRID_POINTS - 1, size=y.shape[0])
    rows = np.arange(y.shape[0])
    ends = single._grid_values(y, single._grid_terms(ks[rows[:, None], j[:, None] + [0, 1]], s, h))
    assert ends.tobytes() == full[rows[:, None], j[:, None] + [0, 1]].tobytes()


@pytest.mark.parametrize("y_scale", [1.0, 2.0 ** -40, 2.0 ** 40])
def test_certified_shared_values_have_the_exact_signs(y_scale):
    # The certificate's claim: where a shared value exceeds CERT_TOL (n + 2)
    # times its scale, the exact formula's value has its sign and is not
    # zero.  Checked on benchmark-like rows with y at three scales; the
    # shared values also stay within their error bound of the exact ones.
    rng = np.random.default_rng(17)
    shapes = len(DEFAULT_CANDIDATES)
    for n in (3, 9, 24):
        s, y, h, ks = _screen_rows(rng, n, 40, y_scale)
        values, scale = single._shared_values(ks[::shapes], s[::shapes], y[::shapes], h)
        exact = single._grid_values(y, single._grid_terms(ks, s, h))
        assert np.isfinite(exact).all() and np.isfinite(values).all()
        sure = np.abs(values) > single.CERT_TOL * (n + 2) * scale
        assert sure.mean() > 0.99
        assert (np.sign(exact[sure]) == np.sign(values[sure])).all()
        assert (exact[sure] != 0.0).all()
        assert np.max(np.abs(values - exact) / scale) <= 2.0 * (n + 2) * np.finfo(float).eps


def test_screening_roots_match_chandrupatla():
    # An oracle that shares no code with the package: its own profile
    # equation, grid and root finder (scipy's Chandrupatla).  Every
    # screening root, batched or refit through fit_single, matches it.
    rng = np.random.default_rng(26)
    panel = {f"g{i}": Dataset(s, y) for i, (s, y) in enumerate(_benchmark_curves(rng, 200))}
    out = group_fit(panel)
    got, want = [], []
    for n in {data.n for data in panel.values()}:
        labels = [label for label, data in panel.items() if data.n == n]
        for spec in DEFAULT_CANDIDATES:
            s = np.stack([panel[label].s for label in labels])
            y = np.stack([panel[label].y for label in labels])
            want.extend(chandrupatla_roots(s, y, np.stack([eval_h(spec, si) for si in s])))
            for label in labels:
                (entry,) = [e for e in out.per_label[label] if e.spec == spec]
                ok = entry.error is None and entry.result.solver.used_root
                got.append(entry.result.params.km if ok else np.nan)
    got, want = np.array(got), np.array(want)
    assert np.isfinite(got).sum() >= 0.95 * got.size
    assert (np.isnan(got) == np.isnan(want)).all()
    fit = np.isfinite(got)
    assert np.max(np.abs(got[fit] / want[fit] - 1.0)) <= 1e-13
