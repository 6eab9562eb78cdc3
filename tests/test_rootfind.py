import math

import numpy as np
import pytest

from mmhet import ClusterScenario, MMParams, SingleScenario, VarianceSpec, fit_single
from mmhet import generate_clustered, generate_single, rootfind, single
from mmhet.cluster import GAMMA_FLOOR_REL, _moment_update, _prepare, _stack, gls_km_profile
from mmhet.core import DEFAULT_CANDIDATES, eval_h
from mmhet.exceptions import NoFiniteEvaluation
from mmhet.rootfind import (
    RowBrackets,
    _brent,
    bracket_rows,
    k_bracket,
    log_grid,
    refine_rows,
    solve_rows,
    solve_scalar,
)


def _wrap(f):
    # Adapt a plain scalar function to solve_scalar's contract: its value
    # on the grid or at one k, and the (value, scale) pair at one k.
    def evaluate(k):
        if np.ndim(k) == 0:
            return float(f(k))
        return np.array([f(x) for x in k], dtype=np.float64)

    return evaluate, lambda k: (float(f(k)), 1.0)


def _solve_rows(fs, k_lo, k_hi):
    # solve_rows with one row per scalar function
    ks = log_grid(k_lo, k_hi)
    values = np.array([[f(k) for k in ks] for f in fs], dtype=np.float64)

    def evaluate_rows(x, rows):
        return np.array([fs[r](k) for k, r in zip(x, rows)], dtype=np.float64)

    with np.errstate(invalid="ignore"):
        return solve_rows(values, ks, evaluate_rows).root


def _rows(f, k_lo, k_hi):
    # f and 3 f: the same roots from different values, in one lockstep call
    return _solve_rows((f, lambda k: 3.0 * f(k)), k_lo, k_hi)


def test_simple_root_to_machine_precision():
    root, diag = solve_scalar(*_wrap(np.log), log_grid(0.01, 100.0))
    assert root == pytest.approx(1.0, rel=1e-14)
    assert diag.used_root
    assert diag.converged
    assert diag.sign_changes == 1
    assert diag.bracket == (0.01, 100.0)
    assert _rows(np.log, 0.01, 100.0) == pytest.approx([1.0, 1.0], rel=1e-14)


def test_first_bracket_wins_with_multiple_roots():
    # sin(log k) has roots at exp(-pi), 1, exp(pi), exp(2*pi) inside the
    # bracket; the policy is the first sign change scanning upward.  The
    # endpoints are chosen so no geomspace grid point lands on a root
    # exactly (a round bracket like [1e-2, 1e3] puts k=1 on the grid and
    # triggers the exact-zero short circuit instead).
    def f(k):
        return np.sin(np.log(k))

    root, diag = solve_scalar(*_wrap(f), log_grid(1.3e-2, 1.1e3))
    assert root == pytest.approx(np.exp(-np.pi), rel=1e-12)
    assert diag.sign_changes == 4
    assert diag.used_root
    assert _rows(f, 1.3e-2, 1.1e3) == pytest.approx([np.exp(-np.pi)] * 2, rel=1e-12)


def test_exact_grid_zero_short_circuits():
    root, diag = solve_scalar(*_wrap(lambda k: 0.0), log_grid(0.5, 50.0))
    assert root == 0.5  # first grid point
    assert diag.iterations == 0
    assert diag.f_at_solution == 0.0
    assert diag.converged
    assert list(_rows(lambda k: 0.0, 0.5, 50.0)) == [0.5, 0.5]


def test_golden_fallback_when_no_sign_change():
    # F >= 0 everywhere with the minimum at k = 5: no bracket exists, so
    # the solver minimizes F^2 on the log scale instead.
    root, diag = solve_scalar(*_wrap(lambda k: np.log(k / 5.0) ** 2), log_grid(0.01, 100.0))
    assert not diag.used_root
    assert root == pytest.approx(5.0, rel=1e-8)
    assert diag.converged
    assert diag.sign_changes == 0
    assert diag.iterations > 0
    # the batched stage leaves unbracketed rows to solve_scalar
    assert np.isnan(_rows(lambda k: np.log(k / 5.0) ** 2, 0.01, 100.0)).all()


def test_nan_region_is_skipped():
    def f(k):
        return np.log(k) if k >= 0.1 else np.nan

    root, diag = solve_scalar(*_wrap(f), log_grid(0.01, 100.0))
    assert root == pytest.approx(1.0, rel=1e-12)
    assert diag.converged
    # a non-finite grid value sends the whole row to solve_scalar
    assert np.isnan(_rows(f, 0.01, 100.0)).all()


def test_all_nan_raises():
    with pytest.raises(NoFiniteEvaluation):
        solve_scalar(*_wrap(lambda k: np.nan), log_grid(0.01, 100.0))
    assert np.isnan(_rows(lambda k: np.nan, 0.01, 100.0)).all()


def test_solve_rows_mixes_policies_per_row():
    # One call holding a bracketed row, an exact-zero row and an
    # unbracketed row gives each the answer it gets alone.
    fs = (np.log, lambda k: 0.0, lambda k: np.log(k / 5.0) ** 2)
    roots = _solve_rows(fs, 0.01, 100.0)
    assert roots[0] == pytest.approx(1.0, rel=1e-14)
    assert roots[1] == 0.01
    assert np.isnan(roots[2])


def _sign_change_below_zeros(k):
    # a sign change at k = 1, between grid points of log_grid(0.01, 100),
    # below exact zeros at every grid point from 5 up
    return 0.0 if k >= 5.0 else np.log(k)


def test_root_rule_takes_the_first_zero_or_sign_change():
    # The first exact zero or sign change scanning upward is the root: a
    # sign change below exact grid zeros wins, as a zero below a sign
    # change does.
    root, diag = solve_scalar(*_wrap(_sign_change_below_zeros), log_grid(0.01, 100.0))
    assert root == pytest.approx(1.0, rel=1e-14)
    assert diag.used_root and diag.iterations > 0 and diag.sign_changes == 1
    assert _rows(_sign_change_below_zeros, 0.01, 100.0) == pytest.approx([1.0, 1.0], rel=1e-14)

    def zero_below(k):
        return 0.0 if k <= 0.05 else np.log(k)

    root, diag = solve_scalar(*_wrap(zero_below), log_grid(0.01, 100.0))
    assert root == 0.01 and diag.iterations == 0
    assert list(_rows(zero_below, 0.01, 100.0)) == [0.01, 0.01]


# The policy fixtures above, each on its own bracket: a simple root, four
# roots, an exact grid zero, no sign change, a NaN region, all NaN, a sign
# change below exact grid zeros.
_POLICY_ROWS = (
    (np.log, 0.01, 100.0),
    (lambda k: np.sin(np.log(k)), 1.3e-2, 1.1e3),
    (lambda k: 0.0, 0.5, 50.0),
    (lambda k: np.log(k / 5.0) ** 2, 0.01, 100.0),
    (lambda k: np.log(k) if k >= 0.1 else np.nan, 0.01, 100.0),
    (lambda k: np.nan, 0.01, 100.0),
    (_sign_change_below_zeros, 0.01, 100.0),
)


def test_solve_rows_per_row_grids_match_each_row_alone():
    fs, lo, hi = zip(*_POLICY_ROWS)
    ks = log_grid(np.array(lo), np.array(hi))
    for grid, a, b in zip(ks, lo, hi):
        assert grid.tobytes() == log_grid(a, b).tobytes()
    calls = np.zeros(len(fs), dtype=int)

    def evaluate_rows(x, rows):
        np.add.at(calls, rows, 1)
        return np.array([fs[r](k) for k, r in zip(x, rows)], dtype=np.float64)

    values = np.array([[f(k) for k in grid] for f, grid in zip(fs, ks)], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        got = solve_rows(values, ks, evaluate_rows)
        for i, f in enumerate(fs):
            alone = solve_rows(
                values[i:i + 1], log_grid(lo[i], hi[i]), lambda x, rows: np.array([f(x[0])])
            )
            for name in ("root", "steps", "value", "sign_changes"):
                assert getattr(alone, name).tobytes() == getattr(got, name)[i:i + 1].tobytes()

    assert got.root[0] == pytest.approx(1.0, rel=1e-14)
    assert got.root[1] == pytest.approx(np.exp(-np.pi), rel=1e-12)
    assert got.root[2] == 0.5 and got.steps[2] == 0 and got.value[2] == 0.0
    assert np.isnan(got.root[3:6]).all()
    assert got.root[6] == pytest.approx(1.0, rel=1e-14) and got.steps[6] > 0
    assert got.sign_changes[:4].tolist() == [1, 4, 0, 0]
    assert got.sign_changes[6] == 1
    # one lockstep step is one evaluation, and the value is the equation's at the root
    assert (got.steps == calls).all()
    for i in (0, 1, 6):
        assert got.value[i] == fs[i](got.root[i])


def _partitions(rows):
    # every cut of range(rows) into consecutive blocks, as lists of slices
    for mask in range(2 ** (rows - 1)):
        edges = [0, *(i + 1 for i in range(rows - 1) if mask >> i & 1), rows]
        yield [slice(a, b) for a, b in zip(edges, edges[1:])]


def test_bracket_then_refine_matches_solve_rows_over_any_partition():
    # Screening brackets its rows in grid blocks and refines them in other
    # chunks: every way to cut the policy rows into grid blocks, and into
    # refinement chunks, gives solve_rows' result on all rows at once.
    fs, lo, hi = zip(*_POLICY_ROWS)
    ks = log_grid(np.array(lo), np.array(hi))
    values = np.array([[f(k) for k in grid] for f, grid in zip(fs, ks)], dtype=np.float64)

    def evaluate_from(first):
        return lambda x, rows: np.array(
            [fs[first + r](k) for k, r in zip(x, rows)], dtype=np.float64
        )

    cuts = list(_partitions(len(fs)))
    whole, single_rows = cuts[0], cuts[-1]
    with np.errstate(invalid="ignore"):
        want = solve_rows(values, ks, evaluate_from(0))
        for blocks, chunks in [
            *((cut, whole) for cut in cuts),
            *((single_rows, cut) for cut in cuts),
            *zip(cuts, reversed(cuts)),
        ]:
            found = [bracket_rows(values[b], ks[b]) for b in blocks]
            joined = RowBrackets(*map(np.concatenate, zip(*found)))
            parts = [
                refine_rows(RowBrackets(*(field[c] for field in joined)), evaluate_from(c.start))
                for c in chunks
            ]
            for name in ("root", "steps", "value", "sign_changes"):
                got = np.concatenate([getattr(part, name) for part in parts])
                assert got.tobytes() == getattr(want, name).tobytes(), (name, blocks, chunks)
    # the grid zero and the unbracketed rows are among them
    assert want.root[2] == 0.5 and np.isnan(want.root[3:6]).all()


@pytest.mark.parametrize("row", range(len(_POLICY_ROWS)))
def test_scan_to_leaves_the_solve_unchanged(row):
    # Scanning a prefix of the grid first gives the full scan's root and
    # diagnostics, bit for bit, but sign_changes, which counts the scanned
    # points only; a prefix holding a root is all the grid scan evaluates.
    f, lo, hi = _POLICY_ROWS[row]
    evaluate, terms = _wrap(f)
    ks = log_grid(lo, hi)
    scanned = []

    def counted(k):
        if np.ndim(k):
            scanned.append(k.size)
        return evaluate(k)

    with np.errstate(invalid="ignore"):
        try:
            want = solve_scalar(evaluate, terms, ks)
        except NoFiniteEvaluation:
            for scan_to in (1, 100, ks.size):
                with pytest.raises(NoFiniteEvaluation):
                    solve_scalar(evaluate, terms, ks, scan_to)
            return
        for scan_to in (-1, 0, 1, 2, 60, 127, 128, 129, 200, ks.size - 1, ks.size, 1000):
            scanned.clear()
            got = solve_scalar(counted, terms, ks, scan_to)
            assert float.hex(got[0]) == float.hex(want[0])
            for name in ("bracket", "used_root", "iterations", "f_at_solution", "converged"):
                assert getattr(got[1], name) == getattr(want[1], name)
            assert sum(scanned) == ks.size or scanned == [max(scan_to, 1)]


def test_k_bracket_defaults():
    s = np.array([1.0, 10.0, 100.0])
    lo, hi = k_bracket(s)
    assert lo == pytest.approx(1e-4)
    assert hi == pytest.approx(1e6)
    with pytest.raises(ValueError):
        k_bracket(np.zeros(3))


# --- the Brent stage against scipy's brentq ----------------------------------


def _assert_brent_is_brentq(f, a, b):
    # brentq at the arguments solve_scalar used to pass it: the port must
    # give the same root, iteration count and convergence flag, bit for bit.
    brentq = pytest.importorskip("scipy.optimize").brentq
    want, res = brentq(
        f, a, b, xtol=1e-240, rtol=4.0 * np.finfo(np.float64).eps, maxiter=200,
        full_output=True,
    )
    got = _brent(f, a, b, f(a), f(b))
    assert got == (want, res.iterations, res.converged)
    return got


def _assert_same_bits(x, y):
    assert float.hex(float(x)) == float.hex(float(y))


@pytest.fixture
def brent_vs_brentq(monkeypatch):
    # Checks every bracket solve_scalar hands to the Brent stage, and that
    # the end values it passes are f's own, bit for bit; returns the roots
    # found.
    roots = []

    def checked(f, a, b, fa, fb):
        _assert_same_bits(fa, f(a))
        _assert_same_bits(fb, f(b))
        got = _assert_brent_is_brentq(f, a, b)
        roots.append(got[0])
        return got

    monkeypatch.setattr(rootfind, "_brent", checked)
    return roots


_SMOOTH = (
    lambda c: lambda x: math.tanh(c[0] * (x - c[1])) + 1e-3 * c[2],
    lambda c: lambda x: (x - c[1]) ** 3 + c[0] * (x - c[1]),
    lambda c: lambda x: math.exp(c[0] * x) - math.exp(c[0] * c[1]),
    lambda c: lambda x: math.log(x / c[1]),
    lambda c: lambda x: 1.0 / x - 1.0 / c[1],
    lambda c: lambda x: math.sin(c[0] * x),
)


def test_brent_matches_brentq_on_random_smooth_brackets():
    rng = np.random.default_rng(20)
    checked = 0
    for i in range(6000):
        c = rng.uniform(0.1, 3.0, 3)
        f = _SMOOTH[i % len(_SMOOTH)](c)
        a, b = rng.uniform(0.01, c[1]), c[1] + rng.uniform(0.01, 5.0)
        if f(a) * f(b) < 0:
            _assert_brent_is_brentq(f, a, b)
            checked += 1
    assert checked > 4000


def test_brent_returns_an_endpoint_zero():
    # brentq returns the endpoint too, but leaves its iteration count unset.
    assert _brent(lambda x: (x - 1.0) ** 2, 1.0, 2.0, 0.0, 1.0) == (1.0, 0, True)
    assert _brent(lambda x: x - 2.0, 1.0, 2.0, -1.0, 0.0) == (2.0, 0, True)
    with pytest.raises(ValueError):
        _brent(lambda x: x - 3.0, 1.0, 2.0, -2.0, -1.0)


def test_brent_matches_brentq_on_ill_conditioned_profiles(brent_vs_brentq):
    # The low-signal "mixed" curves of test_simbench: many profile roots
    # sit far above the truth (km = 50), where the computed equation is
    # ill-conditioned.
    sc = SingleScenario(n=8, truth=MMParams(2.0, 50.0), replications=200, master_seed=5)
    for spec in DEFAULT_CANDIDATES:
        for r in range(sc.replications):
            data = generate_single(sc, r)
            single._solve_km(data.s, data.y, eval_h(spec, data.s))
    roots = np.array(brent_vs_brentq)
    assert roots.size > 500
    assert ((roots > 5000) & (roots < 12000)).any()


def test_brent_matches_brentq_on_gls_profile_at_gamma_floor(brent_vs_brentq):
    # Replicate 415 of the m=6 clustered suite: the first moment update
    # pins gamma at its floor against a large tau2.
    data = generate_clustered(ClusterScenario(m=6), 415)
    spec = VarianceSpec.power(0.5)
    start = fit_single(data.pooled(), spec).params
    floor = GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    panel = _prepare(*_stack(data), spec)
    moments = _moment_update(panel, start, floor)
    assert moments.gamma == floor
    assert moments.tau2 > 1e3
    gls_km_profile(panel, moments.tau2, moments.gamma)
    assert len(brent_vs_brentq) == 2  # the pooled start and the GLS profile
