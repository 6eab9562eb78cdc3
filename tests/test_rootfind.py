import numpy as np
import pytest

from mmhet.exceptions import NoFiniteEvaluation
from mmhet.rootfind import k_bracket, log_grid, solve_rows, solve_scalar


def _wrap(f):
    # Adapt a plain scalar function to the (values, scales) contract.
    def evaluate(ks):
        vals = np.array([f(k) for k in np.atleast_1d(ks)], dtype=np.float64)
        return vals, np.ones_like(vals)

    return evaluate


def _solve_rows(fs, k_lo, k_hi):
    # solve_rows with one row per scalar function
    ks = log_grid(k_lo, k_hi)
    values = np.array([[f(k) for k in ks] for f in fs], dtype=np.float64)

    def evaluate_rows(x, rows):
        return np.array([fs[r](k) for k, r in zip(x, rows)], dtype=np.float64)

    with np.errstate(invalid="ignore"):
        return solve_rows(values, ks, evaluate_rows)


def _rows(f, k_lo, k_hi):
    # f and 3 f: the same roots from different values, in one lockstep call
    return _solve_rows((f, lambda k: 3.0 * f(k)), k_lo, k_hi)


def test_simple_root_to_machine_precision():
    root, diag = solve_scalar(_wrap(np.log), 0.01, 100.0)
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

    root, diag = solve_scalar(_wrap(f), 1.3e-2, 1.1e3)
    assert root == pytest.approx(np.exp(-np.pi), rel=1e-12)
    assert diag.sign_changes == 4
    assert diag.used_root
    assert _rows(f, 1.3e-2, 1.1e3) == pytest.approx([np.exp(-np.pi)] * 2, rel=1e-12)


def test_exact_grid_zero_short_circuits():
    root, diag = solve_scalar(_wrap(lambda k: 0.0), 0.5, 50.0)
    assert root == 0.5  # first grid point
    assert diag.iterations == 0
    assert diag.f_at_solution == 0.0
    assert diag.converged
    assert list(_rows(lambda k: 0.0, 0.5, 50.0)) == [0.5, 0.5]


def test_golden_fallback_when_no_sign_change():
    # F >= 0 everywhere with the minimum at k = 5: no bracket exists, so
    # the solver minimizes F^2 on the log scale instead.
    root, diag = solve_scalar(_wrap(lambda k: np.log(k / 5.0) ** 2), 0.01, 100.0)
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

    root, diag = solve_scalar(_wrap(f), 0.01, 100.0)
    assert root == pytest.approx(1.0, rel=1e-12)
    assert diag.converged
    # a non-finite grid value sends the whole row to solve_scalar
    assert np.isnan(_rows(f, 0.01, 100.0)).all()


def test_all_nan_raises():
    with pytest.raises(NoFiniteEvaluation):
        solve_scalar(_wrap(lambda k: np.nan), 0.01, 100.0)
    assert np.isnan(_rows(lambda k: np.nan, 0.01, 100.0)).all()


def test_solve_rows_mixes_policies_per_row():
    # One call holding a bracketed row, an exact-zero row and an
    # unbracketed row gives each the answer it gets alone.
    fs = (np.log, lambda k: 0.0, lambda k: np.log(k / 5.0) ** 2)
    roots = _solve_rows(fs, 0.01, 100.0)
    assert roots[0] == pytest.approx(1.0, rel=1e-14)
    assert roots[1] == 0.01
    assert np.isnan(roots[2])


def test_k_bracket_defaults():
    s = np.array([1.0, 10.0, 100.0])
    lo, hi = k_bracket(s)
    assert lo == pytest.approx(1e-4)
    assert hi == pytest.approx(1e6)
    with pytest.raises(ValueError):
        k_bracket(np.zeros(3))
