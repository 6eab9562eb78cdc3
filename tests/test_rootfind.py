import numpy as np
import pytest

from mmhet.exceptions import NoFiniteEvaluation
from mmhet.rootfind import k_bracket, solve_scalar


def _wrap(f):
    # Adapt a plain scalar function to the (values, scales) contract.
    def evaluate(ks):
        vals = np.array([f(k) for k in np.atleast_1d(ks)], dtype=np.float64)
        return vals, np.ones_like(vals)

    return evaluate


def test_simple_root_to_machine_precision():
    root, diag = solve_scalar(_wrap(np.log), 0.01, 100.0)
    assert root == pytest.approx(1.0, rel=1e-14)
    assert diag.used_root
    assert diag.converged
    assert diag.sign_changes == 1
    assert diag.bracket == (0.01, 100.0)


def test_first_bracket_wins_with_multiple_roots():
    # sin(log k) has roots at exp(-pi), 1, exp(pi), exp(2*pi) inside the
    # bracket; the policy is the first sign change scanning upward.  The
    # endpoints are chosen so no geomspace grid point lands on a root
    # exactly (a round bracket like [1e-2, 1e3] puts k=1 on the grid and
    # triggers the exact-zero short circuit instead).
    root, diag = solve_scalar(_wrap(lambda k: np.sin(np.log(k))), 1.3e-2, 1.1e3)
    assert root == pytest.approx(np.exp(-np.pi), rel=1e-12)
    assert diag.sign_changes == 4
    assert diag.used_root


def test_exact_grid_zero_short_circuits():
    root, diag = solve_scalar(_wrap(lambda k: 0.0), 0.5, 50.0)
    assert root == 0.5  # first grid point
    assert diag.iterations == 0
    assert diag.f_at_solution == 0.0
    assert diag.converged


def test_golden_fallback_when_no_sign_change():
    # F >= 0 everywhere with the minimum at k = 5: no bracket exists, so
    # the solver minimizes F^2 on the log scale instead.
    root, diag = solve_scalar(_wrap(lambda k: np.log(k / 5.0) ** 2), 0.01, 100.0)
    assert not diag.used_root
    assert root == pytest.approx(5.0, rel=1e-8)
    assert diag.converged
    assert diag.sign_changes == 0
    assert diag.iterations > 0


def test_nan_region_is_skipped():
    def f(k):
        return np.log(k) if k >= 0.1 else np.nan

    root, diag = solve_scalar(_wrap(f), 0.01, 100.0)
    assert root == pytest.approx(1.0, rel=1e-12)
    assert diag.converged


def test_all_nan_raises():
    with pytest.raises(NoFiniteEvaluation):
        solve_scalar(_wrap(lambda k: np.nan), 0.01, 100.0)


def test_k_bracket_defaults():
    s = np.array([1.0, 10.0, 100.0])
    lo, hi = k_bracket(s)
    assert lo == pytest.approx(1e-4)
    assert hi == pytest.approx(1e6)
    with pytest.raises(ValueError):
        k_bracket(np.zeros(3))
