"""Scalar profile solves: log-grid sign scan, Brent refinement, golden fallback.

Both the single-curve profile equation and the clustered GLS score reduce to
one scalar equation in the half-saturation constant.  The search strategy is
shared: evaluate on a geometric grid, bracket the first sign change scanning
upward from the left endpoint, and refine with a derivative-free root solve.
If no sign change exists, fall back to golden-section minimization of the
squared equation on the log scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .exceptions import NoFiniteEvaluation

# Log-grid size of the sign scan.
GRID_POINTS = 256
# |F| tolerance relative to the larger product term of the equation at the
# solution.  The Brent stage polishes to machine precision, so it holds with
# margin whenever a bracket exists.
TOL_F_REL = 1e-10
# Golden-section stopping width on log k, i.e. a relative tolerance on k.
GOLDEN_TOL_REL = 1e-10

_GOLDEN_MAX_ITER = 300
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def k_bracket(s: np.ndarray) -> tuple[float, float]:
    """Search bracket for k: 1e-4 times the smallest positive substrate
    level up to 1e4 times the largest."""
    positive = s[s > 0]
    if positive.size == 0:
        raise ValueError("need at least one positive substrate concentration")
    lo = 1e-4 * float(positive.min())
    hi = 1e4 * float(s.max())
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo < hi):
        raise ValueError(f"invalid bracket ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class SolverDiagnostics:
    bracket: tuple[float, float]
    used_root: bool
    iterations: int
    f_at_solution: float
    converged: bool
    sign_changes: int


def solve_scalar(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    k_lo: float,
    k_hi: float,
) -> tuple[float, SolverDiagnostics]:
    """Locate a root of a scalar profile equation on [k_lo, k_hi].

    ``evaluate(ks)`` maps an array of k values to (values, scales) arrays.
    ``scales`` carries the natural magnitude of the equation at each k, used
    for the relative |F| convergence check.
    """

    def eval_one(k: float) -> tuple[float, float]:
        value, scale = evaluate(k)
        return float(value[0]), float(scale[0])

    ks = np.geomspace(k_lo, k_hi, GRID_POINTS)
    values, _ = evaluate(ks)
    finite = np.isfinite(values)
    if not finite.any():
        raise NoFiniteEvaluation(
            "profile equation is non-finite at every grid point"
        )

    idx = np.flatnonzero(finite)
    vals = values[idx]

    # An exact zero on the grid is already a root.
    zeros = np.flatnonzero(vals == 0.0)
    if zeros.size:
        k = float(ks[idx[zeros[0]]])
        diag = SolverDiagnostics(
            bracket=(k_lo, k_hi),
            used_root=True,
            iterations=0,
            f_at_solution=0.0,
            converged=True,
            sign_changes=_count_sign_changes(vals),
        )
        return k, diag

    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    n_flips = int(flips.size)

    if n_flips:
        # First bracket scanning upward from k_lo (multi-root policy).
        a = float(ks[idx[flips[0]]])
        b = float(ks[idx[flips[0] + 1]])
        root, res = brentq(
            lambda k: eval_one(k)[0],
            a,
            b,
            xtol=1e-240,
            rtol=4.0 * np.finfo(np.float64).eps,
            maxiter=200,
            full_output=True,
        )
        f_root, scale = eval_one(float(root))
        tol_f = TOL_F_REL * scale
        converged = bool(abs(f_root) <= tol_f or res.converged)
        diag = SolverDiagnostics(
            bracket=(k_lo, k_hi),
            used_root=True,
            iterations=int(res.iterations),
            f_at_solution=float(f_root),
            converged=converged,
            sign_changes=n_flips,
        )
        return float(root), diag

    # No sign change anywhere: golden-section minimization of F^2 in log k.
    k, iterations = _golden_min_sq(eval_one, k_lo, k_hi, GOLDEN_TOL_REL)
    f_at, scale = eval_one(k)
    converged = bool(np.isfinite(f_at) and abs(f_at) <= TOL_F_REL * scale)
    diag = SolverDiagnostics(
        bracket=(k_lo, k_hi),
        used_root=False,
        iterations=iterations,
        f_at_solution=float(f_at),
        converged=converged,
        sign_changes=0,
    )
    return k, diag


def _count_sign_changes(vals: np.ndarray) -> int:
    return int(np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0).size)


def _golden_min_sq(
    eval_one: Callable[[float], tuple[float, float]],
    k_lo: float,
    k_hi: float,
    tol_rel: float,
) -> tuple[float, int]:
    """Golden-section minimizer of F(k)^2 parameterized by t = log k.

    A tolerance on t is a relative tolerance on k, which is the contract.
    Non-finite evaluations are treated as +inf so the section shrinks away
    from them.
    """

    def g(t: float) -> float:
        f, _ = eval_one(float(np.exp(t)))
        return f * f if np.isfinite(f) else np.inf

    a, b = np.log(k_lo), np.log(k_hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    iterations = 0
    while (b - a) > tol_rel and iterations < _GOLDEN_MAX_ITER:
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
        iterations += 1
    return float(np.exp(0.5 * (a + b))), iterations
