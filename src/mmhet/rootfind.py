"""Scalar profile solves: log-grid sign scan, Brent refinement, golden fallback.

Both the single-curve profile equation and the clustered GLS score reduce to
one scalar equation in the half-saturation constant.  The search strategy is
shared: evaluate on a geometric grid, bracket the first sign change scanning
upward from the left endpoint, and refine with a derivative-free root solve.
If no sign change exists, fall back to golden-section minimization of the
squared equation on the log scale.

``solve_rows`` applies the same bracket policy to many equations that share
a bracket at once (the wild bootstrap's refits over one design), refining
every bracket in lockstep with a safeguarded Illinois step.  Rows it cannot
bracket are left to ``solve_scalar``.
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

# Lockstep refinement stops once a bracket is this wide relative to its
# upper end, the relative tolerance solve_scalar hands to brentq.
_REFINE_RTOL = 4.0 * np.finfo(np.float64).eps
_REFINE_MAX_ITER = 200


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


def log_grid(k_lo: float, k_hi: float) -> np.ndarray:
    """The sign-scan grid: GRID_POINTS geometric points from k_lo to k_hi."""
    return np.geomspace(k_lo, k_hi, GRID_POINTS)


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

    ks = log_grid(k_lo, k_hi)
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


def solve_rows(
    values: np.ndarray,
    ks: np.ndarray,
    evaluate_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Roots of many scalar equations from their values on one grid.

    ``values`` holds each equation's values on the grid ``ks`` (see
    log_grid), one row per equation; ``evaluate_rows(x, rows)`` returns the
    value of equation ``rows[i]`` at ``x[i]``.  Each row follows
    solve_scalar's policy: an exact grid zero first, else the first sign
    change scanning upward, refined here in lockstep by a safeguarded
    Illinois step.  The result is NaN for a row with a non-finite grid
    value, no sign change, or a non-finite value during refinement; such
    rows are for solve_scalar.
    """
    finite = np.isfinite(values).all(axis=1)
    roots = np.full(values.shape[0], np.nan)

    zero = (values == 0.0) & finite[:, None]
    has_zero = zero.any(axis=1)
    roots[has_zero] = ks[zero.argmax(axis=1)[has_zero]]

    flips = (np.sign(values[:, :-1]) * np.sign(values[:, 1:]) < 0) & finite[:, None]
    rows = np.flatnonzero(flips.any(axis=1) & ~has_zero)
    j = flips[rows].argmax(axis=1)
    roots[rows] = _illinois(
        evaluate_rows, rows, ks[j], ks[j + 1], values[rows, j], values[rows, j + 1]
    )
    return roots


def _illinois(evaluate_rows, rows, a, b, fa, fb) -> np.ndarray:
    """Lockstep regula falsi with the Illinois modification on brackets
    [a, b] with f(a) f(b) < 0.

    An endpoint kept twice running has its stored value halved, so the
    false-position point crosses the root.  A point closer than half the
    stopping width to an endpoint is pushed to that distance, so a bracket
    whose point has hit the root closes on the next step.  A step bisects
    when the point is not strictly inside the bracket or the bracket failed
    to halve over the last three steps.  Each row's arithmetic depends only
    on that row, so results do not depend on which rows share the call.
    """
    x = np.where(np.abs(fa) <= np.abs(fb), a, b)
    kept = np.zeros(rows.size, dtype=np.int8)  # +1: a kept last step, -1: b kept
    widths = np.full((3, rows.size), np.inf)  # bracket widths 1, 2, 3 steps back
    live = np.arange(rows.size)
    for it in range(_REFINE_MAX_ITER + 1):
        # NaN widths mark rows stopped by a non-finite value.
        live = live[b[live] - a[live] > _REFINE_RTOL * b[live]]
        if live.size == 0 or it == _REFINE_MAX_ITER:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        width = bl - al
        with np.errstate(divide="ignore", invalid="ignore"):
            step = bl - fbl * (width / (fbl - fal))
        margin = 0.5 * _REFINE_RTOL * bl
        step = np.clip(step, al + margin, bl - margin)
        bisect = ~((step > al) & (step < bl)) | (width > 0.5 * widths[2, live])
        xl = np.where(bisect, al + 0.5 * width, step)
        widths[:, live] = np.vstack([width, widths[:2, live]])
        fx = evaluate_rows(xl, rows[live])
        x[live] = xl

        move_a = np.sign(fx) == np.sign(fal)
        kl = kept[live]
        fal = np.where(~move_a & (kl == 1), 0.5 * fal, fal)
        fbl = np.where(move_a & (kl == -1), 0.5 * fbl, fbl)
        a[live] = np.where(move_a, xl, al)
        fa[live] = np.where(move_a, fx, fal)
        b[live] = np.where(move_a, bl, xl)
        fb[live] = np.where(move_a, fbl, fx)
        kept[live] = np.where(move_a, -1, 1)

        hit = fx == 0.0
        a[live[hit]] = b[live[hit]] = xl[hit]
        bad = ~np.isfinite(fx)
        a[live[bad]] = b[live[bad]] = x[live[bad]] = np.nan
    x[live] = np.nan  # still open at the iteration cap
    return x
