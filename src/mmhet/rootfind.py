"""Scalar profile solves: log-grid sign scan, Brent refinement, golden fallback.

Both the single-curve profile equation and the clustered GLS score reduce to
one scalar equation in the half-saturation constant.  The search strategy is
shared: evaluate on a geometric grid, bracket the first sign change scanning
upward from the left endpoint, and refine it with Brent's method (``_brent``,
a step-for-step port of the classic inverse-interpolation/bisection hybrid;
Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4).  If
no sign change exists, fall back to golden-section minimization of the
squared equation on the log scale.  numpy is the only dependency.

``solve_rows`` applies the same bracket policy to many equations at once,
on one shared grid (the wild bootstrap's refits over one design) or on one
grid per row (screening, where every curve has its own bracket), refining
every bracket in lockstep with a safeguarded Illinois step.  Rows it cannot
bracket are left to ``solve_scalar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

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

# Bracket refinement (Brent in solve_scalar, lockstep Illinois in
# solve_rows) stops at a width of about this much relative to the root,
# or after _REFINE_MAX_ITER steps.  Brent also has an absolute tolerance,
# set so small that only the relative one ever binds.
_REFINE_RTOL = 4.0 * float(np.finfo(np.float64).eps)
_REFINE_XTOL = 1e-240
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


def log_grid(k_lo, k_hi) -> np.ndarray:
    """The sign-scan grid: GRID_POINTS geometric points from k_lo to k_hi.

    For arrays of brackets (rows,) it is (rows, GRID_POINTS), each row
    bit-identical to the grid of that row's bracket alone.
    """
    return np.geomspace(k_lo, k_hi, GRID_POINTS, axis=-1)


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
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    diagnostics = partial(
        SolverDiagnostics, bracket=(k_lo, k_hi), sign_changes=int(flips.size)
    )

    # An exact zero on the grid is already a root.
    zeros = np.flatnonzero(vals == 0.0)
    if zeros.size:
        k = float(ks[idx[zeros[0]]])
        return k, diagnostics(
            used_root=True, iterations=0, f_at_solution=0.0, converged=True
        )

    if flips.size:
        # First bracket scanning upward from k_lo (multi-root policy).
        a = float(ks[idx[flips[0]]])
        b = float(ks[idx[flips[0] + 1]])
        root, iterations, brent_converged = _brent(lambda k: eval_one(k)[0], a, b)
        f_root, scale = eval_one(root)
        converged = abs(f_root) <= TOL_F_REL * scale or brent_converged
        return root, diagnostics(
            used_root=True, iterations=iterations, f_at_solution=f_root,
            converged=converged,
        )

    # No sign change anywhere: golden-section minimization of F^2 in log k.
    k, iterations = _golden_min_sq(eval_one, k_lo, k_hi, GOLDEN_TOL_REL)
    f_at, scale = eval_one(k)
    converged = bool(np.isfinite(f_at) and abs(f_at) <= TOL_F_REL * scale)
    return k, diagnostics(
        used_root=False, iterations=iterations, f_at_solution=f_at, converged=converged
    )


def _brent(f: Callable[[float], float], a: float, b: float) -> tuple[float, int, bool]:
    """Root of f on [a, b], f(a) f(b) < 0, by Brent's method.

    Returns (root, iterations, converged).  Each step takes an inverse
    quadratic or secant step if it is short enough, else bisects, and moves
    at least half the tolerance _REFINE_XTOL + _REFINE_RTOL |x|.  Steps,
    tests and arithmetic are those of the classic C ``brentq``, so roots and
    iteration counts match it bit for bit; tests/test_rootfind.py checks.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre, 0, True
    if fcur == 0.0:
        return xcur, 0, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _REFINE_MAX_ITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_REFINE_XTOL + _REFINE_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations, True

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur, _REFINE_MAX_ITER, False


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


@dataclass(frozen=True, eq=False)
class RowRoots:
    """solve_rows' outcome for every row."""

    root: np.ndarray  # (rows,) NaN where the row is left to solve_scalar
    steps: np.ndarray  # (rows,) lockstep refinement steps; 0 for a grid zero
    value: np.ndarray  # (rows,) the equation's value at root
    sign_changes: np.ndarray  # (rows,) sign changes on the grid


def solve_rows(
    values: np.ndarray,
    ks: np.ndarray,
    evaluate_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> RowRoots:
    """Roots of many scalar equations from their values on a grid.

    ``values`` holds each equation's values on the grid ``ks`` (see
    log_grid), one row per equation; ``ks`` is one grid for every row, or
    one grid per row of the same shape as ``values``.
    ``evaluate_rows(x, rows)`` returns the value of equation ``rows[i]`` at
    ``x[i]``.  Each row follows solve_scalar's policy: an exact grid zero
    first, else the first sign change scanning upward, refined here in
    lockstep by a safeguarded Illinois step.  The root is NaN for a row with
    a non-finite grid value, no sign change, or a non-finite value during
    refinement; such rows are for solve_scalar.
    """
    ks = np.broadcast_to(ks, values.shape)
    finite = np.isfinite(values).all(axis=1)
    roots = np.full(values.shape[0], np.nan)
    steps = np.zeros(values.shape[0], dtype=np.intp)
    at_root = np.full(values.shape[0], np.nan)

    zero = (values == 0.0) & finite[:, None]
    has_zero = zero.any(axis=1)
    roots[has_zero] = ks[has_zero, zero.argmax(axis=1)[has_zero]]
    at_root[has_zero] = 0.0

    flips = (np.sign(values[:, :-1]) * np.sign(values[:, 1:]) < 0) & finite[:, None]
    rows = np.flatnonzero(flips.any(axis=1) & ~has_zero)
    j = flips[rows].argmax(axis=1)
    roots[rows], steps[rows], at_root[rows] = _illinois(
        evaluate_rows, rows, ks[rows, j], ks[rows, j + 1], values[rows, j], values[rows, j + 1]
    )
    return RowRoots(roots, steps, at_root, flips.sum(axis=1))


def _illinois(evaluate_rows, rows, a, b, fa, fb):
    """Lockstep regula falsi with the Illinois modification on brackets
    [a, b] with f(a) f(b) < 0: (root, steps, value at root) per row.

    An endpoint kept twice running has its stored value halved, so the
    false-position point crosses the root.  A point closer than half the
    stopping width to an endpoint is pushed to that distance, so a bracket
    whose point has hit the root closes on the next step.  A step bisects
    when the point is not strictly inside the bracket or the bracket failed
    to halve over the last three steps.  Each row's arithmetic depends only
    on that row, so results do not depend on which rows share the call.
    """
    nearer_a = np.abs(fa) <= np.abs(fb)
    x = np.where(nearer_a, a, b)
    fx_at = np.where(nearer_a, fa, fb)
    steps = np.zeros(rows.size, dtype=np.intp)
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
        x[live], fx_at[live] = xl, fx
        steps[live] += 1

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
    return x, steps, fx_at
