"""Scalar profile solves: log-grid sign scan, Brent refinement, golden fallback.

Both the single-curve profile equation and the clustered GLS score reduce to
one scalar equation in the half-saturation constant.  The search strategy is
shared: evaluate on a geometric grid and apply the root rule, then refine a
bracket with Brent's method (``_brent``, a step-for-step port of the classic
inverse-interpolation/bisection hybrid; Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 4).  If the grid holds no root, fall
back to golden-section minimization of the squared equation on the log
scale.  numpy is the only dependency.

The root rule: scanning the grid's finite values upward from the left
endpoint, the first exact zero or sign change between consecutive values
decides.  A zero is the root as it stands; a sign change is the bracket to
refine.  A zero above the first sign change does not count.

``solve_rows`` applies the same root rule to many equations at once,
on one shared grid (the wild bootstrap's refits over one design) or on one
grid per row (screening, where every curve has its own bracket), refining
every bracket in lockstep with a safeguarded Illinois step.  Rows it cannot
bracket are left to ``solve_scalar``.  It is two stages, ``bracket_rows``
on the grid values and ``refine_rows`` on the brackets, so a caller whose
grid values come in small blocks (screening) can refine many blocks'
brackets in one lockstep call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

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
    evaluate: Callable,
    terms: Callable[[float], tuple[float, float]],
    ks: np.ndarray,
    scan_to: int | None = None,
) -> tuple[float, SolverDiagnostics]:
    """Locate a root of a scalar profile equation on the grid ks (log_grid),
    whose endpoints are the bracket, by the root rule (module docstring).

    ``evaluate(k)`` is the equation's value: an array over a run of the grid
    (the scan), one value at a float k (the Brent and golden steps).  The
    two must agree bit for bit at the grid's points: Brent takes its
    bracket's end values from the scan.  ``terms(k)`` is the (value, scale)
    pair at one k, with scale the natural magnitude of the equation there;
    only the relative |F| convergence test at the returned k reads it.

    The scan evaluates ``ks[:scan_to]`` first, and the rest of the grid only
    when that prefix holds no root: the prefix's first root is the grid's,
    so the result does not depend on ``scan_to``, except that
    ``sign_changes`` counts the scanned points only.  Without ``scan_to``
    the whole grid is one run.
    """
    k_lo, k_hi = float(ks[0]), float(ks[-1])
    cut = ks.size if scan_to is None else min(max(scan_to, 1), ks.size)
    values = evaluate(ks[:cut])
    idx, vals, flips, zeros = _grid_roots(values)
    if cut < ks.size and not (flips.size or zeros.size):
        values = np.concatenate([values, evaluate(ks[cut:])])
        idx, vals, flips, zeros = _grid_roots(values)
    if not idx.size:
        raise NoFiniteEvaluation(
            "profile equation is non-finite at every grid point"
        )
    diagnostics = partial(
        SolverDiagnostics, bracket=(k_lo, k_hi), sign_changes=int(flips.size)
    )

    # A zero below the first sign change is the root as it stands.
    if zeros.size and not (flips.size and flips[0] < zeros[0]):
        k = float(ks[idx[zeros[0]]])
        return k, diagnostics(
            used_root=True, iterations=0, f_at_solution=0.0, converged=True
        )

    def f(k: float) -> float:
        return float(evaluate(k))

    if flips.size:
        j = flips[0]
        root, iterations, brent_converged = _brent(
            f, float(ks[idx[j]]), float(ks[idx[j + 1]]), float(vals[j]), float(vals[j + 1])
        )
        f_root, scale = terms(root)
        converged = abs(f_root) <= TOL_F_REL * scale or brent_converged
        return root, diagnostics(
            used_root=True, iterations=iterations, f_at_solution=f_root,
            converged=converged,
        )

    # No root on the grid: golden-section minimization of F^2 in log k.
    k, iterations = _golden_min_sq(f, k_lo, k_hi, GOLDEN_TOL_REL)
    f_at, scale = terms(k)
    converged = bool(np.isfinite(f_at) and abs(f_at) <= TOL_F_REL * scale)
    return k, diagnostics(
        used_root=False, iterations=iterations, f_at_solution=f_at, converged=converged
    )


def _grid_roots(values: np.ndarray):
    """Scan values: (idx, vals, flips, zeros), with vals the finite values
    at grid indices idx, a sign change between vals[j] and vals[j + 1] for
    each j in flips, and vals[j] == 0 for each j in zeros."""
    idx = np.flatnonzero(np.isfinite(values))
    vals = values[idx]
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    return idx, vals, flips, np.flatnonzero(vals == 0.0)


def _brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, int, bool]:
    """Root of f on [a, b], given fa = f(a) and fb = f(b) with fa fb < 0, by
    Brent's method.

    Returns (root, iterations, converged).  Each step takes an inverse
    quadratic or secant step if it is short enough, else bisects, and moves
    at least half the tolerance _REFINE_XTOL + _REFINE_RTOL |x|.  Steps,
    tests and arithmetic are those of the classic C ``brentq``, so roots and
    iteration counts match it bit for bit; tests/test_rootfind.py checks.
    """
    xpre, xcur = a, b
    fpre, fcur = fa, fb
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
                den = dblk * dpre * (fblk - fpre)
                # where den underflows to 0, C's brentq divides into an
                # infinite or NaN step, fails the test below and bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else np.inf
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
    f: Callable[[float], float],
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
        v = f(float(np.exp(t)))
        return v * v if np.isfinite(v) else np.inf

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


class RowBrackets(NamedTuple):
    """bracket_rows' outcome for every row: what the grid decides, and the
    bracket a sign change leaves to refine_rows."""

    root: np.ndarray  # (rows,) the grid zero the root rule takes, else NaN
    a: np.ndarray  # (rows,) lower end of the bracket to refine, else NaN
    b: np.ndarray  # (rows,) upper end
    fa: np.ndarray  # (rows,) the equation's value at a
    fb: np.ndarray  # (rows,) the equation's value at b
    sign_changes: np.ndarray  # (rows,) sign changes on the grid


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
    ``x[i]``.  Each row follows the root rule (module docstring), as
    solve_scalar does; a sign change is refined here in lockstep by a
    safeguarded Illinois step.  The root is NaN for a row with a non-finite
    grid value, no root on the grid, or a non-finite value during
    refinement; such rows are for solve_scalar.

    It is bracket_rows then refine_rows.  Both work row by row, so the rows
    may be bracketed in some blocks and refined in others, joined or split
    along the rows of RowBrackets' fields, with the same bits.
    """
    return refine_rows(bracket_rows(values, ks), evaluate_rows)


def bracket_rows(values: np.ndarray, ks: np.ndarray) -> RowBrackets:
    """solve_rows' grid stage: the root rule on every row of ``values``."""
    ks = np.broadcast_to(ks, values.shape)
    finite = np.isfinite(values).all(axis=1)
    roots = np.full(values.shape[0], np.nan)
    zero = (values == 0.0) & finite[:, None]
    flips = (np.sign(values[:, :-1]) * np.sign(values[:, 1:]) < 0) & finite[:, None]
    has_flip = flips.any(axis=1)
    j, at_zero = flips.argmax(axis=1), zero.argmax(axis=1)
    # a zero below the first sign change is the root as it stands
    has_zero = zero.any(axis=1) & ~(has_flip & (j < at_zero))
    roots[has_zero] = ks[has_zero, at_zero[has_zero]]

    ends = np.full((4, values.shape[0]), np.nan)
    rows = np.flatnonzero(has_flip & ~has_zero)
    j = j[rows]
    ends[:, rows] = ks[rows, j], ks[rows, j + 1], values[rows, j], values[rows, j + 1]
    return RowBrackets(roots, *ends, flips.sum(axis=1))


def refine_rows(
    brackets: RowBrackets, evaluate_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> RowRoots:
    """solve_rows' refinement stage: every bracket of ``brackets`` refined
    in lockstep, with ``evaluate_rows`` indexing the rows of ``brackets``."""
    roots = brackets.root.copy()
    steps = np.zeros(roots.size, dtype=np.intp)
    at_root = np.where(np.isnan(roots), np.nan, 0.0)
    rows = np.flatnonzero(~np.isnan(brackets.a))
    roots[rows], steps[rows], at_root[rows] = _illinois(
        evaluate_rows, rows,
        brackets.a[rows], brackets.b[rows], brackets.fa[rows], brackets.fb[rows],
    )
    return RowRoots(roots, steps, at_root, brackets.sign_changes)


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
    # The state of the rows still open, at positions live: compacted when
    # a row closes, so a step touches only the open rows.
    live = np.arange(rows.size)
    kept = np.zeros(rows.size, dtype=np.int8)  # +1: a kept last step, -1: b kept
    widths = np.full((3, rows.size), np.inf)  # bracket widths 1, 2, 3 steps back
    for it in range(_REFINE_MAX_ITER + 1):
        # NaN widths mark rows stopped by a non-finite value.
        open_ = b - a > _REFINE_RTOL * b
        if not open_.all():
            live, a, b, fa, fb, kept = (v[open_] for v in (live, a, b, fa, fb, kept))
            widths = widths[:, open_]
        if live.size == 0 or it == _REFINE_MAX_ITER:
            break
        width = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            step = b - fb * (width / (fb - fa))
        margin = 0.5 * _REFINE_RTOL * b
        step = np.clip(step, a + margin, b - margin)
        bisect = ~((step > a) & (step < b)) | (width > 0.5 * widths[2])
        xl = np.where(bisect, a + 0.5 * width, step)
        widths = np.vstack([width, widths[:2]])
        fx = evaluate_rows(xl, rows[live])
        x[live], fx_at[live] = xl, fx
        steps[live] = it + 1

        move_a = np.sign(fx) == np.sign(fa)
        fa = np.where(~move_a & (kept == 1), 0.5 * fa, fa)
        fb = np.where(move_a & (kept == -1), 0.5 * fb, fb)
        a, fa = np.where(move_a, xl, a), np.where(move_a, fx, fa)
        b, fb = np.where(move_a, b, xl), np.where(move_a, fb, fx)
        kept = np.where(move_a, -1, 1)

        hit = fx == 0.0
        if hit.any():
            a[hit] = b[hit] = xl[hit]
        bad = ~np.isfinite(fx)
        if bad.any():
            a[bad] = b[bad] = np.nan
            x[live[bad]] = np.nan
    x[live] = np.nan  # still open at the iteration cap
    return x, steps, fx_at
