"""Single-curve heteroscedastic Michaelis-Menten estimation.

For a fixed working variance shape h, the dispersion-free estimating
equations for (vmax, km) collapse to one scalar equation in k.  With the
shorthand w_i = s_i / ((k + s_i) h_i), the profile equation is

    F_h(k) = [sum w_i y_i] * [sum w_i s_i / (k + s_i)^2]
           - [sum w_i y_i / (k + s_i)] * [sum w_i s_i / (k + s_i)],

whose root is the half-saturation estimate.  The maximal velocity follows
by the plug-in ratio

    vmax(k) = [sum w_i y_i] / [sum w_i s_i / (k + s_i)],

the dispersion is gamma = mean(resid^2 / h), and plug-in Wald inference
uses (gamma / n) * Minv with M = mean over i of g_i g_i^T / h_i.  These
mean equations coincide with Gaussian weighted nonlinear least squares
with weights 1/h_i, which is what the test-suite oracles exploit.

``fit_rows`` runs the same fit for many response vectors over one design
(the wild bootstrap's refits, the Monte Carlo suites' replicates): one grid
evaluation for all of them, a lockstep root refinement, and the plug-in
stage per row.  It refits the rows the lockstep stage cannot bracket
through ``fit_single``, so it returns every row's final outcome.
Screening (``screen_models``, and ``group_fit`` over a whole panel) runs
the same stages on rows that each carry their own design, shape and grid:
every (curve, candidate) pair is one row, and pairs on curves of equal
length share a chunk of up to BLOCK_ROWS rows.  Their (rows, K, n) grid
arrays are larger than fit_rows', so a chunk scans its grid in smaller
blocks of at most BLOCK_CELLS cells, keeps only each block's brackets
(``bracket_rows``) and refines the whole chunk in one lockstep call
(``refine_rows``).  ``fit_single`` finishes through the same plug-in
stage on one row and builds its result through the same helper, so each
plug-in formula, each post-root failure rule and the intervals and
information criteria are written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_CANDIDATES,
    Dataset,
    MMParams,
    VarianceSpec,
    check_candidates,
    eval_h,
    wald_z,
)
from .exceptions import (
    AllCandidatesFailed,
    DegenerateDesign,
    MMHetError,
    NonconvergedFit,
    SingularInformation,
)
from .rootfind import (
    GRID_POINTS,
    RowBrackets,
    SolverDiagnostics,
    bracket_rows,
    k_bracket,
    log_grid,
    refine_rows,
    solve_rows,
    solve_scalar,
)

# Condition-number cutoff above which the information matrix is treated
# as singular.
COND_LIMIT = 1e12

# Parameter count charged by the information criteria: vmax, km, gamma.
N_PARAMS = 3

# Rows fit_rows and screening solve together: enough to amortize numpy's
# per-call cost in the lockstep refinement and the plug-in stage, few
# enough that the (rows, GRID_POINTS) and (rows, n) arrays do not raise
# peak memory.
BLOCK_ROWS = 128
# Float64 cells of each (rows, GRID_POINTS, n) array of a screening grid
# block, whose rows carry their own design: blocks of long curves get
# fewer rows, so the grid stage's transient memory stays near 1 MiB per
# array.  Only the brackets of a block outlive it, so this budget does not
# bound the refinement's chunk, which BLOCK_ROWS does.
BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class FitConfig:
    alpha: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class FitResult:
    params: MMParams
    gamma: float
    cov: np.ndarray
    se: np.ndarray
    ci_vmax: tuple[float, float]
    ci_km: tuple[float, float]
    loglik: float
    aic: float
    bic: float
    variance_spec: VarianceSpec
    solver: SolverDiagnostics
    alpha: float


def _profile_products(k, s, y, h):
    """The two product terms (t1, t2) of F_h = t1 - t2 at one k, at each
    point of a grid of k values, or at k[i] on row i of per-row designs."""
    d = np.asarray(k)[..., None] + s
    w = s / (d * h)
    wd = w / d
    s1 = (w * y).sum(axis=-1)
    s4 = (w * s / d).sum(axis=-1)
    s2 = (wd * y).sum(axis=-1)
    s3 = (wd * s / d).sum(axis=-1)
    return s1 * s3, s2 * s4


def _profile_value(k, s, y, h):
    """F_h, evaluated as _profile_products is."""
    t1, t2 = _profile_products(k, s, y, h)
    return t1 - t2


def _profile_terms(k: float, s, y, h) -> tuple[float, float]:
    """F_h at one k and its scale, the larger product-term magnitude: the
    natural yardstick for a relative |F| tolerance."""
    t1, t2 = _profile_products(k, s, y, h)
    return float(t1 - t2), float(np.maximum(np.abs(t1), np.abs(t2)))


def _vmax_rows(km: np.ndarray, s, y: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in vmax for row-wise km (rows,) and y (rows, n), with the
    denominators."""
    d = km[:, None] + s
    w = s / (d * h)
    num = (w * y).sum(axis=1)
    den = (w * s / d).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, den


def _gamma_rows(s, h, y: np.ndarray, vmax: np.ndarray, km: np.ndarray) -> np.ndarray:
    """Dispersion mean(resid^2 / h) for row-wise (vmax, km) and y (rows, n)."""
    r = y - vmax[:, None] * (s / (km[:, None] + s))
    # sum / n: the bits of mean() at a fraction of its per-call cost on one row
    return (r * r / h).sum(axis=1) / s.shape[-1]


def _plugin_cov_rows(s, h, vmax: np.ndarray, km: np.ndarray, gamma: np.ndarray):
    """(gamma / n) * Minv for row-wise (vmax, km, gamma) as (rows, 2, 2), and
    the ok mask of sym2_inverse."""
    d = km[:, None] + s
    g1 = s / d
    g2 = -vmax[:, None] * s / (d * d)
    n = s.shape[-1]
    m11 = (g1 * g1 / h).sum(axis=1) / n
    m12 = (g1 * g2 / h).sum(axis=1) / n
    m22 = (g2 * g2 / h).sum(axis=1) / n
    i11, i12, i22, ok = sym2_inverse(m11, m12, m22)
    scale = gamma / n
    c12 = scale * i12
    return np.array([[scale * i11, c12], [c12, scale * i22]]).transpose(2, 0, 1), ok


def _plugin_failure(den, vmax, gamma, ok) -> MMHetError | None:
    """The exception fit_single raises after its root for one row's plug-in
    values (Python scalars), else None.  The checks run in fit_single's
    order."""
    if not (math.isfinite(den) and den > 0):
        return DegenerateDesign(
            f"vmax plug-in denominator is {den!r}; design cannot identify vmax"
        )
    if not (math.isfinite(vmax) and vmax > 0):
        return DegenerateDesign(
            f"plug-in vmax = {vmax!r}; data are not consistent with a saturating curve"
        )
    if not math.isfinite(gamma):
        return DegenerateDesign(f"plug-in gamma = {gamma!r}; the squared residuals overflow")
    if not ok:
        return SingularInformation(f"information matrix condition exceeds {COND_LIMIT:g}")
    return None


def _plugin_rows(s, h, y: np.ndarray, km: np.ndarray):
    """fit_single's steps after the root, for row-wise km (rows,) and y
    (rows, n) on a shared design s, h (n,) or per-row ones (rows, n): vmax,
    the covariance (rows, 2, 2), the standard errors (rows, 2), gamma and
    each row's failure (an exception, else None)."""
    vmax, den = _vmax_rows(km, s, y, h)
    with np.errstate(over="ignore", invalid="ignore"):  # _plugin_failure names such rows
        gamma = _gamma_rows(s, h, y, vmax, km)
        cov, ok = _plugin_cov_rows(s, h, vmax, km, gamma)
        passed = (
            np.isfinite(den) & (den > 0) & np.isfinite(vmax) & (vmax > 0)
            & np.isfinite(gamma) & ok
        )
    se = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    # _plugin_failure's checks run vectorized above; only failing rows
    # build their exception
    bad = np.flatnonzero(~passed)
    failure = np.full(km.size, None, dtype=object)
    failure[bad] = [
        _plugin_failure(*row) for row in zip(*(a[bad].tolist() for a in (den, vmax, gamma, ok)))
    ]
    return vmax, cov, se, gamma, failure


def distinct_levels(s: np.ndarray) -> int:
    """The number of distinct values of a nonempty s, as numpy's unique
    counts them.

    unique imports numpy.ma lazily on its first call; sorting does not, so
    no fit runs a module import partway through.
    """
    return int(np.count_nonzero(np.diff(np.sort(s)))) + 1


def _require_identifiable(s: np.ndarray) -> None:
    if s.size < 3 or distinct_levels(s) < 3:
        raise DegenerateDesign(
            "need at least 3 observations over 3 distinct substrate levels"
        )


def _solve_km(s, y, h) -> tuple[float, SolverDiagnostics]:
    return solve_scalar(
        lambda k: _profile_value(k, s, y, h),
        lambda k: _profile_terms(k, s, y, h),
        log_grid(*k_bracket(s)),
    )


def sym2_inverse(a, b, d):
    """Closed-form inverse of the symmetric 2x2 matrices [[a, b], [b, d]].

    Works elementwise over arrays and returns (ia, ib, id, ok).  ``ok`` is
    False where the determinant is not finite and positive or where the
    2-norm condition number, the squared largest eigenvalue magnitude over
    the determinant, exceeds COND_LIMIT; the inverse is meaningless there.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = a * d - b * b
        top = 0.5 * np.abs(a + d) + np.hypot(0.5 * (a - d), b)
        ok = np.isfinite(det) & (det > 0) & (top * top <= COND_LIMIT * det)
        return d / det, -b / det, a / det, ok


def _information_criteria(s, h, y, vmax, km, gamma):
    """Gaussian working log-likelihood, AIC and BIC (lists of Python floats)
    for row-wise (vmax, km, gamma) and y (rows, n) on a shared design s, h
    (n,) or per-row ones (rows, n).

    A row with gamma == 0 has loglik = inf when every residual is zero;
    with a nonzero residual it raises.
    """
    r = y - vmax[:, None] * (s / (km[:, None] + s))
    # gamma == 0 rows take log(0) and 0/0 here and are set below
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log((2.0 * np.pi * gamma)[:, None] * h) + r * r / (gamma[:, None] * h)
    # each row's sum runs over its own contiguous n values, as np.sum of
    # that row alone does
    loglik = -0.5 * terms.sum(axis=1)
    zero = gamma == 0.0
    if zero.any():
        if np.any(r[zero] != 0.0):
            # Impossible by construction: gamma is the mean of r^2/h.
            raise MMHetError("internal: zero dispersion with nonzero residuals")
        loglik[zero] = np.inf
    aic = -2.0 * loglik + 2.0 * N_PARAMS
    bic = -2.0 * loglik + N_PARAMS * np.log(s.shape[-1])
    return loglik.tolist(), aic.tolist(), bic.tolist()


def _fit_results(specs, km, vmax, cov, se, gamma, criteria, solvers, alpha, z) -> list[FitResult]:
    """fit_single's results for rows of the plug-in stage: root km, vmax,
    cov, se and gamma (row-indexed arrays holding only these rows), each
    row's information criteria (loglik, aic, bic), solver diagnostics and
    shape, with Wald intervals of quantile z = wald_z(alpha).

    The arrays are converted to Python floats once, and each interval is
    float arithmetic, which rounds as numpy's does; each result's cov and se
    are its rows of the arrays passed in.
    """
    return [
        FitResult(
            params=MMParams(v, k),
            gamma=g,
            cov=c,
            se=e,
            ci_vmax=(v - z * se_v, v + z * se_v),
            ci_km=(k - z * se_k, k + z * se_k),
            loglik=loglik,
            aic=aic,
            bic=bic,
            variance_spec=spec,
            solver=solver,
            alpha=alpha,
        )
        for k, v, g, (se_v, se_k), c, e, loglik, aic, bic, solver, spec in zip(
            km.tolist(), vmax.tolist(), gamma.tolist(), se.tolist(), cov, se, *criteria,
            solvers, specs,
        )
    ]


def fit_single(
    data: Dataset, spec: VarianceSpec, conf: FitConfig | None = None
) -> FitResult:
    """Full single-curve fit under one working variance shape.

    After the root search it runs fit_rows' plug-in stage on one row and
    raises the exception that stage names.  Raises NonconvergedFit (carrying
    the partial result and diagnostics) when the scalar solve had to fall
    back without reaching a root.
    """
    conf = conf if conf is not None else FitConfig()
    s, y = data.s, data.y
    _require_identifiable(s)
    h = eval_h(spec, s)
    km, diag = _solve_km(s, y, h)
    row, kms = y[None, :], np.array([km])
    vmax, cov, se, gamma, failure = _plugin_rows(s, h, row, kms)
    if failure[0] is not None:
        raise failure[0]
    (result,) = _fit_results(
        [spec], kms, vmax, cov, se, gamma, _information_criteria(s, h, row, vmax, kms, gamma),
        [diag], conf.alpha, wald_z(conf.alpha),
    )
    if not diag.converged:
        raise NonconvergedFit(
            "profile equation has no root in the bracket and the fallback "
            f"minimum leaves |F| = {abs(diag.f_at_solution):.3e}",
            result=result,
            diagnostics=diag,
        )
    return result


def _grid_terms(ks, s, h):
    """The y-free pieces of the profile equation on the grid ks: the weights
    w = s / ((k + s) h) and wd = w / (k + s), and _profile_products' sums s3 and
    s4.  A shared design s, h (n,) on one grid ks (K,) gives (K, n) weights
    and (K,) sums; per-row designs (rows, n) on per-row grids (rows, K) give
    (rows, K, n) and (rows, K)."""
    s = s[..., None, :]
    d = ks[..., None] + s
    w = s / (d * h[..., None, :])
    wd = w / d
    return w, wd, (wd * s / d).sum(axis=-1), (w * s / d).sum(axis=-1)


def _row_take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of a per-row design array (rows, n); a shared one (n,)
    as it is."""
    return a if a.ndim == 1 else a[rows]


def _grid_values(y: np.ndarray, grid) -> np.ndarray:
    """The profile equation's values (rows, K) on the grid for every row of
    y (rows, n), from the design's _grid_terms."""
    w, wd, s3, s4 = grid
    # The two y-dependent sums.  einsum, unlike a BLAS matmul, gives each
    # row the same sums whatever rows share its block.
    sub = "rn,kn->rk" if w.ndim == 2 else "rn,rkn->rk"
    return np.einsum(sub, y, w) * s3 - np.einsum(sub, y, wd) * s4


def _row_values(s, y: np.ndarray, h):
    """solve_rows' evaluate_rows for the rows of y on a shared or per-row
    design."""
    return lambda x, idx: _profile_value(x, _row_take(s, idx), y[idx], _row_take(h, idx))


@dataclass(frozen=True, eq=False)
class RowFits:
    """fit_single's outcome for every response row of fit_rows, and how
    each row's root was found."""

    theta: np.ndarray  # (rows, 2): vmax, km; NaN where the row did not fit
    se: np.ndarray  # (rows, 2) plug-in standard errors
    gamma: np.ndarray  # (rows,) dispersion estimates
    failure: np.ndarray  # exception-class name fit_single raises, else None
    fallback: np.ndarray  # (rows,) True where the row was refit through fit_single
    # (rows,) lockstep refinement steps (0 for a grid zero), or where
    # fallback the iterations of fit_single's solve; -1 where no solve ran
    # or the fallback's error carries no SolverDiagnostics
    steps: np.ndarray
    sign_changes: np.ndarray  # (rows,) sign changes on the grid; -1 as steps


def fit_rows(s: np.ndarray, y: np.ndarray, spec: VarianceSpec) -> RowFits:
    """fit_single's estimates, standard errors and failures for every row of
    y, all observed on the design s under one variance shape.

    Rows are fit BLOCK_ROWS at a time: one grid scan, the lockstep root
    stage solve_rows, and the plug-in stage fit_single also runs.  Rows
    solve_rows cannot bracket are then fit one by one through fit_single.
    """
    rows = y.shape[0]
    theta = np.full((rows, 2), np.nan)
    se = np.full((rows, 2), np.nan)
    gamma = np.full(rows, np.nan)
    failure = np.full(rows, None, dtype=object)
    fallback = np.zeros(rows, dtype=bool)
    steps = np.full(rows, -1, dtype=np.intp)
    sign_changes = np.full(rows, -1, dtype=np.intp)
    try:
        _require_identifiable(s)
    except DegenerateDesign as err:
        failure[:] = type(err).__name__
        return RowFits(theta, se, gamma, failure, fallback, steps, sign_changes)
    h = eval_h(spec, s)
    ks = log_grid(*k_bracket(s))
    grid = _grid_terms(ks, s, h)
    unbracketed = []
    for first in range(0, rows, BLOCK_ROWS):
        yb = y[first:first + BLOCK_ROWS]
        roots = solve_rows(_grid_values(yb, grid), ks, _row_values(s, yb, h))
        block = slice(first, first + yb.shape[0])
        steps[block], sign_changes[block] = roots.steps, roots.sign_changes
        km = roots.root
        solved = np.isfinite(km)
        unbracketed.extend(first + np.flatnonzero(~solved))
        km = km[solved]
        vmax, _, se_b, gamma_b, errors = _plugin_rows(s, h, yb[solved], km)
        fit = np.equal(errors, None)
        at = first + np.flatnonzero(solved)
        theta[at[fit]] = np.column_stack([vmax, km])[fit]
        se[at[fit]], gamma[at[fit]] = se_b[fit], gamma_b[fit]
        failure[at[~fit]] = [type(err).__name__ for err in errors[~fit]]
    fallback[unbracketed] = True
    steps[unbracketed] = sign_changes[unbracketed] = -1
    for i in unbracketed:
        try:
            one = fit_single(Dataset(s, y[i]), spec)
        except NonconvergedFit as err:
            failure[i], diag = type(err).__name__, err.diagnostics
        except MMHetError as err:
            failure[i] = type(err).__name__
            continue
        else:
            theta[i], se[i], gamma[i] = one.params.as_array(), one.se, one.gamma
            diag = one.solver
        steps[i], sign_changes[i] = diag.iterations, diag.sign_changes
    return RowFits(theta, se, gamma, failure, fallback, steps, sign_changes)


@dataclass(frozen=True, eq=False)
class ScreenEntry:
    """One candidate's outcome within a screening run."""

    spec: VarianceSpec
    result: FitResult | None
    error: str | None
    rank: int | None


def _screen_fits(
    datasets: Sequence[Dataset], candidates: Sequence[VarianceSpec], conf: FitConfig
) -> list[list[tuple[FitResult | None, str | None]]]:
    """fit_single's outcome for every candidate on every dataset, as
    (result, None) for a fit and (partial result or None, message) for a
    failure, with NonconvergedFit's partial result kept.

    Every (dataset, candidate) pair is one row of fit_rows' stages, with
    its own design, shape and grid.  Rows on curves of equal length share a
    chunk of at most BLOCK_ROWS rows, so nothing is padded, and each stage
    sees one length at a time.  Two budgets bound the memory: the grid scan
    runs in blocks of at most BLOCK_CELLS cells per (rows, K, n) array and
    keeps only each row's bracket (bracket_rows); one lockstep refinement
    (refine_rows), the plug-in stage and the information criteria then run
    on the whole chunk, whose (rows, n) arrays BLOCK_ROWS bounds.  Rows
    without a bracket, and rows the plug-in stage rejects, are refit
    through fit_single, so every failure and its message are fit_single's
    own: a message quotes the plug-in value, whose last digits depend on
    where the solver stopped.
    """
    out: list[list] = [[None] * len(candidates) for _ in datasets]
    brackets: dict[int, tuple[float, float]] = {}
    by_length: dict[int, list[tuple[int, int]]] = {}
    for i, data in enumerate(datasets):
        try:
            _require_identifiable(data.s)
        except DegenerateDesign as err:
            out[i] = [(None, str(err))] * len(candidates)
            continue
        brackets[i] = k_bracket(data.s)
        by_length.setdefault(data.n, []).extend((i, j) for j in range(len(candidates)))
    z = wald_z(conf.alpha)
    refit = []
    for n, pairs in by_length.items():
        grid_rows = max(1, BLOCK_CELLS // (GRID_POINTS * n))
        for first in range(0, len(pairs), BLOCK_ROWS):
            part = pairs[first:first + BLOCK_ROWS]
            s = np.stack([datasets[i].s for i, _ in part])
            y = np.stack([datasets[i].y for i, _ in part])
            h = np.stack([eval_h(candidates[j], datasets[i].s) for i, j in part])
            ks = log_grid(*np.array([brackets[i] for i, _ in part]).T)
            blocks = [slice(at, at + grid_rows) for at in range(0, len(part), grid_rows)]
            # rows whose values overflow come back unbracketed or rejected
            with np.errstate(over="ignore", invalid="ignore"):
                found = [
                    bracket_rows(_grid_values(y[b], _grid_terms(ks[b], s[b], h[b])), ks[b])
                    for b in blocks
                ]
                roots = refine_rows(
                    RowBrackets(*map(np.concatenate, zip(*found))), _row_values(s, y, h)
                )
            km = roots.root
            vmax, cov, se, gamma, failure = _plugin_rows(s, h, y, km)
            kept = ~np.isnan(km) & np.equal(failure, None)
            refit.extend(pair for pair, ok in zip(part, kept) if not ok)
            rows = np.flatnonzero(kept)
            at = [part[r] for r in rows.tolist()]
            # a lockstep bracket closed to its width is a converged root
            solvers = [
                SolverDiagnostics(
                    bracket=brackets[i], used_root=True, iterations=steps,
                    f_at_solution=value, converged=True, sign_changes=flips,
                )
                for (i, _), steps, value, flips in zip(
                    at, *(a[rows].tolist() for a in (roots.steps, roots.value, roots.sign_changes))
                )
            ]
            km, vmax, gamma = km[rows], vmax[rows], gamma[rows]
            criteria = _information_criteria(s[rows], h[rows], y[rows], vmax, km, gamma)
            results = _fit_results(
                [candidates[j] for _, j in at], km, vmax, cov[rows], se[rows], gamma, criteria,
                solvers, conf.alpha, z,
            )
            for (i, j), result in zip(at, results):
                out[i][j] = (result, None)
    for i, j in refit:
        try:
            out[i][j] = (fit_single(datasets[i], candidates[j], conf), None)
        except NonconvergedFit as err:
            out[i][j] = (err.result, str(err))
        except MMHetError as err:
            out[i][j] = (None, str(err))
    return out


def _rank(
    candidates: Sequence[VarianceSpec], outcomes: list[tuple[FitResult | None, str | None]]
) -> list[ScreenEntry]:
    """Screening entries from each candidate's (result, error): fits ranked
    by AIC (ties: BIC, then order), then failures.  Raises
    AllCandidatesFailed when nothing fits."""
    fitted = [
        (i, spec, res)
        for i, (spec, (res, msg)) in enumerate(zip(candidates, outcomes))
        if msg is None
    ]
    failed = [
        (spec, res, msg) for spec, (res, msg) in zip(candidates, outcomes) if msg is not None
    ]
    if not fitted:
        raise AllCandidatesFailed(
            "; ".join(f"{spec.label()}: {msg}" for spec, _, msg in failed)
        )
    fitted.sort(key=lambda item: (item[2].aic, item[2].bic, item[0]))
    entries = [
        ScreenEntry(spec=spec, result=res, error=None, rank=rank)
        for rank, (_, spec, res) in enumerate(fitted, start=1)
    ]
    entries.extend(
        ScreenEntry(spec=spec, result=res, error=msg, rank=None) for spec, res, msg in failed
    )
    return entries


def screen_models(
    data: Dataset,
    candidates: Sequence[VarianceSpec] = DEFAULT_CANDIDATES,
    conf: FitConfig | None = None,
) -> list[ScreenEntry]:
    """Fit every candidate shape and rank by AIC (ties: BIC, then order).

    Failed candidates are reported with their error at the end of the list
    rather than dropped.  Raises AllCandidatesFailed when nothing fits.
    The fits are group_fit's batched stage on a panel of one.  Raises
    ValueError when candidates is empty or two of its labels coincide.
    """
    check_candidates(candidates)
    conf = conf if conf is not None else FitConfig()
    return _rank(candidates, _screen_fits([data], candidates, conf)[0])


@dataclass(frozen=True, eq=False)
class PanelSpecSummary:
    """Cross-label aggregate for one candidate shape."""

    spec: VarianceSpec
    mean_aic: float
    mean_bic: float
    mean_vmax: float
    mean_km: float
    labels_used: int
    wins: int


@dataclass(frozen=True, eq=False)
class GroupFitResult:
    per_label: dict[str, list[ScreenEntry]]
    label_errors: dict[str, str]
    best_by_label: dict[str, str]
    summary: tuple[PanelSpecSummary, ...]


def group_fit(
    panel: Mapping[str, Dataset],
    candidates: Sequence[VarianceSpec] = DEFAULT_CANDIDATES,
    conf: FitConfig | None = None,
) -> GroupFitResult:
    """Screen every labeled curve independently and aggregate across labels.

    Every (label, candidate) fit runs in one batched pass (see
    _screen_fits), and each label's outcome is screen_models' on that label
    alone.  A label whose screening fails entirely is isolated into
    label_errors; the others are unaffected.  The summary averages AIC/BIC and point
    estimates per candidate over the labels where that candidate fit.
    Candidates are checked as in screen_models.
    """
    if not panel:
        raise ValueError("panel must contain at least one labeled dataset")
    check_candidates(candidates)
    conf = conf if conf is not None else FitConfig()
    per_label: dict[str, list[ScreenEntry]] = {}
    label_errors: dict[str, str] = {}
    fits = _screen_fits(list(panel.values()), candidates, conf)
    for label, outcomes in zip(panel, fits):
        try:
            per_label[label] = _rank(candidates, outcomes)
        except AllCandidatesFailed as err:
            label_errors[label] = str(err)
            per_label[label] = []
    best_by_label = {
        label: entries[0].spec.label()
        for label, entries in per_label.items()
        if entries and entries[0].rank == 1
    }
    fitted = [
        (e.spec.label(), e)
        for entries in per_label.values()
        for e in entries
        if e.error is None and e.result is not None
    ]
    summary: list[PanelSpecSummary] = []
    for spec in candidates:
        key = spec.label()
        rows = [e for label, e in fitted if label == key]
        if not rows:
            continue
        summary.append(
            PanelSpecSummary(
                spec=spec,
                mean_aic=float(np.mean([e.result.aic for e in rows])),
                mean_bic=float(np.mean([e.result.bic for e in rows])),
                mean_vmax=float(np.mean([e.result.params.vmax for e in rows])),
                mean_km=float(np.mean([e.result.params.km for e in rows])),
                labels_used=len(rows),
                wins=sum(1 for e in rows if e.rank == 1),
            )
        )
    summary.sort(key=lambda row: (row.mean_aic, row.mean_bic))
    return GroupFitResult(
        per_label=per_label,
        label_errors=label_errors,
        best_by_label=best_by_label,
        summary=tuple(summary),
    )
