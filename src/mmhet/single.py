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
evaluation for all of them, a lockstep root refinement, and closed-form
plug-ins per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_CANDIDATES,
    Dataset,
    MMParams,
    VarianceSpec,
    eval_h,
    mm_mean,
    wald_z,
)
from .exceptions import (
    AllCandidatesFailed,
    DegenerateDesign,
    MMHetError,
    NonconvergedFit,
    SingularInformation,
)
from .rootfind import SolverDiagnostics, k_bracket, log_grid, solve_rows, solve_scalar

# Condition-number cutoff above which the information matrix is treated
# as singular.
COND_LIMIT = 1e12

# Parameter count charged by the information criteria: vmax, km, gamma.
N_PARAMS = 3

# Rows fit_rows evaluates together: enough to amortize numpy's per-call
# cost, few enough that the (rows, GRID_POINTS) grid arrays do not raise
# peak memory.
BLOCK_ROWS = 128


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


def _profile_terms(ks, s, y, h):
    """Evaluate the two product terms of F_h on an array of k values.

    Returns (F, scale) where scale is the larger product-term magnitude,
    the natural yardstick for a relative |F| tolerance.
    """
    kk = np.atleast_1d(np.asarray(ks, dtype=np.float64))[:, None]
    d = kk + s
    w = s / (d * h)
    wd = w / d
    s1 = (w * y).sum(axis=1)
    s4 = (w * s / d).sum(axis=1)
    s2 = (wd * y).sum(axis=1)
    s3 = (wd * s / d).sum(axis=1)
    t1 = s1 * s3
    t2 = s2 * s4
    return t1 - t2, np.maximum(np.abs(t1), np.abs(t2))


def profile_F(k: float, data: Dataset, spec: VarianceSpec) -> float:
    """The scalar profile equation at k (root = half-saturation estimate)."""
    if not (np.isfinite(k) and k > 0):
        raise ValueError("k must be positive and finite")
    h = eval_h(spec, data.s)
    value, _ = _profile_terms(k, data.s, data.y, h)
    return float(value[0])


def _vmax_rows(km: np.ndarray, s, y: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in vmax for row-wise km (rows,) and y (rows, n), with the
    denominators; a denominator that is not finite and positive cannot
    identify vmax."""
    d = km[:, None] + s
    w = s / (d * h)
    num = (w * y).sum(axis=1)
    den = (w * s / d).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, den


def _vmax_plugin_arrays(km: float, s, y, h) -> float:
    vmax, den = _vmax_rows(np.array([km]), s, y[None, :], h)
    if not np.isfinite(den[0]) or den[0] <= 0:
        raise DegenerateDesign(
            f"vmax plug-in denominator is {float(den[0])!r}; design cannot identify vmax"
        )
    return float(vmax[0])


def vmax_plugin(km: float, data: Dataset, spec: VarianceSpec) -> float:
    """Closed-form maximal velocity given the half-saturation constant."""
    if not (np.isfinite(km) and km > 0):
        raise ValueError("km must be positive and finite")
    h = eval_h(spec, data.s)
    return _vmax_plugin_arrays(km, data.s, data.y, h)


def _require_identifiable(s: np.ndarray) -> None:
    if s.size < 3 or np.unique(s).size < 3:
        raise DegenerateDesign(
            "need at least 3 observations over 3 distinct substrate levels"
        )


def solve_km(data: Dataset, spec: VarianceSpec) -> tuple[float, SolverDiagnostics]:
    """Root of the profile equation, with bracket/fallback diagnostics."""
    _require_identifiable(data.s)
    h = eval_h(spec, data.s)
    s, y = data.s, data.y
    return solve_scalar(lambda ks: _profile_terms(ks, s, y, h), *k_bracket(s))


def gamma_hat(data: Dataset, params: MMParams, spec: VarianceSpec) -> float:
    """Dispersion estimate: mean of squared residuals over h."""
    h = eval_h(spec, data.s)
    r = data.y - mm_mean(data.s, params)
    return float(np.mean(r * r / h))


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


def _plugin_cov_rows(s, h, vmax: np.ndarray, km: np.ndarray, gamma: np.ndarray):
    """Entries (c11, c12, c22) of (gamma / n) * Minv for row-wise (vmax, km,
    gamma), and the ok mask of sym2_inverse."""
    d = km[:, None] + s
    g1 = s / d
    g2 = -vmax[:, None] * s / (d * d)
    m11 = (g1 * g1 / h).mean(axis=1)
    m12 = (g1 * g2 / h).mean(axis=1)
    m22 = (g2 * g2 / h).mean(axis=1)
    i11, i12, i22, ok = sym2_inverse(m11, m12, m22)
    scale = gamma / s.size
    return scale * i11, scale * i12, scale * i22, ok


def plugin_covariance(
    data: Dataset, params: MMParams, gamma: float, spec: VarianceSpec
) -> np.ndarray:
    """(gamma / n) * Minv with M = mean of g g^T / h over observations."""
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be finite and nonnegative")
    h = eval_h(spec, data.s)
    c11, c12, c22, ok = _plugin_cov_rows(
        data.s, h, np.array([params.vmax]), np.array([params.km]), gamma
    )
    if not ok[0]:
        raise SingularInformation(
            f"information matrix condition exceeds {COND_LIMIT:g}"
        )
    return np.array([[c11[0], c12[0]], [c12[0], c22[0]]])


def information_criteria(
    data: Dataset, params: MMParams, gamma: float, spec: VarianceSpec
) -> tuple[float, float, float]:
    """Gaussian log-likelihood with variance gamma*h, and AIC/BIC at p = 3."""
    h = eval_h(spec, data.s)
    r = data.y - mm_mean(data.s, params)
    n = data.n
    if gamma == 0.0:
        if np.any(r != 0.0):
            # Impossible by construction: gamma is the mean of r^2/h.
            raise MMHetError("internal: zero dispersion with nonzero residuals")
        loglik = np.inf
    else:
        loglik = -0.5 * float(
            np.sum(np.log(2.0 * np.pi * gamma * h) + r * r / (gamma * h))
        )
    aic = -2.0 * loglik + 2.0 * N_PARAMS
    bic = -2.0 * loglik + N_PARAMS * np.log(n)
    return float(loglik), float(aic), float(bic)


def fit_single(
    data: Dataset, spec: VarianceSpec, conf: FitConfig | None = None
) -> FitResult:
    """Full single-curve fit under one working variance shape.

    Raises NonconvergedFit (carrying the partial result and diagnostics)
    when the scalar solve had to fall back without reaching a root.
    """
    conf = conf if conf is not None else FitConfig()
    km, diag = solve_km(data, spec)
    h = eval_h(spec, data.s)
    vmax = _vmax_plugin_arrays(km, data.s, data.y, h)
    if not np.isfinite(vmax) or vmax <= 0:
        raise DegenerateDesign(
            f"plug-in vmax = {vmax!r}; data are not consistent with a "
            "saturating curve"
        )
    params = MMParams(vmax, km)
    gamma = gamma_hat(data, params, spec)
    cov = plugin_covariance(data, params, gamma, spec)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    z = wald_z(conf.alpha)
    ci_vmax = (vmax - z * se[0], vmax + z * se[0])
    ci_km = (km - z * se[1], km + z * se[1])
    loglik, aic, bic = information_criteria(data, params, gamma, spec)
    result = FitResult(
        params=params,
        gamma=gamma,
        cov=cov,
        se=se,
        ci_vmax=ci_vmax,
        ci_km=ci_km,
        loglik=loglik,
        aic=aic,
        bic=bic,
        variance_spec=spec,
        solver=diag,
        alpha=conf.alpha,
    )
    if not diag.converged:
        raise NonconvergedFit(
            "profile equation has no root in the bracket and the fallback "
            f"minimum leaves |F| = {abs(diag.f_at_solution):.3e}",
            result=result,
            diagnostics=diag,
        )
    return result


@dataclass(frozen=True, eq=False)
class RowFits:
    """Outcome of fit_rows, one entry per response row."""

    theta: np.ndarray  # (rows, 2): vmax, km; NaN where the row did not fit
    se: np.ndarray  # (rows, 2) plug-in standard errors
    gamma: np.ndarray  # (rows,) dispersion estimates
    solved: np.ndarray  # False where the row is left to fit_single
    failure: np.ndarray  # exception-class name fit_single raises, else None


def fit_rows(s: np.ndarray, y: np.ndarray, spec: VarianceSpec) -> RowFits:
    """fit_single's estimates and standard errors for every row of y, all
    observed on the design s under one variance shape.

    Rows are fit BLOCK_ROWS at a time.  A row's failure is named where
    fit_single would raise for it.  Rows the batched root stage cannot
    bracket (see solve_rows) and rows with a non-finite dispersion come back
    unsolved, for fit_single to decide.
    """
    rows = y.shape[0]
    theta = np.full((rows, 2), np.nan)
    se = np.full((rows, 2), np.nan)
    gamma = np.full(rows, np.nan)
    solved = np.ones(rows, dtype=bool)
    failure = np.full(rows, None, dtype=object)
    try:
        _require_identifiable(s)
    except DegenerateDesign as err:
        failure[:] = type(err).__name__
        return RowFits(theta, se, gamma, solved, failure)
    h = eval_h(spec, s)
    ks = log_grid(*k_bracket(s))
    d = ks[:, None] + s
    w = s / (d * h)
    wd = w / d
    s3 = (wd * s / d).sum(axis=1)
    s4 = (w * s / d).sum(axis=1)
    for first in range(0, rows, BLOCK_ROWS):
        part = slice(first, first + BLOCK_ROWS)
        yb = y[part]
        # The profile equation's two y-dependent sums on the grid.  einsum,
        # unlike a BLAS matmul, gives each row the same sums whatever rows
        # share its block.
        values = np.einsum("rn,kn->rk", yb, w) * s3 - np.einsum("rn,kn->rk", yb, wd) * s4
        km = solve_rows(values, ks, lambda x, idx: _profile_terms(x, s, yb[idx], h)[0])
        fits = _plugin_rows(s, h, yb, km)
        theta[part], se[part], gamma[part], solved[part], failure[part] = fits
    return RowFits(theta, se, gamma, solved, failure)


def _plugin_rows(s, h, y, km):
    """fit_single's steps after the root for row-wise km (NaN: unsolved)."""
    theta = np.full((km.size, 2), np.nan)
    se = np.full((km.size, 2), np.nan)
    gamma_out = np.full(km.size, np.nan)
    failure = np.full(km.size, None, dtype=object)
    solved = np.isfinite(km)
    idx = np.flatnonzero(solved)
    km = km[idx]
    vmax, den = _vmax_rows(km, s, y[idx], h)
    r = y[idx] - vmax[:, None] * (s / (km[:, None] + s))
    gamma = np.mean(r * r / h, axis=1)
    c11, _, c22, ok = _plugin_cov_rows(s, h, vmax, km, gamma)

    degenerate = ~(np.isfinite(den) & (den > 0) & np.isfinite(vmax) & (vmax > 0))
    finite = np.isfinite(gamma)
    solved[idx] = degenerate | finite
    singular = ~degenerate & finite & ~ok
    good = ~degenerate & finite & ok
    failure[idx[degenerate]] = DegenerateDesign.__name__
    failure[idx[singular]] = SingularInformation.__name__
    theta[idx[good]] = np.column_stack([vmax, km])[good]
    se[idx[good]] = np.sqrt(np.maximum(np.column_stack([c11, c22]), 0.0))[good]
    gamma_out[idx[good]] = gamma[good]
    return theta, se, gamma_out, solved, failure


@dataclass(frozen=True, eq=False)
class ScreenEntry:
    """One candidate's outcome within a screening run."""

    spec: VarianceSpec
    result: FitResult | None
    error: str | None
    rank: int | None


def screen_models(
    data: Dataset,
    candidates: Sequence[VarianceSpec] = DEFAULT_CANDIDATES,
    conf: FitConfig | None = None,
) -> list[ScreenEntry]:
    """Fit every candidate shape and rank by AIC (ties: BIC, then order).

    Failed candidates are reported with their error at the end of the list
    rather than dropped.  Raises AllCandidatesFailed when nothing fits.
    """
    if not candidates:
        raise ValueError("need at least one candidate variance spec")
    fitted: list[tuple[int, VarianceSpec, FitResult]] = []
    failed: list[tuple[int, VarianceSpec, FitResult | None, str]] = []
    for i, spec in enumerate(candidates):
        try:
            fitted.append((i, spec, fit_single(data, spec, conf)))
        except NonconvergedFit as err:
            failed.append((i, spec, err.result, str(err)))
        except MMHetError as err:
            failed.append((i, spec, None, str(err)))
    if not fitted:
        raise AllCandidatesFailed(
            "; ".join(f"{spec.label()}: {msg}" for _, spec, _, msg in failed)
        )
    fitted.sort(key=lambda item: (item[2].aic, item[2].bic, item[0]))
    entries = [
        ScreenEntry(spec=spec, result=res, error=None, rank=rank)
        for rank, (_, spec, res) in enumerate(fitted, start=1)
    ]
    entries.extend(
        ScreenEntry(spec=spec, result=res, error=msg, rank=None)
        for _, spec, res, msg in failed
    )
    return entries


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

    A label whose screening fails entirely is isolated into label_errors;
    the others are unaffected.  The summary averages AIC/BIC and point
    estimates per candidate over the labels where that candidate fit.
    """
    if not panel:
        raise ValueError("panel must contain at least one labeled dataset")
    per_label: dict[str, list[ScreenEntry]] = {}
    label_errors: dict[str, str] = {}
    for label, dataset in panel.items():
        try:
            per_label[label] = screen_models(dataset, candidates, conf)
        except MMHetError as err:
            label_errors[label] = str(err)
            per_label[label] = []
    best_by_label = {
        label: entries[0].spec.label()
        for label, entries in per_label.items()
        if entries and entries[0].rank == 1
    }
    summary: list[PanelSpecSummary] = []
    for spec in candidates:
        key = spec.label()
        rows = [
            e
            for entries in per_label.values()
            for e in entries
            if e.spec.label() == key and e.error is None and e.result is not None
        ]
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
