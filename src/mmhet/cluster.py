"""Clustered working-covariance estimation.

Each cluster gets a rank-one random shift on the maximal velocity, so its
working covariance is

    V_i = tau2 * z_i z_i^T + gamma * diag(h_i),   z_ij = s_ij / (km + s_ij).

All solves against V_i go through the rank-one downdate

    Vinv = Ginv - (tau2 / (1 + tau2 * z'Ginv z)) (Ginv z)(Ginv z)',

with G = gamma * diag(h), so nothing ever materializes a dense inverse.
Fixed effects solve the stacked GLS score sum_i D_i' Vinv_i (y_i - mu_i),
profiled to one scalar equation in km exactly like the single-curve case;
tau2 and gamma come from moment matching on within-cluster residual
products, and the two blocks are alternated to a fixed point.

A fit builds its panel's stacked arrays, h, the per-cluster log h sums, the
km grid and the loadings on it once (``_PreparedPanel``).  Each iteration
then solves km on that grid, scanning it upward to SCAN_AHEAD points past
the last km first and the rest only when no root lies below, with the
score's value alone at every Brent step and the grid scan's values at the
bracket's ends.  It takes the plug-in vmax and the root's convergence test
from the sums of the Brent step that reached the root, and reuses the
moment update's residuals and loadings in both working likelihoods of the
damping rule.

An iteration is a function of the (tau2, gamma) it starts from alone.  So
when iteration j starts from the exact bits iteration i < j started from and
does not converge, the alternation has entered a cycle of period j - i that
never passes the change test.  The fit stops there and returns iteration j's
own outcome, with ``iterations = j`` and ``cycle = (i, j - i)``.

``fit_clustered_rows`` fits many panels that share one stacked design and
cluster layout (the clustered Monte Carlo suite's replicates).  When every
cluster observes the same levels in the same order, z is the same column of
every cluster's mean Jacobian and Vinv_i z = Ginv z / (1 + tau2 * z'Ginv z)
with one factor for all clusters.  So the GLS plug-in vmax is the pooled
weighted one, the downdate's cross term in the km score sums to zero at it,
and the profiled GLS score is the pooled weighted profile equation over
gamma at every k and every (tau2, gamma): GLS equals the pooled fit (a
Kruskal 1968 "OLS = GLS" identity).  The pooled fit is then the
alternation's fixed point, and a row with one takes it, with the row-wise
moments and covariance there.  Rows without one, and every row of an
unbalanced design, go to ``fit_clustered``, the one alternation, so it
returns every row's final outcome.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    eval_h,
    mm_gradient,
    wald_z,
)
from .exceptions import (
    DegenerateDesign,
    InsufficientReplication,
    MMHetError,
    NonconvergedFit,
    NonPositiveGamma,
    SingularInformation,
)
from .rootfind import SolverDiagnostics, k_bracket, log_grid, solve_scalar
from .single import COND_LIMIT, FitConfig, distinct_levels, fit_single, sym2_inverse

# Relative floor for the moment-matched gamma, scaled by the pooled
# response variance.
GAMMA_FLOOR_REL = 1e-12

# Alternation cap, relative-change stopping rule over (vmax, km, tau2,
# gamma), and the step fraction kept when a moment update raises the
# working -2 log-likelihood.
MAX_ITER = 200
REL_TOL = 1e-8
DAMPING = 0.5

# Grid points past the last km that an iteration's km solve scans before
# the rest of the grid (see solve_scalar's scan_to); the root is the same
# for any value.
SCAN_AHEAD = 8


@dataclass(frozen=True, eq=False)
class ClusterFitResult:
    params: MMParams
    tau2: float
    gamma: float
    cov: np.ndarray
    se: np.ndarray
    ci_vmax: tuple[float, float]
    ci_km: tuple[float, float]
    iterations: int  # alternation iterations computed
    converged: bool
    boundary_tau2: bool
    variance_spec: VarianceSpec
    alpha: float
    damped_steps: int  # computed iterations whose moment step DAMPING halved
    # (i, j - i) when iteration j started from iteration i's (tau2, gamma)
    # and the fit stopped there, else None
    cycle: tuple[int, int] | None


def _check_variance(tau2: float, gamma: float) -> None:
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma!r}")
    if not np.isfinite(tau2) or tau2 < 0.0:
        raise ValueError(f"tau2 must be finite and nonnegative, got {tau2!r}")


def solve_working_cov(z, h, tau2: float, gamma: float, rhs):
    """Solve V x = rhs with V = tau2 z z^T + gamma diag(h).

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.  Cost
    is linear in the cluster size via the rank-one downdate.
    """
    z = np.asarray(z, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    _check_variance(tau2, gamma)
    ginv = 1.0 / (gamma * h)
    w = z * ginv
    a2 = float(z @ w)
    c = tau2 / (1.0 + tau2 * a2)
    if rhs.ndim == 1:
        return rhs * ginv - c * w * float(w @ rhs)
    return rhs * ginv[:, None] - c * np.outer(w, w @ rhs)


def _stack(data: ClusteredDataset):
    """A panel's stacked design and responses, and its cluster start indices:
    (s, starts, y)."""
    s = np.concatenate([c.s for c in data.clusters])
    y = np.concatenate([c.y for c in data.clusters])
    sizes = np.array([c.n for c in data.clusters])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    return s, starts, y


@dataclass(frozen=True, eq=False)
class _PreparedPanel:
    """One panel as every alternation step reads it, built once per fit.

    s, y and h = h(s) are stacked in cluster order, cluster i beginning at
    starts[i]; ``bounds`` holds each cluster's (start, stop), ``log_h`` each
    cluster's sum of log h, ``ks`` the km grid (log_grid of k_bracket) and
    ``loadings`` _loadings(ks, s), both (ks.size, N).
    """

    s: np.ndarray
    y: np.ndarray
    h: np.ndarray
    starts: np.ndarray
    bounds: tuple[tuple[int, int], ...]
    log_h: tuple[float, ...]
    ks: np.ndarray
    loadings: tuple[np.ndarray, np.ndarray]


def _prepare(s, starts, y, spec: VarianceSpec) -> _PreparedPanel:
    """The _PreparedPanel of stacked s, y (N,) with clusters beginning at
    ``starts``.  Raises DegenerateDesign below 3 distinct substrate levels
    and InsufficientReplication when no cluster has two observations."""
    if distinct_levels(s) < 3:
        raise DegenerateDesign(
            "need at least 3 distinct substrate levels across clusters"
        )
    edges = np.append(starts, s.size).tolist()
    bounds = tuple(zip(edges[:-1], edges[1:]))
    if not any(hi - lo >= 2 for lo, hi in bounds):
        raise InsufficientReplication(
            "no cluster has two or more observations; tau2 is not estimable"
        )
    h = eval_h(spec, s)
    log_h = np.log(h)
    ks = log_grid(*k_bracket(s))
    return _PreparedPanel(
        s, y, h, starts, bounds,
        tuple(float(log_h[lo:hi].sum()) for lo, hi in bounds),
        ks, _loadings(ks, s),
    )


def _loadings(k, s):
    """The loading z = s/(k+s) and its km sensitivity over -vmax, z/(k+s) =
    s/(k+s)^2, at one k or at each point of a grid of k values."""
    d = np.asarray(k)[..., None] + s
    z = s / d
    return z, z / d


def _score_sums(z, e, y, ginv, starts, tau2):
    """Per-cluster sums of the stacked score's km component at the loadings
    (z, e) = _loadings(k, s) of one k or of a grid of k values.

    The loading z doubles as the vmax regressor, and the GLS plug-in
    vmax(k) is the ratio of weighted projections.  ginv is 1 / (gamma h).
    Returns (vhat, a1, a2, c, q1, q2), from which _score and _score_terms
    assemble the score out of per-cluster rank-one pieces.
    """
    uz = z * ginv
    a1 = np.add.reduceat(uz * y, starts, axis=-1)
    a2 = np.add.reduceat(uz * z, starts, axis=-1)
    c = tau2 / (1.0 + tau2 * a2)
    t = 1.0 - c * a2  # equals 1 / (1 + tau2 * z'Ginv z)
    vhat = (a1 * t).sum(axis=-1) / (a2 * t).sum(axis=-1)
    eg = e * ginv
    q1 = np.add.reduceat(eg * y, starts, axis=-1)
    q2 = np.add.reduceat(eg * z, starts, axis=-1)
    return vhat, a1, a2, c, q1, q2


def _score(vhat, a1, a2, c, q1, q2):
    """The stacked score's km component from _score_sums."""
    vh = vhat[..., None]
    inner = (q1 - vh * q2) - c * q2 * (a1 - vh * a2)
    return -vhat * inner.sum(axis=-1)


def _score_terms(vhat, a1, a2, c, q1, q2) -> tuple[float, float]:
    """The score at one k and its scale, the sum of absolute score
    contributions, used for the relative tolerance."""
    avh = np.abs(vhat)
    scale = avh * (np.abs(q1) + avh * q2 + c * q2 * (np.abs(a1) + avh * a2)).sum(axis=-1)
    return float(_score(vhat, a1, a2, c, q1, q2)), float(scale)


def gls_km_profile(
    panel: _PreparedPanel, tau2: float, gamma: float, scan_to: int | None = None
) -> tuple[float, float, SolverDiagnostics]:
    """Solve the km component of the stacked GLS score at fixed (tau2, gamma).

    Uses the same log-grid bracket plus Brent/golden machinery as the
    single-curve solve, scanning panel.ks up to ``scan_to`` first (see
    solve_scalar); the grid scan reads the panel's loadings.  Returns (km,
    vmax, diagnostics), bit for bit the same for every ``scan_to`` but for
    the diagnostics' sign_changes.
    """
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma!r}")
    s, y, starts, ks = panel.s, panel.y, panel.starts, panel.ks
    ginv = 1.0 / (gamma * panel.h)
    seen = {}  # the sums at each float k evaluated, for terms and vhat

    def sums(k):
        if isinstance(k, np.ndarray):  # a run of the grid, from solve_scalar's scan
            lo = ks.searchsorted(k[0])
            z, e = (a[lo:lo + k.size] for a in panel.loadings)
            return _score_sums(z, e, y, ginv, starts, tau2)
        if k not in seen:
            seen[k] = _score_sums(*_loadings(k, s), y, ginv, starts, tau2)
        return seen[k]

    with np.errstate(invalid="ignore", divide="ignore"):
        km, diag = solve_scalar(
            lambda k: _score(*sums(k)), lambda k: _score_terms(*sums(k)), ks, scan_to
        )
        vhat = sums(km)[0]
    return km, float(vhat), diag


@dataclass(frozen=True, eq=False)
class _Moments:
    """_moment_update's (tau2, gamma), whether tau2 was truncated at 0, and
    the stacked residuals r, loadings z and z*z at the mean it matched."""

    tau2: float
    gamma: float
    truncated: bool
    r: np.ndarray
    z: np.ndarray
    zz: np.ndarray


def _moment_update(
    panel: _PreparedPanel, params: MMParams, gamma_floor: float
) -> _Moments:
    """Moment-matched (tau2, gamma) at the current mean parameters.

    tau2 solves the off-diagonal residual-product moments; gamma then
    matches the diagonal.  A negative raw tau2 is clipped to zero and
    flagged truncated.
    """
    s = panel.s
    z = s / (params.km + s)
    r = panel.y - params.vmax * z
    # rows rz, (rz)^2, zz, (zz)^2, summed per cluster in one call each
    q = np.empty((4, s.size))
    rz, rz2, zz, zz2 = q
    np.multiply(r, z, out=rz)
    np.multiply(z, z, out=zz)
    np.multiply(rz, rz, out=rz2)
    np.multiply(zz, zz, out=zz2)
    num = 0.0
    den = 0.0
    for lo, hi in panel.bounds:
        a, a2, b, b2 = q[:, lo:hi].sum(axis=1).tolist()
        num += (a ** 2 - a2) / 2.0
        den += (b ** 2 - b2) / 2.0
    if den <= 0.0:
        raise InsufficientReplication(
            "off-diagonal moment denominator vanished (no usable pairs)"
        )
    raw = num / den
    tau2 = max(0.0, raw)
    slack = (r * r - tau2 * zz) / panel.h
    diag_sum = 0.0
    for lo, hi in panel.bounds:
        diag_sum += float(slack[lo:hi].sum())
    gamma = max(gamma_floor, diag_sum / s.size)
    return _Moments(tau2, gamma, raw < 0.0, r, z, zz)


def cluster_covariance(
    panel: _PreparedPanel, params: MMParams, tau2: float, gamma: float
) -> np.ndarray:
    """Plug-in covariance: inverse of sum_i D_i' Vinv_i D_i."""
    info = np.zeros((2, 2))
    for lo, hi in panel.bounds:
        s = panel.s[lo:hi]
        z = s / (params.km + s)
        d = mm_gradient(s, params)
        info += d.T @ solve_working_cov(z, panel.h[lo:hi], tau2, gamma, d)
    i11, i12, i22, ok = sym2_inverse(
        info[0, 0], 0.5 * (info[0, 1] + info[1, 0]), info[1, 1]
    )
    if not (np.all(np.isfinite(info)) and ok):
        raise SingularInformation(
            f"clustered information condition exceeds {COND_LIMIT:g}"
        )
    return np.array([[i11, i12], [i12, i22]])


def _neg2_working_loglik(
    panel: _PreparedPanel, at: _Moments, tau2: float, gamma: float
) -> float:
    """Gaussian working -2 log-likelihood up to an additive constant, at the
    mean whose residuals and loadings ``at`` holds."""
    _check_variance(tau2, gamma)
    r, z = at.r, at.z
    gh = gamma * panel.h
    ginv = 1.0 / gh
    w = z * ginv
    rg = r * ginv
    zzg = at.zz / gh
    log_gamma = np.log(gamma)
    total = 0.0
    for (lo, hi), log_h in zip(panel.bounds, panel.log_h):
        # r' Vinv r through solve_working_cov's rank-one downdate
        wi, ri = w[lo:hi], r[lo:hi]
        a2 = float(z[lo:hi] @ wi)
        c = tau2 / (1.0 + tau2 * a2)
        quad = float(ri @ (rg[lo:hi] - c * wi * float(wi @ ri)))
        logdet = (
            (hi - lo) * log_gamma
            + log_h
            + np.log1p(tau2 * float(zzg[lo:hi].sum()))
        )
        total += quad + logdet
    return total


def _rel_change(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    if scale == 0.0:
        return 0.0
    return abs(new - old) / scale


def fit_clustered(
    data: ClusteredDataset, spec: VarianceSpec, conf: FitConfig | None = None
) -> ClusterFitResult:
    """Alternate the GLS profile and the moment update to a fixed point.

    Initialization pools all clusters through the single-curve fit under the
    same working shape.  Nonconvergence within MAX_ITER returns the last
    iterate flagged converged=False rather than raising; an alternation
    caught in an exact cycle stops at the first iteration that starts from
    an earlier one's (tau2, gamma) and says so in ``cycle`` (see the module
    docstring).  ``iterations`` counts the iterations computed.
    """
    return _fit_stacked(*_stack(data), spec, conf)


def _fit_stacked(
    s: np.ndarray,
    starts: np.ndarray,
    y: np.ndarray,
    spec: VarianceSpec,
    conf: FitConfig | None = None,
) -> ClusterFitResult:
    """fit_clustered on a panel given as its stacked design s and responses
    y (N,), its clusters beginning at the indices ``starts``."""
    conf = conf if conf is not None else FitConfig()
    pooled = Dataset(s, y)
    try:
        init = fit_single(pooled, spec, conf)
        params = init.params
    except NonconvergedFit as err:
        if err.result is None:
            raise
        params = err.result.params
    panel = _prepare(pooled.s, np.asarray(starts, dtype=np.intp), pooled.y, spec)
    gamma_floor = GAMMA_FLOOR_REL * float(np.var(pooled.y))
    moments = _moment_update(panel, params, gamma_floor)
    tau2, gamma, truncated = moments.tau2, moments.gamma, moments.truncated

    converged = False
    iterations = damped = 0
    cycle = None
    diag: SolverDiagnostics | None = None
    started: dict[bytes, int] = {}  # bits of each iteration's (tau2, gamma) -> iteration
    for iterations in range(1, MAX_ITER + 1):
        first = started.setdefault(struct.pack("<2d", tau2, gamma), iterations)
        scan_to = int(panel.ks.searchsorted(params.km)) + SCAN_AHEAD
        km, vmax, diag = gls_km_profile(panel, tau2, gamma, scan_to)
        if not np.isfinite(vmax) or vmax <= 0:
            raise DegenerateDesign(
                f"GLS plug-in vmax = {vmax!r}; data are not consistent with "
                "a saturating curve"
            )
        new_params = MMParams(vmax, km)
        moments = _moment_update(panel, new_params, gamma_floor)
        new_tau2, new_gamma, truncated = moments.tau2, moments.gamma, moments.truncated
        if _neg2_working_loglik(panel, moments, new_tau2, new_gamma) > _neg2_working_loglik(
            panel, moments, tau2, gamma
        ):
            new_tau2 = tau2 + DAMPING * (new_tau2 - tau2)
            new_gamma = gamma + DAMPING * (new_gamma - gamma)
            damped += 1
        change = max(
            _rel_change(params.vmax, new_params.vmax),
            _rel_change(params.km, new_params.km),
            _rel_change(tau2, new_tau2),
            _rel_change(gamma, new_gamma),
        )
        params, tau2, gamma = new_params, new_tau2, new_gamma
        if change < REL_TOL:
            converged = True
            break
        if first < iterations:
            cycle = (first, iterations - first)
            break

    cov = cluster_covariance(panel, params, tau2, gamma)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    z = wald_z(conf.alpha)
    return ClusterFitResult(
        params=params,
        tau2=tau2,
        gamma=gamma,
        cov=cov,
        se=se,
        ci_vmax=(params.vmax - z * se[0], params.vmax + z * se[0]),
        ci_km=(params.km - z * se[1], params.km + z * se[1]),
        iterations=iterations,
        converged=bool(converged and (diag is None or diag.converged)),
        boundary_tau2=truncated,
        variance_spec=spec,
        alpha=conf.alpha,
        damped_steps=damped,
        cycle=cycle,
    )


@dataclass(frozen=True, eq=False)
class ClusterRowFits:
    """fit_clustered's outcome for every response row of fit_clustered_rows."""

    theta: np.ndarray  # (rows, 2): vmax, km; NaN where the fit raised
    se: np.ndarray  # (rows, 2) plug-in standard errors
    gamma: np.ndarray  # (rows,)
    tau2: np.ndarray  # (rows,)
    converged: np.ndarray  # (rows,) bool, False where the fit raised
    failure: np.ndarray  # exception-class name fit_clustered raises, else None
    # (rows,) 1 where the row took the pooled fit as its fixed point, else
    # fit_clustered's; 0 where the fit raised
    iterations: np.ndarray
    fallback: np.ndarray  # (rows,) bool, True where the row went to fit_clustered


def _balanced(s: np.ndarray, starts: np.ndarray) -> bool:
    """Whether every cluster of the stacked design s, clusters beginning at
    ``starts``, observes the same substrate levels in the same order."""
    clusters = np.split(s, starts[1:])
    return all(np.array_equal(c, clusters[0]) for c in clusters)


def _moment_rows(s, h, starts, y, vmax, km, floor):
    """_moment_update for row-wise (vmax, km) and y (rows, N): (tau2, gamma,
    valid), with valid False where fit_clustered's update raises or yields a
    non-finite moment."""
    z = s / (km[:, None] + s)
    r = y - vmax[:, None] * z
    rz = r * z
    zz = z * z
    num = (np.add.reduceat(rz, starts, axis=1) ** 2 - np.add.reduceat(rz * rz, starts, axis=1))
    den = (np.add.reduceat(zz, starts, axis=1) ** 2 - np.add.reduceat(zz * zz, starts, axis=1))
    num, den = num.sum(axis=1) / 2.0, den.sum(axis=1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau2 = np.maximum(0.0, num / den)
        gamma = np.maximum(floor, ((r * r - tau2[:, None] * zz) / h).sum(axis=1) / s.size)
    valid = (den > 0.0) & np.isfinite(tau2) & np.isfinite(gamma)
    return tau2, gamma, valid


def _covariance_rows(s, h, starts, vmax, km, tau2, gamma):
    """cluster_covariance for row-wise parameters: (rows, 2, 2) and the mask
    of rows where it does not raise SingularInformation.

    The gradient's vmax column is the loading z, so the vmax entries of each
    cluster's information reduce to a2 / (1 + tau2 a2) and w2 / (1 + tau2 a2);
    taking them in that form avoids the cancellation of the downdate when
    tau2 a2 is large.
    """
    d = km[:, None] + s
    z = s / d
    g2 = -vmax[:, None] * s / (d * d)
    ginv = 1.0 / (gamma[:, None] * h)
    w = z * ginv
    a2 = np.add.reduceat(w * z, starts, axis=1)
    w2 = np.add.reduceat(w * g2, starts, axis=1)
    t = 1.0 / (1.0 + tau2[:, None] * a2)
    i11 = (a2 * t).sum(axis=1)
    i12 = (w2 * t).sum(axis=1)
    b22 = np.add.reduceat(ginv * g2 * g2, starts, axis=1)
    i22 = (b22 - tau2[:, None] * t * w2 * w2).sum(axis=1)
    c11, c12, c22, ok = sym2_inverse(i11, i12, i22)
    ok &= np.isfinite(i11) & np.isfinite(i12) & np.isfinite(i22)
    return np.array([[c11, c12], [c12, c22]]).transpose(2, 0, 1), ok


def fit_clustered_rows(
    s: np.ndarray,
    starts: np.ndarray,
    y: np.ndarray,
    spec: VarianceSpec,
    pooled: np.ndarray,
) -> ClusterRowFits:
    """fit_clustered's estimates, standard errors, moments and failures for
    every row of y (rows, N), each row one panel on the stacked design s
    whose clusters begin at the indices ``starts``.

    ``pooled`` (rows, 2) holds each row's pooled (vmax, km) fit under spec,
    NaN where it failed, as single.fit_rows(s, y, spec).theta returns them;
    fit_clustered starts from the same fit.  When every cluster observes the
    same levels in the same order, the GLS profile's root at any (tau2,
    gamma) is the pooled root (see the module docstring), so the pooled fit
    is the alternation's fixed point: a row with a pooled start takes it,
    with the moments and the covariance there, all such rows in one pass.
    Rows without a pooled start or with invalid moments, and every row of an
    unbalanced design, are fit one by one through fit_clustered.
    """
    s = np.asarray(s, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    rows = y.shape[0]
    theta = np.full((rows, 2), np.nan)
    se = np.full((rows, 2), np.nan)
    gamma = np.full(rows, np.nan)
    tau2 = np.full(rows, np.nan)
    converged = np.zeros(rows, dtype=bool)
    failure = np.full(rows, None, dtype=object)
    iterations = np.zeros(rows, dtype=np.intp)

    start = np.asarray(pooled, dtype=np.float64)
    started = np.isfinite(start).all(axis=1) & _balanced(s, starts)
    fallback = list(np.flatnonzero(~started))
    h = eval_h(spec, s)
    live = np.flatnonzero(started)
    vmax, km = start[live, 0], start[live, 1]
    floor = GAMMA_FLOOR_REL * y[live].var(axis=1)
    t2, g, valid = _moment_rows(s, h, starts, y[live], vmax, km, floor)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cov, ok = _covariance_rows(s, h, starts, vmax, km, t2, g)
    fallback.extend(live[~valid])
    failure[live[valid & ~ok]] = SingularInformation.__name__
    fit = valid & ok
    at = live[fit]
    theta[at], tau2[at], gamma[at] = start[at], t2[fit], g[fit]
    se[at] = np.sqrt(np.maximum(np.diagonal(cov[fit], axis1=1, axis2=2), 0.0))
    converged[at] = True
    iterations[at] = 1

    for i in fallback:
        try:
            one = _fit_stacked(s, starts, y[i], spec)
        except MMHetError as err:
            failure[i] = type(err).__name__
        else:
            theta[i], se[i] = one.params.as_array(), one.se
            gamma[i], tau2[i], converged[i] = one.gamma, one.tau2, one.converged
            iterations[i] = one.iterations
    is_fallback = np.zeros(rows, dtype=bool)
    is_fallback[fallback] = True
    return ClusterRowFits(
        theta, se, gamma, tau2, converged, failure, iterations, is_fallback
    )
