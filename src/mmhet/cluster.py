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

``fit_clustered_rows`` runs the same alternation for many panels that share
one stacked design and cluster layout (the clustered Monte Carlo suite's
replicates): from the caller's pooled fits, a per-cluster grid scan of the
score for all rows, the lockstep root stage, and row-wise moments, damping
and covariance.  Rows it cannot carry to convergence go back to
``fit_clustered`` one by one, so it returns every row's final outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    eval_h,
    mm_gradient,
    mm_mean,
    wald_z,
)
from . import single
from .exceptions import (
    DegenerateDesign,
    InsufficientReplication,
    MMHetError,
    NonconvergedFit,
    NonPositiveGamma,
    SingularInformation,
)
from .rootfind import SolverDiagnostics, k_bracket, log_grid, solve_rows, solve_scalar
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


@dataclass(frozen=True, eq=False)
class ClusterFitResult:
    params: MMParams
    tau2: float
    gamma: float
    cov: np.ndarray
    se: np.ndarray
    ci_vmax: tuple[float, float]
    ci_km: tuple[float, float]
    iterations: int
    converged: bool
    boundary_tau2: bool
    variance_spec: VarianceSpec
    alpha: float


def solve_working_cov(z, h, tau2: float, gamma: float, rhs):
    """Solve V x = rhs with V = tau2 z z^T + gamma diag(h).

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.  Cost
    is linear in the cluster size via the rank-one downdate.
    """
    z = np.asarray(z, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma!r}")
    if not np.isfinite(tau2) or tau2 < 0.0:
        raise ValueError(f"tau2 must be finite and nonnegative, got {tau2!r}")
    ginv = 1.0 / (gamma * h)
    w = z * ginv
    a2 = float(z @ w)
    c = tau2 / (1.0 + tau2 * a2)
    if rhs.ndim == 1:
        return rhs * ginv - c * w * float(w @ rhs)
    return rhs * ginv[:, None] - c * np.outer(w, w @ rhs)


def _stack(data: ClusteredDataset, spec: VarianceSpec):
    s = np.concatenate([c.s for c in data.clusters])
    y = np.concatenate([c.y for c in data.clusters])
    h = eval_h(spec, s)
    sizes = np.array([c.n for c in data.clusters])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    return s, y, h, starts


def _cluster_score_terms(ks, s, y, h, starts, tau2, gamma):
    """Stacked-score km component over an array of trial k values.

    For each k the loading z(k) = s/(k+s) doubles as the vmax regressor, the
    GLS plug-in vmax(k) is the ratio of weighted projections, and the score
    is assembled from per-cluster rank-one pieces.  Returns (score, scale,
    vhat) with scale the sum of absolute score contributions, used for the
    relative tolerance.
    """
    kk = np.atleast_1d(np.asarray(ks, dtype=np.float64))[:, None]
    d = kk + s
    z = s / d
    ginv = 1.0 / (gamma * h)
    uz = z * ginv
    a1 = np.add.reduceat(uz * y, starts, axis=1)
    a2 = np.add.reduceat(uz * z, starts, axis=1)
    c = tau2 / (1.0 + tau2 * a2)
    t = 1.0 - c * a2  # equals 1 / (1 + tau2 * z'Ginv z)
    den = (a2 * t).sum(axis=1)
    num = (a1 * t).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        vhat = num / den
    e = z / d  # s / (k+s)^2, the km sensitivity direction divided by -vhat
    q1 = np.add.reduceat(e * ginv * y, starts, axis=1)
    q2 = np.add.reduceat(e * ginv * z, starts, axis=1)
    vh = vhat[:, None]
    inner = (q1 - vh * q2) - c * q2 * (a1 - vh * a2)
    score = -vhat * inner.sum(axis=1)
    scale = np.abs(vhat) * (
        np.abs(q1) + np.abs(vh) * q2 + c * q2 * (np.abs(a1) + np.abs(vh) * a2)
    ).sum(axis=1)
    return score, scale, vhat


def gls_km_profile(
    data: ClusteredDataset, spec: VarianceSpec, tau2: float, gamma: float
) -> tuple[float, float, SolverDiagnostics]:
    """Solve the km component of the stacked GLS score at fixed (tau2, gamma).

    Uses the same log-grid bracket plus Brent/golden machinery as the
    single-curve solve.  Returns (km, vmax, diagnostics).
    """
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveGamma(f"gamma must be positive, got {gamma!r}")
    s, y, h, starts = _stack(data, spec)
    if distinct_levels(s) < 3:
        raise DegenerateDesign(
            "need at least 3 distinct substrate levels across clusters"
        )
    km, diag = solve_scalar(
        lambda ks: _cluster_score_terms(ks, s, y, h, starts, tau2, gamma)[:2],
        *k_bracket(s),
    )
    _, _, vhat = _cluster_score_terms(km, s, y, h, starts, tau2, gamma)
    return km, float(vhat[0]), diag


def _moment_update(
    data: ClusteredDataset,
    params: MMParams,
    spec: VarianceSpec,
    gamma_floor: float,
) -> tuple[float, float, bool]:
    """Moment-matched (tau2, gamma) at the current mean parameters.

    tau2 solves the off-diagonal residual-product moments; gamma then
    matches the diagonal.  Returns (tau2, gamma, truncated) with truncated
    marking a negative raw tau2 clipped to zero.
    """
    if not any(c.n >= 2 for c in data.clusters):
        raise InsufficientReplication(
            "no cluster has two or more observations; tau2 is not estimable"
        )
    num = 0.0
    den = 0.0
    diag_sum = 0.0
    n_total = 0
    pieces = []
    for cluster in data.clusters:
        r = cluster.y - mm_mean(cluster.s, params)
        z = cluster.s / (params.km + cluster.s)
        h = eval_h(spec, cluster.s)
        rz = r * z
        zz = z * z
        num += (float(rz.sum()) ** 2 - float((rz * rz).sum())) / 2.0
        den += (float(zz.sum()) ** 2 - float((zz * zz).sum())) / 2.0
        pieces.append((r, zz, h))
        n_total += cluster.n
    if den <= 0.0:
        raise InsufficientReplication(
            "off-diagonal moment denominator vanished (no usable pairs)"
        )
    raw = num / den
    truncated = raw < 0.0
    tau2 = max(0.0, raw)
    for r, zz, h in pieces:
        diag_sum += float(((r * r - tau2 * zz) / h).sum())
    gamma = max(gamma_floor, diag_sum / n_total)
    return tau2, gamma, truncated


def cluster_covariance(
    data: ClusteredDataset,
    params: MMParams,
    tau2: float,
    gamma: float,
    spec: VarianceSpec,
) -> np.ndarray:
    """Plug-in covariance: inverse of sum_i D_i' Vinv_i D_i."""
    info = np.zeros((2, 2))
    for cluster in data.clusters:
        z = cluster.s / (params.km + cluster.s)
        d = mm_gradient(cluster.s, params)
        h = eval_h(spec, cluster.s)
        info += d.T @ solve_working_cov(z, h, tau2, gamma, d)
    i11, i12, i22, ok = sym2_inverse(
        info[0, 0], 0.5 * (info[0, 1] + info[1, 0]), info[1, 1]
    )
    if not (np.all(np.isfinite(info)) and ok):
        raise SingularInformation(
            f"clustered information condition exceeds {COND_LIMIT:g}"
        )
    return np.array([[i11, i12], [i12, i22]])


def _neg2_working_loglik(
    data: ClusteredDataset,
    params: MMParams,
    tau2: float,
    gamma: float,
    spec: VarianceSpec,
) -> float:
    """Gaussian working -2 log-likelihood up to an additive constant."""
    total = 0.0
    for cluster in data.clusters:
        r = cluster.y - mm_mean(cluster.s, params)
        z = cluster.s / (params.km + cluster.s)
        h = eval_h(spec, cluster.s)
        quad = float(r @ solve_working_cov(z, h, tau2, gamma, r))
        logdet = (
            cluster.n * np.log(gamma)
            + float(np.log(h).sum())
            + np.log1p(tau2 * float((z * z / (gamma * h)).sum()))
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
    iterate flagged converged=False rather than raising.
    """
    conf = conf if conf is not None else FitConfig()
    pooled = data.pooled()
    try:
        init = fit_single(pooled, spec, conf)
        params = init.params
    except NonconvergedFit as err:
        if err.result is None:
            raise
        params = err.result.params
    gamma_floor = GAMMA_FLOOR_REL * float(np.var(pooled.y))
    tau2, gamma, truncated = _moment_update(data, params, spec, gamma_floor)

    converged = False
    iterations = 0
    diag: SolverDiagnostics | None = None
    for iterations in range(1, MAX_ITER + 1):
        km, vmax, diag = gls_km_profile(data, spec, tau2, gamma)
        if not np.isfinite(vmax) or vmax <= 0:
            raise DegenerateDesign(
                f"GLS plug-in vmax = {vmax!r}; data are not consistent with "
                "a saturating curve"
            )
        new_params = MMParams(vmax, km)
        new_tau2, new_gamma, truncated = _moment_update(
            data, new_params, spec, gamma_floor
        )
        if _neg2_working_loglik(
            data, new_params, new_tau2, new_gamma, spec
        ) > _neg2_working_loglik(data, new_params, tau2, gamma, spec):
            new_tau2 = tau2 + DAMPING * (new_tau2 - tau2)
            new_gamma = gamma + DAMPING * (new_gamma - gamma)
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

    cov = cluster_covariance(data, params, tau2, gamma, spec)
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


def _rel_change_rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """_rel_change over rows."""
    scale = np.maximum(np.abs(old), np.abs(new))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale == 0.0, 0.0, np.abs(new - old) / scale)


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


def _neg2_loglik_rows(s, h, starts, y, vmax, km, tau2, gamma):
    """_neg2_working_loglik for row-wise parameters and y (rows, N)."""
    z = s / (km[:, None] + s)
    r = y - vmax[:, None] * z
    ginv = 1.0 / (gamma[:, None] * h)
    w = z * ginv
    a2 = np.add.reduceat(w * z, starts, axis=1)
    t2 = tau2[:, None]
    quad = np.add.reduceat(r * r * ginv, starts, axis=1) - t2 / (1.0 + t2 * a2) * (
        np.add.reduceat(w * r, starts, axis=1) ** 2
    )
    sizes = np.diff(np.append(starts, s.size))
    logdet = (
        sizes * np.log(gamma)[:, None]
        + np.add.reduceat(np.log(h), starts)
        + np.log1p(t2 * a2)
    )
    return (quad + logdet).sum(axis=1)


def _score_grid(ks, s, h, starts, y, tau2, gamma):
    """_cluster_score_terms' score on the grid ks for every row of y (rows, N)
    at row-wise tau2 and gamma, as (rows, ks.size).

    Written in lam = tau2 / gamma, a cluster enters through its sums of y
    and z against z/h and z/(h (k + s)); the y sums come from two einsums
    over that cluster's observations.  Once the plug-in vmax is known the
    score is linear in these sums, so five (rows, ks.size) accumulators
    suffice and no array spans rows, grid points and observations at once.
    """
    lam = (tau2 / gamma)[:, None]
    num, den, p1, p3, p4 = np.zeros((5, y.shape[0], ks.size))
    q2 = 0.0
    bounds = np.append(starts, s.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sj = s[lo:hi]
        d = ks[:, None] + sj
        z = sj / d
        zh = z / h[lo:hi]
        eh = zh / d
        a2 = (zh * z).sum(axis=1)
        q2j = (eh * z).sum(axis=1)
        a1 = np.einsum("rn,kn->rk", y[:, lo:hi], zh)
        cl = lam / (1.0 + lam * a2)
        t = 1.0 - cl * a2
        num += a1 * t
        den += a2 * t
        p1 += np.einsum("rn,kn->rk", y[:, lo:hi], eh)
        cl *= q2j
        p3 += cl * a1
        p4 += cl * a2
        q2 = q2 + q2j
    # -vhat * ((p1 - p3) - vhat * (q2 - p4)) / gamma, in place
    vhat = np.divide(num, den, out=num)
    p1 -= p3
    p4 -= q2
    p4 *= vhat
    p1 += p4
    p1 *= vhat
    p1 /= gamma[:, None]
    return np.negative(p1, out=p1)


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


def _panel(s, starts, y) -> ClusteredDataset:
    bounds = np.append(starts, s.size)
    return ClusteredDataset(
        tuple(Dataset(s[a:b], y[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
    )


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
    fit_clustered starts from the same fit.  Rows then alternate in
    lockstep, BLOCK_ROWS at a time: a grid scan and solve_rows for the km
    roots, the moment update, the damping rule and the change test, with
    converged rows dropping out.  Rows without a pooled start, a bracket, a
    positive vmax or finite moments, and rows still open at MAX_ITER, are
    fit one by one through fit_clustered.
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

    start = np.asarray(pooled, dtype=np.float64)
    started = np.isfinite(start).all(axis=1)
    fallback = list(np.flatnonzero(~started))
    h = eval_h(spec, s)
    ks = log_grid(*k_bracket(s)) if started.any() else None
    block = single.BLOCK_ROWS
    for first in range(0, rows, block):
        live = first + np.flatnonzero(started[first:first + block])
        floor = GAMMA_FLOOR_REL * y[live].var(axis=1)
        vmax, km = start[live, 0], start[live, 1]
        t2, g, valid = _moment_rows(s, h, starts, y[live], vmax, km, floor)
        fallback.extend(live[~valid])
        live, floor = live[valid], floor[valid]
        vmax, km, t2, g = vmax[valid], km[valid], t2[valid], g[valid]
        for _ in range(MAX_ITER):
            if live.size == 0:
                break
            yl = y[live]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                values = _score_grid(ks, s, h, starts, yl, t2, g)
            new_km = solve_rows(
                values,
                ks,
                lambda x, i: _cluster_score_terms(
                    x, s, yl[i], h, starts, t2[i, None], g[i, None]
                )[0],
            ).root
            new_vmax = np.full(live.size, np.nan)  # NaN: no bracket
            rooted = np.isfinite(new_km)
            new_vmax[rooted] = _cluster_score_terms(
                new_km[rooted], s, yl[rooted], h, starts, t2[rooted, None], g[rooted, None]
            )[2]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                new_t2, new_g, valid = _moment_rows(s, h, starts, yl, new_vmax, new_km, floor)
                valid &= np.isfinite(new_vmax) & (new_vmax > 0)
                worse = _neg2_loglik_rows(
                    s, h, starts, yl, new_vmax, new_km, new_t2, new_g
                ) > _neg2_loglik_rows(s, h, starts, yl, new_vmax, new_km, t2, g)
            new_t2 = np.where(worse, t2 + DAMPING * (new_t2 - t2), new_t2)
            new_g = np.where(worse, g + DAMPING * (new_g - g), new_g)
            change = np.maximum.reduce([
                _rel_change_rows(vmax, new_vmax),
                _rel_change_rows(km, new_km),
                _rel_change_rows(t2, new_t2),
                _rel_change_rows(g, new_g),
            ])
            done = valid & (change < REL_TOL)
            at = live[done]
            theta[at] = np.column_stack([new_vmax[done], new_km[done]])
            tau2[at], gamma[at] = new_t2[done], new_g[done]
            fallback.extend(live[~valid])
            keep = valid & ~done
            live, floor, vmax, km = live[keep], floor[keep], new_vmax[keep], new_km[keep]
            t2, g = new_t2[keep], new_g[keep]
        fallback.extend(live)  # still open at MAX_ITER

        at = first + np.flatnonzero(np.isfinite(theta[first:first + block]).all(axis=1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cov, ok = _covariance_rows(
                s, h, starts, theta[at, 0], theta[at, 1], tau2[at], gamma[at]
            )
        se[at[ok]] = np.sqrt(np.maximum(np.diagonal(cov[ok], axis1=1, axis2=2), 0.0))
        converged[at[ok]] = True
        theta[at[~ok]] = np.nan
        tau2[at[~ok]] = gamma[at[~ok]] = np.nan
        failure[at[~ok]] = SingularInformation.__name__

    for i in fallback:
        try:
            one = fit_clustered(_panel(s, starts, y[i]), spec)
        except MMHetError as err:
            failure[i] = type(err).__name__
        else:
            theta[i], se[i] = one.params.as_array(), one.se
            gamma[i], tau2[i], converged[i] = one.gamma, one.tau2, one.converged
    return ClusterRowFits(theta, se, gamma, tau2, converged, failure)
