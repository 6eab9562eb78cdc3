"""Independent reference implementations used to cross-check the estimators.

Everything here deliberately avoids the package's own solver paths: dense
linear algebra instead of rank-one updates, scipy's damped least squares
instead of the profile root, and plain grid search instead of bracketing.
Slow and simple on purpose.  The one exception, ``plain_alternation``,
reuses the clustered fit's own steps to check the loop that drives them.
"""

import struct

import numpy as np
from scipy.optimize import least_squares

from mmhet import MMParams, NonconvergedFit, fit_single
from mmhet.cluster import (
    DAMPING,
    GAMMA_FLOOR_REL,
    MAX_ITER,
    REL_TOL,
    ClusterFitResult,
    _moment_update,
    _neg2_working_loglik,
    _prepare,
    _rel_change,
    _stack,
    cluster_covariance,
    gls_km_profile,
)
from mmhet.core import wald_z


def lm_weighted_fit(s, y, h=None, start=None):
    """Damped least-squares fit of vmax*s/(km+s), weights 1/h."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(s) if h is None else 1.0 / np.sqrt(np.asarray(h, dtype=float))
    if start is None:
        start = (max(float(np.max(y)), 1e-3), max(float(np.median(s)), 1e-3))

    def resid(theta):
        vmax, km = theta
        return w * (y - vmax * s / (km + s))

    def jac(theta):
        vmax, km = theta
        frac = s / (km + s)
        return np.column_stack([-w * frac, w * vmax * frac / (km + s)])

    sol = least_squares(resid, start, jac=jac, method="lm", xtol=1e-14, ftol=1e-14)
    return float(sol.x[0]), float(sol.x[1])


def grid_profile_wsse(s, y, h, k_grid):
    """Brute-force minimizer of the weighted SSE over a km grid.

    For each trial k the maximal velocity is profiled out in closed form,
    then the weighted residual sum of squares is scored directly.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    best = (np.inf, None, None)
    for k in k_grid:
        frac = s / (k + s)
        num = float(np.sum(frac * y / h))
        den = float(np.sum(frac * frac / h))
        v = num / den
        wsse = float(np.sum((y - v * frac) ** 2 / h))
        if wsse < best[0]:
            best = (wsse, k, v)
    return best[1], best[2], best[0]


def dense_v(z, h, tau2, gamma):
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    return tau2 * np.outer(z, z) + gamma * np.diag(h)


def dense_solve(z, h, tau2, gamma, rhs):
    return np.linalg.solve(dense_v(z, h, tau2, gamma), np.asarray(rhs, dtype=float))


def gls_quadratic(clusters, km, vmax, tau2, gamma, h_of, km_cov):
    """GLS criterion sum_i r_i' V_i^{-1} r_i with V frozen at km_cov."""
    total = 0.0
    for s, y in clusters:
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        r = y - vmax * s / (km + s)
        z_cov = s / (km_cov + s)
        vinv_r = dense_solve(z_cov, h_of(s), tau2, gamma, r)
        total += float(r @ vinv_r)
    return total


def cov_2x2_inverse(m):
    """Cofactor inverse of a 2x2 matrix."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def _gauss_jordan_inverse(a):
    """Inverse of a square matrix by Gauss-Jordan elimination with partial
    pivoting, in the dtype of ``a`` (numpy's linalg has no long double)."""
    n = a.shape[0]
    m = np.concatenate([a, np.eye(n, dtype=a.dtype)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(m[col:, col])))
        m[[col, pivot]] = m[[pivot, col]]
        m[col] /= m[col, col]
        for row in range(n):
            if row != col:
                m[row] -= m[row, col] * m[col]
    return m[:, n:]


def long_double_cluster_covariance(clusters, vmax, km, tau2, gamma, h_of):
    """Clustered plug-in covariance inv(sum_i D_i' V_i^{-1} D_i) in long
    double, through a dense inverse of every V_i = tau2 z z' + gamma diag(h).

    Inputs are taken exactly as given (h from ``h_of`` in float64), so the
    result isolates the rounding of the estimator's own arithmetic.
    """
    ld = np.longdouble
    vmax, km, tau2, gamma = ld(vmax), ld(km), ld(tau2), ld(gamma)
    info = np.zeros((2, 2), dtype=ld)
    for s in clusters:
        h = np.asarray(h_of(s), dtype=ld)
        s = np.asarray(s, dtype=ld)
        z = s / (km + s)
        d = np.stack([z, -vmax * s / ((km + s) * (km + s))], axis=1)
        v = tau2 * np.outer(z, z) + gamma * np.diag(h)
        info += d.T @ _gauss_jordan_inverse(v) @ d
    det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
    inv = np.array([[info[1, 1], -info[0, 1]], [-info[1, 0], info[0, 0]]]) / det
    return inv.astype(np.float64)


def plain_alternation(data, spec, alpha=0.05):
    """fit_clustered's result, from its own pooled start, km profile, moment
    update and damping rule, each km solve a cold scan of the whole grid.

    It iterates until the change test passes, until an iteration that fails
    it started from the (tau2, gamma) bits an earlier iteration started
    from, or until MAX_ITER iterations have run.
    """
    pooled = data.pooled()
    try:
        params = fit_single(pooled, spec).params
    except NonconvergedFit as err:
        params = err.result.params
    panel = _prepare(*_stack(data), spec)
    floor = GAMMA_FLOOR_REL * float(np.var(pooled.y))
    moments = _moment_update(panel, params, floor)
    tau2, gamma, truncated = moments.tau2, moments.gamma, moments.truncated
    states = []  # iteration k's starting (tau2, gamma) bits at k - 1
    converged = False
    cycle = None
    damped = 0
    for iterations in range(1, MAX_ITER + 1):
        state = struct.pack("<2d", tau2, gamma)
        km, vmax, diag = gls_km_profile(panel, tau2, gamma)
        new_params = MMParams(vmax, km)
        moments = _moment_update(panel, new_params, floor)
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
            converged = diag.converged
            break
        if state in states:
            first = states.index(state) + 1
            cycle = (first, iterations - first)
            break
        states.append(state)
    cov = cluster_covariance(panel, params, tau2, gamma)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    z = wald_z(alpha)
    return ClusterFitResult(
        params=params,
        tau2=tau2,
        gamma=gamma,
        cov=cov,
        se=se,
        ci_vmax=(params.vmax - z * se[0], params.vmax + z * se[0]),
        ci_km=(params.km - z * se[1], params.km + z * se[1]),
        iterations=iterations,
        converged=converged,
        boundary_tau2=truncated,
        variance_spec=spec,
        alpha=alpha,
        damped_steps=damped,
        cycle=cycle,
    )
