"""The checks of acceptance criteria 1-4 on the seeded benchmark suites.

tests/test_acceptance.py gates on them and scripts/calibrate_benchmarks.py
sweeps master seeds with them, so both read one definition.  Each check
returns its margin, how far the value sits inside its band (negative
outside), and whether it passes by the gate's own comparison: a margin
of exactly 0 passes a closed band (``err <= tol``, ``lo <= x <= hi``) and
fails a strict one (``x < bound``).  A NaN metric fails every check.
"""

from typing import NamedTuple

from reference_values import (
    REF_BIAS_RMSE,
    REF_COVERAGE,
    SECR_BAND,
    TOL_BIAS,
    TOL_CP,
    TOL_MIL_REL,
    TOL_RMSE,
    TOL_VAR_MSE_REL,
)

# Clustered suite (criterion 4): the pooled fits' vmax coverage stays below
# POOLED_CP_MAX, the clustered fit's lies in CLUSTERED_CP_BAND and above
# both pooled ones by at least CLUSTERED_CP_GAP.
POOLED_CP_MAX = 0.45
CLUSTERED_CP_BAND = (0.70, 0.90)
CLUSTERED_CP_GAP = 0.30


class Check(NamedTuple):
    criterion: int  # the acceptance criterion it belongs to, 1-4
    name: str
    key: tuple  # (scenario, method)
    margin: float
    passed: bool


def _within(err, tol):
    return tol - err, err <= tol


def _inside(x, lo, hi):
    return min(x - lo, hi - x), lo <= x <= hi


def _below(x, bound):
    return bound - x, x < bound


def single_checks(report) -> list[Check]:
    """Criteria 1-3 on a single-curve suite report: bias and rmse (1) and
    coverage, interval widths and variance mse (2) against the reference
    tables, each non-constant shape ahead of the constant one, and the
    se calibration ratios (3)."""
    nls = {r.scenario: r for r in report.rows if r.method == "constant"}
    lo, hi = SECR_BAND
    checks = []
    for row in report.rows:
        key = (row.scenario, row.method)
        _, ref_rv, _, ref_rk = REF_BIAS_RMSE[key]
        cp_v, mil_v, cp_k, mil_k, vmse = REF_COVERAGE[key]
        checks += [
            Check(1, "bias_vmax", key, *_within(abs(row.bias_vmax), TOL_BIAS)),
            Check(1, "bias_km", key, *_within(abs(row.bias_km), TOL_BIAS)),
            Check(1, "rmse_vmax", key, *_within(abs(row.rmse_vmax - ref_rv), TOL_RMSE)),
            Check(1, "rmse_km", key, *_within(abs(row.rmse_km - ref_rk), TOL_RMSE)),
            Check(2, "cp_vmax", key, *_within(abs(row.cp_vmax - cp_v), TOL_CP)),
            Check(2, "cp_km", key, *_within(abs(row.cp_km - cp_k), TOL_CP)),
            Check(2, "mil_vmax", key, *_within(abs(row.mil_vmax - mil_v) / mil_v, TOL_MIL_REL)),
            Check(2, "mil_km", key, *_within(abs(row.mil_km - mil_k) / mil_k, TOL_MIL_REL)),
            Check(2, "var_mse", key, *_within(abs(row.var_mse - vmse) / vmse, TOL_VAR_MSE_REL)),
            Check(3, "secr_vmax", key, *_inside(row.secr_vmax, lo, hi)),
            Check(3, "secr_km", key, *_inside(row.secr_km, lo, hi)),
        ]
        if row.method != "constant":
            ref = nls[row.scenario]
            checks += [
                Check(1, "rmse_vmax < nls", key, *_below(row.rmse_vmax, ref.rmse_vmax)),
                Check(1, "rmse_km < nls", key, *_below(row.rmse_km, ref.rmse_km)),
                Check(2, "var_mse < nls", key, *_below(row.var_mse, ref.var_mse)),
            ]
    return checks


def clustered_checks(report) -> list[Check]:
    """Criterion 4 on a clustered suite report: vmax coverage of the
    pooled and clustered fits, and the clustered fit ahead of both pooled
    ones on km rmse and variance rmse."""
    rows = {(r.scenario, r.method): r for r in report.rows}
    checks = []
    for m in ("m3", "m6"):
        nls = rows[(m, "pooled-constant")]
        pooled = rows[(m, "pooled-pow:0.5")]
        clus = rows[(m, "clustered-pow:0.5")]
        key = (m, clus.method)
        gap = max(nls.cp_vmax, pooled.cp_vmax) + CLUSTERED_CP_GAP
        checks += [
            Check(4, "cp_vmax", (m, r.method), *_below(r.cp_vmax, POOLED_CP_MAX))
            for r in (nls, pooled)
        ]
        checks += [
            Check(4, "cp_vmax band", key, *_inside(clus.cp_vmax, *CLUSTERED_CP_BAND)),
            Check(4, "cp_vmax gap", key, clus.cp_vmax - gap, clus.cp_vmax >= gap),
            Check(4, "rmse_km < pooled-constant", key, *_below(clus.rmse_km, nls.rmse_km)),
        ]
        checks += [
            Check(4, f"var_rmse < {r.method}", key, *_below(clus.var_rmse, r.var_rmse))
            for r in (nls, pooled)
        ]
    return checks
