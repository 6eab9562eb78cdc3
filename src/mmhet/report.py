"""Report documents and their JSON / CSV / text serializations.

JSON is the canonical machine format: keys are sorted, floats use the
shortest representation that round-trips exactly, and documents contain no
wall-clock fields by default, so identical inputs yield identical bytes.
CSV flattens fit blocks or benchmark rows one per line; the human-readable
text layout puts one candidate model per line, ranked by AIC.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cluster import ClusterFitResult
from .core import Dataset, eval_h, mm_mean, wald_z
from .simbench import BenchmarkReport
from .single import FitResult, GroupFitResult, ScreenEntry
from .wildboot import BootstrapResult

CURVE_POINTS = 101

FIT_CSV_COLUMNS = [
    "record",
    "label",
    "model",
    "rank",
    "converged",
    "error",
    "vmax",
    "se_vmax",
    "ci_vmax_lo",
    "ci_vmax_hi",
    "km",
    "se_km",
    "ci_km_lo",
    "ci_km_hi",
    "gamma",
    "tau2",
    "loglik",
    "aic",
    "bic",
]

METRIC_CSV_COLUMNS = [
    "record",
    "scenario",
    "method",
    "bias_vmax",
    "bias_km",
    "rmse_vmax",
    "rmse_km",
    "cp_vmax",
    "cp_km",
    "mil_vmax",
    "mil_km",
    "interval_score_vmax",
    "interval_score_km",
    "secr_vmax",
    "secr_km",
    "var_mse",
    "var_rmse",
    "tau2_rmse",
    "mean_runtime_s",
    "successes",
    "replications",
]


def _native(value):
    """Recursively replace numpy scalars/arrays with plain Python types.

    Keeps serialized output independent of numpy's repr conventions.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_native(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


def digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


def _curve_block(data: Dataset, result: FitResult | ClusterFitResult) -> dict:
    """Plot-ready fitted curve with a pointwise prediction band."""
    s = np.linspace(float(data.s.min()), float(data.s.max()), CURVE_POINTS)
    mu = mm_mean(s, result.params)
    z = wald_z(result.alpha)
    marginal = result.gamma * eval_h(result.variance_spec, s)
    if isinstance(result, ClusterFitResult):
        frac = s / (result.params.km + s)
        marginal = marginal + result.tau2 * frac * frac
    half = z * np.sqrt(marginal)
    return {
        "s": [float(v) for v in s],
        "mean": [float(v) for v in mu],
        "lower": [float(v) for v in (mu - half)],
        "upper": [float(v) for v in (mu + half)],
    }


def fit_block(
    label: str | None,
    result: FitResult | ClusterFitResult | None,
    *,
    error: str | None = None,
    rank: int | None = None,
    data: Dataset | None = None,
    bootstrap: BootstrapResult | None = None,
) -> dict:
    """One serializable fit record (successful or failed)."""
    block: dict = {
        "label": label,
        "error": error,
        "rank": rank,
    }
    if result is None:
        block.update({"model": None, "converged": False})
        return block
    solver = getattr(result, "solver", None)
    block.update(
        {
            "model": result.variance_spec.label(),
            "vmax": result.params.vmax,
            "km": result.params.km,
            "se_vmax": float(result.se[0]),
            "se_km": float(result.se[1]),
            "ci_vmax": [result.ci_vmax[0], result.ci_vmax[1]],
            "ci_km": [result.ci_km[0], result.ci_km[1]],
            "gamma": result.gamma,
            "alpha": result.alpha,
        }
    )
    if isinstance(result, ClusterFitResult):
        block.update(
            {
                "tau2": result.tau2,
                "boundary_tau2": result.boundary_tau2,
                "iterations": result.iterations,
                "converged": result.converged,
            }
        )
    else:
        block.update(
            {
                "loglik": result.loglik,
                "aic": result.aic,
                "bic": result.bic,
                "converged": error is None,
            }
        )
    if solver is not None:
        block["solver"] = {
            "bracket": [solver.bracket[0], solver.bracket[1]],
            "used_root": solver.used_root,
            "iterations": solver.iterations,
            "f_at_solution": solver.f_at_solution,
            "converged": solver.converged,
            "sign_changes": solver.sign_changes,
        }
    if bootstrap is not None:
        block["bootstrap"] = {
            "ci_vmax": [bootstrap.ci_vmax[0], bootstrap.ci_vmax[1]],
            "ci_km": [bootstrap.ci_km[0], bootstrap.ci_km[1]],
            "t_quantiles": [[float(v) for v in row] for row in bootstrap.t_quantiles],
            "replicates_used": bootstrap.replicates_used,
            "failures": bootstrap.failures,
            "failure_reasons": dict(bootstrap.failure_reasons),
            "flagged": bootstrap.flagged,
            "level": bootstrap.level,
        }
    if data is not None:
        block["curve"] = _curve_block(data, result)
    return _native(block)


def screen_blocks(
    label: str | None, entries: list[ScreenEntry], data: Dataset | None = None
) -> list[dict]:
    return [
        fit_block(label, e.result, error=e.error, rank=e.rank, data=data)
        for e in entries
    ]


def group_document_blocks(result: GroupFitResult) -> tuple[list[dict], dict]:
    fits: list[dict] = []
    for label, entries in result.per_label.items():
        if label in result.label_errors:
            fits.append(fit_block(label, None, error=result.label_errors[label]))
        fits.extend(screen_blocks(label, entries))
    panel = {
        "best_by_label": result.best_by_label,
        "summary": [
            {
                "model": row.spec.label(),
                "mean_aic": row.mean_aic,
                "mean_bic": row.mean_bic,
                "mean_vmax": row.mean_vmax,
                "mean_km": row.mean_km,
                "labels_used": row.labels_used,
                "wins": row.wins,
            }
            for row in result.summary
        ],
    }
    return fits, _native(panel)


@dataclass(eq=False)
class ReportDocument:
    kind: str
    input_digest: str
    fits: list[dict] = field(default_factory=list)
    panel: dict | None = None
    benchmark: dict | None = None
    ingest: dict | None = None
    version: str = __version__

    @classmethod
    def for_benchmark(
        cls, report: BenchmarkReport, digest: str, include_timing: bool = False
    ) -> "ReportDocument":
        return cls(
            kind="benchmark",
            input_digest=digest,
            benchmark=report.canonical_dict(include_timing=include_timing),
        )

    def to_dict(self) -> dict:
        return _native(
            {
                "version": self.version,
                "kind": self.kind,
                "input_digest": self.input_digest,
                "fits": self.fits,
                "panel": self.panel,
                "benchmark": self.benchmark,
                "ingest": self.ingest,
            }
        )


def _cell(value) -> str:
    value = _native(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fit_csv_row(block: dict) -> list[str]:
    ci_v = block.get("ci_vmax", [None, None])
    ci_k = block.get("ci_km", [None, None])
    values = [
        "fit",
        block.get("label"),
        block.get("model"),
        block.get("rank"),
        block.get("converged"),
        block.get("error"),
        block.get("vmax"),
        block.get("se_vmax"),
        ci_v[0],
        ci_v[1],
        block.get("km"),
        block.get("se_km"),
        ci_k[0],
        ci_k[1],
        block.get("gamma"),
        block.get("tau2"),
        block.get("loglik"),
        block.get("aic"),
        block.get("bic"),
    ]
    return [_cell(v) for v in values]


def _metric_csv_row(row: dict) -> list[str]:
    values = ["metric"] + [row.get(col) for col in METRIC_CSV_COLUMNS[1:]]
    return [_cell(v) for v in values]


def _emit_csv(doc: ReportDocument) -> str:
    lines: list[str] = []
    if doc.fits:
        lines.append(",".join(FIT_CSV_COLUMNS))
        lines.extend(",".join(_fit_csv_row(b)) for b in doc.fits)
    if doc.benchmark is not None:
        lines.append(",".join(METRIC_CSV_COLUMNS))
        lines.extend(",".join(_metric_csv_row(r)) for r in doc.benchmark["rows"])
    return "\n".join(lines) + "\n"


def _fmt(value, width=12, prec=5) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float) and not np.isfinite(value):
        return f"{value!r:>{width}}"
    return f"{value:>{width}.{prec}g}"


def _emit_text(doc: ReportDocument) -> str:
    out: list[str] = []
    out.append(f"mmhet report ({doc.kind})")
    out.append(f"input sha256: {doc.input_digest}")
    if doc.ingest:
        out.append(
            "rows: {rows_in} in, {rows_out} kept, "
            "{sentinel} sentinel, {nonfinite} non-finite".format(**doc.ingest)
        )
    if doc.fits:
        out.append("")
        header = (
            f"{'label':<10} {'model':<12} {'rank':>4} "
            f"{'vmax':>12} {'ci_lo':>12} {'ci_hi':>12} "
            f"{'km':>12} {'ci_lo':>12} {'ci_hi':>12} "
            f"{'gamma':>12} {'aic':>12} {'bic':>12}"
        )
        out.append(header)
        for b in doc.fits:
            if b.get("model") is None:
                out.append(f"{str(b.get('label') or '-'):<10} FAILED: {b.get('error')}")
                continue
            ci_v = b.get("ci_vmax", [None, None])
            ci_k = b.get("ci_km", [None, None])
            line = (
                f"{str(b.get('label') or '-'):<10} {b['model']:<12} "
                f"{b['rank'] if b.get('rank') is not None else '-':>4} "
                f"{_fmt(b.get('vmax'))} {_fmt(ci_v[0])} {_fmt(ci_v[1])} "
                f"{_fmt(b.get('km'))} {_fmt(ci_k[0])} {_fmt(ci_k[1])} "
                f"{_fmt(b.get('gamma'))} {_fmt(b.get('aic'))} {_fmt(b.get('bic'))}"
            )
            if b.get("error"):
                line += f"  [{b['error']}]"
            out.append(line)
            if "bootstrap" in b:
                bs = b["bootstrap"]
                out.append(
                    f"{'':<10} bootstrap {bs['level']:.0%}: "
                    f"vmax [{bs['ci_vmax'][0]:.6g}, {bs['ci_vmax'][1]:.6g}]  "
                    f"km [{bs['ci_km'][0]:.6g}, {bs['ci_km'][1]:.6g}]  "
                    f"(B={bs['replicates_used']}, failures={bs['failures']})"
                )
    if doc.panel:
        out.append("")
        out.append("cross-label summary (mean over labels)")
        out.append(
            f"{'model':<12} {'mean_aic':>12} {'mean_bic':>12} "
            f"{'mean_vmax':>12} {'mean_km':>12} {'wins':>5}"
        )
        for row in doc.panel["summary"]:
            out.append(
                f"{row['model']:<12} {_fmt(row['mean_aic'])} {_fmt(row['mean_bic'])} "
                f"{_fmt(row['mean_vmax'])} {_fmt(row['mean_km'])} {row['wins']:>5}"
            )
    if doc.benchmark is not None:
        out.append("")
        out.append(f"benchmark suite: {doc.benchmark['suite']}")
        cols = METRIC_CSV_COLUMNS[1:]
        out.append(" ".join(f"{c:>18}" for c in cols))
        for r in doc.benchmark["rows"]:
            out.append(
                " ".join(
                    f"{_fmt(r.get(c), width=18, prec=6)}" if not isinstance(r.get(c), str)
                    else f"{r.get(c):>18}"
                    for c in cols
                )
            )
    return "\n".join(out) + "\n"


def emit_report(doc: ReportDocument, fmt: str = "json") -> bytes:
    """Serialize a document; JSON output parses back to exactly to_dict()."""
    if fmt == "json":
        return (
            json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"
        ).encode("utf-8")
    if fmt == "csv":
        return _emit_csv(doc).encode("utf-8")
    if fmt == "text":
        return _emit_text(doc).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}; use json|csv|text")
