"""Spans around the calls one ``mmhet`` module makes into another.

The tracer replaces module-level names (``mmhet.cli.fit_single``,
``mmhet.cluster.solve_scalar``, ...) with wrappers that record a span --
name, call site, layer, start, end, parent -- and restores the original
objects on exit.  Nothing under ``src/`` is changed: a module looks its
imported names up in its own namespace at call time, so replacing the name
there intercepts exactly the calls made from that module.

A span's layer is the module that defines the callee.  Its self time is
its duration minus the durations of its direct children.  Wrappers also
read counts off the returned objects (solver diagnostics, cluster
iterations, ingest drops, report bytes) and count raised exceptions by
class, once each, at the innermost span they leave.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "dataio", "single", "rootfind", "wildboot", "cluster", "simbench", "report")

# Call site module -> names it imports from another module (or, for the
# cluster and single modules, its own entry points worth a span).
WRAPPED = {
    "mmhet.cli": (
        "cli_dispatch", "ingest_csv", "fit_single", "screen_models", "group_fit",
        "wild_bootstrap_ci", "fit_clustered", "run_single_benchmark",
        "run_clustered_benchmark", "emit_report", "fit_block", "screen_blocks",
        "group_document_blocks", "digest_file",
    ),
    "mmhet.wildboot": ("fit_single",),
    "mmhet.single": ("fit_single", "screen_models", "solve_scalar"),
    "mmhet.cluster": ("fit_single", "gls_km_profile", "solve_scalar", "cluster_covariance"),
    "mmhet.simbench": (
        "fit_single", "fit_clustered", "generate_single", "generate_clustered",
        "compute_metrics",
    ),
}

# Exception classes counted by name; anything else lands in fail.other.
FAIL_CLASSES = (
    "NoFiniteEvaluation", "DegenerateDesign", "SingularInformation", "NonconvergedFit",
    "AllCandidatesFailed", "InsufficientReplication", "NonPositiveGamma",
    "TooManyFailures", "InsufficientSuccesses", "MissingColumn", "ParseError",
    "EmptyAfterFiltering", "ValueError",
)

# Per-layer metrics of one pass: name -> unit.  Self times sum the named
# callees' spans; counts are read off spans and returned objects.
SELF_TIMES = {
    "cli.self_s": ("cli_dispatch",),
    "dataio.ingest_self_s": ("ingest_csv",),
    "single.fit_self_s": ("fit_single",),
    "single.screen_self_s": ("screen_models", "group_fit"),
    "rootfind.solve_self_s": ("solve_scalar",),
    "wildboot.ci_self_s": ("wild_bootstrap_ci",),
    "cluster.fit_self_s": ("fit_clustered",),
    "cluster.gls_profile_self_s": ("gls_km_profile",),
    "cluster.covariance_self_s": ("cluster_covariance",),
    "simbench.generate_self_s": ("generate_single", "generate_clustered"),
    "simbench.metrics_self_s": ("compute_metrics",),
    "simbench.suite_self_s": ("run_single_benchmark", "run_clustered_benchmark"),
    "report.emit_self_s": ("emit_report",),
    "report.build_self_s": ("fit_block", "screen_blocks", "group_document_blocks", "digest_file"),
}
COUNTS = (
    "dataio.rows_in", "dataio.rows_dropped",
    "single.fit_calls",
    "rootfind.solve_calls", "rootfind.brent_iterations", "rootfind.golden_fallbacks",
    "rootfind.multi_root_solves",
    "wildboot.refit_calls", "wildboot.failures",
    "cluster.fit_calls", "cluster.iterations_sum", "cluster.iterations_max",
    "cluster.nonconverged", "cluster.boundary_tau2",
    "report.bytes",
)
PER_LAYER = {
    **{f"{layer}.spans": "count" for layer in LAYERS},
    **{name: "s" for name in SELF_TIMES},
    "wildboot.refit_s": "s",
    **{name: ("bytes" if name == "report.bytes" else "count") for name in COUNTS},
    **{f"fail.{cls}": "count" for cls in FAIL_CLASSES},
    "fail.other": "count",
    "fail.nonconverged": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` afterwards."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, site, layer, start, end, parent, self_s)
        self.counts: Counter = Counter()
        self.fail_by_layer: Counter = Counter()
        self._stack: list[list] = []  # [index, start, child_time]
        self._saved: list[tuple] = []
        self._seen_exc: dict[int, BaseException] = {}

    def __enter__(self) -> "Tracer":
        for site, names in WRAPPED.items():
            module = importlib.import_module(site)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original, name, site.rsplit(".", 1)[1]))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, fn, name: str, site: str):
        layer = fn.__module__.rsplit(".", 1)[1]
        on_result = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in self._seen_exc:
                    self._seen_exc[id(exc)] = exc
                    cls = type(exc).__name__
                    self.counts["fail." + (cls if cls in FAIL_CLASSES else "other")] += 1
                    self.fail_by_layer[f"{layer}.{cls}"] += 1
                raise
            else:
                if on_result is not None:
                    on_result(self.counts, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (name, site, layer, frame[1], end, parent, duration - frame[2])

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        out: dict[str, float] = {name: 0 for name in PER_LAYER}
        by_name: dict[str, float] = defaultdict(float)
        for name, site, layer, start, end, _, self_s in self.spans:
            by_name[name] += self_s
            out[f"{layer}.spans"] += 1
            if name == "fit_single":
                out["single.fit_calls"] += 1
                if site == "wildboot":
                    out["wildboot.refit_calls"] += 1
                    out["wildboot.refit_s"] += end - start
            elif name == "solve_scalar":
                out["rootfind.solve_calls"] += 1
            elif name == "fit_clustered":
                out["cluster.fit_calls"] += 1
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(by_name[n] for n in names)
        for key, value in self.counts.items():
            out[key] = value
        out["trace.spans"] = len(self.spans)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "site": s, "layer": l, "start": a, "end": b, "parent": p, "self_s": x}
            for n, s, l, a, b, p, x in self.spans
        ]


def _solver(counts: Counter, result) -> None:
    _, diag = result
    if diag.used_root:
        counts["rootfind.brent_iterations"] += diag.iterations
    else:
        counts["rootfind.golden_fallbacks"] += 1
    if diag.sign_changes > 1:
        counts["rootfind.multi_root_solves"] += 1
    if not diag.converged:
        counts["fail.nonconverged"] += 1


def _cluster_fit(counts: Counter, result) -> None:
    counts["cluster.iterations_sum"] += result.iterations
    counts["cluster.iterations_max"] = max(counts["cluster.iterations_max"], result.iterations)
    counts["cluster.boundary_tau2"] += bool(result.boundary_tau2)
    if not result.converged:
        counts["cluster.nonconverged"] += 1
        counts["fail.nonconverged"] += 1


def _ingest(counts: Counter, table) -> None:
    counts["dataio.rows_in"] += table.rows_in
    counts["dataio.rows_dropped"] += sum(table.dropped.values())


def _bootstrap(counts: Counter, result) -> None:
    counts["wildboot.failures"] += result.failures


def _report(counts: Counter, payload: bytes) -> None:
    counts["report.bytes"] += len(payload)


_RESULT_COUNTS = {
    "solve_scalar": _solver,
    "fit_clustered": _cluster_fit,
    "ingest_csv": _ingest,
    "wild_bootstrap_ci": _bootstrap,
    "emit_report": _report,
}
