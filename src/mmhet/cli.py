"""Command-line interface.

Subcommands: fit, screen, group, cluster, simulate, benchmark.  Exit codes:
0 success, 2 usage error, 3 data error, 4 nonconvergence (a report is still
written when one exists).  Reports go to --out or stdout; errors go to
stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cluster import fit_clustered
from .core import DEFAULT_CANDIDATES, VarianceSpec
from .dataio import IngestOptions, InputTable, ingest_csv
from .exceptions import (
    AllCandidatesFailed,
    IngestError,
    MMHetError,
    NonconvergedFit,
)
from .report import (
    ReportDocument,
    digest_bytes,
    digest_file,
    emit_report,
    fit_block,
    group_document_blocks,
    screen_blocks,
)
from .simbench import (
    DEFAULT_MASTER_SEED,
    ClusterBenchmarkConfig,
    SingleBenchmarkConfig,
    SingleScenario,
    VarianceShape,
    generate_single,
    run_clustered_benchmark,
    run_single_benchmark,
)
from .single import FitConfig, fit_single, group_fit, screen_models
from .wildboot import BootstrapConfig, wild_bootstrap_ci

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGED = 4

def _checked(convert):
    """An argparse type from a validating converter: its ValueError becomes a
    usage error carrying the validator's message."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _candidate_list(text: str) -> tuple[VarianceSpec, ...]:
    specs = tuple(VarianceSpec.parse(tok) for tok in text.split(",") if tok.strip())
    if not specs:
        raise ValueError("empty candidate list")
    return specs


def _add_io_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--substrate-col", default="substrate")
    p.add_argument("--velocity-col", default="velocity")
    p.add_argument("--group-col", default="group")
    p.add_argument("--cluster-col", default="cluster")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--alpha", default=0.05,
                   type=_checked(lambda t: FitConfig(alpha=float(t)).alpha))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmhet",
        description="Variance-aware Michaelis-Menten regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one curve under one variance model")
    _add_io_arguments(p_fit)
    p_fit.add_argument(
        "--variance", type=VarianceSpec.parse, required=True,
        help="constant | log | pow:<p>",
    )
    p_fit.add_argument(
        "--bootstrap", default=0, metavar="B",
        # B = 0 (no bootstrap) skips BootstrapConfig's minimum
        type=_checked(lambda t: int(t) and BootstrapConfig(replicates=int(t)).replicates),
        help="add a wild-bootstrap interval with B replicates",
    )
    p_fit.add_argument("--multiplier", choices=["rademacher", "mammen"],
                       default="rademacher")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.set_defaults(func=_cmd_fit)

    p_screen = sub.add_parser("screen", help="rank candidate variance models by AIC")
    _add_io_arguments(p_screen)
    p_screen.add_argument(
        "--candidates", type=_candidate_list,
        default=DEFAULT_CANDIDATES,
        help="comma-separated specs (default constant,log,pow:0.5,pow:0.3333...)",
    )
    p_screen.set_defaults(func=_cmd_screen)

    p_group = sub.add_parser("group", help="screen each labeled curve in a panel")
    _add_io_arguments(p_group)
    p_group.add_argument("--candidates", type=_candidate_list, default=DEFAULT_CANDIDATES)
    p_group.set_defaults(func=_cmd_group)

    p_cluster = sub.add_parser("cluster", help="clustered working-covariance fit")
    _add_io_arguments(p_cluster)
    p_cluster.add_argument("--variance", type=VarianceSpec.parse, required=True)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_sim = sub.add_parser("simulate", help="write one synthetic benchmark dataset")
    p_sim.add_argument("--scenario", choices=[s.value for s in VarianceShape],
                       default="mm")
    p_sim.add_argument("--n", type=_checked(lambda t: SingleScenario(n=int(t)).n), default=50)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--replicate", type=int, default=0)
    p_sim.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="run a Monte Carlo suite")
    p_bench.add_argument("--suite", choices=["single", "clustered"], required=True)
    p_bench.add_argument(
        "--replications", default=1000,
        type=_checked(lambda t: SingleScenario(replications=int(t)).replications),
    )
    p_bench.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_bench.add_argument("--out", required=True,
                         help="output stem; writes <stem>.csv and <stem>.json")
    p_bench.add_argument("--timing", action="store_true",
                         help="include wall-clock columns (breaks byte determinism)")
    p_bench.set_defaults(func=_cmd_benchmark)

    return parser


def _ingest(ns) -> InputTable:
    options = IngestOptions(
        substrate_col=ns.substrate_col,
        velocity_col=ns.velocity_col,
        group_col=ns.group_col,
        cluster_col=ns.cluster_col,
        delimiter=ns.delimiter,
    )
    return ingest_csv(ns.input, options)


def _write(ns, payload: bytes) -> None:
    if ns.out:
        Path(ns.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()


def _base_doc(ns, kind: str, table: InputTable) -> ReportDocument:
    return ReportDocument(
        kind=kind,
        input_digest=digest_file(ns.input),
        ingest=table.drop_summary(),
    )


def _cmd_fit(ns) -> int:
    table = _ingest(ns)
    data = table.to_dataset()
    doc = _base_doc(ns, "fit", table)
    conf = FitConfig(alpha=ns.alpha)
    try:
        result = fit_single(data, ns.variance, conf)
    except NonconvergedFit as err:
        doc.fits = [fit_block(None, err.result, error=str(err), data=data)]
        _write(ns, emit_report(doc, ns.format))
        return EXIT_NONCONVERGED
    bootstrap = None
    if ns.bootstrap:
        bootstrap = wild_bootstrap_ci(
            data,
            result,
            BootstrapConfig(
                replicates=ns.bootstrap,
                multiplier=ns.multiplier,
                seed=ns.seed,
                level=1.0 - ns.alpha,
            ),
        )
    doc.fits = [fit_block(None, result, data=data, bootstrap=bootstrap)]
    _write(ns, emit_report(doc, ns.format))
    return EXIT_OK


def _cmd_screen(ns) -> int:
    table = _ingest(ns)
    data = table.to_dataset()
    doc = _base_doc(ns, "screen", table)
    try:
        entries = screen_models(data, ns.candidates, FitConfig(alpha=ns.alpha))
    except AllCandidatesFailed as err:
        doc.fits = [fit_block(None, None, error=str(err))]
        _write(ns, emit_report(doc, ns.format))
        return EXIT_NONCONVERGED
    doc.fits = screen_blocks(None, entries, data=data)
    _write(ns, emit_report(doc, ns.format))
    return EXIT_OK


def _cmd_group(ns) -> int:
    table = _ingest(ns)
    panel = table.group_panel()
    doc = _base_doc(ns, "group", table)
    result = group_fit(panel, ns.candidates, FitConfig(alpha=ns.alpha))
    doc.fits, doc.panel = group_document_blocks(result)
    _write(ns, emit_report(doc, ns.format))
    if result.label_errors and not result.best_by_label:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_cluster(ns) -> int:
    table = _ingest(ns)
    data = table.to_clustered()
    doc = _base_doc(ns, "cluster", table)
    result = fit_clustered(data, ns.variance, FitConfig(alpha=ns.alpha))
    doc.fits = [fit_block(None, result, data=data.pooled())]
    _write(ns, emit_report(doc, ns.format))
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _cmd_simulate(ns) -> int:
    scenario = SingleScenario(
        shape=VarianceShape(ns.scenario),
        n=ns.n,
        replications=max(1, ns.replicate + 1),
        master_seed=ns.seed,
    )
    data = generate_single(scenario, ns.replicate)
    lines = ["substrate,velocity"]
    lines.extend(
        f"{repr(float(s))},{repr(float(y))}" for s, y in zip(data.s, data.y)
    )
    _write(ns, ("\n".join(lines) + "\n").encode("utf-8"))
    return EXIT_OK


def _cmd_benchmark(ns) -> int:
    if ns.suite == "single":
        config = SingleBenchmarkConfig.default(
            replications=ns.replications, master_seed=ns.seed
        )
        report = run_single_benchmark(config)
    else:
        config = ClusterBenchmarkConfig.default(
            replications=ns.replications, master_seed=ns.seed
        )
        report = run_clustered_benchmark(config)
    config_echo = {"suite": ns.suite, "replications": ns.replications, "seed": ns.seed}
    digest = digest_bytes(repr(sorted(config_echo.items())).encode("utf-8"))
    doc = ReportDocument.for_benchmark(report, digest, include_timing=ns.timing)
    stem = Path(ns.out)
    if stem.suffix in {".csv", ".json"}:
        stem = stem.with_suffix("")
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_bytes(emit_report(doc, "json"))
    stem.with_suffix(".csv").write_bytes(emit_report(doc, "csv"))
    return EXIT_OK


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (IngestError, FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"mmhet: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NonconvergedFit as err:
        print(f"mmhet: nonconverged: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (MMHetError, ValueError) as err:
        print(f"mmhet: data error: {err}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
