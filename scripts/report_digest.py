"""One digest over every report the benchmark's workloads write.

For each seed given, builds the inputs of the four workloads in
bench/workloads.py (``prepare(seed)``), runs each call through
``mmhet.cli.cli_dispatch`` and prints one sha256 over the exit codes and
report bytes: the ``fit``, ``group`` and ``cluster`` calls run once per
report format (json, csv, text), and each ``benchmark`` call writes its
JSON and CSV files.  Two versions of the package that print the same
digest for the same seeds write the same reports, byte for byte.  One
more line per workload digests that workload's share of the same bytes,
so a change that moves one workload's reports shows which others hold.
``--workloads`` digests only the workloads named, in the same order, so
the last line then covers only their reports.

    PYTHONPATH=src python3 scripts/report_digest.py 3 11
    PYTHONPATH=src python3 scripts/report_digest.py 3 5 7 11 12 --workloads screen_panel
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS  # noqa: E402

from mmhet.cli import cli_dispatch  # noqa: E402

FORMATS = ("json", "csv", "text")


def _runs(argv: list[str], out: Path):
    """(argv, report paths) for each run one workload call stands for."""
    if "--format" not in argv:  # benchmark: one run writes <stem>.json and .csv
        return [(argv, [out, out.with_suffix(".csv")])]
    at = argv.index("--format") + 1
    return [(argv[:at] + [fmt] + argv[at + 1:], [out]) for fmt in FORMATS]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument(
        "--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS),
        metavar="NAME", help="workloads to digest (default: all)",
    )
    args = parser.parse_args()
    names = [name for name in WORKLOADS if name in args.workloads]
    digest = hashlib.sha256()
    by_workload = {name: hashlib.sha256() for name in names}
    counts = dict.fromkeys(names, 0)
    for seed in args.seeds:
        for name in names:
            workload = WORKLOADS[name]
            with tempfile.TemporaryDirectory() as workdir:
                for call in workload.prepare(seed, Path(workdir)):
                    for argv, paths in _runs(call.argv, call.out):
                        for path in paths:
                            path.unlink(missing_ok=True)
                        code = cli_dispatch(argv)
                        chunks = [f"{seed} {name} {' '.join(argv[:1])} exit {code}\n".encode()]
                        for path in paths:
                            payload = path.read_bytes() if path.is_file() else b"<none>"
                            chunks.append(len(payload).to_bytes(8, "little") + payload)
                            counts[name] += path.is_file()
                        for chunk in chunks:
                            digest.update(chunk)
                            by_workload[name].update(chunk)
    seeds = " ".join(map(str, args.seeds))
    for name, part in by_workload.items():
        print(f"  {name} (seeds {seeds}, {counts[name]} reports): {part.hexdigest()}")
    print(f"report digest (seeds {seeds}, {sum(counts.values())} reports): "
          f"{digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
