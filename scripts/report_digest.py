"""One digest over every report the benchmark's workloads write.

For each seed given, builds the inputs of the four workloads in
bench/workloads.py (``prepare(seed)``), runs each call through
``mmhet.cli.cli_dispatch`` and prints one sha256 over the exit codes and
report bytes: the ``fit``, ``group`` and ``cluster`` calls run once per
report format (json, csv, text), and each ``benchmark`` call writes its
JSON and CSV files.  Two versions of the package that print the same
digest for the same seeds write the same reports, byte for byte.

    PYTHONPATH=src python3 scripts/report_digest.py 3 11
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
    args = parser.parse_args()
    digest = hashlib.sha256()
    reports = 0
    for seed in args.seeds:
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory() as workdir:
                for call in workload.prepare(seed, Path(workdir)):
                    for argv, paths in _runs(call.argv, call.out):
                        for path in paths:
                            path.unlink(missing_ok=True)
                        code = cli_dispatch(argv)
                        digest.update(f"{seed} {name} {' '.join(argv[:1])} exit {code}\n".encode())
                        for path in paths:
                            payload = path.read_bytes() if path.is_file() else b"<none>"
                            digest.update(len(payload).to_bytes(8, "little") + payload)
                            reports += path.is_file()
    print(f"report digest (seeds {' '.join(map(str, args.seeds))}, {reports} reports): "
          f"{digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
