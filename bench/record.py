"""Record the reference data the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference (the benchmark's correctness checks compare later commits with
it):

    python3 bench/record.py pool              # classify the cluster panel pool
    python3 bench/record.py reference 0 31 bootstrap montecarlo screen_panel
    python3 bench/record.py reference 0 15 cluster_panels

With no workload names, ``reference`` records every workload.

``pool`` fits every panel of the cluster pool once and lists those that do
not converge (``reference/cluster_pool.json``); the ``cluster_panels``
workload draws its share of them exactly.  ``reference`` runs one pass of
every workload per seed and stores its digest (``reference/<name>.json``);
a seed whose pass violates an invariant or oracle check is not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def _cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import mmhet.cli as cli

    return cli


def _rounded(value):
    """Twelve significant digits: ample for comparisons at 1e-8 or looser."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def record_pool(root: Path, workdir: Path) -> None:
    cli = _cli(root)
    size = workloads.CLUSTER_POOL_SIZE
    hard = []
    for index in range(size):
        call = workloads.ClusterPanels.panel_call(index, workdir)
        (code,), _ = run.run_pass(cli, [call])
        if code != 0:
            hard.append(index)
    pool = {"pool_seed": workloads.CLUSTER_POOL_SEED, "size": size, "hard": hard}
    workloads.CLUSTER_POOL_FILE.write_text(json.dumps(pool) + "\n", encoding="utf-8")
    print(f"pool: {len(hard)} of {size} panels do not converge")


def record_reference(root: Path, workdir: Path, seeds: range, names: list[str]) -> None:
    cli = _cli(root)
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        table = workloads.load_reference(workload.name)
        for seed in seeds:
            calls = workload.prepare(seed, workdir)
            codes, _ = run.run_pass(cli, calls)
            outcome = workload.collect(calls, codes)
            if outcome.problems:
                print(f"{workload.name} seed {seed}: not recorded: {outcome.problems[:3]}")
                continue
            table[str(seed)] = {
                group: {k: _rounded(v) for k, v in fields.items()}
                for group, fields in outcome.digest.items()
            }
            print(f"{workload.name} seed {seed}: {outcome.failed} of {outcome.attempted} failed")
        path = workloads.REFERENCE_DIR / f"{workload.name}.json"
        ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(ordered, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    root = Path.cwd()
    workdir = root / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if argv[:1] == ["pool"]:
            record_pool(root, workdir)
        elif argv[:1] == ["reference"] and len(argv) >= 3:
            record_reference(root, workdir, range(int(argv[1]), int(argv[2]) + 1), argv[3:])
        else:
            print(__doc__, file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
