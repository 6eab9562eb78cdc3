"""One digest over fit_clustered's results on every cluster_panels pool panel.

Builds each of the benchmark's 1200 pool panels (``make_cluster_panel`` in
bench/workloads.py, sentinel rows dropped as ingest drops them), fits it
under ``pow:0.5`` as ``mmhet cluster`` does, and prints one sha256 over
the float.hex of every number in each ClusterFitResult (the exception's
class name where the fit raises).  Two versions of the package that print
the same digest return the same results, bit for bit, on the whole pool.

A second digest covers the converged panels' lines only, with the counts
of converged and non-converged panels (a panel whose fit raises counts as
non-converged), so a version that changes only what non-converged fits
report keeps that digest.  ``cycle`` is summarised on its own line rather
than digested, so versions with and without that field give comparable
digests.  Two more lines give the number of panels whose ``gamma`` ends at
its floor and the pass's wall time, with the machine's core count (the pass
runs in one process).

    PYTHONPATH=src python3 scripts/cluster_pool_digest.py
"""

import hashlib
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import CLUSTER_POOL_SIZE, make_cluster_panel  # noqa: E402

from mmhet import ClusteredDataset, VarianceSpec, fit_clustered  # noqa: E402
from mmhet.cluster import GAMMA_FLOOR_REL  # noqa: E402
from mmhet.core import MMParams  # noqa: E402
from mmhet.exceptions import MMHetError  # noqa: E402

SPEC = VarianceSpec.parse("pow:0.5")


def _numbers(value) -> list[float]:
    if isinstance(value, MMParams):
        return [value.vmax, value.km]
    if isinstance(value, VarianceSpec):
        return []  # the same spec for every panel
    return [float(v) for v in np.ravel(value)]


def panel_record(index: int) -> tuple[str, bool, tuple[int, int] | None, bool]:
    """Panel ``index``'s digest line, whether its fit converged, its cycle
    (None if it has none) and whether its gamma ends at the floor."""
    rows = [(c, s, v) for c, s, v in make_cluster_panel(index) if not np.isnan(v)]
    labels, s, y = zip(*rows)
    data = ClusteredDataset.from_labels(s, y, labels)
    try:
        res = fit_clustered(data, SPEC)
    except MMHetError as err:
        return f"{index}:{type(err).__name__}", False, None, False
    values = [
        float.hex(v)
        for f in fields(res) if f.name != "cycle"
        for v in _numbers(getattr(res, f.name))
    ]
    at_floor = res.gamma == GAMMA_FLOOR_REL * float(np.var(data.pooled().y))
    line = f"{index}:" + ",".join(values)
    return line, res.converged, getattr(res, "cycle", None), at_floor


def main() -> int:
    digest = hashlib.sha256()
    converged_digest = hashlib.sha256()
    converged = 0
    cycles = []
    floored = 0
    started = time.perf_counter()
    for index in range(CLUSTER_POOL_SIZE):
        line, ok, cycle, at_floor = panel_record(index)
        digest.update(line.encode("ascii") + b"\n")
        if ok:
            converged_digest.update(line.encode("ascii") + b"\n")
            converged += 1
        if cycle is not None:
            cycles.append(cycle)
        floored += at_floor
    wall = time.perf_counter() - started
    print(f"pool digest ({CLUSTER_POOL_SIZE} panels): {digest.hexdigest()}")
    print(f"converged digest ({converged} panels): {converged_digest.hexdigest()}")
    print(f"converged: {converged} panels; non-converged: {CLUSTER_POOL_SIZE - converged}")
    if cycles:
        first, period = np.array(cycles).T
        print(
            f"cycling panels: {len(cycles)}; first repeated iteration "
            f"{first.min()}-{first.max()} (median {np.median(first):g}); "
            f"period {period.min()}-{period.max()} (median {np.median(period):g})"
        )
    print(f"gamma at its floor: {floored} panels")
    print(f"wall time: {wall:.1f} s in one process, {os.cpu_count()} cores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
