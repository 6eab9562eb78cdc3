"""The benchmark's own tests: generators, correctness checks, tracing, contract.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import BENCH_DIR, REPO_ROOT

import mmhet.cli as cli
import oracle
import run
import tracing
import workloads

REFERENCE_SEED = 0


def _equal_nested(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal_nested(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal_nested(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_generators_are_deterministic_per_seed():
    boot, screen, panels = (workloads.WORKLOADS[n] for n in ("bootstrap", "screen_panel", "cluster_panels"))
    assert _equal_nested(boot.generate(7), boot.generate(7))
    assert not _equal_nested(boot.generate(7), boot.generate(8))
    assert _equal_nested(screen.generate(7), screen.generate(7))
    assert not _equal_nested(screen.generate(7)[1], screen.generate(8)[1])
    assert panels.select(7) == panels.select(7) != panels.select(8)
    # repr, because the sentinel rows carry NaN, which never compares equal
    assert repr(workloads.make_cluster_panel(3)) == repr(workloads.make_cluster_panel(3))


def test_cluster_selection_keeps_the_pool_share_of_hard_panels():
    pool = workloads.load_cluster_pool()
    hard = set(pool["hard"])
    picked = workloads.WORKLOADS["cluster_panels"].select(11)
    assert len(set(picked)) == workloads.CLUSTER_PANELS
    expected = round(workloads.CLUSTER_PANELS * len(hard) / pool["size"])
    assert sum(i in hard for i in picked) == expected


def test_screen_generator_counts_its_dropped_rows():
    _, rows, expected = workloads.WORKLOADS["screen_panel"].generate(3)
    sentinel = sum(workloads.SENTINEL in r[1:] for r in rows)
    nonfinite = sum(r[2] in ("nan", "inf") for r in rows)
    assert expected["sentinel"] == sentinel > 0
    assert expected["nonfinite"] == nonfinite > 0
    assert expected["rows_in"] == len(rows)


@pytest.fixture
def fitted_block(tmp_path):
    curve = workloads.WORKLOADS["bootstrap"].generate(5)[2]
    path = tmp_path / "curve.csv"
    workloads._write_csv(
        path, ["substrate", "velocity"],
        ((repr(float(a)), repr(float(b))) for a, b in zip(curve["s"], curve["y"])),
    )
    out = tmp_path / "fit.json"
    code = cli.cli_dispatch(
        ["fit", "--input", str(path), "--variance", "pow:0.5", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    return curve, json.loads(out.read_text())["fits"][0]


def test_single_fit_oracle_accepts_the_program_output(fitted_block):
    curve, block = fitted_block
    problems: list[str] = []
    oracle.check_single_fit(curve["s"], curve["y"], block, "fit", problems)
    assert problems == []


@pytest.mark.parametrize("field", ["km", "vmax", "se_km", "aic"])
def test_single_fit_oracle_rejects_a_perturbed_output(fitted_block, field):
    curve, block = fitted_block
    bad = copy.deepcopy(block)
    bad[field] *= 1.0 + 1e-6
    problems: list[str] = []
    oracle.check_single_fit(curve["s"], curve["y"], bad, "fit", problems)
    assert problems


def _panel_pass(tmp_path):
    """One converging cluster panel through the CLI."""
    workload = workloads.WORKLOADS["cluster_panels"]
    hard = set(workloads.load_cluster_pool()["hard"])
    index = next(i for i in workload.select(REFERENCE_SEED) if i not in hard)
    calls = [workload.panel_call(index, tmp_path)]
    codes, _ = run.run_pass(cli, calls)
    return workload, calls, codes


def test_perturbed_cluster_output_trips_the_reference_check(tmp_path):
    workload, calls, codes = _panel_pass(tmp_path)
    good = workload.collect(calls, codes)
    assert good.problems == [] and codes == [0]

    doc = json.loads(calls[0].out.read_text())
    doc["fits"][0]["km"] *= 1.0 + 1e-4
    doc["ingest"]["rows_in"] += 1
    calls[0].out.write_text(json.dumps(doc))
    bad = workload.collect(calls, codes)
    assert any("rows_in" in p for p in bad.problems)

    problems: list[str] = []
    oracle.compare_digest(good.digest, bad.digest, lambda g: workload.rtol, workload.floor, problems)
    assert any(".km" in p for p in problems)


def test_status_change_is_a_failure_not_a_mismatch():
    ref = {"p1": {"status": 0, "vmax": 100.0}, "p2": {"status": 0, "vmax": 90.0}}
    new = {"p1": {"status": 4, "vmax": 101.0}, "p2": {"status": 0, "vmax": 90.0 * (1 + 1e-9)}}
    problems: list[str] = []
    compared = oracle.compare_digest(ref, new, lambda g: 1e-8, 0.0, problems)
    assert problems == [] and compared == 1


def test_tracer_restores_every_wrapped_name(tmp_path):
    modules = {site: sys.modules[site] for site in tracing.WRAPPED}
    originals = {
        (site, name): getattr(modules[site], name)
        for site, names in tracing.WRAPPED.items() for name in names
    }
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert modules["mmhet.cli"].fit_single is not originals[("mmhet.cli", "fit_single")]
            _panel_pass(tmp_path)
            raise RuntimeError("interrupted traced run")
    assert tracer.spans
    for (site, name), original in originals.items():
        assert getattr(modules[site], name) is original, f"{site}.{name} not restored"


# Layers each workload must reach, with extra conditions on its trace.
EXPECTED_LAYERS = {
    "bootstrap": ("cli", "dataio", "single", "rootfind", "wildboot", "report"),
    "montecarlo": ("cli", "single", "rootfind", "cluster", "simbench", "report"),
    "screen_panel": ("cli", "dataio", "single", "rootfind", "report"),
    "cluster_panels": ("cli", "dataio", "single", "rootfind", "cluster", "report"),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_LAYERS))
def test_traced_pass_reaches_each_layer_of_the_workload(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    calls = workload.prepare(REFERENCE_SEED, tmp_path)
    with tracing.Tracer() as tracer:
        codes, _ = run.run_pass(cli, calls)
    outcome = workload.collect(calls, codes)
    problems: list[str] = []
    run.check_pass(workload, REFERENCE_SEED, outcome, None, problems)
    assert problems == []

    m = tracer.metrics()
    assert set(m) == set(tracing.PER_LAYER)
    for layer in EXPECTED_LAYERS[name]:
        assert m[f"{layer}.spans"] > 0, layer
    assert m["cli.spans"] == len(calls)
    if name == "montecarlo":
        # Balanced panels: the alternation stops after one iteration.
        assert m["cluster.fit_calls"] > 0
        assert m["cluster.iterations_sum"] == m["cluster.fit_calls"]
        assert m["cluster.iterations_max"] == 1
    if name == "cluster_panels":
        assert m["cluster.iterations_max"] > 1
        assert 0 < m["cluster.nonconverged"] <= outcome.failed
    if name == "bootstrap":
        assert m["wildboot.refit_calls"] == len(calls) * workloads.BOOT_REPLICATES
    if name == "screen_panel":
        assert m["dataio.rows_dropped"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bootstrap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
