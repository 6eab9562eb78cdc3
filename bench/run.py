"""End-to-end benchmark of the mmhet command line, one workload per process.

Run from the repository root:

    python3 bench/run.py --workload bootstrap --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; the program is driven
in-process through ``mmhet.cli.cli_dispatch`` with the arguments a user
would type.  Identical passes over the inputs repeat until ``--seconds``
have been measured.  Every pass is checked (oracle closed forms,
invariants, values recorded from the seed commit, pass-to-pass equality).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of a traced
pass plus the tracing overhead.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted``/``failed`` count the estimator operations of one pass.  A
record with the machine facts goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial
from pathlib import Path

import numpy as np

import oracle
import speed
import tracing
import workloads

SETUP_PROBES = 3
PROBE = "import mmhet, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_USAGE = 2  # mmhet.cli.EXIT_USAGE: the benchmark passed bad arguments
EXIT_CRASH = -1  # an exception escaped cli_dispatch


def measure_setup(root: Path, probes: int) -> float:
    """Median wall time from spawning a fresh interpreter to ``import mmhet`` done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE], cwd=root, env=env, stdout=subprocess.PIPE
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"import probe failed (exit {proc.returncode})")
    return statistics.median(times)


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(root: Path, seed: int) -> dict:
    import scipy

    cores = sorted(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "mm_infer_threads": "unset (CLI default threads=1)",
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
        "note": (
            f"single-threaded CLI timings on {len(cores)} usable cores; parallel "
            "speedups measured here do not carry over to machines with more cores"
        ),
    }


def run_pass(cli, calls, probe=None) -> tuple[list[int], list[float]]:
    """Run every call once through ``cli.cli_dispatch``; returns exit codes and times.

    Time the speed ``probe`` spent inside a call is not the call's.  An
    exception escaping the dispatcher is a crash, recorded as ``EXIT_CRASH``.
    """
    codes, times = [], []
    for call in calls:
        call.out.unlink(missing_ok=True)
        handler_s = probe.handler_s if probe else 0.0
        start = time.perf_counter()
        try:
            code = cli.cli_dispatch(call.argv)
        except Exception as exc:  # the CLI maps every expected error to an exit code
            print(f"bench: {call.argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = EXIT_CRASH
        elapsed = time.perf_counter() - start
        times.append(elapsed - ((probe.handler_s if probe else 0.0) - handler_s))
        codes.append(code)
    return codes, times


def check_pass(workload, seed: int, outcome, first, problems: list[str]) -> int | None:
    """Oracle and invariant problems, then reference or first-pass agreement.

    Returns how many output groups were compared with the recorded
    reference, or None when the seed has none (or this is a later pass).
    """
    problems.extend(outcome.problems)
    if first is not None:
        if outcome.digest != first.digest:
            problems.append("a later pass produced different outputs than the first")
        return None
    ref = workloads.load_reference(workload.name).get(str(seed))
    if ref is None:
        return None
    return oracle.compare_digest(
        ref, outcome.digest, partial(workloads.rtol_for, workload), workload.floor, problems
    )


def measure(cli, workload, calls, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat passes for ``seconds``; in trace mode alternate plain and traced passes.

    Pass times are normalized to the speed probe's reference speed (see
    ``speed``); the raw figures are kept for the record.  Rates are the
    work of one pass over the median plain pass time, so a pass the probe
    failed to normalize does not move them.
    """
    problems: list[str] = []
    plain_times, traced_times, layer_metrics = [], [], []
    busy, raw_busy = defaultdict(list), defaultdict(list)  # rate -> per-pass seconds
    first = None
    first_tracer = None
    work = defaultdict(float)  # rate -> work units per pass
    for call in calls:
        work[call.rate] += call.work
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            with_trace = traced and len(plain_times) > len(traced_times)
            mark = len(probe.samples)
            if with_trace:
                with tracing.Tracer() as tracer:
                    codes, times = run_pass(cli, calls, probe)
            else:
                codes, times = run_pass(cli, calls, probe)
            factor = probe.speed_factor(mark, len(probe.samples))
            if with_trace:
                metrics = tracer.metrics()
                for name, unit in tracing.PER_LAYER.items():
                    if unit == "s":
                        metrics[name] *= factor
                layer_metrics.append(metrics)
                first_tracer = first_tracer or tracer
                traced_times.append(sum(times) * factor)
            else:
                plain_times.append(sum(times) * factor)
                for rate in work:
                    seconds_in = sum(t for call, t in zip(calls, times) if call.rate == rate)
                    busy[rate].append(seconds_in * factor)
                    raw_busy[rate].append(seconds_in)
            outcome = workload.collect(calls, codes)
            crashed = sum(code in (EXIT_CRASH, EXIT_USAGE) for code in codes)
            if crashed:
                problems.append(f"{crashed} calls crashed or were refused as usage errors")
            compared = check_pass(workload, seed, outcome, first, problems)
            if first is None:
                first, reference_groups = outcome, compared
            done = time.perf_counter() - start >= seconds
            if done and (not traced or traced_times):
                break
    return {
        "first": first,
        "problems": problems,
        "plain_times": plain_times,
        "traced_times": traced_times,
        "layer_metrics": layer_metrics,
        "tracer": first_tracer,
        "reference_groups": reference_groups,
        "rates": {name: work[name] / statistics.median(busy[name]) for name in work},
        "raw_rates": {name: work[name] / statistics.median(raw_busy[name]) for name in work},
        "speed_samples": len(probe.samples),
        "work_per_s": sum(work.values()) / statistics.median(plain_times),
    }


def per_layer(result: dict) -> dict:
    """Median over traced passes of each per-layer metric, plus the overhead."""
    passes = result["layer_metrics"]
    out = {name: statistics.median(m[name] for m in passes) for name in tracing.PER_LAYER}
    out["trace.overhead_frac"] = (
        statistics.median(result["traced_times"]) / statistics.median(result["plain_times"]) - 1.0
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mmhet" / "__init__.py").is_file():
        print("bench: src/mmhet not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop("MM_INFER_THREADS", None)
    workload = workloads.WORKLOADS[args.workload]

    setup_s = measure_setup(root, SETUP_PROBES)
    sys.path.insert(0, str(root / "src"))
    import mmhet.cli as cli

    facts = machine_facts(root, args.seed)
    workdir = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        calls = workload.prepare(args.seed, workdir)
        result = measure(cli, workload, calls, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    first = result["first"]

    if args.trace:
        values = per_layer(result)
        units = tracing.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "work_per_s": result["work_per_s"],
            "ok_frac": 1.0 - first.failed / first.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "unit_of_work": workload.unit,
        "machine": facts,
        "passes": {"plain_s": result["plain_times"], "traced_s": result["traced_times"]},
        "rates_per_s": result["rates"],
        "raw_rates_per_s": result["raw_rates"],
        "speed_samples": result["speed_samples"],
        "failed_frac": first.failed / first.attempted,
        "reference_groups": result["reference_groups"],
        "problems": result["problems"],
        "metrics": metrics,
    }
    if args.trace:
        tracer = result["tracer"]
        record["fail_by_layer"] = dict(tracer.fail_by_layer)
        record["spans"] = tracer.span_records()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for problem in result["problems"][:20]:
        print(f"bench: MISMATCH {problem}")
    print(f"bench: workload {workload.name} seed {args.seed}: {workload.why}")
    print("bench: machine " + json.dumps(facts))
    groups = result["reference_groups"]
    print(
        f"bench: {groups} output groups compared with the reference recorded for this seed"
        if groups is not None
        else "bench: no reference recorded for this seed; oracle and invariant checks only"
    )
    print(
        f"bench: {len(result['plain_times'])} plain + {len(result['traced_times'])} traced "
        f"passes; {first.failed} of {first.attempted} estimator operations failed per pass"
    )
    for name, rate in result["rates"].items():
        raw = result["raw_rates"][name]
        print(f"bench: {name:<28} {rate:14.6g} 1/s at reference speed ({raw:.6g} 1/s raw)")
    for name, m in metrics.items():
        print(f"bench: {name:<28} {m['value']:14.6g} {m['unit']}")
    print(f"bench: record written to {record_path.relative_to(root)}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
