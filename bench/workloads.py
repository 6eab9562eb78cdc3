"""The benchmark's four workloads: input generators, CLI calls, output checks.

Every workload is a fixed list of ``mmhet`` CLI invocations over input files
that this module generates from the workload seed with its own numpy code;
the program sees only those files (and, for the Monte Carlo suites, the
master seed).  One *pass* runs every call once.  A run repeats identical
passes until its time is up, so the failure counts of a pass are exact for
a seed, and every pass must produce the same digest as the first.

``collect`` parses a pass's reports into a *digest* (the numbers compared
with the values recorded from the seed commit) and an ``Outcome`` carrying
the work done, the attempted and failed estimator operations, and every
violated invariant or oracle check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Stream tags keep the workloads' generators independent of one another.
_TAG_BOOT, _TAG_SCREEN, _TAG_CLUSTER = 101, 102, 103

SENTINEL = "-9999"


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed % 2**63, *keys)))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Call:
    """One CLI invocation, the report it writes, and the work it counts.

    ``rate`` names the throughput this call's ``work`` units add to, such
    as ``boot_refits_per_s``.
    """

    argv: list[str]
    out: Path
    work: float
    rate: str
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    digest: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _load(call: Call, code: int, problems: list[str], where: str) -> dict | None:
    if not call.out.is_file():
        if code in (0, 4):
            problems.append(f"{where}: exit {code} but no report was written")
        return None
    return json.loads(call.out.read_text(encoding="utf-8"))


def _check_ingest(doc: dict, where: str, problems: list[str], expected: dict | None = None):
    ing = doc["ingest"]
    if ing["rows_in"] != ing["rows_out"] + ing["sentinel"] + ing["nonfinite"]:
        problems.append(f"{where}: rows_in != rows_out + drops in {ing}")
    if expected is not None and ing != expected:
        problems.append(f"{where}: ingest summary {ing}, generator wrote {expected}")


def _fit_fields(block: dict) -> dict:
    keys = ("vmax", "km", "se_vmax", "se_km", "gamma", "aic", "tau2")
    out = {k: block[k] for k in keys if k in block}
    for name in ("ci_vmax", "ci_km"):
        out[name + "_lo"], out[name + "_hi"] = block[name]
    return out


# --------------------------------------------------------------------------
# bootstrap

BOOT_SIZES = (8, 16, 50, 120)
BOOT_REPLICATES = 999


class Bootstrap:
    name = "bootstrap"
    why = (
        "fit --bootstrap 999 on four curves: every refit shares one design and "
        "one h, the mechanism a batched shared-design solver exploits"
    )
    unit = "bootstrap replicates"
    rtol = oracle.SINGLE_RTOL
    floor = 0.0

    def generate(self, seed: int) -> list[dict]:
        """Geometric designs of 8, 16, 50 and 120 points, noise sd prop. to sqrt(S)."""
        rng = _rng(seed, _TAG_BOOT)
        curves = []
        for n in BOOT_SIZES:
            vmax = rng.uniform(50.0, 150.0)
            km = rng.uniform(5.0, 50.0)
            s = np.geomspace(km / 8.0, km * 25.0, n)
            noise = 0.003 * vmax * np.sqrt(s) * rng.standard_normal(n)
            curves.append({"s": s, "y": vmax * s / (km + s) + noise})
        return curves

    def prepare(self, seed: int, workdir: Path) -> list[Call]:
        calls = []
        for k, curve in enumerate(self.generate(seed)):
            path = workdir / f"curve{k}.csv"
            _write_csv(
                path,
                ["substrate", "velocity"],
                ((repr(float(a)), repr(float(b))) for a, b in zip(curve["s"], curve["y"])),
            )
            out = workdir / f"curve{k}.json"
            argv = [
                "fit", "--input", str(path), "--variance", "pow:0.5",
                "--bootstrap", str(BOOT_REPLICATES), "--seed", str(k),
                "--multiplier", "rademacher" if k % 2 == 0 else "mammen",
                "--format", "json", "--out", str(out),
            ]
            calls.append(Call(argv, out, BOOT_REPLICATES, "boot_refits_per_s", curve))
        return calls

    def collect(self, calls: list[Call], codes: list[int]) -> Outcome:
        res = Outcome()
        for k, (call, code) in enumerate(zip(calls, codes)):
            where = f"curve{k}"
            res.attempted += 1 + BOOT_REPLICATES
            doc = _load(call, code, res.problems, where)
            if code != 0 or doc is None:
                res.failed += 1 + BOOT_REPLICATES
                res.digest[where] = {"status": code}
                continue
            _check_ingest(doc, where, res.problems)
            block = doc["fits"][0]
            boot = block["bootstrap"]
            res.failed += boot["failures"]
            if boot["replicates_used"] + boot["failures"] != BOOT_REPLICATES:
                res.problems.append(f"{where}: replicates_used + failures != B")
            oracle.check_single_fit(call.info["s"], call.info["y"], block, where, res.problems)
            for name, est in (("ci_vmax", block["vmax"]), ("ci_km", block["km"])):
                oracle.check_interval(block[name], est, where + "." + name, res.problems)
                oracle.check_interval(boot[name], est, where + ".bootstrap." + name, res.problems)
            fields = _fit_fields(block)
            for name in ("ci_vmax", "ci_km"):
                fields["boot_" + name + "_lo"], fields["boot_" + name + "_hi"] = boot[name]
            fields["boot_failures"] = boot["failures"]
            fields["status"] = code
            res.digest[where] = fields
        return res


# --------------------------------------------------------------------------
# montecarlo

MC_RUNS = (("single", 150), ("clustered", 100))
CLUSTERED_RTOL = 1e-6


class MonteCarlo:
    name = "montecarlo"
    why = (
        "the paper's seeded reference harness (single suite R=150, clustered "
        "suite R=100): the researchers' end-to-end task, on balanced panels"
    )
    unit = "Monte Carlo replicates"
    floor = 1.0

    @staticmethod
    def rtol(group: str) -> float:
        return CLUSTERED_RTOL if ".clustered-" in group else oracle.SINGLE_RTOL

    def prepare(self, seed: int, workdir: Path) -> list[Call]:
        calls = []
        for suite, reps in MC_RUNS:
            stem = workdir / f"suite_{suite}"
            argv = [
                "benchmark", "--suite", suite, "--replications", str(reps),
                "--seed", str(seed % 2**63), "--out", str(stem),
            ]
            calls.append(Call(argv, stem.with_suffix(".json"), reps, f"mc_{suite}_reps_per_s",
                              {"suite": suite, "reps": reps}))
        return calls

    def collect(self, calls: list[Call], codes: list[int]) -> Outcome:
        res = Outcome()
        for call, code in zip(calls, codes):
            suite, reps = call.info["suite"], call.info["reps"]
            doc = _load(call, code, res.problems, suite)
            if code != 0 or doc is None:
                res.problems.append(f"{suite}: suite exited {code}")
                continue
            for row in doc["benchmark"]["rows"]:
                where = f"{suite}.{row['scenario']}.{row['method']}"
                res.attempted += row["replications"]
                res.failed += row["replications"] - row["successes"]
                if row["replications"] != reps or not 2 <= row["successes"] <= reps:
                    res.problems.append(f"{where}: successes {row['successes']} of {row['replications']}")
                values = {
                    k: v for k, v in row.items()
                    if k not in ("scenario", "method", "mean_runtime_s") and v is not None
                }
                if not all(np.isfinite(v) for v in values.values()):
                    res.problems.append(f"{where}: non-finite metric in {values}")
                if not (0.0 <= row["cp_vmax"] <= 1.0 and 0.0 <= row["cp_km"] <= 1.0):
                    res.problems.append(f"{where}: coverage outside [0, 1]")
                for p in ("vmax", "km"):
                    if row[f"rmse_{p}"] < abs(row[f"bias_{p}"]) * (1.0 - 1e-12):
                        res.problems.append(f"{where}: rmse_{p} < |bias_{p}|")
                values["status"] = values.pop("successes")
                res.digest[where] = values
        return res


# --------------------------------------------------------------------------
# screen_panel

SCREEN_CURVES = 1000
SCREEN_CORRUPT_FRAC = 0.02
# Model letters for the per-label best-model string in the digest.
_MODEL_LETTER = {"constant": "c", "log": "l", "pow:0.5": "s", "pow:0.333333": "t", None: "-"}
_SCREEN_SAMPLE_EVERY = 100


class ScreenPanel:
    name = "screen_panel"
    why = (
        "group screening of 1000 curves, each with its own design: no two fits "
        "share a design, so a shared-design fast path cannot help and any cost "
        "it adds to small one-off fits shows"
    )
    unit = "curves"
    rtol = oracle.SINGLE_RTOL
    floor = 1.0

    def generate(self, seed: int) -> tuple[list[dict], list[tuple[str, str, str]], dict]:
        """Curves of 6-24 points over random geometric ranges, four noise shapes.

        About 2% of rows are replaced by the -9999 sentinel or a non-finite
        cell; the returned counts are what ingest must report.
        """
        rng = _rng(seed, _TAG_SCREEN)
        curves, rows = [], []
        drops = {"sentinel": 0, "nonfinite": 0}
        for i in range(SCREEN_CURVES):
            label = f"g{i:04d}"
            n = int(rng.integers(6, 25))
            s_lo = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
            ratio = float(np.exp(rng.uniform(np.log(30.0), np.log(400.0))))
            s = np.geomspace(s_lo, s_lo * ratio, n)
            km = s_lo * ratio ** rng.uniform(0.15, 0.6)
            vmax = float(np.exp(rng.uniform(np.log(5.0), np.log(500.0))))
            shape = int(rng.integers(4))
            h = [np.ones_like, np.log1p, np.sqrt, np.cbrt][shape]
            sd = rng.uniform(0.03, 0.1) * 0.5 * vmax * np.sqrt(h(s) / h(np.array([km])))
            y = vmax * s / (km + s) + sd * rng.standard_normal(n)
            keep = np.ones(n, dtype=bool)
            corrupt = rng.random(n) < SCREEN_CORRUPT_FRAC
            kinds = rng.integers(4, size=n)
            for j in range(n):
                cells = [label, repr(float(s[j])), repr(float(y[j]))]
                if corrupt[j]:
                    keep[j] = False
                    kind = int(kinds[j])
                    if kind < 2:
                        cells[1 + kind] = SENTINEL
                        drops["sentinel"] += 1
                    else:
                        cells[2] = "nan" if kind == 2 else "inf"
                        drops["nonfinite"] += 1
                rows.append(tuple(cells))
            curves.append({"label": label, "s": s[keep], "y": y[keep]})
        rows_in = len(rows)
        expected = {"rows_in": rows_in, "rows_out": rows_in - sum(drops.values()), **drops}
        return curves, rows, expected

    def prepare(self, seed: int, workdir: Path) -> list[Call]:
        curves, rows, expected = self.generate(seed)
        path = workdir / "panel.csv"
        _write_csv(path, ["group", "substrate", "velocity"], rows)
        out = workdir / "panel.json"
        argv = ["group", "--input", str(path), "--format", "json", "--out", str(out)]
        return [Call(argv, out, len(curves), "curves_per_s", {"curves": curves, "ingest": expected})]

    def collect(self, calls: list[Call], codes: list[int]) -> Outcome:
        res = Outcome()
        (call,), (code,) = calls, codes
        curves = {c["label"]: c for c in call.info["curves"]}
        doc = _load(call, code, res.problems, "group")
        if code != 0 or doc is None:
            res.problems.append(f"group exited {code}")
            return res
        _check_ingest(doc, "group", res.problems, call.info["ingest"])
        res.digest["ingest"] = dict(doc["ingest"])
        by_label: dict[str, list[dict]] = {}
        for block in doc["fits"]:
            by_label.setdefault(block["label"], []).append(block)
        if by_label.keys() != curves.keys():
            res.problems.append("group report does not list every label once")
        best = []
        for i, (label, curve) in enumerate(curves.items()):
            blocks = [b for b in by_label.get(label, []) if b["model"] is not None]
            res.attempted += 4
            res.failed += 4 - sum(1 for b in blocks if b["error"] is None)
            ranked = sorted((b for b in blocks if b["rank"] is not None), key=lambda b: b["rank"])
            if [b["rank"] for b in ranked] != list(range(1, len(ranked) + 1)):
                res.problems.append(f"{label}: ranks are not 1..k")
            keys = [(b["aic"], b["bic"]) for b in ranked]
            if keys != sorted(keys):
                res.problems.append(f"{label}: ranks do not follow AIC")
            for b in ranked:
                oracle.check_single_fit(curve["s"], curve["y"], b, f"{label}.{b['model']}", res.problems)
                oracle.check_interval(b["ci_vmax"], b["vmax"], f"{label}.ci_vmax", res.problems)
            best.append(_MODEL_LETTER[ranked[0]["model"] if ranked else None])
            if i % _SCREEN_SAMPLE_EVERY == 0:
                for b in ranked:
                    res.digest[f"{label}.{b['model']}"] = {**_fit_fields(b), "rank": b["rank"]}
        winners = doc["panel"]["best_by_label"]
        if "".join(best) != "".join(_MODEL_LETTER[winners.get(lab)] for lab in curves):
            res.problems.append("best_by_label disagrees with the rank-1 fits")
        res.digest["best"] = {"models": "".join(best)}
        for row in doc["panel"]["summary"]:
            fields = {k: v for k, v in row.items() if k != "model"}
            fields["status"] = fields.pop("labels_used")
            res.digest["summary." + row["model"]] = fields
        return res


# --------------------------------------------------------------------------
# cluster_panels

CLUSTER_PANELS = 240
CLUSTER_LEVELS = (10.0, 40.0, 80.0, 130.0, 200.0, 350.0, 700.0, 1200.0)
CLUSTER_POOL_FILE = REFERENCE_DIR / "cluster_pool.json"
# Pool panels are keyed by this fixed seed, not by the workload seed; the
# workload seed picks which pool panels a run fits.
CLUSTER_POOL_SEED = 20260517
CLUSTER_POOL_SIZE = 1200


def make_cluster_panel(index: int) -> list[tuple[str, float, float]]:
    """Pool panel ``index``: 3-8 plate clusters of 4-11 wells, dropped cells.

    Levels, truth (vmax, km) = (100, 20), tau = 40 and sqrt(S)-shaped noise
    with gamma = 25 follow the clustered suite's scenario.  Each cluster
    keeps 4-11 of the 16 cells of an 8-level x 2-replicate plate; a quarter
    of the dropped cells are exported as -9999 rows, which ingest removes.
    Returns (cluster, substrate, velocity) rows; NaN velocity marks a
    sentinel row.
    """
    rng = _rng(CLUSTER_POOL_SEED, _TAG_CLUSTER, index)
    levels = np.asarray(CLUSTER_LEVELS)
    m = int(rng.integers(3, 9))
    shifts = rng.normal(0.0, 40.0, size=m)
    rows = []
    for c in range(m):
        size = int(rng.integers(4, 12))
        cells = np.sort(rng.choice(16, size=size, replace=False))
        s = levels[cells % 8]
        y = (100.0 + shifts[c]) * s / (20.0 + s) + 5.0 * s**0.25 * rng.standard_normal(size)
        dropped = np.setdiff1d(np.arange(16), cells)
        exported = dropped[rng.random(dropped.size) < 0.25]
        merged = [(int(j), float(v)) for j, v in zip(cells, y)]
        merged += [(int(j), float("nan")) for j in exported]
        for j, v in sorted(merged):
            rows.append((f"c{c}", float(levels[j % 8]), v))
    return rows


def load_cluster_pool() -> dict:
    return json.loads(CLUSTER_POOL_FILE.read_text(encoding="utf-8"))


class ClusterPanels:
    name = "cluster_panels"
    why = (
        "240 unbalanced plate panels through cluster: the only workload where "
        "the alternation loop runs, including its non-converged tail"
    )
    unit = "panels"
    rtol = CLUSTERED_RTOL
    floor = 0.0

    def select(self, seed: int) -> list[int]:
        """Pool indices for a seed, with the pool's share of non-converging panels.

        The seed commit fails to converge on about 5% of pool panels, and
        those cost about as much as all the others together.  Drawing that
        share exactly (``hard`` lists them, recorded by ``record.py``) keeps
        the tail in every run at its natural rate instead of letting its
        count, and with it the run time, swing from seed to seed.
        """
        pool = load_cluster_pool()
        hard = np.asarray(pool["hard"], dtype=np.int64)
        easy = np.setdiff1d(np.arange(pool["size"]), hard)
        n_hard = round(CLUSTER_PANELS * hard.size / pool["size"])
        rng = _rng(seed, _TAG_CLUSTER)
        picked = np.concatenate([
            rng.choice(hard, size=n_hard, replace=False),
            rng.choice(easy, size=CLUSTER_PANELS - n_hard, replace=False),
        ])
        return [int(i) for i in rng.permutation(picked)]

    def prepare(self, seed: int, workdir: Path) -> list[Call]:
        return [self.panel_call(i, workdir) for i in self.select(seed)]

    @staticmethod
    def panel_call(index: int, workdir: Path) -> Call:
        rows = make_cluster_panel(index)
        path = workdir / f"panel{index}.csv"
        _write_csv(
            path,
            ["cluster", "substrate", "velocity"],
            ((c, repr(s), SENTINEL if np.isnan(v) else repr(v)) for c, s, v in rows),
        )
        out = workdir / f"panel{index}.json"
        argv = [
            "cluster", "--input", str(path), "--cluster-col", "cluster",
            "--variance", "pow:0.5", "--format", "json", "--out", str(out),
        ]
        dropped = sum(1 for _, _, v in rows if np.isnan(v))
        expected = {"rows_in": len(rows), "rows_out": len(rows) - dropped,
                    "sentinel": dropped, "nonfinite": 0}
        return Call(argv, out, 1, "panels_per_s", {"index": index, "ingest": expected})

    def collect(self, calls: list[Call], codes: list[int]) -> Outcome:
        res = Outcome()
        for call, code in zip(calls, codes):
            where = f"panel{call.info['index']}"
            res.attempted += 1
            doc = _load(call, code, res.problems, where)
            if doc is not None:
                _check_ingest(doc, where, res.problems, call.info["ingest"])
                block = doc["fits"][0]
                if block["converged"] != (code == 0):
                    res.problems.append(f"{where}: exit {code} but converged={block['converged']}")
            if code != 0 or doc is None:
                # A non-converged iterate depends on the iteration path, so
                # only the status of a failed panel is compared.
                res.failed += 1
                res.digest[where] = {"status": code}
                continue
            if not (block["gamma"] > 0.0 and block["tau2"] >= 0.0):
                res.problems.append(f"{where}: variance components out of range")
            if block["boundary_tau2"] and block["tau2"] != 0.0:
                res.problems.append(f"{where}: boundary_tau2 set but tau2 != 0")
            for name, est in (("ci_vmax", block["vmax"]), ("ci_km", block["km"])):
                oracle.check_interval(block[name], est, f"{where}.{name}", res.problems)
            fields = _fit_fields(block)
            fields.update(status=code, iterations=block["iterations"],
                          boundary_tau2=block["boundary_tau2"])
            res.digest[where] = fields
        return res


WORKLOADS = {w.name: w for w in (Bootstrap(), MonteCarlo(), ScreenPanel(), ClusterPanels())}


def rtol_for(workload, group: str) -> float:
    rtol = workload.rtol
    return rtol(group) if callable(rtol) else rtol


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
