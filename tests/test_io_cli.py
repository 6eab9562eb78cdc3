import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mmhet
from mmhet import cli
from mmhet import (
    ClusterScenario,
    MMParams,
    ReportDocument,
    SingleScenario,
    emit_report,
    fit_clustered,
    fit_single,
    generate_clustered,
    generate_single,
    ingest_csv,
    mm_mean,
    screen_models,
    VarianceSpec,
)
from mmhet.cli import EXIT_DATA, EXIT_NONCONVERGED, EXIT_OK, EXIT_USAGE, cli_dispatch
from mmhet.dataio import IngestOptions, InputTable
from mmhet.exceptions import EmptyAfterFiltering, IngestError, MissingColumn, ParseError
from mmhet.report import FIT_CSV_COLUMNS, METRIC_CSV_COLUMNS, fit_block, screen_blocks
from mmhet import single
from mmhet.simbench import DEFAULT_MASTER_SEED

TRUTH = MMParams(100.0, 20.0)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _curve_csv(tmp_path, name="curve.csv", noise=0.0, n=30, seed=5, extra_cols=None):
    rng = np.random.default_rng(seed)
    s = np.geomspace(1.0, 150.0, n)
    y = mm_mean(s, TRUTH) + (rng.normal(0.0, noise, n) if noise else 0.0)
    lines = ["substrate,velocity" if extra_cols is None else "substrate,velocity," + ",".join(extra_cols)]
    for i, (si, yi) in enumerate(zip(s, y)):
        row = f"{float(si)!r},{float(yi)!r}"
        if extra_cols is not None:
            row += "," + ",".join(c + str(i % 3) for c in extra_cols)
        lines.append(row)
    return _write(tmp_path, name, "\n".join(lines) + "\n")


# --- ingestion ------------------------------------------------------------------


def test_ingest_two_row_file(tmp_path):
    path = _write(tmp_path, "a.csv", "substrate,velocity\n10,4\n10,6\n")
    table = ingest_csv(path)
    assert table.rows_in == 2 and table.rows_out == 2
    assert table.group is None and table.cluster is None
    assert np.array_equal(table.substrate, [10.0, 10.0])
    assert np.array_equal(table.velocity, [4.0, 6.0])
    assert table.dropped == {"sentinel": 0, "nonfinite": 0}
    ds = table.to_dataset()
    assert ds.n == 2


def test_ingest_drops_sentinel_rows(tmp_path):
    path = _write(
        tmp_path,
        "a.csv",
        "substrate,velocity\n10,4\n20,-9999\n-9999,5\n30,6\n",
    )
    table = ingest_csv(path)
    assert table.dropped["sentinel"] == 2
    assert table.rows_in == table.rows_out + sum(table.dropped.values())
    assert np.array_equal(table.substrate, [10.0, 30.0])


def test_ingest_drops_nonfinite_rows(tmp_path):
    path = _write(
        tmp_path, "a.csv", "substrate,velocity\n10,nan\n20,inf\n30,6\n"
    )
    table = ingest_csv(path)
    assert table.dropped["nonfinite"] == 2
    assert table.rows_out == 1


def test_ingest_cluster_labels(tmp_path):
    path = _write(
        tmp_path,
        "a.csv",
        "substrate,velocity,cluster\n1,2,b\n2,3,a\n3,4,b\n4,5,c\n",
    )
    table = ingest_csv(path)
    clustered = table.to_clustered()
    # first-appearance order
    assert clustered.cluster_ids == ("b", "a", "c")
    assert [c.n for c in clustered.clusters] == [2, 1, 1]


def test_ingest_group_panel_order(tmp_path):
    path = _write(
        tmp_path,
        "a.csv",
        "substrate,velocity,group\n1,2,x\n2,3,y\n3,4,x\n",
    )
    panel = ingest_csv(path).group_panel()
    assert list(panel) == ["x", "y"]
    assert panel["x"].n == 2 and panel["y"].n == 1


def test_group_panel_matches_label_masks():
    # Interleaved labels, one of them a single row: each label's Dataset is
    # the one a boolean mask over the whole column gives, bit for bit.
    rng = np.random.default_rng(3)
    labels = tuple(rng.choice(["b", "a", "c10", "c2"], size=400).tolist())
    labels = labels[:57] + ("z",) + labels[57:]
    table = InputTable(
        substrate=rng.uniform(0.0, 50.0, len(labels)),
        velocity=rng.normal(0.0, 10.0, len(labels)),
        group=labels,
        cluster=None,
        rows_in=len(labels),
        dropped={"sentinel": 0, "nonfinite": 0},
    )
    panel = table.group_panel()
    column = np.asarray(labels)
    assert list(panel) == list(dict.fromkeys(labels))
    for lab, data in panel.items():
        mask = column == lab
        assert data.s.tobytes() == table.substrate[mask].tobytes()
        assert data.y.tobytes() == table.velocity[mask].tobytes()
    assert panel["z"].n == 1


def test_ingest_missing_optional_columns(tmp_path):
    path = _write(tmp_path, "a.csv", "substrate,velocity\n1,2\n")
    table = ingest_csv(path)
    with pytest.raises(MissingColumn):
        table.to_clustered()
    with pytest.raises(MissingColumn):
        table.group_panel()


def test_ingest_custom_names_and_delimiter(tmp_path):
    path = _write(tmp_path, "a.csv", "conc;rate\n1;2\n3;4\n")
    table = ingest_csv(
        path,
        IngestOptions(substrate_col="conc", velocity_col="rate", delimiter=";"),
    )
    assert table.rows_out == 2
    for delimiter in (";;", ""):
        with pytest.raises(ValueError, match="one character"):
            IngestOptions(delimiter=delimiter)


def test_ingest_rejects_a_repeated_selected_column(tmp_path):
    # A selected column named twice is ambiguous; an unselected one is not read.
    for header in ("substrate,velocity,velocity", "substrate,velocity,group,group"):
        path = _write(tmp_path, "d.csv", f"{header}\n1,2,3,4\n")
        with pytest.raises(IngestError, match=repr(header.rsplit(",", 1)[1])):
            ingest_csv(path)
    path = _write(tmp_path, "u.csv", "substrate,velocity,note,note\n1,2,a,b\n")
    assert ingest_csv(path).rows_out == 1


def test_ingest_blank_lines_skipped(tmp_path):
    path = _write(tmp_path, "a.csv", "substrate,velocity\n1,2\n\n , \n3,4\n")
    table = ingest_csv(path)
    assert table.rows_in == 2 and table.rows_out == 2


def test_ingest_errors(tmp_path):
    with pytest.raises(MissingColumn):
        ingest_csv(_write(tmp_path, "m.csv", "conc,velocity\n1,2\n"))
    with pytest.raises(EmptyAfterFiltering):
        ingest_csv(_write(tmp_path, "e.csv", ""))
    with pytest.raises(EmptyAfterFiltering):
        ingest_csv(_write(tmp_path, "s.csv", "substrate,velocity\n1,-9999\n"))
    with pytest.raises(ParseError) as excinfo:
        ingest_csv(_write(tmp_path, "p.csv", "substrate,velocity\n1,2\nx,3\n"))
    assert excinfo.value.line == 3
    assert "line 3" in str(excinfo.value)
    with pytest.raises(ParseError) as excinfo:
        ingest_csv(_write(tmp_path, "w.csv", "substrate,velocity\n1\n"))
    assert excinfo.value.line == 2


# --- report serialization ---------------------------------------------------------


def _screen_doc(rng):
    s = np.geomspace(1.0, 150.0, 40)
    y = mm_mean(s, TRUTH) + rng.normal(0.0, 1.0, 40) * (s ** 0.25)
    from mmhet import Dataset

    data = Dataset(s=s, y=y)
    entries = screen_models(data)
    doc = ReportDocument(kind="screen", input_digest="0" * 64)
    doc.fits = screen_blocks(None, entries, data=data)
    return doc, entries


def test_json_round_trip(rng):
    doc, _ = _screen_doc(rng)
    parsed = json.loads(emit_report(doc, "json").decode("utf-8"))
    assert parsed == doc.to_dict()


def test_json_floats_survive_exactly(rng):
    doc, entries = _screen_doc(rng)
    parsed = json.loads(emit_report(doc, "json").decode("utf-8"))
    best = entries[0].result
    got = next(b for b in parsed["fits"] if b["rank"] == 1)
    assert got["vmax"] == best.params.vmax  # exact, not approx
    assert got["km"] == best.params.km
    assert got["aic"] == best.aic


def test_csv_layout(rng):
    doc, entries = _screen_doc(rng)
    text = emit_report(doc, "csv").decode("utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(FIT_CSV_COLUMNS)
    assert len(lines) == 1 + len(entries)
    first = lines[1].split(",")
    assert first[0] == "fit"
    # numeric cells round-trip through repr
    vmax_col = FIT_CSV_COLUMNS.index("vmax")
    assert float(first[vmax_col]) == entries[0].result.params.vmax


def _json_field(block: dict, column: str):
    """The JSON value a CSV fit column flattens."""
    if column == "record":
        return "fit"
    if column.startswith("ci_"):
        name, end = column[len("ci_"):].rsplit("_", 1)
        return block.get(f"ci_{name}", [None, None])[["lo", "hi"].index(end)]
    return block.get(column)


def test_csv_fit_cells_match_json_fields(rng):
    doc, _ = _screen_doc(rng)
    panel = generate_clustered(ClusterScenario(m=3, replications=1, master_seed=3), 0)
    cluster = fit_clustered(panel, VarianceSpec.power(0.5))
    doc.fits = [doc.fits[0], fit_block("plate", cluster), fit_block("bad", None, error="boom")]
    blocks = json.loads(emit_report(doc, "json"))["fits"]
    assert "tau2" in blocks[1] and blocks[1]["tau2"] is not None
    lines = emit_report(doc, "csv").decode("utf-8").strip().split("\n")
    assert lines[0] == ",".join(FIT_CSV_COLUMNS)
    assert len(lines) == 1 + len(blocks)
    for block, line in zip(blocks, lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(FIT_CSV_COLUMNS)
        for column, cell in zip(FIT_CSV_COLUMNS, cells):
            want = _json_field(block, column)
            if want is None:
                assert cell == "", column
            elif isinstance(want, bool):
                assert cell == ("true" if want else "false"), column
            else:
                assert type(want)(cell) == want, column


def test_text_report_ranks_ascending(rng):
    # one body line per candidate model, ordered by ascending AIC
    doc, entries = _screen_doc(rng)
    text = emit_report(doc, "text").decode("utf-8")
    labels = {e.spec.label() for e in entries}
    models_in_order = []
    for ln in text.split("\n"):
        parts = ln.split()
        if len(parts) > 2 and parts[0] == "-" and parts[1] in labels:
            models_in_order.append(parts[1])
    assert models_in_order == [e.spec.label() for e in entries]
    fitted = [e for e in entries if e.error is None]
    aics = [e.result.aic for e in fitted]
    assert aics == sorted(aics)
    assert text.startswith("mmhet report (screen)")


def test_emit_report_rejects_unknown_format(rng):
    doc, _ = _screen_doc(rng)
    with pytest.raises(ValueError):
        emit_report(doc, "yaml")


def test_fit_block_failure_shape():
    block = fit_block("lbl", None, error="boom")
    assert block["model"] is None
    assert block["converged"] is False
    assert block["error"] == "boom"


def _stdlib_json(doc: ReportDocument) -> bytes:
    return (json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")


# Text with the characters JSON escapes or that JSON syntax uses, and
# non-ASCII ones (a lone surrogate among them).
_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028,[]{}: \u00e9\u4e2d\ud800'),
    max_size=6,
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072014e-308,
        1e308, 1.7976931348623157e308, 0.1,
    ]),
)
# Values the standard library's encoding of to_dict() rejects with TypeError.
_REJECTED = st.sampled_from([
    {1, 2}, 1j, b"bytes", object(), np.complex128(1j), np.longdouble(1.5),
    np.array(0.0), np.array(2.5), {np.int64(1): 0.0}, {(1, 2): 0.0}, {"a": 1, 2: 1},
])
_LEAVES = st.one_of(
    _FLOATS,
    _TEXT,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    _FLOATS.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    ),
)
_KEYS = st.one_of(_TEXT, st.integers(), _FLOATS, st.booleans(), st.none())
_VALUES = st.recursive(
    _LEAVES | _REJECTED,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES, _TEXT)
def test_json_emitter_matches_stdlib(value, label):
    # emit_report walks the document itself; its bytes are the standard
    # library's encoding of to_dict(), and it raises TypeError on whatever
    # that encoding rejects.
    doc = ReportDocument(kind="fit", input_digest=label, fits=[value], panel={label: value})
    try:
        want = _stdlib_json(doc)
    except TypeError:
        with pytest.raises(TypeError):
            emit_report(doc, "json")
    else:
        assert emit_report(doc, "json") == want


def test_json_emitter_matches_stdlib_on_every_report_kind(tmp_path, monkeypatch, rng):
    # The documents every command builds: a fit with a bootstrap and a
    # curve, screening, a group panel with a failed label and a noiseless
    # one (gamma = 0, so loglik = inf and aic = -inf), a clustered fit and
    # both benchmark suites.
    docs = []

    def recording(doc, fmt="json"):
        if fmt == "json":
            docs.append(doc)
        return emit_report(doc, fmt)

    monkeypatch.setattr(cli, "emit_report", recording)
    curve = _curve_csv(tmp_path, noise=1.5)
    s = np.geomspace(1.0, 150.0, 12)
    rows = ["substrate,velocity,group,cluster"]
    for c in range(4):
        y = (TRUTH.vmax + rng.normal(0.0, 3.0)) * s / (TRUTH.km + s) + rng.normal(0.0, 1.5, s.size)
        rows += [f"{float(si)!r},{float(yi)!r},g\u00e9{c},c{c}" for si, yi in zip(s, y)]
    rows += [f"{float(si)!r},1.0,two levels,c0" for si in (1.0, 1.0, 2.0, 2.0)]
    s5 = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    rows += [f"{si!r},{si / (1.0 + si)!r},noiseless,c0" for si in s5.tolist()]
    panel = _write(tmp_path, "panel.csv", "\n".join(rows) + "\n")
    out = ["--format", "json", "--out", str(tmp_path / "out.json")]
    commands = [
        ["fit", "--input", curve, "--variance", "pow:0.5", "--bootstrap", "99", *out],
        ["screen", "--input", curve, *out],
        ["group", "--input", panel, *out],
        ["cluster", "--input", panel, "--variance", "pow:0.5", *out],
        ["benchmark", "--suite", "single", "--replications", "5", "--out", str(tmp_path / "s")],
        ["benchmark", "--suite", "clustered", "--replications", "5", "--out", str(tmp_path / "c")],
    ]
    assert [cli_dispatch(argv) for argv in commands] == [EXIT_OK] * len(commands)
    assert [doc.kind for doc in docs] == [
        "fit", "screen", "group", "cluster", "benchmark", "benchmark"
    ]
    for doc in docs:
        assert emit_report(doc, "json") == _stdlib_json(doc)
    fit, _, group = (doc.to_dict() for doc in docs[:3])
    assert "bootstrap" in fit["fits"][0] and "curve" in fit["fits"][0]
    blocks = {b["label"]: b for b in group["fits"] if b["rank"] in (None, 1)}
    assert blocks["two levels"]["model"] is None and blocks["two levels"]["error"]
    assert blocks["noiseless"]["gamma"] == 0.0 and blocks["noiseless"]["aic"] == -np.inf
    assert b"-Infinity" in emit_report(docs[2], "json")


# --- CLI ---------------------------------------------------------------------------


def test_cli_fit_noiseless_json(tmp_path):
    csv_path = _curve_csv(tmp_path)
    out = tmp_path / "fit.json"
    code = cli_dispatch(
        [
            "fit",
            "--input",
            csv_path,
            "--variance",
            "pow:0.5",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    block = doc["fits"][0]
    assert block["vmax"] == pytest.approx(100.0, abs=1e-6)
    assert block["km"] == pytest.approx(20.0, abs=1e-6)
    assert block["model"] == "pow:0.5"
    assert doc["ingest"]["rows_in"] == 30
    assert "curve" in block and len(block["curve"]["s"]) == 101


def test_cli_fit_with_bootstrap(tmp_path):
    csv_path = _curve_csv(tmp_path, noise=1.5)
    out = tmp_path / "fit.json"
    code = cli_dispatch(
        [
            "fit",
            "--input",
            csv_path,
            "--variance",
            "constant",
            "--bootstrap",
            "149",
            "--seed",
            "9",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    block = json.loads(out.read_text())["fits"][0]
    bs = block["bootstrap"]
    assert bs["replicates_used"] + bs["failures"] == 149
    assert sum(bs["failure_reasons"].values()) == bs["failures"]
    assert bs["ci_vmax"][0] < block["vmax"] < bs["ci_vmax"][1]


def test_cli_usage_errors(tmp_path):
    csv_path = _curve_csv(tmp_path)
    # unknown variance spec value
    assert (
        cli_dispatch(["fit", "--input", csv_path, "--variance", "gauss"])
        == EXIT_USAGE
    )
    # missing required flag
    assert cli_dispatch(["fit", "--input", csv_path]) == EXIT_USAGE
    # unknown subcommand
    assert cli_dispatch(["transmogrify"]) == EXIT_USAGE
    # out-of-range values, rejected by the validators of the configs they feed
    fit = ["fit", "--input", csv_path, "--variance", "constant"]
    assert cli_dispatch(fit + ["--alpha", "1.5"]) == EXIT_USAGE
    assert cli_dispatch(fit + ["--bootstrap", "10"]) == EXIT_USAGE
    assert cli_dispatch(fit + ["--bootstrap", "0", "--out", str(tmp_path / "f.json")]) == EXIT_OK
    assert cli_dispatch(
        ["benchmark", "--suite", "single", "--replications", "0", "--out", str(tmp_path / "b")]
    ) == EXIT_USAGE
    assert cli_dispatch(["simulate", "--n", "2"]) == EXIT_USAGE
    # negative seeds and replicate indices
    assert cli_dispatch(fit + ["--bootstrap", "99", "--seed", "-1"]) == EXIT_USAGE
    assert cli_dispatch(
        ["benchmark", "--suite", "single", "--seed", "-1", "--out", str(tmp_path / "b")]
    ) == EXIT_USAGE
    assert cli_dispatch(["simulate", "--seed", "-1"]) == EXIT_USAGE
    assert cli_dispatch(["simulate", "--replicate", "-1"]) == EXIT_USAGE
    # a delimiter must be one character
    assert cli_dispatch(fit + ["--delimiter", ";;"]) == EXIT_USAGE
    assert cli_dispatch(fit + ["--delimiter", ""]) == EXIT_USAGE


def test_cli_data_errors(tmp_path):
    assert (
        cli_dispatch(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--variance", "constant"]
        )
        == EXIT_DATA
    )
    bad = _write(tmp_path, "bad.csv", "substrate,velocity\nx,y\n")
    assert cli_dispatch(["fit", "--input", bad, "--variance", "constant"]) == EXIT_DATA
    twice = _write(tmp_path, "twice.csv", "substrate,velocity,velocity\n1,2,3\n")
    assert cli_dispatch(["fit", "--input", twice, "--variance", "constant"]) == EXIT_DATA


def test_cli_nonconverged_still_writes_report(tmp_path):
    flat = _write(tmp_path, "flat.csv", "substrate,velocity\n1,1\n2,1\n4,1\n8,1\n")
    out = tmp_path / "flat.json"
    code = cli_dispatch(
        [
            "fit",
            "--input",
            flat,
            "--variance",
            "constant",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_NONCONVERGED
    doc = json.loads(out.read_text())
    block = doc["fits"][0]
    assert block["error"]
    assert block["solver"]["used_root"] is False
    assert np.isfinite(block["vmax"])


def test_cli_screen_and_group(tmp_path, rng):
    # screen: ranked JSON report
    s = np.geomspace(1.0, 150.0, 40)
    y = mm_mean(s, TRUTH) + rng.normal(0.0, 1.0, 40)
    rows = ["substrate,velocity,group"]
    rows += [f"{float(si)!r},{float(yi)!r},g{i % 2}" for i, (si, yi) in enumerate(zip(s, y))]
    path = _write(tmp_path, "panel.csv", "\n".join(rows) + "\n")

    out = tmp_path / "screen.json"
    assert (
        cli_dispatch(
            ["screen", "--input", path, "--format", "json", "--out", str(out)]
        )
        == EXIT_OK
    )
    fits = json.loads(out.read_text())["fits"]
    ranked = [b for b in fits if b["rank"] is not None]
    assert [b["rank"] for b in ranked] == list(range(1, len(ranked) + 1))
    aics = [b["aic"] for b in ranked]
    assert aics == sorted(aics)

    out2 = tmp_path / "group.json"
    assert (
        cli_dispatch(
            ["group", "--input", path, "--format", "json", "--out", str(out2)]
        )
        == EXIT_OK
    )
    doc = json.loads(out2.read_text())
    assert set(doc["panel"]["best_by_label"]) == {"g0", "g1"}
    assert doc["panel"]["summary"]

    # candidate lists whose labels repeat are usage errors
    for text in ("pow:0.3333333,pow:0.33333333", "pow:0.5,pow:0.5"):
        for command in ("screen", "group"):
            assert cli_dispatch([command, "--input", path, "--candidates", text]) == EXIT_USAGE


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_group_report_identical_across_block_sizes(tmp_path, monkeypatch):
    # Screening rows share blocks by curve length; each row's numbers come
    # from its own values only, so the report does not depend on the block
    # size: BLOCK_ROWS, the refinement chunk, or BLOCK_CELLS, the grid
    # block, down to one row per grid block.  Labels are interleaved in the
    # file; the 600-point curve gets a block of its own at every size.
    rng = np.random.default_rng(8)
    curves = []
    for i, n in enumerate([6] * 9 + [11] * 20 + [17] * 3 + [600]):
        s = np.geomspace(rng.uniform(0.2, 2.0), rng.uniform(50.0, 300.0), n)
        y = mm_mean(s, MMParams(rng.uniform(20.0, 200.0), rng.uniform(5.0, 40.0)))
        curves.append((f"g{i}", s, y + rng.normal(0.0, 0.03, n) * y.mean()))
    curves.append(("huge", curves[10][1], 1e155 * curves[10][2]))
    curves.append(("flat", curves[11][1], np.full(11, 3.0)))
    curves.append(("falling", curves[12][1], -curves[12][2]))
    rows = [
        f"{float(s[j])!r},{float(y[j])!r},{label}"
        for j in range(600)
        for label, s, y in curves
        if j < s.size
    ]
    path = _write(tmp_path, "panel.csv", "substrate,velocity,group\n" + "\n".join(rows) + "\n")
    reports = []
    one_row = single.GRID_POINTS * 6  # cells of one row of the shortest curves
    for block, cells in [(1, None), (7, None), (128, None), (7, one_row), (128, one_row)]:
        monkeypatch.setattr(single, "BLOCK_ROWS", block)
        if cells is not None:
            monkeypatch.setattr(single, "BLOCK_CELLS", cells)
        out = tmp_path / f"group{block}-{cells}.json"
        argv = ["group", "--input", path, "--format", "json", "--out", str(out)]
        assert cli_dispatch(argv) == EXIT_OK
        reports.append(out.read_bytes())
    assert all(report == reports[0] for report in reports)
    doc = json.loads(reports[0])
    assert set(doc["panel"]["best_by_label"]) == {label for label, _, _ in curves[:-3]}


def test_cli_cluster(tmp_path, rng):
    s = np.geomspace(2.0, 120.0, 12)
    rows = ["substrate,velocity,cluster"]
    for c in range(4):
        shift = rng.normal(0.0, 3.0)
        y = (TRUTH.vmax + shift) * s / (TRUTH.km + s) + rng.normal(0.0, 1.5, s.size)
        rows += [f"{float(si)!r},{float(yi)!r},c{c}" for si, yi in zip(s, y)]
    path = _write(tmp_path, "clusters.csv", "\n".join(rows) + "\n")
    out = tmp_path / "cluster.json"
    code = cli_dispatch(
        [
            "cluster",
            "--input",
            path,
            "--variance",
            "pow:0.5",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    block = json.loads(out.read_text())["fits"][0]
    assert "tau2" in block
    assert block["converged"] is True
    assert block["vmax"] == pytest.approx(100.0, rel=0.2)


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    # cli_dispatch keeps the parser of its first call; a usage error between
    # two identical calls leaves the second report the same bytes.
    built = []

    def counted():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        s = np.geomspace(2.0, 120.0, 12)
        rng = np.random.default_rng(7)
        rows = ["substrate,velocity,plate"]
        for c in range(4):
            y = (TRUTH.vmax + rng.normal(0.0, 3.0)) * s / (TRUTH.km + s) + rng.normal(0.0, 1.5, s.size)
            rows += [f"{float(si)!r},{float(yi)!r},p{c}" for si, yi in zip(s, y)]
        path = _write(tmp_path, "plates.csv", "\n".join(rows) + "\n")
        call = ["cluster", "--input", path, "--cluster-col", "plate", "--variance", "pow:0.5",
                "--format", "json", "--out"]
        assert cli_dispatch(call + [str(tmp_path / "first.json")]) == EXIT_OK
        assert cli_dispatch(["cluster", "--input", path, "--alpha", "2"]) == EXIT_USAGE
        assert cli_dispatch(call + [str(tmp_path / "second.json")]) == EXIT_OK
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_cli_simulate_round_trips(tmp_path):
    out = tmp_path / "sim.csv"
    code = cli_dispatch(
        [
            "simulate",
            "--scenario",
            "hill",
            "--n",
            "25",
            "--seed",
            "17",
            "--replicate",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    table = ingest_csv(out)
    want = generate_single(
        SingleScenario(shape="hill", n=25, replications=3, master_seed=17), 2
    )
    assert np.array_equal(table.substrate, want.s)
    assert np.array_equal(table.velocity, want.y)  # repr round-trip is exact


def test_cli_benchmark_byte_identical(tmp_path):
    args = [
        "benchmark",
        "--suite",
        "single",
        "--replications",
        "8",
        "--seed",
        "7",
    ]
    outs = []
    for tag in ("one", "two"):
        stem = tmp_path / tag
        assert cli_dispatch(args + ["--out", str(stem)]) == EXIT_OK
        outs.append((stem.with_suffix(".json").read_bytes(), stem.with_suffix(".csv").read_bytes()))
    assert outs[0] == outs[1]
    header = outs[0][1].decode("utf-8").split("\n")[0]
    assert header == ",".join(METRIC_CSV_COLUMNS)
    doc = json.loads(outs[0][0].decode("utf-8"))
    assert doc["benchmark"]["suite"] == "single"
    assert {row["scenario"] for row in doc["benchmark"]["rows"]} == {"mm", "exp", "hill"}
    # timing excluded from the canonical document
    assert all(row["mean_runtime_s"] is None for row in doc["benchmark"]["rows"])


def test_cli_benchmark_default_seed_is_master_seed(tmp_path):
    # Omitting --seed runs the shipped reference configuration.
    args = ["benchmark", "--suite", "single", "--replications", "2"]
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    assert cli_dispatch(args + ["--out", str(default)]) == EXIT_OK
    seed = ["--seed", str(DEFAULT_MASTER_SEED)]
    assert cli_dispatch(args + seed + ["--out", str(explicit)]) == EXIT_OK
    for suffix in (".json", ".csv"):
        assert (
            default.with_suffix(suffix).read_bytes()
            == explicit.with_suffix(suffix).read_bytes()
        )


def test_cli_screen_recovers_generative_shape(tmp_path):
    # sqrt(s)-shaped noise should put pow:0.5 at rank 1 in at least 90 of
    # 100 seeded runs of the full ingest -> screen -> report pipeline.
    s = np.repeat(np.geomspace(0.5, 2000.0, 40), 6)
    wins = 0
    out = tmp_path / "screen.json"
    for p in range(100):
        rng = np.random.default_rng((97, 1, p))
        y = mm_mean(s, TRUTH) + rng.normal(0.0, 1.0, s.size) * np.sqrt(4.0 * np.sqrt(s))
        rows = ["substrate,velocity"]
        rows += [f"{float(si)!r},{float(yi)!r}" for si, yi in zip(s, y)]
        path = _write(tmp_path, "screen_in.csv", "\n".join(rows) + "\n")
        assert (
            cli_dispatch(
                ["screen", "--input", path, "--format", "json", "--out", str(out)]
            )
            == EXIT_OK
        )
        fits = json.loads(out.read_text())["fits"]
        best = next(b for b in fits if b["rank"] == 1)
        wins += best["model"] == "pow:0.5"
    assert wins >= 90


def test_console_entry_point(tmp_path):
    exe = shutil.which("mmhet")
    assert exe is not None, "console script not installed"
    csv_path = _curve_csv(tmp_path)
    proc = subprocess.run(
        [exe, "fit", "--input", csv_path, "--variance", "constant", "--format", "json"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout.decode("utf-8"))
    assert doc["fits"][0]["vmax"] == pytest.approx(100.0, abs=1e-6)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency.
    env = {**os.environ, "PYTHONPATH": str(Path(mmhet.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import mmhet, sys; assert 'scipy' not in sys.modules"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8")


_NO_NUMPY_MA = """
import sys
from mmhet.cli import cli_dispatch
path, out = sys.argv[1], sys.argv[2]
io = ["--input", path, "--format", "json", "--out"]
commands = [
    ["fit", "--variance", "pow:0.5", "--bootstrap", "99", *io, out + "/fit.json"],
    ["screen", *io, out + "/screen.json"],
    ["group", *io, out + "/group.json"],
    ["cluster", "--variance", "pow:0.5", *io, out + "/cluster.json"],
    ["benchmark", "--suite", "single", "--replications", "5", "--out", out + "/single"],
    ["benchmark", "--suite", "clustered", "--replications", "5", "--out", out + "/clustered"],
]
codes = [cli_dispatch(argv) for argv in commands]
assert codes == [0] * len(commands), codes
assert "numpy.ma" not in sys.modules
"""


def test_commands_leave_numpy_ma_unloaded(tmp_path, rng):
    # numpy imports numpy.ma lazily, on the first np.unique or np.quantile
    # call.  A signal handler that runs numpy code (a sampling profiler, a
    # periodic probe) and lands inside that import sends numpy's module
    # __getattr__ into endless recursion, which escapes into the command.
    # So no command imports it partway through.
    s = np.geomspace(2.0, 120.0, 12)
    rows = ["substrate,velocity,group,cluster"]
    for c in range(4):
        shift = rng.normal(0.0, 3.0)
        y = (TRUTH.vmax + shift) * s / (TRUTH.km + s) + rng.normal(0.0, 1.5, s.size)
        rows += [f"{float(si)!r},{float(yi)!r},g{c},c{c}" for si, yi in zip(s, y)]
    path = _write(tmp_path, "panel.csv", "\n".join(rows) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(mmhet.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MA, path, str(tmp_path)],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
