"""CSV ingestion with sentinel handling and loss accounting.

Expected shape: a header row naming at least the substrate and velocity
columns (defaults ``substrate`` and ``velocity``, remappable for exports
that use assay-specific names), plus optional ``group`` and ``cluster``
label columns.  Rows whose substrate or velocity equals the -9999 sentinel
or parses non-finite are dropped and counted by reason, so rows_in always
equals rows_out plus the recorded drops.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ClusteredDataset, Dataset, _group_by_label
from .exceptions import EmptyAfterFiltering, IngestError, MissingColumn, ParseError

SENTINEL = -9999.0


@dataclass(frozen=True)
class IngestOptions:
    substrate_col: str = "substrate"
    velocity_col: str = "velocity"
    group_col: str = "group"
    cluster_col: str = "cluster"
    delimiter: str = ","

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True, eq=False)
class InputTable:
    substrate: np.ndarray
    velocity: np.ndarray
    group: tuple[str, ...] | None
    cluster: tuple[str, ...] | None
    rows_in: int
    dropped: dict[str, int]

    @property
    def rows_out(self) -> int:
        return int(self.substrate.size)

    def drop_summary(self) -> dict:
        return {"rows_in": self.rows_in, "rows_out": self.rows_out, **self.dropped}

    def to_dataset(self) -> Dataset:
        return Dataset(self.substrate, self.velocity)

    def to_clustered(self) -> ClusteredDataset:
        if self.cluster is None:
            raise MissingColumn("no cluster column was ingested")
        return ClusteredDataset.from_labels(self.substrate, self.velocity, self.cluster)

    def group_panel(self) -> dict[str, Dataset]:
        """Label -> Dataset, labels ordered by first appearance and each
        label's rows in file order."""
        if self.group is None:
            raise MissingColumn("no group column was ingested")
        return _group_by_label(self.substrate, self.velocity, self.group)


def _parse_cell(raw: str, column: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(
            f"line {line}: column {column!r} value {raw!r} is not a number",
            line=line,
        ) from None


def ingest_csv(path: str | Path, options: IngestOptions | None = None) -> InputTable:
    """Read one CSV file into arrays plus per-reason drop counts."""
    options = options if options is not None else IngestOptions()
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=options.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyAfterFiltering(f"{path}: file is empty") from None
        header = [col.strip() for col in header]
        index = {col: i for i, col in enumerate(header)}
        for selected in (
            options.substrate_col, options.velocity_col, options.group_col, options.cluster_col
        ):
            if header.count(selected) > 1:
                raise IngestError(
                    f"{path}: column {selected!r} appears more than once in header {header}"
                )
        for required in (options.substrate_col, options.velocity_col):
            if required not in index:
                raise MissingColumn(
                    f"{path}: required column {required!r} missing from header {header}"
                )
        s_idx = index[options.substrate_col]
        v_idx = index[options.velocity_col]
        g_idx = index.get(options.group_col)
        c_idx = index.get(options.cluster_col)

        substrate: list[float] = []
        velocity: list[float] = []
        groups: list[str] = []
        clusters: list[str] = []
        rows_in = 0
        dropped = {"sentinel": 0, "nonfinite": 0}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            rows_in += 1
            if len(row) < len(header):
                raise ParseError(
                    f"line {line_no}: expected {len(header)} cells, got {len(row)}",
                    line=line_no,
                )
            s = _parse_cell(row[s_idx].strip(), options.substrate_col, line_no)
            v = _parse_cell(row[v_idx].strip(), options.velocity_col, line_no)
            if s == SENTINEL or v == SENTINEL:
                dropped["sentinel"] += 1
                continue
            if not (math.isfinite(s) and math.isfinite(v)):
                dropped["nonfinite"] += 1
                continue
            substrate.append(s)
            velocity.append(v)
            if g_idx is not None:
                groups.append(row[g_idx].strip())
            if c_idx is not None:
                clusters.append(row[c_idx].strip())

    if not substrate:
        raise EmptyAfterFiltering(
            f"{path}: no usable rows remain after filtering "
            f"(sentinel={dropped['sentinel']}, nonfinite={dropped['nonfinite']})"
        )
    return InputTable(
        substrate=np.asarray(substrate, dtype=np.float64),
        velocity=np.asarray(velocity, dtype=np.float64),
        group=tuple(groups) if g_idx is not None else None,
        cluster=tuple(clusters) if c_idx is not None else None,
        rows_in=rows_in,
        dropped=dropped,
    )
