"""Core domain types, the customer-table format, and the one CSV codec for every file.

A customer table is comma-separated UTF-8 text (RFC 4180 quoting) with a
header row: ``id,<feature columns...>,fl_label,churn_outcome,audio_ref``.
The header names the features; only its fixed first and last columns are
checked, and a feature name may not repeat. Feature cells must be numeric
('.' decimal separator); the three trailing columns may be empty. Missing
feature values are rejected, not imputed. In memory the table is columnar
and keeps its feature names. An empty trailing cell reads as NaN in
`fl_label` (unlabelled), -1 in `churn_outcome` (unknown) or None in
`audio_ref` (no clip); a `nan` literacy or `-1` churn cell is rejected.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DuplicateId, SchemaMismatch, UnknownLabel

POSITIVE_LABELS = ("Happiness", "Neutral")
NEGATIVE_LABELS = ("Sadness", "Anger")

RISK_LABELS = ("low", "mid", "high")

TRAILING_COLUMNS = ("fl_label", "churn_outcome", "audio_ref")


def map_emotion_to_binary(label: str) -> int:
    """0 for Happiness/Neutral, 1 for Sadness/Anger."""
    if label in POSITIVE_LABELS:
        return 0
    if label in NEGATIVE_LABELS:
        return 1
    raise UnknownLabel(f"unsupported emotion label: {label!r}")


def csv_bytes(rows) -> bytes:
    """Rows as CSV: RFC 4180 quoting, `\n` line ends, UTF-8.

    The writer quotes a cell holding a character of its line terminator, so
    it writes `\r\n` rows, quoting a lone `\r` as RFC 4180 asks; each row's
    terminator is then cut to `\n`.
    """
    row, lines = io.StringIO(), []
    writer = csv.writer(row, lineterminator="\r\n")
    for cells in rows:
        writer.writerow(cells)
        lines.append(row.getvalue()[:-2] + "\n")
        row.seek(0)
        row.truncate()
    return "".join(lines).encode("utf-8")


def csv_rows(raw: bytes) -> list[list[str]]:
    """The rows of UTF-8 CSV bytes, blank rows skipped; inverse of csv_bytes."""
    reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
    try:
        return [row for row in reader if row]
    except csv.Error as exc:  # as for a cell over csv.field_size_limit()
        raise SchemaMismatch(f"CSV line {reader.line_num}: {exc}") from exc


def _column(values, dtype, shape: tuple[int, ...], name: str) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    if out.shape != shape:
        raise SchemaMismatch(f"{name} has shape {out.shape}, names and ids give {shape}")
    out.flags.writeable = False
    return out


def _require(ok, ids: tuple[str, ...], problem: str) -> None:
    if not np.all(ok):
        raise ValueError(f"{problem} in record {ids[int(np.argmin(ok))]!r}")


@dataclass(frozen=True, eq=False)
class CustomerTable:
    """Feature names plus read-only columns, one entry per customer; ids unique, order kept."""

    feature_names: tuple[str, ...]
    ids: tuple[str, ...]
    features: np.ndarray
    fl_label: np.ndarray
    churn_outcome: np.ndarray
    audio_ref: tuple[str | None, ...]

    def __post_init__(self):
        names, ids = tuple(self.feature_names), tuple(self.ids)
        n = len(ids)
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature column names")
        if not all(ids):
            raise ValueError("id must be non-empty")
        if len(set(ids)) != n:
            duplicate = next(cid for cid, count in Counter(ids).items() if count > 1)
            raise DuplicateId(f"duplicate id {duplicate!r}")
        features = _column(self.features, np.float64, (n, len(names)), "features")
        fl_label = _column(self.fl_label, np.float64, (n,), "fl_label")
        churn_outcome = _column(self.churn_outcome, np.int64, (n,), "churn_outcome")
        audio_ref = tuple(_column(self.audio_ref, object, (n,), "audio_ref"))
        _require(np.isfinite(features).all(axis=1), ids, "non-finite feature")
        _require(~((fl_label < 0.0) | (fl_label > 1.0)), ids, "fl_label outside [0, 1]")
        # raw values: the int64 cast above would truncate a fraction
        _require(np.isin(self.churn_outcome, (-1, 0, 1)), ids, "churn_outcome not in {-1, 0, 1}")
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "fl_label", fl_label)
        object.__setattr__(self, "churn_outcome", churn_outcome)
        object.__setattr__(self, "audio_ref", audio_ref)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> "CustomerTable":
        """The rows at `index` (a boolean mask or integer positions), in that order."""
        return CustomerTable(
            self.feature_names,
            tuple(np.array(self.ids, dtype=object)[index]),
            self.features[index],
            self.fl_label[index],
            self.churn_outcome[index],
            tuple(np.array(self.audio_ref, dtype=object)[index]),
        )


def _parse_optional_float(cell: str, column: str, row_id: str, missing: float) -> float:
    if cell == "":
        return missing
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # NaN marks a missing value in memory
        raise ValueError(f"non-numeric {column} {cell!r} in row {row_id!r}")
    return value


def parse_customer_table(raw: bytes) -> CustomerTable:
    """Parse delimited text into a validated table, preserving row order.

    The feature names are read from the header.
    """
    rows = csv_rows(raw)
    if not rows:
        raise SchemaMismatch("empty input: missing header row")
    header = tuple(rows[0])
    if header[:1] != ("id",) or header[-3:] != TRAILING_COLUMNS:
        raise SchemaMismatch(
            f"header {header} does not read id,<features...>,{','.join(TRAILING_COLUMNS)}"
        )
    names = header[1:-3]

    ids, feats, fl_labels, churn_outcomes, audio_refs = [], [], [], [], []
    for cells in rows[1:]:
        if len(cells) != len(header):
            raise SchemaMismatch(f"row has {len(cells)} cells, expected {len(header)}")
        row_id = cells[0]
        for name, cell in zip(names, cells[1:-3]):
            if cell == "":
                raise ValueError(f"missing value in column {name!r}, row {row_id!r}")
            try:
                feats.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"non-numeric cell {cell!r} in column {name!r}, row {row_id!r}"
                ) from None
        fl_cell, churn_cell, audio_cell = cells[-3:]
        fl_labels.append(_parse_optional_float(fl_cell, "fl_label", row_id, math.nan))
        churn_outcome = _parse_optional_float(churn_cell, "churn_outcome", row_id, -1.0)
        if churn_cell != "" and churn_outcome not in (0.0, 1.0):
            raise ValueError(f"churn_outcome {churn_cell!r} not in {{0, 1}}, row {row_id!r}")
        ids.append(row_id)
        churn_outcomes.append(int(churn_outcome))
        audio_refs.append(audio_cell or None)
    return CustomerTable(
        names,
        tuple(ids),
        np.array(feats, dtype=np.float64).reshape(len(ids), len(names)),
        np.array(fl_labels, dtype=np.float64),
        np.array(churn_outcomes, dtype=np.int64),
        tuple(audio_refs),
    )


def serialize_customer_table(table: CustomerTable) -> bytes:
    """Inverse of parse_customer_table (round-trips exactly)."""
    # repr gives the shortest round-trip decimal, keeping files byte-stable
    fl_cells = ["" if math.isnan(v) else repr(v) for v in table.fl_label.tolist()]
    churn_cells = ["" if v < 0 else str(v) for v in table.churn_outcome.tolist()]
    header = ("id", *table.feature_names, *TRAILING_COLUMNS)
    rows = zip(table.ids, table.features.tolist(), fl_cells, churn_cells, table.audio_ref)
    return csv_bytes(
        chain([header], ([cid, *map(repr, f), fl, ch, ref or ""] for cid, f, fl, ch, ref in rows))
    )
