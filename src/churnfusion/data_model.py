"""Core domain types and delimited-text ingestion.

A customer table is comma-separated UTF-8 text with a header row:
``id,<feature columns...>,fl_label,churn_outcome,audio_ref``.
Feature cells must be numeric ('.' decimal separator); the three trailing
columns may be empty. Missing feature values are rejected, not imputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateId, SchemaMismatch, UnknownLabel

POSITIVE_LABELS = ("Happiness", "Neutral")
NEGATIVE_LABELS = ("Sadness", "Anger")

RISK_LABELS = ("low", "mid", "high")


def map_emotion_to_binary(label: str) -> int:
    """0 for Happiness/Neutral, 1 for Sadness/Anger."""
    if label in POSITIVE_LABELS:
        return 0
    if label in NEGATIVE_LABELS:
        return 1
    raise UnknownLabel(f"unsupported emotion label: {label!r}")


@dataclass(frozen=True)
class CustomerRecord:
    """One customer row: tabular features plus optional labels and audio."""

    id: str
    features: tuple[float, ...]
    fl_label: float | None = None
    audio_ref: str | None = None
    churn_outcome: int | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("id must be non-empty")
        feats = tuple(float(v) for v in self.features)
        if not all(np.isfinite(feats)):
            raise ValueError(f"non-finite feature in record {self.id!r}")
        object.__setattr__(self, "features", feats)
        if self.fl_label is not None and not 0.0 <= self.fl_label <= 1.0:
            raise ValueError(f"fl_label outside [0, 1] in record {self.id!r}")
        if self.churn_outcome is not None and self.churn_outcome not in (0, 1):
            raise ValueError(f"churn_outcome not in {{0, 1}} in record {self.id!r}")


@dataclass(frozen=True)
class TableSchema:
    """Ordered feature column names; fixes the expected row width."""

    feature_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("duplicate feature column names")

    @property
    def width(self) -> int:
        return len(self.feature_names)

    @property
    def header(self) -> tuple[str, ...]:
        return ("id",) + self.feature_names + ("fl_label", "churn_outcome", "audio_ref")

    @classmethod
    def with_width(cls, n_features: int) -> "TableSchema":
        return cls(tuple(f"f{i}" for i in range(n_features)))


@dataclass(frozen=True)
class CustomerTable:
    """Schema plus validated rows with unique ids, order preserved."""

    schema: TableSchema
    rows: tuple[CustomerRecord, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen = set()
        for row in self.rows:
            if row.id in seen:
                raise DuplicateId(f"duplicate id {row.id!r}")
            seen.add(row.id)
            if len(row.features) != self.schema.width:
                raise SchemaMismatch(
                    f"record {row.id!r} has {len(row.features)} features, "
                    f"schema declares {self.schema.width}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def feature_matrix(self) -> np.ndarray:
        return np.array([r.features for r in self.rows], dtype=np.float64).reshape(
            len(self.rows), self.schema.width
        )

    def ids(self) -> list[str]:
        return [r.id for r in self.rows]


def _parse_optional_float(cell: str, column: str, row_id: str) -> float | None:
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"non-numeric {column} {cell!r} in row {row_id!r}") from None


def parse_customer_table(raw: bytes, schema: TableSchema) -> CustomerTable:
    """Parse delimited text into a validated table, preserving row order."""
    text = raw.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise SchemaMismatch("empty input: missing header row") from None
    if header != schema.header:
        raise SchemaMismatch(f"header {header} does not match schema {schema.header}")

    rows = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(schema.header):
            raise SchemaMismatch(f"row has {len(cells)} cells, expected {len(schema.header)}")
        row_id = cells[0]
        feats = []
        for name, cell in zip(schema.feature_names, cells[1 : 1 + schema.width]):
            if cell == "":
                raise ValueError(f"missing value in column {name!r}, row {row_id!r}")
            try:
                feats.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"non-numeric cell {cell!r} in column {name!r}, row {row_id!r}"
                ) from None
        fl_cell, churn_cell, audio_cell = cells[1 + schema.width :]
        fl_label = _parse_optional_float(fl_cell, "fl_label", row_id)
        churn_outcome = None
        if churn_cell != "":
            value = _parse_optional_float(churn_cell, "churn_outcome", row_id)
            if value not in (0.0, 1.0):
                raise ValueError(f"churn_outcome {churn_cell!r} not in {{0, 1}}, row {row_id!r}")
            churn_outcome = int(value)
        rows.append(
            CustomerRecord(
                id=row_id,
                features=tuple(feats),
                fl_label=fl_label,
                audio_ref=audio_cell or None,
                churn_outcome=churn_outcome,
            )
        )
    return CustomerTable(schema=schema, rows=tuple(rows))


def _fmt(value: float) -> str:
    # repr gives the shortest round-trip decimal, keeping files byte-stable
    return repr(float(value))


def serialize_customer_table(table: CustomerTable) -> bytes:
    """Inverse of parse_customer_table (round-trips exactly)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.schema.header)
    for row in table.rows:
        writer.writerow(
            [row.id]
            + [_fmt(v) for v in row.features]
            + [
                "" if row.fl_label is None else _fmt(row.fl_label),
                "" if row.churn_outcome is None else str(row.churn_outcome),
                row.audio_ref or "",
            ]
        )
    return out.getvalue().encode("utf-8")
