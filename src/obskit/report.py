"""Deterministic report structures and their serializations.

A report bundle carries the scenario's tables, pass/fail verdicts, a
constants block, and enough to reproduce it (config digest, seed, toolkit
version).  Serialization is deterministic: no timestamps,
fixed key order, repr-exact floats in JSON (lossless round-trip) and
17-significant-digit scientific notation in CSV.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

from .errors import NumericError

CSV_FLOAT_FORMAT = ".17e"
HUMAN_SIG_DIGITS = 6


@dataclass(frozen=True)
class Table:
    """A named rectangular table; cells are numbers or strings."""

    name: str
    columns: list[str]
    rows: list[list]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r} row {i} has {len(row)} cells "
                    f"for {len(self.columns)} columns"
                )


@dataclass(frozen=True)
class Verdict:
    """One named pass/fail check with a human-readable detail line."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class ReportBundle:
    """Everything one scenario run produced."""

    scenario: str
    toolkit_version: str
    config_sha256: str
    seed: int
    constants: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 2


def _csv_cell(value) -> str:
    if value is not None and not isinstance(value, (bool, int, float, str)):
        value = _json_default(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, CSV_FLOAT_FORMAT)
    return str(value)


def _json_default(value):
    """A numpy scalar or 0-d array as its Python scalar; anything else is a TypeError."""
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "ndim", 0) == 0:
        return item()
    raise TypeError(f"cannot serialize {type(value).__name__} into a report; values are scalars")


def _dumps(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2)``, laid out as if nested ``level`` deep."""
    text = json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False, default=_json_default)
    return text.replace("\n", "\n" + "  " * level)


# One C-encoder call per table: cells and rows are separated by a NUL, which
# JSON writes as \u0000 inside a string, so a raw NUL is always a separator,
# and since cells are scalars a ']' right before one always ends a row.
_ROWS_ENCODER = json.JSONEncoder(
    ensure_ascii=False, allow_nan=False, separators=("\x00", ":"), default=_json_default
)
# Where lines of ``tables.NAME.rows`` start in the indent-2 layout: each row,
# each of its cells, and the bracket that closes the rows.
_ROW = "\n        "
_CELL = _ROW + "  "
_ROWS_END = "\n      ]"


def _reject_nonfinite(labelled) -> None:
    """Raise a NumericError naming the first NaN or infinity among ``(label, value)`` pairs."""
    for label, value in labelled:
        try:
            finite = math.isfinite(value)
        except (TypeError, ValueError, OverflowError):
            continue
        if not finite:
            raise NumericError(f"{label} is {value!r}, which a JSON report cannot hold")


def _reject_containers(table: Table) -> None:
    """Raise a TypeError naming the table if a cell is a list, tuple or dict."""
    for kind in set(map(type, itertools.chain.from_iterable(table.rows))):
        if issubclass(kind, (list, tuple, dict)):
            raise TypeError(f"table {table.name!r} has a {kind.__name__} cell; cells are scalars")


def _rows_text(table: Table) -> str:
    """``table.rows`` as ``json.dumps(indent=2)`` lays it out inside a report."""
    rows = table.rows
    if not rows:
        return "[]"
    if not table.columns:  # "[]\x00[]" has no cell for the replaces to lay out
        return "[" + ",".join([_ROW + "[]"] * len(rows)) + _ROWS_END
    _reject_containers(table)
    try:
        flat = _ROWS_ENCODER.encode(rows)
    except ValueError:
        _reject_nonfinite(
            (f"table {table.name!r} row {i} column {column!r}", cell)
            for i, row in enumerate(rows)
            for column, cell in zip(table.columns, row)
        )
        raise
    flat = flat[2:-2].replace("]\x00[", _ROW + "]," + _ROW + "[" + _CELL)
    return "[" + _ROW + "[" + _CELL + flat.replace("\x00", "," + _CELL) + _ROW + "]" + _ROWS_END


def bundle_to_json_text(bundle: ReportBundle) -> str:
    """Canonical JSON serialization; byte-identical for identical inputs.

    The text is ``json.dumps(payload, indent=2, ensure_ascii=False)`` of the
    whole report.  Everything but the table rows goes through that call; each
    table's rows go through one C-encoder call and are laid out to match.
    Cells must be scalars (a list, tuple or dict cell is a ``TypeError``), and
    a NaN or infinity anywhere is a :class:`NumericError` naming its place.
    """
    head = {
        "toolkit": {"name": "obskit", "version": bundle.toolkit_version},
        "scenario": bundle.scenario,
        "seed": bundle.seed,
        "config_sha256": bundle.config_sha256,
        "constants": bundle.constants,
        "notes": bundle.notes,
        "verdicts": [
            {"name": v.name, "passed": v.passed, "detail": v.detail} for v in bundle.verdicts
        ],
    }
    try:
        text = _dumps(head)
    except ValueError:
        _reject_nonfinite((f"constant {key!r}", value) for key, value in bundle.constants.items())
        raise
    # A name that repeats keeps its first place and its last table, as in a dict.
    tables = [
        f'    {_dumps(name)}: {{\n      "columns": {_dumps(table.columns, 3)},\n'
        f'      "rows": {_rows_text(table)}\n    }}'
        for name, table in {t.name: t for t in bundle.tables}.items()
    ]
    tables_text = "{\n" + ",\n".join(tables) + "\n  }" if tables else "{}"
    return text[:-2] + ',\n  "tables": ' + tables_text + "\n}\n"  # text ends in "\n}"


def table_to_csv_text(table: Table) -> str:
    """CSV with a header row, '.' decimal separator, '\\n' line endings.

    Cells must be scalars, as in ``bundle_to_json_text``: a list, tuple or
    dict cell, or any other value that is not a scalar, is a ``TypeError``.
    """
    _reject_containers(table)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


def bundle_to_csv_texts(bundle: ReportBundle) -> dict[str, str]:
    """All tables plus verdicts and constants, each as one CSV document."""
    out = {table.name: table_to_csv_text(table) for table in bundle.tables}
    out["verdicts"] = table_to_csv_text(
        Table(
            name="verdicts",
            columns=["name", "passed", "detail"],
            rows=[[v.name, v.passed, v.detail] for v in bundle.verdicts],
        )
    )
    out["constants"] = table_to_csv_text(
        Table(
            name="constants",
            columns=["name", "value"],
            rows=[[key, value] for key, value in bundle.constants.items()],
        )
    )
    return out


def _human_number(value) -> str:
    if isinstance(value, float):
        return format(value, f".{HUMAN_SIG_DIGITS}g")
    return str(value)


def bundle_summary_text(bundle: ReportBundle) -> str:
    """Short human summary: verdict lines plus headline constants (6 digits)."""
    lines = [f"scenario: {bundle.scenario}   seed: {bundle.seed}"]
    for key, value in bundle.constants.items():
        if isinstance(value, (int, float)):
            lines.append(f"  {key} = {_human_number(value)}")
    for note in bundle.notes:
        lines.append(f"  note: {note}")
    for v in bundle.verdicts:
        status = "PASS" if v.passed else "FAIL"
        detail = f" — {v.detail}" if v.detail else ""
        lines.append(f"{status} {v.name}{detail}")
    lines.append("all verdicts passed" if bundle.all_passed else "SOME VERDICTS FAILED")
    return "\n".join(lines) + "\n"
