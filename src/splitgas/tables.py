"""Self-describing numeric result tables.

Every emitted file is a CSV with a leading provenance comment block (tool
version, command, config hash, truncation, seed, row/column counts) and a
header row whose column names carry their units.  Formatting is fixed at
12 significant digits, so identical inputs produce byte-identical files.
A JSON mirror with the same provenance and rows can be written alongside;
it is strict JSON, with null for the cells the CSV prints as nan or inf.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["ResultTable", "write_table", "read_table", "validate_table"]


def _fmt(x: float) -> str:
    # float's own spelling of the non-finite values is nan, inf and -inf
    return format(float(x), ".12g")


def _json_cell(x: float) -> float | None:
    value = float(_fmt(x))
    return value if math.isfinite(value) else None


@dataclass
class ResultTable:
    """Column-oriented numeric table plus ordered provenance lines."""

    columns: list
    rows: list                       # list of per-row sequences of floats
    provenance: list = field(default_factory=list)  # ordered (key, value)

    def __post_init__(self):
        ncol = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != ncol:
                raise ConfigError(
                    f"row {i} has {len(row)} cells, expected {ncol}")
        for what, names in (("column", self.columns),
                            ("provenance key", [k for k, _ in self.provenance])):
            seen = set()
            for name in names:
                if name in seen:
                    raise ConfigError(f"duplicate {what} {name!r}")
                seen.add(name)

    def to_csv(self) -> str:
        lines = [f"# {k}: {v}" for k, v in self.provenance]
        lines.append(f"# columns: {len(self.columns)}")
        lines.append(f"# rows: {len(self.rows)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(map(_fmt, row)))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "provenance": {k: v for k, v in self.provenance},
            "columns": list(self.columns),
            "rows": [[_json_cell(x) for x in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_table(table: ResultTable, path: str, json_mirror: bool = False) -> None:
    """Check the CSV text as :func:`validate_table` checks a file, then write
    it (and the optional JSON mirror) once.  If a write fails, the regular
    files this call opened are removed before the OSError propagates."""
    text = table.to_csv()
    _check(path, *_parse(path, text.splitlines()))
    files = [(path, text)] + ([(str(path) + ".json", table.to_json())] if json_mirror else [])
    opened = []
    try:
        for name, body in files:
            with open(name, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(name)
                fh.write(body)
    except OSError:
        for name in filter(os.path.isfile, opened):   # never a device such as /dev/null
            os.remove(name)
        raise


def _parse(path: str, lines):
    provenance = []
    columns = None
    rows = []
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" not in body:
                raise ConfigError(f"{path}: malformed provenance line {line!r}")
            key, value = body.split(":", 1)
            provenance.append((key.strip(), value.strip()))
        elif columns is None:
            columns = line.split(",")
        else:
            cells = line.split(",")
            try:
                rows.append([float(x) for x in cells])
            except ValueError:
                j = next(j for j, x in enumerate(cells) if not _is_number(x))
                column = repr(columns[j]) if j < len(columns) else str(j)
                raise ConfigError(f"{path}: row {len(rows)}, column {column}: "
                                  f"{cells[j]!r} is not a number") from None
    if columns is None:
        raise ConfigError(f"{path}: no header row found")
    return provenance, columns, rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_table(path: str):
    """Parse an emitted CSV back into (provenance, columns, rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(path, fh)


def validate_table(path: str) -> None:
    """Re-read an emitted file and verify its self-description.

    Checks: provenance block present, declared column/row counts match the
    payload, every column is named, and every cell parses as a number.
    """
    _check(path, *read_table(path))


def _check(path: str, provenance, columns, rows) -> None:
    keys = dict(provenance)
    if "columns" not in keys or "rows" not in keys:
        raise ConfigError(f"{path}: provenance must declare column and row counts")
    if int(keys["columns"]) != len(columns):
        raise ConfigError(
            f"{path}: declared {keys['columns']} columns, header has {len(columns)}")
    if int(keys["rows"]) != len(rows):
        raise ConfigError(
            f"{path}: declared {keys['rows']} rows, found {len(rows)}")
    if any(not c for c in columns):
        raise ConfigError(f"{path}: empty column name in header")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ConfigError(f"{path}: row {i} width mismatch")
