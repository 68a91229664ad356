"""Typed in-memory tables with multiset semantics.

A Table is a schema plus a multiset of rows.  Row order is an artifact of
construction and is never observable through the public operations here:
equality is multiset equality, and canonicalize produces the one fixed
ordering used wherever determinism matters (truncation).

Values are plain Python ints, floats, and strings.  Floats must be finite
and no cell may be empty.  Cells are checked where they enter: by
load_csv as it parses them, and by Table(...) / Table.of for tables built
from anything else (user tables, inline public tables, keysets, map
outputs).  Operations that only select, regroup, reorder or concatenate
rows of checked tables build their output with the private
Table._trusted, which skips the per-cell check; so do result tables,
whose cells are checked keys and values made legal by result_cell.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DuplicateColumn,
    HeaderMismatch,
    KeyTypeMismatch,
    MissingFile,
    MissingIdColumn,
    MissingKeyColumn,
    SchemaMismatch,
    TypeParseError,
    UnknownColumn,
)

Value = Union[int, float, str]
Row = tuple[Value, ...]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Locale-independent numeric literals: no underscores, no whitespace, no
# textual infinities.  Anything fancier than this is a parse error.
_INT_RE = re.compile(r"^-?[0-9]+$")
_FLOAT_RE = re.compile(r"^-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")


class ColumnType(enum.Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    TEXT = "text"

    @classmethod
    def from_name(cls, name: str) -> "ColumnType":
        for member in cls:
            if member.value == name:
                return member
        raise TypeParseError(f"unknown column type {name!r}")


@dataclass(frozen=True)
class Schema:
    """An ordered list of (name, type) columns with unique, non-empty names."""

    columns: tuple[tuple[str, ColumnType], ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaMismatch("a schema needs at least one column")
        names = [name for name, _ in self.columns]
        if any(not name for name in names):
            raise SchemaMismatch("column names must be non-empty")
        if len(set(names)) != len(names):
            raise DuplicateColumn(f"duplicate column names in {names}")

    @classmethod
    def of(cls, *columns: tuple[str, ColumnType]) -> "Schema":
        return cls(tuple(columns))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def type_of(self, name: str) -> ColumnType:
        for col, ctype in self.columns:
            if col == name:
                return ctype
        raise UnknownColumn(f"no column named {name!r}; have {list(self.names)}")

    def index_of(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise UnknownColumn(f"no column named {name!r}; have {list(self.names)}")

    def has_column(self, name: str) -> bool:
        return any(col == name for col, _ in self.columns)


def check_value(value: Value, ctype: ColumnType) -> None:
    """Raise SchemaMismatch unless value is a legal cell of the column type."""
    if ctype is ColumnType.INT64:
        # bool is an int subclass; reject it explicitly.
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaMismatch(f"expected int64, got {value!r}")
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise SchemaMismatch(f"{value} is outside the int64 range")
    elif ctype is ColumnType.FLOAT64:
        if not isinstance(value, float):
            raise SchemaMismatch(f"expected float64, got {value!r}")
        if not math.isfinite(value):
            raise SchemaMismatch(f"float values must be finite, got {value!r}")
    else:
        if not isinstance(value, str):
            raise SchemaMismatch(f"expected text, got {value!r}")
        if value == "":
            raise SchemaMismatch("text values must be non-empty")


def result_cell(value, ctype: ColumnType) -> Value:
    """A noisy aggregate as a legal cell of an int64 or float64 column.

    Post-processing of a value that is already noised, so it costs no
    privacy: an int beyond the int64 range clamps to its nearest end, and
    a number too large for a float becomes +-sys.float_info.max.
    """
    if ctype is ColumnType.INT64:
        return min(max(int(value), _INT64_MIN), _INT64_MAX)
    try:
        return float(value)
    except OverflowError:
        return sys.float_info.max if value > 0 else -sys.float_info.max


def check_key_columns(schema: Schema, key_schema: Schema) -> None:
    """Raise unless every key column is in schema with the same type."""
    for name, ctype in key_schema.columns:
        if not schema.has_column(name):
            raise MissingKeyColumn(f"key column {name!r} is not in the data schema")
        if schema.type_of(name) is not ctype:
            raise KeyTypeMismatch(
                f"key column {name!r} is {schema.type_of(name).value} "
                f"in the data but {ctype.value} in the keyset"
            )


@dataclass(frozen=True, eq=False)
class Table:
    """A schema and a multiset of rows.

    Tables compare by identity; use table_equal for multiset equality so
    that incidental row order never leaks into program behavior.
    Constructing one checks every cell against the schema; see _trusted
    for the internal constructor that does not.
    """

    schema: Schema
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        width = len(self.schema.columns)
        for row in self.rows:
            if len(row) != width:
                raise SchemaMismatch(
                    f"row {row!r} has {len(row)} values, schema has {width} columns"
                )
            for value, (_, ctype) in zip(row, self.schema.columns):
                check_value(value, ctype)

    @classmethod
    def _trusted(cls, schema: Schema, rows: tuple[Row, ...]) -> "Table":
        """A table whose cells are not checked again.

        Only for rows that are legal under schema already: rows of checked
        tables with the same schema, concatenations of such rows under the
        joined schema, cells parsed by load_csv, or checked keys followed
        by a result_cell.  Anything else computed or supplied from outside
        goes through Table(...).
        """
        table = object.__new__(cls)
        object.__setattr__(table, "schema", schema)
        object.__setattr__(table, "rows", rows)
        return table

    @classmethod
    def of(cls, schema: Schema, rows: Iterable[Sequence[Value]]) -> "Table":
        return cls(schema, tuple(tuple(row) for row in rows))

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, ())

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def multiset(self) -> Counter:
        return Counter(self.rows)


def canonicalize(table: Table) -> Table:
    """Return the table with rows in the fixed total order.

    The order is plain tuple order: lexicographic by column position,
    numeric columns by value and text columns by code point.  Code-point
    order is the order of the UTF-8 encodings, so it is the same on every
    platform, and unlike encoding it is defined for every str, including
    lone surrogates.  Truncation keeps the first rows of each key group
    in this order.
    """
    return Table._trusted(table.schema, tuple(sorted(table.rows)))


def table_equal(a: Table, b: Table) -> bool:
    """Multiset equality of rows; schemas must match exactly."""
    if a.schema != b.schema:
        raise SchemaMismatch("cannot compare tables with different schemas")
    return a.multiset() == b.multiset()


def split_by_key(table: Table, key_columns: Sequence[str]) -> dict[tuple, Table]:
    """Partition rows by the tuple of values in key_columns.

    Every row lands in exactly one part and the parts' schemas equal the
    input schema.
    """
    key_of = itemgetter(*[table.schema.index_of(name) for name in key_columns])
    groups: dict[object, list[Row]] = {}
    for row in table.rows:
        key = key_of(row)
        if key in groups:
            groups[key].append(row)
        else:
            groups[key] = [row]
    # itemgetter gives a bare value for one column; keys are always tuples.
    single = len(key_columns) == 1
    return {
        ((key,) if single else key): Table._trusted(table.schema, tuple(rows))
        for key, rows in groups.items()
    }


# ---------------------------------------------------------------------------
# Domains.


@dataclass(frozen=True)
class TableDomain:
    """All tables with a given schema, optionally carrying an ID column.

    The ID column, when set, names the column holding a contribution
    identifier (for example a user id).  It must exist and must be an
    integer or text column.
    """

    schema: Schema
    id_column: str | None = None

    def __post_init__(self) -> None:
        if self.id_column is not None:
            if not self.schema.has_column(self.id_column):
                raise MissingIdColumn(
                    f"id column {self.id_column!r} is not in the schema"
                )
            if self.schema.type_of(self.id_column) is ColumnType.FLOAT64:
                raise MissingIdColumn("id columns must be int64 or text")


@dataclass(frozen=True)
class TableTupleDomain:
    """Fixed-length tuples of tables, one component domain per position."""

    components: tuple[TableDomain, ...]


@dataclass(frozen=True)
class TableListDomain:
    """Fixed-length lists of tables sharing one element domain."""

    element: TableDomain
    length: int


Domain = Union[TableDomain, TableTupleDomain, TableListDomain]


# ---------------------------------------------------------------------------
# CSV and schema-file ingestion.


def _parse_cell(text: str, ctype: ColumnType, line: int, column: str) -> Value:
    if text == "":
        raise TypeParseError(
            f"line {line}, column {column!r}: empty cells are not allowed",
            line=line,
            column=column,
        )
    if ctype is ColumnType.INT64:
        if not _INT_RE.match(text):
            raise TypeParseError(
                f"line {line}, column {column!r}: {text!r} is not an int64",
                line=line,
                column=column,
            )
        value = int(text)
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise TypeParseError(
                f"line {line}, column {column!r}: {text!r} overflows int64",
                line=line,
                column=column,
            )
        return value
    if ctype is ColumnType.FLOAT64:
        if not _FLOAT_RE.match(text):
            raise TypeParseError(
                f"line {line}, column {column!r}: {text!r} is not a float64",
                line=line,
                column=column,
            )
        value = float(text)
        if not math.isfinite(value):
            raise TypeParseError(
                f"line {line}, column {column!r}: {text!r} overflows float64",
                line=line,
                column=column,
            )
        return value
    return text


@contextmanager
def _csv_records(path: str | Path, schema: Schema) -> Iterator[Iterator[list[str]]]:
    """Open a CSV file, check its header against the schema, and yield a
    reader over the records after the header."""
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise MissingFile(f"cannot read {path}: {exc}") from exc
    with handle:
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise HeaderMismatch(f"{path}: file is empty, expected a header row")
            if tuple(header) != schema.names:
                raise HeaderMismatch(
                    f"{path}: header {header!r} does not match schema {list(schema.names)}"
                )
            yield reader
        except UnicodeDecodeError as exc:
            raise TypeParseError(f"{path}: not valid UTF-8: {exc}") from exc


def load_csv(path: str | Path, schema: Schema) -> Table:
    """Load a CSV file whose header matches the schema, in order.

    The whole load aborts on the first malformed cell or on bytes that are
    not UTF-8; there is no partial ingestion and no null handling.  Each
    cell is checked as it is parsed, so the table is built without a
    second check.
    """
    with _csv_records(path, schema) as reader:
        rows: list[Row] = []
        for line_number, record in enumerate(reader, start=2):
            if len(record) != len(schema.columns):
                raise TypeParseError(
                    f"{path}: line {line_number}: expected "
                    f"{len(schema.columns)} cells, got {len(record)}",
                    line=line_number,
                )
            row = tuple(
                _parse_cell(cell, ctype, line_number, name)
                for cell, (name, ctype) in zip(record, schema.columns)
            )
            rows.append(row)
    return Table._trusted(schema, tuple(rows))


def _format_cell(value: Value) -> str:
    if isinstance(value, float):
        # repr round-trips doubles exactly, so load(write(t)) == t.
        return repr(value)
    return str(value)


def write_csv(table: Table, path: str | Path) -> None:
    """Serialize a table; loading the result under the same schema gives an
    equal table."""
    Path(path).write_text(csv_text(table), encoding="utf-8", newline="")


def csv_text(table: Table) -> str:
    """The CSV serialization of a table as a string.

    Unix line endings on every platform, so byte-identical runs stay
    byte-identical wherever they execute.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.schema.names)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])
    return buffer.getvalue()


def schema_from_json(obj) -> Schema:
    """Build a Schema from {"columns": [{"name": ..., "type": ...}, ...]}."""
    columns = obj.get("columns") if isinstance(obj, Mapping) else None
    if not isinstance(columns, (list, tuple)):
        raise TypeParseError("a schema object needs a 'columns' list")
    pairs = []
    for entry in columns:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("name"), str):
            raise TypeParseError(f"bad column entry {entry!r}: needs a 'name' string")
        pairs.append((entry["name"], ColumnType.from_name(entry.get("type"))))
    return Schema(tuple(pairs))


def domain_from_json(obj: Mapping) -> TableDomain:
    """Build a TableDomain from a schema_from_json object with an optional
    "id_column" entry."""
    schema = schema_from_json(obj)
    id_column = obj.get("id_column")
    return TableDomain(schema, None if id_column is None else str(id_column))


def domain_to_json(domain: TableDomain) -> dict:
    obj: dict = {
        "columns": [
            {"name": name, "type": ctype.value} for name, ctype in domain.schema.columns
        ]
    }
    if domain.id_column is not None:
        obj["id_column"] = domain.id_column
    return obj


def load_schema_file(path: str | Path) -> dict[str, TableDomain]:
    """Load a schema file mapping table names to their domains.

    The file is a JSON object {"tables": {name: schema-object, ...}} where
    each schema object follows the domain_from_json format.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"no such file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TypeParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, Mapping) or "tables" not in raw:
        raise TypeParseError(f"{path}: expected an object with a 'tables' entry")
    tables = raw["tables"]
    if not isinstance(tables, Mapping) or not tables:
        raise TypeParseError(f"{path}: 'tables' must be a non-empty object")
    return {str(name): domain_from_json(obj) for name, obj in tables.items()}
