"""Typed in-memory tables with multiset semantics.

A Table is a schema plus a multiset of rows.  Row order is an artifact of
construction and is never observable through the public operations here:
equality is multiset equality, and canonicalize produces the one fixed
ordering used wherever determinism matters (truncation).  A table
remembers that order once computed, and it remembers each truncation
taken from it, keyed by key column indices and bound, as a tuple of rows:
cutting the same table again at the same keys and bound is a lookup.  A
cut is built by Table._sorted, so it is canonical already and knows it is
cut there.  split_by_key hands out plain row lists, so grouping and joins
take one keyed pass.

Values are plain Python ints, floats, and strings.  Floats must be finite,
no cell may be empty, and no Table holds -0.0: it equals 0.0, so rows
that differed only in the sign of a zero would tie in the canonical
order.  Cells are checked, and -0.0 becomes 0.0, where they enter: by
load_csv as it parses them, under one rule per column type for text
cells, whether for a block's column or, to name a failing block's first
bad cell, one cell at a time; by Table(...) / Table.of for user and inline
public tables, by KeySet(...) for group-by keys, by the map and flat-map
row step, which drops a row whose cell fails, and by result_cell for
released aggregates.  Everything else (rows of checked tables selected,
regrouped, reordered or concatenated, and result tables of checked keys
and result_cell values) is built with the private Table._trusted, which
skips the per-cell check.
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
from functools import cached_property
from itertools import islice
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
    NoisegateError,
    SchemaMismatch,
    TypeParseError,
    UnknownColumn,
)
from .records import Record

Value = Union[int, float, str]
Row = tuple[Value, ...]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Locale-independent numeric literals: no underscores, no whitespace, no
# textual infinities.  Anything fancier than this is a parse error.
# Matched with fullmatch: "$" would also match before a trailing newline.
_INT_RE = re.compile(r"-?[0-9]+")
_FLOAT_RE = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# load_csv parses this many records at a time, one column at a time:
# enough to spread each column's calls over many cells, few enough that a
# block's strings add little to peak memory.
_BLOCK_RECORDS = 2048


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


# Read once for result_cell, which runs once per released value: on
# CPython 3.11 a member read through its Enum class costs about 150 ns,
# since EnumType's __getattr__ keeps the read from being specialized.
_INT64 = ColumnType.INT64


class Schema(Record):
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


def check_value(value: Value, ctype: ColumnType) -> Value:
    """Raise SchemaMismatch unless value is a legal cell of the column
    type; return the cell as a Table stores it (-0.0 as 0.0)."""
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
        return value + 0.0  # exact, except that -0.0 becomes 0.0
    else:
        if not isinstance(value, str):
            raise SchemaMismatch(f"expected text, got {value!r}")
        if value == "":
            raise SchemaMismatch("text values must be non-empty")
    return value


def result_cell(value, ctype: ColumnType, denominator: int = 1) -> Value:
    """A noisy aggregate as a legal cell of an int64 or float64 column.

    Post-processing of a value that is already noised, so it costs no
    privacy: an int beyond the int64 range clamps to its nearest end, and
    a number too large for a float becomes +-sys.float_info.max.  A
    float64 cell is value / denominator (a positive int), rounded once:
    an int value over a denominator is divided exactly and correctly
    rounded, so a sum or average needs no Fraction on its way out.
    """
    if ctype is _INT64:
        value = int(value)
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
        return _INT64_MAX if value > 0 else _INT64_MIN
    try:
        return value / denominator + 0.0  # -0.0 becomes 0.0
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


class Table(Record):
    """A schema and a multiset of rows.

    Tables compare by identity; use table_equal for multiset equality so
    that incidental row order never leaks into program behavior.
    Constructing one checks every cell against the schema and stores
    the rows as check_value returns them; see _trusted for the internal
    constructor that does neither.
    """

    schema: Schema
    rows: tuple[Row, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self) -> None:
        types = [ctype for _, ctype in self.schema.columns]
        width = len(types)
        rows = []
        for row in self.rows:
            if len(row) != width:
                raise SchemaMismatch(
                    f"row {row!r} has {len(row)} values, schema has {width} columns"
                )
            rows.append(tuple(map(check_value, row, types)))
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _trusted(cls, schema: Schema, rows: tuple[Row, ...]) -> "Table":
        """A table whose cells are not checked again.

        Only for rows that are legal under schema already: rows of checked
        tables with the same schema, concatenations of such rows under the
        joined schema, cells parsed by load_csv or checked as a map
        computed them, or checked keys followed by a result_cell.  Anything
        else supplied from outside goes through Table(...).
        """
        table = object.__new__(cls)
        fields = table.__dict__
        fields["schema"] = schema
        fields["rows"] = rows
        return table

    @classmethod
    def _sorted(cls, schema: Schema, rows: tuple[Row, ...], cut=None) -> "Table":
        """A trusted table whose rows are in canonical order already.

        The rows are remembered as its canonical order, so no later
        canonicalize sorts them.  With cut=(key column indices, bound),
        they are remembered as its cut there too: the rows are that cut
        of some table, and cutting them again keeps them all.
        """
        table = cls._trusted(schema, rows)
        table.__dict__["_canonical_rows"] = rows
        if cut is not None:
            table._cuts[cut] = rows
        return table

    @classmethod
    def of(cls, schema: Schema, rows: Iterable[Sequence[Value]]) -> "Table":
        return cls(schema, tuple(rows))

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, ())

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def multiset(self) -> Counter:
        return Counter(self.rows)

    @cached_property
    def _canonical_rows(self) -> tuple[Row, ...]:
        # Sorted the first time canonicalize asks, then remembered.  It
        # holds the rows only, never a Table, so it makes no cycle.
        return tuple(sorted(self.rows))

    @cached_property
    def _cuts(self) -> dict:
        # (key column indices, bound) -> the rows truncation keeps there,
        # filled by transformations._truncate_by_keys.  Rows only, never a
        # Table, and only this table's: a filtered or rebuilt table starts
        # with none.
        return {}


class KeySet(Record):
    """The explicit group-by keys a grouped query reports, exactly.

    Building one checks every key as a Table cell of its column
    (SchemaMismatch) and keeps the first of any repeated keys, in order,
    so no KeySet holds an unchecked or repeated row.
    """

    schema: Schema
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        rows = Table.of(self.schema, self.rows).rows
        object.__setattr__(self, "rows", tuple(dict.fromkeys(rows)))


def canonicalize(table: Table) -> Table:
    """Return the table with rows in the fixed total order.

    The order is plain tuple order: lexicographic by column position,
    numeric columns by value and text columns by code point.  Code-point
    order is the order of the UTF-8 encodings, so it is the same on every
    platform, and unlike encoding it is defined for every str, including
    lone surrogates.  A table sorts its rows the first time it is
    canonicalized and remembers the order, so every later call on the same
    table (every truncation of a session's source table) costs no sort;
    table.rows keeps its own order.  Truncation keeps the first rows of
    each key group in this order.
    """
    return Table._sorted(table.schema, table._canonical_rows)


def table_equal(a: Table, b: Table) -> bool:
    """Multiset equality of rows; schemas must match exactly."""
    if a.schema != b.schema:
        raise SchemaMismatch("cannot compare tables with different schemas")
    return a.multiset() == b.multiset()


def split_by_key(table: Table, key_columns: Sequence[str]) -> dict:
    """Partition rows by their cells in key_columns.

    Keys are as itemgetter reads them off a row: the bare cell for one
    key column, the tuple of cells for more.  Every row lands in exactly
    one list, and each list keeps the input order.  No Table is built per
    key: callers wrap only the groups they use.
    """
    key_of = itemgetter(*[table.schema.index_of(name) for name in key_columns])
    groups: dict[object, list[Row]] = {}
    for row in table.rows:
        key = key_of(row)
        if key in groups:
            groups[key].append(row)
        else:
            groups[key] = [row]
    return groups


# ---------------------------------------------------------------------------
# Domains.


class TableDomain(Record):
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


class TableTupleDomain(Record):
    """Fixed-length tuples of tables, one component domain per position."""

    components: tuple[TableDomain, ...]


class TableListDomain(Record):
    """Fixed-length lists of tables sharing one element domain."""

    element: TableDomain
    length: int


Domain = Union[TableDomain, TableTupleDomain, TableListDomain]


# ---------------------------------------------------------------------------
# CSV and schema-file ingestion.


_EMPTY_CELL = "empty cells are not allowed"


def _parse_column(cells: Sequence[str], ctype: ColumnType) -> Sequence[Value] | str:
    """The values of text cells of one column type, or, when a cell breaks
    the type's one rule (not empty, the type's grammar in full, converts,
    int64 in range or float64 finite), why: a template that takes the cell."""
    if ctype is ColumnType.INT64:
        if not all(map(_INT_RE.fullmatch, cells)):
            return _EMPTY_CELL if "" in cells else "{!r} is not an int64"
        try:
            values = list(map(int, cells))
        except ValueError:  # more digits than int() converts
            return "{!r} has too many digits for an int64"
        if min(values) < _INT64_MIN or max(values) > _INT64_MAX:
            return "{!r} overflows int64"
        return values
    if ctype is ColumnType.FLOAT64:
        if not all(map(_FLOAT_RE.fullmatch, cells)):
            return _EMPTY_CELL if "" in cells else "{!r} is not a float64"
        values = [value + 0.0 for value in map(float, cells)]  # -0.0 becomes 0.0
        if not all(map(math.isfinite, values)):
            return "{!r} overflows float64"
        return values
    return _EMPTY_CELL if "" in cells else cells


def _parse_block(block: list[list[str]], line: int, schema: Schema, path: Path) -> Iterable[Row]:
    """The rows of a block whose first record is on the given line, parsed
    one column at a time; if that fails, the block is checked again cell
    by cell in row order, by the same rule, to raise TypeParseError at the
    first bad record or cell."""
    width = len(schema.columns)
    if set(map(len, block)) == {width}:
        columns = []
        for cells, (_, ctype) in zip(zip(*block), schema.columns):
            values = _parse_column(cells, ctype)
            if isinstance(values, str):
                break
            columns.append(values)
        else:
            return zip(*columns)
    for line_number, record in enumerate(block, start=line):
        if len(record) != width:
            raise TypeParseError(
                f"{path}: line {line_number}: expected {width} cells, got {len(record)}",
                line=line_number,
            )
        for cell, (name, ctype) in zip(record, schema.columns):
            reason = _parse_column((cell,), ctype)
            if isinstance(reason, str):
                raise TypeParseError(
                    f"line {line_number}, column {name!r}: {reason.format(cell)}",
                    line=line_number,
                    column=name,
                )
    raise AssertionError("a block broke a column rule that none of its cells breaks")


def _read_error(path: Path, line: int, exc: Exception) -> TypeParseError:
    if isinstance(exc, UnicodeDecodeError):
        return TypeParseError(f"{path}: not valid UTF-8: {exc}")
    return TypeParseError(f"{path}: line {line}: {exc}", line=line)


def _record_blocks(reader, path: Path) -> Iterator[tuple[int, list[list[str]]]]:
    """(line of the first record, records) for each block of up to
    _BLOCK_RECORDS records after the header.

    When reading fails, the records read before the failure come as one
    more block, and the next step raises the failure as a TypeParseError,
    so a bad cell among those records is reported first.
    """
    line = 2
    while True:
        block: list[list[str]] = []
        try:
            block.extend(islice(reader, _BLOCK_RECORDS))
        except (csv.Error, UnicodeDecodeError) as exc:
            if block:
                yield line, block
            raise _read_error(path, line + len(block), exc) from exc
        if not block:
            return
        yield line, block
        line += len(block)


@contextmanager
def _csv_records(
    path: str | Path, schema: Schema
) -> Iterator[Iterator[tuple[int, list[list[str]]]]]:
    """Open a CSV file, check its header against the schema, and yield
    the blocks of records after the header, as _record_blocks gives them.

    Bytes that are not UTF-8 and records the csv module cannot read, such
    as a field over its length limit, raise TypeParseError; a record
    counts as one line, the header as line 1.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise MissingFile(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _read_error(path, 1, exc) from exc
        if header is None:
            raise HeaderMismatch(f"{path}: file is empty, expected a header row")
        if tuple(header) != schema.names:
            raise HeaderMismatch(
                f"{path}: header {header!r} does not match schema {list(schema.names)}"
            )
        yield _record_blocks(reader, path)


def load_csv(path: str | Path, schema: Schema) -> Table:
    """Load a CSV file whose header matches the schema, in order.

    The whole load aborts on the first malformed cell or on bytes that are
    not UTF-8; there is no partial ingestion and no null handling.  Each
    column type has one rule for its text cells, and records are parsed
    by it in blocks of _BLOCK_RECORDS, one column at a time.  A block that
    fails is checked again one cell at a time with that same rule, so the
    error is the first bad record or cell in row order, with its line and
    column.  Each cell is checked as it is parsed, so the table is built
    without a second check.
    """
    rows: list[Row] = []
    with _csv_records(path, schema) as blocks:
        for line, block in blocks:
            rows.extend(_parse_block(block, line, schema, path))
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


def _read_json(path: Path, error: type[NoisegateError]):
    """The JSON document in a file, whose strings all have a UTF-8
    encoding.  A file that cannot be read raises MissingFile; any other
    fault raises error."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingFile(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
        # JSON escapes can spell lone surrogates, which no output can encode.
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:  # a ValueError, so caught first
        raise error(f"{path}: a string has no UTF-8 encoding: {exc}") from exc
    except ValueError as exc:  # also an integer of more digits than int() converts
        raise error(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{path} nests too deeply to read") from None
    return doc


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


def load_schema_file(path: str | Path) -> dict[str, TableDomain]:
    """Load a schema file mapping table names to their domains.

    The file is a JSON object {"tables": {name: schema-object, ...}} where
    each schema object follows the schema_from_json format and holds
    nothing but "columns".  No domain has an id column: that comes only
    from the privacy unit.  A file that cannot be read raises
    MissingFile; any other fault TypeParseError.
    """
    path = Path(path)
    raw = _read_json(path, TypeParseError)
    if not isinstance(raw, Mapping) or "tables" not in raw:
        raise TypeParseError(f"{path}: expected an object with a 'tables' entry")
    tables = raw["tables"]
    if not isinstance(tables, Mapping) or not tables:
        raise TypeParseError(f"{path}: 'tables' must be a non-empty object")
    for name, obj in tables.items():
        extra = sorted(set(obj) - {"columns"}) if isinstance(obj, Mapping) else []
        if extra:
            raise TypeParseError(
                f"{path}: table {name!r} may hold only 'columns', not {extra[0]!r} "
                "(an id column comes from the privacy unit)"
            )
    return {str(name): TableDomain(schema_from_json(obj)) for name, obj in tables.items()}
