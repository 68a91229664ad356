"""Typed in-memory tables with multiset semantics.

A Table is a schema plus a multiset of rows, stored as columns and a
mask of the rows it holds (see Table).  Row order is an artifact of
construction and is never observable through the public operations here:
equality is multiset equality, and canonicalize gives the held rows'
positions in the one fixed order used wherever determinism matters.  A
table remembers values derived from it, by key (Table.derive): its
order, cuts, groups, sorted columns and join indexes, the table that
stores a column (Table.store, which every table has, a loaded one or
one built by hand alike) its grain counts, and every table the outputs
of the steps over it (Table.remember), at most MAX_REMEMBERED_OUTPUTS
under one source.  key_reader is the
one rule for how rows are keyed by named columns (Table.key_column reads
the same keys from the columns), and split_by_key hands out each key's
row positions by it, so grouping and joins take one keyed pass.

Values are Python ints, floats, and strings of exactly those types: a
cell of a subclass is rebuilt as its base type where it enters, so no
comparison, hash or str() of a stored cell runs a subclass's code.
Floats must be finite, no cell may be empty, and no Table holds -0.0: it
equals 0.0, so rows that differed only in the sign of a zero would tie
in the canonical order.  A text column that load_csv or Table(...)
builds holds one object per distinct cell, through one dict per column
that lives for that load or build and is then dropped, unless more than
half of its cells read by a block's end are distinct, where the dict
would cost more than it shares and later cells are kept as given.
Nothing after entry shares cells, so no query's work depends on how many
distinct values a column holds.
Cells are checked, and -0.0 becomes 0.0, where they enter, a
column at a time, by one rule per column type for text cells
(_parse_column) and one for Python values (_check_column): by load_csv
for each column of a block of records; by Table(...) / Table.of for user
and inline public tables and by KeySet(...) for group-by keys, for each
column of the rows.  Where a block's column fails, the block is checked
again one cell at a time, by the same rule, to name the first bad record
or cell; where a table's column fails, its cells are, to name the first
bad cell in row order.  The map and flat-map column programs check the
cells they compute and drop a row whose cell fails, and result_cell
makes released aggregates cells.  A join that matches a key at most
once stores a fixed legal cell of each carried column's type on the rows
that match nothing.  So every stored cell, held or not, is a legal cell
of its column.  Everything else (cells of checked tables selected,
regrouped, reordered or concatenated, a join's filler cells, and result
tables of checked keys and result_cell values) is built with the private
Table._trusted, which skips the check.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import sys
from collections import Counter, OrderedDict, defaultdict
from collections.abc import Iterable
from contextlib import contextmanager
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, Union

from .errors import (
    DuplicateColumn,
    HeaderMismatch,
    KeyTypeMismatch,
    MissingFile,
    MissingIdColumn,
    MissingKeyColumn,
    NoisegateError,
    SchemaMismatch,
    TypeMismatch,
    TypeParseError,
    UnknownColumn,
)
from .records import Record

Value = Union[int, float, str]
Row = tuple[Value, ...]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

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


# Read once for _check_column and result_cell, which run once per column
# and once per released value: on CPython 3.11 a member read through its Enum
# class costs about 150 ns, since EnumType's __getattr__ keeps the read
# from being specialized.
_INT64 = ColumnType.INT64
_FLOAT64 = ColumnType.FLOAT64
_TEXT = ColumnType.TEXT


class Schema(Record):
    """An ordered list of (name, type) columns with unique, non-empty text
    names, each of a ColumnType; each column is a (name, type) tuple, so
    a Schema hashes."""

    columns: tuple[tuple[str, ColumnType], ...]

    def __post_init__(self) -> None:
        columns = expect(self.columns, tuple, SchemaMismatch, "a schema", "a tuple of columns")
        if not columns:
            raise SchemaMismatch("a schema needs at least one column")
        for column in columns:
            if not isinstance(column, tuple) or len(column) != 2:
                raise SchemaMismatch(f"column {column!r}: expected a (name, type) tuple")
            name, ctype = column
            expect(name, str, SchemaMismatch, "a column name", "a string")
            expect(ctype, ColumnType, SchemaMismatch, f"column {name!r}", "a ColumnType")
        names = [name for name, _ in self.columns]
        if any(not name for name in names):
            raise SchemaMismatch("column names must be non-empty")
        if len(set(names)) != len(names):
            raise DuplicateColumn(f"duplicate column names in {names}")
        # Not a field: read once for each Table(...) built under the schema.
        object.__setattr__(self, "types", tuple(ctype for _, ctype in columns))

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


def is_int(value) -> bool:
    """Whether value is an int and not a bool: bool is an int subclass,
    but never a cell, a count, a bound or a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def expect(value, types, error: type[NoisegateError], where: str, what: str):
    """value, if its type is a subclass of one of types and not of bool,
    which is an int but never a name, a count, a bound, a rank or an
    amount; otherwise raise error(f"{where}: expected {what}").  The one
    rule of a value's type.  It reads type(value), as _check_column does,
    so an object whose __class__ names another type is refused."""
    kind = type(value)
    if issubclass(kind, bool) or not issubclass(kind, types):
        raise error(f"{where}: expected {what}")
    return value


def _check_column(cells: Sequence, ctype: ColumnType) -> Sequence[Value] | str:
    """Python values of one column type as a Table stores them, or, when a
    value breaks the type's one rule (of a subclass of int, not bool, within
    int64; of float, finite; of str, non-empty), why: a template that takes
    the value.  The rule reads each distinct type of the cells, not the
    cells.  A subclass cell is rebuilt as the exact type by that type's own
    method, which never calls the subclass, before any comparison reads the
    column, and -0.0 becomes 0.0.  Every other cell comes back as given."""
    types = set(map(type, cells))
    if ctype is _INT64:
        if not types <= {int}:
            if not all(issubclass(kind, int) and kind is not bool for kind in types):
                return "expected int64, got {!r}"
            cells = tuple(map(int.__index__, cells))
        if cells and (min(cells) < _INT64_MIN or max(cells) > _INT64_MAX):
            return "{} is outside the int64 range"
        return cells
    if ctype is _FLOAT64:
        exact = types <= {float}
        if not exact and not all(issubclass(kind, float) for kind in types):
            return "expected float64, got {!r}"
        if not exact or 0.0 in cells:  # -0.0 becomes 0.0
            cells = tuple(map(float.__add__, cells, repeat(0.0)))
        return cells if all(map(math.isfinite, cells)) else "float values must be finite, got {!r}"
    if not types <= {str}:
        if not all(issubclass(kind, str) for kind in types):
            return "expected text, got {!r}"
        cells = tuple(map(str.__str__, cells))
    if "" in cells:
        return "text values must be non-empty"
    return cells


def _shared(cells: Sequence[str]) -> Sequence[str]:
    """A checked text column with equal cells as one object, the first of
    them, through one dict for the call, by _extend_shared's rule on blocks
    of _BLOCK_RECORDS cells; a column that rule stops sharing comes back as
    given."""
    shared: list[str] = []
    seen: dict[str, str] | None = {}
    for start in range(0, len(cells), _BLOCK_RECORDS):
        seen = _extend_shared(shared, cells[start : start + _BLOCK_RECORDS], seen)
        if seen is None:
            return cells
    return tuple(shared)


def _extend_shared(column: list, cells: Iterable, seen: dict | None) -> dict | None:
    """Extend a column by cells, each text cell as the first equal one that
    seen holds, and give the dict for the column's next cells: seen, or
    None (cells taken as given) once seen holds more than half of the
    column's cells.  A dict entry costs about what a short str does, so a
    mostly distinct column would peak higher shared than as given."""
    if seen is None:
        column.extend(cells)
        return None
    column.extend(map(seen.setdefault, cells, cells))
    return seen if 2 * len(seen) <= len(column) else None


# columns_of transposes up to this many rows by zip(*rows), quickest for a
# few.  zip holds an iterator per row, each counted toward the garbage
# collector's next collection, so more rows take one map per column.
_ZIP_ROWS = 32


def columns_of(rows: Sequence[Sequence], width: int) -> tuple[tuple, ...]:
    """The columns of rows of width cells each, as tuples."""
    if 0 < len(rows) <= _ZIP_ROWS:
        return tuple(zip(*rows))
    return tuple(tuple(map(itemgetter(i), rows)) for i in range(width))


def gather(columns: Sequence[tuple], positions: Sequence[int]) -> tuple[tuple, ...]:
    """Each column's cells at positions, in that order, each column by one
    itemgetter (which gives a bare cell for one position and needs one)."""
    if len(positions) > 1:
        return tuple(map(itemgetter(*positions), columns))
    return tuple(zip(map(itemgetter(*positions), columns))) if positions else ((),) * len(columns)


def check_value(value: Value, ctype: ColumnType) -> Value:
    """The one-cell case of _check_column: the cell as a Table stores it
    (-0.0 as 0.0), or SchemaMismatch unless it is a legal cell of ctype."""
    cells = _check_column((value,), ctype)
    if isinstance(cells, str):
        raise SchemaMismatch(cells.format(value))
    return cells[0]


def _first_refused(cells: Sequence, ctype: ColumnType) -> int:
    """Where the first cell that _check_column refuses on its own is, in a
    column it refuses, which always holds one."""
    for index, cell in enumerate(cells):
        if isinstance(_check_column((cell,), ctype), str):
            return index


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


def _checked_columns(schema: Schema, rows) -> tuple[Sequence[Value], ...]:
    """The columns of rows under schema, each as _check_column stores it,
    or the error that Table(schema, rows) raises for them."""
    expect(schema, Schema, TypeMismatch, "a table's schema", "a Schema")
    rows = tuple(expect(rows, Iterable, TypeMismatch, "a table's rows", "an iterable"))
    types = schema.types
    width = len(types)
    # The rows before the first that is no tuple or list of width cells
    # are checked a column at a time, so a bad cell among them is named
    # before that row.
    good = len(rows)
    if not (set(map(type, rows)) <= {tuple, list} and set(map(len, rows)) <= {width}):
        good = next((
            i for i, row in enumerate(rows)
            if not (isinstance(row, (tuple, list)) and len(row) == width)
        ), good)
    columns = columns_of(rows[:good], width)
    checked = tuple(map(_check_column, columns, types))
    if str in map(type, checked):
        first = min(
            _first_refused(cells, ctype)
            for cells, ctype, out in zip(columns, types, checked) if isinstance(out, str)
        )
        list(map(check_value, rows[first], types))  # raises at its first bad cell
    if good < len(rows):
        row = rows[good]
        if not isinstance(row, (tuple, list)):  # text is no row of cells either
            raise TypeMismatch(f"row {row!r}: expected a tuple or list of cells")
        raise SchemaMismatch(f"row {row!r} has {len(row)} values, schema has {width} columns")
    return checked


def _shared_columns(columns: Sequence[Sequence[Value]], types: Sequence[ColumnType]) -> tuple:
    """Checked columns of types, each text column _shared."""
    return tuple(_shared(cells) if ctype is _TEXT else cells for cells, ctype in zip(columns, types))


# The key under which a table remembers its order (see canonicalize).
ORDER = "order"

# How many step outputs (a filter's, a map's, a flat map's or a join's) one
# source remembers, over itself and over every table remembered under it,
# at every nesting level (see Table.remember).  A public count, never a
# size, since sizes depend on the rows: past it the output used least
# recently is dropped, and built again, equal, when a query asks for it.
# Held memory is then at most this many outputs of each source's steps.
MAX_REMEMBERED_OUTPUTS = 32

# What Table.derive's lookup finds where nothing is remembered: no lookup
# raises, so a miss costs no exception.
_MISSING = object()


class _OwnStore:
    """Table.store of a table that sets none: the table itself.  It has no
    __set__, so a store set on a table is read from the table first."""

    def __get__(self, table, owner=None):
        return table


class Table(Record):
    """A schema and a multiset of rows, stored as columns.

    `columns` holds one tuple of cells per schema column, all of one
    length, and `held` marks the stored rows that are the table's: None
    for all, else one byte per stored row, 1 where it is held.  A filter,
    a truncation's cut and a join whose keys match at most once share
    their (left) input's columns and hold some of its held rows, and a map
    none of whose cells can fail keeps its input's mask; every other step
    stores held rows only.  Every stored cell, held or not, is a legal
    cell of its column, so expressions run on the columns whole.  len,
    rows (a tuple built on each read), column and multiset see the held
    rows, through _held.

    Tables compare by identity; use table_equal for multiset equality so
    that incidental row order never leaks into program behavior.
    Table(schema, rows) checks every column against the schema; _trusted
    does not.  A table remembers what derive builds from it, by key.

    `store` is the table that stores these columns, whose memo holds
    what is derived from each stored column (a sum's grain counts), and
    every table has one.  A table that stores columns of its own (a
    source, a table built by hand or released by a query, a step output
    that stores columns, a grouping's Table of every key's rows) is its
    own store; a filter and a cut share their input's columns and store;
    a key's Table of a grouping is its store's stored rows from `offset`
    on (offset is None elsewhere).  Every step remembers its output on its
    input (remember), so one regime serves every table, however it was
    built: a step's output lives as long as its input, and a sum over any
    table adds the counts its store derives once.
    A store's `_origin`, where not None, gives for each column where its
    cells come from: None for a column it computed, else (table, index,
    rows), that store's column at index on the same stored rows (rows
    None: a map's bare column, a fan-out-1 join's left one) or at the
    positions rows lists (a grouping's rows in key order).

    A table that is its own store sets no `store` field, and reading it
    gives the table (_OwnStore), so no table refers to itself: a released
    result is freed when its last reference goes, not left for the
    garbage collector.  _trusted sets with object.__setattr__ only the
    fields that are not None, the class's default, so CPython 3.11 and
    later keep them in the object, with no __dict__ until something is
    derived: a grouping's key Tables each cost about 65 bytes less.
    """

    schema: Schema
    # The rows Table(...) is given, which __post_init__ stores as columns;
    # from then on table.rows is a view of them (see __getattr__).
    rows: tuple[Row, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    # What a table that sets none of these has (see _trusted).
    held = offset = _origin = None
    store = _OwnStore()

    def __post_init__(self) -> None:
        checked = _checked_columns(self.schema, self.__dict__.pop("rows"))
        fields = self.__dict__
        fields["columns"] = _shared_columns(checked, self.schema.types)

    @classmethod
    def _trusted(
        cls,
        schema: Schema,
        columns: tuple,
        held: bytes | None = None,
        store: "Table | None" = None,
        offset: int | None = None,
        origin: tuple | None = None,
    ) -> "Table":
        """A table whose cells are not checked again, with the given store
        and offset, or, without a store, its own store with the given
        _origin: a loaded source, a remembered grouping's rows, a
        remembered step output, a released result or any table built by
        hand.

        Only for columns that are legal under schema already: columns of
        checked tables with the same schema, in any selection, order or
        concatenation, cells parsed by load_csv or checked as a map
        computed them, a join's filler cells (transformations._FILLER, a
        legal cell of each type), or checked keys and result_cell values.
        Anything else supplied from outside goes through Table(...).
        """
        table = object.__new__(cls)
        field = object.__setattr__
        field(table, "schema", schema)
        field(table, "columns", columns)
        if held is not None:
            field(table, "held", held)
        if store is not None:
            field(table, "store", store)
            if offset is not None:
                field(table, "offset", offset)
        if origin is not None:
            field(table, "_origin", origin)
        return table

    @classmethod
    def _of_rows(cls, schema: Schema, rows: Sequence[Row]) -> "Table":
        """A trusted table of rows of checked cells, stored as columns."""
        return cls._trusted(schema, columns_of(rows, len(schema.columns)))

    def _holding(self, held: bytes | None) -> "Table":
        """These columns, with this table's store and offset, holding the
        rows held marks: a filter's output, or a cut without its memo."""
        return Table._trusted(self.schema, self.columns, held, self.store, self.offset)

    def _built_on(
        self, schema: Schema, columns: tuple, held: bytes | None = None, shared: Sequence = ()
    ) -> "Table":
        """A step's output over this table that stores columns of its own:
        its own store, whose column i is this table's column shared[i] on
        the same stored rows (None, or past the end of shared, for a column
        it computed)."""
        origin = tuple(None if at is None else self._origin_of(at) for at in shared)
        origin += (None,) * (len(columns) - len(origin))
        return Table._trusted(schema, columns, held, origin=origin if any(origin) else None)

    def _origin_of(self, index: int, rows=None) -> tuple | None:
        """The _origin entry of a table built on this one whose column is
        this table's column at index at rows: taken through to the table it
        comes from where this table's store shares it on the same stored
        rows, so no lookup walks a chain; None (the new table computes its
        own) for a key's Table of a grouping."""
        store = self.store
        if self.offset is not None:
            return None
        entry = store._origin[index] if store._origin else None
        if entry is not None and entry[2] is None:
            return entry[0], entry[1], rows
        return store, index, rows

    def derive(self, key, build: Callable[..., object], *args):
        """The value this table remembers under key, built by build(*args)
        the first time.  The key names a derivation and its parameters,
        all public: the canonical order (ORDER, a list of stored
        positions), a cut ("cut", key names, bound), a sorted column
        ("sorted", column index), a join index ("join", key names), the
        groups ("groups", key names, read names), a dict from each key to a
        Table of its rows in the read columns only, a stored column's grain
        counts ("grains", column index, low, high, g_num, g_den), one int
        per stored row, held or not, which only the column's store derives
        (see measurements._grains), or a step's output (see remember).
        Every key is made of strings, ints and floats, which hash in C, and
        none holds a Table or a private cell.  Every caller gets the same
        value, so none may change it.  A lookup of a remembered value
        hashes key once, and a miss raises nothing."""
        fields = self.__dict__
        derived = fields.get("_derived")
        if derived is None:
            derived = fields["_derived"] = {}
        value = derived.get(key, _MISSING)
        if value is _MISSING:
            value = derived[key] = build(*args)
        return value

    def remember(self, key, build: Callable[..., "Table"], *args, against=None) -> "Table":
        """A step's output over this table, build(*args), remembered under key.

        The key holds the step's public parameters (see the make_*
        functions in transformations).  The memo holds (against, output):
        a private join passes its right cut, and an output built against
        another one (`is`) is built again and replaces it.  Each output
        remembered under one source, at any depth, counts toward
        MAX_REMEMBERED_OUTPUTS in one order of use that every store built
        on the source shares; past it the least recently used is dropped
        from its table's memo, with all it remembers, and rebuilt equal
        when asked again.
        """
        store = self.store
        entry = self.derive(key, _against, against, build, args)
        outputs = store.__dict__.get("_outputs")
        if outputs is None:
            outputs = store.__dict__["_outputs"] = OrderedDict()
        if entry[0] is not against:
            outputs.pop(entry[1], None)
            entry = self._derived[key] = _against(against, build, args)
        output = entry[1]
        # Used now: to the end of the order, where a new output starts.
        if outputs.pop(output, None) is None and output.store is output:
            output.__dict__["_outputs"] = outputs
        outputs[output] = (self, key)
        while len(outputs) > MAX_REMEMBERED_OUTPUTS:
            owner, dropped = outputs.popitem(last=False)[1]
            owner._derived.pop(dropped, None)
        return output

    def _cut(self, held: bytes) -> "Table":
        """These columns holding the rows held marks, some of this table's
        held rows, with this table's store and a memo of its own that starts
        with this one's order."""
        cut = self._holding(held)
        cut.__dict__["_derived"] = {ORDER: self._derived[ORDER]}
        return cut

    @classmethod
    def of(cls, schema: Schema, rows: Iterable[Sequence[Value]]) -> "Table":
        return cls(schema, rows)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, ())

    def _held(self, values: Iterable) -> Iterable:
        """values, one per stored row, at the held rows only."""
        return values if self.held is None else compress(values, self.held)

    def key_column(self, key_columns: Sequence[str]) -> Iterable:
        """key_reader's key of each stored row, held or not, read from the
        key columns: the one column itself, or tuples zipped from more."""
        columns = [self.columns[self.schema.index_of(name)] for name in key_columns]
        return columns[0] if len(columns) == 1 else zip(*columns)

    def __getattr__(self, name: str):
        """table.rows, once __post_init__ has stored the given rows as
        columns: the held rows, in row order, built on each read."""
        if name != "rows":
            raise AttributeError(f"'Table' object has no attribute {name!r}")
        return tuple(self._held(zip(*self.columns)))

    def column(self, index: int) -> tuple[Value, ...]:
        """The held cells of the column at index, in row order."""
        return tuple(self._held(self.columns[index]))

    def __len__(self) -> int:
        return len(self.columns[0]) if self.held is None else self.held.count(1)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def multiset(self) -> Counter:
        return Counter(self._held(zip(*self.columns)))


def _against(against, build: Callable[..., Table], args: tuple) -> tuple:
    """A remembered step output and the right cut it was built against."""
    return against, build(*args)


class KeySet(Record):
    """The explicit group-by keys a grouped query reports, exactly.

    Building one checks each key column once, as Table(...) checks a
    column, with its errors (SchemaMismatch for a bad cell), and keeps the
    first of any repeated keys, in order, so no KeySet holds an unchecked
    or repeated row.  Text cells of a key of several columns are shared as
    Table(...) shares them; a key of one column is a cell that no kept row
    repeats, so nothing is shared.
    """

    schema: Schema
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        columns = _checked_columns(self.schema, self.rows)
        if len(columns) > 1:
            columns = _shared_columns(columns, self.schema.types)
        object.__setattr__(self, "rows", tuple(dict.fromkeys(zip(*columns))))


def canonicalize(table: Table) -> list[int]:
    """The held rows' stored positions, in the fixed total order of rows.

    The order is plain tuple order: lexicographic by column position,
    numeric columns by value and text columns by code point.  Code-point
    order is the order of the UTF-8 encodings, so it is the same on every
    platform, and unlike encoding it is defined for every str, including
    lone surrogates.  A table sorts its held rows once and remembers the
    list under ORDER, which no caller may change; a cut shares its
    table's and reads it through its mask.  table.rows keeps its order.
    """

    def build() -> list[int]:
        rows = list(zip(*table.columns))
        return sorted(table._held(range(len(rows))), key=rows.__getitem__)

    order = table.derive(ORDER, build)
    return order if table.held is None else list(compress(order, map(table.held.__getitem__, order)))


def table_equal(a: Table, b: Table) -> bool:
    """Multiset equality of rows; schemas must match exactly."""
    if a.schema != b.schema:
        raise SchemaMismatch("cannot compare tables with different schemas")
    return a.multiset() == b.multiset()


def key_reader(schema: Schema, key_columns: Sequence[str]) -> Callable[[Row], object]:
    """The key of a row of schema by the named columns, one or more: the
    bare cell for one column, the tuple of its cells for more.  Every
    keyed pass reads its keys through this one rule."""
    return itemgetter(*[schema.index_of(name) for name in key_columns])


def split_by_key(table: Table, key_columns: Sequence[str]) -> dict:
    """Partition the held rows' stored positions by their keys in
    key_columns (Table.key_column).

    One pass over the held (position, key) pairs, which the mask selects
    from the enumerated key column.  Every held row's position lands in
    exactly one list, in row order, and callers gather the rows they keep.
    The dict is a defaultdict(list), so a row of a key already seen costs
    one lookup; read it with .get or .items, since indexing a missing key
    adds it.
    """
    groups: defaultdict[object, list[int]] = defaultdict(list)
    for position, key in table._held(enumerate(table.key_column(key_columns))):
        groups[key].append(position)
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


# ---------------------------------------------------------------------------
# CSV and schema-file ingestion.


_EMPTY_CELL = "empty cells are not allowed"


def _parse_column(cells: Sequence[str], ctype: ColumnType) -> Sequence[Value] | str:
    """The values of text cells of one column type, or, when a cell breaks
    the type's one rule (not empty, the type's grammar in full, converts,
    int64 in range or float64 finite), why: a template that takes the cell.
    The cells, joined by "," (which no number holds), must hold only the
    type's characters, and int() or float() convert each: on those, int()
    takes exactly -?[0-9]+ and float() the float64 grammar and a leading
    "+", refused apart."""
    if "" in cells:
        return _EMPTY_CELL
    if ctype is ColumnType.TEXT:
        return cells
    text = ",".join(cells)
    chars = b"0123456789-," if ctype is _INT64 else b"0123456789.eE+-,"
    numeric = not text.encode().translate(None, chars)
    if ctype is ColumnType.INT64:
        if not numeric:
            return "{!r} is not an int64"
        try:
            values = list(map(int, cells))
        except ValueError:  # a misplaced "-", or more digits than int() converts
            if text.removeprefix("-").isdigit():
                return "{!r} has too many digits for an int64"
            return "{!r} is not an int64"
        if min(values) < _INT64_MIN or max(values) > _INT64_MAX:
            return "{!r} overflows int64"
        return values
    if not numeric or text[:1] == "+" or ",+" in text:
        return "{!r} is not a float64"
    try:
        values = [value + 0.0 for value in map(float, cells)]  # -0.0 becomes 0.0
    except ValueError:
        return "{!r} is not a float64"
    if not all(map(math.isfinite, values)):
        return "{!r} overflows float64"
    return values


def _parse_block(block: list[list[str]], line: int, schema: Schema, path: Path) -> list:
    """The columns of a block whose first record is on the given line,
    parsed one column at a time; if that fails, the block is checked again
    cell by cell in row order, by the same rule, to raise TypeParseError at
    the first bad record or cell."""
    width = len(schema.columns)
    if set(map(len, block)) == {width}:
        columns = []
        for cells, (_, ctype) in zip(columns_of(block, width), schema.columns):
            values = _parse_column(cells, ctype)
            if isinstance(values, str):
                break
            columns.append(values)
        else:
            return columns
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
    without a second check, and its columns are the parsed columns joined.
    A text column holds one object per distinct cell while at most half of
    the cells read so far are distinct: one dict per column, kept across
    blocks and dropped when the load returns, maps each cell to the first
    equal one (_extend_shared).
    """
    columns: list[list] = [[] for _ in schema.columns]
    shared = [{} if ctype is ColumnType.TEXT else None for _, ctype in schema.columns]
    with _csv_records(path, schema) as blocks:
        for line, block in blocks:
            for i, values in enumerate(_parse_block(block, line, schema, path)):
                shared[i] = _extend_shared(columns[i], values, shared[i])
    return Table._trusted(schema, tuple(map(tuple, columns)))


def _format_cell(value: Value) -> str:
    if isinstance(value, float):
        # repr round-trips doubles exactly, so load(write(t)) == t.
        return repr(value)
    return str(value)


def write_csv(table: Table, path: str | Path) -> None:
    """Serialize a table; loading the result under the same schema gives an
    equal table, since every cell is of its column's exact type (a Table
    rebuilds a subclass cell), whose str or repr load_csv parses back."""
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
    encoding and whose objects repeat no key.  A file that cannot be read
    raises MissingFile; any other fault raises error."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingFile(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not valid UTF-8: {exc}") from exc

    def unique_keys(pairs: list) -> dict:
        # json keeps the last of repeated keys; a repeat is refused instead.
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise error(f"{path}: an object repeats the key {key!r}")
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
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
