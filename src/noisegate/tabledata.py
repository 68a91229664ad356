"""Typed in-memory tables with multiset semantics.

A Table is a schema plus a multiset of rows, stored as columns and a
mask of the rows it holds (see Table).  Row order is an artifact of
construction and is never observable through the public operations here:
equality is multiset equality, and canonicalize gives the stored rows'
positions in the one fixed order used wherever determinism matters.  A
table remembers data derived from it, by key (Table.derive): cuts,
groups, sorted columns, quantiles' bin weights, join indexes and the
outputs of the steps over it, and the tables over the same stored rows
share their order and grain counts (Table.stored).  Every value
remembered under one source, of every kind, counts toward
MAX_REMEMBERED_OUTPUTS (a grouping as one value), and no table refers to
another, so a table is freed at its last reference.
key_reader is the one rule for how rows are keyed by named columns
(Table.key_column reads the same keys from the columns), and split_by_key
hands out each key's row positions by it, so grouping and joins take one
keyed pass.

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
cells they compute and store a fixed legal cell where one fails, as a
join does on a row that matches nothing, and result_cell makes released
aggregates cells.  So every stored cell, held or not, is a legal cell of
its column.  Everything else (cells of checked tables selected,
regrouped, reordered or concatenated, filler cells, and result tables of
checked keys and result_cell values) is built with the private
Table._trusted, which skips the check.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import sys
import threading
from collections import Counter, OrderedDict, defaultdict
from collections.abc import Iterable
from contextlib import contextmanager
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, Union
from weakref import ref

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
            # An Enum with members has no subclasses, so only a ColumnType
            # passes expect, whose message is built only for a type that fails.
            if type(ctype) is not ColumnType:
                expect(ctype, ColumnType, SchemaMismatch, f"column {name!r}", "a ColumnType")
        names = tuple(name for name, _ in columns)
        if not all(names):
            raise SchemaMismatch("column names must be non-empty")
        if len(set(names)) != len(names):
            raise DuplicateColumn(f"duplicate column names in {list(names)}")
        # Not fields: the types, read once for each Table(...) built under
        # the schema, the names, which each lookup by name reads, and what
        # compile derives from the schema, which it remembers here (see
        # remember), so that it is freed with the schema.
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "types", tuple(ctype for _, ctype in columns))
        object.__setattr__(self, "compiled", OrderedDict())

    @classmethod
    def of(cls, *columns: tuple[str, ColumnType]) -> "Schema":
        return cls(tuple(columns))

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
        return name in self.names

    def recall(self, key: tuple):
        """What this schema remembers under key (see remember), now the most
        recently used; None if it remembers nothing there, or if key is not
        _plain."""
        if not _plain(key):
            return None
        with _REMEMBERING:
            value = self.compiled.get(key)
            if value is not None:
                self.compiled.move_to_end(key)
        return value

    def remember(self, key: tuple, value):
        """value, or what another thread remembered under key first, kept in
        `compiled`: what compile derives from this schema object and public
        parameters alone, so a repeat is a lookup.  Its keys are an
        expression's (text, target type or None) and a step's parts, named
        first (see KeySet.result_schema, transformations._joined and
        session._compile).  At most MAX_REMEMBERED_OUTPUTS values of every
        kind are kept, past which the least recently used is dropped and
        built again, equal, when asked for; nothing under a key that is not
        _plain is kept.  A refusal raises before it is remembered, so it is
        raised again on every call."""
        if not _plain(key):
            return value
        with _REMEMBERING:
            memo = self.compiled
            value = memo.setdefault(key, value)
            if len(memo) > MAX_REMEMBERED_OUTPUTS:
                memo.popitem(last=False)
        return value

    def derive(self, key: tuple, build: Callable[..., object], *args):
        """The value remembered under key, built by build(*args) and
        remembered the first time."""
        value = self.recall(key)
        return self.remember(key, build(*args)) if value is None else value


# Guards every schema's `compiled`, so that threads compiling against one
# schema never see one half moved.
_REMEMBERING = threading.Lock()

# The types of what a key of Schema.compiled may hold, in tuples at any
# depth: each hashes and compares in C, by its value alone, and equals no
# value of another of them.  A bool, a float or a subclass of str could
# equal a key of other cells.
_PLAIN_TYPES = frozenset({str, int, type(None), ColumnType})


def _plain(key: tuple) -> bool:
    """Whether key holds only values of _PLAIN_TYPES, in tuples."""
    stack = [key]
    while stack:
        for item in stack.pop():
            kind = type(item)
            if kind is tuple:
                stack.append(item)
            elif kind not in _PLAIN_TYPES:
                return False
    return True


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

# How many values one source remembers (see Table.derive), of every kind,
# over itself and every table under it, at every nesting level, and how
# many each key's Table of a grouping remembers in its own.  A public
# count, never a size, since sizes depend on the rows: past it the value
# used least recently is dropped, and built again, equal, when a query asks
# for it.  Each value is data about a table under the source (a mask, a
# position or count list, a held count, a tuple of columns, a grouping's
# key Tables) or a quantile's running bin weights, one double per bin,
# which its public bins bound (measurements.MAX_QUANTILE_BINS, 0.8 MB), so
# held memory is at most this many times the larger of such a table and
# that.  A grouping's key Tables remember no weights, only what is data of
# the grouping's rows.  It is also how many values a Schema remembers
# (Schema.remember): compiled expressions, each the size of its text's
# program, and step schemas and domains, which no row changes.
MAX_REMEMBERED_OUTPUTS = 32

# What Table.derive's lookup finds where nothing is remembered: no lookup
# raises, so a miss costs no exception.
_MISSING = object()


class Table(Record):
    """A schema and a multiset of rows, stored as columns.

    `columns` holds one tuple of cells per schema column, all of one
    length, and `held` marks the stored rows that are the table's: None
    for all, else one byte per stored row, 1 where it is held.  Every step
    but a join whose key may match more than once stores a slot for each
    stored row of its input (a flat map one per branch) under a mask, and
    a filter, a cut and a join whose keys match at most once share their
    (left) input's columns.  Every stored cell, held or not, is a legal
    cell of its column, so expressions run on the columns whole.  len,
    rows (a tuple built on each read), column and multiset see the held
    rows, through _held.

    Tables compare by identity; use table_equal for multiset equality so
    that incidental row order never leaks into program behavior.
    Table(schema, rows) checks every column against the schema; _trusted
    does not.  A table remembers what derive builds from it, by key.

    A table is a source (loaded, built by hand or released by a query) or
    a table under one: a filter's, a step's or a cut's output, which its
    input remembers as data and builds again as a view on each read
    (_holding, _output), with the memo that data carries, or a key's Table
    of a grouping, which counts what it remembers apart (see derive).  No
    table refers to another, so a table and all it remembers are freed at
    its last reference.  `stored` is what the tables over the same stored
    rows share (see derive): a filter and a cut share their input's, a
    source and a step output that stores columns have their own, and a
    grouping's key Tables share one, which holds each key's grain totals
    in key order; a key's Table is the key at `offset` in that order, the
    one Table of a grouping's absent keys is at -1 (None elsewhere).  `_origin`, where not None, gives for each column where
    its cells come from: None for a column its stored rows computed, else
    (stored, index, cells, rows), the stored-row data and column at index
    of the stored rows that computed them, on the same stored rows (rows
    None: a filter's, a map's bare column, a fan-out-1 join's left one) or
    a grouping's (rows: the positions of its rows in key order, its mask
    in that order, or None, and where each key's rows stop there).
    _trusted sets every field, in one order, with object.__setattr__, so
    CPython 3.11 and later keep them in the object, with no __dict__.
    """

    schema: Schema
    # The rows Table(...) is given, which __post_init__ stores as columns;
    # from then on table.rows is a view of them (see __getattr__).
    rows: tuple[Row, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    # What a table built by Table(...) has (see _trusted).
    held = offset = _origin = _order = _derived = None

    def __post_init__(self) -> None:
        checked = _checked_columns(self.schema, self.__dict__.pop("rows"))
        fields = self.__dict__
        fields["columns"] = _shared_columns(checked, self.schema.types)
        fields["stored"] = {}

    @classmethod
    def _trusted(
        cls,
        schema: Schema,
        columns: tuple,
        held: bytes | None = None,
        origin: tuple | None = None,
        stored: dict | None = None,
        memo: dict | None = None,
        order: ref | None = None,
        offset: int | None = None,
    ) -> "Table":
        """A table whose cells are not checked again: without an order, a
        source or a key's Table of a grouping (with an offset), which
        counts what it remembers in an order of its own; with one, a weak
        reference to its source's order of use (see derive), a table under
        that source.

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
        field(table, "held", held)
        field(table, "_origin", origin)
        field(table, "stored", {} if stored is None else stored)
        field(table, "_derived", memo)
        field(table, "_order", order)
        field(table, "offset", offset)
        return table

    @classmethod
    def _of_rows(cls, schema: Schema, rows: Sequence[Row]) -> "Table":
        """A trusted table of rows of checked cells, stored as columns."""
        return cls._trusted(schema, columns_of(rows, len(schema.columns)))

    def _uses(self) -> OrderedDict:
        """The order of use of this table's source, made on a source's
        (or a key's Table's) first use; a table under a source that is gone
        makes one of its own, and what it remembers counts there once it
        is used again."""
        order = self._order
        if type(order) is ref:
            order = order()
        if order is None:
            order = OrderedDict()
            object.__setattr__(self, "_order", order)
        return order

    def _holding(self, held: bytes, memo: dict) -> "Table":
        """A filter's output or a cut: these stored rows, holding the rows
        held marks, with the memo remembered with the mask.  One of a key's
        Table has no _origin, so it counts its own cells (its grouping's
        totals are of the key's rows under the key's mask)."""
        origin = self._origin if self.offset is None else None
        return Table._trusted(
            self.schema, self.columns, held, origin, self.stored, memo, ref(self._uses()),
            self.offset,
        )

    def _output(self, schema: Schema, *data) -> "Table":
        """A step's output over this table, from the data _built_on gives."""
        return Table._trusted(schema, *data, ref(self._uses()))

    def _built_on(self, columns: tuple, held: bytes | None = None, shared: Sequence = ()) -> tuple:
        """What this table remembers of a step's output over it that stores
        columns of its own: the columns, the mask, the _origin, whose
        column i is this table's column shared[i] on the same stored rows
        (None, or past the end of shared, for a column it computed), and a
        new stored-row data and memo."""
        origin = tuple(None if at is None else self._origin_of(at) for at in shared)
        origin += (None,) * (len(columns) - len(origin))
        return columns, held, origin if any(origin) else None, {}, {}

    def _origin_of(self, index: int, rows=None) -> tuple | None:
        """The _origin entry of a table built on this one whose column is
        this table's column at index at rows: taken through to the stored
        rows that computed it, so no lookup walks a chain; None (the new
        table computes its own) for a key's Table of a grouping."""
        if self.offset is not None:
            return None
        entry = self._origin[index] if self._origin else None
        if entry is not None:
            return *entry[:3], rows
        return self.stored, index, self.columns[index], rows

    def derive(self, key, build: Callable[..., object], *args, memo: dict | None = None):
        """The value remembered under key in memo, by default this table's
        own, built by build(*args) the first time.  The key names a
        derivation and its public parameters: in what the tables over the
        same stored rows share (`stored`), the canonical order (ORDER, see
        canonicalize), a column's grain counts ("grains", column index,
        low, high, g_num, g_den; see measurements._grains), one per stored
        row, and, in what a grouping's key Tables share, every key's grain
        total and count (the "total" key below); in a table's own memo, a
        sum's grain total and count ("total", column index, low, high,
        g_num, g_den), a count's held rows ("count", on a table under a
        mask; see measurements.make_count), a cut ("cut", key names,
        bound), a sorted column ("sorted", column index), a quantile's
        running bin weights and their total ("quantile", column index,
        rank type, rank numerator and denominator, low, high, bins,
        epsilon / 2; see measurements.make_quantile), a join index
        ("join", key names) and, on a public table, its fan-out by them
        ("fan out", key names) and its digest ("digest",), the groups
        ("groups", key names, read names), a dict from each key to a Table
        of its rows in the read columns only, and a step's output (see the
        make_* functions in transformations).  Every key is made of
        strings, ints and floats (and a quantile's rank type), which hash
        in C, and none holds a Table or a private cell.  Every caller gets the same value, so none
        may change it.  Every value remembered under a source, at any depth,
        counts toward MAX_REMEMBERED_OUTPUTS in the source's one order of use
        (_uses), which a table under it reads through a weak reference; past
        it the least recently used is dropped from its memo, and built again,
        equal, when asked again.  A grouping is one value there: each of its
        key Tables, which only the grouping holds, counts what it remembers
        (its sorted columns, the grouping's per-key grain totals, never a
        quantile's weights) in an order of its own, bounded by the same count
        and freed with the grouping, so what a source's order holds depends on
        the queries asked and not on which keys have rows.  A lookup hashes
        key three times, and a miss raises nothing.
        """
        order = self._uses()
        if memo is None:
            memo = self._derived
            if memo is None:
                memo = {}
                object.__setattr__(self, "_derived", memo)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = build(*args)
        # Used now: to the end of the order, where a new value starts.
        token = (id(memo), key)
        order[token] = memo
        order.move_to_end(token)
        if len(order) > MAX_REMEMBERED_OUTPUTS:
            (_, dropped), owner = order.popitem(last=False)
            owner.pop(dropped, None)
        return value

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


class KeySet(Record):
    """The explicit group-by keys a grouped query reports, exactly.

    Building one checks each key column once, as Table(...) checks a
    column, with its errors (SchemaMismatch for a bad cell), and keeps the
    first of any repeated keys, in order, so no KeySet holds an unchecked
    or repeated row.  Text cells of a key of several columns are shared as
    Table(...) shares them; a key of one column is a cell that no kept row
    repeats, so nothing is shared.  A KeySet is public and immutable, so it
    keeps, built once with it, its kept rows' key columns (`columns`) and
    each row's key as key_reader reads it by every key column (`keys`):
    the bare cell for one column, the row itself for more.
    """

    schema: Schema
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        columns = _checked_columns(self.schema, self.rows)
        if len(columns) > 1:
            columns = _shared_columns(columns, self.schema.types)
        rows = tuple(dict.fromkeys(zip(*columns)))
        if len(rows) < len(columns[0]):
            columns = columns_of(rows, len(columns))
        field = object.__setattr__
        field(self, "rows", rows)
        field(self, "columns", columns)
        field(self, "keys", columns[0] if len(columns) == 1 else rows)

    def result_schema(self, value_column: tuple[str, ColumnType]) -> Schema:
        """The schema of a grouped release by these keys: the key columns,
        then value_column; one object per key schema object and value
        column, which the key schema remembers (Schema.derive)."""
        columns = self.schema.columns + (value_column,)
        return self.schema.derive(("grouped", *value_column), Schema, columns)


def canonicalize(table: Table) -> list[int]:
    """Every stored row's position, held or not, in the fixed total order
    of rows.

    The order is plain tuple order: lexicographic by column position,
    numeric columns by value and text columns by code point.  Code-point
    order is the order of the UTF-8 encodings, so it is the same on every
    platform, and unlike encoding it is defined for every str, including
    lone surrogates.  The stored rows are sorted once, under ORDER in what
    every table over them shares (Table.stored; a key's Table of a
    grouping keeps its own in its memo), which no caller may change.
    table.rows keeps its order.
    """

    def build() -> list[int]:
        rows = list(zip(*table.columns))
        return sorted(range(len(rows)), key=rows.__getitem__)

    return table.derive(ORDER, build, memo=table.stored if table.offset is None else None)


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
    """Partition every stored row's position, held or not, by its key in
    key_columns (Table.key_column).

    One pass over the enumerated key column.  Every stored row's position
    lands in exactly one list, in row order, and callers gather the rows
    they keep.  The dict is a defaultdict(list), so a row of a key already
    seen costs one lookup; read it with .get or .items, since indexing a
    missing key adds it.
    """
    groups: defaultdict[object, list[int]] = defaultdict(list)
    for position, key in enumerate(table.key_column(key_columns)):
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
