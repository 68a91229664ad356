import csv
import enum
import io
import json
import random
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    _reference_cell,
    check_value_reference,
    decode_rows_reference,
    load_csv_reference,
    table_rows_reference,
)

from noisegate.cli import parse_script
from noisegate.errors import (
    DuplicateColumn,
    HeaderMismatch,
    MissingFile,
    MissingIdColumn,
    NoisegateError,
    SchemaMismatch,
    ScriptError,
    TypeMismatch,
    TypeParseError,
    UnknownColumn,
)
from noisegate import tabledata
from noisegate.tabledata import (
    ColumnType,
    KeySet,
    Schema,
    Table,
    TableDomain,
    TableListDomain,
    TableTupleDomain,
    canonicalize,
    csv_text,
    load_csv,
    load_schema_file,
    result_cell,
    split_by_key,
    table_equal,
    write_csv,
)
from noisegate.session import AddMaxRows, PrivacyBudget, build_session, query
from noisegate.transformations import make_map

PEOPLE = Schema.of(
    ("name", ColumnType.TEXT), ("age", ColumnType.INT64), ("score", ColumnType.FLOAT64)
)


def test_schema_basics():
    assert PEOPLE.names == ("name", "age", "score")
    assert PEOPLE.type_of("age") is ColumnType.INT64
    assert PEOPLE.index_of("score") == 2
    assert PEOPLE.has_column("name")
    assert not PEOPLE.has_column("missing")
    with pytest.raises(UnknownColumn):
        PEOPLE.type_of("missing")


def test_schema_rejects_duplicates_and_empty():
    with pytest.raises(DuplicateColumn):
        Schema.of(("a", ColumnType.INT64), ("a", ColumnType.TEXT))
    with pytest.raises(SchemaMismatch):
        Schema(())
    with pytest.raises(SchemaMismatch):
        Schema.of(("", ColumnType.INT64))
    # A name must be text and a type a ColumnType.
    with pytest.raises(SchemaMismatch):
        Schema.of((5, ColumnType.INT64))
    with pytest.raises(SchemaMismatch):
        Schema.of(("x", "int64"))
    with pytest.raises(SchemaMismatch):
        Schema.of(("x", True))
    # A column is a (name, type) tuple, so every Schema hashes.
    with pytest.raises(SchemaMismatch):
        Schema.of(["x", ColumnType.INT64])
    with pytest.raises(SchemaMismatch):
        Schema.of(5)
    with pytest.raises(SchemaMismatch):
        Schema.of(("x", ColumnType.INT64, "extra"))
    with pytest.raises(SchemaMismatch):
        Schema([("x", ColumnType.INT64)])


def test_table_type_enforcement():
    t = Table.of(PEOPLE, [("ann", 41, 1.5)])
    assert len(t) == 1
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", 41)])  # wrong width
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", "41", 1.5)])  # text in int column
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", True, 1.5)])  # bool is not int64
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", 41, float("nan"))])
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", 41, float("inf"))])
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", 2**63, 1.5)])  # out of int64 range
    with pytest.raises(SchemaMismatch):
        Table.of(PEOPLE, [("ann", 41, 2)])  # int is not float64
    with pytest.raises(TypeMismatch):
        Table.of(PEOPLE, 5)  # no rows at all


@pytest.mark.parametrize(
    "build",
    [
        lambda: Table.of(PEOPLE, [5]),
        lambda: Table.of(PEOPLE, [("ann", 41, 1.5), None]),
        lambda: Table(PEOPLE, 5),
        lambda: Table(PEOPLE, (5,)),
        lambda: KeySet(PEOPLE, [5]),
        # Text is a sequence, but of characters, not of cells.
        lambda: Table.of(Schema.of(("a", ColumnType.TEXT), ("b", ColumnType.TEXT)), ["xy"]),
        # A schema that is not a Schema.
        lambda: Table.of("x", [(1,)]),
        lambda: Table("x", ((1,),)),
        lambda: KeySet("x", [(1,)]),
        lambda: Table.of(PEOPLE.columns, []),
    ],
    ids=[
        "Table.of row", "Table.of second row", "Table rows", "Table row", "KeySet row", "text row",
        "Table.of schema", "Table schema", "KeySet schema", "columns as schema",
    ],
)
def test_rows_or_a_row_that_is_no_sequence_is_a_type_mismatch(build):
    with pytest.raises(TypeMismatch):
        build()


def test_table_equality_is_multiset_equality():
    a = Table.of(PEOPLE, [("a", 1, 0.0), ("b", 2, 0.0), ("a", 1, 0.0)])
    b = Table.of(PEOPLE, [("b", 2, 0.0), ("a", 1, 0.0), ("a", 1, 0.0)])
    c = Table.of(PEOPLE, [("b", 2, 0.0), ("a", 1, 0.0)])
    assert table_equal(a, b)
    assert not table_equal(a, c)
    other = Schema.of(("name", ColumnType.TEXT))
    with pytest.raises(SchemaMismatch):
        table_equal(a, Table.of(other, [("a",)]))


def _in_canonical_order(table):
    # The held rows, in the order canonicalize gives their positions.
    stored = tuple(zip(*table.columns))
    return tuple(stored[i] for i in canonicalize(table))


def test_canonicalize_orders_rows_deterministically():
    a = Table.of(PEOPLE, [("b", 2, 1.0), ("a", 1, 0.5), ("a", 1, 0.25)])
    assert canonicalize(a) == [2, 1, 0]
    assert canonicalize(a) is canonicalize(a)  # sorted once, then remembered
    assert _in_canonical_order(a) == (("a", 1, 0.25), ("a", 1, 0.5), ("b", 2, 1.0))
    # Text sorts by code point, so the order is locale-independent.
    t = Table.of(Schema.of(("s", ColumnType.TEXT)), [("Z",), ("a",), ("B",)])
    assert _in_canonical_order(t) == (("B",), ("Z",), ("a",))
    # Every str has a place in the order, lone surrogates included.
    odd = Table.of(Schema.of(("s", ColumnType.TEXT)), [("\U0001F600",), ("\ud800",), ("a",)])
    assert _in_canonical_order(odd) == (("a",), ("\ud800",), ("\U0001F600",))
    # A masked table orders every stored row, held or not.
    held = Table._trusted(a.schema, a.columns, b"\x01\x00\x01")
    assert canonicalize(held) == [2, 1, 0]


def test_split_by_key():
    # Every stored row's position, held or not, per key.
    t = Table.of(PEOPLE, [("a", 1, 0.0), ("b", 2, 0.0), ("a", 3, 0.0)])
    parts = split_by_key(t, ["name"])  # one key column: bare keys
    assert set(parts) == {"a", "b"}
    assert parts["a"] == [0, 2]
    assert parts["b"] == [1]
    pairs = split_by_key(t, ["name", "age"])
    assert set(pairs) == {("a", 1), ("b", 2), ("a", 3)}
    assert pairs[("a", 3)] == [2]
    held = Table._trusted(PEOPLE, t.columns, bytes([1, 1, 0]))
    assert split_by_key(held, ["name"]) == {"a": [0, 2], "b": [1]}
    with pytest.raises(UnknownColumn):
        split_by_key(t, ["nope"])


def test_domains():
    d = TableDomain(PEOPLE, "name")
    assert d.id_column == "name"
    with pytest.raises(MissingIdColumn):
        TableDomain(PEOPLE, "missing")
    with pytest.raises(MissingIdColumn):
        TableDomain(PEOPLE, "score")  # float ids are not allowed
    tup = TableTupleDomain((d, TableDomain(PEOPLE, None)))
    assert len(tup.components) == 2
    lst = TableListDomain(TableDomain(PEOPLE, None), 3)
    assert lst.length == 3


def test_csv_round_trip(tmp_path: Path):
    t = Table.of(
        PEOPLE,
        [("ann, bob", 41, 0.1), ('quote "x"', -5, 2.5e-12), ("plain", 0, 1e300)],
    )
    path = tmp_path / "people.csv"
    write_csv(t, path)
    back = load_csv(path, PEOPLE)
    assert back.rows == t.rows  # exact, including float repr round-trip


def test_load_csv_errors(tmp_path: Path):
    path = tmp_path / "t.csv"
    path.write_text("name,age,score\nann,41,1.5\nbob,abc,2.0\n")
    with pytest.raises(TypeParseError) as exc:
        load_csv(path, PEOPLE)
    assert exc.value.line == 3
    assert exc.value.column == "age"

    path.write_text("name,years,score\n")
    with pytest.raises(HeaderMismatch):
        load_csv(path, PEOPLE)

    with pytest.raises(MissingFile):
        load_csv(tmp_path / "absent.csv", PEOPLE)

    # Bytes that are not UTF-8, in the header or in a record far below it.
    for data in (
        b"\xff\xfename,age,score\n",
        b"name,age,score\n" + b"ann,41,1.5\n" * 2000 + b"\xff\xfe,1,1.0\n",
    ):
        path.write_bytes(data)
        with pytest.raises(TypeParseError):
            load_csv(path, PEOPLE)


def test_strict_cell_parsing(tmp_path: Path):
    path = tmp_path / "t.csv"
    schema = Schema.of(("n", ColumnType.INT64), ("x", ColumnType.FLOAT64))
    path.write_text("n,x\n007,1.5\n-3,2e3\n")
    t = load_csv(path, schema)
    assert t.rows == ((7, 1.5), (-3, 2000.0))
    bad_cells = [
        "1_000,1.0", "1.0,1.0", ",1.0", "1,nan", "1,inf", "1,1_0.0", "1,",
        '"12\n",1.0', '1,"1.5\n"',
    ]
    for bad in bad_cells:
        path.write_text(f"n,x\n{bad}\n")
        with pytest.raises(TypeParseError):
            load_csv(path, schema)
    path.write_text(f"n,x\n{2**63},1.0\n")
    with pytest.raises(TypeParseError):
        load_csv(path, schema)


def test_an_over_long_field_is_a_parse_error(tmp_path: Path):
    # The csv module refuses a field over its limit (131,072 characters by
    # default); the load reports it at the record's line, and the
    # process-wide limit is left as it was.
    limit = csv.field_size_limit()
    schema = Schema.of(("a", ColumnType.INT64), ("b", ColumnType.TEXT))
    path = tmp_path / "t.csv"
    long = "z" * (limit + 1)
    path.write_text(f"a,b\n0,y\n1,{long}\n2,y\n")
    with pytest.raises(TypeParseError, match="field larger than field limit") as exc:
        load_csv(path, schema)
    assert (exc.value.line, exc.value.column) == (3, None)
    path.write_text(f"a,{long}\n")
    with pytest.raises(TypeParseError) as exc:
        load_csv(path, schema)
    assert exc.value.line == 1
    assert csv.field_size_limit() == limit


B = tabledata._BLOCK_RECORDS
MIXED = Schema.of(
    ("n", ColumnType.INT64),
    ("x", ColumnType.FLOAT64),
    ("s", ColumnType.TEXT),
    ("m", ColumnType.INT64),
)
NOT_UTF8 = "@not-utf-8@"  # replaced by bytes that do not decode

# Each defect makes a record, or the read of it, fail.
DEFECTS = {
    "bad int": lambda r: r.__setitem__(0, "1x"),
    "int64 overflow": lambda r: r.__setitem__(3, str(2**63)),
    "bad float": lambda r: r.__setitem__(1, "1.5.2"),
    "float overflow": lambda r: r.__setitem__(1, "1e400"),
    "empty cell": lambda r: r.__setitem__(2, ""),
    "trailing newline": lambda r: r.__setitem__(0, "12\n"),
    "short record": lambda r: r.pop(),
    "long record": lambda r: r.append("9"),
    "over-long field": lambda r: r.__setitem__(2, "z" * 131_073),
    "not UTF-8": lambda r: r.__setitem__(2, NOT_UTF8),
    # More digits than int() converts (4,300 on Python 3.11+), whether the
    # value would fit an int64 or not.
    "over-long int": lambda r: r.__setitem__(0, "0" * 5000 + "1"),
    "over-long int past int64": lambda r: r.__setitem__(3, "1" + "0" * 4300),
    # Two defects in one row: the leftmost column is reported.
    "two in one row": lambda r: (r.__setitem__(3, "x"), r.__setitem__(1, "1e400")),
}


def _mixed_record(rng: random.Random) -> list[str]:
    return [
        rng.choice(["0", "-0", "007", str(rng.randrange(-(2**63), 2**63))]),
        rng.choice(["-0.0", "1e3", ".5", "7.", repr(rng.uniform(-1e6, 1e6))]),
        rng.choice(["a", "b,c", 'q"uote', "two\nlines", "-0", " "]),
        str(rng.randrange(2**63)),
    ]


def _write_records(path: Path, records) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([MIXED.names, *records])
    path.write_bytes(text.getvalue().encode().replace(NOT_UTF8.encode(), b"\xff\xfe"))


def _load_outcome(load, path: Path):
    try:
        return "rows", repr(load(path))
    except Exception as exc:  # the outcome is compared, whatever it is
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _assert_loads_as_reference(path: Path, records, defective: bool) -> None:
    _write_records(path, records)
    expected = _load_outcome(lambda p: load_csv_reference(p, MIXED), path)
    assert _load_outcome(lambda p: load_csv(p, MIXED).rows, path) == expected
    assert expected[0] is (TypeParseError if defective else "rows")


@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_block_parsing_matches_the_row_by_row_reference(tmp_path: Path, size: int):
    rng = random.Random(size)
    clean = [_mixed_record(rng) for _ in range(size)]
    path = tmp_path / "t.csv"
    _assert_loads_as_reference(path, clean, defective=False)
    edges = sorted({p for p in (0, B - 1, B, B + 1, size - 1) if 0 <= p < size})
    for name, defect in DEFECTS.items():
        for position in edges:
            records = [list(record) for record in clean]
            defect(records[position])
            _assert_loads_as_reference(path, records, defective=True)
    # Several defects in one file: the first in row order is reported,
    # whichever block holds the others, and a read that fails after a
    # bad cell (bytes that are not UTF-8, a field over the limit) loses
    # to it, in the same block or a later one.
    for pairs in [
        (("bad float", B + 1), ("bad int", 2 * B + 2)),
        (("empty cell", 0), ("short record", B)),
        (("int64 overflow", B - 1), ("long record", B)),
        (("bad int", 1), ("not UTF-8", 3)),
        (("bad int", 1), ("not UTF-8", B - 1)),
        (("float overflow", B - 2), ("not UTF-8", B + 1)),
        (("not UTF-8", 0), ("bad int", B - 1)),
        (("empty cell", 2), ("over-long field", 5)),
        (("over-long field", 2), ("empty cell", 5)),
    ]:
        if max(position for _, position in pairs) >= size:
            continue
        records = [list(record) for record in clean]
        for name, position in pairs:
            DEFECTS[name](records[position])
        _assert_loads_as_reference(path, records, defective=True)


def test_no_table_holds_a_negative_zero(tmp_path: Path):
    schema = Schema.of(("n", ColumnType.INT64), ("x", ColumnType.FLOAT64))
    path = tmp_path / "t.csv"
    path.write_text("n,x\n1,-0.0\n2,-0\n3,-0e7\n4,-1.5\n")
    positive = "((1, 0.0), (2, 0.0), (3, 0.0), (4, -1.5))"
    assert repr(load_csv(path, schema).rows) == positive
    checked = Table.of(schema, [[1, -0.0], (2, 0.0), (3, -0.0), (4, -1.5)])
    assert repr(checked.rows) == positive
    keys = KeySet(Schema.of(("x", ColumnType.FLOAT64)), ((-0.0,), (0.0,)))
    assert repr(keys.rows) == "((0.0,),)"
    # A released aggregate that underflows to a negative zero.
    assert repr(result_cell(Fraction(-1, 10**400), ColumnType.FLOAT64)) == "0.0"
    mapped = make_map(
        TableDomain(schema, None), {"y": "x * -1.0"}, Schema.of(("y", ColumnType.FLOAT64))
    ).apply(checked)
    assert repr(mapped.rows) == "((0.0,), (0.0,), (0.0,), (1.5,))"


# ---------------------------------------------------------------------------
# The column rules against the cell-by-cell oracles in helpers: a column
# is accepted exactly when each of its cells is, with the same values, and
# a refusal names the oracle's first bad cell with its class and message.

INT64, FLOAT64, TEXT = ColumnType.INT64, ColumnType.FLOAT64, ColumnType.TEXT

CSV_VALID = {
    INT64: ["007", "-0", "0", "42", str(2**63 - 1), str(-(2**63)), "0" * 30 + "5"],
    FLOAT64: [
        "1.", ".5", "-.5", "1e+5", "-0.0", "-0", "007", "1E5", "2e-3", "1e308", "5e-324",
        "-1.5e+10", "0.0",
    ],
}
CSV_INVALID = {
    INT64: [
        "1\n2", "12\n", "12\r", "+1", "+0", " 1", "1 ", "1_0", "١٢", "nan", "inf",
        "1e", ".", "-", "--1", "1-", "1-2", "-+1", "", str(2**63), str(-(2**63) - 1),
        "1.0", "1,2", "0x10", "1e5", "0" * 5000 + "1", "-" + "9" * 5000,
    ],
    FLOAT64: [
        "1.5\n2.5", "1\n2", "1.5\n", "1.5\r", "\n1.5", "+1", "+.5", "+1e5", " 1.5", "1.5 ",
        "1_0.0", "١.٢", "nan", "inf", "-inf", "Infinity", "1e", ".", "-", "--1",
        "-+1", "++1", "", "1e400", "-1e400", "1.5.2", "e5", "1e5.5", "1,5", "1,+5", "1e+-3",
        "1.5e", "-e5", ".e5", "1+", "1e5+",
    ],
}
# The characters of both grammars and of their near misses.
CSV_ALPHABET = "0123456789-+.eE \n\r_,١x"


def _cell_outcome(cell: str, ctype: ColumnType):
    try:
        return "value", repr(_reference_cell(cell, ctype, 2, "c"))
    except TypeParseError as exc:
        return TypeParseError, str(exc)


def _random_cells(rng: random.Random, ctype: ColumnType, count: int) -> list[str]:
    cells = []
    for _ in range(count):
        if rng.random() < 0.3:
            cells.append(rng.choice(CSV_VALID[ctype] + CSV_INVALID[ctype]))
        else:
            cells.append("".join(rng.choices(CSV_ALPHABET, k=rng.randrange(1, 6))))
    return cells


@pytest.mark.parametrize("ctype", [INT64, FLOAT64])
def test_a_text_column_is_taken_exactly_when_each_of_its_cells_is(ctype):
    rng = random.Random(f"text column {ctype.value}")
    corpus = CSV_VALID[ctype] + CSV_INVALID[ctype] + _random_cells(rng, ctype, 3000)
    outcomes = {cell: _cell_outcome(cell, ctype) for cell in corpus}
    valid = [cell for cell in corpus if outcomes[cell][0] == "value"]
    assert set(CSV_VALID[ctype]) <= set(valid)
    assert not set(CSV_INVALID[ctype]) & set(valid)
    # One cell alone: the same value, or the same reason.
    for cell, outcome in outcomes.items():
        got = tabledata._parse_column((cell,), ctype)
        if isinstance(got, str):
            message = f"line 2, column 'c': {got.format(cell)}"
            assert (TypeParseError, message) == outcome, cell
        else:
            assert ("value", repr(got[0])) == outcome, cell
    # A column of valid cells gives their values; one bad cell anywhere
    # in it refuses the column.
    for _ in range(300):
        cells = rng.choices(valid, k=rng.randrange(1, 40))
        got = tabledata._parse_column(cells, ctype)
        assert [repr(v) for v in got] == [outcomes[cell][1] for cell in cells]
        bad = rng.choice([cell for cell in corpus if outcomes[cell][0] != "value"])
        cells.insert(rng.randrange(len(cells) + 1), bad)
        assert isinstance(tabledata._parse_column(cells, ctype), str), bad


CSV_SCHEMA = Schema.of(("n", INT64), ("x", FLOAT64), ("s", TEXT))


@pytest.mark.parametrize("column, ctype", [(0, INT64), (1, FLOAT64)])
def test_load_csv_refuses_each_bad_cell_as_the_cell_by_cell_reference(tmp_path, column, ctype):
    rng = random.Random(f"load_csv {ctype.value}")
    path = tmp_path / "t.csv"

    def write(records):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([CSV_SCHEMA.names, *records])
        path.write_text(text.getvalue(), encoding="utf-8")

    def clean(count):
        return [
            [rng.choice(CSV_VALID[INT64]), rng.choice(CSV_VALID[FLOAT64]), "t"]
            for _ in range(count)
        ]

    for cells in (CSV_VALID[ctype], CSV_INVALID[ctype]):
        for cell in cells:
            records = clean(40)
            records[17][column] = cell
            write(records)
            expected = _load_outcome(lambda p: load_csv_reference(p, CSV_SCHEMA), path)
            assert _load_outcome(lambda p: load_csv(p, CSV_SCHEMA).rows, path) == expected
            assert expected[0] == ("rows" if cells is CSV_VALID[ctype] else TypeParseError)


class Color(enum.IntEnum):
    RED = 3


class Name(str):
    pass


class Real(float):
    pass


class Loud(int):
    """An int whose str is not its digits, as an IntEnum's is on Python 3.10."""

    def __str__(self):
        return "loud"


class Sly(float):
    """A float whose + gives text."""

    def __add__(self, other):
        return "not a float"


class Touchy(str):
    """Text that raises when compared with "eng"."""

    def __eq__(self, other):
        if type(other) is str and str.__eq__(other, "eng"):
            raise ValueError("compared with eng")
        return str.__eq__(self, other)

    __hash__ = str.__hash__


class Posing:
    """No number or text, though isinstance takes it for the class it poses as."""

    def __init__(self, pose: type):
        self.pose = pose

    @property
    def __class__(self):
        return self.pose

    def __repr__(self):
        return f"Posing({self.pose.__name__})"


Pair = namedtuple("Pair", "n x s")

PY_VALID = {
    INT64: [0, -1, 7, 2**63 - 1, -(2**63), Color.RED, Loud(5)],
    FLOAT64: [1.5, -0.0, 0.0, -2.5, 1e308, 5e-324, -5e-324, Real(2.5), Real(-0.0), Sly(0.5)],
    TEXT: ["a", "b,c", " ", "0", Name("named"), Touchy("eng")],
}
PY_INVALID = {
    INT64: [True, False, 1.0, "1", None, 2**63, -(2**63) - 1, float("nan"), Color, Posing(int)],
    FLOAT64: [
        float("nan"), float("inf"), -float("inf"), 1, True, "1.5", None, Real("nan"),
        Posing(float),
    ],
    TEXT: ["", Name(""), 1, None, b"a", 1.5, Posing(str)],
}
PY_SCHEMA = Schema.of(("n", INT64), ("x", FLOAT64), ("s", TEXT))
KEYS_AT = "queries[0]/Count.child/GroupBy.keys"


def _rows_outcome(build):
    """The rows as (type, repr) of each cell, or the refusal's class and message."""
    try:
        rows = build()
    except NoisegateError as exc:
        return type(exc), str(exc)
    return "rows", [tuple((type(cell), repr(cell)) for cell in row) for row in rows]


def _script_keys(rows):
    keys = {"columns": [{"name": n, "type": t.value} for n, t in PY_SCHEMA.columns], "rows": rows}
    expr = {"kind": "Count", "child": {"kind": "GroupBy", "keys": keys,
                                       "child": {"kind": "Source", "table": "t"}}}
    return parse_script({"queries": [{"name": "q", "spend": "1", "expr": expr}]})[0].expr.child.keys


def _script_keys_reference(rows):
    decoded = decode_rows_reference(PY_SCHEMA, rows, KEYS_AT)
    try:
        checked = table_rows_reference(PY_SCHEMA, decoded)
    except NoisegateError as exc:
        raise ScriptError(f"{KEYS_AT}: {exc}") from exc
    return tuple(dict.fromkeys(checked))


# Rows of a bad shape, and float64 cells that a script widens or cannot.
ODD_ROWS = [
    [], [7], [7, 1.5], [7, 1.5, "a", "b"], 5, None, "abc", 1.5, Pair(1, 1.5, "a"),
    [1, 2, "a"], (1, 2**1024, "a"), [1, -(2**1024), "a"],
]


def _random_python_rows(rng: random.Random) -> list:
    rows = [
        [rng.choice(PY_VALID[ctype]) for _, ctype in PY_SCHEMA.columns]
        for _ in range(rng.randrange(0, 12))
    ]
    for _ in range(rng.choice([0, 0, 1, 2]) if rows else 0):
        column = rng.randrange(3)
        rng.choice(rows)[column] = rng.choice(PY_INVALID[PY_SCHEMA.columns[column][1]])
    rows = [tuple(row) if rng.random() < 0.5 else row for row in rows]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(ODD_ROWS))
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_python_rows_are_taken_exactly_when_each_cell_is(seed):
    rng = random.Random(f"python rows {seed}")
    seen = Counter()
    for _ in range(400):
        rows = _random_python_rows(rng)
        expected = _rows_outcome(lambda: table_rows_reference(PY_SCHEMA, rows))
        seen[expected[0]] += 1
        assert _rows_outcome(lambda: Table.of(PY_SCHEMA, rows).rows) == expected, rows
        assert _rows_outcome(lambda: Table(PY_SCHEMA, tuple(rows)).rows) == expected, rows
        assert _rows_outcome(lambda: KeySet(PY_SCHEMA, rows).rows) == _rows_outcome(
            lambda: tuple(dict.fromkeys(table_rows_reference(PY_SCHEMA, rows)))
        ), rows
        assert _rows_outcome(lambda: _script_keys(rows).rows) == _rows_outcome(
            lambda: _script_keys_reference(rows)
        ), rows
    # The corpus reaches every outcome.
    assert min(seen["rows"], seen[SchemaMismatch], seen[TypeMismatch]) > 10, seen


def test_every_python_value_is_a_cell_exactly_when_the_reference_says_so():
    for ctype in (INT64, FLOAT64, TEXT):
        for value in PY_VALID[ctype] + PY_INVALID[ctype]:
            expected = _rows_outcome(lambda: [[check_value_reference(value, ctype)]])
            assert _rows_outcome(lambda: [[tabledata.check_value(value, ctype)]]) == expected
            schema = Schema.of(("c", ctype))
            for build in (Table.of, KeySet):
                assert _rows_outcome(lambda: build(schema, [(value,)]).rows) == expected
        # A whole column of valid values, and one bad value among them.
        schema = Schema.of(("c", ctype))
        column = [(value,) for value in PY_VALID[ctype] * 3]
        assert _rows_outcome(lambda: Table.of(schema, column).rows) == _rows_outcome(
            lambda: table_rows_reference(schema, column)
        )
        for value in PY_INVALID[ctype]:
            rows = column[:5] + [(value,)] + column[5:]
            assert _rows_outcome(lambda: Table.of(schema, rows).rows) == _rows_outcome(
                lambda: table_rows_reference(schema, rows)
            )


def test_unchanged_rows_are_kept_and_changed_ones_rebuilt():
    # A table stores the given cells themselves, a column at a time, except
    # where its column's rule rebuilds them (-0.0 as 0.0).
    schema = Schema.of(("s", TEXT), ("n", INT64))
    rows = (("".join(["a", "b"]), 10**12 + 1), ("".join(["c", "d"]), 10**12 + 2))
    table = Table(schema, rows)
    assert table.rows == rows
    assert all(map(lambda a, b: a is b, table.columns[0] + table.columns[1], sum(zip(*rows), ())))
    listed = Table.of(schema, [["a", 1]]).rows
    assert listed == (("a", 1),) and type(listed[0]) is tuple
    zeros = Table.of(Schema.of(("x", FLOAT64)), [(-0.0,), (1.5,)]).rows
    assert repr(zeros) == "((0.0,), (1.5,))"


def _exact_types(table: Table) -> set:
    return {type(cell) for column in table.columns for cell in column}


def test_a_subclass_cell_is_stored_as_its_exact_type(tmp_path: Path):
    # A subclass cell is rebuilt by its base type's own method, so no code
    # of the subclass runs once the cell is stored.
    floats = Table.of(Schema.of(("x", FLOAT64)), [(Sly(1.5),), (Sly(-0.0),), (2.5,)])
    assert repr(floats.rows) == "((1.5,), (0.0,), (2.5,))"
    assert _exact_types(floats) == {float}
    # A filter compares the stored text, not the Touchy cell, so the query
    # runs and is charged once.
    depts = Schema.of(("d", TEXT))
    session = build_session(
        {"p": Table.of(depts, [(Touchy("eng"),), ("ops",), (Touchy("eng"),)])},
        AddMaxRows(1), PrivacyBudget.pure(10**41), 7,
    )
    eng = query("p").filter("d == 'eng'").count()
    released = session.evaluate(eng, PrivacyBudget.pure(10**40))
    assert released.rows == ((2,),)
    assert session.remaining_budget() == PrivacyBudget.pure(9 * 10**40)
    # An int whose str is not its digits is written as its digits, so
    # load(write(t)) == t.
    schema = Schema.of(("n", INT64), ("s", TEXT))
    table = Table.of(schema, [(Color.RED, Name("named")), (Loud(5), "plain")])
    assert table.rows == ((3, "named"), (5, "plain")) and _exact_types(table) == {int, str}
    write_csv(table, tmp_path / "t.csv")
    assert table_equal(load_csv(tmp_path / "t.csv", schema), table)


def _one_object_per_value(column) -> bool:
    return len(set(map(id, column))) == len(set(column))


def test_a_text_column_holds_one_object_per_distinct_cell(tmp_path: Path):
    # load_csv shares across its blocks.
    schema = Schema.of(("zip", TEXT), ("n", INT64), ("dept", TEXT))
    path = tmp_path / "t.csv"
    path.write_text("zip,n,dept\n" + "".join(
        f"981{i % 7:02},{i},dept-{i % 3}\n" for i in range(2 * B + 3)
    ))
    loaded = load_csv(path, schema)
    assert len(set(loaded.columns[0])) == 7 and len(set(loaded.columns[2])) == 3
    assert _one_object_per_value(loaded.columns[0]) and _one_object_per_value(loaded.columns[2])
    # Table.of keeps the first of equal cells, and numeric cells as given.
    rows = [("".join(["z", str(i % 3)]), 10**12 + i % 2, float(i % 2) + 0.5) for i in range(50)]
    assert len(set(map(id, (row[0] for row in rows)))) == 50
    built = Table.of(Schema.of(("s", TEXT), ("n", INT64), ("x", FLOAT64)), rows)
    assert _one_object_per_value(built.columns[0]) and len(set(built.columns[0])) == 3
    assert all(map(lambda cell, row: cell is row[0], built.columns[0][:3], rows))
    assert all(map(lambda cell, row: cell is row[1], built.columns[1], rows))
    assert all(map(lambda cell, row: cell is row[2], built.columns[2], rows))
    # A KeySet's columns, and a script's inline table.
    keys = KeySet(Schema.of(("zip", TEXT), ("dept", TEXT)), [
        ("".join(["981", zip]), "".join(["dept-", dept])) for zip in "0123" for dept in "abc"
    ])
    for column in zip(*keys.rows):
        assert _one_object_per_value(column) and len(set(column)) in (3, 4)
    inline = {"columns": [{"name": "zip", "type": "text"}, {"name": "region", "type": "text"}],
              "rows": [["98101", "north"], ["98102", "south"], ["98103", "south"],
                       ["98104", "north"]]}
    expr = {"kind": "Count", "child": {"kind": "JoinPublic", "on": ["zip"], "table": inline,
                                       "child": {"kind": "Source", "table": "t"}}}
    script = json.loads(json.dumps({"queries": [{"name": "q", "spend": "1", "expr": expr}]}))
    regions = [row[1] for row in script["queries"][0]["expr"]["child"]["table"]["rows"]]
    assert regions[1] is not regions[2]
    joined = parse_script(script)[0].expr.child.table
    assert joined.columns[1] == ("north", "south", "south", "north")
    assert _one_object_per_value(joined.columns[1])


def test_a_text_column_stops_sharing_once_most_of_its_cells_are_distinct(tmp_path: Path):
    # A column is shared while its dict holds at most half of the cells read
    # by a block's end; once it holds more, the column's later cells are
    # kept as given.  Each column's last B + 3 cells are "same", which the
    # csv reader makes a new object each time.
    halves = [f"h{i // 2}" for i in range(B)]  # exactly half distinct: still shared
    distinct = [f"u{i}" for i in range(B)]  # all distinct: no longer shared
    path = tmp_path / "t.csv"
    path.write_text("h,u\n" + "".join(
        f"{h},{u}\n" for h, u in zip(halves + ["same"] * (B + 3), distinct + ["same"] * (B + 3))
    ))
    loaded = load_csv(path, Schema.of(("h", TEXT), ("u", TEXT)))
    assert list(loaded.columns[0]) == halves + ["same"] * (B + 3)
    assert list(loaded.columns[1]) == distinct + ["same"] * (B + 3)
    assert _one_object_per_value(loaded.columns[0])
    assert len(set(map(id, loaded.columns[1][B:]))) == B + 3
    # Table.of by the same rule on blocks of B cells: a column whose first
    # block is mostly distinct comes back as given.
    schema = Schema.of(("h", TEXT), ("u", TEXT))
    rows = [(h, u) for h, u in zip(
        halves + ["".join(["sa", "me"]) for _ in range(B + 3)],
        distinct + ["".join(["sa", "me"]) for _ in range(B + 3)],
    )]
    built = Table.of(schema, rows)
    assert _one_object_per_value(built.columns[0])
    assert all(map(lambda cell, row: cell is row[1], built.columns[1], rows))


def test_no_text_cell_is_made_immortal(tmp_path: Path):
    # The sharing dicts live for one load or build.  sys.intern would make
    # each cell immortal on Python 3.12, whose refcount then reads 2**32 - 1.
    path = tmp_path / "t.csv"
    path.write_text("zip\n" + "".join(f"981{i % 7:02}\n" for i in range(B + 1)))
    loaded = load_csv(path, Schema.of(("zip", TEXT)))
    built = Table.of(Schema.of(("s", TEXT)), [("".join(["z", str(i % 3)]),) for i in range(9)])
    for cell in {*loaded.columns[0], *built.columns[0]}:
        assert sys.getrefcount(cell) < 2**20


def test_result_cell_clamps_a_release_to_its_column_range():
    low, high = -(2**63), 2**63 - 1
    for value, cell in [
        (0, 0), (-7, -7), (low, low), (high, high), (low - 1, low), (high + 1, high),
        (-(10**30), low), (10**30, high),
    ]:
        assert result_cell(value, ColumnType.INT64) == cell
        assert type(result_cell(value, ColumnType.INT64)) is int
    assert result_cell(10**400, ColumnType.FLOAT64) == sys.float_info.max
    assert result_cell(-(10**400), ColumnType.FLOAT64, 3) == -sys.float_info.max


def test_csv_text_quotes_and_terminates():
    t = Table.of(Schema.of(("s", ColumnType.TEXT)), [("a,b",)])
    assert csv_text(t) == 's\n"a,b"\n'


def test_load_schema_file(tmp_path: Path):
    path = tmp_path / "schema.json"
    path.write_text(
        json.dumps(
            {
                "tables": {
                    "people": {
                        "columns": [
                            {"name": "name", "type": "text"},
                            {"name": "age", "type": "int64"},
                            {"name": "score", "type": "float64"},
                        ]
                    }
                }
            }
        )
    )
    domains = load_schema_file(path)
    assert domains["people"].schema == PEOPLE
    path.write_text(json.dumps({"tables": {"people": {"columns": 5}}}))
    with pytest.raises(TypeParseError):
        load_schema_file(path)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda pose: Schema(((pose(str), ColumnType.INT64),)), SchemaMismatch),
        (lambda pose: query("t").filter(pose(str)).count(), TypeMismatch),
        (lambda pose: query("t").sum("n", pose(int), 10), TypeMismatch),
    ],
    ids=["schema name", "filter predicate", "sum bound"],
)
def test_an_object_posing_as_a_type_is_refused_where_that_type_is_expected(build, error):
    # isinstance takes Posing(str) for a str and Posing(int) for an int; the
    # one rule of a value's type reads the type itself, so each call site
    # refuses the poser with its own error.
    with pytest.raises(error, match="expected"):
        build(Posing)
