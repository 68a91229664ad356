"""The expression compiler against the tree-walking oracle in helpers.

A seeded grammar fuzz over the closed expression subset, evaluated on
extreme cells: the int64 ends, products past 2^63, ints past the float
range, +-1e308, +-the largest float, 5e-324, zeros, division by zero and
a lone surrogate.  Every expression must compile to the same result type
(or fail to compile the same way), and give the same value on every row,
or fail on the same rows (a compiled failure is a 0 in a mask and has no
class), so a bound that proved a float finite where it is not shows as a
row that fails in the oracle and not here.  Filters, maps and flat maps
must give the rows of the oracle's row loops, which check every cell
with check_value_reference.
"""

import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    ROW_FAILURES,
    check_value_reference,
    evaluated_outcomes,
    oracle_expression,
    oracle_filter,
    oracle_flat_map,
    oracle_map,
    oracle_projection,
    python_calls,
    python_lines,
)
from noisegate.errors import ExpressionTypeError
from noisegate.expressions import compile_expression, compile_projection
from noisegate import transformations
from noisegate.measurements import (
    PureDpNoise,
    compose_per_group,
    make_average,
    make_count,
    make_sum,
)
from noisegate.metrics import AddRemoveIds
from noisegate.rng import RngStream
from noisegate.session import AddMaxRows, AddRemoveId, PrivacyBudget, build_session, query
from noisegate.tabledata import ColumnType, KeySet, Schema, Table, TableDomain
from noisegate.transformations import (
    ExpansionBranch,
    chain,
    make_filter,
    make_flat_map,
    make_map,
    make_private_join,
    make_public_join,
    make_truncate_by_id,
)

SCHEMA = Schema.of(
    ("i", ColumnType.INT64),
    ("j", ColumnType.INT64),
    ("x", ColumnType.FLOAT64),
    ("y", ColumnType.FLOAT64),
    ("s", ColumnType.TEXT),
    ("t", ColumnType.TEXT),
)
DOMAIN = TableDomain(SCHEMA)

INT_CELLS = [0, 1, -1, 7, 2**63 - 1, -(2**63), 3037000500, 2**62]
FLOAT_CELLS = [0.0, 1e308, -1e308, 5e-324, -5e-324, 1.5, -2.0, sys.float_info.max, -sys.float_info.max]
TEXT_CELLS = ["a", "b", "\ud800", "\U0001F600"]

LEAVES = {
    "int": ["i", "j", "0", "1", "3", "9223372036854775807", "4611686018427387904",
            "3037000500", "1" + "0" * 400],
    # Divisors just below, at and above 1 in size, where a bound over |c|
    # turns on the last ulp.
    "float": ["x", "y", "0.0", "1e308", "5e-324", "1.5", "0.5", "1000.0",
              "0.9999999999999999", "1.0000000000000002", "-1.0"],
    "text": ["s", "t", "'a'", "''", "'\\ud800'"],
    # Comparisons that fail on some rows, so that and/or order shows.
    "bool": ["True", "False", "(x * 1e308 > y)", "(1e308 / x > 0.0)"],
}
KINDS = list(LEAVES)
COMPARE = ["==", "!=", "<", "<=", ">", ">="]
OFF_MENU = ["({a} % {b})", "({a} ** {b})", "({a} is {b})", "({a} in {b})", "abs({a})", "(~{a})"]


def gen(rng: random.Random, kind: str, depth: int, wild: float) -> str:
    """An expression of the given kind; with probability `wild` per node,
    one of another kind or off the menu, so compile errors are fuzzed too."""
    if rng.random() < wild:
        if rng.random() < 0.3:
            a, b = (gen(rng, rng.choice(KINDS), depth - 1, wild) for _ in range(2))
            return rng.choice(OFF_MENU).format(a=a, b=b)
        kind = rng.choice(KINDS)
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(LEAVES[kind])
    sub = lambda k: gen(rng, k, depth - 1, wild)
    number = lambda: sub(rng.choice(["int", "float"]))
    if kind == "int":
        if rng.random() < 0.25:
            return f"(-{sub('int')})"
        return f"({sub('int')} {rng.choice('+-*')} {sub('int')})"
    if kind == "float":
        form = rng.randrange(4)
        if form == 0:
            return f"(-{sub('float')})"
        if form == 1:
            return f"({number()} / {number()})"
        sides = [sub("float"), number()]
        rng.shuffle(sides)
        return f"({sides[0]} {rng.choice('+-*')} {sides[1]})"
    if kind == "text":
        return rng.choice(LEAVES["text"])
    form = rng.randrange(5)
    if form == 0:
        return f"(not {sub('bool')})"
    if form == 1:
        parts = [sub("bool") for _ in range(rng.randrange(2, 4))]
        return "(" + f" {rng.choice(['and', 'or'])} ".join(parts) + ")"
    if form == 2:
        chain = number()
        for _ in range(rng.randrange(1, 4)):
            chain += f" {rng.choice(COMPARE)} {number()}"
        return f"({chain})"
    if form == 3:
        return f"({sub('text')} {rng.choice(COMPARE)} {sub('text')})"
    return f"({sub('bool')} {rng.choice(COMPARE)} {sub('bool')})"  # only == and != compile


def predicate(rng: random.Random, depth: int) -> str:
    """A boolean expression that compiles."""
    while True:
        text = gen(rng, "bool", depth, wild=0.0)
        try:
            oracle_expression(text, SCHEMA)
        except ExpressionTypeError:  # a boolean compared by order
            continue
        return text


def rows(rng: random.Random, count: int) -> list:
    return [
        (
            rng.choice(INT_CELLS), rng.choice(INT_CELLS),
            rng.choice(FLOAT_CELLS), rng.choice(FLOAT_CELLS),
            rng.choice(TEXT_CELLS), rng.choice(TEXT_CELLS),
        )
        for _ in range(count)
    ]


def same(a, b) -> bool:
    """Equal values of one type; floats also agree on the sign of zero."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def outcome(fn, row):
    try:
        return ("value", fn(row))
    except ROW_FAILURES:
        return ("fails", None)


def same_outcome(a, b) -> bool:
    """The same value, or both fail: a compiled failure has no class."""
    return a[0] == b[0] and same(a[1], b[1])


def compiled_or_error(compile_fn, *args):
    try:
        return compile_fn(*args), None
    except Exception as exc:  # the error itself is what is compared
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("seed", range(4))
def test_expressions_match_the_tree_walker(seed):
    rng = random.Random(f"expressions:{seed}")
    sample = rows(rng, 24)
    compiled_count = 0
    for _ in range(150):
        text = gen(rng, rng.choice(KINDS), rng.randrange(1, 5), wild=0.04)
        expected, expected_error = compiled_or_error(oracle_expression, text, SCHEMA)
        actual, actual_error = compiled_or_error(compile_expression, text, SCHEMA)
        assert actual_error == expected_error, text
        if expected is None:
            continue
        compiled_count += 1
        oracle_fn, oracle_type = expected
        assert actual.result_type is oracle_type, text
        for row, evaluated in zip(sample, evaluated_outcomes(actual, SCHEMA, sample)):
            assert same_outcome(evaluated, outcome(oracle_fn, row)), (text, row)
    assert compiled_count > 100


@pytest.mark.parametrize("connective", ["or", "and"])
def test_long_connectives_match_the_tree_walker(connective):
    # Set membership is written as a long `or` of equalities, since `in` is
    # off the menu; 2000 operands is past the default recursion limit, so a
    # chain of nested closures would fail every row.
    rng = random.Random(f"connective:{connective}")
    table = Table.of(SCHEMA, rows(rng, 40) + [(k, 1, 1.5, 0.0, "a", "b") for k in (5, 1999)])
    equality = "==" if connective == "or" else "!="
    terms = [f"i {equality} {k}" for k in range(2000)]
    # Terms that fail on some rows, so that evaluation order shows.
    terms[700] = "(x * 1e308 > y)"
    terms[1400] = "(1e308 / x > 0.0)"
    where = f" {connective} ".join(terms)
    keep, _ = oracle_expression(where, SCHEMA)
    kept = make_filter(DOMAIN, where).apply(table).rows
    assert same(kept, oracle_filter(table.rows, keep))
    assert 0 < len(kept) < len(table.rows)


TARGETS = {
    ColumnType.INT64: ["int"],
    ColumnType.FLOAT64: ["int", "float"],
    ColumnType.TEXT: ["text"],
}


def cell_text(rng: random.Random, ctype: ColumnType) -> str:
    return gen(rng, rng.choice(TARGETS[ctype]), rng.randrange(0, 4), wild=0.0)


def oracle_cells(columns: dict, schema: Schema) -> list:
    return [(oracle_projection(columns[name], SCHEMA, ctype), ctype)
            for name, ctype in schema.columns]


@pytest.mark.parametrize("seed", range(3))
def test_projections_store_what_the_checked_oracle_stores(seed):
    rng = random.Random(f"projections:{seed}")
    sample = rows(rng, 24)
    for _ in range(120):
        ctype = rng.choice(list(TARGETS))
        text = cell_text(rng, ctype)
        cell = compile_projection(text, SCHEMA, ctype)
        oracle = oracle_projection(text, SCHEMA, ctype)
        for row, evaluated in zip(sample, evaluated_outcomes(cell, SCHEMA, sample)):
            expected = outcome(lambda r: check_value_reference(oracle(r), ctype), row)
            assert same_outcome(evaluated, expected), (text, ctype, row)


def random_schema(rng: random.Random) -> Schema:
    types = list(TARGETS)
    return Schema.of(*[(f"c{k}", rng.choice(types)) for k in range(rng.randrange(1, 4))])


def random_columns(rng: random.Random, schema: Schema) -> dict:
    columns = {}
    for name, ctype in schema.columns:
        if rng.random() < 0.3:
            # A bare column of the same type, so rows of bare cells are covered.
            bare = [n for n, t in SCHEMA.columns if t is ctype]
            columns[name] = rng.choice(bare)
        else:
            columns[name] = cell_text(rng, ctype)
    return columns


@pytest.mark.parametrize("seed", range(3))
def test_row_transformations_match_the_oracle_row_loops(seed):
    rng = random.Random(f"transformations:{seed}")
    table = Table.of(SCHEMA, rows(rng, 40))
    for _ in range(40):
        where = predicate(rng, rng.randrange(1, 4))
        keep, _ = oracle_expression(where, SCHEMA)
        kept = make_filter(DOMAIN, where).apply(table).rows
        assert same(kept, oracle_filter(table.rows, keep)), where

        schema = random_schema(rng)
        columns = random_columns(rng, schema)
        mapped = make_map(DOMAIN, columns, schema).apply(table).rows
        assert same(mapped, oracle_map(table.rows, oracle_cells(columns, schema))), columns

        branches = []
        for _ in range(rng.randrange(1, 4)):
            when = predicate(rng, 2) if rng.random() < 0.5 else None
            branches.append(ExpansionBranch(random_columns(rng, schema), when))
        max_rows = rng.randrange(1, 4)
        expanded = make_flat_map(DOMAIN, branches, schema, max_rows).apply(table).rows
        oracle_branches = [
            (None if b.when is None else oracle_expression(b.when, SCHEMA)[0],
             oracle_cells(dict(b.columns), schema))
            for b in branches
        ]
        assert same(expanded, oracle_flat_map(table.rows, oracle_branches, max_rows))


# Two tables of one size whose values differ: on the first every left side
# of `and` holds and nothing fails; on the second some left sides are false
# and some rows fail (a float past the range, an int past a float's or
# int64's).
CALM = [(1, 2, 1.5, 2.0, "a", "b")] * 6
WILD = [
    (7, 2**62, 1e308, 0.0, "a", "b"),
    (0, 1, -1e308, 5e-324, "b", "a"),
    (2**63 - 1, -(2**63), 0.0, 1.5, "\ud800", "a"),
    (-1, 0, 1.5, -2.0, "a", "a"),
    (3, 3037000500, 5e-324, 1e308, "b", "b"),
    (0, 0, 0.0, 0.0, "a", "b"),
]


# An int past the float range on every WILD row and 0 on every CALM row.
BIG = "1" + "0" * 400
FLOAT_CELL = Schema.of(("f", ColumnType.FLOAT64))

# One row keyed by i = 1, which every CALM row matches and no WILD row does.
MATCH_ONE = Table.of(Schema.of(("i", ColumnType.INT64), ("r", ColumnType.TEXT)), [(1, "r")])


def _private_join_on(right, left_bound=6):
    """A private join of a table of SCHEMA with right on i, with bounds
    left_bound (6 keeps every row of either table) and 1, as a step on its
    left table: right's cut is made here, so every apply finds it
    remembered."""
    join = make_private_join(DOMAIN, TableDomain(right.schema), ["i"], left_bound, 1)
    join.apply((Table.of(SCHEMA, CALM), right))
    return SimpleNamespace(apply=lambda table: join.apply((table, right)))


@pytest.mark.parametrize(
    "transformation",
    [
        make_filter(DOMAIN, "x * 1e308 > y and i > 0 or (j * j) * 1.5 > x and not s == t"),
        make_filter(DOMAIN, "i < j < 9 or x / y > 1.0"),
        make_map(
            DOMAIN,
            {"i": "i", "f": "x * 1e300 * 1e8", "g": "j * j * 1.5 + i / y"},
            Schema.of(("i", ColumnType.INT64), ("f", ColumnType.FLOAT64), ("g", ColumnType.FLOAT64)),
        ),
        make_flat_map(
            DOMAIN,
            [
                ExpansionBranch(
                    {"i": "i", "f": "x * 1e300 * 1e8", "g": "j * j * 1.5"},
                    when="x * 1e308 > y and i > 0",
                ),
                ExpansionBranch({"i": "j - i", "f": "y / x", "g": "j * 1e300 * 1e300"}),
            ],
            Schema.of(("i", ColumnType.INT64), ("f", ColumnType.FLOAT64), ("g", ColumnType.FLOAT64)),
            1,
        ),
        make_map(DOMAIN, {"f": f"(i - 1) * {BIG} * 1.5"}, FLOAT_CELL),
        make_public_join(DOMAIN, MATCH_ONE, ["i"]),
        _private_join_on(MATCH_ONE),
    ],
    ids=[
        "and/or filter", "chain filter", "float map", "flat map", "int past a float",
        "public join", "private join",
    ],
)
def test_the_calls_a_row_step_makes_do_not_depend_on_the_values(transformation):
    tables = [Table.of(SCHEMA, rows) for rows in (CALM, WILD)]
    calm, wild = (python_calls(lambda: transformation.apply(table)) for table in tables)
    assert calm == wild
    # The tables differ where it counts: the wild one drops rows (and a
    # join's key matches on every calm row and on no wild one).
    assert len(transformation.apply(tables[0])) == 6 > len(transformation.apply(tables[1]))


# Two tables of one size: each row of the first has its own i, and every
# row of the second has i = 1, so a cut at 1 row per i keeps all six rows
# of the first and one of the second.
OWN_KEYS = [(i, i, 1.5, 2.0, "a", "b") for i in range(6)]
ONE_KEY = [(1, -j, 1e308, 5e-324, "\ud800", "a") for j in range(6)]

# One row for each i of OWN_KEYS.
MATCH_EACH = Table.of(
    Schema.of(("i", ColumnType.INT64), ("r", ColumnType.TEXT)), [(i, "r") for i in range(6)]
)


def _grouped_count_after(cut):
    """cut, then a grouped count by t of the rows it keeps, as a step that
    gives the cut.  Every row of OWN_KEYS has t = "b" and every row of
    ONE_KEY t = "a", and the keys are both, so each cut's groups are one
    present key and one absent one."""
    keys = KeySet(Schema.of(("t", ColumnType.TEXT)), [("a",), ("b",)])
    count = make_count(TableDomain(keys.schema), PureDpNoise(Fraction(1)))
    grouped = compose_per_group(DOMAIN, keys, count, ("count", ColumnType.INT64))

    def apply(table):
        kept = cut.apply(table)
        grouped.eval(kept, RngStream(7))
        return kept

    return SimpleNamespace(apply=apply)


@pytest.mark.parametrize(
    "transformation",
    [
        make_truncate_by_id(TableDomain(SCHEMA, "i"), 1),
        _private_join_on(MATCH_EACH, 1),
        _grouped_count_after(make_truncate_by_id(TableDomain(SCHEMA, "i"), 1)),
    ],
    ids=["truncate by id", "private join, left bound 1", "grouped count after a cut"],
)
def test_the_calls_a_cut_makes_do_not_depend_on_what_it_keeps(transformation):
    tables = [Table.of(SCHEMA, rows) for rows in (OWN_KEYS, ONE_KEY)]
    kept, cut = (python_calls(lambda: transformation.apply(table)) for table in tables)
    assert kept == cut
    assert len(transformation.apply(tables[0])) == 6 > len(transformation.apply(tables[1])) == 1


@pytest.mark.parametrize("count", [python_calls, python_lines], ids=["calls", "lines"])
def test_a_private_join_indexes_every_stored_row_of_its_right_cut(count):
    # Two right tables of six rows: one of six keys, which a cut at one row
    # per key holds whole, and one of five, of which it holds five rows.
    # The join's index of the cut splits every stored row and narrows each
    # key's list to the held rows in C, so a cold join takes the same work.
    schema = MATCH_EACH.schema
    rights = [[(i, "r") for i in range(6)], [(min(i, 4), "r") for i in range(6)]]
    cut = make_truncate_by_id(TableDomain(schema, "i"), 1)
    assert [len(cut.apply(Table.of(schema, rows))) for rows in rights] == [6, 5]
    join = make_private_join(DOMAIN, TableDomain(schema), ["i"], 6, 1)

    def cold(rows):
        left, right = Table.of(SCHEMA, OWN_KEYS), Table.of(schema, rows)
        return count(lambda: join.apply((left, right)))

    assert cold(rights[0]) == cold(rights[1])


def exceptions_raised(fn) -> int:
    """How many exceptions running fn() raises, caught or not, counted as
    the `exception` events of sys.settrace.  sys.setprofile does not see
    an exception that bytecode (a / b) or a call to a type (float) raises."""
    raised = 0

    def trace(frame, event, arg):
        nonlocal raised
        raised += event == "exception"
        return trace

    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
    return raised


@pytest.mark.parametrize(
    "transformation",
    [
        make_map(DOMAIN, {"f": f"(i - 1) * {BIG} * 1.5"}, FLOAT_CELL),
        make_map(DOMAIN, {"f": f"(i - 1) * {BIG} / j"}, FLOAT_CELL),
        make_filter(DOMAIN, f"x / ((i - 1) * {BIG} + 1) >= 0.0"),
        make_map(DOMAIN, {"f": f"(i - 1) * {BIG}"}, FLOAT_CELL),
    ],
    ids=["times a float", "over an int", "a float over it", "widened"],
)
def test_no_row_raises_where_an_int_is_past_a_float(transformation):
    for rows in (CALM, WILD):
        table = Table.of(SCHEMA, rows)
        assert exceptions_raised(lambda: transformation.apply(table)) == 0


# A row that holds the largest float in x, a calm one, and one that
# "j > 0" does not hold.
LARGEST = [
    (2**63 - 1, 2, sys.float_info.max, 0.5, "a", "b"),
    (1, 2, 1.5, 2.0, "a", "b"),
    (-(2**63), 0, -1.5, 1.0, "b", "a"),
]


@pytest.mark.parametrize("text", ["x / 1000.0", "x / -1000.0", "i * 1.5", "-(x / 3)", "i / j"])
def test_a_float_its_bound_proves_finite_has_no_mask(monkeypatch, text):
    # Each bound is at most the largest float, so the program has no
    # finiteness step and nothing can fail; a map of it keeps its input's
    # mask of held rows and compresses nothing.
    table = make_filter(DOMAIN, "j > 0").apply(Table.of(SCHEMA, LARGEST))
    assert compile_expression(text, SCHEMA).evaluate(table)[1] is None
    compressed = []
    monkeypatch.setattr(transformations, "compress", lambda *args: compressed.append(args))
    out = make_map(DOMAIN, {"f": text}, FLOAT_CELL).apply(table)
    assert out.held is table.held and compressed == []
    assert len(out.columns[0]) == len(LARGEST) and len(out) == 2
    assert out.rows == oracle_map(table.rows, oracle_cells({"f": text}, FLOAT_CELL))


@pytest.mark.parametrize("negated", ["x / -1000.0", "i / -3", "x * -0.5 + i", "-9223372036854775808"])
def test_a_negated_number_literal_compiles_as_one_literal(negated):
    # The same steps as the literal's size, so a divisor's sign does not
    # cost a finiteness step or a Python call per row; the oracle reads a
    # unary minus per row and gives the same values.
    plain = negated.replace("-", "")
    compiled = [compile_expression(text, SCHEMA) for text in (negated, plain)]
    assert len(compiled[0].program) == len(compiled[1].program)
    assert compiled[0].evaluate(Table.of(SCHEMA, LARGEST))[1] is None
    oracle_fn, oracle_type = oracle_expression(negated, SCHEMA)
    assert compiled[0].result_type is oracle_type
    for row, evaluated in zip(LARGEST, evaluated_outcomes(compiled[0], SCHEMA, LARGEST)):
        assert same_outcome(evaluated, outcome(oracle_fn, row)), (negated, row)


def test_a_negated_zero_is_still_a_zero_divisor():
    # Division by it runs _div, which gives 0 for a zero divisor, as for
    # the literal 0.0 or 0.
    table = Table.of(SCHEMA, LARGEST)
    for negated in ("x / -0.0", "i / -0"):
        compiled = [compile_expression(text, SCHEMA) for text in (negated, negated.replace("-", ""))]
        assert len(compiled[0].program) == len(compiled[1].program)
        (values, held), (plain, plain_held) = (c.evaluate(table) for c in compiled)
        assert list(values) == list(plain) == [0.0] * len(LARGEST) and held == plain_held


@pytest.mark.parametrize("text", ["x / 0.5", "x * 1.5", "x + 1.0", "x / y", "x / 1.5 / 0.5"])
def test_a_float_its_bound_does_not_prove_finite_keeps_its_mask(text):
    # All but x + 1.0 overflow on the largest float, so a map does not hold
    # that row and stores 0.0, the filler cell, there; the last is proved
    # only if a divisor below 1 in size is taken to shrink the bound.
    # x + 1.0 rounds back to the largest float, but its bound is that float
    # rounded up by one ulp, which is past it, so it keeps its finiteness
    # step all the same, and its mask, which holds every row.
    table = Table.of(SCHEMA, LARGEST)
    assert compile_expression(text, SCHEMA).evaluate(table)[1] is not None
    out = make_map(DOMAIN, {"f": text}, FLOAT_CELL).apply(table)
    expected = oracle_map(table.rows, oracle_cells({"f": text}, FLOAT_CELL))
    assert out.rows == expected
    cells = tuple(row[0] for row in expected)
    if text == "x + 1.0":
        assert out.held == b"\x01\x01\x01" and out.columns == (cells,)
    else:
        assert out.held == b"\x00\x01\x01" and out.columns == ((0.0, *cells),)


# Two tables that differ in one row's i only: 5 on the first and 1 on the
# second.  So "i < 5" drops that row from the first and holds it on the
# second, a cut at one row per i holds it on the first (every i its own)
# and drops a row of i = 1 from the second, and MATCH_BELOW_FIVE matches
# it on the second only.  Their summed column x is the same.
ROW_HELD = [(k, k, 1.5 * k, 2.0, "a", "b") for k in range(6)]
ROW_MOVED = ROW_HELD[:5] + [(1,) + ROW_HELD[5][1:]]
COMPUTED_X = Schema.of(("i", ColumnType.INT64), ("x", ColumnType.FLOAT64))
X_ONLY = Schema.of(("x", ColumnType.FLOAT64))
MATCH_BELOW_FIVE = Table.of(
    Schema.of(("i", ColumnType.INT64), ("r", ColumnType.TEXT)), [(i, "r") for i in range(5)]
)
IDS = TableDomain(SCHEMA, "i")
BELOW_FIVE = ExpansionBranch({"i": "i", "x": "x"}, when="i < 5")


# Each step as a transformation over DOMAIN, and as the query a session
# builds it from, with the privacy unit that query needs; a grouping's
# release is per key of BY_S, whose "a" holds every row and "z" none.
BY_S = KeySet(Schema.of(("s", ColumnType.TEXT)), [("a",), ("z",)])
WORK_STEPS = {
    "filter": (make_filter(DOMAIN, "i < 5"), AddMaxRows(1), lambda q: q.filter("i < 5"), None),
    "cut": (
        make_truncate_by_id(TableDomain(SCHEMA, "i"), 1), AddRemoveId("i"),
        lambda q: q.truncate_by_id(1), None,
    ),
    "fan-out-1 join": (
        make_public_join(DOMAIN, MATCH_BELOW_FIVE, ["i"]), AddMaxRows(1),
        lambda q: q.join_public(MATCH_BELOW_FIVE, ["i"]), None,
    ),
    "map's computed column": (
        chain(
            make_filter(DOMAIN, "i < 5"),
            make_map(DOMAIN, {"i": "i", "x": "x / 2.0"}, COMPUTED_X),
        ),
        AddMaxRows(1),
        lambda q: q.filter("i < 5").map({"i": "i", "x": "x / 2.0"}, COMPUTED_X),
        None,
    ),
    "map with a cell that can fail": (
        chain(
            make_filter(DOMAIN, "i < 5"),
            make_map(DOMAIN, {"i": "i", "x": "x * 1.5"}, COMPUTED_X),
        ),
        AddMaxRows(1),
        lambda q: q.filter("i < 5").map({"i": "i", "x": "x * 1.5"}, COMPUTED_X),
        None,
    ),
    "flat map": (
        make_flat_map(DOMAIN, [BELOW_FIVE], COMPUTED_X, 1), AddMaxRows(1),
        lambda q: q.flat_map([BELOW_FIVE], COMPUTED_X, 1), None,
    ),
    "cut after a filter": (
        chain(make_filter(IDS, "i < 5", AddRemoveIds("i")), make_truncate_by_id(IDS, 2)),
        AddRemoveId("i"),
        lambda q: q.filter("i < 5").truncate_by_id(2),
        None,
    ),
    "grouping after a filter": (
        make_filter(DOMAIN, "i < 5"), AddMaxRows(1), lambda q: q.filter("i < 5").group_by(BY_S),
        BY_S,
    ),
    "grouping after a cut": (
        make_truncate_by_id(TableDomain(SCHEMA, "i"), 1), AddRemoveId("i"),
        lambda q: q.truncate_by_id(1).group_by(BY_S), BY_S,
    ),
}


def _released(rows):
    """rows as a released result: a session's grouped count keyed by every
    column of SCHEMA, so each key is one of the rows, followed by its
    count."""
    spend = PrivacyBudget.pure(1)
    first = build_session({"t": Table.of(SCHEMA, rows)}, AddMaxRows(1), spend, seed=3)
    released = first.evaluate(query("t").group_by(KeySet(SCHEMA, rows)).count(), spend)
    assert released.schema.columns[:-1] == SCHEMA.columns
    assert [row[:-1] for row in released.rows] == rows
    return released


@pytest.mark.parametrize("make", [make_sum, make_average], ids=["sum", "average"])
@pytest.mark.parametrize("source", ["loaded", "built by hand", "released"])
@pytest.mark.parametrize("step", list(WORK_STEPS))
def test_the_work_of_a_sum_over_a_mask_does_not_depend_on_which_rows_it_holds(step, source, make):
    # Each count takes the step and the sum together, cold, when the step
    # runs and the store's counts are built from every stored row, and then
    # warm, when the step's output is remembered and the sum only reads the
    # counts.  A map computes x from every stored row, whether or not its
    # cells can fail, and its output, which the filter's output remembers,
    # stores x and derives x's counts itself; a flat map stores a slot for
    # every stored row, and a cut's pass reads every stored row in order.
    # A table built by hand is its own store, as a loaded one is, and so is
    # a released result, which a second session reads as its table: there
    # the whole ask is counted, its draws too.  A grouped release sums per
    # key, cold when it splits its table and the grouping derives every
    # key's total, warm when each key reads its own.
    transformation, unit, form, keys = WORK_STEPS[step]

    def work(rows, count) -> list[int]:
        if source == "released":
            spend = PrivacyBudget.pure(1)
            second = build_session({"r": _released(rows)}, unit, PrivacyBudget.pure(2), seed=5)
            aggregate = make.__name__.removeprefix("make_")
            asked = getattr(form(query("r")), aggregate)("x", 0, 6, Fraction(1, 100))
            return [count(lambda: second.evaluate(asked, spend)) for _ in ("cold", "warm")]
        table = Table.of(SCHEMA, rows)
        if source == "built by hand":
            table = Table._trusted(SCHEMA, table.columns)
        domain = TableDomain(transformation.output_domain.schema)
        measured = make(domain, "x", 0, 6, Fraction(1, 100), PureDpNoise(1))
        if keys is not None:
            part = make(TableDomain(X_ONLY), "x", 0, 6, Fraction(1, 100), PureDpNoise(1))
            measured = compose_per_group(domain, keys, part, X_ONLY.columns[0])
        return [
            count(lambda: measured.eval(transformation.apply(table), RngStream(5)))
            for _ in ("cold", "warm")
        ]

    # The two sides' released tables share their schema, the result schema
    # that SCHEMA's memo holds, and so what compile derives from it: each
    # side runs once, uncounted, so that every counted ask compiles warm on
    # both sides and only the work on the rows is compared.
    for rows in (ROW_HELD, ROW_MOVED):
        work(rows, lambda fn: fn())
    for count in (python_calls, python_lines):
        held, moved = work(ROW_HELD, count), work(ROW_MOVED, count)
        assert held == moved, count.__name__
    if source != "released":  # a session's second ask draws other noise
        assert held[1] < held[0]  # the warm sum has no pass over the rows
    sizes = {len(transformation.apply(Table.of(SCHEMA, rows))) for rows in (ROW_HELD, ROW_MOVED)}
    assert sizes == {5, 6}
