import ast
import sys
import threading

import pytest

from noisegate import expressions
from noisegate.errors import (
    ExpressionSyntaxError,
    ExpressionTypeError,
    UnknownColumn,
)
from noisegate.expressions import (
    _COMPILE_FRAMES,
    ExprType,
    compile_expression,
    compile_predicate,
    compile_projection,
    passing,
)
from noisegate.rng import RngStream
from noisegate.session import AddMaxRows, PrivacyBudget, build_session, keyset_from_tuples, query
from noisegate.tabledata import MAX_REMEMBERED_OUTPUTS, ColumnType, Schema, Table, TableDomain
from noisegate.transformations import ExpansionBranch, make_filter, make_map

from helpers import LoggingRandom, evaluated_outcomes, levels_reference

SCHEMA = Schema.of(
    ("age", ColumnType.INT64),
    ("income", ColumnType.FLOAT64),
    ("zip", ColumnType.TEXT),
)

ROW = (41, 50000.0, "10001")


class RowFailed(Exception):
    """A row's expression failed; a compiled failure has no class."""


def value_on(compiled, row=ROW, schema=SCHEMA):
    """The compiled expression's value on one row, evaluated as a column;
    raises RowFailed if the row fails."""
    ((kind, value),) = evaluated_outcomes(compiled, schema, [row])
    if kind == "fails":
        raise RowFailed("the row failed")
    return value


def ev(text):
    return value_on(compile_expression(text, SCHEMA))


def test_arithmetic_and_precedence():
    assert ev("age + 1") == 42
    assert ev("2 * age + 3") == 85
    assert ev("2 * (age + 3)") == 88
    assert ev("-age") == -41
    assert ev("age - 40") == 1
    assert ev("income / 2") == 25000.0
    assert ev("age / 2") == 20.5  # division always yields float


def test_division_by_zero_is_zero():
    assert ev("age / 0") == 0.0
    assert ev("income / (age - 41)") == 0.0


def test_overflowing_arithmetic_raises():
    with pytest.raises(RowFailed):
        ev("income * 1e308")
    big = compile_expression("age * 1e308", SCHEMA)
    with pytest.raises(RowFailed):
        value_on(big, (2, 0.0, "x"))


# The smallest int that float() refuses.
FLOAT_LIMIT = 2**1024 - 2**970


def python_outcome(fn):
    try:
        return ("value", fn())
    except OverflowError:
        return ("fails", None)


@pytest.mark.parametrize(
    "a, op, b",
    [
        (FLOAT_LIMIT - 1, "/", 1),
        (FLOAT_LIMIT, "/", 1),
        (2 * FLOAT_LIMIT - 1, "/", 2),
        (2 * FLOAT_LIMIT, "/", 2),
        (FLOAT_LIMIT - 1, "*", 1.0),
        (FLOAT_LIMIT, "*", 1.0),
        (FLOAT_LIMIT - 1, "float", None),
        (FLOAT_LIMIT, "float", None),
    ],
)
def test_an_int_past_a_float_fails_where_python_raises(a, op, b):
    # age * a is int arithmetic, which no type proves fits a float, so the
    # compiled program tests its rows at the boundary Python draws.
    for age in (1, -1, 0):
        if op == "float":
            compiled = compile_projection(f"age * {a}", SCHEMA, ColumnType.FLOAT64)
            expected = python_outcome(lambda: float(age * a))
        else:
            compiled = compile_expression(f"age * {a} {op} {b!r}", SCHEMA)
            expected = python_outcome(lambda: age * a / b if op == "/" else age * a * b)
        assert evaluated_outcomes(compiled, SCHEMA, [(age, 0.0, "z")]) == [expected], age


def test_masks_combine_row_by_row():
    assert passing(None, None) is None
    mask = bytes([1, 0, 1])
    assert passing(None, mask) is mask
    assert passing(mask, None, bytes([1, 1, 0])) == bytes([1, 0, 0])
    # Rows that fail at the end keep their place: one byte per row.
    assert passing(bytes([1, 0, 0]), bytes([1, 1, 0])) == bytes([1, 0, 0])
    assert passing(bytes(4), bytes([1]) * 4) == bytes(4)
    assert passing(b"", b"") == b""


def test_comparisons_and_chaining():
    assert ev("age > 40") is True
    assert ev("age >= 41") is True
    assert ev("40 < age < 42") is True
    assert ev("age == 41") is True
    assert ev("age != 41") is False
    assert ev("income <= 50000.0") is True


def test_text_comparisons_use_code_point_order():
    assert ev("zip == '10001'") is True
    assert ev("zip < '2'") is True
    s = Schema.of(("s", ColumnType.TEXT))
    expr = compile_expression("s < 'a'", s)
    assert value_on(expr, ("Z",), s) is True  # 'Z' (0x5A) sorts before 'a' (0x61)


def test_bool_logic():
    assert ev("age > 40 and zip == '10001'") is True
    assert ev("age > 50 or income > 0.0") is True
    assert ev("not age > 50") is True


def test_mixed_numeric_widening():
    assert ev("age + income") == 50041.0
    assert isinstance(ev("age + income"), float)
    assert ev("age < income") is True


def test_type_errors():
    for text in [
        "zip + 1",
        "age + zip",
        "zip and age > 0",
        "not zip",
        "-zip",
        "age > zip",
        "(age > 0) + 1",
        "(age > 0) < (age > 1)",
    ]:
        with pytest.raises(ExpressionTypeError):
            compile_expression(text, SCHEMA)


def test_bool_equality_allowed():
    assert ev("(age > 40) == (income > 0.0)") is True


def test_unknown_column():
    with pytest.raises(UnknownColumn):
        compile_expression("salary > 0", SCHEMA)


def test_syntax_errors_and_disallowed_nodes():
    for text in [
        "age +",
        "import os",
        "f(age)",
        "age.bit_length",
        "age ** 2",
        "age % 2",
        "[1,2]",
        "age if True else 0",
        "lambda: 1",
        "None",
        "age & 1",
    ]:
        with pytest.raises(ExpressionSyntaxError):
            compile_expression(text, SCHEMA)


@pytest.mark.parametrize(
    "text, levels",
    [
        # A comparison, n unary minuses and a column: n + 2 levels.
        ("-" * 62 + "income != 0", 64),
        ("-" * 63 + "income != 0", 65),
        # An and/or of n operands counts ceil(log2 n) levels.
        (" and ".join(["-" * 61 + "income != 0"] * 2), 64),
        (" and ".join(["-" * 60 + "income != 0"] * 4), 64),
        (" and ".join(["-" * 60 + "income != 0"] * 5), 65),
    ],
)
def test_an_expression_nests_at_most_64_levels(text, levels):
    if levels <= 64:
        assert value_on(compile_predicate(text, SCHEMA)) is True
    else:
        with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
            compile_predicate(text, SCHEMA)


def _deep_number(k):
    # k levels: k - 1 unary minuses over a column.
    return "-" * (k - 1) + "income"


def _deep_bool(k):
    # k levels: k - 2 nots over a comparison of two leaves.
    return "not " * (k - 2) + "income != 0"


# Each node kind and operand position with a deep part beneath it.
_DEEP_CONTEXTS = [
    ("unary minus", _deep_number, lambda d: f"-({d})"),
    ("not", _deep_bool, lambda d: f"not ({d})"),
    ("left arithmetic operand", _deep_number, lambda d: f"({d}) - age"),
    ("right arithmetic operand", _deep_number, lambda d: f"age * ({d})"),
    ("comparison, left", _deep_number, lambda d: f"({d}) < age < 100"),
    ("comparison, middle", _deep_number, lambda d: f"0 < ({d}) < 100"),
    ("comparison, last", _deep_number, lambda d: f"0 < age < ({d})"),
] + [
    (
        f"{op} of {n}, operand {i}",
        _deep_bool,
        lambda d, op=op, n=n, i=i: f" {op} ".join(
            f"({d})" if j == i else "age > 0" for j in range(n)
        ),
    )
    for op in ("and", "or")
    for n in (2, 4, 5)
    for i in range(n)
]


@pytest.mark.parametrize("levels", [64, 65])
@pytest.mark.parametrize(
    "deep, context", [c[1:] for c in _DEEP_CONTEXTS], ids=[c[0] for c in _DEEP_CONTEXTS]
)
def test_the_compiler_counts_levels_as_the_reference_walk_does(deep, context, levels):
    # The deep part's size that brings the whole expression to `levels`.
    k = 3 + levels - levels_reference(ast.parse(context(deep(3)), mode="eval").body)
    text = context(deep(k))
    assert levels_reference(ast.parse(text, mode="eval").body) == levels
    if levels <= 64:
        compile_expression(text, SCHEMA)
    else:
        with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
            compile_expression(text, SCHEMA)


def test_a_shallow_fault_beside_a_part_past_the_cap_is_refused_for_the_first_met():
    # The compiler builds left to right and counts levels as it goes, so
    # it meets an unknown column on the left before a part past the cap.
    deep = " + ".join(["age"] * 64)
    unknown_first, deep_first = f"zz + ({deep})", f"({deep}) + zz"
    for text in (unknown_first, deep_first):
        assert levels_reference(ast.parse(text, mode="eval").body) == 65
    with pytest.raises(UnknownColumn, match="no column named 'zz'"):
        compile_expression(unknown_first, SCHEMA)
    with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
        compile_expression(deep_first, SCHEMA)


def _nested(wrap, inner, levels):
    """inner wrapped until it nests `levels` levels deep."""
    while levels_reference(ast.parse(inner, mode="eval").body) < levels:
        inner = wrap(inner)
    assert levels_reference(ast.parse(inner, mode="eval").body) == levels
    return inner


# Predicates nested through each node kind, and through each position
# whose operands the compiler builds in a loop.
_DEEP_PREDICATES = {
    "sum": lambda n: _nested(lambda t: f"income + ({t})", "income", n - 1) + " > 0",
    "minus": lambda n: _nested(lambda t: f"-({t})", "income", n - 1) + " > 0",
    "not": lambda n: _nested(lambda t: f"not ({t})", "income > 0", n),
    "and": lambda n: _nested(lambda t: f"income > 0 and ({t})", "income > 0", n),
    "comparator": lambda n: _nested(lambda t: f"(income > 0) == ({t})", "income > 0", n),
}


def _with_headroom(headroom, compile_):
    # compile_'s own frame is one below this one.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        return compile_()
    finally:
        sys.setrecursionlimit(limit)


def _fresh_schema():
    """A schema equal to SCHEMA that has compiled nothing."""
    return Schema.of(*SCHEMA.columns)


def _filter(text, schema):
    return make_filter(TableDomain(schema), text)


@pytest.mark.parametrize("shape", list(_DEEP_PREDICATES))
def test_a_short_stack_is_told_from_an_expression_past_the_cap(shape):
    # Called directly, on a schema that has not compiled it, a 64-level
    # predicate is refused for the stack, not for its depth, with less than
    # _COMPILE_FRAMES of headroom, and compiles with them; a 65-level one
    # is refused for the stack with less and for its depth when the stack
    # is ample.  Once compiled, the schema remembers the legal one, which
    # then returns with 40 frames as well; the one past the cap is still
    # refused for the stack there.
    legal, past = _DEEP_PREDICATES[shape](64), _DEEP_PREDICATES[shape](65)
    for compile_ in (compile_predicate, _filter):
        schema = _fresh_schema()
        for text in (legal, past):
            with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
                _with_headroom(40, lambda: compile_(text, schema))
        with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
            compile_(past, schema)
        compiled = _with_headroom(_COMPILE_FRAMES, lambda: compile_(legal, schema))
        assert compiled
        again = _with_headroom(40, lambda: compile_(legal, schema))
        if compile_ is compile_predicate:
            assert again is compiled
        else:
            assert again.output_domain == compiled.output_domain
        with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
            _with_headroom(40, lambda: compile_(past, schema))


def test_a_map_tells_a_short_stack_from_a_cell_past_the_cap():
    # As above, for a map's cell on a schema that has not compiled it.
    floats = Schema.of(("x", ColumnType.FLOAT64))
    legal, past = (_nested(lambda t: f"income + ({t})", "income", n) for n in (64, 65))
    domain = TableDomain(_fresh_schema())
    with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
        _with_headroom(40, lambda: make_map(domain, {"x": legal}, floats))
    with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
        make_map(domain, {"x": past}, floats)
    assert _with_headroom(_COMPILE_FRAMES, lambda: make_map(domain, {"x": legal}, floats))
    assert _with_headroom(40, lambda: make_map(domain, {"x": legal}, floats))
    with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
        _with_headroom(40, lambda: make_map(domain, {"x": past}, floats))


# ---------------------------------------------------------------------------
# Remembered compiles: a schema keeps what compiled against it.


def test_a_repeated_compile_returns_the_expression_its_schema_remembers():
    schema = _fresh_schema()
    compiled = compile_expression("age > 40", schema)
    assert compile_expression("age > 40", schema) is compiled
    # A predicate is an expression: the two share the entry.
    assert compile_predicate("age > 40", schema) is compiled
    widened = compile_projection("age + 1", schema, ColumnType.FLOAT64)
    assert compile_projection("age + 1", schema, ColumnType.FLOAT64) is widened
    # Another text, target or schema object compiles anew, to an equal
    # program on an equal schema.
    anew = [
        compile_expression("age > 41", schema),
        compile_expression("age + 1", schema),
        compile_projection("age + 1", schema, ColumnType.INT64),
        compile_expression("age > 40", _fresh_schema()),
    ]
    assert len({id(c) for c in (compiled, widened, *anew)}) == 6
    assert value_on(anew[3]) is value_on(compiled) is True
    assert value_on(anew[1]) == value_on(anew[2]) == 42 and value_on(widened) == 42.0
    assert list(schema.compiled) == [
        ("age > 40", None),
        ("age + 1", ColumnType.FLOAT64),
        ("age > 41", None),
        ("age + 1", None),
        ("age + 1", ColumnType.INT64),
    ]


_REFUSED = [
    (compile_expression, ("age +",), ExpressionSyntaxError, "cannot parse"),
    (compile_expression, ("age + zip",), ExpressionTypeError, "numeric operands"),
    (compile_expression, ("zz > 1",), UnknownColumn, "no column named 'zz'"),
    (compile_expression, (" + ".join(["age"] * 65),), ExpressionSyntaxError, "nests too deeply"),
    (compile_expression, ("",), ExpressionSyntaxError, "non-empty strings"),
    (compile_expression, (["age"],), ExpressionSyntaxError, "non-empty strings"),
    (compile_predicate, ("age + 1",), ExpressionTypeError, "not bool"),
    (compile_projection, ("zip", ColumnType.INT64), ExpressionTypeError, "column needs int64"),
    (compile_projection, ("income", ColumnType.INT64), ExpressionTypeError, "column needs int64"),
]


@pytest.mark.parametrize(
    "compile_, args, error, message",
    _REFUSED,
    ids=["syntax", "type", "column", "depth", "empty", "no text", "predicate", "text cell", "float cell"],
)
def test_a_refusal_is_raised_again_on_every_call(compile_, args, error, message):
    schema = _fresh_schema()
    text, *target = args
    for _ in range(3):
        with pytest.raises(error, match=message):
            compile_(text, schema, *target)
    # Nothing is remembered under the refused text and target; a predicate
    # of another type remembers the expression it refuses, which is legal.
    if compile_ is compile_predicate:
        assert list(schema.compiled) == [(text, None)]
    else:
        assert not schema.compiled


def test_a_short_stack_is_refused_on_every_call_until_a_compile_succeeds():
    schema, legal = _fresh_schema(), _DEEP_PREDICATES["sum"](64)
    for _ in range(3):
        with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
            _with_headroom(40, lambda: compile_predicate(legal, schema))
    assert not schema.compiled
    compiled = _with_headroom(_COMPILE_FRAMES, lambda: compile_predicate(legal, schema))
    assert _with_headroom(40, lambda: compile_predicate(legal, schema)) is compiled


def test_a_schema_remembers_at_most_the_count_of_expressions():
    schema = _fresh_schema()
    texts = [f"age + {i}" for i in range(MAX_REMEMBERED_OUTPUTS + 5)]
    first = {text: compile_expression(text, schema) for text in texts}
    assert len(schema.compiled) == MAX_REMEMBERED_OUTPUTS
    # The least recently used went first: the first five texts.
    assert list(schema.compiled) == [(text, None) for text in texts[5:]]
    # Using an entry keeps it: the oldest one, used now, outlives the next.
    assert compile_expression(texts[5], schema) is first[texts[5]]
    rebuilt = compile_expression(texts[0], schema)
    assert len(schema.compiled) == MAX_REMEMBERED_OUTPUTS
    assert (texts[5], None) in schema.compiled and (texts[6], None) not in schema.compiled
    # A dropped entry is compiled again, to an equal expression.
    assert rebuilt is not first[texts[0]]
    assert rebuilt.result_type is first[texts[0]].result_type is ExprType.INT
    assert len(rebuilt.program) == len(first[texts[0]].program)
    rows = [(41, 50000.0, "10001"), (-3, 0.5, "x"), (2**62, -1.0, "z")]
    assert evaluated_outcomes(rebuilt, schema, rows) == evaluated_outcomes(first[texts[0]], schema, rows)
    assert [value_on(rebuilt, row) for row in rows] == [41, -3, 2**62]
    assert compile_expression(texts[0], schema) is rebuilt


def test_threads_compiling_against_one_schema_get_the_right_programs():
    # Two threads cycle through as many texts as a schema keeps, mostly
    # finding them remembered, while two compile texts of their own, each
    # of which drops the entry used least recently: the next one the
    # cycling threads look up.  Each compile gives the program of its own
    # text (age * k + k is 42 k on ROW), and none raises.
    schema = _fresh_schema()
    start, problems = threading.Barrier(4, timeout=60), []

    def text(k):
        return f"age * {k} + {k}"

    def work(ks):
        start.wait()
        try:
            for k in ks:
                value = value_on(compile_expression(text(k), schema))
                if value != 42 * k:
                    problems.append((text(k), value))
        except Exception as exc:  # noqa: BLE001 - every raise is a failure here
            problems.append(exc)

    cycled = list(range(MAX_REMEMBERED_OUTPUTS)) * 40
    fresh = [range(1000 + n * 500, 1500 + n * 500) for n in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(ks,)) for ks in (cycled, cycled, *fresh)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert len(schema.compiled) <= MAX_REMEMBERED_OUTPUTS


_ZIPS = keyset_from_tuples([("zip", ColumnType.TEXT)], [("10001",), ("10002",), ("99999",)])
_BRANCHES = [
    ExpansionBranch({"age": "age", "x": "income / 2.0"}),
    ExpansionBranch({"age": "age + 1", "x": "income * 1e308 * 10.0"}, "age > 30"),
]
_AGE_X = Schema.of(("age", ColumnType.INT64), ("x", ColumnType.FLOAT64))
# Every expression compile: filters, a map's cells of each kind, a flat
# map's cells and guard, grouped and not; the first is asked twice, so a
# session's own second ask of it is warm.
_ASKS = [
    query("t").filter("age > 40 and zip != '10002'").count(),
    query("t").filter("age > 40 and zip != '10002'").count(),
    query("t").map({"age": "age * 2", "x": "income - age"}, _AGE_X).filter("x > 0.0").sum("x", 0, 10**5),
    query("t").flat_map(_BRANCHES, _AGE_X, 2).average("x", -10, 10**5),
    query("t").filter("income / 1000.0 > 20.0").group_by(_ZIPS).count(),
    query("t").map({"age": "age", "x": "1"}, _AGE_X).quantile("age", 0.5, 0, 100, 50),
]


def _people():
    rows = [(18 + (7 * i) % 60, 1000.0 * ((13 * i) % 90), f"1000{i % 3}") for i in range(60)]
    return Table.of(_fresh_schema(), rows)


def test_sessions_release_the_same_rows_and_draws_whether_compiles_are_cold_or_warm(monkeypatch):
    logs, generator = [], RngStream.generator

    def logged(stream):
        made = LoggingRandom(0)
        made.setstate(generator(stream).getstate())
        logs.append(made.calls)
        return made

    monkeypatch.setattr(RngStream, "generator", logged)

    def released(table):
        logs.clear()
        budget = PrivacyBudget.pure(len(_ASKS))
        session = build_session({"t": table}, AddMaxRows(1), budget, seed=9)
        rows = [session.evaluate(ask, PrivacyBudget.pure(1)).rows for ask in _ASKS]
        return rows, [list(calls) for calls in logs]

    table = _people()

    def remembered():
        return [dict(schema.compiled) for schema in (table.schema, _AGE_X)]

    cold = released(table)
    assert all(remembered())
    before = remembered()

    def unparsed(text):
        raise AssertionError(f"{text!r} was parsed again")

    with monkeypatch.context() as patched:
        patched.setattr(expressions, "_parse", unparsed)
        warm = released(table)
    # The warm session compiled nothing new and found every expression.
    assert remembered() == before
    # A session over equal tables whose schema compiled nothing yet.
    cold_again = released(_people())
    assert cold == warm == cold_again
    assert all(cold[1]) and len(cold[1]) == len(_ASKS)


def test_predicate_requires_bool():
    assert compile_predicate("age > 40", SCHEMA).result_type is ExprType.BOOL
    with pytest.raises(ExpressionTypeError):
        compile_predicate("age + 1", SCHEMA)


def test_projection_widens_int_to_float_only():
    proj = compile_projection("age + 1", SCHEMA, ColumnType.FLOAT64)
    assert value_on(proj) == 42.0
    assert isinstance(value_on(proj), float)
    exact = compile_projection("age + 1", SCHEMA, ColumnType.INT64)
    assert value_on(exact) == 42
    with pytest.raises(ExpressionTypeError):
        compile_projection("income", SCHEMA, ColumnType.INT64)  # no narrowing
    with pytest.raises(ExpressionTypeError):
        compile_projection("age", SCHEMA, ColumnType.TEXT)
    text = compile_projection("zip", SCHEMA, ColumnType.TEXT)
    assert value_on(text) == "10001"


def test_surrounding_whitespace_is_no_part_of_an_expression():
    # One parse rule: a leading space is no "unexpected indent".
    assert value_on(compile_predicate(" age > 40", SCHEMA)) is True
    assert value_on(compile_predicate("\tage > 40\n", SCHEMA)) is True
    assert compile_expression("  age  ", SCHEMA).column == 0
    assert compile_expression("(age)", SCHEMA).column == 0
    assert compile_expression("age + 0", SCHEMA).column is None
    with pytest.raises(ExpressionSyntaxError):
        compile_expression("   ", SCHEMA)
