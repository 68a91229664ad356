import ast
import sys

import pytest

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
from noisegate.tabledata import ColumnType, Schema, TableDomain
from noisegate.transformations import make_filter, make_map

from helpers import evaluated_outcomes, levels_reference

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


@pytest.mark.parametrize("shape", list(_DEEP_PREDICATES))
def test_a_short_stack_is_told_from_an_expression_past_the_cap(shape):
    # Called directly, a 64-level predicate compiles with _COMPILE_FRAMES
    # of headroom and is refused for the stack, not for its depth, with
    # less; a 65-level one is refused for its depth when the stack is ample.
    legal, past = _DEEP_PREDICATES[shape](64), _DEEP_PREDICATES[shape](65)
    domain = TableDomain(SCHEMA)
    assert _with_headroom(_COMPILE_FRAMES, lambda: compile_predicate(legal, SCHEMA))
    assert _with_headroom(_COMPILE_FRAMES, lambda: make_filter(domain, legal))
    for compile_ in (lambda text: compile_predicate(text, SCHEMA), lambda text: make_filter(domain, text)):
        for text in (legal, past):
            with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
                _with_headroom(40, lambda: compile_(text))
        with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
            compile_(past)


def test_a_map_tells_a_short_stack_from_a_cell_past_the_cap():
    floats = Schema.of(("x", ColumnType.FLOAT64))
    legal, past = (_nested(lambda t: f"income + ({t})", "income", n) for n in (64, 65))
    domain = TableDomain(SCHEMA)
    assert _with_headroom(_COMPILE_FRAMES, lambda: make_map(domain, {"x": legal}, floats))
    with pytest.raises(ExpressionSyntaxError, match="frames of stack"):
        _with_headroom(40, lambda: make_map(domain, {"x": legal}, floats))
    with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
        make_map(domain, {"x": past}, floats)


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
