"""A small row expression language for filters and maps.

Expressions are written in Python syntax but only a closed subset is
accepted: column names, int/float/string/bool literals, arithmetic,
comparisons, and boolean connectives.  No calls, no attributes, no
subscripts, no user code.  Every accepted expression is deterministic on
rows of its schema, but not total: arithmetic that yields a non-finite
float raises ExpressionTypeError, and an int too large for a float
raises OverflowError.  The row transformations catch both per row (a
failing filter row is false, a failing map row is dropped), which is
what lets them carry their guarantees without inspecting data.

Each node of the checked syntax tree compiles to a closure specialised to
its shape: a column is an operator.itemgetter, a literal is bound once, a
single comparison is one `operator` call and `and`/`or` nest as `a(row)
and b(row)` in a balanced tree.  No source text is generated, so no
literal is ever spliced into code.  A projection for a map cell
(compile_projection) returns the cell a Table stores and keeps only the
checks its type does not prove; float arithmetic turns -0.0 into 0.0 in
the closure that checks it is finite.  A cell that fails its column
raises SchemaMismatch, which the row transformations catch like the two
errors above.

Division is defined everywhere by mapping division by zero to zero.  Text
comparisons use code-point order, which matches the byte order used by
table canonicalization.
"""

from __future__ import annotations

import ast
import enum
import operator
from math import isfinite
from typing import Callable, Union

from .errors import ExpressionSyntaxError, ExpressionTypeError, UnknownColumn
from .records import Record
from .tabledata import ColumnType, Row, Schema, Value, check_value


class ExprType(enum.Enum):
    INT = "int64"
    FLOAT = "float64"
    TEXT = "text"
    BOOL = "bool"


_COLUMN_TYPES = {
    ColumnType.INT64: ExprType.INT,
    ColumnType.FLOAT64: ExprType.FLOAT,
    ColumnType.TEXT: ExprType.TEXT,
}

_NUMERIC = (ExprType.INT, ExprType.FLOAT)


class CompiledExpression(Record):
    """A checked expression: its result type and a row evaluator.

    `column` is the index of the input column when the expression is that
    bare column, so its value is the cell itself.
    """

    result_type: ExprType
    fn: Callable[[Row], Union[Value, bool]]
    column: int | None = None


def _parse(text: str) -> ast.expr:
    # Surrounding whitespace is no part of an expression.
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ExpressionSyntaxError(f"cannot parse {text!r}: {exc.msg}") from exc
    return tree.body


# How many levels an expression may nest.  Evaluating a row takes at most
# two Python frames per level (float arithmetic and its finiteness check; a
# column is read in C), and compiling about two, so this cap, and not the
# rows, bounds the stack an expression needs.
_MAX_LEVELS = 64


def _levels(node: ast.expr) -> int:
    """How many levels deep a parsed expression nests, found with an
    explicit stack.  An and/or of n operands counts the ceil(log2 n)
    levels of the balanced tree _connect builds for it."""
    deepest = 0
    stack = [(node, 1)]
    while stack:
        node, level = stack.pop()
        if isinstance(node, ast.BoolOp):
            level += (len(node.values) - 1).bit_length() - 1
        deepest = max(deepest, level)
        stack.extend(
            (child, level + 1)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )
    return deepest


def _fail(text: str, message: str) -> ExpressionTypeError:
    return ExpressionTypeError(f"in {text!r}: {message}")


def _unsupported(text: str, message: str) -> ExpressionSyntaxError:
    # Off-menu grammar is a syntax problem, not a type problem.
    return ExpressionSyntaxError(f"in {text!r}: {message}")


def _div(a, b):
    # Total by definition: division by zero yields zero.
    if b == 0:
        return 0.0
    return a / b


_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

_COMPARISONS = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}


def _binary(op, left: ast.expr, left_fn, right: ast.expr, right_fn, schema: Schema):
    """A row evaluator for op(left, right), left evaluated first.

    A literal on the right is bound once and a bare column beside it is
    read as row[i], so `column op literal` costs one call of op per row.
    """
    if isinstance(right, ast.Constant):
        value = right.value
        if isinstance(left, ast.Name):
            index = schema.index_of(left.id)
            return lambda row: op(row[index], value)
        return lambda row: op(left_fn(row), value)
    return lambda row: op(left_fn(row), right_fn(row))


def _finite(fn, text: str, zero: float):
    """fn plus zero, raising ExpressionTypeError where it yields a
    non-finite float.  Adding -0.0 leaves every float as it is; adding 0.0
    also turns -0.0 into 0.0, as a stored cell needs."""

    def checked(row: Row) -> float:
        value = fn(row) + zero
        if isfinite(value):
            return value
        raise _fail(text, "arithmetic produced a non-finite float")

    return checked


def _connect(fns: list, both: bool):
    """fns joined by `and` (both) or `or`, left to right with the same
    short-circuit, as a balanced tree so that a row of n operands is
    evaluated about log2(n) calls deep rather than n."""
    if len(fns) == 1:
        return fns[0]
    half = len(fns) // 2
    a, b = _connect(fns[:half], both), _connect(fns[half:], both)
    if both:
        return lambda row: a(row) and b(row)
    return lambda row: a(row) or b(row)


def _build(node: ast.expr, schema: Schema, text: str, zero: float = -0.0):
    """Return (evaluator, type) for a node, rejecting anything off-menu.

    Float arithmetic at this node, not in its operands, adds `zero` to its
    value (see _finite)."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool):
            return (lambda row: value), ExprType.BOOL
        if isinstance(value, int):
            return (lambda row: value), ExprType.INT
        if isinstance(value, float):
            if not isfinite(value):
                raise _fail(text, "float literals must be finite")
            return (lambda row: value), ExprType.FLOAT
        if isinstance(value, str):
            return (lambda row: value), ExprType.TEXT
        raise _unsupported(text, f"unsupported literal {value!r}")

    if isinstance(node, ast.Name):
        try:
            index = schema.index_of(node.id)
        except UnknownColumn:
            raise UnknownColumn(
                f"in {text!r}: no column named {node.id!r}; "
                f"have {list(schema.names)}"
            )
        ctype = _COLUMN_TYPES[schema.columns[index][1]]
        return operator.itemgetter(index), ctype

    if isinstance(node, ast.UnaryOp):
        operand, otype = _build(node.operand, schema, text)
        if isinstance(node.op, ast.Not):
            if otype is not ExprType.BOOL:
                raise _fail(text, "'not' needs a boolean operand")
            return (lambda row: not operand(row)), ExprType.BOOL
        if isinstance(node.op, ast.USub):
            if otype not in _NUMERIC:
                raise _fail(text, "unary minus needs a numeric operand")
            return (lambda row: -operand(row)), otype
        raise _unsupported(text, f"unsupported unary operator {type(node.op).__name__}")

    if isinstance(node, ast.BoolOp):
        parts = [_build(v, schema, text) for v in node.values]
        if any(t is not ExprType.BOOL for _, t in parts):
            raise _fail(text, "'and'/'or' need boolean operands")
        fns = [fn for fn, _ in parts]
        return _connect(fns, isinstance(node.op, ast.And)), ExprType.BOOL

    if isinstance(node, ast.BinOp):
        left, lt = _build(node.left, schema, text)
        right, rt = _build(node.right, schema, text)
        if lt not in _NUMERIC or rt not in _NUMERIC:
            raise _fail(text, "arithmetic needs numeric operands")
        if isinstance(node.op, ast.Div):
            nonzero = isinstance(node.right, ast.Constant) and node.right.value != 0
            op = operator.truediv if nonzero else _div
        elif type(node.op) in _ARITHMETIC:
            op = _ARITHMETIC[type(node.op)]
        else:
            raise _unsupported(text, f"unsupported operator {type(node.op).__name__}")
        fn = _binary(op, node.left, left, node.right, right, schema)
        if isinstance(node.op, ast.Div) or ExprType.FLOAT in (lt, rt):
            return _finite(fn, text, zero), ExprType.FLOAT
        return fn, ExprType.INT

    if isinstance(node, ast.Compare):
        operands = [_build(node.left, schema, text)]
        operands += [_build(c, schema, text) for c in node.comparators]
        types = [t for _, t in operands]
        for a, b in zip(types, types[1:]):
            if a in _NUMERIC and b in _NUMERIC:
                continue
            if a is b and a in (ExprType.TEXT, ExprType.BOOL):
                continue
            raise _fail(text, f"cannot compare {a.value} with {b.value}")
        ops = []
        for op_node, t in zip(node.ops, types[1:]):
            if type(op_node) not in _COMPARISONS:
                raise _unsupported(text, f"unsupported comparison {type(op_node).__name__}")
            if t is ExprType.BOOL and not isinstance(op_node, (ast.Eq, ast.NotEq)):
                raise _fail(text, "booleans only support == and !=")
            ops.append(_COMPARISONS[type(op_node)])
        fns = [f for f, _ in operands]
        if len(ops) == 1:
            (right,) = node.comparators
            return _binary(ops[0], node.left, fns[0], right, fns[1], schema), ExprType.BOOL

        def compare(row: Row) -> bool:
            prev = fns[0](row)
            for op, fn in zip(ops, fns[1:]):
                nxt = fn(row)
                if not op(prev, nxt):
                    return False
                prev = nxt
            return True

        return compare, ExprType.BOOL

    raise _unsupported(text, f"unsupported syntax {type(node).__name__}")


def _compile(text: str, schema: Schema, zero: float):
    """Parse, bound and build an expression: (its node, evaluator, type).
    Float arithmetic at the top adds `zero` to its value (see _finite)."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionSyntaxError("expressions must be non-empty strings")
    try:
        node = _parse(text)
        too_deep = _levels(node) > _MAX_LEVELS
        if not too_deep:
            fn, result_type = _build(node, schema, text, zero)
    except (RecursionError, MemoryError):
        too_deep = True
    if too_deep:
        # Refused here, at compile time, before any spend is charged.
        raise ExpressionSyntaxError(
            f"an expression of {len(text)} characters nests too deeply to "
            f"compile; the limit is {_MAX_LEVELS} levels"
        )
    return node, fn, result_type


def compile_expression(text: str, schema: Schema) -> CompiledExpression:
    """Parse and type-check an expression against a schema."""
    node, fn, result_type = _compile(text, schema, -0.0)
    column = schema.index_of(node.id) if isinstance(node, ast.Name) else None
    return CompiledExpression(result_type, fn, column)


def compile_predicate(text: str, schema: Schema) -> CompiledExpression:
    """Compile an expression that must produce a boolean."""
    compiled = compile_expression(text, schema)
    if compiled.result_type is not ExprType.BOOL:
        raise ExpressionTypeError(
            f"predicate {text!r} has type {compiled.result_type.value}, not bool"
        )
    return compiled


def compile_projection(text: str, schema: Schema, target: ColumnType) -> CompiledExpression:
    """Compile an expression yielding the cell a column of type target stores.

    Integer expressions widen to float columns; nothing else coerces.  The
    evaluator returns the cell as a Table stores it and checks only what
    the expression's type does not prove:
    - a bare column of the target type is already a legal cell;
    - a float expression is already finite (a literal is checked when it
      compiles, a column holds finite floats, unary minus keeps them so
      and arithmetic checks its result), so `+ 0.0` only turns -0.0 into
      0.0; arithmetic adds it in the closure that checks its result;
    - widening an int with float() raises OverflowError beyond the float
      range and never gives -0.0;
    - int arithmetic, a negated int and every literal go through
      check_value (the int64 range, non-empty text).
    A row that fails raises ExpressionTypeError, OverflowError or
    SchemaMismatch, as evaluating and checking it always did.
    """
    node, fn, result_type = _compile(text, schema, 0.0)
    wanted = _COLUMN_TYPES[target]
    if result_type is wanted:
        if isinstance(node, ast.Name):
            return CompiledExpression(wanted, fn, schema.index_of(node.id))
        if wanted is not ExprType.FLOAT:
            cell = lambda row: check_value(fn(row), target)
        elif isinstance(node, ast.BinOp):
            cell = fn
        else:
            cell = lambda row: fn(row) + 0.0
    elif wanted is ExprType.FLOAT and result_type is ExprType.INT:
        cell = lambda row: float(fn(row))
    else:
        raise ExpressionTypeError(
            f"expression {text!r} has type {result_type.value}, "
            f"column needs {target.value}"
        )
    return CompiledExpression(wanted, cell)
