"""A small row expression language for filters and maps.

Expressions are written in Python syntax but only a closed subset is
accepted: column names, int/float/string/bool literals, arithmetic,
comparisons, and boolean connectives.  No calls, no attributes, no
subscripts, no user code.  Every accepted expression is deterministic and
total on rows of its schema, which is what lets row transformations carry
their guarantees without inspecting data.

Division is defined everywhere by mapping division by zero to zero.  Text
comparisons use code-point order, which matches the byte order used by
table canonicalization.
"""

from __future__ import annotations

import ast
import enum
import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import ExpressionSyntaxError, ExpressionTypeError, UnknownColumn
from .tabledata import ColumnType, Row, Schema, Value


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


@dataclass(frozen=True)
class CompiledExpression:
    """A checked expression: its result type and a row evaluator."""

    text: str
    result_type: ExprType
    fn: Callable[[Row], Union[Value, bool]]


def _parse(text: str) -> ast.expr:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionSyntaxError(f"cannot parse {text!r}: {exc.msg}") from exc
    return tree.body


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


def _check_finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise _fail(text, "arithmetic produced a non-finite float")
    return value


def _build(node: ast.expr, schema: Schema, text: str):
    """Return (evaluator, type) for a node, rejecting anything off-menu."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool):
            return (lambda row: value), ExprType.BOOL
        if isinstance(value, int):
            return (lambda row: value), ExprType.INT
        if isinstance(value, float):
            if not math.isfinite(value):
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
        return (lambda row: row[index]), ctype

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
        fns = [f for f, _ in parts]
        if isinstance(node.op, ast.And):
            return (lambda row: all(f(row) for f in fns)), ExprType.BOOL
        return (lambda row: any(f(row) for f in fns)), ExprType.BOOL

    if isinstance(node, ast.BinOp):
        left, lt = _build(node.left, schema, text)
        right, rt = _build(node.right, schema, text)
        if lt not in _NUMERIC or rt not in _NUMERIC:
            raise _fail(text, "arithmetic needs numeric operands")
        if isinstance(node.op, ast.Div):
            return (lambda row: _check_finite(_div(left(row), right(row)), text)), ExprType.FLOAT
        if isinstance(node.op, ast.Add):
            op = lambda a, b: a + b
        elif isinstance(node.op, ast.Sub):
            op = lambda a, b: a - b
        elif isinstance(node.op, ast.Mult):
            op = lambda a, b: a * b
        else:
            raise _unsupported(text, f"unsupported operator {type(node.op).__name__}")
        if lt is ExprType.FLOAT or rt is ExprType.FLOAT:
            return (lambda row: _check_finite(op(left(row), right(row)), text)), ExprType.FLOAT
        return (lambda row: op(left(row), right(row))), ExprType.INT

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
        for op_node, (_, t) in zip(node.ops, operands[1:]):
            if isinstance(op_node, ast.Eq):
                ops.append(lambda a, b: a == b)
            elif isinstance(op_node, ast.NotEq):
                ops.append(lambda a, b: a != b)
            elif isinstance(op_node, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                if t is ExprType.BOOL:
                    raise _fail(text, "booleans only support == and !=")
                table = {
                    ast.Lt: lambda a, b: a < b,
                    ast.LtE: lambda a, b: a <= b,
                    ast.Gt: lambda a, b: a > b,
                    ast.GtE: lambda a, b: a >= b,
                }
                ops.append(table[type(op_node)])
            else:
                raise _unsupported(text, f"unsupported comparison {type(op_node).__name__}")
        fns = [f for f, _ in operands]

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


def compile_expression(text: str, schema: Schema) -> CompiledExpression:
    """Parse and type-check an expression against a schema."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionSyntaxError("expressions must be non-empty strings")
    fn, result_type = _build(_parse(text), schema, text)
    return CompiledExpression(text=text, result_type=result_type, fn=fn)


def compile_predicate(text: str, schema: Schema) -> CompiledExpression:
    """Compile an expression that must produce a boolean."""
    compiled = compile_expression(text, schema)
    if compiled.result_type is not ExprType.BOOL:
        raise ExpressionTypeError(
            f"predicate {text!r} has type {compiled.result_type.value}, not bool"
        )
    return compiled


def compile_projection(text: str, schema: Schema, target: ColumnType) -> CompiledExpression:
    """Compile an expression producing a value for a column of type target.

    Integer expressions widen to float columns; nothing else coerces.  A
    float expression already yields a Python float, so it is not wrapped.
    """
    compiled = compile_expression(text, schema)
    wanted = _COLUMN_TYPES[target]
    if compiled.result_type is wanted:
        return compiled
    if wanted is ExprType.FLOAT and compiled.result_type is ExprType.INT:
        inner = compiled.fn
        return CompiledExpression(text, wanted, lambda row: float(inner(row)))
    raise ExpressionTypeError(
        f"expression {text!r} has type {compiled.result_type.value}, "
        f"column needs {target.value}"
    )


def is_bare_column(text: str, name: str) -> bool:
    """True when the expression is exactly a reference to the named column."""
    try:
        node = _parse(text.strip())
    except ExpressionSyntaxError:
        return False
    return isinstance(node, ast.Name) and node.id == name
