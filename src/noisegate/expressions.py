"""A small row expression language for filters and maps.

Expressions are written in Python syntax but only a closed subset is
accepted: column names, int/float/string/bool literals, arithmetic,
comparisons, and boolean connectives.  No calls, no attributes, no
subscripts, no user code.  Every accepted expression is deterministic on
rows of its schema, but not total: arithmetic that yields a non-finite
float fails, and so does an int too large for a float where it meets
one.  The row transformations hold no row that fails (a failing filter
row is false, a failing map row is not held), which is what lets them
carry their guarantees without inspecting data.

Each checked expression compiles to a column program: one step per node
of its syntax tree, children first, which CompiledExpression.evaluate
runs over a whole table in one flat loop.  A step takes its children's
columns and returns a column with a value for each row the table stores,
held or not, read once, plus a mask of the same length: one byte per
row, 1 where the row has a value and 0 where it failed, or None where no
step below can fail.  A failure has no class and no per-row bookkeeping:
masks combine with `passing`, an AND of big ints, which is also how a
filter marks the rows it drops.  A column reference is the table's
stored column itself; a literal is itertools.repeat; arithmetic and
comparisons map an `operator` function over whole columns, so the loop
over rows runs in C.  `and` and `or` evaluate every operand on every row
and combine the operands' values and masks so that each row gets
Python's short-circuit outcome: `True or <fails>` is true, `False and
<fails>` is false, and otherwise a row fails where an operand that
decides it fails; a chained comparison is its links joined by `and`.  A
check is a test over a column that ANDs into its mask: finiteness, or
the int64 range.  The compiler bounds each numeric node's size from the
schema and the literals alone (see _build), and leaves out every check
that bound proves: float arithmetic whose bound is at most the largest
float gets no finiteness step, so `income / 1000.0` has no mask at all.
A projection for a map cell (compile_projection) returns the cells a
Table stores and keeps only the checks its type and bound do not prove,
each a mask or a pass over the column (-0.0 to 0.0); a literal cell is
checked once, when it compiles.  Python raises only where an int too
large for a float meets a float, a division or a float column, so only
such an operation, when an operand's bound does not prove that it fits
a float, first masks the rows where it would raise and zeroes that
operand there.  No step raises, so a program's steps and calls depend
on the expression, the schema and the table's length, not on the values
in it.  No source text is generated, so no literal is ever spliced into
code.

Division is defined everywhere by mapping division by zero to zero.  Text
comparisons use code-point order, which matches the byte order used by
table canonicalization.
"""

from __future__ import annotations

import ast
import enum
import sys
from itertools import repeat
from math import inf, isfinite, nextafter
from operator import add, and_, eq, ge, gt, le, lt, mul, ne, neg, not_, or_, sub, truediv
from typing import Callable, Iterable, Sequence

from .errors import ExpressionSyntaxError, ExpressionTypeError, SchemaMismatch, UnknownColumn
from .records import Record
from .tabledata import ColumnType, Schema, Table, check_value


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

_FLOAT_MAX = sys.float_info.max

# The static bound on |value| of each column type's cells (see _build).
_COLUMN_BOUNDS = {ColumnType.INT64: 2**63, ColumnType.FLOAT64: _FLOAT_MAX, ColumnType.TEXT: None}

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# What a step returns: a node's value on each row of the table, and its
# mask, one byte per row (1 holds a value, 0 failed) or None where nothing
# below can fail.  The values may be an iterator, read once, by the one
# step or caller that takes them.  A failed row's value is a placeholder
# that no later step raises on.  Neither the values nor the mask cost work
# that depends on which rows fail.
Evaluated = tuple[Iterable, bytes | None]
Step = Callable[[Table, list], Evaluated]


class CompiledExpression(Record):
    """A checked expression: its result type and its column program.

    `column` is the index of the input column when the expression is that
    bare column, so its value is the cell itself.
    """

    result_type: ExprType
    program: tuple[Step, ...]
    column: int | None = None

    def evaluate(self, table: Table) -> Evaluated:
        """The expression's value on each row table stores, held or not,
        in row order, read once, and its mask of the rows that hold a value
        (None when no row can fail).  For a bare column the values are the
        table's own stored column."""
        results: list = []
        for step in self.program:
            results.append(step(table, results))
        return results[-1]


def _parse(text: str) -> ast.expr:
    # Surrounding whitespace is no part of an expression.
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ExpressionSyntaxError(f"cannot parse {text!r}: {exc.msg}") from exc
    return tree.body


# How many levels an expression may nest: _build counts them as it
# recurses, so the rule lives where the tree is built.  Compiling takes
# one Python frame per level and evaluating a constant few, so this cap,
# and not the rows, bounds the stack an expression needs.  One of 64
# levels compiles with 67 or 68 frames below compile_expression's caller
# on CPython 3.10 to 3.13, so one that runs out with _COMPILE_FRAMES left
# is past the cap, and one that runs out with fewer met a short stack.
_MAX_LEVELS = 64
_COMPILE_FRAMES = 100


def stack_headroom() -> int:
    """How many frames the caller's callees may take below the recursion
    limit."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return sys.getrecursionlimit() - depth


def _too_deep(text: str) -> ExpressionSyntaxError:
    return ExpressionSyntaxError(
        f"an expression of {len(text)} characters nests too deeply to "
        f"compile; the limit is {_MAX_LEVELS} levels"
    )


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


_ARITHMETIC = {ast.Add: add, ast.Sub: sub, ast.Mult: mul}

# How an arithmetic node's bound follows from its operands' bounds.
_BOUNDS = {ast.Add: add, ast.Sub: add, ast.Mult: mul}

_COMPARISONS = {ast.Eq: eq, ast.NotEq: ne, ast.Lt: lt, ast.LtE: le, ast.Gt: gt, ast.GtE: ge}


# ---------------------------------------------------------------------------
# Steps.  Each builds a node's columns from its children's, which earlier
# steps put in `results`; a row holds a value where every child holds one
# and the node's own operation does not fail on it.


def passing(*masks: bytes | None) -> bytes | None:
    """The rows held in every mask, ANDed as big ints, a pass in C over
    every row; None (nothing can fail) when every mask is None.  Each int
    carries a 1 past its last row, so none is shortened by rows that failed
    at the end and the work is the same whichever rows failed."""
    masks = [mask for mask in masks if mask is not None]
    if len(masks) < 2:
        return masks[0] if masks else None
    held = -1
    for mask in masks:
        held &= int.from_bytes(mask + b"\x01", "little")
    return held.to_bytes(len(masks[0]) + 1, "little")[:-1]


def _listed(values: Iterable) -> Sequence:
    """values as a sequence that can be read twice (a literal is a
    one-pass repeat)."""
    return values if isinstance(values, (list, tuple)) else list(values)


def _literal(value) -> Step:
    """A literal, the same on every row."""

    def step(table: Table, results: list) -> Evaluated:
        return repeat(value, len(table.columns[0])), None

    return step


def _nowhere(table: Table, results: list) -> Evaluated:
    """A literal cell that is no legal cell: every row fails."""
    n = len(table.columns[0])
    return repeat(None, n), bytes(n)


def _read(index: int) -> Step:
    """A stored column, in row order."""
    return lambda table, results: (table.columns[index], None)


def _mapped(op, *slots: int) -> Step:
    """op of the operands on each row, where their types prove that op does
    not raise."""

    def step(table: Table, results: list) -> Evaluated:
        operands = [results[slot] for slot in slots]
        values = map(op, *[values for values, _ in operands])
        return values, passing(*[mask for _, mask in operands])

    return step


# The smallest int that float() refuses: every int from here up rounds to
# 2**1024, since the half-way point above the largest float rounds to even.
_FLOAT_LIMIT = 2**1024 - 2**970


def _fitted(op, k: int, exact: bool, *slots: int) -> Step:
    """op of the operands on each row where Python does not raise on
    operand k, an int: where it is below _FLOAT_LIMIT in size (times the
    divisor's size if `exact`: an int over an int divides exactly), or op
    is _div and the divisor is zero.  Elsewhere the row fails, and operand
    k is zeroed first so that op does not raise there."""

    def step(table: Table, results: list) -> Evaluated:
        operands = [results[slot] for slot in slots]
        columns = [_listed(values) for values, _ in operands]
        limits = repeat(_FLOAT_LIMIT)
        if exact:
            limits = map(mul, limits, map(abs, columns[1]))
        ok = map(gt, limits, map(abs, columns[k]))
        if op is _div:
            ok = map(or_, map(eq, columns[1], repeat(0)), ok)
        ok = bytes(ok)
        columns[k] = map(mul, columns[k], ok)
        return map(op, *columns), passing(*[mask for _, mask in operands], ok)

    return step


def _checked(slot: int, test) -> Step:
    """A node's values, listed, failing where test(values) is false."""

    def step(table: Table, results: list) -> Evaluated:
        values, held = results[slot]
        values = _listed(values)
        return values, passing(held, bytes(test(values)))

    return step


def _finite(values: Sequence) -> Iterable:
    return map(isfinite, values)


def _int64(values: Sequence) -> Iterable:
    return map(and_, map(le, repeat(_INT64_MIN), values), map(le, values, repeat(_INT64_MAX)))


def _listing(slot: int) -> Step:
    """A node's values, listed, so that two steps can read them."""
    return lambda table, results: (_listed(results[slot][0]), results[slot][1])


def _fold(parts: list[Evaluated], both: bool) -> Evaluated:
    """Boolean parts joined by `and` (both) or `or`, every part evaluated on
    every row: a row's outcome is the one Python's short-circuit gives it,
    so a part's failure counts only where every part before it left the
    outcome open (an `and` part true, an `or` part false).  The values are
    a list at every part, so that no number of parts nests iterators."""
    op = and_ if both else or_
    values, held = parts[-1]
    for part, part_held in reversed(parts[:-1]):
        part = _listed(part)
        if held is not None:
            held = bytes(map(or_, held, map(ne, part, repeat(both))))
        held = passing(part_held, held)
        values = list(map(op, part, values))
    return values, held


def _connective(slots: list[int], both: bool) -> Step:
    return lambda table, results: _fold([results[slot] for slot in slots], both)


# ---------------------------------------------------------------------------
# The compiler.


class _Program(list):
    """The steps compiled so far."""

    def emit(self, step: Step) -> int:
        self.append(step)
        return len(self) - 1


def _build(node: ast.expr, schema: Schema, text: str, program: _Program, level: int):
    """Append a node's steps to the program and return (its slot, its
    type, its bound), rejecting anything off-menu.  The node sits `level`
    levels deep and its children one deeper, but the operands of an and/or
    of n sit ceil(log2 n) deeper, the depth of a balanced tree of them;
    past _MAX_LEVELS it raises _too_deep.  Children are built in plain
    loops, since a comprehension is a frame of its own before CPython 3.12.

    A unary minus of a number literal is one literal step, and counts its
    two levels all the same.  A numeric node's bound is a static fact: no
    row that holds a value has a larger |value| (text and bools have
    None).  It is 2**63 for an int64 column, sys.float_info.max for a
    float64 column, a literal's own size, its operand's under unary minus,
    the sum of the operands' bounds under + and -, their product under *,
    the dividend's over |c| for / by a nonzero literal c or -c, the
    dividend's for an int over an int (_div maps a zero divisor to 0, and
    any other int divisor has size at least 1), and inf for any other /.
    An int bound is exact and stops at _FLOAT_LIMIT.  A float bound is the
    node's own operation on its operands' bounds, rounded up by one ulp
    (math.nextafter).  The proof: an operand is no larger in size than its
    bound, the bound's operation is the value's (float() of an int, a
    float operation, or one correctly rounded int division), each of which
    is monotone in the size of its exact result under round-to-nearest, so
    the computed value is no larger in size than the computed bound, and
    the ulp keeps it so whatever the rounding of the bound.  Two checks follow from it and no others are left out:
    - a float node whose bound is at most sys.float_info.max is finite
      wherever it holds a value, so it gets no finiteness step; any other
      gets one, after which its bound is sys.float_info.max;
    - an int operand whose bound is below _FLOAT_LIMIT converts to a float
      without raising (as does an int dividend over an int, whose quotient
      is no larger), so it gets no _fitted mask; an operation that needs
      one has no bound (inf)."""
    if level > _MAX_LEVELS:
        raise _too_deep(text)
    emit = program.emit
    below = level + 1

    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool):
            return emit(_literal(value)), ExprType.BOOL, None
        if isinstance(value, int):
            return emit(_literal(value)), ExprType.INT, min(abs(value), _FLOAT_LIMIT)
        if isinstance(value, float):
            if not isfinite(value):
                raise _fail(text, "float literals must be finite")
            return emit(_literal(value)), ExprType.FLOAT, abs(value)
        if isinstance(value, str):
            return emit(_literal(value)), ExprType.TEXT, None
        raise _unsupported(text, f"unsupported literal {value!r}")

    if isinstance(node, ast.Name):
        try:
            index = schema.index_of(node.id)
        except UnknownColumn:
            raise UnknownColumn(
                f"in {text!r}: no column named {node.id!r}; "
                f"have {list(schema.names)}"
            )
        ctype = schema.columns[index][1]
        return emit(_read(index)), _COLUMN_TYPES[ctype], _COLUMN_BOUNDS[ctype]

    if isinstance(node, ast.UnaryOp):
        operand, otype, bound = _build(node.operand, schema, text, program, below)
        if isinstance(node.op, ast.Not):
            if otype is not ExprType.BOOL:
                raise _fail(text, "'not' needs a boolean operand")
            return emit(_mapped(not_, operand)), ExprType.BOOL, None
        if isinstance(node.op, ast.USub):
            if otype not in _NUMERIC:
                raise _fail(text, "unary minus needs a numeric operand")
            if isinstance(node.operand, ast.Constant):
                program[operand] = _literal(-node.operand.value)
                return operand, otype, bound
            return emit(_mapped(neg, operand)), otype, bound
        raise _unsupported(text, f"unsupported unary operator {type(node.op).__name__}")

    if isinstance(node, ast.BoolOp):
        below = level + (len(node.values) - 1).bit_length()
        parts = []
        for value in node.values:
            parts.append(_build(value, schema, text, program, below))
        if any(t is not ExprType.BOOL for _, t, _ in parts):
            raise _fail(text, "'and'/'or' need boolean operands")
        slots = [slot for slot, _, _ in parts]
        return emit(_connective(slots, isinstance(node.op, ast.And))), ExprType.BOOL, None

    if isinstance(node, ast.BinOp):
        left, ltype, lbound = _build(node.left, schema, text, program, below)
        right, rtype, rbound = _build(node.right, schema, text, program, below)
        if ltype not in _NUMERIC or rtype not in _NUMERIC:
            raise _fail(text, "arithmetic needs numeric operands")
        division = isinstance(node.op, ast.Div)
        # A literal c, under a unary minus or not, divides by a size of |c|.
        divisor = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
        if division:
            nonzero = isinstance(divisor, ast.Constant) and divisor.value != 0
            op = truediv if nonzero else _div
        elif type(node.op) in _ARITHMETIC:
            op = _ARITHMETIC[type(node.op)]
        else:
            raise _unsupported(text, f"unsupported operator {type(node.op).__name__}")
        if not (division or ExprType.FLOAT in (ltype, rtype)):
            bound = min(_BOUNDS[type(node.op)](lbound, rbound), _FLOAT_LIMIT)
            return emit(_mapped(op, left, right)), ExprType.INT, bound
        # An int operand becomes a float here, and raises where it is too
        # large for one, unless its bound proves that it fits.
        exact = division and ltype is rtype is ExprType.INT
        unproved = [
            t is ExprType.INT and bound >= _FLOAT_LIMIT
            for t, bound in ((ltype, lbound), (rtype, rbound))
        ]
        if unproved[0] or (unproved[1] and not exact):
            slot = emit(_fitted(_div if division else op, unproved.index(True), exact, left, right))
            bound = inf
        else:
            slot = emit(_mapped(op, left, right))
            if not division:
                bound = _BOUNDS[type(node.op)](lbound, rbound)
            elif nonzero:
                bound = lbound / abs(divisor.value)
            else:
                bound = lbound if exact else inf
            bound = nextafter(bound, inf)
        if bound <= _FLOAT_MAX:
            return slot, ExprType.FLOAT, bound
        return emit(_checked(slot, _finite)), ExprType.FLOAT, _FLOAT_MAX

    if isinstance(node, ast.Compare):
        operands = []
        for operand in [node.left, *node.comparators]:
            operands.append(_build(operand, schema, text, program, below))
        types = [t for _, t, _ in operands]
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
        # a < b < c is a < b and b < c, b listed once for both links.
        slots = [slot for slot, _, _ in operands]
        slots[1:-1] = [emit(_listing(slot)) for slot in slots[1:-1]]
        links = [emit(_mapped(op, a, b)) for op, a, b in zip(ops, slots, slots[1:])]
        if len(links) == 1:
            return links[0], ExprType.BOOL, None
        return emit(_connective(links, True)), ExprType.BOOL, None

    raise _unsupported(text, f"unsupported syntax {type(node).__name__}")


def _compile(text: str, schema: Schema):
    """Parse and build an expression: (its node, program, type, bound)."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionSyntaxError("expressions must be non-empty strings")
    program = _Program()
    try:
        node = _parse(text)
        _, result_type, bound = _build(node, schema, text, program, 1)
    except (RecursionError, MemoryError):
        # Refused here, at compile time, before any spend is charged: the
        # caller's stack is short, or the parser met a nesting past the cap.
        headroom = stack_headroom()
        if headroom < _COMPILE_FRAMES:
            raise ExpressionSyntaxError(
                f"compiling needs {_COMPILE_FRAMES} frames of stack below the "
                f"recursion limit and has {headroom}"
            ) from None
        raise _too_deep(text) from None
    return node, program, result_type, bound


def compile_expression(text: str, schema: Schema) -> CompiledExpression:
    """Parse and type-check an expression against a schema."""
    node, program, result_type, _ = _compile(text, schema)
    column = schema.index_of(node.id) if isinstance(node, ast.Name) else None
    return CompiledExpression(result_type, tuple(program), column)


def compile_predicate(text: str, schema: Schema) -> CompiledExpression:
    """Compile an expression that must produce a boolean."""
    compiled = compile_expression(text, schema)
    if compiled.result_type is not ExprType.BOOL:
        raise ExpressionTypeError(
            f"predicate {text!r} has type {compiled.result_type.value}, not bool"
        )
    return compiled


def _literal_cell(value, target: ColumnType) -> Step:
    """A literal as a cell of target, checked once, when it compiles; every
    row fails where the literal is no legal cell."""
    try:
        if target is ColumnType.FLOAT64:
            value = float(value)
        return _literal(check_value(value, target))
    except (OverflowError, SchemaMismatch):
        return _nowhere


def compile_projection(text: str, schema: Schema, target: ColumnType) -> CompiledExpression:
    """Compile an expression yielding the cell a column of type target stores.

    Integer expressions widen to float columns; nothing else coerces.  The
    program's values are the cells as a Table stores them, and it checks
    only what the expression's type and bound (see _build) do not prove:
    - a bare column of the target type is already a legal cell;
    - a literal is converted and checked once, when it compiles;
    - a float expression is already finite (a column holds finite floats,
      unary minus keeps them so, and arithmetic checks its result unless
      its bound proves it finite), so the `+ 0.0` step that follows any
      other float expression only turns -0.0 into 0.0;
    - widening an int with float() never gives -0.0, and raises
      OverflowError beyond the float range, so unless the int
      expression's bound is below _FLOAT_LIMIT a test fails the rows that
      do not fit and zeroes them before float() runs;
    - int arithmetic and a negated int are masked to the int64 range.
    A row fails where evaluating or checking its cell would fail, so an
    expression whose bound proves every step holds a value on every row.
    """
    node, program, result_type, bound = _compile(text, schema)
    wanted = _COLUMN_TYPES[target]
    if result_type is not wanted and not (wanted is ExprType.FLOAT and result_type is ExprType.INT):
        raise ExpressionTypeError(
            f"expression {text!r} has type {result_type.value}, "
            f"column needs {target.value}"
        )
    top = len(program) - 1
    if isinstance(node, ast.Name) and result_type is wanted:
        return CompiledExpression(wanted, tuple(program), schema.index_of(node.id))
    if isinstance(node, ast.Constant):
        program[top] = _literal_cell(node.value, target)
    elif result_type is not wanted:
        program.emit(_mapped(float, top) if bound < _FLOAT_LIMIT else _fitted(float, 0, False, top))
    elif wanted is ExprType.INT:
        program.emit(_checked(top, _int64))
    elif wanted is ExprType.FLOAT:
        program.emit(_mapped(add, top, program.emit(_literal(0.0))))
    return CompiledExpression(wanted, tuple(program))
