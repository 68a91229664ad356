"""Shared test oracles.

Everything here is computed independently of the library: distances by
brute-force set arithmetic, noise distributions from their closed forms in
high-precision arithmetic.  Tests compare library behavior against these,
never against the library itself.
"""

from __future__ import annotations

import ast
import csv
import gc
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

import mpmath

from noisegate.errors import (
    DomainMismatch,
    ExpressionSyntaxError,
    ExpressionTypeError,
    SchemaMismatch,
    ScriptError,
    TypeMismatch,
    TypeParseError,
    UnknownColumn,
)
from noisegate.expressions import ExprType
from noisegate.metrics import (
    AddRemoveIds,
    BoundedLists,
    GroupedBy,
    SymmetricDifference,
    TableTuple,
)
from noisegate.session import JoinPrivate, QueryExpr
from noisegate.tabledata import ColumnType, Schema, Table

DPS = 60


# ---------------------------------------------------------------------------
# Distances, from first principles.


def sd_distance(a: Table, b: Table) -> int:
    """Symmetric-difference distance: rows to add plus rows to remove."""
    ca = Counter(a.rows)
    cb = Counter(b.rows)
    total = 0
    for row in set(ca) | set(cb):
        total += abs(ca.get(row, 0) - cb.get(row, 0))
    return total


def _rows_by_id(table: Table, id_column: str) -> dict:
    idx = table.schema.index_of(id_column)
    groups: dict = {}
    for row in table.rows:
        groups.setdefault(row[idx], Counter())[row] += 1
    return groups


def ari_distance(a: Table, b: Table, id_column: str) -> int:
    """Add/remove-identifier distance.

    Editing one identifier's rows takes removing it and adding it back
    (cost 2); an identifier present on only one side costs 1.
    """
    ga = _rows_by_id(a, id_column)
    gb = _rows_by_id(b, id_column)
    total = 0
    for key in set(ga) | set(gb):
        in_a = key in ga
        in_b = key in gb
        if in_a and in_b:
            if ga[key] != gb[key]:
                total += 2
        else:
            total += 1
    return total


def grouped_distance(a: Table, b: Table, key_columns: tuple[str, ...]) -> int:
    """L1 over groups of the per-group symmetric difference."""
    idxs = [a.schema.index_of(c) for c in key_columns]
    ca = Counter(a.rows)
    cb = Counter(b.rows)
    # Per-group symmetric difference, summed over groups.
    groups = {tuple(row[i] for i in idxs) for row in set(ca) | set(cb)}
    result = 0
    for g in groups:
        for row in set(ca) | set(cb):
            if tuple(row[i] for i in idxs) == g:
                result += abs(ca.get(row, 0) - cb.get(row, 0))
    return result


def _symmetric_difference(x: Table, y: Table) -> int:
    if x.schema != y.schema:
        raise SchemaMismatch("tables under SymmetricDifference must share a schema")
    counts = Counter(x.rows)
    counts.subtract(Counter(y.rows))
    return sum(abs(c) for c in counts.values())


def _add_remove_ids(metric: AddRemoveIds, x: Table, y: Table) -> int:
    if x.schema != y.schema:
        raise SchemaMismatch("tables under AddRemoveIds must share a schema")
    idx = x.schema.index_of(metric.id_column)
    groups_x: dict = {}
    for row in x.rows:
        groups_x.setdefault(row[idx], []).append(row)
    groups_y: dict = {}
    for row in y.rows:
        groups_y.setdefault(row[idx], []).append(row)
    total = 0
    for ident in set(groups_x) | set(groups_y):
        in_x = ident in groups_x
        in_y = ident in groups_y
        if in_x and in_y:
            if Counter(groups_x[ident]) != Counter(groups_y[ident]):
                total += 2
        else:
            total += 1
    return total


def _parts_by_key(table: Table, key_columns) -> dict:
    idxs = [table.schema.index_of(c) for c in key_columns]
    parts: dict = {}
    for row in table.rows:
        parts.setdefault(tuple(row[i] for i in idxs), []).append(row)
    return {key: Table(table.schema, tuple(rows)) for key, rows in parts.items()}


def dataset_distance(metric, x, y):
    """The distance between two datasets under the given metric, for every
    metric the library declares, nested ones included."""
    if isinstance(metric, SymmetricDifference):
        return _symmetric_difference(x, y)
    if isinstance(metric, AddRemoveIds):
        return _add_remove_ids(metric, x, y)
    if isinstance(metric, GroupedBy):
        if x.schema != y.schema:
            raise SchemaMismatch("tables under GroupedBy must share a schema")
        parts_x = _parts_by_key(x, metric.key_columns)
        parts_y = _parts_by_key(y, metric.key_columns)
        schema = x.schema
        total = 0
        for key in set(parts_x) | set(parts_y):
            a = parts_x.get(key, Table.empty(schema))
            b = parts_y.get(key, Table.empty(schema))
            total += dataset_distance(metric.inner, a, b)
        return total
    if isinstance(metric, TableTuple):
        if len(x) != len(metric.components) or len(y) != len(metric.components):
            raise DomainMismatch(
                f"expected tuples of {len(metric.components)} tables"
            )
        return sum(
            dataset_distance(m, a, b) for m, a, b in zip(metric.components, x, y)
        )
    if isinstance(metric, BoundedLists):
        xs = list(x)
        ys = list(y)
        if not xs and not ys:
            return 0
        schema = (xs[0] if xs else ys[0]).schema
        length = max(len(xs), len(ys))
        xs += [Table.empty(schema)] * (length - len(xs))
        ys += [Table.empty(schema)] * (length - len(ys))
        return sum(dataset_distance(metric.inner, a, b) for a, b in zip(xs, ys))
    raise DomainMismatch(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# Random tables and neighbor pairs.


INT_SCHEMA = Schema.of(("id", ColumnType.INT64), ("v", ColumnType.INT64))


def random_table(rng: random.Random, max_rows: int, schema: Schema = INT_SCHEMA,
                 id_range: int = 4, value_range: int = 3) -> Table:
    rows = []
    for _ in range(rng.randrange(max_rows + 1)):
        row = []
        for _, ctype in schema.columns:
            if ctype is ColumnType.INT64:
                row.append(rng.randrange(id_range))
            elif ctype is ColumnType.FLOAT64:
                row.append(float(rng.randrange(value_range)))
            else:
                row.append(chr(97 + rng.randrange(id_range)))
        rows.append(tuple(row))
    return Table.of(schema, rows)


def perturb_rows(rng: random.Random, table: Table, ops: int,
                 id_range: int = 4, value_range: int = 3) -> Table:
    """Apply `ops` random row additions/removals to produce a nearby table."""
    rows = list(table.rows)
    for _ in range(ops):
        if rows and rng.random() < 0.5:
            rows.pop(rng.randrange(len(rows)))
        else:
            row = []
            for _, ctype in table.schema.columns:
                if ctype is ColumnType.INT64:
                    row.append(rng.randrange(id_range))
                elif ctype is ColumnType.FLOAT64:
                    row.append(float(rng.randrange(value_range)))
                else:
                    row.append(chr(97 + rng.randrange(id_range)))
            rows.append(tuple(row))
    return Table.of(table.schema, rows)


# ---------------------------------------------------------------------------
# Closed-form noise pmfs (mpmath, normalized over a finite window).

# Window radii are chosen so the truncated tail is far below the 1e-12
# pmf-sum tolerance of the divergence oracles.


def geometric_pmf(rate: Fraction, center: int, lo: int, hi: int) -> dict:
    """P(X = k) proportional to exp(-rate * |k - center|) on [lo, hi]."""
    with mpmath.workdps(DPS):
        r = mpmath.mpf(rate.numerator) / mpmath.mpf(rate.denominator)
        weights = {k: mpmath.e ** (-r * abs(k - center)) for k in range(lo, hi + 1)}
        total = mpmath.fsum(weights.values())
        return {k: w / total for k, w in weights.items()}


def gaussian_pmf(sigma_squared: Fraction, center: int, lo: int, hi: int) -> dict:
    """P(X = k) proportional to exp(-(k-center)^2 / (2 sigma^2)) on [lo, hi]."""
    with mpmath.workdps(DPS):
        s2 = mpmath.mpf(sigma_squared.numerator) / mpmath.mpf(sigma_squared.denominator)
        weights = {
            k: mpmath.e ** (-mpmath.mpf((k - center) ** 2) / (2 * s2))
            for k in range(lo, hi + 1)
        }
        total = mpmath.fsum(weights.values())
        return {k: w / total for k, w in weights.items()}


def product_pmf(components: list[dict]) -> dict:
    """Joint pmf of independent components, keyed by outcome tuples."""
    with mpmath.workdps(DPS):
        joint = {(): mpmath.mpf(1)}
        for comp in components:
            joint = {
                key + (k,): mass * p
                for key, mass in joint.items()
                for k, p in comp.items()
            }
        return joint


def quantile_pmf(values: list, q: float, low: float, high: float,
                 bins: int, epsilon) -> list:
    """Exponential-mechanism bin distribution, from the utility definition."""
    with mpmath.workdps(DPS):
        eps = mpmath.mpf(str(epsilon))
        n = len(values)
        weights = []
        width = (mpmath.mpf(str(high)) - mpmath.mpf(str(low))) / bins
        for b in range(bins):
            mid = mpmath.mpf(str(low)) + width * (2 * b + 1) / 2
            below = sum(1 for v in values if v < mid)
            utility = -abs(below - mpmath.mpf(str(q)) * n)
            weights.append(mpmath.e ** (eps * utility / 2))
        total = mpmath.fsum(weights)
        return [w / total for w in weights]


# ---------------------------------------------------------------------------
# Divergence oracles.
#
# These enumerate finite pmfs directly.  Probabilities may be floats,
# Fractions, or mpmath values; all arithmetic happens in mpmath with enough
# working precision that pmfs built over wide supports do not underflow.

_PMF_TOLERANCE = mpmath.mpf("1e-12")


class NotAPmf(ValueError):
    """A probability vector is malformed (negative mass or wrong total)."""


class BadAlpha(ValueError):
    """A Renyi order is not a finite number greater than 1."""


def _as_mpf(value) -> "mpmath.mpf":
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


def _check_pmf(p: Mapping) -> dict:
    out = {}
    total = mpmath.mpf(0)
    for outcome, prob in p.items():
        mass = _as_mpf(prob)
        if mass < 0:
            raise NotAPmf(f"negative mass {prob!r} at outcome {outcome!r}")
        out[outcome] = mass
        total += mass
    if abs(total - 1) > _PMF_TOLERANCE:
        raise NotAPmf(f"masses sum to {float(total)!r}, not 1")
    return out


def pure_dp_divergence(p: Mapping, q: Mapping) -> float:
    """max over outcomes of |ln(p(o) / q(o))|.

    Outcomes where both pmfs place zero mass contribute nothing; an outcome
    where exactly one side has mass makes the divergence infinite.
    """
    with mpmath.workdps(DPS):
        pp = _check_pmf(p)
        qq = _check_pmf(q)
        worst = mpmath.mpf(0)
        for outcome in set(pp) | set(qq):
            a = pp.get(outcome, mpmath.mpf(0))
            b = qq.get(outcome, mpmath.mpf(0))
            if a == 0 and b == 0:
                continue
            if a == 0 or b == 0:
                return math.inf
            worst = max(worst, abs(mpmath.log(a / b)))
        return float(worst)


# The default grid of Renyi orders.  The reported value is a lower estimate
# of the true supremum over all orders; refining the grid only increases it.
DEFAULT_ALPHA_GRID: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


def zcdp_divergence(
    p: Mapping, q: Mapping, alphas: Sequence[float] = DEFAULT_ALPHA_GRID
) -> float:
    """max over the alpha grid of D_alpha(p || q) / alpha.

    D_alpha is the Renyi divergence of order alpha.  Against the
    zero-concentrated definition, which quantifies over every alpha > 1,
    a finite grid yields a lower estimate.
    """
    alphas = list(alphas)
    if not alphas:
        raise BadAlpha("the alpha grid must be non-empty")
    for alpha in alphas:
        if not (alpha > 1) or alpha == math.inf or alpha != alpha:
            raise BadAlpha(f"alpha must be finite and > 1, got {alpha!r}")
    with mpmath.workdps(DPS):
        pp = _check_pmf(p)
        qq = _check_pmf(q)
        best = mpmath.mpf(0)
        for alpha in alphas:
            a = mpmath.mpf(alpha)
            total = mpmath.mpf(0)
            for outcome, mass in pp.items():
                if mass == 0:
                    continue
                other = qq.get(outcome, mpmath.mpf(0))
                if other == 0:
                    return math.inf
                total += mass ** a * other ** (1 - a)
            divergence = mpmath.log(total) / (a - 1)
            best = max(best, divergence / a)
        return max(0.0, float(best))


def tv_distance(p: dict, q: dict) -> float:
    with mpmath.workdps(DPS):
        keys = set(p) | set(q)
        return float(
            mpmath.fsum(abs(_as_mpf(p.get(k, 0)) - _as_mpf(q.get(k, 0))) for k in keys) / 2
        )


def empirical_pmf(samples: list) -> dict:
    n = len(samples)
    return {k: Fraction(c, n) for k, c in Counter(samples).items()}


# ---------------------------------------------------------------------------
# Plain references for the evaluation fast paths.


def grain_total_reference(values, low, high, gamma) -> int:
    """Sum of clamped values in grain steps, each rounded half to even in
    exact Fraction arithmetic."""
    gamma = Fraction(gamma)
    return sum(round(Fraction(min(max(v, low), high)) / gamma) for v in values)


def per_group_reference(release, keys, value_type: ColumnType, table: Table, rng) -> tuple:
    """compose_per_group's result rows the plain way: for each keyset key,
    in keyset order, a checked Table of the rows whose key cells equal it
    (empty for a key the data lacks), release(that table, rng) for its
    value, and the value, an int clamped to the int64 range."""
    positions = [table.schema.index_of(name) for name in keys.schema.names]
    rows = []
    for key_row in keys.rows:
        group = Table(
            table.schema,
            tuple(row for row in table.rows if tuple(row[i] for i in positions) == key_row),
        )
        value = release(group, rng)
        if value_type is ColumnType.INT64:
            value = min(max(value, -(2**63)), 2**63 - 1)
        rows.append(key_row + (value,))
    return tuple(rows)


def quantile_scores_reference(values, midpoints, q) -> list:
    """Quantile bin scores by comparing every value with every midpoint."""
    target = q * len(values)
    return [-abs(sum(1 for v in values if v < mid) - target) for mid in midpoints]


def truncate_reference(rows, key_positions, bound) -> Counter:
    """The multiset kept by keeping, per key, the first `bound` rows with
    text cells ordered by their UTF-8 bytes."""

    def encoded(row):
        return tuple(v.encode("utf-8") if isinstance(v, str) else v for v in row)

    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in key_positions), []).append(row)
    kept: Counter = Counter()
    for group in groups.values():
        kept.update(sorted(group, key=encoded)[:bound])
    return kept


def join_reference(left: Table, right: Table, keys) -> Counter:
    """An inner join by nested loops: each left row followed by the non-key
    cells of every right row whose key cells equal its own."""
    left_pos = [left.schema.index_of(k) for k in keys]
    right_pos = [right.schema.index_of(k) for k in keys]
    carried = [i for i, (name, _) in enumerate(right.schema.columns) if name not in keys]
    joined: Counter = Counter()
    for lrow in left.rows:
        for rrow in right.rows:
            if all(lrow[a] == rrow[b] for a, b in zip(left_pos, right_pos)):
                joined[lrow + tuple(rrow[i] for i in carried)] += 1
    return joined


# ---------------------------------------------------------------------------
# CSV ingest one record at a time: load_csv as it was before it parsed
# blocks of records per column, with numbers matched by fullmatch.

_INT_CELL = re.compile(r"-?[0-9]+")
_FLOAT_CELL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _reference_cell(text: str, ctype: ColumnType, line: int, column: str):
    def fail(why):
        raise TypeParseError(f"line {line}, column {column!r}: {why}", line=line, column=column)

    if text == "":
        fail("empty cells are not allowed")
    if ctype is ColumnType.INT64:
        if not _INT_CELL.fullmatch(text):
            fail(f"{text!r} is not an int64")
        try:
            value = int(text)
        except ValueError:
            fail(f"{text!r} has too many digits for an int64")
        if not -(2**63) <= value < 2**63:
            fail(f"{text!r} overflows int64")
        return value
    if ctype is ColumnType.FLOAT64:
        if not _FLOAT_CELL.fullmatch(text):
            fail(f"{text!r} is not a float64")
        value = float(text)
        if not math.isfinite(value):
            fail(f"{text!r} overflows float64")
        return value + 0.0
    return text


def load_csv_reference(path, schema: Schema) -> tuple:
    """The rows of a CSV file whose header matches schema, parsed cell by
    cell as each record is read; raise TypeParseError at the first bad
    record, cell or read in file order.  Records count as lines, the
    header as line 1."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        line = 0
        try:
            assert tuple(next(reader)) == schema.names
            line, rows = 1, []
            for line, record in enumerate(reader, start=2):
                if len(record) != len(schema.columns):
                    raise TypeParseError(
                        f"{path}: line {line}: expected {len(schema.columns)} cells, "
                        f"got {len(record)}",
                        line=line,
                    )
                rows.append(tuple(
                    _reference_cell(cell, ctype, line, name)
                    for cell, (name, ctype) in zip(record, schema.columns)
                ))
        except UnicodeDecodeError as exc:
            raise TypeParseError(f"{path}: not valid UTF-8: {exc}") from exc
        except csv.Error as exc:
            # The record being read is the one after the last one read.
            raise TypeParseError(f"{path}: line {line + 1}: {exc}", line=line + 1) from exc
    return tuple(rows)


# ---------------------------------------------------------------------------
# Python values one cell at a time: check_value, Table(...) and the CLI's
# decoding of a script's inline rows as they were before they checked a
# column at a time.


def check_value_reference(value, ctype: ColumnType):
    """value as a Table stores it: of the column type's exact class (int,
    float or str), with -0.0 as 0.0; SchemaMismatch unless it is a legal
    cell of the column type.  The type is read as type(value), which no
    __class__ attribute can stand in for, and a subclass's value through
    the base class's own method, which never calls the subclass."""
    kind = type(value)
    if ctype is ColumnType.INT64:
        if not issubclass(kind, int) or issubclass(kind, bool):
            raise SchemaMismatch(f"expected int64, got {value!r}")
        cell = int.__index__(value)
        if not -(2**63) <= cell <= 2**63 - 1:
            raise SchemaMismatch(f"{value} is outside the int64 range")
    elif ctype is ColumnType.FLOAT64:
        if not issubclass(kind, float):
            raise SchemaMismatch(f"expected float64, got {value!r}")
        cell = float.__float__(value) + 0.0
        if not math.isfinite(cell):
            raise SchemaMismatch(f"float values must be finite, got {value!r}")
    else:
        if not issubclass(kind, str):
            raise SchemaMismatch(f"expected text, got {value!r}")
        cell = str.__str__(value)
        if cell == "":
            raise SchemaMismatch("text values must be non-empty")
    return cell


def table_rows_reference(schema: Schema, rows) -> tuple:
    """The rows a Table of schema stores, checked row by row and cell by
    cell; raise at the first bad row or cell."""
    types = [ctype for _, ctype in schema.columns]
    checked = []
    for row in rows:
        if not isinstance(row, (tuple, list)):
            raise TypeMismatch(f"row {row!r}: expected a tuple or list of cells")
        if len(row) != len(types):
            raise SchemaMismatch(
                f"row {row!r} has {len(row)} values, schema has {len(types)} columns"
            )
        checked.append(tuple(check_value_reference(v, t) for v, t in zip(row, types)))
    return tuple(checked)


def decode_rows_reference(schema: Schema, rows, where: str) -> list:
    """A script's inline rows under schema, decoded row by row: each row
    must be an array, and whole numbers widen into float64 cells."""
    if not isinstance(rows, (list, tuple)):
        raise ScriptError(f"{where}.rows: expected an array")
    floats = {i for i, (_, ctype) in enumerate(schema.columns) if ctype is ColumnType.FLOAT64}
    decoded = []
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ScriptError(f"{where}.rows[{r}]: expected an array")
        cells = []
        for i, cell in enumerate(row):
            if i in floats and type(cell) is int:
                try:
                    cell = float(cell)
                except OverflowError:
                    raise ScriptError(f"{where}.rows[{r}]: {cell} is outside the float64 range")
            cells.append(cell)
        decoded.append(tuple(cells))
    return decoded


# ---------------------------------------------------------------------------
# The exact-noise ladder with every uniform drawn by rng.randrange.  The
# samplers in noisegate.noise draw theirs with randrange's rejection loop
# on getrandbits, inlined, so they must match this ladder draw for draw
# and leave the generator in the same state.


def _randrange_bernoulli_exp_unit(n: int, d: int, rng: random.Random) -> bool:
    k = 1
    while True:
        g = math.gcd(n, k)
        if rng.randrange(d * (k // g)) >= n // g:
            return k % 2 == 1
        k += 1


def _randrange_bernoulli_exp(n: int, d: int, rng: random.Random) -> bool:
    while n > d:
        if not _randrange_bernoulli_exp_unit(1, 1, rng):
            return False
        n -= d
    return _randrange_bernoulli_exp_unit(n, d, rng)


def _randrange_geometric_exp(n: int, d: int, rng: random.Random) -> int:
    while True:
        shift = rng.randrange(d)
        g = math.gcd(shift, d)
        if _randrange_bernoulli_exp(shift // g, d // g, rng):
            break
    coarse = 0
    while _randrange_bernoulli_exp_unit(1, 1, rng):
        coarse += 1
    return (coarse * d + shift) // n


def _randrange_two_sided_geometric(n: int, d: int, rng: random.Random) -> int:
    while True:
        negative = rng.randrange(2) < 1
        magnitude = _randrange_geometric_exp(n, d, rng)
        if negative and magnitude == 0:
            continue
        return -magnitude if negative else magnitude


def randrange_geometric_exp(rate: Fraction, rng: random.Random) -> int:
    """P(G = k) = (1 - exp(-rate)) exp(-k rate), k >= 0, drawn through randrange."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return _randrange_geometric_exp(rate.numerator, rate.denominator, rng)


def randrange_two_sided_geometric(rate: Fraction, rng: random.Random) -> int:
    """P(Z = k) proportional to exp(-|k| * rate), drawn through randrange."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return _randrange_two_sided_geometric(rate.numerator, rate.denominator, rng)


def randrange_discrete_gaussian(sigma_squared: Fraction, rng: random.Random) -> int:
    """P(Z = k) proportional to exp(-k^2 / (2 sigma^2)), drawn through randrange."""
    if sigma_squared <= 0:
        raise ValueError("sigma_squared must be positive")
    p, q = sigma_squared.numerator, sigma_squared.denominator
    scale = math.isqrt(p // q) + 1
    qs = q * scale
    bias_denominator = 2 * p * qs * scale
    while True:
        candidate = _randrange_two_sided_geometric(1, scale, rng)
        offset = abs(candidate) * qs - p
        numerator = offset * offset
        g = math.gcd(numerator, bias_denominator)
        if _randrange_bernoulli_exp(numerator // g, bias_denominator // g, rng):
            return candidate


# ---------------------------------------------------------------------------
# Expression oracle: the closure tree-walker the expression compiler
# replaced, kept verbatim, and the row loops that checked every map cell.

_COLUMN_TYPES = {
    ColumnType.INT64: ExprType.INT,
    ColumnType.FLOAT64: ExprType.FLOAT,
    ColumnType.TEXT: ExprType.TEXT,
}

_NUMERIC = (ExprType.INT, ExprType.FLOAT)

ROW_FAILURES = (ExpressionTypeError, OverflowError, SchemaMismatch)


def _fail(text: str, message: str) -> ExpressionTypeError:
    return ExpressionTypeError(f"in {text!r}: {message}")


def _unsupported(text: str, message: str) -> ExpressionSyntaxError:
    return ExpressionSyntaxError(f"in {text!r}: {message}")


def _div(a, b):
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

        def compare(row) -> bool:
            prev = fns[0](row)
            for op, fn in zip(ops, fns[1:]):
                nxt = fn(row)
                if not op(prev, nxt):
                    return False
                prev = nxt
            return True

        return compare, ExprType.BOOL

    raise _unsupported(text, f"unsupported syntax {type(node).__name__}")


def oracle_expression(text: str, schema: Schema):
    """(evaluator, result type) of an expression, by the tree-walker."""
    return _build(ast.parse(text, mode="eval").body, schema, text)


def oracle_projection(text: str, schema: Schema, target: ColumnType):
    """An evaluator for a column of type target: ints widen to float
    columns, and the cell is not yet checked against its column."""
    fn, result_type = oracle_expression(text, schema)
    wanted = _COLUMN_TYPES[target]
    if result_type is wanted:
        return fn
    if wanted is ExprType.FLOAT and result_type is ExprType.INT:
        return lambda row: float(fn(row))
    raise ExpressionTypeError(f"{text!r} has type {result_type.value}")


def oracle_filter(rows, keep) -> tuple:
    """The rows whose predicate holds; a row whose predicate fails is dropped."""
    kept = []
    for row in rows:
        try:
            if keep(row):
                kept.append(row)
        except ROW_FAILURES:
            pass
    return tuple(kept)


def _oracle_row(row, cells):
    return tuple(check_value_reference(fn(row), ctype) for fn, ctype in cells)


def oracle_map(rows, cells) -> tuple:
    """Each row through (evaluator, column type) cells, every cell checked
    with check_value_reference; a row with a failing cell is dropped."""
    out = []
    for row in rows:
        try:
            out.append(_oracle_row(row, cells))
        except ROW_FAILURES:
            pass
    return tuple(out)


def oracle_flat_map(rows, branches, max_rows: int) -> tuple:
    """Each row through (guard or None, cells) branches, in order, up to
    max_rows outputs; a failing branch is dropped and not counted."""
    out = []
    for row in rows:
        produced = 0
        for guard, cells in branches:
            if produced == max_rows:
                break
            try:
                if guard is None or guard(row):
                    out.append(_oracle_row(row, cells))
                    produced += 1
            except ROW_FAILURES:
                pass
    return tuple(out)


def evaluated_outcomes(compiled, schema: Schema, rows) -> list:
    """Each row's outcome under a compiled expression's column program, run
    over a table of the rows: ("value", v), or ("fails", None); a failure
    has no class."""
    values, held = compiled.evaluate(Table.of(schema, rows))
    values = list(values)
    if held is None:
        held = bytes([1]) * len(rows)
    assert len(values) == len(rows) and type(held) is bytes and set(held) <= {0, 1}
    assert len(held) == len(rows)
    return [
        ("value", value) if holds else ("fails", None)
        for value, holds in zip(values, held)
    ]


# ---------------------------------------------------------------------------
# Depth references: the explicit-stack walks that bounded a tree before the
# compiler built it, kept as they stood.  The compiler now counts each depth
# where it builds the tree; these count it a second, independent way.


def levels_reference(node: ast.expr) -> int:
    """How many levels deep a parsed expression nests, found with an
    explicit stack.  An and/or of n operands counts ceil(log2 n) levels,
    the depth of a balanced tree of them."""
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


def join_nesting_reference(expr: QueryExpr) -> int:
    """How deeply private joins nest in a query, walked with an explicit
    stack."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, joins = stack.pop()
        if isinstance(node, JoinPrivate):
            joins += 1
            stack.append((node.other, joins))
        deepest = max(deepest, joins)
        child = getattr(node, "child", None)
        if child is not None:
            stack.append((child, joins))
    return deepest


# ---------------------------------------------------------------------------
# Probes: what a table remembers, and which bits a generator hands out.


def remembered(table: Table) -> dict:
    """What the table has derived so far, by key, as Table.derive keeps it."""
    return {} if table._derived is None else table._derived


def same_data(a: Table, b: Table) -> bool:
    """Whether two tables are views of one remembered value: the same
    columns object under the same mask object.  A remembered step output or
    cut is built again as a view on each read, so this is what a warm read
    shares with a cold one."""
    return a.columns is b.columns and a.held is b.held


def unbuilt():
    """A build for Table.derive that fails: the value must be remembered."""
    raise AssertionError("a remembered value was built again")


class LoggingRandom(random.Random):
    """A generator that records the k of every getrandbits(k) call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


# ---------------------------------------------------------------------------
# Work counters.


def python_calls(fn, only: frozenset = None) -> int:
    """How many function calls running fn() makes, counted as the `call`
    and `c_call` events of sys.setprofile: Python functions, and C
    functions that Python code calls (not those a C loop such as map
    calls); with `only`, a set of qualified names, the calls of the C
    functions so named alone.  The garbage collector is off meanwhile, so
    that no finalizer of older garbage (a generator's close, say) is
    counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if only is None:
            calls += event in ("call", "c_call")
        else:
            calls += event == "c_call" and getattr(arg, "__qualname__", None) in only

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def python_lines(fn) -> int:
    """How many lines of Python running fn() executes, counted as the
    `line` events of sys.settrace, so a Python loop counts each pass; the
    garbage collector is off meanwhile, as in python_calls."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        gc.enable()
    return lines
