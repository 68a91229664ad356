"""Budget-mediated query sessions.

A Session owns private tables, a privacy unit saying what one unit of
protected change is, and a budget in a chosen measure.  Analysts describe
queries as small expression trees (usually by chaining methods from
query(table)), and evaluate compiles each tree into a stability-tracked
pipeline plus a calibrated measurement whose output is the result table,
runs it, and charges the declared spend.  Raw tables are reachable only
through evaluate.

Calibration is exact: the compiler solves the mechanism parameter so the
end-to-end privacy function at the session's unit distance equals the
requested spend in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence, Union

from .errors import (
    EmptyTables,
    ExpressionSyntaxError,
    ExpressionTypeError,
    DuplicateColumn,
    IdColumnDropped,
    KeyTypeMismatch,
    MeasureMismatch,
    MissingIdColumn,
    MissingKeyColumn,
    NonLinearPath,
    NonPositiveBound,
    NonPositiveEpsilon,
    SchemaMismatch,
    TypeCheckError,
    TypeMismatch,
    UnboundedSensitivity,
    UnknownColumn,
)
from .measurements import (
    Measurement,
    PureDpNoise,
    Queryable,
    ZcdpNoise,
    compose_per_group,
    make_average,
    make_count,
    make_quantile,
    make_sum,
)
from .metrics import (
    INF,
    AddRemoveIds,
    Measure,
    PureDP,
    SymmetricDifference,
    TableTuple,
    ZCDP,
    compose_maps,
    linear_map,
)
from .rng import RngStream
from .tabledata import (
    ColumnType,
    Schema,
    Table,
    TableDomain,
    Value,
    result_cell,
)
from . import transformations as tf

DEFAULT_GRANULARITY = Fraction(1, 100)


# ---------------------------------------------------------------------------
# Budgets and privacy units.


def parse_budget_amount(text: str):
    """Parse an exact budget amount: 'inf', 'a/b', or a decimal string."""
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        return INF
    try:
        amount = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TypeMismatch(f"cannot parse budget amount {text!r}") from exc
    if amount < 0:
        raise TypeMismatch(f"budget amounts are non-negative, got {text!r}")
    return amount


def _exact_amount(amount):
    if amount == INF:
        return INF
    if isinstance(amount, float):
        raise TypeMismatch(
            "budget amounts must be exact: pass an int, a Fraction, or a "
            "decimal string, not a float"
        )
    if isinstance(amount, str):
        return parse_budget_amount(amount)
    amount = Fraction(amount)
    if amount < 0:
        raise TypeMismatch(f"budget amounts are non-negative, got {amount}")
    return amount


@dataclass(frozen=True)
class PrivacyBudget:
    """An exact amount of privacy loss under a measure.

    Amounts are rationals (math.inf is allowed for a bottomless session).
    Finite floats are rejected so accounting never inherits binary
    rounding; write Fraction('0.4') or just '0.4'.
    """

    measure: Measure
    amount: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "amount", _exact_amount(self.amount))

    @classmethod
    def pure(cls, amount) -> "PrivacyBudget":
        return cls(PureDP(), amount)

    @classmethod
    def zcdp(cls, amount) -> "PrivacyBudget":
        return cls(ZCDP(), amount)


@dataclass(frozen=True)
class AddMaxRows:
    """Protect any change of at most max_rows rows, across all tables."""

    max_rows: int

    def __post_init__(self) -> None:
        if not isinstance(self.max_rows, int) or self.max_rows < 1:
            raise NonPositiveBound(
                f"max_rows must be a positive int, got {self.max_rows!r}"
            )


@dataclass(frozen=True)
class AddRemoveId:
    """Protect the presence of one identifier, with all its rows."""

    id_column: str


PrivacyUnit = Union[AddMaxRows, AddRemoveId]


# ---------------------------------------------------------------------------
# Key sets.


@dataclass(frozen=True)
class KeySet:
    """The explicit group-by keys a grouped query will report, exactly."""

    schema: Schema
    rows: tuple[tuple, ...]


def keyset_from_tuples(
    columns: Sequence[tuple[str, ColumnType]], tuples: Iterable[Sequence[Value]]
) -> KeySet:
    """Build a KeySet from typed columns and key tuples.

    Every key must be a legal cell of its column, as in a Table;
    duplicates collapse to their first occurrence.  An empty keyset is
    legal and makes any grouped query return an empty table.
    """
    schema = Schema(tuple(columns))
    try:
        table = Table.of(schema, tuples)
    except SchemaMismatch as exc:
        raise TypeMismatch(f"bad key tuple: {exc}") from exc
    return KeySet(schema, tuple(dict.fromkeys(table.rows)))


# ---------------------------------------------------------------------------
# Query expressions.
#
# Each node is declared once, as a dataclass: the CLI decodes script JSON
# by field name and type, the node's own method is its compile step, and
# its builder methods chain the next node onto it.  Relational nodes have
# the relational and aggregation methods, GroupBy only the aggregation
# methods, and aggregations none, so a chain of calls can only build a
# query whose one aggregation is its root.


class QueryExpr:
    """Base class for query expression nodes."""

    def _grouping(self) -> tuple[KeySet | None, QueryExpr]:
        """The keyset an aggregation over this node reports (None when
        ungrouped), and the relational part of the query below it."""
        return None, self


class _Aggregable(QueryExpr):
    """A node an aggregation can follow; each method returns the finished
    query, with the aggregation as its root."""

    def count(self) -> Count:
        return Count(self)

    def sum(self, column: str, low, high, granularity=DEFAULT_GRANULARITY) -> Sum:
        return Sum(self, column, low, high, Fraction(str(granularity)))

    def average(self, column: str, low, high, granularity=DEFAULT_GRANULARITY) -> Average:
        return Average(self, column, low, high, Fraction(str(granularity)))

    def quantile(self, column: str, q: float, low, high, bins: int) -> Quantile:
        return Quantile(self, column, q, low, high, bins)


class _Relational(_Aggregable):
    """A node whose _chain(upstream, tables) extends its child's compiled
    transformation (None for a leaf) through itself; `tables` maps each
    session table name to the transformation selecting it.  Each method
    returns a new node over this one."""

    def filter(self, predicate: str) -> Filter:
        return Filter(self, predicate)

    def map(self, columns: Mapping[str, str], schema: Schema) -> Map:
        return Map(self, dict(columns), schema)

    def flat_map(
        self, branches: Sequence[tf.ExpansionBranch], schema: Schema, max_rows: int
    ) -> FlatMap:
        return FlatMap(self, tuple(branches), schema, max_rows)

    def join_public(self, table: Table, on: Sequence[str]) -> JoinPublic:
        return JoinPublic(self, table, tuple(on))

    def join_private(
        self, other: QueryExpr, on: Sequence[str], left_bound: int, right_bound: int
    ) -> JoinPrivate:
        return JoinPrivate(self, other, tuple(on), left_bound, right_bound)

    def truncate_by_id(self, bound: int) -> TruncateById:
        return TruncateById(self, bound)

    def group_by(self, keys: KeySet) -> GroupBy:
        return GroupBy(self, keys)


class _Aggregation(QueryExpr):
    """A root node: _measurement(domain, noise) measures its child, per
    group when the child is a GroupBy; value_column names the result."""


def _require_rows(upstream: tf.Transformation, what: str) -> None:
    if isinstance(upstream.output_metric, AddRemoveIds):
        raise UnboundedSensitivity(
            f"{what} under identifier accounting is unbounded; truncate_by_id first"
        )


@dataclass(frozen=True)
class Source(_Relational):
    table: str

    def _chain(self, upstream, tables):
        if self.table not in tables:
            raise TypeCheckError(
                f"unknown table {self.table!r}; the session has {sorted(tables)}"
            )
        return tables[self.table]


@dataclass(frozen=True)
class Filter(_Relational):
    child: QueryExpr
    predicate: str

    def _chain(self, upstream, tables):
        return tf.chain(upstream, tf.make_filter(
            upstream.output_domain, self.predicate, metric=upstream.output_metric
        ))


@dataclass(frozen=True)
class Map(_Relational):
    child: QueryExpr
    columns: Mapping[str, str]
    schema: Schema

    def _chain(self, upstream, tables):
        return tf.chain(upstream, tf.make_map(
            upstream.output_domain, self.columns, self.schema,
            metric=upstream.output_metric,
        ))


@dataclass(frozen=True)
class FlatMap(_Relational):
    child: QueryExpr
    branches: tuple[tf.ExpansionBranch, ...]
    schema: Schema
    max_rows: int

    def _chain(self, upstream, tables):
        _require_rows(upstream, "flat_map")
        return tf.chain(upstream, tf.make_flat_map(
            upstream.output_domain, self.branches, self.schema, self.max_rows
        ))


@dataclass(frozen=True)
class JoinPublic(_Relational):
    child: QueryExpr
    table: Table
    on: tuple[str, ...]

    def _chain(self, upstream, tables):
        _require_rows(upstream, "a public join")
        return tf.chain(upstream, tf.make_public_join(
            upstream.output_domain, self.table, self.on
        ))


@dataclass(frozen=True)
class JoinPrivate(_Relational):
    child: QueryExpr
    other: QueryExpr
    on: tuple[str, ...]
    left_bound: int
    right_bound: int

    def _chain(self, upstream, tables):
        left, right = upstream, _build_chain(self.other, tables)
        _require_rows(left, "the left side of a private join")
        _require_rows(right, "the right side of a private join")
        join = tf.make_private_join(
            left.output_domain,
            right.output_domain,
            self.on,
            self.left_bound,
            self.right_bound,
        )
        slope = tf.private_join_distance_bound(
            self.left_bound,
            self.right_bound,
            left.stability.slope,
            right.stability.slope,
        )
        return tf.Transformation(
            input_domain=left.input_domain,
            output_domain=join.output_domain,
            input_metric=left.input_metric,
            output_metric=SymmetricDifference(),
            stability=linear_map(slope),
            _apply=lambda data: join.apply((left.apply(data), right.apply(data))),
        )


@dataclass(frozen=True)
class TruncateById(_Relational):
    child: QueryExpr
    bound: int

    def _chain(self, upstream, tables):
        if not isinstance(upstream.output_metric, AddRemoveIds):
            raise TypeCheckError(
                "truncate_by_id applies only under identifier accounting"
            )
        return tf.chain(upstream, tf.make_truncate_by_id(
            upstream.output_domain, self.bound
        ))


@dataclass(frozen=True)
class GroupBy(_Aggregable):
    child: QueryExpr
    keys: KeySet

    def _grouping(self):
        return self.keys, self.child


@dataclass(frozen=True)
class Count(_Aggregation):
    child: QueryExpr

    value_column = ("count", ColumnType.INT64)

    def _measurement(self, domain, noise):
        return make_count(domain, noise)


@dataclass(frozen=True)
class Sum(_Aggregation):
    child: QueryExpr
    column: str
    low: float
    high: float
    granularity: Fraction = DEFAULT_GRANULARITY

    value_column = ("sum", ColumnType.FLOAT64)

    def _measurement(self, domain, noise):
        return make_sum(
            domain, self.column, self.low, self.high, self.granularity, noise
        )


@dataclass(frozen=True)
class Average(_Aggregation):
    child: QueryExpr
    column: str
    low: float
    high: float
    granularity: Fraction = DEFAULT_GRANULARITY

    value_column = ("average", ColumnType.FLOAT64)

    def _measurement(self, domain, noise):
        return make_average(
            domain, self.column, self.low, self.high, self.granularity, noise
        )


@dataclass(frozen=True)
class Quantile(_Aggregation):
    child: QueryExpr
    column: str
    q: float
    low: float
    high: float
    bins: int

    value_column = ("quantile", ColumnType.FLOAT64)

    def _measurement(self, domain, noise):
        if not isinstance(noise, PureDpNoise):
            raise TypeCheckError("quantile queries need a pure-DP session")
        return make_quantile(
            domain, self.column, self.q, self.low, self.high, self.bins,
            noise.epsilon_unit,
        )


# Every query node by kind name, as query scripts spell it.
QUERY_NODES: dict[str, type[QueryExpr]] = {
    node.__name__: node
    for node in (
        Source, Filter, Map, FlatMap, JoinPublic, JoinPrivate, TruncateById,
        GroupBy, Count, Sum, Average, Quantile,
    )
}


def query(table: str) -> Source:
    """The start of a query over a session table; chain nodes onto it."""
    return Source(table)


# ---------------------------------------------------------------------------
# Compilation.


@dataclass(frozen=True)
class CompiledQuery:
    """The output of compiling one query expression.

    `measurement` runs end to end on the session's table tuple and its
    output is the result table, with schema `output_schema`: every value
    is released inside it, so nothing about the data is computed after
    it returns.  Its privacy function at `unit_distance` equals the
    requested spend.
    """

    measurement: Measurement
    transformation: tf.Transformation
    output_schema: Schema
    unit_distance: int


_TYPE_ERRORS = (
    ExpressionSyntaxError,
    ExpressionTypeError,
    UnknownColumn,
    DuplicateColumn,
    SchemaMismatch,
    KeyTypeMismatch,
    MissingKeyColumn,
    MissingIdColumn,
    IdColumnDropped,
    TypeMismatch,
)


def _unit_metric(unit: PrivacyUnit):
    if isinstance(unit, AddMaxRows):
        return SymmetricDifference()
    if isinstance(unit, AddRemoveId):
        return AddRemoveIds(unit.id_column)
    raise TypeCheckError(f"unknown privacy unit {unit!r}")


def _root_parts(table_domains: Mapping[str, TableDomain], unit: PrivacyUnit):
    names = sorted(table_domains)
    components = tuple(table_domains[name] for name in names)
    metrics = tuple(_unit_metric(unit) for _ in names)
    return names, components, metrics


def _build_chain(
    expr: QueryExpr, tables: Mapping[str, tf.Transformation]
) -> tf.Transformation:
    """Compile the relational part of a query into one transformation."""
    if not isinstance(expr, _Relational):
        raise TypeCheckError(
            f"{type(expr).__name__} cannot appear here: aggregations and "
            "group-by may appear only at the root of a query"
        )
    child = getattr(expr, "child", None)
    upstream = None if child is None else _build_chain(child, tables)
    return expr._chain(upstream, tables)


def _combine(chain: tf.Transformation, measurement: Measurement) -> Measurement:
    return Measurement(
        input_domain=chain.input_domain,
        input_metric=chain.input_metric,
        output_measure=measurement.output_measure,
        privacy_function=compose_maps(measurement.privacy_function, chain.stability),
        _eval=lambda data, rng: measurement.eval(chain.apply(data), rng),
    )


def compile_query(
    expr: QueryExpr,
    table_domains: Mapping[str, TableDomain],
    unit: PrivacyUnit,
    measure: Measure,
    spend,
) -> CompiledQuery:
    """Compile a query against table schemas alone; no data is touched.

    The mechanism parameter is solved so the end-to-end privacy function
    at the unit distance equals `spend` exactly.
    """
    spend = _exact_amount(spend)
    if spend == INF:
        raise TypeCheckError(
            "spends must be finite; an infinite budget admits any finite spend"
        )
    try:
        return _compile(expr, table_domains, unit, measure, spend)
    except _TYPE_ERRORS as exc:
        raise TypeCheckError(str(exc)) from exc


def _unit_distance(unit: PrivacyUnit, table_count: int) -> int:
    if isinstance(unit, AddMaxRows):
        return unit.max_rows
    # One identifier may contribute rows to every table at once.
    return table_count


def _compile(
    expr: QueryExpr,
    table_domains: Mapping[str, TableDomain],
    unit: PrivacyUnit,
    measure: Measure,
    spend: Fraction,
) -> CompiledQuery:
    names, components, metrics = _root_parts(table_domains, unit)
    distance = _unit_distance(unit, len(names))
    tables = {
        name: tf.make_select_table(components, metrics, i)
        for i, name in enumerate(names)
    }

    if not isinstance(expr, _Aggregation):
        raise TypeCheckError("queries must end in an aggregation")
    keyset, relational = expr.child._grouping()

    chain = _build_chain(relational, tables)
    if isinstance(chain.output_metric, AddRemoveIds):
        raise UnboundedSensitivity(
            "this query is still under identifier accounting at the "
            "aggregation; add a truncate_by_id step to bound each "
            "identifier's contribution"
        )

    slope = chain.stability.slope
    scaled = slope * distance  # distance seen by the aggregation
    if isinstance(measure, PureDP):
        if scaled == 0:
            noise = PureDpNoise(Fraction(1))
        else:
            epsilon_unit = spend / scaled
            if epsilon_unit <= 0:
                raise NonPositiveEpsilon(
                    f"spend {spend} leaves no budget for noise at stability {slope}"
                )
            noise = PureDpNoise(epsilon_unit)
    elif isinstance(measure, ZCDP):
        if scaled == 0:
            noise = ZcdpNoise(Fraction(1), linearize_at=1 if keyset is not None else None)
        else:
            rho_unit = spend / (scaled * scaled)
            if rho_unit <= 0:
                raise NonPositiveEpsilon(
                    f"spend {spend} leaves no budget for noise at stability {slope}"
                )
            if keyset is not None:
                if scaled.denominator != 1:
                    raise NonLinearPath(
                        f"grouped zCDP queries need an integer stability, got {scaled}"
                    )
                noise = ZcdpNoise(rho_unit, linearize_at=int(scaled))
            else:
                noise = ZcdpNoise(rho_unit)
    else:
        raise TypeCheckError(f"unknown measure {measure!r}")

    per_table = expr._measurement(chain.output_domain, noise)
    value_column = expr.value_column

    key_columns = () if keyset is None else tuple(keyset.schema.columns)
    output_schema = Schema(key_columns + (value_column,))
    if keyset is None:

        def release(table: Table, rng: RngStream) -> Table:
            value = result_cell(per_table.eval(table, rng), value_column[1])
            return Table._trusted(output_schema, ((value,),))

        measured = replace(per_table, _eval=release)
    else:
        view = tf.make_grouped_view(chain.output_domain, keyset.schema)
        measured = compose_per_group(
            chain.output_domain, keyset.schema, keyset.rows, per_table, value_column
        )
        chain = tf.chain(chain, view)
    return CompiledQuery(
        measurement=_combine(chain, measured),
        transformation=chain,
        output_schema=output_schema,
        unit_distance=distance,
    )


# ---------------------------------------------------------------------------
# Sessions.


class Session:
    """Private tables plus a budget; answers compiled queries.

    Build one with build_session.  A failed evaluate, whatever the reason,
    leaves the session exactly as it was: no budget moves and no
    randomness is consumed.
    """

    def __init__(self, *, _queryable, _table_domains, _unit, _measure, _distance):
        self._queryable = _queryable
        self._table_domains = _table_domains
        self._unit = _unit
        self._measure = _measure
        self._distance = _distance

    @property
    def privacy_unit(self) -> PrivacyUnit:
        return self._unit

    @property
    def measure(self) -> Measure:
        return self._measure

    def table_schemas(self) -> dict[str, Schema]:
        return {name: d.schema for name, d in self._table_domains.items()}

    def remaining_budget(self) -> PrivacyBudget:
        return PrivacyBudget(self._measure, self._queryable.remaining())

    def evaluate(self, expr: QueryExpr, spend: PrivacyBudget) -> Table:
        """Compile, run and charge one query; return its result table.

        The spend's measure must match the session's.  The result table is
        built inside the measurement, before the ledger charges, so an
        evaluate that returns has charged exactly its spend and one that
        raises has charged nothing and consumed no randomness.
        """
        if spend.measure != self._measure:
            raise MeasureMismatch(
                f"the session accounts in {self._measure!r}, "
                f"the spend is in {spend.measure!r}"
            )
        compiled = compile_query(
            expr, self._table_domains, self._unit, self._measure, spend.amount
        )
        return self._queryable.ask(compiled.measurement, spend.amount, self._distance)


def _session_domains(
    schemas: Mapping[str, Schema], unit: PrivacyUnit
) -> dict[str, TableDomain]:
    """The table domains a session over these schemas compiles against;
    under AddRemoveId every table must carry the identifier column."""
    if not schemas:
        raise EmptyTables("a session needs at least one table")
    id_column = unit.id_column if isinstance(unit, AddRemoveId) else None
    for name in sorted(schemas):
        if id_column is not None and not schemas[name].has_column(id_column):
            raise MissingIdColumn(f"table {name!r} lacks the id column {id_column!r}")
    return {name: TableDomain(schemas[name], id_column) for name in sorted(schemas)}


def build_session(
    tables: Mapping[str, Table],
    unit: PrivacyUnit,
    budget: PrivacyBudget,
    seed: int,
) -> Session:
    """Create a session over named tables.

    Under AddRemoveId every table must carry the identifier column (as
    int64 or text).  The seed fixes all randomness: the same seed and the
    same query sequence reproduce the same outputs bit for bit.
    """
    domains = _session_domains(
        {name: table.schema for name, table in tables.items()}, unit
    )
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise TypeMismatch(f"the seed must be a 64-bit unsigned int, got {seed!r}")
    names, _, metrics = _root_parts(domains, unit)
    queryable = Queryable(
        tuple(tables[name] for name in names),
        TableTuple(metrics),
        budget.measure,
        budget.amount,
        RngStream(seed),
    )
    return Session(
        _queryable=queryable,
        _table_domains=domains,
        _unit=unit,
        _measure=budget.measure,
        _distance=_unit_distance(unit, len(names)),
    )
