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

import random
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
    NonPositiveBound,
    NonPositiveEpsilon,
    SchemaMismatch,
    TypeCheckError,
    TypeMismatch,
    UnboundedSensitivity,
    UnknownColumn,
)
from .expressions import stack_headroom
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
    _parse_fraction,
    compose_maps,
    linear_map,
    parse_budget_amount,
)
from .records import Record
from .rng import RngStream
from .tabledata import (
    ColumnType,
    KeySet,
    Schema,
    Table,
    TableDomain,
    Value,
    check_key_columns,
    expect,
    is_int,
    result_cell,
)
from . import transformations as tf

DEFAULT_GRANULARITY = Fraction(1, 100)


# ---------------------------------------------------------------------------
# Budgets and privacy units.


class PrivacyBudget(Record):
    """An exact amount of privacy loss under a measure.

    The amount is whatever parse_budget_amount accepts, held as a
    Fraction (or INF, for a bottomless session).
    """

    measure: Measure
    amount: Any

    def __post_init__(self) -> None:
        expect(self.measure, Measure, TypeMismatch, "the budget's measure", "PureDP() or ZCDP()")
        object.__setattr__(self, "amount", parse_budget_amount(self.amount))

    @classmethod
    def pure(cls, amount) -> "PrivacyBudget":
        return cls(PureDP(), amount)

    @classmethod
    def zcdp(cls, amount) -> "PrivacyBudget":
        return cls(ZCDP(), amount)


class AddMaxRows(Record):
    """Protect any change of at most max_rows rows, across all tables:
    rows are counted by symmetric difference, and a unit spans max_rows."""

    max_rows: int

    metric = SymmetricDifference()
    id_column = None

    def __post_init__(self) -> None:
        if not is_int(self.max_rows) or self.max_rows < 1:
            raise NonPositiveBound(
                f"max_rows must be a positive int, got {self.max_rows!r}"
            )

    def distance(self, table_count: int) -> int:
        return self.max_rows


class AddRemoveId(Record):
    """Protect the presence of one identifier, with all its rows, in the
    id_column every table carries.  One identifier may add rows to every
    table at once, so a unit spans one distance per table."""

    id_column: str

    def __post_init__(self) -> None:
        if not (isinstance(self.id_column, str) and self.id_column):
            raise TypeMismatch(
                f"AddRemoveId.id_column: expected a non-empty string, got {self.id_column!r}"
            )

    @property
    def metric(self) -> AddRemoveIds:
        return AddRemoveIds(self.id_column)

    def distance(self, table_count: int) -> int:
        return table_count


# All the compiler reads of a unit: metric, distance(table_count), id_column.
PrivacyUnit = Union[AddMaxRows, AddRemoveId]


# ---------------------------------------------------------------------------
# Key sets.


def keyset_from_tuples(
    columns: Sequence[tuple[str, ColumnType]], tuples: Iterable[Sequence[Value]]
) -> KeySet:
    """Build a KeySet from typed columns and key tuples.

    The KeySet checks its keys and drops repeats as it is built; a key
    that is not a legal cell of its column raises TypeMismatch here.
    """
    expect(columns, Iterable, TypeMismatch, "a keyset's columns", "an iterable")
    try:
        return KeySet(Schema(tuple(columns)), tuples)
    except SchemaMismatch as exc:
        raise TypeMismatch(f"bad key tuple: {exc}") from exc


# ---------------------------------------------------------------------------
# Query expressions.
#
# Each node is declared once, as its class; the package's export list
# names it too.  QueryExpr is a Record, so each annotation in a node's
# body is a field, and is its type rule: the node checks each field by
# _RULES[annotation] when it is built, from Python or a script, and
# raises TypeMismatch naming Kind.field.  Declaring a public node class
# adds it to QUERY_NODES, by which the CLI decodes script JSON; its own
# method is its compile step (a GroupBy has none: the aggregation above
# it splits by its keys); and `builder="name"` in its class line adds
# q.name(*args), which is Node(q, *args).  An aggregation's builder goes
# on every node an aggregation can follow, any other on relational nodes
# only, so GroupBy has only the aggregation builders and aggregations
# none: a chain of calls can only build a query whose one aggregation is
# its root.

# Every query node by kind name, as query scripts spell it.
QUERY_NODES: dict[str, type[QueryExpr]] = {}


class QueryExpr(Record):
    """Base class for query expression nodes; a node class's _builder is
    the name of its builder method, or None, and _rules its fields' rules."""

    def __init_subclass__(cls, builder: str | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.__name__.startswith("_"):
            QUERY_NODES[cls.__name__] = cls
        cls._builder = builder
        cls._rules = tuple(
            (name, f"{cls.__name__}.{name}", _RULES[annotation])
            for name, annotation in cls._record_types.items()
        )
        if builder is not None:
            host = _Aggregable if issubclass(cls, _Aggregation) else _Relational

            def build(self, *args, **kwargs):
                return cls(self, *args, **kwargs)

            build.__name__, build.__qualname__ = builder, f"{host.__name__}.{builder}"
            build.__doc__ = f"{cls.__name__}(self, {', '.join(cls._record_names[1:])})"
            setattr(host, builder, build)

    # How deeply private joins nest in the tree below a node, counted as
    # the tree is built: a JoinPrivate is one more than its deeper side and
    # any other node takes its child's count, set only where it is not 0.
    # No field, so equality, hash and repr do not see it.
    _join_depth = 0

    def __post_init__(self) -> None:
        for name, where, rule in self._rules:
            object.__setattr__(self, name, rule(getattr(self, name), where))
        depth = getattr(self.__dict__.get("child"), "_join_depth", 0)
        if depth:
            object.__setattr__(self, "_join_depth", depth)


def _instance(types, what: str):
    return lambda value, where: expect(value, types, TypeMismatch, where, what)


def _tuple_of(rule):
    def each(value, where: str) -> tuple:
        items = expect(value, (list, tuple), TypeMismatch, where, "a list or tuple")
        return tuple(rule(item, f"{where}[{i}]") for i, item in enumerate(items))
    return each


def _exact(value, where: str) -> Fraction:
    # A float is the decimal it prints as (0.1 is 1/10), text is read as
    # budget amounts are, and an int (str() fails past 4300 digits) as it is.
    value = expect(value, (int, float, Fraction, str), TypeMismatch, where, "an exact number")
    try:
        return _parse_fraction(str(value)) if isinstance(value, (float, str)) else Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise TypeMismatch(f"{where}: cannot parse {value!r} as an exact number") from None


# Each node field's annotation -> rule(value, "Kind.field"): the value the
# node keeps (a number as given), or TypeMismatch.  No rule fails the import.
_RULES = {
    "str": _instance(str, "a string"),
    "int": _instance(int, "an integer"),
    "float": _instance((int, float, Fraction), "a number"),
    "Fraction": _exact,
    "QueryExpr": _instance(QueryExpr, "a query node"),
    "Schema": _instance(Schema, "a Schema"),
    "Table": _instance(Table, "a Table"),
    "KeySet": _instance(KeySet, "a KeySet"),
    "tuple[str, ...]": _tuple_of(_instance(str, "a string")),
    "tuple[tuple[str, str], ...]": tf.column_pairs,
    "tuple[tf.ExpansionBranch, ...]": _tuple_of(_instance(tf.ExpansionBranch, "a flat-map branch")),
}


class _Aggregable(QueryExpr):
    """A node an aggregation can follow; each aggregation's builder
    returns the finished query, with the aggregation as its root."""


class _Relational(_Aggregable):
    """A node of a chain: _step(last, tables) is its own transformation,
    built from the output domain and metric of `last`, the step of the
    node below it in the chain (None for a Source or JoinPrivate, which
    starts a chain); `tables` maps each session table name to the
    transformation selecting it.  Each relational node's builder returns a
    new node over this one."""


class _Aggregation(QueryExpr):
    """A root node: _measurement(domain, noise) measures its child, per
    group when the child is a GroupBy; value_column names the result."""


def _require_rows(last: tf.Transformation, what: str) -> None:
    if isinstance(last.output_metric, AddRemoveIds):
        raise UnboundedSensitivity(
            f"{what} under identifier accounting is unbounded; truncate_by_id first"
        )


class Source(_Relational):
    table: str

    def _step(self, last, tables):
        if self.table not in tables:
            raise TypeCheckError(
                f"unknown table {self.table!r}; the session has {sorted(tables)}"
            )
        return tables[self.table]


class Filter(_Relational, builder="filter"):
    child: QueryExpr
    predicate: str

    def _step(self, last, tables):
        return tf.make_filter(
            last.output_domain, self.predicate, metric=last.output_metric
        )


class Map(_Relational, builder="map"):
    child: QueryExpr
    columns: tuple[tuple[str, str], ...]
    schema: Schema

    def _step(self, last, tables):
        return tf.make_map(
            last.output_domain, self.columns, self.schema, metric=last.output_metric
        )


class FlatMap(_Relational, builder="flat_map"):
    child: QueryExpr
    branches: tuple[tf.ExpansionBranch, ...]
    schema: Schema
    max_rows: int

    def _step(self, last, tables):
        _require_rows(last, "flat_map")
        return tf.make_flat_map(
            last.output_domain, self.branches, self.schema, self.max_rows
        )


class JoinPublic(_Relational, builder="join_public"):
    child: QueryExpr
    table: Table
    on: tuple[str, ...]

    def _step(self, last, tables):
        _require_rows(last, "a public join")
        return tf.make_public_join(last.output_domain, self.table, self.on)


class JoinPrivate(_Relational, builder="join_private"):
    child: QueryExpr
    other: QueryExpr
    on: tuple[str, ...]
    left_bound: int
    right_bound: int

    def __post_init__(self) -> None:
        super().__post_init__()
        depth = 1 + max(self.child._join_depth, self.other._join_depth)
        object.__setattr__(self, "_join_depth", depth)

    def _step(self, last, tables):
        left, right = _build_chain(self.child, tables), _build_chain(self.other, tables)
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
            _apply=lambda data: join._apply((left._apply(data), right._apply(data))),
        )


class TruncateById(_Relational, builder="truncate_by_id"):
    child: QueryExpr
    bound: int

    def _step(self, last, tables):
        if not isinstance(last.output_metric, AddRemoveIds):
            raise TypeCheckError(
                "truncate_by_id applies only under identifier accounting"
            )
        return tf.make_truncate_by_id(last.output_domain, self.bound)


class GroupBy(_Aggregable, builder="group_by"):
    child: QueryExpr
    keys: KeySet


class Count(_Aggregation, builder="count"):
    child: QueryExpr

    value_column = ("count", ColumnType.INT64)

    def _measurement(self, domain, noise):
        return make_count(domain, noise)


class _Clamped(_Aggregation):
    """A sum or an average of one column clamped to [low, high], counted
    in grains of the given granularity."""

    child: QueryExpr
    column: str
    low: float
    high: float
    granularity: Fraction = DEFAULT_GRANULARITY


class Sum(_Clamped, builder="sum"):
    value_column = ("sum", ColumnType.FLOAT64)

    def _measurement(self, domain, noise):
        return make_sum(
            domain, self.column, self.low, self.high, self.granularity, noise
        )


class Average(_Clamped, builder="average"):
    value_column = ("average", ColumnType.FLOAT64)

    def _measurement(self, domain, noise):
        return make_average(
            domain, self.column, self.low, self.high, self.granularity, noise
        )


class Quantile(_Aggregation, builder="quantile"):
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


def query(table: str) -> Source:
    """The start of a query over a session table; chain nodes onto it."""
    return Source(table)


# ---------------------------------------------------------------------------
# Compilation.


class CompiledQuery(Record):
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


def _root_parts(tables: Mapping[str, Any], unit: PrivacyUnit):
    """The table names in order, the tables (or their domains) in that
    order, and the unit's metric for each."""
    if not isinstance(unit, (AddMaxRows, AddRemoveId)):
        raise TypeCheckError(f"unknown privacy unit {unit!r}")
    names = sorted(tables)
    return names, tuple(tables[name] for name in names), (unit.metric,) * len(names)


# How deeply private joins may nest, as each node counts them when it is
# built (_join_depth).  Each nested join adds two frames to the stack that
# compiling and evaluating a query need.
_MAX_JOIN_NESTING = 8

# The frames evaluate needs below its own: the deepest query that the caps
# allow (a 64-level predicate, a sum or nested `and`s, under private joins
# nested 8 deep, grouped) evaluates with 90 frames of headroom on CPython
# 3.10.13 and 3.11.7 and 89 on 3.12.1 and 3.13.0, and not with one fewer;
# compiling the predicate takes most of them, since its column program
# runs in a flat loop.  The rest is a margin.
_FRAME_BUDGET = 120


def _build_chain(expr: QueryExpr, tables: Mapping[str, tf.Transformation]) -> tf.Transformation:
    """Compile a chain of relational nodes into one transformation.

    A loop walks down the child links from `expr` to the Source or
    JoinPrivate that starts the chain; then each node builds its step on
    the step below it, and tf.chain composes the steps once.  A private
    join compiles each of its sides with a call of its own, so only
    private joins nest.  A GroupBy is no part of the chain: the
    aggregation above it splits the chain's output by its keys.
    """
    nodes = []
    while True:
        if not isinstance(expr, _Relational):
            raise TypeCheckError(
                f"{type(expr).__name__} cannot appear here: aggregations and "
                "group-by may appear only at the root of a query"
            )
        nodes.append(expr)
        if isinstance(expr, (Source, JoinPrivate)):
            break
        expr = expr.child
    steps = []
    for node in reversed(nodes):
        steps.append(node._step(steps[-1] if steps else None, tables))
    return tf.chain(*steps)


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
    spend = parse_budget_amount(spend)
    if spend == INF:
        raise TypeCheckError(
            "spends must be finite; an infinite budget admits any finite spend"
        )
    try:
        return _compile(expr, table_domains, unit, measure, spend)
    except _TYPE_ERRORS as exc:
        raise TypeCheckError(str(exc)) from exc


def _compile(
    expr: QueryExpr,
    table_domains: Mapping[str, TableDomain],
    unit: PrivacyUnit,
    measure: Measure,
    spend: Fraction,
) -> CompiledQuery:
    names, components, metrics = _root_parts(table_domains, unit)
    distance = unit.distance(len(names))
    tables = {
        name: tf.make_select_table(components, metrics, i)
        for i, name in enumerate(names)
    }

    if not isinstance(expr, _Aggregation):
        raise TypeCheckError("queries must end in an aggregation")
    if expr._join_depth > _MAX_JOIN_NESTING:
        raise TypeCheckError(
            f"private joins nest too deeply; the limit is {_MAX_JOIN_NESTING}"
        )
    grouping = expr.child if isinstance(expr.child, GroupBy) else None
    chain = _build_chain((grouping or expr).child, tables)
    _require_rows(chain, "an aggregation")

    slope = chain.stability.slope
    scaled = slope * distance  # distance seen by the aggregation
    # The spend is linear in the per-unit cost under PureDP, quadratic
    # under zCDP; at stability 0 any positive per-unit cost is exact.
    power = 2 if isinstance(measure, ZCDP) else 1
    per_unit = spend / scaled**power if scaled else Fraction(1)
    if per_unit <= 0:
        raise NonPositiveEpsilon(
            f"spend {spend} leaves no budget for noise at stability {slope}"
        )
    if isinstance(measure, PureDP):
        noise = PureDpNoise(per_unit)
    elif isinstance(measure, ZCDP):
        noise = ZcdpNoise(per_unit)
    else:
        raise TypeCheckError(f"unknown measure {measure!r}")

    domain = chain.output_domain
    if grouping is not None:
        # Each group's Table holds only the column the aggregation reads:
        # a sum's, an average's or a quantile's column, or for a count the
        # first key column, which gives each group its length.
        check_key_columns(domain.schema, grouping.keys.schema)
        read = getattr(expr, "column", grouping.keys.schema.names[0])
        domain = TableDomain(Schema(((read, domain.schema.type_of(read)),)))
    measured = expr._measurement(domain, noise)
    value_column = expr.value_column

    key_columns = () if grouping is None else tuple(grouping.keys.schema.columns)
    output_schema = Schema(key_columns + (value_column,))
    if grouping is None:
        value_type, evaluate = value_column[1], measured._eval

        def release(table: Table, rng: random.Random) -> Table:
            value = result_cell(evaluate(table, rng), value_type)
            return Table._trusted(output_schema, ((value,),))
    else:
        measured = compose_per_group(chain.output_domain, grouping.keys, measured, value_column)
        release = measured._eval
    apply = chain._apply
    return CompiledQuery(
        measurement=Measurement(
            input_domain=chain.input_domain,
            input_metric=chain.input_metric,
            output_measure=measured.output_measure,
            privacy_function=compose_maps(measured.privacy_function, chain.stability),
            _eval=lambda data, rng: release(apply(data), rng),
        ),
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

    def __init__(self, *, _queryable, _table_domains, _unit, _measure):
        self._queryable = _queryable
        self._table_domains = _table_domains
        self._unit = _unit
        self._measure = _measure

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
        built inside the measurement, so an evaluate that returns has
        charged exactly its spend.  One that is refused before it runs (a
        compile error, a measure mismatch, a spend the budget cannot
        cover) has charged nothing and consumed no randomness.  One whose
        measurement raises on the data has charged its spend and raises
        EvaluationFailed, whose message says nothing about the rows.

        A query that compiles needs at most _FRAME_BUDGET frames of stack,
        whatever its size and its rows, so a caller with less headroom
        below the recursion limit is refused before anything compiles.
        """
        expect(spend, PrivacyBudget, TypeMismatch, "the spend", "a PrivacyBudget")
        if spend.measure != self._measure:
            raise MeasureMismatch(
                f"the session accounts in {self._measure!r}, "
                f"the spend is in {spend.measure!r}"
            )
        headroom = stack_headroom()
        if headroom < _FRAME_BUDGET:
            raise TypeCheckError(
                f"evaluate needs {_FRAME_BUDGET} frames of stack below the "
                f"recursion limit and has {headroom}"
            )
        compiled = compile_query(
            expr, self._table_domains, self._unit, self._measure, spend.amount
        )
        return self._queryable.ask(
            compiled.measurement, spend.amount, compiled.unit_distance
        )


def _session_domains(
    schemas: Mapping[str, Schema], unit: PrivacyUnit
) -> dict[str, TableDomain]:
    """The table domains a session over these schemas compiles against;
    every table must carry the unit's id column, if it has one."""
    if not schemas:
        raise EmptyTables("a session needs at least one table")
    id_column = unit.id_column
    for name in sorted(schemas):
        if id_column is not None and not schemas[name].has_column(id_column):
            raise MissingIdColumn(f"table {name!r} lacks the id column {id_column!r}")
    return {name: TableDomain(schemas[name], id_column) for name in sorted(schemas)}


def build_session(
    tables: Mapping[str, Table],
    unit: PrivacyUnit,
    budget: PrivacyBudget,
    seed: int | None = None,
) -> Session:
    """Create a session over named tables.

    Under AddRemoveId every table must carry the identifier column (as
    int64 or text).  The seed fixes all randomness: give one only to
    replay the same queries on the same tables, since two sessions with
    one seed draw the same noise for their n-th asks.  Without one, the
    operating system's randomness gives 64 bits, shown nowhere.
    """
    expect(tables, Mapping, TypeMismatch, "the tables", "a mapping of names to Tables")
    for name in tables:
        expect(name, str, TypeMismatch, f"table name {name!r}", "a string")
        expect(tables[name], Table, TypeMismatch, f"table {name!r}", "a Table")
    expect(budget, PrivacyBudget, TypeMismatch, "the budget", "a PrivacyBudget")
    _, data, metrics = _root_parts(tables, unit)
    domains = _session_domains(
        {name: table.schema for name, table in tables.items()}, unit
    )
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    if not is_int(seed) or not 0 <= seed < 2**64:
        raise TypeMismatch(f"the seed must be a 64-bit unsigned int, got {seed!r}")
    queryable = Queryable(
        data,
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
    )
