"""Deterministic table transformations with declared stability.

A Transformation pairs a pure function on tables with a stability map: a
monotone bound on how far apart two outputs can be, given how far apart
the inputs were.  Chains compose both.  Nothing here is randomized and
nothing here spends privacy budget; transformations only matter because
measurements downstream rely on their stability bounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (
    BadIndex,
    DomainMismatch,
    DuplicateColumn,
    IdColumnDropped,
    KeyTypeMismatch,
    MetricMismatch,
    MissingIdColumn,
    NonPositiveBound,
    SchemaMismatch,
    UnknownColumn,
)
from .expressions import compile_predicate, compile_projection, is_bare_column
from .metrics import (
    AddRemoveIds,
    BoundedLists,
    DistanceMap,
    GroupedBy,
    Metric,
    SymmetricDifference,
    TableTuple,
    compose_maps,
    linear_map,
)
from .tabledata import (
    Row,
    Schema,
    Table,
    TableDomain,
    TableListDomain,
    TableTupleDomain,
    canonicalize,
    check_key_columns,
    split_by_key,
)


@dataclass(frozen=True)
class Transformation:
    """A pure function between domains with a stability bound."""

    input_domain: Any
    output_domain: Any
    input_metric: Metric
    output_metric: Metric
    stability: DistanceMap
    _apply: Callable[[Any], Any]

    def apply(self, data):
        return self._apply(data)


def chain(first: Transformation, second: Transformation) -> Transformation:
    """Compose two transformations; stabilities compose along with them."""
    if second.input_domain != first.output_domain:
        raise DomainMismatch(
            "cannot chain: the second transformation expects a different domain"
        )
    if second.input_metric != first.output_metric:
        raise MetricMismatch(
            "cannot chain: the second transformation expects a different metric"
        )
    return Transformation(
        input_domain=first.input_domain,
        output_domain=second.output_domain,
        input_metric=first.input_metric,
        output_metric=second.output_metric,
        stability=compose_maps(second.stability, first.stability),
        _apply=lambda data: second.apply(first.apply(data)),
    )


def _check_row_metric(domain: TableDomain, metric: Metric) -> Metric:
    if isinstance(metric, SymmetricDifference):
        return metric
    if isinstance(metric, AddRemoveIds):
        if domain.id_column is None or metric.id_column != domain.id_column:
            raise MetricMismatch(
                f"metric tracks ids by {metric.id_column!r} but the domain "
                f"declares {domain.id_column!r}"
            )
        return metric
    raise MetricMismatch(f"row transformations do not run under {metric!r}")


def make_filter(domain: TableDomain, predicate: str, metric: Metric | None = None) -> Transformation:
    """Keep the rows satisfying a predicate expression.

    Dropping rows can only shrink a difference between inputs, so the
    stability is linear(1) under SymmetricDifference, and likewise under
    AddRemoveIds since rows are filtered within each identifier.
    """
    metric = _check_row_metric(domain, metric or SymmetricDifference())
    keep = compile_predicate(predicate, domain.schema).fn

    def apply(table: Table) -> Table:
        return Table._trusted(
            table.schema, tuple(row for row in table.rows if keep(row))
        )

    return Transformation(
        input_domain=domain,
        output_domain=domain,
        input_metric=metric,
        output_metric=metric,
        stability=linear_map(1),
        _apply=apply,
    )


def make_map(
    domain: TableDomain,
    columns: Mapping[str, str],
    new_schema: Schema,
    metric: Metric | None = None,
) -> Transformation:
    """Rewrite each row through per-column expressions.

    One output row per input row, so stability is linear(1).  When the
    domain declares an ID column the map must carry it through as a bare
    column reference; anything else would silently break the link between
    rows and their contributor.
    """
    metric = _check_row_metric(domain, metric or SymmetricDifference())
    if set(columns) != set(new_schema.names):
        raise SchemaMismatch(
            f"expressions cover {sorted(columns)} but the new schema has "
            f"{sorted(new_schema.names)}"
        )
    if domain.id_column is not None:
        if not new_schema.has_column(domain.id_column) or not is_bare_column(
            columns[domain.id_column], domain.id_column
        ):
            raise IdColumnDropped(
                f"the map must carry {domain.id_column!r} through unchanged"
            )
        if new_schema.type_of(domain.id_column) is not domain.schema.type_of(
            domain.id_column
        ):
            raise IdColumnDropped(
                f"the map must not change the type of {domain.id_column!r}"
            )
    compiled = [
        compile_projection(columns[name], domain.schema, ctype).fn
        for name, ctype in new_schema.columns
    ]
    output_domain = TableDomain(new_schema, domain.id_column)

    def apply(table: Table) -> Table:
        return Table(
            new_schema, tuple(tuple(fn(row) for fn in compiled) for row in table.rows)
        )

    return Transformation(
        input_domain=domain,
        output_domain=output_domain,
        input_metric=metric,
        output_metric=metric,
        stability=linear_map(1),
        _apply=apply,
    )


@dataclass(frozen=True)
class ExpansionBranch:
    """One candidate output row of a flat map.

    `columns` maps output column names to expressions over the input row;
    `when`, if given, is a predicate guarding whether the branch fires.
    """

    columns: Mapping[str, str]
    when: str | None = None


def make_flat_map(
    domain: TableDomain,
    branches: Sequence[ExpansionBranch],
    new_schema: Schema,
    max_rows: int,
) -> Transformation:
    """Expand each row into up to max_rows output rows.

    Branches are evaluated in order and output stops after max_rows rows
    per input row, so one row's influence on the output is bounded and the
    stability is linear in that bound.  Runs under SymmetricDifference
    only; identifier-tracking pipelines must truncate before expanding.
    """
    if not isinstance(max_rows, int) or max_rows < 1:
        raise NonPositiveBound(f"max_rows must be a positive int, got {max_rows!r}")
    if not branches:
        raise NonPositiveBound("a flat map needs at least one branch")
    compiled = []
    for branch in branches:
        if set(branch.columns) != set(new_schema.names):
            raise UnknownColumn(
                f"branch covers {sorted(branch.columns)} but the new schema "
                f"has {sorted(new_schema.names)}"
            )
        guard = (
            compile_predicate(branch.when, domain.schema).fn
            if branch.when is not None
            else None
        )
        cells = [
            compile_projection(branch.columns[name], domain.schema, ctype).fn
            for name, ctype in new_schema.columns
        ]
        compiled.append((guard, cells))
    bound = min(max_rows, len(branches))

    def apply(table: Table) -> Table:
        out: list[Row] = []
        for row in table.rows:
            produced = 0
            for guard, cells in compiled:
                if produced == max_rows:
                    break
                if guard is not None and not guard(row):
                    continue
                out.append(tuple(fn(row) for fn in cells))
                produced += 1
        return Table(new_schema, tuple(out))

    return Transformation(
        input_domain=domain,
        output_domain=TableDomain(new_schema, None),
        input_metric=SymmetricDifference(),
        output_metric=SymmetricDifference(),
        stability=linear_map(bound),
        _apply=apply,
    )


def _check_join_columns(
    left: Schema, right: Schema, on: Sequence[str]
) -> tuple[tuple[str, ...], Schema]:
    """Validate join keys and build the joined schema."""
    keys = tuple(on)
    if not keys or len(set(keys)) != len(keys):
        raise KeyTypeMismatch(f"join keys must be distinct and non-empty, got {on!r}")
    for key in keys:
        if not left.has_column(key):
            raise UnknownColumn(f"join key {key!r} missing from the left schema")
        if not right.has_column(key):
            raise UnknownColumn(f"join key {key!r} missing from the right schema")
        if left.type_of(key) is not right.type_of(key):
            raise KeyTypeMismatch(
                f"join key {key!r} is {left.type_of(key).value} on the left "
                f"but {right.type_of(key).value} on the right"
            )
    carried = [(name, ctype) for name, ctype in right.columns if name not in keys]
    for name, _ in carried:
        if left.has_column(name):
            raise DuplicateColumn(
                f"column {name!r} appears on both sides; rename before joining"
            )
    return keys, Schema(tuple(left.columns) + tuple(carried))


def _join_rows(
    left_table: Table,
    right_table: Table,
    keys: Sequence[str],
    joined: Schema,
) -> Table:
    key_idx = [right_table.schema.index_of(k) for k in keys]
    carry_idx = [
        i
        for i, (name, _) in enumerate(right_table.schema.columns)
        if name not in keys
    ]
    matches: dict[tuple, list[tuple]] = {}
    for row in right_table.rows:
        key = tuple(row[i] for i in key_idx)
        matches.setdefault(key, []).append(tuple(row[i] for i in carry_idx))
    left_key_idx = [left_table.schema.index_of(k) for k in keys]
    out: list[Row] = []
    for row in left_table.rows:
        key = tuple(row[i] for i in left_key_idx)
        for extra in matches.get(key, ()):
            out.append(row + extra)
    return Table._trusted(joined, tuple(out))


def make_public_join(domain: TableDomain, public: Table, on: Sequence[str]) -> Transformation:
    """Inner-join private rows against a fixed public table.

    One private row yields at most mu output rows, where mu is the largest
    key multiplicity in the public table, so stability is linear(mu).
    Joining directly under AddRemoveIds is rejected: a single identifier
    could fan out without bound, so identifier pipelines truncate first.
    """
    keys, joined = _check_join_columns(domain.schema, public.schema, on)
    key_idx = [public.schema.index_of(k) for k in keys]
    multiplicity = Counter(
        tuple(row[i] for i in key_idx) for row in public.rows
    )
    fan_out = max(multiplicity.values(), default=0)

    def apply(table: Table) -> Table:
        return _join_rows(table, public, keys, joined)

    return Transformation(
        input_domain=domain,
        output_domain=TableDomain(joined, domain.id_column),
        input_metric=SymmetricDifference(),
        output_metric=SymmetricDifference(),
        stability=linear_map(fan_out),
        _apply=apply,
    )


def _truncate_by_keys(table: Table, keys: Sequence[str], bound: int) -> Table:
    """Keep the first `bound` rows of each key group, in canonical order.

    The table is sorted once; each key group is a subsequence of the sorted
    rows, so it comes out of split_by_key already in canonical order.
    """
    out: list[Row] = []
    for part in split_by_key(canonicalize(table), keys).values():
        out.extend(part.rows[:bound])
    return Table._trusted(table.schema, tuple(out))


def private_join_distance_bound(
    left_bound: int, right_bound: int, left_distance, right_distance
):
    """Output bound of a private join under per-side input distances.

    Changing one left row moves the truncated left multiset by up to two
    rows: the row itself, plus a previously cut row that the keep-first
    rule promotes (or demotes) in its place.  Both carry the same key, so
    each meets at most right_bound partners, giving 2 * right_bound output
    rows per unit of left distance, and symmetrically on the right.
    """
    return 2 * (right_bound * left_distance + left_bound * right_distance)


def make_private_join(
    left: TableDomain,
    right: TableDomain,
    on: Sequence[str],
    left_bound: int,
    right_bound: int,
) -> Transformation:
    """Inner-join two private tables after per-key truncation.

    Each side is first cut to at most left_bound / right_bound rows per
    key (in canonical row order), which caps the fan-out of any single
    row.  The exact output bound is the bilinear form in
    private_join_distance_bound, including its factor two for rows the
    truncation promotes; the declared map is the linear envelope
    2 * max(left_bound, right_bound) over the summed input distance.
    """
    for bound in (left_bound, right_bound):
        if not isinstance(bound, int) or bound < 1:
            raise NonPositiveBound(f"truncation bounds must be positive ints, got {bound!r}")
    keys, joined = _check_join_columns(left.schema, right.schema, on)

    def apply(tables) -> Table:
        left_table, right_table = tables
        cut_left = _truncate_by_keys(left_table, keys, left_bound)
        cut_right = _truncate_by_keys(right_table, keys, right_bound)
        return _join_rows(cut_left, cut_right, keys, joined)

    return Transformation(
        input_domain=TableTupleDomain((left, right)),
        output_domain=TableDomain(joined, None),
        input_metric=TableTuple((SymmetricDifference(), SymmetricDifference())),
        output_metric=SymmetricDifference(),
        stability=linear_map(2 * max(left_bound, right_bound)),
        _apply=apply,
    )


def make_truncate_by_id(domain: TableDomain, bound: int) -> Transformation:
    """Keep at most `bound` rows per identifier, in canonical row order.

    This is the bridge from identifier accounting to row accounting:
    adding or removing one identifier moves the output by at most `bound`
    rows, so the stability from AddRemoveIds to SymmetricDifference is
    linear(bound).  Truncating an already-truncated table changes nothing.
    """
    if domain.id_column is None:
        raise MissingIdColumn("truncation needs a domain with an id column")
    if not isinstance(bound, int) or bound < 1:
        raise NonPositiveBound(f"the truncation bound must be a positive int, got {bound!r}")

    def apply(table: Table) -> Table:
        return _truncate_by_keys(table, (domain.id_column,), bound)

    return Transformation(
        input_domain=domain,
        output_domain=TableDomain(domain.schema, None),
        input_metric=AddRemoveIds(domain.id_column),
        output_metric=SymmetricDifference(),
        stability=linear_map(bound),
        _apply=apply,
    )


def make_overlapping_subsets(
    domain: TableDomain,
    assign: Callable[[Row], Iterable[int]],
    num_subsets: int,
    contribution_bound: int,
) -> Transformation:
    """Send each row to up to contribution_bound of num_subsets tables.

    `assign` must be deterministic; it is trusted code, not checked.  Rows
    assigned to more than contribution_bound subsets keep only the lowest
    indices, so one row touches at most that many subsets and stability is
    linear(contribution_bound) into the bounded-list metric.
    """
    if not isinstance(num_subsets, int) or num_subsets < 1:
        raise NonPositiveBound(f"num_subsets must be a positive int, got {num_subsets!r}")
    if not isinstance(contribution_bound, int) or contribution_bound < 1:
        raise NonPositiveBound(
            f"the contribution bound must be a positive int, got {contribution_bound!r}"
        )
    element = TableDomain(domain.schema, None)

    def apply(table: Table) -> tuple:
        buckets: list[list[Row]] = [[] for _ in range(num_subsets)]
        for row in table.rows:
            indices = sorted(set(assign(row)))
            for index in indices:
                if not isinstance(index, int) or not 0 <= index < num_subsets:
                    raise BadIndex(
                        f"assign produced index {index!r}, outside 0..{num_subsets - 1}"
                    )
            for index in indices[:contribution_bound]:
                buckets[index].append(row)
        return tuple(Table._trusted(table.schema, tuple(bucket)) for bucket in buckets)

    return Transformation(
        input_domain=domain,
        output_domain=TableListDomain(element, num_subsets),
        input_metric=SymmetricDifference(),
        output_metric=BoundedLists(SymmetricDifference()),
        stability=linear_map(contribution_bound),
        _apply=apply,
    )


def make_grouped_view(domain: TableDomain, key_schema: Schema) -> Transformation:
    """Reinterpret a table under the grouped metric, without touching rows.

    Groups partition the rows, so the grouped distance over any key
    columns equals the plain symmetric difference; the view is free.
    """
    check_key_columns(domain.schema, key_schema)
    return Transformation(
        input_domain=domain,
        output_domain=domain,
        input_metric=SymmetricDifference(),
        output_metric=GroupedBy(key_schema.names, SymmetricDifference()),
        stability=linear_map(1),
        _apply=lambda table: table,
    )


def make_select_table(
    components: Sequence[TableDomain],
    component_metrics: Sequence[Metric],
    index: int,
) -> Transformation:
    """Pick one table out of a tuple of tables.

    Changing the tuple by a total of d can change any single component by
    at most d, so selection is linear(1) from the tuple metric to the
    chosen component's metric.
    """
    components = tuple(components)
    if not 0 <= index < len(components):
        raise BadIndex(f"no component {index} in a tuple of {len(components)}")
    return Transformation(
        input_domain=TableTupleDomain(components),
        output_domain=components[index],
        input_metric=TableTuple(tuple(component_metrics)),
        output_metric=component_metrics[index],
        stability=linear_map(1),
        _apply=lambda tables: tables[index],
    )
