"""Deterministic table transformations with declared stability.

A Transformation pairs a pure function on tables with a stability map: a
monotone bound on how far apart two outputs can be, given how far apart
the inputs were.  Chains compose both.  Nothing here is randomized and
nothing here spends privacy budget; transformations only matter because
measurements downstream rely on their stability bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, and_, getitem, is_not, itemgetter, lt
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
    TypeMismatch,
    UnknownColumn,
)
from .expressions import (
    CompiledExpression,
    compile_predicate,
    compile_projection,
    passing,
)
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
from .records import Record
from .tabledata import (
    ColumnType,
    Row,
    Schema,
    Table,
    TableDomain,
    TableListDomain,
    TableTupleDomain,
    canonicalize,
    check_key_columns,
    gather,
    expect,
    is_int,
    split_by_key,
)

# A map's or a flat-map branch's expressions, as given by a caller.
Columns = Mapping[str, str] | Sequence[tuple[str, str]]


def column_pairs(columns: Columns, where: str = "columns") -> tuple[tuple[str, str], ...]:
    """A map's or a flat-map branch's expressions, a mapping or a list or
    tuple of (name, expression) pairs, as a tuple of pairs sorted by name:
    it shares nothing with the caller, hashes, and equals any naming the
    same expressions in any order.  A non-string raises TypeMismatch."""
    items = list(columns.items()) if isinstance(columns, Mapping) else columns
    pairs = []
    for item in expect(items, (list, tuple), TypeMismatch, where, "a mapping or pairs"):
        if not (isinstance(item, (list, tuple)) and len(item) == 2
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise TypeMismatch(f"{where}: expected a name and an expression, both strings")
        pairs.append(tuple(item))
    pairs.sort(key=itemgetter(0))
    if len({name for name, _ in pairs}) != len(pairs):
        raise DuplicateColumn(f"{where}: a column has two expressions in {pairs}")
    return tuple(pairs)


def _names_and_types(schema: Schema) -> tuple[tuple[str, str], ...]:
    """A schema's column names and type names, as a memo key holds them."""
    return tuple((name, ctype.value) for name, ctype in schema.columns)


def _compile_branch(
    pairs: tuple[tuple[str, str], ...], schema: Schema, new_schema: Schema
) -> list[CompiledExpression]:
    """A map or flat-map branch's projections over rows of `schema`, in
    new_schema's column order, from its pairs as column_pairs gives them;
    the branch must name exactly its columns."""
    columns = dict(pairs)
    if set(columns) != set(new_schema.names):
        raise SchemaMismatch(
            f"expressions cover {sorted(columns)} but the new schema has "
            f"{sorted(new_schema.names)}"
        )
    return [compile_projection(columns[name], schema, ctype) for name, ctype in new_schema.columns]


# A dataclass, not a Record, like measurements.Measurement: the benchmark's
# tracer rebuilds one with dataclasses.replace.
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


def chain(*steps: Transformation) -> Transformation:
    """Compose transformations, first to last, into one pipeline.

    Each step must take the domain and metric the one before it yields,
    and the stabilities compose along the chain.  The pipeline calls the
    steps' functions one after another in a loop, so running a chain of
    any length takes the same stack depth as running one step.  A chain of
    one step is that step.
    """
    if len(steps) == 1:
        return steps[0]
    stability = steps[0].stability
    for before, after in zip(steps, steps[1:]):
        if after.input_domain != before.output_domain:
            raise DomainMismatch(
                "cannot chain: a step expects a different domain from the step before it"
            )
        if after.input_metric != before.output_metric:
            raise MetricMismatch(
                "cannot chain: a step expects a different metric from the step before it"
            )
        stability = compose_maps(after.stability, stability)
    functions = tuple(step._apply for step in steps)

    def apply(data):
        for function in functions:
            data = function(data)
        return data

    return Transformation(
        input_domain=steps[0].input_domain,
        output_domain=steps[-1].output_domain,
        input_metric=steps[0].input_metric,
        output_metric=steps[-1].output_metric,
        stability=stability,
        _apply=apply,
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
    AddRemoveIds since rows are filtered within each identifier.  A row
    whose predicate fails to evaluate counts as false.  The output shares
    its input's columns and stored-row data and ANDs the predicate into
    its mask of held rows, so a sum over it reads the counts remembered
    there.  The input remembers the mask under ("filter", predicate)
    (Table.derive), so a warm filter is a lookup and a view (_holding).
    """
    metric = _check_row_metric(domain, metric or SymmetricDifference())
    keep = compile_predicate(predicate, domain.schema)
    key = ("filter", predicate)

    def filtered(table: Table) -> tuple:
        values, held = keep.evaluate(table)
        return passing(table.held, held, bytes(values)), {}

    def apply(table: Table) -> Table:
        return table._holding(*table.derive(key, filtered, table))

    return Transformation(
        input_domain=domain,
        output_domain=domain,
        input_metric=metric,
        output_metric=metric,
        stability=linear_map(1),
        _apply=apply,
    )


# A legal cell of each column type, which a map, a flat map and a fan-out-1
# join store where a computed cell failed or a key matched nothing.
_FILLER = {ColumnType.INT64: 0, ColumnType.FLOAT64: 0.0, ColumnType.TEXT: "-"}


def _filled(evaluated: tuple, ctype: ColumnType) -> tuple:
    """An evaluated column's values, with _FILLER's cell where it failed."""
    values, mask = evaluated
    if mask is None:
        return tuple(values)
    return tuple(map(getitem, zip(repeat(_FILLER[ctype]), values), mask))


def make_map(
    domain: TableDomain,
    columns: Columns,
    new_schema: Schema,
    metric: Metric | None = None,
) -> Transformation:
    """Rewrite each row through per-column expressions.

    At most one output row per input row, so stability is linear(1): a
    row whose cells fail to evaluate or to fit their columns is not held.
    When the domain declares an ID column the map must carry it through
    as a bare column reference; anything else would silently break the
    link between rows and their contributor.  The output shares bare
    columns and stores a row for every stored row, held or not, with a
    computed column's _FILLER cell where it failed (_filled), so its work
    does not depend on which rows are held.  The input remembers the output
    under ("map", the (name, expression) pairs, the output's names and type
    names) (Table.derive); the output stores its computed columns, so a
    sum over one reads the grain counts it derives once, and a sum over a
    shared bare column reads its input's (Table._built_on).
    """
    metric = _check_row_metric(domain, metric or SymmetricDifference())
    id_column = domain.id_column
    # The id's column and type are checked before compiling, so that an id
    # of another type is refused as dropped and not as a type error.
    if id_column is not None and (
        (id_column, domain.schema.type_of(id_column)) not in new_schema.columns
    ):
        raise IdColumnDropped(f"the map must carry {id_column!r} through unchanged")
    pairs = column_pairs(columns)
    cells = _compile_branch(pairs, domain.schema, new_schema)
    if id_column is not None and (
        cells[new_schema.index_of(id_column)].column != domain.schema.index_of(id_column)
    ):
        raise IdColumnDropped(f"the map must carry {id_column!r} through unchanged")
    output_domain = TableDomain(new_schema, id_column)
    key = ("map", pairs, _names_and_types(new_schema))
    bare = [cell.column for cell in cells]

    def mapped(table: Table) -> tuple:
        columns = [cell.evaluate(table) for cell in cells]
        held = passing(table.held, *[mask for _, mask in columns])
        filled = tuple(map(_filled, columns, new_schema.types))
        return table._built_on(filled, held, bare)

    def apply(table: Table) -> Table:
        return table._output(new_schema, *table.derive(key, mapped, table))

    return Transformation(
        input_domain=domain,
        output_domain=output_domain,
        input_metric=metric,
        output_metric=metric,
        stability=linear_map(1),
        _apply=apply,
    )


class ExpansionBranch(Record):
    """One candidate output row of a flat map.

    `columns` pairs output column names with expressions over the input
    row, and is given as a mapping or as pairs (see column_pairs); `when`,
    if given, is a predicate guarding whether the branch fires.  A name,
    an expression or a `when` that is not a string raises TypeMismatch.
    """

    columns: tuple[tuple[str, str], ...]
    when: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", column_pairs(self.columns, "ExpansionBranch.columns"))
        expect(self.when, (str, type(None)), TypeMismatch, "ExpansionBranch.when", "a string")


def make_flat_map(
    domain: TableDomain,
    branches: Sequence[ExpansionBranch],
    new_schema: Schema,
    max_rows: int,
) -> Transformation:
    """Expand each row into up to max_rows output rows.

    Branches are evaluated in order and output stops after max_rows rows
    per input row, so one row's influence on the output is bounded and the
    stability is linear in that bound.  A branch whose guard or cells fail
    to evaluate, or whose cells do not fit their columns, does not fire
    and does not count toward max_rows.  Runs under SymmetricDifference
    only; identifier-tracking pipelines must truncate before expanding.
    The output stores a slot per branch per stored row, held or not, row
    by row, with _FILLER cells where a cell failed (_filled), and holds the
    slots that fire.  The input remembers it under ("flat map", each
    branch's pairs and guard, max_rows, the output's names and type names)
    (Table.derive).
    """
    if not is_int(max_rows) or max_rows < 1:
        raise NonPositiveBound(f"max_rows must be a positive int, got {max_rows!r}")
    if not branches:
        raise NonPositiveBound("a flat map needs at least one branch")
    compiled = []
    for branch in branches:
        cells = _compile_branch(branch.columns, domain.schema, new_schema)
        guard = (
            compile_predicate(branch.when, domain.schema)
            if branch.when is not None
            else None
        )
        compiled.append((guard, cells))
    bound = min(max_rows, len(branches))
    key = (
        "flat map",
        tuple((branch.columns, branch.when) for branch in branches),
        max_rows,
        _names_and_types(new_schema),
    )

    def expanded(table: Table) -> tuple:
        n = len(table.columns[0])
        # Each branch's columns and whether it fires on each stored row: a
        # branch fires on a held row where its guard holds, nothing fails
        # and fewer than max_rows earlier branches fired on that row.
        produced = [0] * n
        branch_columns, fired = [], []
        for guard, cells in compiled:
            holds, held = guard.evaluate(table) if guard is not None else (repeat(True, n), None)
            columns = [cell.evaluate(table) for cell in cells]
            held = passing(table.held, held, *[mask for _, mask in columns])
            if held is not None:
                holds = map(and_, holds, held)
            fires = list(map(and_, holds, map(lt, produced, repeat(max_rows))))
            produced = list(map(add, produced, fires))
            branch_columns.append(list(map(_filled, columns, new_schema.types)))
            fired.append(fires)
        # Row by row, each row's branches in order, a column at a time.
        fires = bytes(itertools.chain.from_iterable(zip(*fired)))
        return table._built_on(tuple(
            tuple(itertools.chain.from_iterable(zip(*branches))) for branches in zip(*branch_columns)
        ), fires)

    def apply(table: Table) -> Table:
        return table._output(new_schema, *table.derive(key, expanded, table))

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
) -> tuple[tuple[str, ...], Schema, list[int]]:
    """Validate join keys; return them, the joined schema and the positions
    of the right columns it carries."""
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
    carry = [right.index_of(name) for name, _ in carried]
    return keys, Schema(tuple(left.columns) + tuple(carried)), carry


def _join_index(right_table: Table, keys: tuple[str, ...]) -> dict:
    """right_table's held row positions in a list per key of its stored
    rows, held or not (empty where none is held): one split_by_key of every
    stored row, each key's list narrowed to the held rows in C, so its
    Python work does not depend on which rows are held.

    right_table derives them under ("join", keys), so a public table is
    indexed once however often a join on it compiles, and a private
    join's right cut, whose memo every later cut of the same table at the
    same keys and bound reads again, once however often it is joined.
    """

    def build() -> dict:
        index = split_by_key(right_table, keys)
        held = right_table.held
        if held is None:
            return index
        lists = index.values()
        kept = map(compress, lists, map(map, repeat(held.__getitem__), lists))
        return dict(zip(index, map(list, kept)))

    return right_table.derive(("join", keys), build)


def _join(left: Table, right: Table, keys, carry: list[int], repeats: bool) -> tuple:
    """Each held row of left whose key (Table.key_column) is one of
    right's, once for each of right's rows with it, followed by that row's
    cells at `carry`, as left remembers it (Table._built_on).

    Where `repeats` says a key may match more than once, a public fact
    (the public table's fan-out or a truncation bound), left's columns
    are gathered once per match and only matched rows are stored.  Where
    a key matches at most once, the join carries the mask: it shares
    left's columns, stores every row of left, and holds the held rows that
    match; the output stores the carried columns it gathers, and takes
    left's columns' grain counts from where left's come from
    (Table._built_on).  Each stored row reads right's position for its key
    (the first and only one in its list), or right's stored row count
    where its list is empty or it has none, which is where each carried
    column has a _FILLER cell appended; so the join's work does not
    depend on which rows match, and every stored cell is legal.
    """
    index = _join_index(right, keys)
    if not repeats:
        stored = len(right.columns[0])
        first = dict(zip(index, map(next, map(iter, index.values()), repeat(stored))))
        at = list(map(first.get, left.key_column(keys), repeat(stored)))
        # Gathered with the carried columns, a last column of 1 at each of
        # right's stored rows and 0 past them marks the rows that match.
        padded = [right.columns[i] + (_FILLER[right.schema.types[i]],) for i in carry]
        *carried, matched = gather(padded + [(1,) * stored + (0,)], at)
        held = passing(left.held, bytes(matched))
        shared = range(len(left.columns))
        return left._built_on(left.columns + tuple(carried), held, shared)
    matches = list(map(index.get, left.key_column(keys)))
    held = passing(left.held, bytes(map(is_not, matches, repeat(None))))
    rows, counts = compress(range(len(matches)), held), map(len, compress(matches, held))
    columns = gather(left.columns, list(itertools.chain.from_iterable(map(repeat, rows, counts))))
    matched = list(itertools.chain.from_iterable(compress(matches, held)))
    return left._built_on(columns + gather([right.columns[i] for i in carry], matched))


def make_public_join(domain: TableDomain, public: Table, on: Sequence[str]) -> Transformation:
    """Inner-join private rows against a fixed public table.

    One private row yields at most mu output rows, where mu is the largest
    key multiplicity in the public table, so stability is linear(mu).
    Joining directly under AddRemoveIds is rejected: a single identifier
    could fan out without bound, so identifier pipelines truncate first.
    At fan-out 1 (or 0) the join carries the mask and stores every stored
    row of its input; above 1 it stores the matched rows only (see _join).
    The input remembers the output under ("public join", key names, the
    public table's names, type names and held cells by value)
    (Table.derive): the public table is public, and an equal table
    inlined in another query finds the same output.
    """
    keys, joined, carry = _check_join_columns(domain.schema, public.schema, on)
    fan_out = max(map(len, _join_index(public, keys).values()), default=0)
    held_cells = tuple(map(public.column, range(len(public.schema.columns))))
    key = ("public join", keys, _names_and_types(public.schema), held_cells)

    def apply(table: Table) -> Table:
        data = table.derive(key, _join, table, public, keys, carry, fan_out > 1)
        return table._output(joined, *data)

    return Transformation(
        input_domain=domain,
        output_domain=TableDomain(joined, domain.id_column),
        input_metric=SymmetricDifference(),
        output_metric=SymmetricDifference(),
        stability=linear_map(fan_out),
        _apply=apply,
    )


def _truncate_by_keys(table: Table, keys: tuple[str, ...], bound: int) -> Table:
    """Hold the first `bound` held rows of each key, in canonical order.

    The table derives the cut's mask, of which the cut is a view
    (Table._holding), under ("cut", keys, bound) by one pass over every
    stored row's key in their canonical order: each row adds its held
    byte to its key's count, and is kept, a 1 byte at its stored position,
    where it is held and its key had fewer than `bound` held rows before
    it.  So the pass runs the same lines whatever rows are
    held or kept, and the cut holds the same rows whatever the input
    order.  The cut shares the table's columns and stored-row data and
    carries that mask even when it keeps every row, so what is remembered
    on it never tells whether it dropped a row, and a sum over it reads
    the counts remembered over every stored row.
    """

    def count_pass() -> tuple:
        order, keyed = canonicalize(table), tuple(table.key_column(keys))
        held = table.held or b"\x01" * len(keyed)
        counts: dict = {}
        kept = bytearray(len(keyed))
        for position in order:
            key, holds = keyed[position], held[position]
            count = counts.get(key, 0)
            counts[key] = count + holds
            kept[position] = holds & (count < bound)
        return bytes(kept), {}

    return table._holding(*table.derive(("cut", keys, bound), count_pass))


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
    With right_bound 1 the join carries the mask and stores every row of
    left_table, whose columns its cut shares; above 1 the matched rows
    only (see _join).  The left table remembers the output under
    ("private join", key names, bounds) with the right cut's mask and
    columns: the right table's cut comes first, and the output is read
    only for that same mask and those columns (`is`), so a session whose
    right table is another one builds, and remembers, its own.
    """
    for bound in (left_bound, right_bound):
        if not is_int(bound) or bound < 1:
            raise NonPositiveBound(f"truncation bounds must be positive ints, got {bound!r}")
    keys, joined, carry = _check_join_columns(left.schema, right.schema, on)

    key = ("private join", keys, left_bound, right_bound)

    def join_cuts(left_table: Table, cut_right: Table) -> tuple:
        cut_left = _truncate_by_keys(left_table, keys, left_bound)
        data = _join(cut_left, cut_right, keys, carry, right_bound > 1)
        return cut_right.held, cut_right.columns, *data

    def apply(tables) -> Table:
        left_table, right_table = tables
        cut_right = _truncate_by_keys(right_table, keys, right_bound)
        data = left_table.derive(key, join_cuts, left_table, cut_right)
        if data[0] is not cut_right.held or data[1] is not cut_right.columns:
            data = left_table._derived[key] = join_cuts(left_table, cut_right)
        return left_table._output(joined, *data[2:])

    return Transformation(
        input_domain=TableTupleDomain((left, right)),
        output_domain=TableDomain(joined, None),
        input_metric=TableTuple((SymmetricDifference(), SymmetricDifference())),
        output_metric=SymmetricDifference(),
        stability=linear_map(2 * max(left_bound, right_bound)),
        _apply=apply,
    )


def make_truncate_by_id(domain: TableDomain, bound: int) -> Transformation:
    """Hold at most `bound` rows per identifier, the first in canonical order.

    This is the bridge from identifier accounting to row accounting:
    adding or removing one identifier moves the output by at most `bound`
    rows, so the stability from AddRemoveIds to SymmetricDifference is
    linear(bound).  Truncating an already-truncated table holds the same
    rows.  The input table derives the cut, its columns under a mask (see
    _truncate_by_keys), so truncating the same table again at the same
    bound (a session's source table, in every session built on it) skips
    the counting pass and returns a view of the one remembered mask.
    """
    if domain.id_column is None:
        raise MissingIdColumn("truncation needs a domain with an id column")
    if not is_int(bound) or bound < 1:
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
    if not is_int(num_subsets) or num_subsets < 1:
        raise NonPositiveBound(f"num_subsets must be a positive int, got {num_subsets!r}")
    if not is_int(contribution_bound) or contribution_bound < 1:
        raise NonPositiveBound(
            f"the contribution bound must be a positive int, got {contribution_bound!r}"
        )
    element = TableDomain(domain.schema, None)

    def apply(table: Table) -> tuple:
        buckets: list[list[Row]] = [[] for _ in range(num_subsets)]
        for row in table.rows:
            indices = sorted(set(assign(row)))
            for index in indices:
                if not is_int(index) or not 0 <= index < num_subsets:
                    raise BadIndex(
                        f"assign produced index {index!r}, outside 0..{num_subsets - 1}"
                    )
            for index in indices[:contribution_bound]:
                buckets[index].append(row)
        return tuple(Table._of_rows(table.schema, bucket) for bucket in buckets)

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
