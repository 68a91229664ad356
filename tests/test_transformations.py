import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import compress

import pytest

from helpers import (
    ari_distance,
    dataset_distance,
    evaluated_outcomes,
    join_reference,
    oracle_expression,
    oracle_filter,
    oracle_flat_map,
    oracle_map,
    oracle_projection,
    random_table,
    remembered,
    same_data,
    sd_distance,
    table_rows_reference,
    truncate_reference,
    unbuilt,
)
from noisegate import expressions, tabledata, transformations
from noisegate.errors import (
    BadIndex,
    DomainMismatch,
    DuplicateColumn,
    ExpressionTypeError,
    IdColumnDropped,
    MetricMismatch,
    MissingIdColumn,
    NonPositiveBound,
    SchemaMismatch,
    TypeCheckError,
    UnknownColumn,
)
from noisegate.expressions import compile_projection
from noisegate.metrics import (
    AddRemoveIds,
    BoundedLists,
    GroupedBy,
    PureDP,
    SymmetricDifference,
    TableTuple,
)
from noisegate.measurements import (
    PureDpNoise,
    compose_per_group,
    make_count,
    make_quantile,
    make_sum,
)
from noisegate.rng import RngStream
from noisegate.session import AddMaxRows, PrivacyBudget, build_session, query
from noisegate.tabledata import (
    ORDER,
    ColumnType,
    KeySet,
    Schema,
    Table,
    TableDomain,
    TableTupleDomain,
    canonicalize,
    split_by_key,
    table_equal,
)
from noisegate.transformations import (
    ExpansionBranch,
    chain,
    make_filter,
    make_flat_map,
    make_grouped_view,
    make_map,
    make_overlapping_subsets,
    make_private_join,
    make_public_join,
    make_select_table,
    make_truncate_by_id,
    private_join_distance_bound,
)

SCHEMA = Schema.of(("id", ColumnType.INT64), ("v", ColumnType.INT64))
DOMAIN = TableDomain(SCHEMA, None)
ID_DOMAIN = TableDomain(SCHEMA, "id")


def T(*rows):
    return Table.of(SCHEMA, rows)


# ---------------------------------------------------------------------------
# Behavior.


def test_filter_keeps_matching_rows():
    f = make_filter(DOMAIN, "v > 1")
    assert table_equal(f.apply(T((1, 0), (2, 2), (3, 5))), T((2, 2), (3, 5)))
    assert f.stability.slope == 1
    assert f.output_domain == DOMAIN
    with pytest.raises(ExpressionTypeError):
        make_filter(DOMAIN, "v + 1")


def test_map_projects_rows():
    out_schema = Schema.of(("id", ColumnType.INT64), ("double", ColumnType.INT64))
    m = make_map(DOMAIN, {"id": "id", "double": "v * 2"}, out_schema)
    assert m.apply(T((1, 3))).rows == ((1, 6),)
    assert m.stability.slope == 1
    with pytest.raises(SchemaMismatch):
        make_map(DOMAIN, {"id": "id"}, out_schema)  # missing output column
    with pytest.raises(UnknownColumn):
        make_map(DOMAIN, {"id": "id", "double": "w * 2"}, out_schema)


def test_map_must_carry_the_id_column():
    out_schema = Schema.of(("id", ColumnType.INT64), ("w", ColumnType.INT64))
    for carried in ("id", "(id)", "  id  "):
        m = make_map(ID_DOMAIN, {"id": carried, "w": "v + 1"}, out_schema,
                     metric=AddRemoveIds("id"))
        assert m.output_domain.id_column == "id"
        assert m.apply(T((4, 3), (5, -1))).rows == ((4, 4), (5, 0))
    float_ids = Schema.of(("id", ColumnType.FLOAT64), ("w", ColumnType.INT64))
    text_ids = TableDomain(Schema.of(("id", ColumnType.TEXT), ("v", ColumnType.INT64)), "id")
    refused = [
        (ID_DOMAIN, {"id": "id + 0", "w": "v"}, out_schema),
        (ID_DOMAIN, {"id": "v", "w": "id"}, out_schema),  # another int64 column
        (ID_DOMAIN, {"id": "id", "w": "v"}, float_ids),  # widened
        (text_ids, {"id": "id", "w": "v"}, out_schema),  # text id to int64
        (ID_DOMAIN, {"w": "v"}, Schema.of(("w", ColumnType.INT64))),  # dropped
    ]
    for domain, columns, new_schema in refused:
        with pytest.raises(IdColumnDropped):
            make_map(domain, columns, new_schema, metric=AddRemoveIds("id"))


def test_a_flat_map_branch_must_cover_the_new_schema():
    out = Schema.of(("x", ColumnType.INT64), ("y", ColumnType.INT64))
    full = ExpansionBranch(columns={"x": "v", "y": "id"})
    for partial in ({"x": "v"}, {"x": "v", "y": "id", "z": "v"}, {"x": "v", "z": "id"}):
        branches = (full, ExpansionBranch(columns=partial))
        with pytest.raises(SchemaMismatch):
            make_flat_map(DOMAIN, branches, out, max_rows=2)
        session = build_session(
            {"t": T((1, 2))}, AddMaxRows(1), PrivacyBudget(PureDP(), 1), seed=3
        )
        with pytest.raises(TypeCheckError):
            session.evaluate(
                query("t").flat_map(branches, out, max_rows=2).count(),
                PrivacyBudget(PureDP(), 1),
            )
        assert session.remaining_budget().amount == 1


def test_flat_map_expands_and_caps():
    out = Schema.of(("x", ColumnType.INT64))
    branches = (
        ExpansionBranch(columns={"x": "v"}),
        ExpansionBranch(columns={"x": "v + 1"}, when="v > 0"),
        ExpansionBranch(columns={"x": "v + 2"}, when="v > 1"),
    )
    fm = make_flat_map(DOMAIN, branches, out, max_rows=2)
    assert fm.stability.slope == 2  # min(max_rows, branch count)
    assert table_equal(fm.apply(T((1, 0))), Table.of(out, [(0,)]))
    # v=5 passes all three guards but max_rows caps the expansion at 2.
    assert table_equal(fm.apply(T((1, 5))), Table.of(out, [(5,), (6,)]))
    single = make_flat_map(DOMAIN, branches[:1], out, max_rows=9)
    assert single.stability.slope == 1
    with pytest.raises(NonPositiveBound):
        make_flat_map(DOMAIN, branches, out, max_rows=0)


def test_public_join_fan_out():
    public = Table.of(
        Schema.of(("v", ColumnType.INT64), ("label", ColumnType.TEXT)),
        [(1, "a"), (1, "b"), (2, "c")],
    )
    j = make_public_join(DOMAIN, public, on=["v"])
    assert j.stability.slope == 2  # value 1 appears twice in the public table
    out = j.apply(T((7, 1), (8, 3)))
    assert table_equal(
        out,
        Table.of(j.output_domain.schema, [(7, 1, "a"), (7, 1, "b")]),
    )
    with pytest.raises(DuplicateColumn):
        make_public_join(
            DOMAIN,
            Table.of(Schema.of(("v", ColumnType.INT64), ("id", ColumnType.INT64)), []),
            on=["v"],
        )
    empty = make_public_join(DOMAIN, Table.of(public.schema, []), on=["v"])
    assert empty.stability.slope == 0


def test_private_join_truncates_both_sides():
    left = TableDomain(Schema.of(("k", ColumnType.INT64), ("a", ColumnType.INT64)), None)
    right = TableDomain(Schema.of(("k", ColumnType.INT64), ("b", ColumnType.INT64)), None)
    j = make_private_join(left, right, on=["k"], left_bound=1, right_bound=2)
    lt = Table.of(left.schema, [(1, 10), (1, 11), (2, 20)])
    rt = Table.of(right.schema, [(1, 5), (1, 6), (1, 7)])
    out = j.apply((lt, rt))
    # Left keeps one row per key, right keeps two; key 2 finds no partner.
    assert len(out) == 2
    assert {row[0] for row in out.rows} == {1}
    assert j.stability.slope == 4  # 2 * max of the two bounds
    assert isinstance(j.input_metric, TableTuple)


def test_private_join_distance_bound_is_bilinear():
    assert private_join_distance_bound(2, 3, 1, 1) == 10
    assert private_join_distance_bound(2, 3, 0, 4) == 16
    assert private_join_distance_bound(1, 1, 2, 0) == 4


def test_private_join_truncation_promotion_needs_the_factor_two():
    # Removing one left row promotes a previously cut row with the same
    # key; both changes then meet every kept right partner.  The output
    # moves by 4 on neighbors at distance 1, so a bound of
    # max(left_bound, right_bound) = 3 would be violated.
    left = TableDomain(Schema.of(("k", ColumnType.INT64), ("a", ColumnType.INT64)), None)
    right = TableDomain(Schema.of(("k", ColumnType.INT64), ("b", ColumnType.INT64)), None)
    j = make_private_join(left, right, on=["k"], left_bound=2, right_bound=3)
    x = Table.of(left.schema, [(0, 1), (0, 1), (0, 3)])
    y = Table.of(left.schema, [(0, 1), (0, 3)])
    partners = Table.of(right.schema, [(0, 5), (0, 6)])
    d_out = dataset_distance(
        SymmetricDifference(), j.apply((x, partners)), j.apply((y, partners))
    )
    assert d_out == 4
    assert j.stability(1) >= d_out


def test_truncate_by_id():
    tr = make_truncate_by_id(ID_DOMAIN, bound=2)
    t = T((1, 5), (1, 3), (1, 4), (2, 7))
    out = tr.apply(t)
    by_id = {}
    for row in out.rows:
        by_id.setdefault(row[0], []).append(row)
    assert len(by_id[1]) == 2
    assert len(by_id[2]) == 1
    # Deterministic: the kept rows come first in canonical row order.
    assert sorted(by_id[1]) == [(1, 3), (1, 4)]
    assert tr.input_metric == AddRemoveIds("id")
    assert tr.output_metric == SymmetricDifference()
    assert tr.stability.slope == 2
    with pytest.raises(MissingIdColumn):
        make_truncate_by_id(DOMAIN, 2)
    with pytest.raises(NonPositiveBound):
        make_truncate_by_id(ID_DOMAIN, 0)


TEXT_IDS = ["a", "ab", "Z", "é", "ÿ", "中", "～", "\U0001F600", "\U00010348", "b"]


def _text_id_rows(rng, n):
    rows = [
        (rng.choice(TEXT_IDS), rng.choice(TEXT_IDS), rng.randrange(3))
        for _ in range(n)
    ]
    return rows + rows[: n // 3]  # duplicate rows


def test_truncation_keeps_the_same_row_whatever_the_sign_of_a_zero():
    # -0.0 == 0.0, so if a table could hold both, the two rows would tie
    # in the canonical order and the kept row would follow input order.
    schema = Schema.of(("id", ColumnType.INT64), ("v", ColumnType.FLOAT64))
    truncate = make_truncate_by_id(TableDomain(schema, "id"), 1)
    rows = [(1, -0.0), (1, 0.0)]
    for order in (rows, rows[::-1]):
        assert repr(truncate.apply(Table.of(schema, order)).rows) == "((1, 0.0),)"


def test_truncation_keeps_first_rows_in_utf8_byte_order():
    schema = Schema.of(
        ("id", ColumnType.TEXT), ("tag", ColumnType.TEXT), ("v", ColumnType.INT64)
    )
    other = Schema.of(("id", ColumnType.TEXT), ("w", ColumnType.TEXT))
    rng = random.Random(23)
    for bound in (1, 2, 3):
        truncate = make_truncate_by_id(TableDomain(schema, "id"), bound)
        join = make_private_join(
            TableDomain(schema, None), TableDomain(other, None), ["id"], bound, bound + 1
        )
        for _ in range(40):
            rows = _text_id_rows(rng, rng.randrange(30))
            cut = truncate.apply(Table.of(schema, rows))
            assert cut.multiset() == truncate_reference(rows, (0,), bound)
            # The kept rows are a function of the multiset, not of the input
            # order, which they keep.
            reordered = truncate.apply(Table.of(schema, rows[::-1]))
            assert reordered.multiset() == cut.multiset()
            assert cut.rows == tuple(compress(rows, cut.held))

            right_rows = [(rng.choice(TEXT_IDS), rng.choice(TEXT_IDS)) for _ in range(20)]
            joined = join.apply((Table.of(schema, rows), Table.of(other, right_rows)))
            kept_left = truncate_reference(rows, (0,), bound)
            kept_right = truncate_reference(right_rows, (0,), bound + 1)
            expected = Counter(
                left + right[1:]
                for left in kept_left.elements()
                for right in kept_right.elements()
                if left[0] == right[0]
            )
            assert joined.multiset() == expected


def test_truncation_by_a_later_column_ignores_the_input_order():
    schema = Schema.of(
        ("v", ColumnType.INT64), ("tag", ColumnType.TEXT), ("id", ColumnType.INT64)
    )
    rng = random.Random(41)
    for bound in (1, 2, 3):
        truncate = make_truncate_by_id(TableDomain(schema, "id"), bound)
        for _ in range(30):
            rows = [
                (rng.randrange(4), rng.choice(TEXT_IDS), rng.randrange(5))
                for _ in range(rng.randrange(25))
            ]
            cut = truncate.apply(Table.of(schema, rows))
            assert cut.multiset() == truncate_reference(rows, (2,), bound)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            for reordered in (shuffled, rows[::-1]):
                assert truncate.apply(Table.of(schema, reordered)).multiset() == cut.multiset()


@pytest.mark.parametrize("before", ["nothing", "a truncation", "canonicalize", "a filter"])
def test_truncation_matches_the_reference_whatever_came_before(before):
    # A table remembers its canonical order once sorted; truncating it
    # again, or a table rebuilt in that order, or a filtered table, must
    # keep the same rows.
    schema = Schema.of(
        ("v", ColumnType.INT64), ("tag", ColumnType.TEXT), ("id", ColumnType.INT64)
    )
    domain = TableDomain(schema, "id")
    rng = random.Random(f"before {before}")
    for bound in (1, 2, 3):
        truncate = make_truncate_by_id(domain, bound)
        for _ in range(30):
            rows = [
                (rng.randrange(4), rng.choice(TEXT_IDS), rng.randrange(5))
                for _ in range(rng.randrange(25))
            ]
            table = Table.of(schema, rows)
            if before == "a truncation":
                truncate.apply(table)
            elif before == "canonicalize":
                table = Table.of(schema, [rows[i] for i in canonicalize(table)])
            elif before == "a filter":
                table = make_filter(domain, "v != 1").apply(table)
            built = table.rows
            cut = truncate.apply(table)
            assert cut.multiset() == truncate_reference(built, (2,), bound)
            # The cut holds some of the table's rows, in the table's order.
            assert cut.columns is table.columns
            assert cut.rows == tuple(compress(zip(*table.columns), cut.held))
            assert same_data(truncate.apply(table), cut)
            # The remembered order leaves the table's own rows as built.
            assert table.rows == built
            if before in ("nothing", "a truncation"):
                assert table.rows == tuple(rows)


CUT_SCHEMA = Schema.of(
    ("v", ColumnType.INT64), ("tag", ColumnType.TEXT), ("id", ColumnType.INT64)
)
CUT_DOMAIN = TableDomain(CUT_SCHEMA, "id")
PARTNERS = Schema.of(
    ("id", ColumnType.INT64), ("tag", ColumnType.TEXT), ("w", ColumnType.INT64)
)
OTHERS = Schema.of(("tag", ColumnType.TEXT), ("w", ColumnType.INT64))


def _cut_rows(rng, n=25):
    return [
        (rng.randrange(4), rng.choice("xyz"), rng.randrange(5)) for _ in range(n)
    ]


def _by_id(bound):
    return ("cut", ("id",), bound)


def _cut(table, key):
    # The value a table remembers under an order or cut key: the order in
    # what the tables over its stored rows share, a cut's mask and memo in
    # its own memo.
    return table.derive(key, unbuilt, memo=table.stored if key == ORDER else None)


def _cut_view(table, key):
    # The cut a table remembers under a cut key, as a read of it builds it.
    return table._holding(*_cut(table, key))


def _assert_cuts_match_the_reference(table):
    # Every remembered cut, whoever took it, is the cut at its own key, and
    # the order, if remembered, is the stored rows' positions in sorted
    # order.  Each cut is a bytes mask over every stored row, with a memo
    # that starts empty, never holds an order (the cut reads the one its
    # stored rows share) and holds no cut of itself unless something cut
    # it again.
    stored = tuple(zip(*table.columns))
    if ORDER in table.stored:
        assert [stored[i] for i in _cut(table, ORDER)] == sorted(stored)
    for key, entry in remembered(table).items():
        assert table.derive(key, unbuilt) is entry
        if key[0] == "private join":  # a join's output, which its test checks
            continue
        held, memo = entry
        assert type(held) is bytes and len(held) == len(stored)
        assert type(memo) is dict and ORDER not in memo and key not in memo
        cut = table._holding(held, memo)
        assert cut.schema is table.schema and cut.columns is table.columns
        kept = cut.rows
        assert isinstance(kept, tuple)
        assert canonicalize(cut) is canonicalize(table)
        name, keys, bound = key
        assert name == "cut"
        indices = tuple(map(table.schema.index_of, keys))
        assert Counter(kept) == truncate_reference(table.rows, indices, bound)


def test_a_warm_truncation_returns_the_remembered_cut():
    rng = random.Random(61)
    for _ in range(20):
        rows = _cut_rows(rng)
        table = Table.of(CUT_SCHEMA, rows)
        for bound in (1, 2, 1, 3, 2):
            expected = truncate_reference(rows, (2,), bound)
            cold_or_warm = make_truncate_by_id(CUT_DOMAIN, bound).apply(table)
            assert cold_or_warm.multiset() == expected
            warm = make_truncate_by_id(CUT_DOMAIN, bound).apply(table)
            # The cut is one remembered mask, read warm or cold.
            assert same_data(warm, cold_or_warm)
            assert warm.held is _cut(table, _by_id(bound))[0]
        assert set(remembered(table)) == {_by_id(1), _by_id(2), _by_id(3)}
        assert set(table.stored) == {ORDER}
        _assert_cuts_match_the_reference(table)
        # The table's own rows keep the order they were built with.
        assert table.rows == tuple(rows)


def test_cuts_at_other_bounds_or_keys_never_share_an_entry():
    rng = random.Random(62)
    for _ in range(20):
        rows = _cut_rows(rng)
        partners = Table.of(PARTNERS, [
            (rng.randrange(5), rng.choice("xyz"), rng.randrange(3)) for _ in range(15)
        ])
        others = Table.of(
            OTHERS, [(rng.choice("xyz"), rng.randrange(3)) for _ in range(8)]
        )
        table = Table.of(CUT_SCHEMA, rows)
        two_keys = make_private_join(
            CUT_DOMAIN, TableDomain(PARTNERS, None), ["id", "tag"], 2, 1
        )
        by_tag = make_private_join(CUT_DOMAIN, TableDomain(OTHERS, None), ["tag"], 2, 2)
        for _ in range(2):  # cold, then warm
            for bound in (2, 1):
                cut = make_truncate_by_id(CUT_DOMAIN, bound).apply(table)
                assert cut.multiset() == truncate_reference(rows, (2,), bound)
            on_two = two_keys.apply((table, partners))
            on_tag = by_tag.apply((table, others))
            kept = Table.of(CUT_SCHEMA, truncate_reference(rows, (2, 1), 2).elements())
            kept_partners = Table.of(
                PARTNERS, truncate_reference(partners.rows, (0, 1), 1).elements()
            )
            assert on_two.multiset() == join_reference(kept, kept_partners, ["id", "tag"])
            kept = Table.of(CUT_SCHEMA, truncate_reference(rows, (1,), 2).elements())
            kept_others = Table.of(
                OTHERS, truncate_reference(others.rows, (0,), 2).elements()
            )
            assert on_tag.multiset() == join_reference(kept, kept_others, ["tag"])
        # The two-column key is read in the join's order, from each side.
        # The left table also remembers each join's output, under its keys
        # and bounds, with the mask and columns of the right cut it was
        # built with.
        assert set(remembered(table)) == {
            _by_id(1), _by_id(2), ("cut", ("id", "tag"), 2), ("cut", ("tag",), 2),
            ("private join", ("id", "tag"), 2, 1), ("private join", ("tag",), 2, 2),
        }
        for key, right, output in (
            (("id", "tag"), 2, 1), partners, on_two), ((("tag",), 2, 2), others, on_tag
        ):
            entry = remembered(table)[("private join", *key)]
            assert entry[0] is _cut(right, ("cut", key[0], key[2]))[0]
            assert entry[1] is right.columns
            assert (entry[2], entry[3]) == (output.columns, output.held)
            assert entry[2] is output.columns and entry[3] is output.held
        assert set(remembered(partners)) == {("cut", ("id", "tag"), 1)}
        assert set(remembered(others)) == {("cut", ("tag",), 2)}
        assert set(table.stored) == set(partners.stored) == set(others.stored) == {ORDER}
        for cut_table in (table, partners, others):
            _assert_cuts_match_the_reference(cut_table)


def test_another_table_does_not_reuse_the_cuts():
    rng = random.Random(63)
    truncate = make_truncate_by_id(CUT_DOMAIN, 1)
    for _ in range(20):
        rows = _cut_rows(rng)
        table = Table.of(CUT_SCHEMA, rows)
        first = truncate.apply(table)
        rebuilt = Table.of(CUT_SCHEMA, rows)
        assert remembered(rebuilt) == {}
        again = truncate.apply(rebuilt)
        assert again.rows == first.rows and again.rows is not first.rows
        filtered = make_filter(CUT_DOMAIN, "v != 1").apply(table)
        assert remembered(filtered) == {}
        assert truncate.apply(filtered).multiset() == truncate_reference(
            filtered.rows, (2,), 1
        )


def test_a_cut_that_keeps_every_row_is_its_own_table():
    # Were it its table, or a table with no mask, what a later query finds
    # remembered on it, or its held mask, would tell whether the cut
    # dropped a row.
    rng = random.Random(64)
    for _ in range(20):
        rows = _cut_rows(rng)
        table = Table.of(CUT_SCHEMA, rows)
        everything = _by_id(len(rows) + 1)
        cut = make_truncate_by_id(CUT_DOMAIN, len(rows) + 1).apply(table)
        order = _cut(table, ORDER)
        assert order is canonicalize(table)
        assert cut is not table and cut.columns is table.columns
        assert cut.held == b"\x01" * len(rows) and cut.rows == table.rows
        assert canonicalize(cut) is order  # every stored row's, which they share
        assert _cut(table, everything) == (cut.held, remembered(cut))
        assert _cut(table, everything)[0] is cut.held
        assert set(remembered(table)) == {everything} and table.stored == {ORDER: order}
        assert remembered(cut) == {}
        assert table.rows == tuple(rows)


def test_a_cut_shares_its_tables_columns_and_always_carries_a_mask():
    rng = random.Random(68)
    for _ in range(20):
        rows = _cut_rows(rng, rng.randrange(30))
        source = Table.of(CUT_SCHEMA, rows)
        for table in (source, make_filter(CUT_DOMAIN, "v != 1").apply(source)):
            held = table.held or b"\x01" * len(rows)
            for bound in (1, 2, len(rows) + 1):
                cut = make_truncate_by_id(CUT_DOMAIN, bound).apply(table)
                assert cut.columns is table.columns
                assert type(cut.held) is bytes and len(cut.held) == len(rows)
                # It holds some of the rows its table holds; at a bound
                # above every key's count, all of them.
                assert all(map(operator.ge, held, cut.held))
                assert cut.held == held or bound <= len(rows)


def test_cutting_a_cut_again_needs_no_sort(monkeypatch):
    rng = random.Random(65)
    tables = [Table.of(CUT_SCHEMA, _cut_rows(rng)) for _ in range(20)]
    cuts = [make_truncate_by_id(CUT_DOMAIN, 3).apply(table) for table in tables]
    ids = Schema.of(("id", ColumnType.INT64), ("w", ColumnType.INT64))
    right = Table.of(ids, [(i, 0) for i in range(5)])
    join = make_private_join(CUT_DOMAIN, TableDomain(ids, None), ["id"], 3, 1)
    join.apply((tables[0], right))  # the right side is no cut: cut it first

    def no_sort(*args, **kwargs):
        raise AssertionError("a cut was sorted again")

    passes = []
    monkeypatch.setattr(tabledata, "sorted", no_sort, raising=False)
    monkeypatch.setattr(
        transformations, "canonicalize", lambda t: passes.append(t) or canonicalize(t)
    )
    for table, cut in zip(tables, cuts):
        assert remembered(cut) == {}
        # Cutting the cut at its own key and bound takes a pass over the
        # remembered order of every row the table stores, which the cut
        # shares, and gives a new cut that holds the same rows, which the
        # cut remembers.
        again = make_truncate_by_id(CUT_DOMAIN, 3).apply(cut)
        assert passes == [cut] and cut.stored is table.stored
        passes.clear()
        assert again is not cut and again.columns is table.columns and again.held == cut.held
        assert same_data(make_truncate_by_id(CUT_DOMAIN, 3).apply(cut), again)
        # The private join's own truncation of a cut is a lookup then, and
        # the cut remembers the join's output with the mask and columns of
        # right's cut.
        joined = join.apply((cut, right))
        assert passes == []
        entry = remembered(cut).pop(("private join", ("id",), 3, 1))
        assert entry[0] is _cut(right, _by_id(1))[0] and entry[1] is right.columns
        assert entry[2] is joined.columns and entry[3] is joined.held
        # A lower bound takes a pass too, over that order.
        lower = make_truncate_by_id(CUT_DOMAIN, 2).apply(cut)
        assert passes == [cut]
        passes.clear()
        assert lower.multiset() == truncate_reference(table.rows, (2,), 2)
        assert canonicalize(cut) is canonicalize(table)
        assert remembered(cut) == {
            _by_id(3): (again.held, remembered(again)), _by_id(2): (lower.held, remembered(lower))
        }
        assert remembered(cut)[_by_id(3)][0] is again.held
        assert remembered(cut)[_by_id(2)][0] is lower.held
        assert ORDER in table.stored  # what every cut of the table reads


USERS = Schema.of(("id", ColumnType.INT64), ("tier", ColumnType.TEXT))
USERS_DOMAIN = TableDomain(USERS, "id")


def _recording_splits(monkeypatch):
    # The tables transformations splits by key, from now on.
    splits = []

    def recording(table, keys):
        splits.append(table)
        return split_by_key(table, keys)

    monkeypatch.setattr(transformations, "split_by_key", recording)
    return splits


def test_a_warm_private_join_does_not_split_its_right_side(monkeypatch):
    # As on the ids workload: every query cuts both sides by id, which
    # returns the remembered cuts, and joins them on id.
    rng = random.Random(66)
    join = make_private_join(CUT_DOMAIN, TableDomain(USERS, None), ["id"], 3, 1)
    for _ in range(10):
        people = Table.of(CUT_SCHEMA, _cut_rows(rng, 40))
        users = Table.of(USERS, [(rng.randrange(6), rng.choice("ab")) for _ in range(8)])
        kept_people = Table.of(CUT_SCHEMA, truncate_reference(people.rows, (2,), 3).elements())
        kept_users = Table.of(USERS, truncate_reference(users.rows, (0,), 1).elements())
        expected = join_reference(kept_people, kept_users, ["id"])

        def ask():
            left = make_truncate_by_id(CUT_DOMAIN, 3).apply(people)
            right = make_truncate_by_id(USERS_DOMAIN, 1).apply(users)
            return right, join.apply((left, right))

        right, cold = ask()
        assert cold.multiset() == expected
        # The join cuts the cut right side again, and indexes that cut; the
        # order is of users' stored rows, which both share.
        assert set(remembered(users)) == {_by_id(1)} and set(users.stored) == {ORDER}
        assert set(remembered(right)) == {_by_id(1)}
        assert set(remembered(_cut_view(right, _by_id(1)))) == {("join", ("id",))}
        with monkeypatch.context() as patch:
            splits = _recording_splits(patch)
            for _ in range(2):
                warm_right, warm = ask()
                assert same_data(warm_right, right)
                assert warm.multiset() == expected
            assert splits == []


def _index_reference(schema, rows, keys):
    # Each key's rows, as a multiset per key.
    positions = [schema.index_of(key) for key in keys]
    index = {}
    for row in rows:
        key = tuple(row[i] for i in positions)
        index.setdefault(key if len(key) > 1 else key[0], Counter())[row] += 1
    return index


def _index_rows(index, table):
    # A join index's rows, from the positions it holds, as a multiset per key.
    rows = tuple(zip(*table.columns))
    return {key: Counter(rows[i] for i in positions) for key, positions in index.items()}


def test_join_indexes_at_other_keys_or_bounds_never_share_an_entry():
    rng = random.Random(67)
    for _ in range(20):
        rows = _cut_rows(rng)
        table = Table.of(CUT_SCHEMA, rows)
        partners = Table.of(PARTNERS, [
            (rng.randrange(5), rng.choice("xyz"), rng.randrange(3)) for _ in range(15)
        ])
        # The same two key columns read in the other order key the index
        # by other tuples, so sharing an entry would join nothing.
        shapes = [(keys, bound) for keys in (("id", "tag"), ("tag", "id")) for bound in (1, 2)]
        for _ in range(2):  # cold, then warm
            for keys, bound in shapes:
                join = make_private_join(CUT_DOMAIN, TableDomain(PARTNERS, None), keys, 2, bound)
                positions = [CUT_SCHEMA.index_of(key) for key in keys]
                kept = Table.of(CUT_SCHEMA, truncate_reference(rows, positions, 2).elements())
                kept_partners = Table.of(PARTNERS, truncate_reference(
                    partners.rows, [PARTNERS.index_of(key) for key in keys], bound
                ).elements())
                assert join.apply((table, partners)).multiset() == join_reference(
                    kept, kept_partners, keys
                )
        # Each right cut, at its keys and bound, is its own mask, even when
        # it keeps every row, and remembers its own index.
        assert set(remembered(partners)) == {("cut", *shape) for shape in shapes}
        cuts = [_cut_view(partners, ("cut", *shape)) for shape in shapes]
        assert len({id(cut.held) for cut in cuts}) == len(shapes)
        assert len({id(remembered(cut)) for cut in cuts}) == len(shapes)
        for (keys, bound), cut in zip(shapes, cuts):
            memo = remembered(cut)
            assert set(memo) == {("join", keys)}
            index = memo[("join", keys)]
            expected = _index_reference(PARTNERS, cut.rows, keys)
            assert _index_rows(index, cut) == expected
        _assert_cuts_match_the_reference(partners)


def test_a_public_join_indexes_its_table_once(monkeypatch):
    public = Table.of(
        Schema.of(("v", ColumnType.INT64), ("label", ColumnType.TEXT)),
        [(1, "a"), (1, "b"), (2, "c")],
    )
    rows = T((1, 1), (2, 2), (3, 1))
    first = make_public_join(DOMAIN, public, ["v"])
    splits = _recording_splits(monkeypatch)
    again = make_public_join(DOMAIN, public, ["v"])
    assert splits == []
    assert again.stability.slope == first.stability.slope == 2
    assert again.apply(rows).multiset() == join_reference(rows, public, ["v"])
    # Next to its index, the public table remembers its fan-out by the key
    # names and its digest, which a warm compile reads without a pass.
    assert set(remembered(public)) == {("join", ("v",)), ("fan out", ("v",)), ("digest",)}
    assert public.derive(("fan out", ("v",)), unbuilt) == 2
    index = public.derive(("join", ("v",)), unbuilt)
    assert _index_rows(index, public) == _index_reference(
        public.schema, public.rows, ("v",)
    )


def test_a_bool_is_no_count_or_bound():
    # bool is an int subclass, so each of these would act as 1 or 0.
    out = Schema.of(("x", ColumnType.INT64))
    branches = (ExpansionBranch(columns={"x": "v"}),)
    partners = TableDomain(PARTNERS, None)
    for flag in (True, False):
        with pytest.raises(NonPositiveBound):
            make_truncate_by_id(ID_DOMAIN, flag)
        with pytest.raises(NonPositiveBound):
            make_flat_map(DOMAIN, branches, out, max_rows=flag)
        with pytest.raises(NonPositiveBound):
            make_private_join(DOMAIN, partners, ["id"], flag, 1)
        with pytest.raises(NonPositiveBound):
            make_private_join(DOMAIN, partners, ["id"], 1, flag)
        with pytest.raises(NonPositiveBound):
            make_overlapping_subsets(DOMAIN, lambda row: [0], flag, 1)
        with pytest.raises(NonPositiveBound):
            make_overlapping_subsets(DOMAIN, lambda row: [0], 2, flag)
        subsets = make_overlapping_subsets(DOMAIN, lambda row: [flag], 2, 1)
        with pytest.raises(BadIndex):
            subsets.apply(T((1, 1)))


KEY_COLUMNS = (("k", ColumnType.INT64), ("k2", ColumnType.TEXT))
CARRIED_COLUMNS = (("b0", ColumnType.INT64), ("b1", ColumnType.TEXT))


def _join_tables(rng, key_width, carried):
    """Random left and right tables for a join on the first key_width key
    columns; the right side carries `carried` non-key columns, one of them
    before its keys, and lists its keys in reverse order."""
    keys = KEY_COLUMNS[:key_width]
    extra = CARRIED_COLUMNS[:carried]
    left = Schema.of(("a", ColumnType.INT64), *keys)
    right = Schema.of(*extra[:1], *keys[::-1], *extra[1:])

    def cell(ctype):
        return rng.randrange(3) if ctype is ColumnType.INT64 else rng.choice("xy")

    def rows(schema, n):
        return [tuple(cell(ctype) for _, ctype in schema.columns) for _ in range(n)]

    return (
        [name for name, _ in keys],
        Table.of(left, rows(left, rng.randrange(12))),
        Table.of(right, rows(right, rng.randrange(12))),
    )


@pytest.mark.parametrize("carried", [0, 1, 2])
@pytest.mark.parametrize("key_width", [1, 2])
def test_joins_match_a_nested_loop_join(key_width, carried):
    rng = random.Random(10 * key_width + carried)
    for _ in range(25):
        keys, left, right = _join_tables(rng, key_width, carried)
        left_domain = TableDomain(left.schema, None)
        public = make_public_join(left_domain, right, keys)
        assert public.apply(left).multiset() == join_reference(left, right, keys)
        key_positions = [right.schema.index_of(k) for k in keys]
        multiplicity = Counter(tuple(row[i] for i in key_positions) for row in right.rows)
        assert public.stability.slope == max(multiplicity.values(), default=0)

        for left_bound, right_bound in ((1, 1), (1, 2), (2, 1)):
            private = make_private_join(
                left_domain, TableDomain(right.schema, None), keys, left_bound, right_bound
            )
            cut_left = Table.of(left.schema, truncate_reference(
                left.rows, [left.schema.index_of(k) for k in keys], left_bound
            ).elements())
            cut_right = Table.of(right.schema, truncate_reference(
                right.rows, key_positions, right_bound
            ).elements())
            # Twice: the second join truncates from the remembered orders.
            for _ in range(2):
                assert private.apply((left, right)).multiset() == join_reference(
                    cut_left, cut_right, keys
                )


def test_internal_tables_skip_the_cell_check(monkeypatch):
    # Table(...) checks a column at a time and check_value a cell, both
    # through tabledata._check_column; expressions check literals with
    # check_value.
    calls = []
    for module, name in ((tabledata, "_check_column"), (expressions, "check_value")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real: calls.append(args) or real(*args)
        )
    table = Table._trusted(SCHEMA, ((1, 1, 2, 2), (5, 3, 7, 7)))
    other = Table._trusted(
        Schema.of(("v", ColumnType.INT64), ("w", ColumnType.INT64)), ((7, 3), (0, 3))
    )
    assert table.rows == ((1, 5), (1, 3), (2, 7), (2, 7))
    assert other.rows == ((7, 0), (3, 3))
    make_filter(DOMAIN, "v > 4").apply(table)
    split_by_key(table, ["id"])
    canonicalize(table)
    make_truncate_by_id(ID_DOMAIN, 1).apply(table)
    make_public_join(DOMAIN, other, ["v"]).apply(table)
    other_domain = TableDomain(other.schema, None)
    make_private_join(DOMAIN, other_domain, ["v"], 1, 1).apply((table, other))
    assert calls == []

    # Cells a map or flat map computes are still checked, and a row with
    # a cell that does not fit its column is dropped.
    ints = Schema.of(("x", ColumnType.INT64))
    mapped = make_map(DOMAIN, {"x": "v * 2305843009213693952"}, ints).apply(table)
    assert mapped.rows == ((3 * 2305843009213693952,),)
    texts = Schema.of(("s", ColumnType.TEXT))
    empty_text = make_flat_map(DOMAIN, [ExpansionBranch({"s": "''"})], texts, 1)
    assert empty_text.apply(table).rows == ()
    assert calls


def test_failing_rows_count_as_false_or_are_dropped():
    # 1e300 * 1e10 is not a finite float and v * 10**400 cannot widen to
    # one; neither may raise once the query has compiled.
    floats = Schema.of(("x", ColumnType.FLOAT64))
    domain = TableDomain(floats)
    table = Table.of(floats, [(1.0,), (1e300,)])
    assert make_filter(domain, "x * 1e10 > 0.0").apply(table).rows == ((1.0,),)
    assert make_filter(domain, "not (x * 1e10 > 0.0)").apply(table).rows == ()
    assert make_map(domain, {"x": "x * 1e10"}, floats).apply(table).rows == ((1e10,),)
    huge = "v * 1" + "0" * 400
    assert make_map(DOMAIN, {"x": huge}, floats).apply(T((0, 0), (1, 1))).rows == ((0.0,),)
    # A failing branch is dropped and does not use up max_rows; a failing
    # guard skips its branch.
    branches = [
        ExpansionBranch({"x": "x * 1e10"}),
        ExpansionBranch({"x": "x"}, when="x * 1e10 > 0.0"),
        ExpansionBranch({"x": "x * 2.0"}),
    ]
    expanded = make_flat_map(domain, branches, floats, 1).apply(table)
    assert expanded.rows == ((1e10,), (2e300,))


def test_map_cells_are_stored_as_a_table_stores_them():
    floats = Schema.of(("x", ColumnType.FLOAT64))
    domain = TableDomain(floats)
    zero = Table.of(floats, [(0.0,)])
    # A zero's sign never reaches a stored cell.
    for text in ("-x", "x * -1.0", "-0.0", "x / -1.0", "-(x + 0.0)"):
        (cell,), = make_map(domain, {"x": text}, floats).apply(zero).rows
        assert math.copysign(1.0, cell) == 1.0, text
    # Int arithmetic past int64 drops the row, in a map and in a flat map.
    ints = Schema.of(("x", ColumnType.INT64))
    ends = T((1, 1), (2, 2), (3, -(2**63)))
    assert make_map(DOMAIN, {"x": "v * 4611686018427387904"}, ints).apply(ends).rows == (
        (4611686018427387904,),
    )
    assert make_map(DOMAIN, {"x": "-v"}, ints).apply(ends).rows == ((-1,), (-2,))
    assert make_map(DOMAIN, {"x": "v - 1"}, ints).apply(ends).rows == ((0,), (1,))
    # An int too large for a float cannot widen into a float column.
    widened = compile_projection("v * 1" + "0" * 400, SCHEMA, ColumnType.FLOAT64)
    assert evaluated_outcomes(widened, SCHEMA, [(1, 1)]) == [("fails", None)]
    assert make_map(DOMAIN, {"x": "v * 1" + "0" * 400}, floats).apply(ends).rows == ()
    assert make_map(DOMAIN, {"x": "v"}, floats).apply(ends).rows == (
        (1.0,), (2.0,), (-(2.0**63),),
    )
    # An empty text literal drops every row.
    texts = Schema.of(("s", ColumnType.TEXT))
    assert make_map(DOMAIN, {"s": "''"}, texts).apply(ends).rows == ()
    assert make_map(DOMAIN, {"s": "'a'"}, texts).apply(ends).rows == (("a",),) * 3
    # A failing branch does not count toward max_rows.
    branches = [
        ExpansionBranch({"x": "v * 4611686018427387904"}),
        ExpansionBranch({"x": "v"}),
        ExpansionBranch({"x": "v + 1"}),
    ]
    expanded = make_flat_map(DOMAIN, branches, ints, 1).apply(ends)
    assert expanded.rows == ((4611686018427387904,), (2,), (-(2**63),))


def test_truncate_is_idempotent():
    rng = random.Random(17)
    tr = make_truncate_by_id(ID_DOMAIN, bound=2)
    for _ in range(100):
        t = random_table(rng, 6)
        once = tr.apply(t)
        assert table_equal(tr.apply(once), once)


def test_overlapping_subsets():
    assign = lambda row: [0, row[1] % 2 + 1]
    tr = make_overlapping_subsets(DOMAIN, assign, num_subsets=3, contribution_bound=2)
    out = tr.apply(T((1, 0), (2, 1)))
    assert len(out) == 3
    assert len(out[0]) == 2  # both rows land in subset 0
    assert len(out[1]) == 1
    assert len(out[2]) == 1
    assert tr.stability.slope == 2
    assert isinstance(tr.output_metric, BoundedLists)

    over = make_overlapping_subsets(DOMAIN, lambda row: [0, 1, 2], 3, 2)
    lists = over.apply(T((1, 0)))
    # Contribution bound keeps only the two lowest subset indices.
    assert (len(lists[0]), len(lists[1]), len(lists[2])) == (1, 1, 0)

    bad = make_overlapping_subsets(DOMAIN, lambda row: [5], 3, 2)
    with pytest.raises(BadIndex):
        bad.apply(T((1, 0)))


def test_grouped_view_and_select_table():
    view = make_grouped_view(DOMAIN, Schema.of(("id", ColumnType.INT64)))
    t = T((1, 2))
    assert view.apply(t) is t
    assert isinstance(view.output_metric, GroupedBy)

    components = (DOMAIN, ID_DOMAIN)
    metrics = (SymmetricDifference(), SymmetricDifference())
    pick = make_select_table(components, metrics, 1)
    assert pick.apply((T((1, 1)), t)) is t
    assert pick.stability.slope == 1
    with pytest.raises(BadIndex):
        make_select_table(components, metrics, 2)


def test_chain_checks_and_composes():
    f = make_filter(DOMAIN, "v > 0")
    out_schema = Schema.of(("id", ColumnType.INT64), ("v", ColumnType.INT64))
    m = make_map(DOMAIN, {"id": "id", "v": "v * 2"}, out_schema)
    c = chain(f, m)
    assert c.stability.slope == 1
    assert table_equal(c.apply(T((1, 1), (2, 0))), T((1, 2)))

    other_domain = TableDomain(Schema.of(("x", ColumnType.INT64)), None)
    with pytest.raises(DomainMismatch):
        chain(f, make_filter(other_domain, "x > 0"))
    with pytest.raises(MetricMismatch):
        chain(
            make_truncate_by_id(ID_DOMAIN, 1),
            make_filter(DOMAIN, "v > 0", metric=AddRemoveIds("id")),
        )


def test_a_chain_runs_its_steps_at_the_depth_of_one_step():
    plus_one = make_map(DOMAIN, {"id": "id", "v": "v + 1"}, SCHEMA)
    steps = [make_filter(DOMAIN, "v > 0"), plus_one] * 750
    composed = chain(*steps)
    assert composed.stability.slope == 1
    table = T((1, 1), (2, 0))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # Room for apply, the chain's loop and one step, but not for 1,500
    # nested steps.
    sys.setrecursionlimit(depth + 20)
    try:
        out = composed.apply(table)
    finally:
        sys.setrecursionlimit(limit)
    assert out.rows == ((1, 751),)
    assert chain(steps[0]).apply(table).rows == ((1, 1),)


def test_filter_under_id_metric_requires_matching_column():
    ok = make_filter(ID_DOMAIN, "v > 0", metric=AddRemoveIds("id"))
    assert ok.output_metric == AddRemoveIds("id")
    with pytest.raises(MetricMismatch):
        make_filter(ID_DOMAIN, "v > 0", metric=AddRemoveIds("v"))


# ---------------------------------------------------------------------------
# Sampled stability.  The acceptance suite runs the full 10^4-pair version;
# this is a fast regression net.


def _check_stability(rng, transformation, make_pair, distance_in, distance_out, n=300):
    for _ in range(n):
        a, b = make_pair()
        da = distance_in(a, b)
        xa = transformation.apply(a)
        xb = transformation.apply(b)
        dout = distance_out(xa, xb)
        assert dout <= transformation.stability(da), (
            f"stability violated: in={da} out={dout} "
            f"bound={transformation.stability(da)}"
        )


def test_sampled_stability_quick():
    rng = random.Random(23)

    def pair():
        a = random_table(rng, 6)
        b = random_table(rng, 6)
        return a, b

    sd = lambda a, b: sd_distance(a, b)
    f = make_filter(DOMAIN, "v > 0")
    _check_stability(rng, f, pair, sd, sd)

    out = Schema.of(("x", ColumnType.INT64))
    fm = make_flat_map(
        DOMAIN,
        (
            ExpansionBranch(columns={"x": "v"}),
            ExpansionBranch(columns={"x": "v + 1"}, when="v > 0"),
        ),
        out,
        max_rows=2,
    )
    _check_stability(rng, fm, pair, sd, sd)

    tr = make_truncate_by_id(ID_DOMAIN, 2)
    _check_stability(
        rng, tr, pair, lambda a, b: ari_distance(a, b, "id"), sd
    )


# ---------------------------------------------------------------------------
# A filter marks the rows it drops, and a fan-out-1 join the rows that match
# nothing; every other step stores held rows only.

PEOPLE = Schema.of(
    ("id", ColumnType.INT64), ("zip", ColumnType.TEXT),
    ("age", ColumnType.INT64), ("income", ColumnType.FLOAT64),
)
PEOPLE_IDS = TableDomain(PEOPLE, "id")
# "age > 1000" holds no row and "age > -1" every row.
MASK_FILTERS = [
    "age > 1000", "age > -1", "income > 20.0", "zip != 'b'",
    "age * 1.5 < income", "id == 2 or age > 40", "income / (age - 30) > 0.5",
]


def _people(rng, n):
    return [
        (rng.randrange(6), rng.choice("abcz"), rng.randrange(20, 60), float(rng.randrange(100)))
        for _ in range(n)
    ]


def _filtered(rng, schema=PEOPLE, filters=MASK_FILTERS, rows=None):
    """A seeded table through 0 to 3 filters, and the rows the filters keep
    by the row-at-a-time oracle."""
    rows = _people(rng, rng.randrange(30)) if rows is None else rows
    table = Table.of(schema, rows)
    kept = table_rows_reference(schema, rows)
    for predicate in rng.sample(filters, rng.randrange(4)):
        table = make_filter(TableDomain(schema), predicate).apply(table)
        kept = oracle_filter(kept, oracle_expression(predicate, schema)[0])
    assert table.rows == kept and len(table) == len(kept)
    return table, kept


def _stored_cells_are_checked(table):
    """Every stored cell, held or not, is a legal cell of its column."""
    assert table_rows_reference(table.schema, zip(*table.columns)) == tuple(zip(*table.columns))


def test_a_filter_shares_its_inputs_columns():
    rng = random.Random(361)
    for _ in range(20):
        source = Table.of(PEOPLE, _people(rng, rng.randrange(30)))
        predicates = rng.sample(MASK_FILTERS, 3)
        filters = [make_filter(PEOPLE_IDS, p) for p in predicates]
        one = filters[0].apply(source)
        three = chain(*filters).apply(source)
        # Each filter's mask is remembered on its input, which it shares its
        # columns and stored-row data with, under the predicate only.
        for table in (one, three):
            assert table.columns is source.columns and table.stored is source.stored
            assert type(table.held) is bytes and len(table.held) == len(source.columns[0])
        assert remembered(source) == {("filter", predicates[0]): (one.held, remembered(one))}
        (held, memo), = remembered(one).values()
        assert list(remembered(one)) == [("filter", predicates[1])]
        assert memo == {("filter", predicates[2]): (three.held, remembered(three))}
        assert remembered(three) == {}
        assert same_data(filters[0].apply(source), one)
        assert same_data(chain(*filters).apply(source), three)
        assert remembered(source)[("filter", predicates[0])][0] is one.held
        assert memo[("filter", predicates[2])][0] is three.held


def test_every_step_after_filters_matches_the_row_at_a_time_oracles():
    mapped_schema = Schema.of(
        ("id", ColumnType.INT64), ("zip", ColumnType.TEXT), ("x", ColumnType.FLOAT64)
    )
    map_columns = {"id": "id", "zip": "zip", "x": "age * 2 - income"}
    map_cells = [
        (oracle_projection(map_columns[name], PEOPLE, ctype), ctype)
        for name, ctype in mapped_schema.columns
    ]
    flat_schema = Schema.of(("zip", ColumnType.TEXT), ("n", ColumnType.INT64))
    branches = [
        ({"zip": "zip", "n": "age"}, "income > 50.0"),
        ({"zip": "zip", "n": "id * 4611686018427387904"}, None),
        ({"zip": "'w'", "n": "age + id"}, None),
    ]
    flat_branches = [
        (
            None if when is None else oracle_expression(when, PEOPLE)[0],
            [(oracle_projection(columns[name], PEOPLE, ctype), ctype)
             for name, ctype in flat_schema.columns],
        )
        for columns, when in branches
    ]
    flat_map = make_flat_map(
        PEOPLE_IDS, [ExpansionBranch(c, when=w) for c, w in branches], flat_schema, 2
    )
    region = Schema.of(("zip", ColumnType.TEXT), ("region", ColumnType.INT64))
    publics = [
        Table.of(region, [("a", 1), ("b", 2), ("b", 3), ("z", 4)]),  # fan-out 2
        Table.of(region, [("a", 1), ("c", 2)]),  # fan-out 1
    ]
    right_schema = Schema.of(("zip", ColumnType.TEXT), ("w", ColumnType.INT64))
    right_filters = ["w > 2", "w > 100", "w > -1", "zip != 'a'"]
    zip_at = PEOPLE.index_of("zip")
    rng = random.Random(362)
    for _ in range(60):
        table, kept = _filtered(rng)
        outputs = []

        # A map carries the mask, so it stores exactly its input's stored
        # rows, and a flat map a slot for each branch of each, under the
        # mask of the slots that fire.
        mapped = make_map(PEOPLE_IDS, map_columns, mapped_schema).apply(table)
        assert mapped.rows == oracle_map(kept, map_cells)
        assert len(mapped.columns[0]) == len(table.columns[0])
        expanded = flat_map.apply(table)
        assert expanded.rows == oracle_flat_map(kept, flat_branches, 2)
        assert len(expanded.columns[0]) == len(branches) * len(table.columns[0])
        assert type(expanded.held) is bytes
        carried = [mapped, expanded]

        # A fan-out-1 join carries the mask, so it stores exactly its left
        # side's stored rows.
        compact = Table.of(PEOPLE, kept)
        for public, fan_out in zip(publics, (2, 1)):
            joined = make_public_join(PEOPLE_IDS, public, ["zip"]).apply(table)
            assert joined.multiset() == join_reference(compact, public, ["zip"])
            if fan_out == 1:
                assert len(joined.columns[0]) == len(table.columns[0])
                carried.append(joined)
            else:
                outputs.append(joined)

        # A cut carries the mask too, and shares its input's columns.
        bound = rng.randint(1, 3)
        cut = make_truncate_by_id(PEOPLE_IDS, bound).apply(table)
        assert cut.multiset() == truncate_reference(kept, [0], bound)
        assert cut.columns is table.columns
        carried.append(cut)

        right_rows = [(rng.choice("abcz"), rng.randrange(5)) for _ in range(rng.randrange(12))]
        right, right_kept = _filtered(rng, right_schema, right_filters, right_rows)
        left_bound, right_bound = rng.randint(1, 3), rng.randint(1, 3)
        private = make_private_join(
            TableDomain(PEOPLE), TableDomain(right_schema), ["zip"], left_bound, right_bound
        )
        joined = private.apply((table, right))
        cut_left = Table.of(PEOPLE, truncate_reference(kept, [zip_at], left_bound).elements())
        cut_right = Table.of(
            right_schema, truncate_reference(right_kept, [0], right_bound).elements()
        )
        assert joined.multiset() == join_reference(cut_left, cut_right, ["zip"])
        if right_bound == 1:
            assert len(joined.columns[0]) == len(table.columns[0])
            carried.append(joined)
        else:
            outputs.append(joined)

        # Only a join that may match a key more than once stores its held
        # rows only, and every stored cell is checked, filler cells too.
        for out in outputs:
            assert out.held is None
        for out in outputs + carried:
            _stored_cells_are_checked(out)


def test_a_fan_out_1_join_carries_its_mask_and_shares_its_left_columns():
    # Carried columns of every type, so every filler cell is stored and
    # checked; each public table matches all, some or none of the zips.
    region = Schema.of(
        ("zip", ColumnType.TEXT), ("n", ColumnType.INT64),
        ("share", ColumnType.FLOAT64), ("name", ColumnType.TEXT),
    )
    publics = [
        Table.of(region, [(z, i, i / 2, z * 2) for i, z in enumerate("abcz")]),
        Table.of(region, [("a", 1, 0.5, "n"), ("c", 2, -1.5, "s")]),
        Table.of(region, [("q", 1, 0.5, "n")]),
        Table.empty(region),
    ]
    # Right sides of a private join: two rows per zip, which a right bound
    # of 1 cuts to one; some zips; none; and a filter that holds no row,
    # whose right cut is empty.
    partners = [(z, i, float(i), "p" + z) for i, z in enumerate("abczab")]
    rights = [
        Table.of(region, partners),
        Table.of(region, partners[1:3]),
        Table.of(region, [("q", 1, 0.5, "n")]),
        make_filter(TableDomain(region), "n > 100").apply(Table.of(region, partners)),
    ]
    zip_at = PEOPLE.index_of("zip")
    rng = random.Random(363)
    for _ in range(30):
        source = Table.of(PEOPLE, _people(rng, rng.randrange(30)))
        filtered = chain(
            *[make_filter(PEOPLE_IDS, p) for p in rng.sample(MASK_FILTERS, rng.randint(1, 2))]
        ).apply(source)
        for left in (source, filtered):
            outputs = []
            for public in publics:
                joined = make_public_join(PEOPLE_IDS, public, ["zip"]).apply(left)
                expected = join_reference(Table.of(PEOPLE, left.rows), public, ["zip"])
                outputs.append((joined, left, expected))
            left_bound = rng.randint(1, 3)
            join = make_private_join(
                TableDomain(PEOPLE), TableDomain(region), ["zip"], left_bound, 1
            )
            cut_rows = list(truncate_reference(left.rows, [zip_at], left_bound).elements())
            for right in rights:
                joined = join.apply((left, right))
                # The join's left side is left's cut, which the join derived.
                cut = transformations._truncate_by_keys(left, ("zip",), left_bound)
                cut_right = Table.of(region, truncate_reference(right.rows, [0], 1).elements())
                expected = join_reference(Table.of(PEOPLE, cut_rows), cut_right, ["zip"])
                outputs.append((joined, cut, expected))
            for out, side, expected in outputs:
                assert all(map(operator.is_, out.columns[:len(side.columns)], side.columns))
                assert len(out.columns[0]) == len(side.columns[0])
                assert out.multiset() == expected
                _stored_cells_are_checked(out)


def test_a_map_whose_cells_fail_only_on_unheld_rows_stores_none_of_them():
    # Where age is not T, n is past int64 (a huge int until it is masked)
    # and x is not finite; those rows are unheld after the first filter.
    # Were their placeholders stored, the second filter's n * 1.5 would
    # meet an int too large for a float, which its type says cannot be.
    out = Schema.of(
        ("age", ColumnType.INT64), ("n", ColumnType.INT64), ("x", ColumnType.FLOAT64)
    )
    rows = [(i, "a", 20 + i % 7, float(i)) for i in range(40)]
    source = Table.of(PEOPLE, rows)
    for t in (20, 23, 1000000):
        held = make_filter(TableDomain(PEOPLE), f"age == {t}").apply(source)
        cells = {
            "age": "age",
            "n": f"(age - {t}) * 1" + "0" * 400,
            "x": f"(age - {t}) * 1e308 * 1e308",
        }
        mapped = make_map(TableDomain(PEOPLE), cells, out).apply(held)
        _stored_cells_are_checked(mapped)
        again = make_filter(TableDomain(out), "n * 1.5 > -1.0 and x > -1.0").apply(mapped)
        expected = tuple((t, 0, 0.0) for row in rows if row[2] == t)
        assert again.rows == mapped.rows == expected


# ---------------------------------------------------------------------------
# Every table, loaded or built by hand, remembers the outputs of the
# steps over it.

PEOPLE_PLAIN = TableDomain(PEOPLE, None)
AGES = Schema.of(("id", ColumnType.INT64), ("zip", ColumnType.TEXT), ("half", ColumnType.FLOAT64))
ZIP_TAGS = Schema.of(("zip", ColumnType.TEXT), ("tag", ColumnType.INT64))
ZIP_USERS = Schema.of(("zip", ColumnType.TEXT), ("owner", ColumnType.INT64))


def _step_kinds():
    """(name, step, inputs of a table): a step of each kind, built once, as a
    query builds it, and what it applies to."""
    once = Table.of(ZIP_TAGS, [("a", 1), ("b", 2)])
    twice = Table.of(ZIP_TAGS, [("a", 1), ("a", 3), ("b", 2)])
    users = Table.of(ZIP_USERS, [("a", 7), ("b", 8), ("b", 9), ("z", 5)])
    branches = [
        ExpansionBranch({"id": "id", "zip": "zip", "half": "income / 2.0"}),
        ExpansionBranch({"id": "id", "zip": "zip", "half": "age / (income - 50.0)"}, "age > 30"),
    ]
    alone = lambda table: table  # noqa: E731
    return [
        ("filter", make_filter(PEOPLE_PLAIN, "income / (age - 30) > 0.5"), alone),
        ("proved map", make_map(
            PEOPLE_PLAIN, {"id": "id", "zip": "zip", "half": "income / 2.0"}, AGES), alone),
        ("map that can fail", make_map(
            PEOPLE_PLAIN, {"id": "id", "zip": "zip", "half": "age / (income - 50.0)"}, AGES), alone),
        ("flat map", make_flat_map(PEOPLE_PLAIN, branches, AGES, 2), alone),
        ("fan-out-1 join", make_public_join(PEOPLE_PLAIN, once, ["zip"]), alone),
        ("fan-out-2 join", make_public_join(PEOPLE_PLAIN, twice, ["zip"]), alone),
        ("private join", make_private_join(
            PEOPLE_PLAIN, TableDomain(ZIP_USERS, None), ["zip"], 2, 2), lambda t: (t, users)),
    ]


STEPS = {"filter", "map", "flat map", "public join", "private join"}


def _outputs(memo_owner):
    """What memo_owner remembers of the step outputs over it, by key."""
    return {
        key: entry for key, entry in remembered(memo_owner).items()
        if isinstance(key, tuple) and key[0] in STEPS
    }


def _order_keys(source):
    """The keys of every value remembered under source, in its order of use."""
    return [key for _, key in source._order or ()]


GROUP_KEY = ("groups", ("zip",), ("zip",))


def _remembered_kinds():
    """(name, ask): for each kind of value a table remembers, a function of
    a table that derives it, as a query does, and gives it: a step's
    output or a cut, which is a view of what is remembered, or the
    remembered value itself."""
    kinds = [
        (name, lambda table, step=step, inputs=inputs: step.apply(inputs(table)))
        for name, step, inputs in _step_kinds()
    ]
    cut = make_truncate_by_id(PEOPLE_IDS, 2)
    summed = make_sum(PEOPLE_PLAIN, "income", 0, 60, 1, PureDpNoise(10**40))
    quantile = make_quantile(PEOPLE_PLAIN, "income", 0.5, 0, 100, 8, 1)
    # No row of _people has the key "y".
    zips = KeySet(Schema.of(("zip", ColumnType.TEXT)), [("a",), ("b",), ("y",)])
    counted = make_count(TableDomain(Schema.of(("zip", ColumnType.TEXT))), PureDpNoise(10**40))
    grouped = compose_per_group(PEOPLE_PLAIN, zips, counted, ("count", ColumnType.INT64))
    incomes = TableDomain(Schema.of(("income", ColumnType.FLOAT64)))
    income = ("income", ColumnType.FLOAT64)
    grouped_sum = compose_per_group(
        PEOPLE_PLAIN, zips, make_sum(incomes, "income", 0, 60, 1, PureDpNoise(10**40)), income
    )
    grouped_quantile = compose_per_group(
        PEOPLE_PLAIN, zips, make_quantile(incomes, "income", 0.5, 0, 100, 8, 1), income
    )
    by_income = ("groups", ("zip",), ("income",))
    grains = ("grains", PEOPLE.index_of("income"), 0, 60, 1, 1)
    # A fan-out-2 join and a private join store only matched rows.
    twice = Table.of(ZIP_TAGS, [("a", 1), ("a", 3), ("b", 2)])
    users = Table.of(ZIP_USERS, [("a", 7), ("b", 8), ("b", 9), ("z", 5)])
    fan_out = make_public_join(PEOPLE_PLAIN, twice, ["zip"])
    private = make_private_join(PEOPLE_PLAIN, TableDomain(ZIP_USERS, None), ["zip"], 2, 2)

    def evaluated(measurement, table, key, memo):
        measurement.eval(table, RngStream(1))
        return table.derive(key, unbuilt, memo=memo(table))

    def total(step=None, inputs=lambda table: table):
        """A sum's remembered total over step's output (or the table)."""
        domain = PEOPLE_PLAIN if step is None else step.output_domain
        summed = make_sum(domain, "income", 0, 60, 1, PureDpNoise(10**40))
        key = ("total", domain.schema.index_of("income"), 0, 60, 1, 1)
        output = (lambda table: table) if step is None else lambda table: step.apply(inputs(table))
        return lambda t: evaluated(summed, output(t), key, remembered)

    return kinds + [
        ("cut", cut.apply),
        ("order", canonicalize),
        ("grain counts", lambda t: evaluated(summed, t, grains, lambda t: t.stored)),
        ("join index", lambda t: transformations._join_index(t, ("zip",))),
        ("sorted column", lambda t: evaluated(quantile, t, ("sorted", 3), remembered)),
        ("grouping", lambda t: evaluated(grouped, t, GROUP_KEY, remembered)),
        ("grouped sum", lambda t: evaluated(grouped_sum, t, by_income, remembered)),
        ("grouped quantile", lambda t: evaluated(grouped_quantile, t, by_income, remembered)),
        ("sum total", total()),
        ("sum over a fan-out-2 join", total(fan_out)),
        ("sum over a private join", total(private, lambda t: (t, users))),
    ]


def _value(value):
    """A remembered value as plain data, to compare by value: a Table as
    its schema, every stored cell and its mask."""
    if isinstance(value, Table):
        return value.schema, value.columns, value.held
    if isinstance(value, dict):
        return {key: _value(part) for key, part in value.items()}
    return value


def _same(a, b):
    """Whether two reads gave the one remembered value."""
    return same_data(a, b) if isinstance(a, Table) else a is b


def _logged_run(monkeypatch, table, run):
    """run(table)'s result, and (key, whether it was remembered, the keys of
    table's order of use after) for every Table.derive call it made that
    counts in table's order, then the keys of that order at the end.  A
    grouping's key Tables, its empty Table and a public or right table
    count what they remember in orders of their own."""
    log, derive = [], Table.derive

    def logged(self, key, build, *args, memo=None):
        hit = key in (remembered(self) if memo is None else memo)
        value = derive(self, key, build, *args, memo=memo)
        if self._uses() is table._uses():
            log.append((key, hit, _order_keys(table)))
        return value

    with monkeypatch.context() as patch:
        patch.setattr(Table, "derive", logged)
        result = run(table)
    return result, log + [_order_keys(table)]


@pytest.mark.parametrize("name", [kind[0] for kind in _remembered_kinds()])
def test_a_remembered_output_equals_a_fresh_one_cold_warm_and_evicted(monkeypatch, name):
    rng = random.Random(f"remembered-{name}")
    for i in range(10):
        rows = _people(rng, rng.randrange(1, 30))
        if "group" in name and i % 2:  # no row has a key of the key set
            rows = [(row[0], "c", *row[2:]) for row in rows]
        if name.startswith("sum") and i % 2:  # the summed table stores no row
            rows = [] if name == "sum total" else [(row[0], "c", *row[2:]) for row in rows]
        # A second source of the same rows, built by hand, gives the fresh
        # reference: it remembers its values as a loaded or checked one does.
        # Each run asks with its own steps, so a public or right table
        # remembers nothing from another.
        source = Table.of(PEOPLE, rows)
        fresh = dict(_remembered_kinds())[name](Table._trusted(PEOPLE, source.columns))
        ask = dict(_remembered_kinds())[name]

        def run(table):
            cold = ask(table)
            asked = set(_order_keys(table))
            warm = ask(table)  # a lookup
            # As many other values as the source remembers evict every one
            # the ask remembered, and it is built again, equal.
            for k in range(tabledata.MAX_REMEMBERED_OUTPUTS):
                make_filter(PEOPLE_PLAIN, f"age > {k}").apply(table)
            assert asked and asked.isdisjoint(_order_keys(table))
            return cold, warm, ask(table)

        (cold, warm, evicted), log = _logged_run(monkeypatch, source, run)
        assert _same(warm, cold) and not _same(evicted, cold)
        assert _value(cold) == _value(warm) == _value(evicted) == _value(fresh)
        # On a neighbour, the same asks hit, miss and evict the same keys in
        # the same order; a grouping's neighbour adds a row under a key of
        # its key set that no row of rows has, and a sum's a row that its
        # table stores, where that stored none.
        ask = dict(_remembered_kinds())[name]
        (added,) = _people(rng, 1)
        if "group" in name:
            added = (added[0], "y", *added[2:])
        if name.startswith("sum"):
            added = (added[0], "a", *added[2:])
        neighbour = Table.of(PEOPLE, rows + [added])
        assert _logged_run(monkeypatch, neighbour, run)[1] == log
        if not isinstance(cold, Table):
            continue
        for out in (cold, evicted):
            # A filter's output and a cut share their input's columns and
            # stored-row data, and a proved map's bare columns and a
            # fan-out-1 join's left columns are its input's column objects.
            shared = {"filter": 4, "cut": 4, "proved map": 2, "fan-out-1 join": 4}.get(name, 0)
            assert all(out.columns[i] is source.columns[i] for i in range(shared))
            if name in ("filter", "cut"):
                assert out.columns is source.columns and out.stored is source.stored
            else:
                assert out.stored is not source.stored


def test_a_source_remembers_at_most_its_count_of_outputs_in_order_of_use():
    rng = random.Random(1343)
    count = tabledata.MAX_REMEMBERED_OUTPUTS
    source = Table.of(PEOPLE, _people(rng, 25))
    filters = [make_filter(PEOPLE_PLAIN, f"income > {k}.0") for k in range(count + 5)]
    first = [step.apply(source) for step in filters[:count]]
    # Using the first output again makes it the latest; the next five
    # outputs then evict the five least recently used, filters 1 to 5.
    assert same_data(filters[0].apply(source), first[0])
    last = [step.apply(source) for step in filters[count:]]
    kept = [0] + list(range(6, count + 5))
    assert list(_outputs(source)) == [("filter", f"income > {k}.0") for k in kept]
    used = list(range(6, count)) + [0] + list(range(count, count + 5))
    assert _order_keys(source) == [("filter", f"income > {k}.0") for k in used]
    for k, out in zip(kept[-5:], last):
        assert _outputs(source)[("filter", f"income > {k}.0")][0] is out.held
    for k in range(1, 6):
        again = filters[k].apply(source)
        assert again.held is not first[k].held and again.held == first[k].held
    # Outputs remembered under outputs count toward the same source: a map
    # over a filter's output evicts the least recently used filter.
    mapped = make_map(PEOPLE_PLAIN, {"id": "id", "zip": "zip", "half": "income / 2.0"}, AGES)
    top = filters[-1].apply(source)
    under = mapped.apply(top)
    assert same_data(mapped.apply(top), under) and list(_outputs(top)) == [
        ("map", (("half", "income / 2.0"), ("id", "id"), ("zip", "zip")),
         (("id", "int64"), ("zip", "text"), ("half", "float64")))
    ]
    assert len(source._order) == count
    assert [key[0] for key in _order_keys(source)].count("map") == 1
    # Every remembered output is reachable from the source, through the
    # memo each one's data ends with.
    reachable, stack = 0, [remembered(source)]
    while stack:
        outputs = [entry for key, entry in stack.pop().items() if key[0] in STEPS]
        reachable += len(outputs)
        stack.extend(entry[-1] for entry in outputs)
    assert reachable == count
