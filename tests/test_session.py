import math
import sys
from fractions import Fraction

import pytest

from noisegate.errors import (
    BadBounds,
    EmptyTables,
    InsufficientBudget,
    MeasureMismatch,
    MissingIdColumn,
    NonPositiveBound,
    SchemaMismatch,
    TypeCheckError,
    TypeMismatch,
    UnboundedSensitivity,
)
from noisegate.measurements import PureDpNoise, compose_per_group, make_count
from noisegate.metrics import INF, PureDP, ZCDP
from noisegate.session import (
    AddMaxRows,
    AddRemoveId,
    Count,
    Filter,
    GroupBy,
    PrivacyBudget,
    Source,
    build_session,
    compile_query,
    keyset_from_tuples,
    parse_budget_amount,
    query,
)
from noisegate.tabledata import ColumnType, Schema, Table, TableDomain
from noisegate.transformations import ExpansionBranch

INT64 = ColumnType.INT64
FLOAT64 = ColumnType.FLOAT64
TEXT = ColumnType.TEXT

PEOPLE = Schema.of(("id", INT64), ("zip", TEXT), ("income", FLOAT64))


def people_table(n=6):
    rows = [
        (i, "981" if i % 2 == 0 else "982", float(10 * i))
        for i in range(n)
    ]
    return Table.of(PEOPLE, rows)


def fresh_session(budget=None, unit=None, seed=7, tables=None):
    return build_session(
        tables or {"people": people_table()},
        unit or AddMaxRows(1),
        budget or PrivacyBudget.pure(Fraction(10)),
        seed,
    )


# ---------------------------------------------------------------------------
# Budgets and privacy units.


def test_budget_amount_parsing():
    assert parse_budget_amount("0.4") == Fraction(2, 5)
    assert parse_budget_amount("2/5") == Fraction(2, 5)
    assert parse_budget_amount("3") == 3
    assert parse_budget_amount("inf") == INF
    with pytest.raises(TypeMismatch):
        parse_budget_amount("-1")
    with pytest.raises(TypeMismatch):
        parse_budget_amount("eps")


def test_budget_rejects_floats():
    with pytest.raises(TypeMismatch):
        PrivacyBudget.pure(0.4)
    # Exact alternatives are all accepted.
    assert PrivacyBudget.pure("0.4").amount == Fraction(2, 5)
    assert PrivacyBudget.pure(Fraction(2, 5)).amount == Fraction(2, 5)
    assert PrivacyBudget.zcdp(1).amount == 1
    assert PrivacyBudget.pure("inf").amount == INF
    assert PrivacyBudget.pure(1).measure == PureDP()
    assert PrivacyBudget.zcdp(1).measure == ZCDP()


def test_privacy_unit_validation():
    with pytest.raises(NonPositiveBound):
        AddMaxRows(0)
    with pytest.raises(NonPositiveBound):
        AddMaxRows(-3)
    assert AddRemoveId("id").id_column == "id"


def test_keyset_from_tuples():
    ks = keyset_from_tuples(
        [("zip", TEXT)], [("981",), ("982",), ("981",)]
    )
    assert ks.rows == (("981",), ("982",))
    with pytest.raises(TypeMismatch):
        keyset_from_tuples([("zip", TEXT)], [(1,)])
    with pytest.raises(TypeMismatch):
        keyset_from_tuples([("zip", TEXT)], [("a", "b")])
    for column, key in [
        (("zip", TEXT), ""),
        (("x", FLOAT64), math.nan),
        (("x", FLOAT64), math.inf),
        (("x", FLOAT64), -math.inf),
        (("n", INT64), 2**63),
        (("n", INT64), -(2**63) - 1),
    ]:
        with pytest.raises(TypeMismatch):
            keyset_from_tuples([column], [(key,)])


# ---------------------------------------------------------------------------
# Compilation: calibration must hit the spend exactly.

DOMAINS = {"people": TableDomain(PEOPLE, None)}


def test_count_calibration_pure():
    compiled = compile_query(
        query("people").count(),
        DOMAINS,
        AddMaxRows(1),
        PureDP(),
        Fraction(1),
    )
    assert compiled.unit_distance == 1
    assert compiled.measurement.privacy_function(1) == 1


def test_flat_map_calibration():
    # Three branches with max_rows 3: stability 3, so the mechanism has
    # to run at a third of the spend per unit of input distance.
    branches = [ExpansionBranch({"income": f"income + {i}"}) for i in range(3)]
    expr = (
        query("people")
        .flat_map(branches, Schema.of(("income", FLOAT64)), max_rows=3)
        .count()
    )
    compiled = compile_query(expr, DOMAINS, AddMaxRows(1), PureDP(), Fraction(3, 5))
    f = compiled.measurement.privacy_function
    assert f(1) == Fraction(3, 5)
    assert f.slope == Fraction(3, 5)


@pytest.mark.parametrize("spend", [Fraction(1), Fraction(2, 5), Fraction(7, 3)])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_calibration_exact_at_unit_distance(spend, k):
    for measure in (PureDP(), ZCDP()):
        compiled = compile_query(
            query("people").count(), DOMAINS, AddMaxRows(k), measure, spend
        )
        assert compiled.measurement.privacy_function(k) == spend


def test_grouped_zcdp_linearization_exact():
    ks = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
    expr = query("people").group_by(ks).count()
    compiled = compile_query(expr, DOMAINS, AddMaxRows(3), ZCDP(), Fraction(2, 7))
    f = compiled.measurement.privacy_function
    assert f.shape == "linear"
    assert f(3) == Fraction(2, 7)


def test_compile_needs_no_data():
    # Only schemas are consulted; evaluation happens later, on ask.
    compiled = compile_query(
        query("people").filter("income > 20").sum("income", 0, 100),
        DOMAINS,
        AddMaxRows(2),
        PureDP(),
        Fraction(1),
    )
    assert compiled.output_schema.names == ("sum",)
    assert compiled.measurement.privacy_function(2) == 1


def test_compile_rejects_infinite_spend():
    with pytest.raises(TypeCheckError):
        compile_query(query("people").count(), DOMAINS, AddMaxRows(1), PureDP(), INF)


def test_quantile_requires_pure_dp():
    expr = query("people").quantile("income", 0.5, 0.0, 100.0, 10)
    compile_query(expr, DOMAINS, AddMaxRows(1), PureDP(), Fraction(1))
    with pytest.raises(TypeCheckError):
        compile_query(expr, DOMAINS, AddMaxRows(1), ZCDP(), Fraction(1))


def test_type_errors_become_type_check_errors():
    bad = [
        query("nowhere").count(),
        query("people").filter("unknown > 3").count(),
        query("people").sum("zip", 0, 1),
        query("people").filter("income +").count(),
    ]
    for expr in bad:
        with pytest.raises(TypeCheckError):
            compile_query(expr, DOMAINS, AddMaxRows(1), PureDP(), Fraction(1))


def test_truncate_needs_id_metric():
    expr = query("people").truncate_by_id(2).count()
    with pytest.raises(TypeCheckError):
        compile_query(expr, DOMAINS, AddMaxRows(1), PureDP(), Fraction(1))


def test_unbounded_sensitivity_without_truncation():
    id_domains = {"people": TableDomain(PEOPLE, "id")}
    expr = query("people").count()
    with pytest.raises(UnboundedSensitivity):
        compile_query(expr, id_domains, AddRemoveId("id"), PureDP(), Fraction(1))
    # Truncation restores a finite bound.
    ok = compile_query(
        query("people").truncate_by_id(2).count(),
        id_domains,
        AddRemoveId("id"),
        PureDP(),
        Fraction(1),
    )
    assert ok.measurement.privacy_function(1) == 1


def test_aggregations_only_at_root():
    # The builder cannot express a filter over an aggregation, but a
    # hand-built tree can; compilation must reject it.
    from noisegate.session import Filter

    bad = Filter(query("people").count(), "count > 0")
    with pytest.raises(TypeCheckError):
        compile_query(bad, DOMAINS, AddMaxRows(1), PureDP(), Fraction(1))


def test_nodes_chain_only_in_legal_orders():
    # Nodes are their own builder: relational nodes offer every step,
    # GroupBy only aggregations, and an aggregation nothing more.
    ks = keyset_from_tuples([("zip", TEXT)], [("981",)])
    grouped = query("people").filter("income > 0").group_by(ks)
    assert grouped.count() == Count(GroupBy(Filter(Source("people"), "income > 0"), ks))
    assert not hasattr(grouped, "filter") and not hasattr(grouped, "group_by")
    finished = query("people").count()
    assert not hasattr(finished, "filter") and not hasattr(finished, "count")


# ---------------------------------------------------------------------------
# Sessions end to end.


def test_session_ledger_and_exhaustion():
    s = fresh_session(budget=PrivacyBudget.pure(1))
    s.evaluate(query("people").count(), PrivacyBudget.pure("2/5"))
    assert s.remaining_budget().amount == Fraction(3, 5)
    s.evaluate(query("people").count(), PrivacyBudget.pure("3/5"))
    assert s.remaining_budget().amount == 0
    with pytest.raises(InsufficientBudget):
        s.evaluate(query("people").count(), PrivacyBudget.pure("1/100"))


def test_failed_evaluate_charges_nothing():
    a = fresh_session(budget=PrivacyBudget.pure(1))
    b = fresh_session(budget=PrivacyBudget.pure(1))
    with pytest.raises(TypeCheckError):
        b.evaluate(query("people").filter("nope > 1").count(), PrivacyBudget.pure(1))
    with pytest.raises(InsufficientBudget):
        b.evaluate(query("people").count(), PrivacyBudget.pure(2))
    spend = PrivacyBudget.pure("1/2")
    expr = query("people").count()
    assert a.evaluate(expr, spend).rows == b.evaluate(expr, spend).rows
    assert b.remaining_budget().amount == Fraction(1, 2)


def test_session_measure_mismatch():
    s = fresh_session(budget=PrivacyBudget.pure(1))
    with pytest.raises(MeasureMismatch):
        s.evaluate(query("people").count(), PrivacyBudget.zcdp("1/2"))
    assert s.remaining_budget().amount == 1


def test_same_seed_same_outputs():
    def run():
        s = fresh_session(budget=PrivacyBudget.pure(3), seed=123456)
        out = [s.evaluate(query("people").count(), PrivacyBudget.pure(1))]
        out.append(
            s.evaluate(
                query("people").sum("income", 0, 50), PrivacyBudget.pure(1)
            )
        )
        return [t.rows for t in out]

    assert run() == run()


def test_scalar_results_are_one_row_tables():
    s = fresh_session(budget=PrivacyBudget.pure(INF))
    big = PrivacyBudget.pure(10**12)
    count = s.evaluate(query("people").count(), big)
    assert count.schema.names == ("count",)
    assert count.schema.type_of("count") == INT64
    assert count.rows == ((6,),)
    avg = s.evaluate(query("people").average("income", 0, 100, 1), big)
    assert avg.schema.type_of("average") == FLOAT64
    assert avg.rows == ((25.0,),)
    q = s.evaluate(query("people").quantile("income", 0.0, 0.0, 64.0, 2), big)
    assert q.schema.names == ("quantile",)
    assert q.rows == ((16.0,),)


def test_grouped_results_follow_keyset():
    s = fresh_session(budget=PrivacyBudget.pure(INF))
    ks = keyset_from_tuples([("zip", TEXT)], [("989",), ("981",), ("982",)])
    out = s.evaluate(
        query("people").group_by(ks).count(), PrivacyBudget.pure(10**12)
    )
    assert out.schema.names == ("zip", "count")
    # Keyset order is preserved; absent keys report zero.
    assert out.rows == (("989", 0), ("981", 3), ("982", 3))


def test_grouped_sum_zcdp_session():
    s = fresh_session(budget=PrivacyBudget.zcdp(INF))
    ks = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
    out = s.evaluate(
        query("people").group_by(ks).sum("income", 0, 100, 1),
        PrivacyBudget.zcdp(10**14),
    )
    assert out.rows == (("981", 60.0), ("982", 90.0))


def test_filter_then_count_pipeline():
    s = fresh_session(budget=PrivacyBudget.pure(INF))
    out = s.evaluate(
        query("people").filter("income >= 30").count(),
        PrivacyBudget.pure(10**12),
    )
    assert out.rows == ((3,),)


def test_map_pipeline():
    s = fresh_session(budget=PrivacyBudget.pure(INF))
    doubled = Schema.of(("twice", FLOAT64))
    out = s.evaluate(
        query("people").map({"twice": "income * 2"}, doubled).sum("twice", 0, 300, 1),
        PrivacyBudget.pure(10**12),
    )
    assert out.rows == ((300.0,),)


def test_join_public_pipeline():
    lookup = Table.of(
        Schema.of(("zip", TEXT), ("region", TEXT)),
        [("981", "west"), ("982", "east")],
    )
    s = fresh_session(budget=PrivacyBudget.pure(INF))
    out = s.evaluate(
        query("people").join_public(lookup, ("zip",)).filter("region == 'west'").count(),
        PrivacyBudget.pure(10**12),
    )
    assert out.rows == ((3,),)


def test_private_join_flow():
    visits = Table.of(
        Schema.of(("id", INT64), ("site", TEXT)),
        [(0, "x"), (0, "y"), (1, "x"), (2, "y"), (3, "x")],
    )
    tables = {"people": people_table(), "visits": visits}
    s = build_session(tables, AddMaxRows(1), PrivacyBudget.pure(INF), seed=3)
    expr = (
        query("people")
        .join_private(query("visits"), ("id",), left_bound=1, right_bound=2)
        .count()
    )
    out = s.evaluate(expr, PrivacyBudget.pure(10**12))
    # Each person row matches at most 2 visit rows; ids 0..3 have
    # 2+1+1+1 = 5 joined rows after truncation at those bounds.
    assert out.rows == ((5,),)


def test_add_remove_id_truncation_flow():
    events = Table.of(
        Schema.of(("id", INT64), ("v", FLOAT64)),
        [(0, 1.0), (0, 2.0), (0, 3.0), (1, 4.0), (2, 5.0)],
    )
    s = build_session(
        {"events": events},
        AddRemoveId("id"),
        PrivacyBudget.pure(INF),
        seed=11,
    )
    out = s.evaluate(
        query("events").truncate_by_id(2).count(),
        PrivacyBudget.pure(10**12),
    )
    # id 0 keeps 2 of 3 rows.
    assert out.rows == ((4,),)


def test_add_remove_id_multi_table_distance():
    t = Table.of(Schema.of(("id", INT64)), [(0,), (1,)])
    s = build_session(
        {"a": t, "b": t},
        AddRemoveId("id"),
        PrivacyBudget.pure(1),
        seed=1,
    )
    expr = query("a").truncate_by_id(1).count()
    compiled = compile_query(
        expr,
        {n: TableDomain(t.schema, "id") for n in ("a", "b")},
        AddRemoveId("id"),
        PureDP(),
        Fraction(1),
    )
    # One id can touch both tables, so the unit distance is 2 and the
    # guarantee is quoted there.
    assert compiled.unit_distance == 2
    assert compiled.measurement.privacy_function(2) == 1
    s.evaluate(expr, PrivacyBudget.pure(1))
    assert s.remaining_budget().amount == 0


def test_lone_surrogate_cell_does_not_change_the_outcome():
    # The canonical order is defined for every str, so a cell that has no
    # UTF-8 encoding cannot make a compiled query fail where a plain cell
    # would not.
    schema = Schema.of(("id", INT64), ("name", TEXT))

    def trajectory(cell):
        table = Table.of(schema, [(0, cell), (0, "b"), (1, "c")])
        s = build_session({"t": table}, AddRemoveId("id"), PrivacyBudget.pure(1), seed=5)
        expr = query("t").truncate_by_id(1).count()
        try:
            outcome = type(s.evaluate(expr, PrivacyBudget.pure("1/2")))
        except Exception as exc:
            outcome = type(exc)
        return outcome, s.remaining_budget()

    assert trajectory("\ud800") == trajectory("a")
    assert trajectory("a")[1] == PrivacyBudget.pure("1/2")


# Every evaluate either returns with exactly its spend charged or raises
# with nothing charged, and which of the two happens must not depend on the
# rows: the result table is built inside the measurement, before the charge.


def _outcome(rows, expr, spend, budget):
    schema = Schema.of(("g", TEXT), ("x", FLOAT64))
    s = build_session(
        {"t": Table.of(schema, rows)}, AddMaxRows(1), PrivacyBudget.pure(budget), seed=3
    )
    try:
        result = s.evaluate(expr, PrivacyBudget.pure(spend))
    except Exception as exc:
        return type(exc), None, s.remaining_budget().amount
    return Table, result.rows, s.remaining_budget().amount


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("grouped", [False, True])
def test_overflowing_sum_saturates_instead_of_raising(grouped, sign):
    source = query("t")
    if grouped:
        source = source.group_by(keyset_from_tuples([("g", TEXT)], [("a",)]))
    low, high = sorted((0, sign * 1e308))
    expr = source.sum("x", low, high, granularity="1e300")
    one = _outcome([("a", sign * 1e308)], expr, 10**12, 10**13)
    two = _outcome([("a", sign * 1e308)] * 2, expr, 10**12, 10**13)
    assert one[0] is two[0] is Table
    assert one[2] == two[2] == 10**13 - 10**12
    assert one[1][0][-1] == sign * 1e308
    assert two[1][0][-1] == sign * sys.float_info.max


@pytest.mark.parametrize("grouped", [False, True])
def test_count_beyond_int64_clamps_and_charges_once(grouped):
    source = query("t")
    if grouped:
        source = source.group_by(keyset_from_tuples([("g", TEXT)], [("a",)]))
    spend = Fraction(1, 10**25)
    kind, rows, remaining = _outcome([("a", 1.0)], source.count(), spend, 1)
    assert kind is Table
    assert remaining == 1 - spend
    value = rows[0][-1]
    assert type(value) is int and -(2**63) <= value <= 2**63 - 1


def test_quantile_bins_too_wide_for_float64_fail_before_the_charge():
    expr = query("t").quantile("x", 0.5, -1e308, 1e308, 4)
    assert _outcome([("a", 1.0)], expr, 1, 10) == (BadBounds, None, 10)


def test_per_group_checks_keys_and_value_column_when_built():
    domain = TableDomain(Schema.of(("g", TEXT), ("x", FLOAT64)))
    per_group = make_count(domain, PureDpNoise(Fraction(1)))
    keys = Schema.of(("g", TEXT))
    count = ("count", INT64)
    for key_rows in ([("a",), ("",)], [("a", "b")], [(1,)]):
        with pytest.raises(SchemaMismatch):
            compose_per_group(domain, keys, key_rows, per_group, count)
    with pytest.raises(SchemaMismatch):
        compose_per_group(
            domain, Schema.of(("x", FLOAT64)), [(math.nan,)], per_group, count
        )
    with pytest.raises(SchemaMismatch):
        compose_per_group(domain, keys, [("a",)], per_group, ("count", TEXT))


# ---------------------------------------------------------------------------
# build_session validation.


def test_build_session_validation():
    with pytest.raises(EmptyTables):
        build_session({}, AddMaxRows(1), PrivacyBudget.pure(1), seed=0)
    with pytest.raises(TypeMismatch):
        fresh_session(seed=-1)
    with pytest.raises(TypeMismatch):
        fresh_session(seed=2**64)
    with pytest.raises(TypeMismatch):
        fresh_session(seed="7")
    with pytest.raises(MissingIdColumn):
        build_session(
            {"people": people_table()},
            AddRemoveId("user"),
            PrivacyBudget.pure(1),
            seed=0,
        )


def test_session_introspection():
    s = fresh_session(budget=PrivacyBudget.zcdp("5/2"), unit=AddMaxRows(2))
    assert s.privacy_unit == AddMaxRows(2)
    assert s.measure == ZCDP()
    assert s.table_schemas() == {"people": PEOPLE}
    assert s.remaining_budget() == PrivacyBudget.zcdp(Fraction(5, 2))
