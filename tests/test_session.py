import ast
import gc
import itertools
import math
import random
import sys
import time
import tracemalloc
import typing
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    LoggingRandom,
    dataset_distance,
    gaussian_pmf,
    join_nesting_reference,
    join_reference,
    levels_reference,
    perturb_rows,
    random_table,
    remembered,
    same_data,
    truncate_reference,
    zcdp_divergence,
)
from noisegate.errors import (
    BadBounds,
    BadQuantile,
    DuplicateColumn,
    EmptyTables,
    InsufficientBudget,
    MeasureMismatch,
    MissingIdColumn,
    NoisegateError,
    NonPositiveBound,
    NonPositiveEpsilon,
    SchemaMismatch,
    ScriptError,
    TypeCheckError,
    TypeMismatch,
    UnboundedSensitivity,
)
from noisegate.cli import parse_script
from noisegate.measurements import MAX_QUANTILE_BINS, PureDpNoise, compose_per_group, make_count
from noisegate import measurements, metrics, session as session_module, transformations
from noisegate.metrics import INF, AddRemoveIds, PureDP, SymmetricDifference, ZCDP
from noisegate.records import record_fields
from noisegate.rng import RngStream
from noisegate.session import (
    _FRAME_BUDGET,
    _MAX_JOIN_NESTING,
    _Aggregable,
    _Relational,
    AddMaxRows,
    AddRemoveId,
    Average,
    Count,
    Filter,
    FlatMap,
    GroupBy,
    Map,
    PrivacyBudget,
    QUERY_NODES,
    Quantile,
    QueryExpr,
    Source,
    Sum,
    build_session,
    compile_query,
    keyset_from_tuples,
    parse_budget_amount,
    query,
)
from noisegate.tabledata import (
    MAX_REMEMBERED_OUTPUTS,
    ColumnType,
    KeySet,
    Schema,
    Table,
    TableDomain,
    load_csv,
    load_schema_file,
)
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
    # bool is an int subclass, but no exact amount.
    for flag in (True, False):
        with pytest.raises(TypeMismatch):
            parse_budget_amount(flag)


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


def test_a_budget_whose_measure_is_not_a_measure_is_refused():
    # Text in place of PureDP() would build a session that no spend fits.
    for measure in ("pure", "zcdp", PureDP, None):
        with pytest.raises(TypeMismatch):
            PrivacyBudget(measure, 1)
    with pytest.raises(TypeMismatch):
        build_session(
            {"people": people_table()}, AddMaxRows(1), PrivacyBudget("pure", 10), seed=0
        )
    # Nor can a spend be built with one, so nothing is charged.
    s = fresh_session()
    with pytest.raises(TypeMismatch):
        s.evaluate(query("people").count(), PrivacyBudget("pure", 1))
    assert s.remaining_budget() == PrivacyBudget.pure(10)


def test_privacy_unit_validation():
    with pytest.raises(NonPositiveBound):
        AddMaxRows(0)
    with pytest.raises(NonPositiveBound):
        AddMaxRows(-3)
    assert AddRemoveId("id").id_column == "id"


@pytest.mark.parametrize("id_column", [5, ["a"], "", None, b"id"])
def test_an_id_column_that_is_not_a_non_empty_string_is_refused(id_column):
    # Refused where the unit is built, not later as a table that lacks it.
    with pytest.raises(TypeMismatch, match="AddRemoveId.id_column"):
        AddRemoveId(id_column)


def test_every_amount_goes_through_one_rule():
    assert parse_budget_amount is metrics.parse_budget_amount
    assert parse_budget_amount(2) == 2
    assert parse_budget_amount(Fraction(1, 3)) == Fraction(1, 3)
    assert parse_budget_amount(INF) == INF
    for bad in (0.5, -1, Fraction(-1, 2), "-1/2", None):
        with pytest.raises(TypeMismatch):
            parse_budget_amount(bad)
    with pytest.raises(TypeMismatch):
        compile_query(query("people").count(), DOMAINS, AddMaxRows(1), PureDP(), 0.5)


@pytest.mark.parametrize("text", ["1e1000000000", "1e-1000000000", "1E+4301", "2.5e-4301"])
def test_a_decimal_exponent_beyond_4300_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(TypeMismatch):
        parse_budget_amount(text)
    assert time.perf_counter() - start < 0.1


def test_a_decimal_exponent_up_to_4300_is_read_exactly():
    assert parse_budget_amount("1e40") == 10**40
    assert parse_budget_amount("1e4300") == 10**4300
    assert parse_budget_amount("1e-4300") == Fraction(1, 10**4300)
    assert parse_budget_amount(" 2.5E+3 ") == 2500


def test_privacy_units_carry_their_metric_and_distance():
    assert AddMaxRows(3).distance(2) == 3
    assert AddRemoveId("u").distance(2) == 2
    assert AddMaxRows(3).metric == SymmetricDifference()
    assert AddRemoveId("u").metric == AddRemoveIds("u")
    assert AddMaxRows(3).id_column is None


def test_an_object_that_is_not_a_privacy_unit_is_a_type_check_error():
    expr = query("people").count()
    with pytest.raises(TypeCheckError):
        compile_query(expr, DOMAINS, object(), PureDP(), Fraction(1))
    with pytest.raises(TypeCheckError):
        build_session({"people": people_table()}, object(), PrivacyBudget.pure(1), seed=0)


def test_keyset_from_tuples():
    ks = keyset_from_tuples(
        [("zip", TEXT)], [("981",), ("982",), ("981",)]
    )
    assert ks.rows == (("981",), ("982",))
    with pytest.raises(TypeMismatch):
        keyset_from_tuples([("zip", TEXT)], [(1,)])
    with pytest.raises(TypeMismatch):
        keyset_from_tuples([("zip", TEXT)], [("a", "b")])
    with pytest.raises(TypeMismatch):
        keyset_from_tuples([("zip", TEXT)], 5)
    with pytest.raises(TypeMismatch):
        keyset_from_tuples([("zip", TEXT)], [5])  # a key that is no sequence
    with pytest.raises(TypeMismatch):
        keyset_from_tuples(5, [("981",)])  # columns that are no iterable
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


@pytest.mark.parametrize("node, method", [(Sum, "sum"), (Average, "average")])
def test_a_granularity_means_the_same_however_the_node_is_built(node, method):
    # A float granularity is the decimal it prints as: 0.1 is 1/10, not
    # the binary fraction nearest it, for the builder and the node alike.
    table = Table.of(Schema.of(("v", FLOAT64)), [(0.25,), (0.35,), (1.05,)])
    built = getattr(query("t"), method)("v", 0, 2, 0.1)
    direct = node(query("t"), "v", 0, 2, 0.1)
    assert built == direct
    assert direct.granularity == Fraction(1, 10)
    released = []
    for expr in (built, direct):
        s = build_session({"t": table}, AddMaxRows(1), PrivacyBudget.pure(10), seed=7)
        released.append(s.evaluate(expr, PrivacyBudget.pure(10)).rows)
    assert released[0] == released[1]


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


def test_grouped_zcdp_map_is_the_quadratic_exact_at_the_unit():
    ks = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
    expr = query("people").group_by(ks).count()
    compiled = compile_query(expr, DOMAINS, AddMaxRows(3), ZCDP(), Fraction(2, 7))
    f = compiled.measurement.privacy_function
    assert f.slope == 0
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
    # The builder cannot express a filter over an aggregation or over a
    # group-by, but a hand-built tree can; compilation must reject both.
    keys = keyset_from_tuples([("zip", TEXT)], [("981",)])
    for bad in (
        Filter(query("people").count(), "count > 0"),
        Count(Filter(GroupBy(query("people"), keys), "income > 0.0")),
    ):
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


def _builders(cls):
    return {name for name, value in vars(cls).items() if callable(value) and name[0] != "_"}


def test_each_node_class_adds_its_builder_where_the_node_may_follow():
    assert _builders(_Relational) == {
        "filter", "map", "flat_map", "join_public", "join_private", "truncate_by_id",
        "group_by",
    }
    assert _builders(_Aggregable) == {"count", "sum", "average", "quantile"}
    assert Source._builder is None
    for node in QUERY_NODES.values():
        assert _builders(node) == set(), node
    assert query("p").sum("income", low=0, high=1) == Sum(Source("p"), "income", 0, 1)
    columns = {"twice": "income * 2"}
    mapped = query("p").map(columns, Schema.of(("twice", FLOAT64)))
    columns["half"] = "income / 2"
    assert mapped.columns == (("twice", "income * 2"),)


# One value per field type that query nodes declare: as script JSON, and as
# a Python argument with every sequence given as a list.  A Table is equal
# only to itself, so the Python side reuses the decoded one (None here).
_FIELD_SAMPLES = {
    QueryExpr: ({"kind": "Source", "table": "visits"}, Source("visits")),
    str: ("income > 1", "income > 1"),
    int: (3, 3),
    float: (0.5, 0.5),
    Fraction: ("0.1", 0.1),
    Schema: ({"columns": [{"name": "zip", "type": "text"}]}, Schema.of(("zip", TEXT))),
    Table: ({"columns": [{"name": "zip", "type": "text"}], "rows": [["981"]]}, None),
    KeySet: (
        {"columns": [{"name": "zip", "type": "text"}], "rows": [["981"], ["982"]]},
        keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)]),
    ),
    tuple[tuple[str, str], ...]: ({"zip": "zip"}, {"zip": "zip"}),
    tuple[str, ...]: (["zip"], ["zip"]),
    tuple[ExpansionBranch, ...]: (
        [{"columns": {"zip": "zip"}, "when": "income > 1"}],
        [ExpansionBranch({"zip": "zip"}, "income > 1")],
    ),
}


@pytest.mark.parametrize("kind", sorted(QUERY_NODES))
def test_a_builder_a_direct_node_and_a_script_give_one_node(kind):
    node = QUERY_NODES[kind]
    hints = typing.get_type_hints(node)
    fields = [name for name in record_fields(node) if name != "child"]
    doc = {"kind": kind, **{name: _FIELD_SAMPLES[hints[name]][0] for name in fields}}
    if node is not Source:
        doc["child"] = {"kind": "Source", "table": "people"}
    script = {"queries": [{"name": "q", "spend": "1", "expr": doc}]}
    decoded = parse_script(script)[0].expr
    args = [
        getattr(decoded, name) if hints[name] is Table else _FIELD_SAMPLES[hints[name]][1]
        for name in fields
    ]
    if node is Source:
        built, direct = query(*args), Source(*args)
    else:
        built = getattr(query("people"), node._builder)(*args)
        direct = node(Source("people"), *args)
    assert type(built) is node
    assert built == direct == decoded
    assert hash(built) == hash(direct) == hash(decoded)


def test_a_map_or_flat_map_node_shares_no_mapping_with_its_caller():
    schema = Schema.of(("twice", FLOAT64))
    columns = {"twice": "income * 2"}
    flat = query("p").flat_map([ExpansionBranch(columns, "income > 1")], schema, 1)
    columns["twice"] = "income * 3"
    columns["half"] = "income / 2"
    branch = ExpansionBranch([("twice", "income * 2")], "income > 1")
    assert flat.branches == (branch,)
    assert flat == FlatMap(Source("p"), [branch], schema, 1)
    assert {flat: "flat"}[FlatMap(Source("p"), [branch], schema, 1)] == "flat"
    # The same expressions in any order, as a mapping or as pairs, are one node.
    both = Schema.of(("a", FLOAT64), ("b", FLOAT64))
    assert Map(Source("p"), {"b": "income", "a": "age"}, both) == Map(
        Source("p"), [("a", "age"), ("b", "income")], both
    )
    with pytest.raises(DuplicateColumn):
        ExpansionBranch([("a", "age"), ("a", "income")])


@pytest.mark.parametrize(
    "columns, when",
    [({"a": 5}, None), ([("a", "age", "x")], None), (["ab"], None), ({"a": "age"}, 5)],
)
def test_a_branch_refuses_a_name_expression_or_guard_that_is_not_text(columns, when):
    with pytest.raises(TypeMismatch, match="^ExpansionBranch"):
        ExpansionBranch(columns, when)
    if when is None:
        with pytest.raises(TypeMismatch, match="^Map.columns"):
            query("p").map(columns, Schema.of(("a", FLOAT64)))
    if isinstance(columns, dict):  # as a script can spell it
        branch = {"columns": columns, "when": when}
        expr = {"kind": "FlatMap", "child": {"kind": "Source", "table": "p"},
                "branches": [branch], "schema": {"columns": [{"name": "a", "type": "float64"}]},
                "max_rows": 1}
        with pytest.raises(ScriptError, match=r"^queries\[0\]/FlatMap.branches\[0\]: Expansion"):
            parse_script({"queries": [{"name": "q", "spend": "1", "expr": expr}]})


def test_a_sampler_swapped_before_evaluate_sees_every_draw(monkeypatch):
    # Each aggregation takes its sampler from `measurements` when it is
    # built, inside evaluate: one draw per key for a count, two for an
    # average (its sum's first, at 1/100 of the count's rate: 100 grains per
    # row), and one for an ungrouped sum.
    keys = keyset_from_tuples([("zip", TEXT)], [("981",), ("983",), ("982",)])
    geometric, gaussian = "sample_two_sided_geometric", "sample_discrete_gaussian"
    asks = [
        (query("people").group_by(keys).count(), PrivacyBudget.pure(1),
         [(geometric, Fraction(1))] * 3),
        (query("people").group_by(keys).average("income", 0, 100, 1), PrivacyBudget.pure(2),
         [(geometric, Fraction(1, 100)), (geometric, Fraction(1))] * 3),
        (query("people").sum("income", 0, 100, 1), PrivacyBudget.zcdp("1/2"),
         [(gaussian, Fraction(10000))]),
    ]

    def release(expr, spend):
        budget = PrivacyBudget(spend.measure, 10)
        return fresh_session(budget=budget).evaluate(expr, spend).rows

    unpatched = [release(expr, spend) for expr, spend, _ in asks]
    draws = []
    for name in (geometric, gaussian):

        def logged(parameter, rng, name=name, sample=getattr(measurements, name)):
            draws.append((name, parameter))
            return sample(parameter, rng)

        monkeypatch.setattr(measurements, name, logged)
    for (expr, spend, expected), rows in zip(asks, unpatched):
        draws.clear()
        assert release(expr, spend) == rows
        assert draws == expected


# ---------------------------------------------------------------------------
# Sessions end to end.


def test_session_ledger_and_exhaustion(monkeypatch):
    s = fresh_session(budget=PrivacyBudget.pure(1))
    s.evaluate(query("people").count(), PrivacyBudget.pure("2/5"))
    assert s.remaining_budget().amount == Fraction(3, 5)
    s.evaluate(query("people").count(), PrivacyBudget.pure("3/5"))
    assert s.remaining_budget().amount == 0
    with pytest.raises(InsufficientBudget):
        s.evaluate(query("people").count(), PrivacyBudget.pure("1/100"))

    # A long session stays exact: 300 asks whose spends cycle through 1/3,
    # 2/7 and 1/10 spend a budget of their sum to exactly Fraction(0), and
    # each draws what its query alone draws from the stream of its ordinal.
    logs, generator = [], RngStream.generator

    def logged(stream):
        made = LoggingRandom(0)
        made.setstate(generator(stream).getstate())
        logs.append((stream.path, made.calls))
        return made

    monkeypatch.setattr(RngStream, "generator", logged)
    spends = [Fraction(1, 3), Fraction(2, 7), Fraction(1, 10)] * 100
    people = people_table()
    s = fresh_session(budget=PrivacyBudget.pure(sum(spends)), tables={"people": people})
    expr = query("people").count()
    answers = [s.evaluate(expr, PrivacyBudget.pure(spend)).rows for spend in spends]
    remaining = s.remaining_budget().amount
    assert type(remaining) is Fraction and remaining == 0
    with pytest.raises(InsufficientBudget):
        s.evaluate(expr, PrivacyBudget.pure(Fraction(1, 10**9)))
    assert s.remaining_budget().amount == 0
    assert [path for path, _ in logs] == [(n,) for n in range(300)]
    asked = [calls for _, calls in logs]
    logs.clear()
    for n, spend in enumerate(spends):
        alone = compile_query(expr, DOMAINS, AddMaxRows(1), PureDP(), spend).measurement
        assert alone.eval((people,), RngStream(7).child(n)).rows == answers[n]
    assert [calls for _, calls in logs] == asked


def test_a_remaining_budget_of_more_than_4300_digits_has_a_repr():
    s = fresh_session(budget=PrivacyBudget.pure("1e4300"))
    s.evaluate(query("people").count(), PrivacyBudget.pure("1/2"))
    remaining = s.remaining_budget()
    assert remaining.amount == Fraction(2 * 10**4300 - 1, 2)
    text = f"PrivacyBudget(measure=PureDP(), amount=Fraction(1{'9' * 4300}, 2))"
    assert repr(remaining) == str(remaining) == text


def test_a_session_builds_its_root_once(monkeypatch):
    # Each table's select step is built with the session, never by an ask.
    built, select = [], transformations.make_select_table

    def counted(components, metrics, index):
        built.append(index)
        return select(components, metrics, index)

    monkeypatch.setattr(transformations, "make_select_table", counted)
    visits = Table.of(Schema.of(("id", INT64), ("site", TEXT)), [(0, "a"), (1, "b")])
    s = fresh_session(tables={"people": people_table(), "visits": visits})
    assert built == [0, 1]
    for _ in range(5):
        s.evaluate(query("visits").count(), PrivacyBudget.pure(1))
    assert built == [0, 1]


@pytest.mark.parametrize("id_unit", [False, True])
def test_a_session_compiles_every_kind_as_compile_query_does_alone(monkeypatch, id_unit):
    people = people_table()
    visits = Table.of(Schema.of(("id", INT64), ("site", TEXT)), [(0, "a"), (1, "b")])
    id_column = "id" if id_unit else None
    domains = {
        "people": TableDomain(people.schema, id_column),
        "visits": TableDomain(visits.schema, id_column),
    }
    unit, source = (AddRemoveId("id"), _truncated) if id_unit else (AddMaxRows(2), query)
    compiled, compile_alone = [], session_module.compile_query

    def kept(*args):
        compiled.append(compile_alone(*args))
        return compiled[-1]

    monkeypatch.setattr(session_module, "compile_query", kept)
    s = build_session({"people": people, "visits": visits}, unit, PrivacyBudget.pure(100), 1)
    spend = Fraction(1, 3)
    for expr in _every_kind_queries(source):
        s.evaluate(expr, PrivacyBudget.pure(spend))
        ours, alone = compiled[-1], compile_alone(expr, domains, unit, PureDP(), spend)
        assert ours.measurement.privacy_function == alone.measurement.privacy_function
        assert (ours.unit_distance, ours.output_schema) == (alone.unit_distance, alone.output_schema)
    assert len(compiled) == 8


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


@pytest.mark.parametrize("terms", [1000, 5000])
def test_a_predicate_too_deep_to_compile_is_refused_before_any_charge(terms):
    s = fresh_session(budget=PrivacyBudget.pure(1))
    predicate = "id > 0 and " + " + ".join(["id"] * terms) + " > 0"
    with pytest.raises(TypeCheckError, match="nests too deeply"):
        s.evaluate(query("people").filter(predicate).count(), PrivacyBudget.pure("1/2"))
    assert s.remaining_budget().amount == 1


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


def test_a_group_by_builds_no_step_and_its_keys_are_still_checked(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grouped query built a grouped view")

    monkeypatch.setattr(transformations, "make_grouped_view", refuse)
    s = fresh_session(budget=PrivacyBudget.pure(INF))
    ks = keyset_from_tuples([("zip", TEXT)], [("989",), ("981",), ("982",)])
    for expr in (query("people").group_by(ks), query("people").filter("id > 0").group_by(ks)):
        out = s.evaluate(expr.count(), PrivacyBudget.pure(10**12))
        assert out.rows[0] == ("989", 0) and [key for key, _ in out.rows] == ["989", "981", "982"]

    s = fresh_session()
    missing = keyset_from_tuples([("dept", TEXT)], [("a",)])
    retyped = keyset_from_tuples([("zip", INT64)], [(981,)])
    for keys, message in ((missing, "not in the data"), (retyped, "is text in the data")):
        for expr in (query("people").group_by(keys).count(),
                     query("people").group_by(keys).sum("income", 0, 100)):
            with pytest.raises(TypeCheckError, match=message):
                s.evaluate(expr, PrivacyBudget.pure(1))
    assert s.remaining_budget().amount == 10


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


@pytest.mark.parametrize("low, high", [(10**400, 10**401), (-(10**400), 0), (0, Fraction(10**400, 3))])
@pytest.mark.parametrize("aggregation", ["sum", "average", "quantile"])
def test_bounds_beyond_float64_fail_before_the_charge(aggregation, low, high):
    source = query("t")
    if aggregation == "quantile":
        expr = source.quantile("x", 0.5, low, high, 4)
    else:
        expr = getattr(source, aggregation)("x", low, high)
    assert _outcome([("a", 1.0)], expr, 1, 10) == (BadBounds, None, 10)


def test_quantile_bins_beyond_the_cap_fail_before_the_charge():
    for bins in (MAX_QUANTILE_BINS + 1, 10**9):
        expr = query("t").quantile("x", 0.5, 0.0, 1.0, bins)
        assert _outcome([("a", 1.0)], expr, 1, 10) == (BadBounds, None, 10)
    expr = query("t").quantile("x", 0.5, 0.0, 1.0, MAX_QUANTILE_BINS)
    assert _outcome([("a", 1.0)], expr, 1, 10)[::2] == (Table, 9)


def test_per_group_checks_keys_and_value_column_when_built():
    domain = TableDomain(Schema.of(("g", TEXT), ("x", FLOAT64)))
    per_group = make_count(domain, PureDpNoise(Fraction(1)))
    keys = Schema.of(("g", TEXT))
    count = ("count", INT64)
    for key_rows in ([("a",), ("",)], [("a", "b")], [(1,)]):
        with pytest.raises(SchemaMismatch):
            compose_per_group(domain, KeySet(keys, key_rows), per_group, count)
    with pytest.raises(SchemaMismatch):
        compose_per_group(
            domain, KeySet(Schema.of(("x", FLOAT64)), [(math.nan,)]), per_group, count
        )
    with pytest.raises(SchemaMismatch):
        compose_per_group(domain, KeySet(keys, [("a",)]), per_group, ("count", TEXT))


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
    # A table that is not a Table and a budget that is not a PrivacyBudget
    # are refused before any session exists.
    with pytest.raises(TypeMismatch):
        build_session({"t": [(1,)]}, AddMaxRows(1), PrivacyBudget.pure(1), seed=0)
    with pytest.raises(TypeMismatch):
        build_session({"people": people_table()}, AddMaxRows(1), "1", seed=0)
    # So are tables given as a list rather than a mapping of names.
    with pytest.raises(TypeMismatch):
        build_session([people_table()], AddMaxRows(1), PrivacyBudget.pure(1), seed=0)
    # And a table name that is not a string, which no Source could name,
    # alone or beside a string one that it could not be sorted with.
    for tables in ({5: people_table()}, {5: people_table(), "p": people_table()}):
        with pytest.raises(TypeMismatch, match="table name 5"):
            build_session(tables, AddMaxRows(1), PrivacyBudget.pure(1), seed=0)
    # So is a spend that is not a PrivacyBudget, before anything is charged.
    s = fresh_session()
    with pytest.raises(TypeMismatch):
        s.evaluate(query("people").count(), "1")
    assert s.remaining_budget() == PrivacyBudget.pure(10)


@pytest.mark.parametrize("seed", [True, False])
def test_a_bool_seed_is_refused_before_anything_is_charged(seed):
    # bool is an int subclass: a bool seed would pass the range check, and
    # then every evaluate would charge its spend and fail to derive a stream.
    with pytest.raises(TypeMismatch):
        fresh_session(seed=seed)
    s = fresh_session(seed=int(seed))
    s.evaluate(query("people").count(), PrivacyBudget.pure(Fraction(1, 2)))
    assert s.remaining_budget() == PrivacyBudget.pure(Fraction(19, 2))


def _refused_when_built(build):
    """Whether building a query raises TypeMismatch, with nothing charged
    to a session that was to evaluate it."""
    s = build_session(
        {"t": Table.of(Schema.of(("x", FLOAT64)), [(1.0,)])},
        AddMaxRows(1), PrivacyBudget.pure(10), seed=3,
    )
    with pytest.raises(TypeMismatch):
        s.evaluate(build(), PrivacyBudget.pure(1))
    return s.remaining_budget().amount == 10


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_row_bound_or_bin_count(flag):
    with pytest.raises(NonPositiveBound):
        AddMaxRows(flag)
    assert _refused_when_built(lambda: query("t").quantile("x", 0.5, 0.0, 1.0, flag))
    # Nor is a bool an exact amount, a clamping bound, a quantile rank or
    # a granularity: each raises before anything is charged, a node's
    # field when the node is built.
    with pytest.raises(TypeMismatch):
        PrivacyBudget.pure(flag)
    assert _outcome([("a", 1.0)], query("t").count(), flag, 10) == (TypeMismatch, None, 10)
    for aggregation in ("sum", "average"):
        build = getattr(query("t"), aggregation)
        assert _refused_when_built(lambda: build("x", flag, 1.0))
        assert _refused_when_built(lambda: build("x", 0.0, flag))
        assert _refused_when_built(lambda: build("x", 0.0, 1.0, granularity=flag))
    assert _refused_when_built(lambda: query("t").quantile("x", 0.5, flag, 1.0, 4))
    assert _refused_when_built(lambda: query("t").quantile("x", 0.5, 0.0, flag, 4))
    assert _refused_when_built(lambda: query("t").quantile("x", flag, 0.0, 1.0, 4))
    with pytest.raises(ValueError):
        measurements.make_geometric(1, flag)
    with pytest.raises(ValueError):
        measurements.make_discrete_gaussian(1, flag)


def test_text_is_no_bound_rank_or_granularity():
    # Each raises when its node is built, with nothing charged.
    assert _refused_when_built(lambda: query("t").sum("x", "0", "1"))
    assert _refused_when_built(lambda: query("t").quantile("x", "0.5", 0.0, 1.0, 4))
    assert _refused_when_built(lambda: query("t").sum("x", 0, 1, granularity="abc"))
    # The measurements refuse text bounds and ranks, and bools, too.
    domain = TableDomain(Schema.of(("x", FLOAT64)))
    noise = PureDpNoise(Fraction(1))
    for low, high in (("0", "1"), (True, 1.0), (0.0, False)):
        with pytest.raises(BadBounds):
            measurements.make_sum(domain, "x", low, high, 1, noise)
    for q in ("0.5", True):
        with pytest.raises(BadQuantile):
            measurements.make_quantile(domain, "x", q, 0.0, 1.0, 4, Fraction(1))


def test_session_introspection():
    s = fresh_session(budget=PrivacyBudget.zcdp("5/2"), unit=AddMaxRows(2))
    assert s.privacy_unit == AddMaxRows(2)
    assert s.measure == ZCDP()
    assert s.table_schemas() == {"people": PEOPLE}
    assert s.remaining_budget() == PrivacyBudget.zcdp(Fraction(5, 2))


# ---------------------------------------------------------------------------
# Row failures: after a query compiles, no row can make it raise.  A row
# whose filter predicate fails counts as false, and a map row or flat-map
# branch that fails to evaluate or to fit its column is dropped.


def _probe_trajectory(rows):
    schema = Schema.of(("age", INT64), ("income", FLOAT64))
    s = build_session(
        {"t": Table.of(schema, rows)}, AddMaxRows(1), PrivacyBudget.pure(1), seed=11
    )
    big = Schema.of(("big", INT64))
    probes = [
        query("t").filter("income * 1e305 > 0.0").count(),
        query("t").map({"big": "age * 1000000000000000"}, big).count(),
        query("t")
        .flat_map([ExpansionBranch({"big": "age * 1000000000000000"})], big, 1)
        .count(),
    ]
    trajectory = []
    for expr in probes:
        try:
            outcome = type(s.evaluate(expr, PrivacyBudget.pure("1/4")))
        except Exception as exc:
            outcome = type(exc)
        trajectory.append((outcome, s.remaining_budget().amount))
    return trajectory


def test_a_failing_row_does_not_change_the_outcome():
    plain = [(30, 100.0), (40, 200.0)]
    clean = _probe_trajectory(plain)
    assert clean == [
        (Table, Fraction(3, 4)), (Table, Fraction(1, 2)), (Table, Fraction(1, 4))
    ]
    # income * 1e305 is not a finite float and age * 10**15 is outside
    # int64 on this one row.
    assert _probe_trajectory(plain + [(10**4, 1e4)]) == clean


# ---------------------------------------------------------------------------
# Stack depth: a compiled query needs at most _FRAME_BUDGET frames, so no
# outcome can depend on the rows through the recursion limit.

DEMO = Path(__file__).resolve().parents[1] / "demo"


@pytest.fixture(scope="module")
def demo_people():
    schema = load_schema_file(DEMO / "schema.json")["people"].schema
    return load_csv(DEMO / "data" / "people.csv", schema)


def _demo_session(people):
    return build_session({"people": people}, AddMaxRows(1), PrivacyBudget.pure(10), 1)


def _frames_here():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _at_depth(depth, fn):
    return fn() if depth == 0 else _at_depth(depth - 1, fn)


def _outcome_class(session, expr):
    """A result, or the name of the error; the budget says what was charged."""
    try:
        session.evaluate(expr, PrivacyBudget.pure(1))
    except (NoisegateError, RecursionError) as exc:
        assert session.remaining_budget().amount == 10
        return type(exc).__name__
    assert session.remaining_budget().amount == 9
    return "result"


def _item_1_query(threshold, column, terms):
    # The sum is evaluated on every row, whatever the threshold; it decides
    # the outcome only on rows older than the threshold, and the demo
    # data's oldest person is 79.
    predicate = f"age > {threshold} and " + " + ".join([column] * terms) + " > 0"
    expr = query("people").filter(predicate)
    for _ in range(100):
        expr = expr.filter("age > -1")
    return expr.count()


@pytest.mark.parametrize(
    "column, terms, shallow",
    [("age", 800, "TypeCheckError"), ("income", 60, "result")],
    ids=["past the expression cap", "within it"],
)
def test_no_outcome_depends_on_the_rows_at_any_caller_depth(
    demo_people, column, terms, shallow
):
    for depth in range(0, 901, 50):
        outcomes = {
            threshold: _at_depth(
                depth,
                lambda: _outcome_class(
                    _demo_session(demo_people), _item_1_query(threshold, column, terms)
                ),
            )
            for threshold in (78, 1_000_000)
        }
        assert outcomes[78] == outcomes[1_000_000], (depth, outcomes)
        assert outcomes[78] in ("result", "TypeCheckError"), (depth, outcomes)
        if depth == 0:
            assert outcomes[78] == shallow


def _evaluate_with_headroom(session, expr, headroom):
    limit = sys.getrecursionlimit()
    # evaluate's own frame is one below this one.
    sys.setrecursionlimit(_frames_here() + 1 + headroom)
    try:
        return session.evaluate(expr, PrivacyBudget.pure(1))
    finally:
        sys.setrecursionlimit(limit)


def test_the_deepest_allowed_query_evaluates_within_the_frame_budget(demo_people):
    # A 64-level float predicate under private joins nested as deeply as
    # they may be, grouped: 62 terms, their comparison and the `and`.
    predicate = "age > -1 and " + " + ".join(["income"] * 62) + " > 0"
    expr = query("people").filter(predicate)
    zips = query("people").map({"zip": "zip"}, Schema.of(("zip", TEXT)))
    for _ in range(_MAX_JOIN_NESTING):
        expr = expr.join_private(zips, ["zip"], 1, 1)
    keys = keyset_from_tuples([("zip", TEXT)], [("98101",), ("98102",)])

    s = _demo_session(demo_people)
    result = _evaluate_with_headroom(s, expr.group_by(keys).count(), _FRAME_BUDGET)
    assert len(result.rows) == 2
    assert s.remaining_budget().amount == 9

    s = _demo_session(demo_people)
    with pytest.raises(TypeCheckError, match="frames of stack"):
        _evaluate_with_headroom(s, expr.group_by(keys).count(), _FRAME_BUDGET - 1)
    with pytest.raises(TypeCheckError, match="nest too deeply"):
        s.evaluate(expr.join_private(zips, ["zip"], 1, 1).count(), PrivacyBudget.pure(1))
    assert s.remaining_budget().amount == 10


def test_the_deepest_query_of_nested_ands_evaluates_within_the_frame_budget(demo_people):
    # As above, with a 64-level predicate of nested `and`s: before CPython
    # 3.12 a comprehension over their operands took a frame per level of
    # its own, and compiling it needed about 150 frames.
    predicate = "income > 0"
    for _ in range(62):
        predicate = f"income > 0 and ({predicate})"
    assert levels_reference(ast.parse(predicate, mode="eval").body) == 64
    expr = query("people").filter(predicate)
    zips = query("people").map({"zip": "zip"}, Schema.of(("zip", TEXT)))
    for _ in range(_MAX_JOIN_NESTING):
        expr = expr.join_private(zips, ["zip"], 1, 1)
    keys = keyset_from_tuples([("zip", TEXT)], [("98101",), ("98102",)])
    s = _demo_session(demo_people)
    result = _evaluate_with_headroom(s, expr.group_by(keys).count(), _FRAME_BUDGET)
    assert len(result.rows) == 2
    assert s.remaining_budget().amount == 9


def _random_query(rng, size, hints):
    """A random tree of `size` nodes over every kind in QUERY_NODES, a
    private join one node in three, with random subtrees on both sides of
    a join; aggregations and group-bys may sit anywhere, as a node's
    fields allow and compile does not."""
    kinds = sorted(QUERY_NODES)
    while True:
        kind = "JoinPrivate" if rng.random() < 1 / 3 else rng.choice(kinds)
        subtrees = [name for name, hint in hints[kind].items() if hint is QueryExpr]
        if len(subtrees) <= size - 1 and (subtrees or size == 1):
            break
    sizes = [1] * len(subtrees)
    for _ in range(size - 1 - len(subtrees)):
        sizes[rng.randrange(len(sizes))] += 1
    built = dict(zip(subtrees, (_random_query(rng, n, hints) for n in sizes)))
    table = Table.of(Schema.of(("zip", TEXT)), [("981",)])
    args = [
        built[name] if name in built else table if hint is Table else _FIELD_SAMPLES[hint][1]
        for name, hint in hints[kind].items()
    ]
    return QUERY_NODES[kind](*args)


@pytest.mark.parametrize("seed", range(4))
def test_each_node_records_how_deeply_private_joins_nest_below_it(seed):
    hints = {
        kind: {name: typing.get_type_hints(node)[name] for name in record_fields(node)}
        for kind, node in QUERY_NODES.items()
    }
    rng = random.Random(seed)
    depths = set()
    for _ in range(200):
        expr = _random_query(rng, rng.randrange(1, 40), hints)
        assert expr._join_depth == join_nesting_reference(expr), expr
        depths.add(expr._join_depth)
    assert {0, 1, 2, 3} <= depths
    # The count is no field: equality, hash and repr do not see it.
    assert all("_join_depth" not in record_fields(node) for node in QUERY_NODES.values())


def _nested_joins(joins):
    """A count over `joins` private joins nested down their left sides,
    each joining a map of people that keeps only zip: from Python and as
    a script decodes it."""
    zips = query("people").map({"zip": "zip"}, Schema.of(("zip", TEXT)))
    zips_doc = {
        "kind": "Map",
        "child": {"kind": "Source", "table": "people"},
        "columns": {"zip": "zip"},
        "schema": {"columns": [{"name": "zip", "type": "text"}]},
    }
    expr, doc = query("people"), {"kind": "Source", "table": "people"}
    for _ in range(joins):
        expr = expr.join_private(zips, ["zip"], 1, 1)
        doc = {"kind": "JoinPrivate", "child": doc, "other": zips_doc, "on": ["zip"],
               "left_bound": 1, "right_bound": 1}
    script = {"queries": [{"name": "q", "spend": "1", "expr": {"kind": "Count", "child": doc}}]}
    return expr.count(), parse_script(script)[0].expr


@pytest.mark.parametrize("joins", [_MAX_JOIN_NESTING, _MAX_JOIN_NESTING + 1])
def test_private_joins_nest_to_the_cap_whether_built_or_decoded(joins):
    built, decoded = _nested_joins(joins)
    assert built == decoded
    for expr in (built, decoded):
        assert expr._join_depth == joins
        s = fresh_session()
        if joins <= _MAX_JOIN_NESTING:
            assert len(s.evaluate(expr, PrivacyBudget.pure(1)).rows) == 1
            assert s.remaining_budget().amount == 9
        else:
            with pytest.raises(TypeCheckError, match="private joins nest too deeply"):
                s.evaluate(expr, PrivacyBudget.pure(1))
            assert s.remaining_budget().amount == 10


def test_a_shallow_fault_beside_a_predicate_past_the_cap_is_the_one_refused():
    # Compiling meets the unknown column, on the left, before the 64-term
    # sum that puts the predicate past the expression cap; with the sides
    # swapped it meets the depth first.  Both refusals charge nothing.
    deep = " + ".join(["income"] * 64)
    for predicate, message in [
        (f"zz + ({deep}) > 0", "no column named 'zz'"),
        (f"({deep}) + zz > 0", "nests too deeply"),
    ]:
        s = fresh_session()
        with pytest.raises(TypeCheckError, match=message):
            s.evaluate(query("people").filter(predicate).count(), PrivacyBudget.pure(1))
        assert s.remaining_budget().amount == 10


@pytest.mark.parametrize("filters", [600, 1500])
def test_a_long_chain_of_filters_is_counted_and_charged_once(filters):
    s = fresh_session(budget=PrivacyBudget.pure(1))
    expr = query("people")
    for _ in range(filters):
        expr = expr.filter("id > -1")
    assert len(s.evaluate(expr.count(), PrivacyBudget.pure("1/2")).rows) == 1
    assert s.remaining_budget().amount == Fraction(1, 2)


def _filters(table, count):
    expr = query(table)
    for i in range(count):
        expr = expr.filter(f"id > {-1 - i % 3}")
    return expr


@pytest.mark.parametrize(
    "build, filters",
    [
        (lambda n: _filters("people", n).count(), 10_000),
        (
            lambda n: query("people").join_private(_filters("visits", n), ["id"], 1, 1).count(),
            2_000,
        ),
    ],
    ids=["10,000 filters", "a join of a 2,000-filter chain"],
)
def test_a_deep_query_is_an_ordinary_value(build, filters):
    expr, twin, shorter = build(filters), build(filters), build(filters - 1)
    assert expr == twin and not expr != twin
    assert expr != shorter and shorter != expr
    assert hash(expr) == hash(twin)
    assert {expr: "cached"}[twin] == "cached"
    assert repr(expr) == repr(twin) != repr(shorter)
    assert repr(expr).count("Filter(child=") == filters
    visits = Table.of(Schema.of(("id", INT64), ("site", TEXT)), [(1, "a"), (2, "b")])
    s = fresh_session(tables={"people": people_table(), "visits": visits})
    assert len(s.evaluate(expr, PrivacyBudget.pure(1)).rows) == 1
    assert s.remaining_budget().amount == 9


# ---------------------------------------------------------------------------
# The compile rules: one noise solve for both measures, one identifier guard.


@pytest.mark.parametrize("budget", [PrivacyBudget.pure, PrivacyBudget.zcdp])
def test_zero_spend_is_refused_and_charges_nothing(budget):
    s = fresh_session(budget=budget(1))
    with pytest.raises(NonPositiveEpsilon):
        s.evaluate(query("people").count(), budget(0))
    assert s.remaining_budget() == budget(1)


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("budget", [PrivacyBudget.pure, PrivacyBudget.zcdp])
def test_stability_zero_query_returns_and_charges_its_spend(budget, grouped):
    # A join against an empty public table has fan-out 0, so the query
    # cannot tell neighbouring tables apart.
    nothing = Table.of(Schema.of(("zip", TEXT), ("region", TEXT)), [])
    source = query("people").join_public(nothing, ["zip"])
    keys = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
    expr = (source.group_by(keys) if grouped else source).count()
    s = fresh_session(budget=budget(1))
    compiled = compile_query(expr, DOMAINS, AddMaxRows(1), s.measure, Fraction(1, 3))
    assert compiled.transformation.stability.slope == 0
    out = s.evaluate(expr, budget("1/3"))
    assert [row[:-1] for row in out.rows] == ([("981",), ("982",)] if grouped else [()])
    assert s.remaining_budget() == budget(Fraction(2, 3))


def test_grouped_zcdp_map_meets_the_spend_at_the_scaled_distance():
    # Two tables under AddRemoveId give unit distance 2; truncate_by_id(3)
    # scales it to 6, where the quadratic must meet the spend.
    schema = Schema.of(("id", INT64), ("zip", TEXT))
    domains = {name: TableDomain(schema, "id") for name in ("a", "b")}
    keys = keyset_from_tuples([("zip", TEXT)], [("981",)])
    expr = query("a").truncate_by_id(3).group_by(keys).count()
    spend = Fraction(2, 7)
    compiled = compile_query(expr, domains, AddRemoveId("id"), ZCDP(), spend)
    assert compiled.unit_distance == 2
    assert compiled.transformation.stability.slope == 3
    assert compiled.measurement.privacy_function.slope == 0
    assert compiled.measurement.privacy_function(compiled.unit_distance) == spend


def test_a_grouped_zcdp_count_declares_at_least_its_noise_divergence(monkeypatch):
    # Neighbours d rows apart with every changed row in one group shift that
    # group's count by d and leave the other's alone, so the release
    # diverges as the group's discrete Gaussian does under a shift of d.
    keys = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
    expr = query("people").group_by(keys).count()
    draws, sample = [], measurements.sample_discrete_gaussian

    def logged(sigma_squared, rng):
        draws.append(sigma_squared)
        return sample(sigma_squared, rng)

    monkeypatch.setattr(measurements, "sample_discrete_gaussian", logged)
    fresh_session(budget=PrivacyBudget.zcdp(1)).evaluate(expr, PrivacyBudget.zcdp("1/2"))
    assert draws == [Fraction(1)] * 2
    f = compile_query(
        expr, DOMAINS, AddMaxRows(1), ZCDP(), Fraction(1, 2)
    ).measurement.privacy_function
    for d in (1, 2, 3):
        p = gaussian_pmf(Fraction(1), 0, -40, d + 40)
        q = gaussian_pmf(Fraction(1), d, -40, d + 40)
        rho = zcdp_divergence(p, q)
        assert f(d) >= rho - 1e-9, (d, f(d), rho)
        assert rho >= 0.9 * f(d), (d, f(d), rho)


def _every_kind_queries(source):
    """One query per shape, together using every node kind, over `source`."""
    visits = source("visits")
    regions = Table.of(Schema.of(("zip", TEXT), ("region", TEXT)), [("981", "west")])
    keys = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
    branches = [ExpansionBranch({"income": f"income + {i}"}) for i in range(2)]
    twice = Schema.of(("twice", FLOAT64))
    return [
        source("people").count(),
        source("people").filter("income > 20").sum("income", 0, 100),
        source("people").map({"twice": "income * 2"}, twice).average("twice", 0, 200),
        source("people").flat_map(branches, Schema.of(("income", FLOAT64)), 2).count(),
        source("people").join_public(regions, ["zip"]).group_by(keys).count(),
        source("people").join_private(visits, ["id"], 1, 2).group_by(keys).sum("income", 0, 9),
        source("people").group_by(keys).average("income", 0, 100),
        source("people").quantile("income", 0.5, 0, 100, 10),
    ]


def _truncated(name):
    return query(name).truncate_by_id(3)


def _node_kinds(expr):
    kinds = {type(expr).__name__}
    for name in record_fields(expr):
        value = getattr(expr, name)
        if isinstance(value, tuple(QUERY_NODES.values())):
            kinds |= _node_kinds(value)
    return kinds


@pytest.mark.parametrize("id_unit", [False, True])
def test_every_node_kind_compiles_to_an_exact_closed_form_map(id_unit):
    people = Schema.of(("id", INT64), ("zip", TEXT), ("income", FLOAT64))
    visits = Schema.of(("id", INT64), ("site", TEXT))
    id_column = "id" if id_unit else None
    domains = {
        "people": TableDomain(people, id_column),
        "visits": TableDomain(visits, id_column),
    }
    # A new node kind fails here until the list gains a query using it.
    covered = set().union(*map(_node_kinds, _every_kind_queries(_truncated)))
    assert covered == set(QUERY_NODES)
    unit, source = (AddRemoveId("id"), _truncated) if id_unit else (AddMaxRows(2), query)
    queries = _every_kind_queries(source)
    for expr, measure, spend in itertools.product(
        queries, (PureDP(), ZCDP()), (Fraction(1, 3), Fraction(7, 2))
    ):
        if isinstance(expr, Quantile) and isinstance(measure, ZCDP):
            with pytest.raises(TypeCheckError):
                compile_query(expr, domains, unit, measure, spend)
            continue
        compiled = compile_query(expr, domains, unit, measure, spend)
        f, u = compiled.measurement.privacy_function, compiled.unit_distance
        assert f(u) == spend
        if isinstance(measure, PureDP):
            assert f.quadratic == 0
            assert f(2 * u) == 2 * spend
        else:
            assert f.slope == 0
            assert f(2 * u) == 4 * spend


def test_row_steps_need_row_accounting():
    schema = Schema.of(("id", INT64), ("zip", TEXT))
    visits = Schema.of(("id", INT64), ("site", TEXT))
    domains = {"people": TableDomain(schema, "id"), "visits": TableDomain(visits, "id")}
    regions = Table.of(Schema.of(("zip", TEXT), ("region", TEXT)), [("981", "n")])
    people, cut = query("people"), query("people").truncate_by_id(1)
    unbounded = [
        people.flat_map([ExpansionBranch({"zip": "zip"})], Schema.of(("zip", TEXT)), 1),
        people.join_public(regions, ["zip"]),
        people.join_private(query("visits").truncate_by_id(1), ["id"], 1, 1),
        cut.join_private(query("visits"), ["id"], 1, 1),
    ]
    for relational in unbounded:
        with pytest.raises(UnboundedSensitivity):
            compile_query(
                relational.count(), domains, AddRemoveId("id"), PureDP(), Fraction(1)
            )


# ---------------------------------------------------------------------------
# Compiled identifier chains with a private join, on neighbouring inputs.

ID_LEFT = Schema.of(("id", INT64), ("k", INT64), ("v", INT64))
ID_RIGHT = Schema.of(("id", INT64), ("k", INT64), ("w", INT64))
# The right side after its truncation, per join key: its schema and the
# ID_RIGHT position of each column.  A map renames the columns the left
# side also has but the join does not use.
RIGHT_VIEWS = {
    ("id", "k"): (ID_RIGHT, (0, 1, 2)),
    ("id",): (Schema.of(("id", INT64), ("rk", INT64), ("w", INT64)), (0, 1, 2)),
    ("k",): (Schema.of(("k", INT64), ("rid", INT64), ("w", INT64)), (1, 0, 2)),
}
# (join keys, left cut, right cut, left join bound, right join bound).  The
# first two join at the bound their input was cut at already.
ID_JOINS = [
    (("id",), 2, 1, 2, 1),
    (("id", "k"), 1, 2, 1, 2),
    (("k",), 3, 2, 2, 1),
    (("id",), 1, 3, 3, 2),
]


def _id_join_query(keys, left_cut, right_cut, left_bound, right_bound):
    schema, positions = RIGHT_VIEWS[keys]
    right = query("b").truncate_by_id(right_cut)
    if schema != ID_RIGHT:
        right = right.map(
            {name: ID_RIGHT.names[p] for name, p in zip(schema.names, positions)}, schema
        )
    left = query("a").truncate_by_id(left_cut)
    return left.join_private(right, list(keys), left_bound, right_bound).count()


def _id_join_reference(tables, keys, left_cut, right_cut, left_bound, right_bound):
    a, b = tables
    schema, positions = RIGHT_VIEWS[keys]
    left = list(truncate_reference(a.rows, (0,), left_cut).elements())
    right = [
        tuple(row[p] for p in positions)
        for row in truncate_reference(b.rows, (0,), right_cut).elements()
    ]
    left = truncate_reference(left, [ID_LEFT.index_of(k) for k in keys], left_bound)
    right = truncate_reference(right, [schema.index_of(k) for k in keys], right_bound)
    return join_reference(
        Table.of(ID_LEFT, left.elements()), Table.of(schema, right.elements()), keys
    )


def test_compiled_private_joins_are_stable_on_neighbours_cold_and_warm():
    domains = {"a": TableDomain(ID_LEFT, "id"), "b": TableDomain(ID_RIGHT, "id")}
    chains = []
    spend = Fraction(1, 3)
    for spec in ID_JOINS:
        for measure in (PureDP(), ZCDP()):
            expr = _id_join_query(*spec)
            compiled = compile_query(expr, domains, AddRemoveId("id"), measure, spend)
            assert compiled.measurement.privacy_function(compiled.unit_distance) == spend
        chains.append((spec, compiled.transformation))
    rng = random.Random(1212)
    for _ in range(150):
        x = (random_table(rng, 6, ID_LEFT), random_table(rng, 6, ID_RIGHT))
        y = tuple(perturb_rows(rng, t, rng.randrange(3)) for t in x)
        cold = {}
        # Cold, then warm: every table already holds the cuts of the other
        # chains, at other bounds and keys, when a chain runs on it again.
        for warm in (False, True):
            for i, (spec, chain) in enumerate(chains):
                out = [chain.apply(x), chain.apply(y)]
                for tables, result in zip((x, y), out):
                    assert result.multiset() == _id_join_reference(tables, *spec)
                if warm:
                    assert [t.rows for t in out] == cold[i]
                else:
                    cold[i] = [t.rows for t in out]
                d_in = dataset_distance(chain.input_metric, x, y)
                d_out = dataset_distance(chain.output_metric, *out)
                assert d_out <= chain.stability(d_in), (spec, d_in, d_out)


# ---------------------------------------------------------------------------
# What a table remembers depends on the queries asked before, never on the
# rows: the same queries look up and build the same keys on neighbours.


def _neighbours():
    """D, 50 ids of 1 to 3 rows, and D' with one more id of 4 rows; no id of
    D has more than 3 rows, so cutting D at 3 keeps every row."""
    rng = random.Random(91)
    rows = [
        (i, rng.choice(["981", "982"]), float(rng.randrange(10**5)))
        for i in range(50)
        for _ in range(rng.randrange(1, 4))
    ]
    extra = [(50, "981", float(10 * k)) for k in range(4)]
    return Table.of(PEOPLE, rows), Table.of(PEOPLE, rows + extra)


def _derive_log(monkeypatch, table, queries):
    """(key, whether it was remembered) for each Table.derive call that
    evaluating the queries, in order, in a fresh session over table makes."""
    log = []
    derive = Table.derive

    def logged(self, key, build, *args, memo=None):
        log.append((key, key in (remembered(self) if memo is None else memo)))
        return derive(self, key, build, *args, memo=memo)

    monkeypatch.setattr(Table, "derive", logged)
    try:
        s = build_session(
            {"people": table}, AddRemoveId("id"), PrivacyBudget.pure(len(queries)), 1
        )
        for expr in queries:
            s.evaluate(expr, PrivacyBudget.pure(1))
    finally:
        monkeypatch.undo()
    return log


_PEOPLE = query("people")
_ZIPS = keyset_from_tuples([("zip", TEXT)], [("981",), ("982",)])
_HALVED = {"id": "id", "zip": "zip", "income": "income / 2.0"}


def _regions():
    """An inline public table, built anew for every query that joins it."""
    return Table.of(Schema.of(("zip", TEXT), ("region", TEXT)), [("981", "n"), ("982", "s")])


_BY_REGION = keyset_from_tuples([("region", TEXT)], [("n",), ("s",), ("e",)])


@pytest.mark.parametrize(
    "then",
    [
        lambda cut: cut.quantile("income", 0.5, 0, 1e6, 64),
        lambda cut: cut.group_by(keyset_from_tuples([("zip", TEXT)], [("981",)])).quantile(
            "income", 0.5, 0, 1e6, 64
        ),
        lambda cut: cut.group_by(keyset_from_tuples([("zip", TEXT)], [("981",)])).count(),
        lambda cut: cut.join_private(
            _PEOPLE.truncate_by_id(1).map({"zip": "zip"}, Schema.of(("zip", TEXT))), ["zip"], 2, 3
        ).count(),
        lambda cut: cut.filter("income > 40000.0").group_by(_ZIPS).sum("income", 0, 10**5),
        lambda cut: cut.map(_HALVED, PEOPLE).filter("income > 20000.0").average(
            "income", 0, 10**5
        ),
        lambda cut: cut.join_public(_regions(), ["zip"]).group_by(_BY_REGION).count(),
        lambda cut: cut.join_private(
            _PEOPLE.truncate_by_id(2).map({"zip": "zip"}, Schema.of(("zip", TEXT))), ["zip"], 3, 1
        ).filter("income > 30000.0").group_by(_ZIPS).sum("income", 0, 10**5),
    ],
    ids=["sorted", "group sorted", "groups", "join", "filter", "map", "public join",
         "private join chain"],
)
def test_what_is_remembered_on_a_cut_does_not_tell_whether_it_dropped_a_row(monkeypatch, then):
    # A wide cut and then a cut at 3, each followed by the same step: on D
    # both keep every row, on D' the cut at 3 drops one.  Were a cut that
    # keeps every row the canonical Table, the second query would find the
    # first one's work remembered on D and not on D'.
    # The queries are built anew for each table, so an inline public table
    # remembers nothing from the other run.
    d, d_prime = (
        _derive_log(
            monkeypatch, table, [then(_PEOPLE.truncate_by_id(1000)), then(_PEOPLE.truncate_by_id(3))]
        )
        for table in _neighbours()
    )
    assert d == d_prime
    assert any(hit for _, hit in d) and not all(hit for _, hit in d)


def test_what_a_private_join_remembers_does_not_tell_whether_its_own_cut_dropped_a_row(
    monkeypatch,
):
    # The same remembered table on both sides of a private join on every
    # column, so each side's cut and the right cut's join index are derived
    # on one Table that outlives the query.  A wide join and then one at
    # bounds 2: on D no row repeats more than twice, so both joins' cuts
    # keep every row; D' has one more id of three equal rows, one join key
    # over the bounds.
    d, _ = _neighbours()
    assert max(d.multiset().values()) <= 2
    d_prime = Table.of(PEOPLE, d.rows + ((50, "981", 5.0),) * 3)
    whole = _PEOPLE.truncate_by_id(1000)
    columns = ["id", "zip", "income"]
    queries = [whole.join_private(whole, columns, b, b).count() for b in (100, 2)]
    log, log_prime = (_derive_log(monkeypatch, table, queries) for table in (d, d_prime))
    assert log == log_prime
    assert (("join", tuple(columns)), False) in log


def test_what_a_source_evicts_does_not_depend_on_the_rows(monkeypatch):
    # More distinct filters than a source remembers outputs, then the first
    # again, which was evicted: the same lookups miss and hit on D and D'.
    count = MAX_REMEMBERED_OUTPUTS
    cut = _PEOPLE.truncate_by_id(3)
    filters = [cut.filter(f"income > {1000.0 * k}").count() for k in range(count + 2)]
    queries = filters + filters[:1] + filters[-1:]
    d, d_prime = (_derive_log(monkeypatch, table, queries) for table in _neighbours())
    assert d == d_prime
    first = ("filter", "income > 0.0")
    assert [hit for key, hit in d if key == first] == [False, False]
    assert [hit for key, hit in d if key == ("filter", f"income > {1000.0 * (count + 1)}")] == [
        False, True
    ]


def test_sessions_over_one_table_join_their_own_right_tables():
    # Two sessions share the left table and each has its own right one: the
    # left table's cut remembers one join output at a time, built against
    # the right cut of the session that asked last, and every answer is the
    # join of that session's tables.
    rng = random.Random(1313)
    left = random_table(rng, 40, ID_LEFT)
    rights = [random_table(rng, 30, ID_RIGHT) for _ in range(2)]
    domains = {"a": TableDomain(ID_LEFT, "id"), "b": TableDomain(ID_RIGHT, "id")}
    spec = (("id",), 2, 1, 2, 1)
    expr = _id_join_query(*spec)
    chain = compile_query(expr, domains, AddRemoveId("id"), PureDP(), 1).transformation
    big = PrivacyBudget.pure(10**40)
    sessions = [
        build_session({"a": left, "b": right}, AddRemoveId("id"), PrivacyBudget.pure(INF), 1)
        for right in rights
    ]
    outputs = {}
    for turn in range(4):
        i = turn % 2
        tables = (left, rights[i])
        joined = chain.apply(tables)
        fresh = chain.apply((Table.of(ID_LEFT, left.rows), Table.of(ID_RIGHT, rights[i].rows)))
        assert joined.multiset() == fresh.multiset() == _id_join_reference(tables, *spec)
        if turn >= 2:  # the other session's join replaced it
            assert joined.columns is not outputs[i].columns
        outputs[i] = joined
        assert same_data(chain.apply(tables), joined)
        (count,) = sessions[i].evaluate(expr, big).rows[0]
        assert count == len(fresh)


# ---------------------------------------------------------------------------
# What a table remembers is bounded by one count and freed with the table.


def _scan_rows(n):
    return [(i % 50, f"98{i % 3}", float(i * 37 % 1000)) for i in range(n)]


def test_a_table_is_freed_at_its_last_reference(tmp_path):
    # With the cyclic collector off, a loaded table that ran a filter, a
    # map, a cut, a grouping, a sum and a private join with itself as both
    # sides is freed when its session and the last name for it go.
    path = tmp_path / "t.csv"
    path.write_text("id,zip,income\n" + "".join(f"{i},{z},{v!r}\n" for i, z, v in _scan_rows(300)))
    cut = query("t").truncate_by_id(2)
    zips = keyset_from_tuples([("zip", TEXT)], [("980",), ("981",)])
    asks = [
        query("t").filter("income > 5.0").truncate_by_id(2).count(),
        query("t").map({"id": "id", "zip": "zip", "income": "income / 2.0"}, PEOPLE)
        .truncate_by_id(2).count(),
        cut.count(),
        cut.group_by(zips).count(),
        cut.sum("income", 0, 1000),
        cut.join_private(query("t").truncate_by_id(1), ["id", "zip", "income"], 2, 1).count(),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        table = load_csv(path, PEOPLE)
        s = build_session({"t": table}, AddRemoveId("id"), PrivacyBudget.pure(INF), 1)
        for expr in asks:
            s.evaluate(expr, PrivacyBudget.pure(1))
        assert remembered(table)
        alive = weakref.ref(table)
        del table, s
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_sessions_over_dropped_tables_peak_as_one_does():
    # Each session over a fresh table asks one filtered sum and is dropped:
    # under the default collector, twenty of them in a row peak within
    # twice what one does, since nothing waits for a collection.
    def one_session():
        table = Table.of(PEOPLE, _scan_rows(1000))
        s = build_session({"t": table}, AddMaxRows(1), PrivacyBudget.pure(1), 1)
        s.evaluate(query("t").filter("income > 100.0").sum("income", 0, 1000), PrivacyBudget.pure(1))

    assert gc.isenabled()
    gc.collect()
    tracemalloc.start()
    try:
        one_session()
        single = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in range(20):
            one_session()
        loop = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loop <= 2 * single


def test_a_table_cut_at_many_bounds_remembers_at_most_the_count():
    # 10 ids of 100 rows each, cut at every bound from 1 to 100: the table
    # holds at most MAX_REMEMBERED_OUTPUTS values, masks of its stored
    # rows and their order, and still answers every cut exactly.
    table = Table.of(PEOPLE, [(i % 10, "981", float(i)) for i in range(1000)])
    s = build_session({"t": table}, AddRemoveId("id"), PrivacyBudget.pure(INF), 1)
    big = PrivacyBudget.pure(10**40)
    for bound in range(1, 101):
        (count,) = s.evaluate(query("t").truncate_by_id(bound).count(), big).rows[0]
        assert count == 10 * bound
    assert len(remembered(table)) < MAX_REMEMBERED_OUTPUTS
    assert len(remembered(table)) + len(table.stored) <= MAX_REMEMBERED_OUTPUTS
    assert all(len(held) == 1000 for held, _ in remembered(table).values())
