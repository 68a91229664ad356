import math
import operator
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    empirical_pmf,
    geometric_pmf,
    grain_total_reference,
    LoggingRandom,
    oracle_expression,
    oracle_filter,
    per_group_reference,
    product_pmf,
    pure_dp_divergence,
    quantile_pmf,
    quantile_scores_reference,
    randrange_discrete_gaussian,
    randrange_two_sided_geometric,
    remembered,
    tv_distance,
    unbuilt,
)
from noisegate.errors import (
    BadBounds,
    BadQuantile,
    DomainMismatch,
    EvaluationFailed,
    GuaranteeTooWeak,
    InsufficientBudget,
    KeyTypeMismatch,
    LengthMismatch,
    MeasureMismatch,
    MetricMismatch,
    MissingKeyColumn,
    NonPositiveEpsilon,
    NonPositiveGranularity,
    NonPositiveSigma,
    TypeMismatch,
    UnknownColumn,
)
from noisegate.measurements import (
    _MARGIN_REL,
    _MARGIN_SUBNORMAL,
    _grain_counts,
    _grains,
    _quantile_scores,
    GaussianMechanism,
    GeometricMechanism,
    Measurement,
    PureDpNoise,
    Queryable,
    ZcdpNoise,
    compose_over_subsets,
    compose_per_group,
    compose_sequential,
    make_average,
    make_count,
    make_discrete_gaussian,
    make_geometric,
    make_quantile,
    make_sum,
)
from noisegate.metrics import (
    INF,
    BoundedLists,
    DistanceMap,
    GroupedBy,
    PureDP,
    SymmetricDifference,
    ZCDP,
    linear_map,
    sum_maps,
)
from noisegate import measurements, session
from noisegate.noise import sample_discrete_gaussian, sample_two_sided_geometric
from noisegate.rng import RngStream
from noisegate.transformations import (
    make_filter,
    make_map,
    make_public_join,
    make_truncate_by_id,
)
from noisegate.tabledata import (
    ColumnType, KeySet, Schema, Table, TableDomain, key_reader, result_cell,
)

SCHEMA = Schema.of(("g", ColumnType.TEXT), ("v", ColumnType.FLOAT64))
DOMAIN = TableDomain(SCHEMA, None)
BIG = Fraction(10**10)  # rates this high put all but ~e^-1e10 of the noise on 0


def T(*rows):
    return Table.of(SCHEMA, rows)


def stream(label="t"):
    return RngStream(99).child(label)


# ---------------------------------------------------------------------------
# Base mechanisms.


def test_geometric_mechanism_basics():
    mech = make_geometric(Fraction(1, 2), sensitivity=2)
    assert mech.rate == Fraction(1, 4)
    assert mech.privacy_function.slope == Fraction(1, 2)
    assert mech.privacy_function(3) == Fraction(3, 2)
    with pytest.raises(NonPositiveEpsilon):
        make_geometric(Fraction(0))
    with pytest.raises(NonPositiveEpsilon):
        make_geometric(Fraction(-1))


def test_geometric_short_circuit():
    # At rate 2e9 the exact sampler puts all but about 2 exp(-2e9) of the
    # noise mass on zero.
    mech = make_geometric(Fraction(2 * 10**9), sensitivity=1)
    assert all(
        5 + sample_two_sided_geometric(mech.rate, stream(str(i)).generator()) == 5
        for i in range(20)
    )


def test_geometric_pmf_matches_closed_form():
    mech = make_geometric(Fraction(1), sensitivity=2)
    rng = stream("pmf").generator()
    samples = [3 + sample_two_sided_geometric(mech.rate, rng) for _ in range(40000)]
    oracle = geometric_pmf(mech.rate, 3, 3 - 80, 3 + 80)
    assert tv_distance(empirical_pmf(samples), oracle) < 0.01


def test_gaussian_mechanism_privacy_function():
    mech = make_discrete_gaussian(Fraction(4), sensitivity=1)
    # sigma = 2: rho at distance 1 is 1/8, growing quadratically.
    assert mech.privacy_function(1) == Fraction(1, 8)
    assert mech.privacy_function(2) == Fraction(1, 2)
    assert mech.privacy_function(0) == 0
    with pytest.raises(NonPositiveSigma):
        make_discrete_gaussian(Fraction(0))


def test_gaussian_short_circuit():
    mech = GaussianMechanism(sigma_squared=Fraction(1, 10**19), sensitivity=1)
    assert 3 + sample_discrete_gaussian(mech.sigma_squared, stream().generator()) == 3


# ---------------------------------------------------------------------------
# Aggregations.


def test_count_exact_when_noise_free():
    m = make_count(DOMAIN, PureDpNoise(BIG))
    assert m.eval(T(("a", 1.0), ("b", 2.0)), stream()) == 2
    assert m.eval(Table.of(SCHEMA, []), stream()) == 0
    assert m.privacy_function(1) == BIG


def test_count_deterministic_given_seed():
    m = make_count(DOMAIN, PureDpNoise(Fraction(1, 2)))
    t = T(("a", 1.0))
    first = m.eval(t, stream("fixed"))
    assert all(m.eval(t, stream("fixed")) == first for _ in range(5))


def test_count_divergence_bounded():
    # Neighbor tables of sizes 3 and 4 under epsilon 0.7.
    eps = Fraction(7, 10)
    p = geometric_pmf(eps, 3, -90, 97)
    q = geometric_pmf(eps, 4, -90, 97)
    d = pure_dp_divergence(
        {k: float(v) for k, v in p.items()},
        {k: float(v) for k, v in q.items()},
    )
    assert d <= float(eps) + 1e-9


def test_sum_clamps_and_rounds():
    m = make_sum(DOMAIN, "v", 0, 3, 1, PureDpNoise(BIG))
    assert m.eval(T(("a", -10.0), ("b", 5.0)), stream()) == 3
    m2 = make_sum(DOMAIN, "v", 0, 10, Fraction(1, 4), PureDpNoise(BIG * 100))
    # 1.125 rounds to 4.5 grains -> banker's rounding picks 4 -> 1.0;
    # 1.875 rounds to 7.5 grains -> 8 -> 2.0.
    assert m2.eval(T(("a", 1.125)), stream()) == 1
    assert m2.eval(T(("a", 1.875)), stream()) == 2
    assert m2.eval(T(("a", 1.125), ("b", 1.875)), stream()) == 3


def _past_the_shared_bound(rng, gamma, bound):
    """Values at grain counts up to 40, both signs, whose p is farther
    than `bound` from the nearest integer but not near a half grain: each
    row's own margin would let round(p) through, the one bound for the
    clamp range does not."""
    lowest = max(bound, 0.0) + 1e-9
    offsets = [lowest] + [rng.uniform(lowest, 0.49) for _ in range(3)]
    return [
        sign * float(gamma * (rng.randint(0, 40) + Fraction(offset)))
        for offset in offsets
        for sign in (1.0, -1.0)
    ]


def _near_half_grains(rng, gamma, largest):
    """Values one and two ulps either side of a half grain, both signs,
    for grain counts up to `largest`."""
    values = []
    for k in (rng.randint(0, 40), rng.randint(0, largest)):
        half = float(gamma * (k + Fraction(1, 2)))
        for sign in (1.0, -1.0):
            below = above = sign * half
            for _ in range(2):
                below = math.nextafter(below, -math.inf)
                above = math.nextafter(above, math.inf)
                values += [below, above]
    return values


@pytest.mark.parametrize(
    "gamma",
    [
        Fraction(1, 100), Fraction(1, 3), Fraction(1, 4), 1, 2, 5,
        # Granularities whose reciprocal is no float, and one whose
        # denominator is past 2^53, so every row takes the exact path.
        Fraction(3, 10), Fraction(7, 2), Fraction(2, 3), Fraction(1, 2**53 + 1),
    ],
)
def test_grain_total_matches_fraction_reference(gamma):
    # A sum's total is the sum of _grain_counts' exact int counts, the one
    # rounding rule, so it is exact on a column of any length.
    gamma = Fraction(gamma)

    def total_of(lo, hi, cells):
        return sum(_grain_counts(lo, hi, gamma.numerator, gamma.denominator)(cells))

    rng = random.Random(f"grain-{gamma}")
    int_schema = Schema.of(("v", ColumnType.INT64))
    float_schema = Schema.of(("v", ColumnType.FLOAT64))
    int64_end = 2.0**63
    tiny = [5e-324, -5e-324, 2.5e-320, sys.float_info.min, -sys.float_info.min]
    for _ in range(500):
        low = float(rng.randint(-50, 0))
        high = float(rng.randint(0, 50))
        ints = [rng.randint(-60, 60) for _ in range(rng.randrange(6))]
        floats = [rng.uniform(-60, 60) for _ in range(rng.randrange(4))]
        # Exact half-grain ties, both signs, and values on the bounds.
        floats += [float(gamma * (rng.randint(-40, 40) + Fraction(1, 2))) for _ in range(2)]
        floats += [low, high, -0.0]
        # Grain counts of 2^50 to 2^52, near half grains, int64 ends and
        # subnormals, under bounds at the int64 ends.
        big = [float(gamma * rng.randint(2**50, 2**52)) for _ in range(2)]
        wide_floats = _near_half_grains(rng, gamma, 2**52) + big + tiny
        wide_ints = [-(2**63), 2**63 - 1, 2**53 + 1, -(2**53) - 1, rng.randint(-(2**63), 2**63 - 1)]
        cases = [
            (int_schema, ints, low, high),
            (float_schema, floats, low, high),
            (float_schema, wide_floats, -int64_end, int64_end),
            (int_schema, wide_ints, -int64_end, int64_end),
            # Bounds whose grain counts overflow a float.
            (float_schema, [1e308, -1e308, 0.5], -sys.float_info.max, sys.float_info.max),
        ]
        # Clamp ranges of 2^49 grains or more, whose shared bound is 0 or
        # less: every row tries its own margin before the exact path.
        for edge in (int64_end, 1e300):
            cases.append((float_schema, floats + wide_floats, -edge, edge))
            cases.append((int_schema, ints + wide_ints, -edge, edge))
        if gamma.numerator < 2**53 and gamma.denominator < 2**53:
            # Clamp ranges of 2^46 and 2^48 grains (bounds near 7/16 and
            # 1/4) and at the int64 ends (a bound of 0 or less): rows that
            # the one bound sends to the exact path.
            scale = gamma.denominator / gamma.numerator
            for edge in (float(gamma * 2**46), float(gamma * 2**48), int64_end):
                bound = 0.5 - (edge * scale * _MARGIN_REL + _MARGIN_SUBNORMAL)
                values = _past_the_shared_bound(rng, gamma, bound)
                for v in values:
                    p = v * scale
                    margin = abs(p) * _MARGIN_REL + _MARGIN_SUBNORMAL
                    assert bound <= abs(p - round(p)) < 0.5 - margin
                cases.append((float_schema, values, -edge, edge))
        for schema, values, lo, hi in cases:
            table = Table.of(schema, [(v,) for v in values])
            assert total_of(lo, hi, table.column(0)) == grain_total_reference(values, lo, hi, gamma)

    # Odd counts near 2^46 grains, each an int of its own: 127 rows stay
    # under len(rows) * (top + 1) < 2^53 and 200 rows pass it, where a
    # float total of the counts would drop low bits.
    edge = float(gamma * 2**46)
    near_edge = [float(gamma * (2**46 - 2 * rng.randrange(2**20) - 1)) for _ in range(200)]
    cases = [(near_edge[:127], -edge, edge), (near_edge, -edge, edge)]
    cases.append(([-v for v in near_edge], -edge, edge))
    # Ties and near-ties at +-2^48 grains, where the shared bound takes r
    # from the rounding constant: every sixteenth (the float spacing there)
    # from k to k + 1 for k around 2^48, each row against round() alone,
    # and all of them in one table.
    edge = float(gamma * (2**48 + 2))
    ks = [2**48 + d for d in (-2, -1, 0, 1)]
    ties = [float(sign * gamma * (k + Fraction(j, 16))) for k in ks for j in range(16)
            for sign in (1, -1)]
    for v in ties:
        cells = Table.of(float_schema, [(v,)]).column(0)
        assert total_of(-edge, edge, cells) == round(Fraction(v) / gamma)
    cases.append((ties, -edge, edge))
    if gamma.numerator < 2**53 and gamma.denominator < 2**53:
        # One table whose rows take every tier: counts near integers (the
        # shared bound), rows past it (their own margin) and near and exact
        # half grains (the exact path), in mixed order.
        scale = gamma.denominator / gamma.numerator
        for edge in (float(gamma * 2**46), float(gamma * 2**48)):
            bound = 0.5 - (edge * scale * _MARGIN_REL + _MARGIN_SUBNORMAL)
            values = (
                [float(gamma * rng.randint(-40, 40)) for _ in range(4)]
                + _past_the_shared_bound(rng, gamma, bound)
                + _near_half_grains(rng, gamma, 2**40)
                + [float(gamma * (rng.randint(-40, 40) + Fraction(1, 2))) for _ in range(2)]
            )
            rng.shuffle(values)
            assert len(values) * (edge * scale + 1) < 2**53
            tiers = set()
            for v in values:
                p = v * scale
                gap = abs(p - round(p))
                if gap < bound:
                    tiers.add("shared")
                elif gap < 0.5 - (abs(p) * _MARGIN_REL + _MARGIN_SUBNORMAL):
                    tiers.add("own")
                else:
                    tiers.add("exact")
            assert tiers == {"shared", "own", "exact"}
            cases.append((values, -edge, edge))
    for values, lo, hi in cases:
        table = Table.of(float_schema, [(v,) for v in values])
        assert total_of(lo, hi, table.column(0)) == grain_total_reference(values, lo, hi, gamma)


# A stored table for the grain counts: ids repeat, so cuts drop rows; k is
# "a", "b" or "c", and PUBLIC_TAGS matches "a" and "b" once each, so its
# join carries the mask and drops the "c" rows.
STORED = Schema.of(
    ("id", ColumnType.INT64), ("k", ColumnType.TEXT),
    ("v", ColumnType.FLOAT64), ("w", ColumnType.INT64),
)
STORED_PLAIN = TableDomain(STORED, None)
STORED_IDS = TableDomain(STORED, "id")
PUBLIC_TAGS = Table.of(
    Schema.of(("k", ColumnType.TEXT), ("tag", ColumnType.INT64)), [("a", 1), ("b", 2)]
)
BY_K = KeySet(Schema.of(("k", ColumnType.TEXT)), [("a",), ("b",), ("c",), ("z",)])
GRAIN_CLAMPS = [
    (-20.0, 30.0, Fraction(1, 100)), (-7.0, 9.0, Fraction(1, 4)), (0.0, 25.0, Fraction(3, 10)),
    # A granularity whose denominator, and one whose numerator, is 2^53 or
    # more: every count takes the exact integer path.
    (-3.0, 3.0, Fraction(1, 2**53 + 1)), (-40.0, 40.0, Fraction(2**53 + 1, 2**50)),
]


def _stored_rows(rng, gamma, n=60):
    """Rows of STORED whose v and w cells hold half-grain ties, values past
    both clamp ends (every clamp above lies within +-40), subnormals and
    cells one and two ulps from a half grain."""
    tiny = [5e-324, -5e-324, 2.5e-320, sys.float_info.min, -sys.float_info.min]
    floats = (
        [rng.uniform(-60, 60) for _ in range(n)]
        + [float(gamma * (rng.randint(-400, 400) + Fraction(1, 2))) for _ in range(6)]
        + _near_half_grains(rng, gamma, 2**20) + tiny + [-1e6, 1e6]
    )
    rng.shuffle(floats)
    ints = [rng.randint(-60, 60) for _ in floats]
    return [
        (rng.randrange(len(floats) // 3), rng.choice("abc"), v, w) for v, w in zip(floats, ints)
    ]


def _recording_part_of(name, seen):
    """A count on the one column `name` of STORED that logs each group's Table."""
    return _recording_part(Schema(((name, STORED.type_of(name)),)), seen)


def _tables_sharing(source):
    """Every kind of table a query builds over source, by name: a filter, a
    cut and a cut of a cut, which share source's columns and store; a
    fan-out-1 join and a map of bare columns and a computed one that cannot
    fail, remembered outputs that store columns of their own and take the
    shared ones' counts from source; a map with a cell that can fail, a
    remembered output that stores every column itself; and the same rows
    as a table built by hand, which is its own store, as source is."""
    filtered = make_filter(STORED_PLAIN, "w > -20").apply(source)
    cut = make_truncate_by_id(STORED_IDS, 2).apply(source)
    wide = Schema.of(("w", ColumnType.INT64), ("v", ColumnType.FLOAT64), ("x", ColumnType.FLOAT64))
    return {
        "source": source,
        "filter": filtered,
        "cut": cut,
        "cut of a cut": make_truncate_by_id(STORED_IDS, 1).apply(cut),
        "fan-out-1 join": make_public_join(STORED_PLAIN, PUBLIC_TAGS, ["k"]).apply(source),
        "bare map": make_map(
            STORED_PLAIN, {"v": "v", "w": "w", "x": "v / 1000.0"}, wide
        ).apply(filtered),
        "failing map": make_map(
            STORED_PLAIN, {"v": "v", "w": "w", "x": "v / w"}, wide
        ).apply(source),
        "built by hand": Table._trusted(STORED, source.columns),
    }


def _group_tables(tables, name):
    """The per-key Tables of grouped releases reading column `name`: the
    remembered groupings of the source, the cut, the filter's output and
    the table built by hand, by name."""
    groups = {}
    for kind in ("source", "cut", "filter", "built by hand"):
        seen = []
        release = compose_per_group(
            STORED_PLAIN, BY_K, _recording_part_of(name, seen), ("n", ColumnType.INT64)
        )
        release.eval(tables[kind], stream())
        groups[f"{kind} grouping"] = seen
    return groups


def _grains_key(table, name, low, high, gamma):
    return ("grains", table.schema.index_of(name), low, high, gamma.numerator, gamma.denominator)


@pytest.mark.parametrize("low,high,gamma", GRAIN_CLAMPS)
def test_totals_from_remembered_counts_are_exact_on_every_table_over_a_store(low, high, gamma):
    rng = random.Random(f"counts-{gamma}")
    for _ in range(6):
        source = Table.of(STORED, _stored_rows(rng, gamma))
        tables = _tables_sharing(source)
        per_key = {(kind, name): parts for name in ("v", "w")
                   for kind, parts in _group_tables(tables, name).items()}
        everything = [(kind, table) for kind, table in tables.items()] + [
            (kind, table) for kind, parts in per_key.items() for table in parts
        ]
        rng.shuffle(everything)  # the first sum over a store builds its counts
        counts_of = _grain_counts(low, high, gamma.numerator, gamma.denominator)
        for rounds in ("cold", "warm"):
            for kind, table in everything:
                for name in ("v", "w"):
                    if not table.schema.has_column(name):
                        continue
                    total = _grains(TableDomain(table.schema), name, low, high, gamma)[0]
                    cells = table.column(table.schema.index_of(name))
                    expected = grain_total_reference(cells, low, high, gamma)
                    assert total(table) == (expected, len(cells)), (rounds, kind, name)
                    assert sum(counts_of(cells)) == expected
        # The totals came from the counts wherever a store holds the column.
        for name in ("v", "w"):
            counts = remembered(source)[_grains_key(source, name, low, high, gamma)]
            column = source.columns[source.schema.index_of(name)]
            assert list(counts) == [grain_total_reference([c], low, high, gamma) for c in column]
            assert counts == counts_of(column)
        # Each key's Table of a grouping is a slice of one stored Table of
        # the grouping's rows, which gathers its counts once from the
        # grouped table's store, the same int objects, so no key's Table
        # remembers counts or rounds a cell; absent keys share one empty
        # Table, its own store, which stores no row.
        by_hand = tables["built by hand"]
        for (kind, name), parts in per_key.items():
            present = [part for part in parts if part.store is not part]
            assert all(remembered(part) == {} for part in present)
            assert all(not len(part.columns[0]) for part in parts if part.store is part)
            stores = {id(part.store): part.store for part in present}
            (rows_table,) = stores.values()
            key = _grains_key(rows_table, name, low, high, gamma)
            assert list(remembered(rows_table)) == [key]
            grouped = by_hand if kind == "built by hand grouping" else source
            grouped_counts = remembered(grouped)[_grains_key(grouped, name, low, high, gamma)]
            (_, _, order), = rows_table._origin
            assert all(map(operator.is_, remembered(rows_table)[key], map(grouped_counts.__getitem__, order)))


def _memo_keys(table):
    """Every key the table remembers, and those of every Table it remembers
    (cuts, step outputs, groups and their stores)."""
    keys, stack, seen = [], [table], set()
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        for key, value in remembered(current).items():
            keys.append(key)
            values = value.values() if isinstance(value, dict) else value
            if isinstance(values, Table):
                values = (values,)
            if isinstance(values, (tuple, type({}.values()))):
                tables = [part for part in values if isinstance(part, Table)]
                stack.extend(tables + [part.store for part in tables])
    return keys


def _flat(key):
    stack, items = [key], []
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        else:
            items.append(item)
    return items


def test_only_the_table_storing_a_column_remembers_its_counts_once_per_column_and_bounds():
    rng = random.Random(1042)
    source = Table.of(STORED, _stored_rows(rng, Fraction(1, 4)))
    tables = _tables_sharing(source)
    shared = ("filter", "cut", "cut of a cut")
    clamps = [(-7.0, 9.0, Fraction(1, 4)), (-7, 9, 0.25), (0.0, 25.0, Fraction(3, 10))]
    for low, high, gamma in clamps:
        for table in tables.values():
            domain = TableDomain(table.schema)
            for make in (make_sum, make_average):
                for name in ("v", "x"):
                    if table.schema.has_column(name):
                        make(domain, name, low, high, gamma, PureDpNoise(BIG)).eval(table, stream())
    # One entry per column and clamp, whatever the bounds' types or the
    # granularity's spelling (0.25 is 1/4 exactly), and the measurement.
    v = STORED.index_of("v")
    clamped = [(-7.0, 9.0, 1, 4), (0.0, 25.0, 3, 10)]

    def grains(table):
        return {key for key in remembered(table) if key[0] == "grains"}

    assert grains(source) == {("grains", v, *clamp) for clamp in clamped}
    assert all(len(remembered(source)[key]) == len(source.columns[0]) for key in grains(source))
    for kind in shared:
        assert tables[kind].store is source
        assert grains(tables[kind]) == set(), kind
    # A remembered output that stores columns of its own is its own store:
    # it derives counts for the columns it computed (the bare map's x, and
    # every column of the map whose cells can fail, which compresses them)
    # and takes a shared column's (v) from source, where its _origin points.
    for kind in ("fan-out-1 join", "bare map", "failing map"):
        assert tables[kind].store is tables[kind], kind
    for kind in ("fan-out-1 join", "bare map"):
        assert tables[kind]._origin[tables[kind].schema.index_of("v")] == (source, v, None)
    assert grains(tables["fan-out-1 join"]) == set()
    assert grains(tables["bare map"]) == {("grains", 2, *clamp) for clamp in clamped}
    assert grains(tables["failing map"]) == {
        ("grains", at, *clamp) for at in (1, 2) for clamp in clamped
    }
    # A table built by hand is its own store, and derives its counts as
    # source does.
    assert tables["built by hand"].store is tables["built by hand"]
    assert grains(tables["built by hand"]) == grains(source)

    # A grouping's key Tables share one store, which holds one entry per
    # clamp; absent keys share one empty Table, which stores no row.
    per_key = {}
    for _ in range(2):
        per_key = _group_tables(tables, "v")
        for kind, parts in per_key.items():
            for part in parts:
                summed = make_sum(TableDomain(part.schema), "v", -7, 9, 0.25, PureDpNoise(BIG))
                summed.eval(part, stream())
    for kind in ("source grouping", "cut grouping", "filter grouping", "built by hand grouping"):
        present = [part for part in per_key[kind] if part.store is not part]
        assert present and all(remembered(part) == {} for part in present)
        assert len({id(part.store) for part in present}) == 1
        assert list(remembered(present[0].store)) == [("grains", 0, -7.0, 9.0, 1, 4)]
    # No memo key anywhere holds a Fraction, whose hash is a Python call.
    keys = [key for table in tables.values() for key in _memo_keys(table)]
    keys += [key for parts in per_key.values() for part in parts for key in _memo_keys(part)]
    assert any(key[0] == "grains" for key in keys if isinstance(key, tuple))
    assert not any(isinstance(item, Fraction) for key in keys for item in _flat(key))


def test_sum_sensitivity_scales_privacy():
    m = make_sum(DOMAIN, "v", 0, 3, 1, PureDpNoise(Fraction(1)))
    assert m.privacy_function(1) == 1
    assert m.privacy_function(2) == 2
    assert m.output_measure == PureDP()
    zc = make_sum(DOMAIN, "v", 0, 3, 1, ZcdpNoise(Fraction(1, 2)))
    # sigma^2 = s^2 / (2 rho) with s = 3 grains: quadratic in distance.
    assert zc.privacy_function(1) == Fraction(1, 2)
    assert zc.privacy_function(2) == 2
    assert zc.output_measure == ZCDP()


def test_sum_zero_sensitivity_is_free():
    for noise in (PureDpNoise(Fraction(1)), ZcdpNoise(Fraction(1, 2))):
        m = make_sum(DOMAIN, "v", 0, 0, 1, noise)
        assert m.output_measure == noise.measure
        assert m.privacy_function(1) == m.privacy_function(100) == 0
        # It draws nothing: the generator's next word is its first.
        generator = random.Random(11)
        assert m._eval(T(("a", 5.0), ("b", -2.5)), generator) == 0.0
        assert generator.getrandbits(64) == random.Random(11).getrandbits(64)


def test_sum_validation():
    with pytest.raises(BadBounds):
        make_sum(DOMAIN, "v", 3, 0, 1, PureDpNoise(Fraction(1)))
    with pytest.raises(NonPositiveGranularity):
        make_sum(DOMAIN, "v", 0, 3, 0, PureDpNoise(Fraction(1)))
    with pytest.raises(UnknownColumn):
        make_sum(DOMAIN, "g", 0, 3, 1, PureDpNoise(Fraction(1)))
    with pytest.raises(UnknownColumn):
        make_sum(DOMAIN, "w", 0, 3, 1, PureDpNoise(Fraction(1)))


def test_average_exact_when_noise_free():
    m = make_average(DOMAIN, "v", 0, 100, 1, PureDpNoise(BIG * 1000))
    assert m.eval(T(("a", 10.0), ("b", 20.0)), stream()) == 15
    # Empty table: noisy sum 0 over max(1, 0) keeps the output finite.
    assert m.eval(Table.of(SCHEMA, []), stream()) == 0


def test_average_splits_budget_evenly():
    m = make_average(DOMAIN, "v", 0, 100, 1, PureDpNoise(Fraction(1)))
    assert m.privacy_function(1) == 1
    assert m.privacy_function(3) == 3
    zc = make_average(DOMAIN, "v", 0, 100, 1, ZcdpNoise(Fraction(1)))
    assert zc.privacy_function(1) == 1
    # The average's privacy function is a sum and a count at half the spec.
    for noise, half in (
        (PureDpNoise(Fraction(3)), PureDpNoise(Fraction(3, 2))),
        (ZcdpNoise(Fraction(3)), ZcdpNoise(Fraction(3, 2))),
    ):
        parts = [make_sum(DOMAIN, "v", 0, 100, 1, half), make_count(DOMAIN, half)]
        assert make_average(DOMAIN, "v", 0, 100, 1, noise).privacy_function == sum_maps(
            [part.privacy_function for part in parts]
        )


def test_quantile_single_bin_returns_midpoint():
    m = make_quantile(DOMAIN, "v", 0.5, 0.0, 4.0, 1, Fraction(20))
    assert m.eval(T(("a", 3.0)), stream()) == 2.0


def test_quantile_scores_match_brute_force():
    rng = random.Random(5)
    midpoints = [0.5 + i for i in range(8)]
    cases = [
        [],  # an empty table scores every bin 0
        [1.5, 1.5, 2.5, 0.5, 7.5],  # values tied to midpoints
        [3, 0, 8, 3, -1, 5],  # an int column
    ] + [[rng.choice([rng.uniform(-1, 9), float(rng.randint(0, 8)) + 0.5])
          for _ in range(rng.randrange(12))] for _ in range(200)]
    for values in cases:
        for q in (0.0, 0.25, 0.5, 1.0):
            # _quantile_scores takes the column sorted, as a table derives it.
            assert _quantile_scores(sorted(values), midpoints, q) == quantile_scores_reference(
                values, midpoints, q
            )


def test_quantile_validation():
    with pytest.raises(BadQuantile):
        make_quantile(DOMAIN, "v", 1.5, 0.0, 4.0, 4, Fraction(20))
    with pytest.raises(BadBounds):
        make_quantile(DOMAIN, "v", 0.5, 4.0, 0.0, 4, Fraction(20))
    with pytest.raises(BadBounds):
        make_quantile(DOMAIN, "v", 0.5, 0.0, 4.0, 0, Fraction(20))
    with pytest.raises(NonPositiveEpsilon):
        make_quantile(DOMAIN, "v", 0.5, 0.0, 4.0, 4, Fraction(0))


def test_quantile_neighbor_divergence():
    # Exact bin pmfs for neighbors differing by one added value.
    eps = Fraction(2)
    values = [1.0, 2.0, 3.0]
    p = quantile_pmf(values, 0.5, 0.0, 4.0, 4, eps)
    q = quantile_pmf(values + [2.5], 0.5, 0.0, 4.0, 4, eps)
    pd = {i: float(x) for i, x in enumerate(p)}
    qd = {i: float(x) for i, x in enumerate(q)}
    assert pure_dp_divergence(pd, qd) <= float(eps) + 1e-9


def test_quantile_sampling_matches_pmf():
    m = make_quantile(DOMAIN, "v", 0.5, 0.0, 4.0, 4, Fraction(4))
    t = T(("a", 1.0), ("a", 2.0), ("a", 3.0))
    counts = {0.5: 0, 1.5: 0, 2.5: 0, 3.5: 0}
    n = 4000
    root = stream("qs")
    for i in range(n):
        counts[m.eval(t, root.child(i))] += 1
    oracle = quantile_pmf([1.0, 2.0, 3.0], 0.5, 0.0, 4.0, 4, Fraction(4))
    empirical = {i: Fraction(counts[mid], n) for i, mid in enumerate((0.5, 1.5, 2.5, 3.5))}
    assert tv_distance(empirical, dict(enumerate(oracle))) < 0.03


COLUMNS = Schema.of(("g", ColumnType.TEXT), ("n", ColumnType.INT64), ("v", ColumnType.FLOAT64))
COLUMNS_DOMAIN = TableDomain(COLUMNS, None)
# The scan workload's three quantiles, as (column, q, low, high, bins).
QUANTILES = [("v", 0.5, 0.0, 200.0, 100), ("v", 0.25, 0.0, 200.0, 150), ("v", 0.9, 0.0, 400.0, 1000)]


def _columns_rows(rng, n=60):
    return [
        (rng.choice("ab"), rng.randrange(-5, 50), rng.choice([rng.uniform(-10, 210), 100.0]))
        for _ in range(n)
    ]


def _quantile(column, q, low, high, bins):
    return make_quantile(COLUMNS_DOMAIN, column, q, low, high, bins, Fraction(1, 20))


def test_a_warm_quantile_builds_nothing(monkeypatch):
    rng = random.Random(71)
    for _ in range(10):
        rows = _columns_rows(rng)
        table = Table.of(COLUMNS, rows)
        first, *others = [_quantile(*spec) for spec in QUANTILES]
        first.eval(table, stream())
        values = table.derive(("sorted", 2), unbuilt)
        assert values == sorted(row[2] for row in rows)

        def no_sort(*args, **kwargs):
            raise AssertionError("a remembered column was sorted again")

        with monkeypatch.context() as patch:
            patch.setattr(measurements, "sorted", no_sort, raising=False)
            for measurement in [first, *others]:
                measurement.eval(table, stream())
        assert remembered(table) == {("sorted", 2): values}
        assert table.derive(("sorted", 2), unbuilt) is values
        # The table's own rows keep the order they were built with.
        assert table.rows == tuple(rows)


def test_sorted_columns_of_other_columns_or_tables_never_share_an_entry():
    rng = random.Random(72)
    for _ in range(10):
        rows = _columns_rows(rng)
        table = Table.of(COLUMNS, rows)
        for _ in range(2):  # cold, then warm
            _quantile("n", 0.5, -5.0, 50.0, 11).eval(table, stream())
            _quantile("v", 0.5, 0.0, 200.0, 10).eval(table, stream())
        assert remembered(table) == {
            ("sorted", 1): sorted(row[1] for row in rows),
            ("sorted", 2): sorted(row[2] for row in rows),
        }
        rebuilt = Table.of(COLUMNS, rows)
        assert remembered(rebuilt) == {}
        fewer = Table.of(COLUMNS, rows[1:])
        _quantile("v", 0.5, 0.0, 200.0, 10).eval(fewer, stream())
        assert remembered(fewer) == {("sorted", 2): sorted(row[2] for row in rows[1:])}
        assert remembered(table)[("sorted", 2)] == sorted(row[2] for row in rows)


def test_cold_and_warm_quantiles_draw_as_on_a_fresh_table():
    rng = random.Random(73)
    quantiles = [_quantile(*spec) for spec in QUANTILES]
    for seed in range(10):
        rows = _columns_rows(rng, 200)
        table = Table.of(COLUMNS, rows)
        for _ in range(2):  # cold, then warm
            for i, measurement in enumerate(quantiles):
                ours, theirs = LoggingRandom(10 * seed + i), LoggingRandom(10 * seed + i)
                got = measurement._eval(table, ours)
                assert got == measurement._eval(Table.of(COLUMNS, rows), theirs)
                assert ours.calls == theirs.calls == [64]
                assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_a_grouped_quantile_still_scores_as_the_reference(monkeypatch):
    rng = random.Random(74)
    keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("a",), ("b",), ("c",)])
    scored = []

    def recording(values, midpoints, q):
        scores = _quantile_scores(values, midpoints, q)
        scored.append((values, midpoints, q, scores))
        return scores

    monkeypatch.setattr(measurements, "_quantile_scores", recording)
    for column, q, low, high, bins in QUANTILES:
        per_group = _quantile(column, q, low, high, bins)
        grouped = compose_per_group(COLUMNS_DOMAIN, keys, per_group, ("quantile", ColumnType.FLOAT64))
        for _ in range(5):
            rows = _columns_rows(rng, rng.randrange(40))
            table = Table.of(COLUMNS, rows)
            for _ in range(2):  # each evaluate wraps the groups in new tables
                scored.clear()
                grouped.eval(table, stream())
                assert len(scored) == len(keys.rows)
                for (key,), (values, midpoints, q_seen, scores) in zip(keys.rows, scored):
                    group = [row[2] for row in rows if row[0] == key]
                    assert values == sorted(group) and q_seen == q
                    assert scores == quantile_scores_reference(group, midpoints, q)


# ---------------------------------------------------------------------------
# Composition.


def test_compose_sequential_sums_privacy():
    a = make_count(DOMAIN, PureDpNoise(Fraction(3, 10)))
    b = make_count(DOMAIN, PureDpNoise(Fraction(2, 10)))
    both = compose_sequential([a, b])
    assert both.privacy_function.slope == Fraction(1, 2)
    out = both.eval(T(("a", 1.0)), stream())
    assert isinstance(out, tuple) and len(out) == 2


def test_compose_sequential_mismatches():
    zc = make_count(DOMAIN, ZcdpNoise(Fraction(1)))
    pu = make_count(DOMAIN, PureDpNoise(Fraction(1)))
    with pytest.raises(MeasureMismatch):
        compose_sequential([zc, pu])
    other = TableDomain(Schema.of(("x", ColumnType.INT64)), None)
    with pytest.raises(DomainMismatch):
        compose_sequential([pu, make_count(other, PureDpNoise(Fraction(1)))])


def test_compose_sequential_joint_divergence():
    # Two counts, 0.25 each, on neighbors of sizes 2 and 3: the joint
    # output distribution is a product, and its worst log-ratio is the sum.
    eps = Fraction(1, 4)
    lo, hi = -130, 130
    single_at_2 = geometric_pmf(eps, 2, lo + 2, hi + 2)
    single_at_3 = geometric_pmf(eps, 3, lo + 2, hi + 2)
    joint_p = product_pmf([single_at_2, single_at_2])
    joint_q = product_pmf([single_at_3, single_at_3])
    d = pure_dp_divergence(joint_p, joint_q)
    assert d <= 0.5 + 1e-9
    assert d >= 0.5 - 1e-6  # tight at the corner outcome


KEYS = Schema.of(("g", ColumnType.TEXT))


def _grouped(noise=None, value=("count", ColumnType.INT64)):
    noise = noise or PureDpNoise(Fraction(4, 10))
    per_group = make_count(DOMAIN, noise)
    return compose_per_group(DOMAIN, KeySet(KEYS, [("a",), ("b",)]), per_group, value)


def test_per_group_keyset_contract():
    m = _grouped(PureDpNoise(BIG))
    out = m.eval(T(("a", 1.0), ("a", 2.0), ("zzz", 9.0)), stream())
    assert out.rows == (("a", 2), ("b", 0))
    assert isinstance(m.input_metric, GroupedBy)


def test_per_group_gets_one_table_per_keyset_key():
    seen = []

    def evaluate(table, rng):
        seen.append(table)
        return len(table.rows)

    exact_count = Measurement(DOMAIN, SymmetricDifference(), PureDP(), linear_map(1), evaluate)
    # "absent" is not in the data, and "zzz" and "yyy" are not in the keyset.
    keys = KeySet(KEYS, [("b",), ("absent",), ("a",)])
    m = compose_per_group(DOMAIN, keys, exact_count, ("count", ColumnType.INT64))
    data = T(("a", 1.0), ("zzz", 9.0), ("b", 2.0), ("a", 3.0), ("yyy", 4.0), ("a", 1.0))
    assert m.eval(data, stream()).rows == (("b", 1), ("absent", 0), ("a", 3))
    assert all(isinstance(table, Table) and table.schema == SCHEMA for table in seen)
    assert [table.multiset() for table in seen] == [
        Counter({("b", 2.0): 1}),
        Counter(),
        Counter({("a", 1.0): 2, ("a", 3.0): 1}),
    ]


GROUPED = Schema.of(("g", ColumnType.TEXT), ("k", ColumnType.INT64), ("v", ColumnType.FLOAT64))
GROUPED_DOMAIN = TableDomain(GROUPED, None)


def _per_group_parts():
    """A count, a sum and an average under each noise spec, and the value
    each releases computed from the oracles: the grain reference, the
    randrange samplers and exact division, an average's sum drawn first."""
    clamp = (-2, 10, Fraction(1, 4))  # 40 grains per row at most

    def grains(table):
        return grain_total_reference([row[2] for row in table.rows], *clamp)

    def draw(noise, sensitivity, rng):
        if isinstance(noise, PureDpNoise):
            return randrange_two_sided_geometric(noise.epsilon_unit / sensitivity, rng)
        return randrange_discrete_gaussian(Fraction(sensitivity**2) / (2 * noise.rho_unit), rng)

    for noise, half in (
        (PureDpNoise(Fraction(1, 2)), PureDpNoise(Fraction(1, 4))),
        (ZcdpNoise(Fraction(1, 2)), ZcdpNoise(Fraction(1, 4))),
    ):

        def count(table, rng, noise=noise):
            return len(table.rows) + draw(noise, 1, rng)

        def total(table, rng, noise=noise):
            return float(Fraction(grains(table) + draw(noise, 40, rng), 4))

        def average(table, rng, half=half):
            noisy_total = grains(table) + draw(half, 40, rng)
            noisy_count = len(table.rows) + draw(half, 1, rng)
            return float(Fraction(noisy_total, 4 * max(1, noisy_count)))

        for part, reference, value_type in (
            (make_count(GROUPED_DOMAIN, noise), count, ColumnType.INT64),
            (make_sum(GROUPED_DOMAIN, "v", *clamp, noise), total, ColumnType.FLOAT64),
            (make_average(GROUPED_DOMAIN, "v", *clamp, noise), average, ColumnType.FLOAT64),
        ):
            yield part, reference, value_type


@pytest.mark.parametrize("key_names", [("g",), ("k",), ("k", "g")])
def test_per_group_matches_the_per_key_reference(key_names):
    # Same rows and the same draws, in the same order: after each release
    # the generator's next word is the reference's.
    key_schema = Schema.of(*[(name, GROUPED.type_of(name)) for name in key_names])
    cells = {"g": "abcd", "k": range(4)}  # "d" and 3 are in no table
    candidates = list(product(*[cells[name] for name in key_names]))
    parts = list(_per_group_parts())
    for seed in range(100):
        rng = random.Random(f"per-group-{key_names}-{seed}")
        # Every fifth table is empty; a value is uniform or a multiple of
        # 1/8, so some are half grains.
        rows = [
            (rng.choice("abc"), rng.randrange(3), rng.choice(
                [rng.uniform(-5, 15), rng.randint(-40, 120) / 8]))
            for _ in range(0 if seed % 5 == 0 else rng.randrange(1, 40))
        ]
        table = Table.of(GROUPED, rows)
        keys = KeySet(key_schema, rng.sample(candidates, rng.randint(1, len(candidates))))
        for part, reference, value_type in parts:
            released = compose_per_group(GROUPED_DOMAIN, keys, part, ("value", value_type))
            generator, expected = random.Random(seed), random.Random(seed)
            out = released._eval(table, generator)
            assert out.rows == per_group_reference(reference, keys, value_type, table, expected)
            assert generator.getrandbits(64) == expected.getrandbits(64)


def test_grouped_releases_after_filters_match_the_references():
    # A table through 0 to 3 filters ("k > 100" holds no row, "k > -1"
    # every row) releases, whole and per key, what the references release
    # on a table of the rows the filters keep by the row-at-a-time oracle:
    # the same values and draws for a count, a sum and an average, and for
    # a quantile the same value as on that table built anew.
    filters = ["k > 100", "k > -1", "v > 2.0", "g != 'b'", "v * 3.0 < k", "k == 1 or v < 0.0"]
    parts = list(_per_group_parts())
    quantile = make_quantile(GROUPED_DOMAIN, "v", 0.5, -5, 15, 16, 1)
    rng = random.Random(363)
    for seed in range(60):
        rows = [
            (rng.choice("abc"), rng.randrange(3), rng.choice(
                [rng.uniform(-5, 15), rng.randint(-40, 120) / 8]))
            for _ in range(rng.randrange(40))
        ]
        table, kept = Table.of(GROUPED, rows), tuple(rows)
        for predicate in rng.sample(filters, rng.randrange(4)):
            table = make_filter(GROUPED_DOMAIN, predicate).apply(table)
            kept = oracle_filter(kept, oracle_expression(predicate, GROUPED)[0])
        compact = Table.of(GROUPED, kept)
        keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("a",), ("b",), ("c",), ("d",)])
        for part, reference, value_type in parts:
            generator, expected = random.Random(seed), random.Random(seed)
            assert part._eval(table, generator) == reference(compact, expected)
            released = compose_per_group(GROUPED_DOMAIN, keys, part, ("value", value_type))
            out = released._eval(table, generator)
            assert out.rows == per_group_reference(reference, keys, value_type, compact, expected)
            assert generator.getrandbits(64) == expected.getrandbits(64)
        value = quantile._eval(Table.of(GROUPED, kept), random.Random(seed))
        assert quantile._eval(table, random.Random(seed)) == value
        released = compose_per_group(GROUPED_DOMAIN, keys, quantile, ("value", ColumnType.FLOAT64))
        fresh = released._eval(Table.of(GROUPED, kept), random.Random(seed))
        assert released._eval(table, random.Random(seed)).rows == fresh.rows


def test_per_group_costs_one_part_call_and_its_own_draws_per_key(monkeypatch):
    # What the benchmark's tracer counts: each keyset key is one call of the
    # part's _eval on a Table, and every draw goes through this module's
    # sampler globals, one per key, or two for an average, its sum's first.
    draws = []
    for name in ("sample_two_sided_geometric", "sample_discrete_gaussian"):

        def logged(parameter, rng, name=name, sample=getattr(measurements, name)):
            draws.append((name, parameter))
            return sample(parameter, rng)

        monkeypatch.setattr(measurements, name, logged)
    geometric = "sample_two_sided_geometric"
    gaussian = "sample_discrete_gaussian"
    # Per key, with 40 grains per row at most; the average's halves sample
    # at half the spec's budget.
    per_key = [
        [(geometric, Fraction(1, 2))],
        [(geometric, Fraction(1, 80))],
        [(geometric, Fraction(1, 160)), (geometric, Fraction(1, 4))],
        [(gaussian, Fraction(1))],
        [(gaussian, Fraction(1600))],
        [(gaussian, Fraction(3200)), (gaussian, Fraction(2))],
    ]
    keys = KeySet(
        Schema.of(("g", ColumnType.TEXT), ("k", ColumnType.INT64)),
        [("b", 1), ("absent", 0), ("a", 0), ("a", 9), ("c", 2)],
    )
    table = Table.of(GROUPED, [
        ("a", 0, 2.5), ("b", 1, -1.0), ("a", 0, 11.0), ("c", 2, 0.125), ("z", 5, 3.0),
    ])
    parts = list(_per_group_parts())
    assert len(parts) == len(per_key)
    for (part, reference, value_type), expected_draws in zip(parts, per_key):
        seen = []

        def counted(group, rng, release=part._eval):
            seen.append(group)
            return release(group, rng)

        released = compose_per_group(
            GROUPED_DOMAIN, keys, replace(part, _eval=counted), ("value", value_type)
        )
        draws.clear()
        generator, expected = random.Random(5), random.Random(5)
        out = released._eval(table, generator)
        assert len(seen) == len(keys.rows)
        assert all(type(group) is Table for group in seen)
        assert [len(group.rows) for group in seen] == [1, 0, 2, 0, 1]
        assert draws == expected_draws * len(keys.rows)
        assert out.rows == per_group_reference(reference, keys, value_type, table, expected)
        assert generator.getrandbits(64) == expected.getrandbits(64)


def _groups_reference(table, key_names, read_names=None):
    """The rows of each key in key_names, in input order, as tuples of
    their cells in read_names (every column when None)."""
    key_of = key_reader(table.schema, key_names)
    names = table.schema.names if read_names is None else read_names
    positions = [table.schema.index_of(name) for name in names]
    groups = {}
    for row in table.rows:
        groups.setdefault(key_of(row), []).append(tuple(row[i] for i in positions))
    return {key: tuple(rows) for key, rows in groups.items()}


def _group_rows(groups):
    """The rows of each key's Table in a remembered grouping."""
    return {key: part.rows for key, part in groups.items()}


def _grouped_rows(rng, n=40):
    return [(rng.choice("abc"), rng.randrange(3), rng.uniform(-5, 15)) for _ in range(n)]


def _recording_count(seen):
    def evaluate(table, rng):
        seen.append(table)
        return len(table.rows)

    return Measurement(GROUPED_DOMAIN, SymmetricDifference(), PureDP(), linear_map(1), evaluate)


def test_a_warm_grouped_release_builds_nothing(monkeypatch):
    rng = random.Random(81)
    keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("b",), ("a",), ("d",)])
    for _ in range(10):
        rows = _grouped_rows(rng, rng.randrange(1, 40))
        table = Table.of(GROUPED, rows)
        seen = []
        released = compose_per_group(GROUPED_DOMAIN, keys, _recording_count(seen), ("n", ColumnType.INT64))
        cold = released.eval(table, stream())
        groups = table.derive(("groups", ("g",), GROUPED.names), unbuilt)
        # A plain dict from each key to a Table of its rows, in input order.
        assert type(groups) is dict and _group_rows(groups) == _groups_reference(table, ("g",))
        assert all(type(part) is Table for part in groups.values())

        def no_split(*args, **kwargs):
            raise AssertionError("a remembered grouping was split again")

        built = []
        trusted = Table._trusted
        with monkeypatch.context() as patch:
            patch.setattr(measurements, "split_by_key", no_split)
            patch.setattr(Table, "_trusted", lambda *args: built.append(args) or trusted(*args))
            warm = released.eval(table, stream())
        assert warm.rows == cold.rows
        # The warm release builds one Table: its result.
        assert [args[0] for args in built] == [warm.schema]
        assert remembered(table) == {("groups", ("g",), GROUPED.names): groups}
        # Each present key's Table is the remembered Table itself, cold and
        # warm; absent keys get an empty one.
        for group, (key,) in zip(seen, keys.rows * 2):
            assert group is groups[key] if key in groups else group.rows == ()
        assert table.rows == tuple(rows)


def test_cold_and_warm_grouped_releases_draw_as_on_a_fresh_table():
    rng = random.Random(82)
    parts = list(_per_group_parts())
    for seed in range(20):
        rows = _grouped_rows(rng, 0 if seed % 5 == 0 else rng.randrange(1, 40))
        table = Table.of(GROUPED, rows)
        keys = KeySet(
            Schema.of(("k", ColumnType.INT64), ("g", ColumnType.TEXT)),
            rng.sample(list(product(range(4), "abcd")), rng.randint(1, 16)),
        )
        for i, (part, reference, value_type) in enumerate(parts):
            released = compose_per_group(GROUPED_DOMAIN, keys, part, ("value", value_type))
            for _ in range(2):  # cold, then warm
                ours, theirs = LoggingRandom(100 * seed + i), LoggingRandom(100 * seed + i)
                got = released._eval(table, ours)
                fresh = released._eval(Table.of(GROUPED, rows), theirs)
                assert got.rows == fresh.rows
                assert [row[:2] for row in got.rows] == list(keys.rows)
                assert ours.calls == theirs.calls
                assert ours.getrandbits(64) == theirs.getrandbits(64)
                expected = random.Random(100 * seed + i)
                assert got.rows == per_group_reference(reference, keys, value_type, table, expected)


def test_absent_keyset_keys_get_the_one_empty_table():
    keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("x",), ("a",), ("y",), ("z",)])
    table = Table.of(GROUPED, [("a", 0, 1.0), ("b", 1, 2.0), ("a", 2, 3.0)])
    for _ in range(2):  # cold, then warm
        seen = []
        released = compose_per_group(GROUPED_DOMAIN, keys, _recording_count(seen), ("n", ColumnType.INT64))
        assert released.eval(table, stream()).rows == (("x", 0), ("a", 2), ("y", 0), ("z", 0))
        absent, present = seen[0], seen[1]
        assert type(absent) is Table and absent.schema == GROUPED and absent.rows == ()
        assert seen[2] is absent and seen[3] is absent
        assert present.rows == (("a", 0, 1.0), ("a", 2, 3.0))
        assert remembered(absent) == {}


def test_groups_by_other_key_names_or_orders_never_share_an_entry():
    rng = random.Random(83)
    shapes = [("g",), ("k",), ("k", "g"), ("g", "k")]
    for _ in range(10):
        rows = _grouped_rows(rng)
        table = Table.of(GROUPED, rows)
        for _ in range(2):  # cold, then warm
            for names in shapes:
                key_schema = Schema.of(*[(name, GROUPED.type_of(name)) for name in names])
                candidates = {tuple(row[GROUPED.index_of(name)] for name in names) for row in rows}
                absent = tuple({"g": "zzz", "k": 9}[name] for name in names)
                keys = KeySet(key_schema, sorted(candidates) + [absent])
                released = compose_per_group(
                    GROUPED_DOMAIN, keys, _recording_count([]), ("n", ColumnType.INT64)
                )
                out = released.eval(table, stream())
                positions = [GROUPED.index_of(name) for name in names]
                assert out.rows == tuple(
                    key + (sum(1 for row in rows if tuple(row[i] for i in positions) == key),)
                    for key in keys.rows
                )
        assert {key: _group_rows(groups) for key, groups in remembered(table).items()} == {
            ("groups", names, GROUPED.names): _groups_reference(table, names) for names in shapes
        }


def test_grouping_a_filtered_table_leaves_the_source_memo_untouched():
    people = Schema.of(("zip", ColumnType.TEXT), ("income", ColumnType.FLOAT64))
    table = Table.of(people, [("981", 10.0), ("982", 20.0), ("981", 30.0)])
    zips = session.keyset_from_tuples([("zip", ColumnType.TEXT)], [("981",), ("000",)])
    budget = session.PrivacyBudget.pure
    s = session.build_session({"people": table}, session.AddMaxRows(1), budget(3), seed=1)
    filtered = session.query("people").filter("income > 15").group_by(zips).count()
    # The source remembers the filter's output, which shares its columns
    # and remembers the groups under its mask; nothing groups the source.
    for _ in range(2):
        s.evaluate(filtered, budget(1))
        assert list(remembered(table)) == [("filter", "income > 15")]
        against, output = remembered(table)[("filter", "income > 15")]
        assert against is None and output.columns is table.columns and output.store is table
        assert list(remembered(output)) == [("groups", ("zip",), ("zip",))]
        groups = remembered(output)[("groups", ("zip",), ("zip",))]
        # Every stored row is split, each key's Table under its rows' mask.
        assert {key: part.multiset() for key, part in groups.items()} == {
            "981": Counter({("981",): 1}), "982": Counter({("982",): 1})
        }
        assert {key: len(part.columns[0]) for key, part in groups.items()} == {"981": 2, "982": 1}
    s.evaluate(session.query("people").group_by(zips).count(), budget(1))
    # A count's groups hold its first key column only.
    assert list(remembered(table)) == [("filter", "income > 15"), ("groups", ("zip",), ("zip",))]
    groups = remembered(table)[("groups", ("zip",), ("zip",))]
    assert _group_rows(groups) == _groups_reference(table, ("zip",), ("zip",))


# A session's grouped aggregations, each with the column its groups hold
# (a count's first key column, or the column a sum, an average or a
# quantile reads) and the type of the value it releases.
_READ_CASES = [
    ("make_count", lambda q: q.count(), "g", ColumnType.INT64),
    ("make_sum", lambda q: q.sum("v", -2, 10, Fraction(1, 4)), "v", ColumnType.FLOAT64),
    ("make_average", lambda q: q.average("v", -2, 10, Fraction(1, 4)), "v", ColumnType.FLOAT64),
    ("make_quantile", lambda q: q.quantile("v", 0.5, -2, 10, 8), "v", ColumnType.FLOAT64),
]


def _recording(make, seen, references):
    """make, whose measurements also log each group's Table in seen; each
    one's twin built on the whole GROUPED domain goes in references."""

    def build(domain, *args):
        made = make(domain, *args)
        references.append(make(GROUPED_DOMAIN, *args)._eval)

        def evaluate(table, rng):
            seen.append(table)
            return made._eval(table, rng)

        return replace(made, _eval=evaluate)

    return build


@pytest.mark.parametrize(
    "name, aggregate, read, value_type", _READ_CASES, ids=[c[0] for c in _READ_CASES]
)
def test_a_session_group_holds_only_the_column_its_aggregation_reads(
    monkeypatch, name, aggregate, read, value_type
):
    # The per-group part is built on the read column alone, and releases
    # the rows and draws that its twin on the whole domain releases from
    # whole groups, on tables with and without a mask, cold and warm.
    seen, references = [], []
    monkeypatch.setattr(session, name, _recording(getattr(session, name), seen, references))
    keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("b",), ("d",), ("a",), ("c",)])
    read_schema = Schema.of((read, GROUPED.type_of(read)))
    rng = random.Random(f"read-{name}")
    for seed in range(8):
        rows = _grouped_rows(rng, 0 if seed == 0 else rng.randrange(1, 40))
        table = Table.of(GROUPED, rows)
        for masked in (False, True):
            source = session.query("t").filter("k > 0") if masked else session.query("t")
            compiled = session.compile_query(
                aggregate(source.group_by(keys)), {"t": GROUPED_DOMAIN},
                session.AddMaxRows(1), PureDP(), 1,
            )
            held = make_filter(GROUPED_DOMAIN, "k > 0").apply(table) if masked else table
            assert (held.held is not None) is masked
            groups = _groups_reference(held, ("g",), (read,))
            for _ in range(2):  # cold, then warm
                seen.clear()
                ours, theirs = LoggingRandom(seed), LoggingRandom(seed)
                out = compiled.measurement._eval((table,), ours)
                assert [group.schema for group in seen] == [read_schema] * len(keys.rows)
                assert [group.rows for group in seen] == [groups.get(key, ()) for (key,) in keys.rows]
                expected = per_group_reference(references[-1], keys, value_type, held, theirs)
                assert out.rows == expected
                assert ours.calls == theirs.calls
                assert ours.getrandbits(64) == theirs.getrandbits(64)
            # The unmasked release remembers its groups on the source; the
            # masked one finds the filter's output remembered on the source
            # (make_filter above asked for it first) and remembers its own
            # groups on that output, a Table for every key of a stored row.
            # A sum's or an average's groups take their grain counts from
            # the table, which stores the column.
            grouping = ("groups", ("g",), (read,))
            summed = name in ("make_sum", "make_average")  # and some key has a row
            expected = {grouping}
            if summed and rows:
                expected.add(("grains", GROUPED.index_of("v"), -2.0, 10.0, 1, 4))
            if masked:
                expected.add(("filter", "k > 0"))
            assert set(remembered(table)) == expected
            if masked:
                assert list(remembered(held)) == [grouping]
            for group, (key,) in zip(seen, keys.rows):
                if key in remembered(held)[grouping]:
                    assert group is remembered(held)[grouping][key]
                else:
                    assert group.store is group and not len(group.columns[0])


def _recording_part(schema, seen):
    """A count built on schema whose measurement also logs each group's Table."""
    made = make_count(TableDomain(schema), PureDpNoise(Fraction(1, 2)))

    def evaluate(table, rng):
        seen.append(table)
        return made._eval(table, rng)

    return replace(made, _eval=evaluate)


@pytest.mark.parametrize(
    "read",
    [
        Schema.of(("k", ColumnType.INT64)),
        Schema.of(("g", ColumnType.TEXT), ("v", ColumnType.FLOAT64), ("k", ColumnType.INT64)),
    ],
    ids=["a count's first key column", "both key columns and a value"],
)
def test_a_group_repeats_its_key_cells_in_the_key_columns_it_reads(read):
    # Keys of two columns, in the other order from the data's: each key
    # column a group reads is its key's cell at that column, repeated, on
    # tables with and without a mask, cold and warm.
    keys = KeySet(
        Schema.of(("k", ColumnType.INT64), ("g", ColumnType.TEXT)),
        [(1, "a"), (0, "b"), (2, "a"), (1, "c"), (9, "z")],
    )
    rng = random.Random(85)
    for _ in range(8):
        table = Table.of(GROUPED, _grouped_rows(rng))
        for held in (table, make_filter(GROUPED_DOMAIN, "v > 2.0").apply(table)):
            groups = _groups_reference(held, ("k", "g"), read.names)
            for _ in range(2):  # cold, then warm
                seen = []
                released = compose_per_group(
                    GROUPED_DOMAIN, keys, _recording_part(read, seen), ("n", ColumnType.INT64)
                )
                released.eval(held, stream())
                assert [group.schema for group in seen] == [read] * len(keys.rows)
                assert [group.rows for group in seen] == [groups.get(key, ()) for key in keys.rows]


def test_a_count_and_a_sum_on_one_table_remember_two_groupings(monkeypatch):
    keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("a",), ("b",), ("z",)])
    splits = []
    split = measurements.split_by_key
    monkeypatch.setattr(measurements, "split_by_key", lambda *args: splits.append(args) or split(*args))
    budget = session.PrivacyBudget.pure
    rng = random.Random(84)
    for _ in range(5):
        table = Table.of(GROUPED, _grouped_rows(rng))
        s = session.build_session({"t": table}, session.AddMaxRows(1), budget(INF), seed=1)
        by_g = session.query("t").group_by(keys)
        splits.clear()
        for _ in range(2):  # cold, then warm
            for expr in (by_g.count(), by_g.sum("v", -2, 10)):
                s.evaluate(expr, budget(1))
        # One split per read column, each its own entry; the warm releases
        # split nothing.  The sum's groups take their grain counts from the
        # table, its one counts entry.
        assert len(splits) == 2
        grains = ("grains", GROUPED.index_of("v"), -2.0, 10.0, 1, 100)
        assert set(remembered(table)) == {("groups", ("g",), (read,)) for read in ("g", "v")} | {grains}
        assert {
            key: _group_rows(groups) for key, groups in remembered(table).items() if key != grains
        } == {
            ("groups", ("g",), (read,)): _groups_reference(table, ("g",), (read,))
            for read in ("g", "v")
        }


def test_a_part_that_reads_a_column_the_domain_lacks_is_refused():
    keys = KeySet(Schema.of(("g", ColumnType.TEXT)), [("a",)])
    noise = PureDpNoise(Fraction(1, 2))
    for read in (("v", ColumnType.FLOAT64), ("k", ColumnType.INT64), ("g", ColumnType.TEXT)):
        part = make_count(TableDomain(Schema.of(read)), noise)
        compose_per_group(GROUPED_DOMAIN, keys, part, ("n", ColumnType.INT64))
    parts = [
        make_count(TableDomain(Schema(read)), noise) for read in (
            (("x", ColumnType.FLOAT64),),  # missing
            (("k", ColumnType.FLOAT64),),  # retyped
            (("g", ColumnType.INT64),),  # a retyped key column
            (("v", ColumnType.FLOAT64), ("x", ColumnType.INT64)),  # one of two missing
        )
    ]
    parts.append(make_sum(TableDomain(Schema.of(("v", ColumnType.INT64))), "v", 0, 1, 1, noise))
    for part in parts:
        with pytest.raises(DomainMismatch, match="does not hold"):
            compose_per_group(GROUPED_DOMAIN, keys, part, ("n", ColumnType.INT64))


# Values a per-group part or an ungrouped aggregation might return, and the
# column types they are released into.
_CELL_CASES = [
    (-0.0, ColumnType.FLOAT64),
    (-0.0, ColumnType.INT64),
    (2.5, ColumnType.FLOAT64),
    (2**70, ColumnType.INT64),
    (-(2**70), ColumnType.INT64),
    (2**63 - 1, ColumnType.INT64),
    (10**400, ColumnType.FLOAT64),
    (-(10**400), ColumnType.FLOAT64),
    (2.75, ColumnType.INT64),
    (-1e300, ColumnType.INT64),
    (Fraction(7, 2), ColumnType.FLOAT64),
    (Fraction(-7, 2), ColumnType.INT64),
    (True, ColumnType.INT64),
    (True, ColumnType.FLOAT64),
    (5, ColumnType.FLOAT64),
    (math.inf, ColumnType.FLOAT64),
]


def _same_cell(cell, value, value_type):
    # repr tells -0.0 from 0.0 and True from 1; type tells 1 from 1.0.
    expected = result_cell(value, value_type)
    return type(cell) is type(expected) and repr(cell) == repr(expected)


def test_per_group_cells_are_result_cell_exactly():
    keys = KeySet(KEYS, [("a",), ("absent",)])
    data = T(("a", 1.0))
    for value, value_type in _CELL_CASES:
        constant = Measurement(
            DOMAIN, SymmetricDifference(), PureDP(), linear_map(1),
            lambda table, rng, value=value: value,
        )
        m = compose_per_group(DOMAIN, keys, constant, ("value", value_type))
        for row in m.eval(data, stream()).rows:
            assert _same_cell(row[1], value, value_type), (value, value_type, row)


def test_ungrouped_and_grouped_query_cells_are_result_cell_exactly(monkeypatch):
    # The session's aggregations are swapped for ones that return the value
    # itself: a count releases into int64, a sum into float64.
    people = Schema.of(("zip", ColumnType.TEXT), ("income", ColumnType.FLOAT64))
    table = Table.of(people, [("981", 10.0), ("982", 20.0)])
    zips = session.keyset_from_tuples([("zip", ColumnType.TEXT)], [("981",), ("000",)])
    for value, value_type in _CELL_CASES:

        def constant(domain, *args, value=value):
            noise = args[-1]
            return Measurement(
                domain, SymmetricDifference(), noise.measure, linear_map(1),
                lambda table, rng: value,
            )

        if value_type is ColumnType.INT64:
            monkeypatch.setattr(session, "make_count", constant)
            plain = session.query("people").count()
            grouped = session.query("people").group_by(zips).count()
        else:
            monkeypatch.setattr(session, "make_sum", constant)
            plain = session.query("people").sum("income", 0, 100)
            grouped = session.query("people").group_by(zips).sum("income", 0, 100)
        budget = session.PrivacyBudget.pure
        s = session.build_session({"people": table}, session.AddMaxRows(1), budget(2), seed=1)
        (released,) = s.evaluate(plain, budget(1)).rows
        assert _same_cell(released[0], value, value_type), (value, value_type)
        for row in s.evaluate(grouped, budget(1)).rows:
            assert _same_cell(row[1], value, value_type), (value, value_type, row)


def test_per_group_privacy_is_not_multiplied():
    per_group = make_count(DOMAIN, PureDpNoise(Fraction(4, 10)))
    keyset = [(str(i),) for i in range(10)]
    m = compose_per_group(
        DOMAIN, KeySet(KEYS, keyset), per_group, ("count", ColumnType.INT64)
    )
    assert m.privacy_function(1) == Fraction(4, 10)


def test_per_group_accepts_any_map_and_rejects_bad_keys():
    # A zCDP count's map is the quadratic d^2; the groups keep it.
    quadratic = make_count(DOMAIN, ZcdpNoise(Fraction(1))).privacy_function
    assert quadratic == DistanceMap(0, 1)
    assert _grouped(ZcdpNoise(Fraction(1))).privacy_function == quadratic
    per_group = make_count(DOMAIN, PureDpNoise(Fraction(1)))
    with pytest.raises(MissingKeyColumn):
        compose_per_group(
            DOMAIN, KeySet(Schema.of(("zip", ColumnType.TEXT)), [("x",)]), per_group,
            ("count", ColumnType.INT64),
        )
    with pytest.raises(KeyTypeMismatch):
        compose_per_group(
            DOMAIN, KeySet(Schema.of(("g", ColumnType.INT64)), [(1,)]), per_group,
            ("count", ColumnType.INT64),
        )


def test_per_group_linearized_zcdp_is_accepted():
    count = make_count(DOMAIN, ZcdpNoise(Fraction(1)))
    # The line through the quadratic d^2 at d = 2, agreeing with it there.
    line = replace(count, privacy_function=linear_map(count.privacy_function(2) / 2))
    m = compose_per_group(
        DOMAIN, KeySet(KEYS, [("a",), ("b",)]), line, ("count", ColumnType.INT64)
    )
    assert m.privacy_function(2) == 4
    assert m.privacy_function(1) == 2


def test_compose_over_subsets_bounds_every_split_of_the_distance():
    # Two zCDP counts, quadratic maps of different widths: the list distance
    # d splits as (a, d - a) across the parts, each costing its own map.
    parts = [make_count(DOMAIN, ZcdpNoise(rho)) for rho in (Fraction(1, 2), Fraction(1, 5))]
    m = compose_over_subsets(parts)
    first, second = (part.privacy_function for part in parts)
    for d in range(5):
        for a in range(d + 1):
            assert m.privacy_function(d) >= first(a) + second(d - a), (d, a)
    assert m.privacy_function(1) == Fraction(1, 2)


def test_compose_over_subsets():
    count = make_count(DOMAIN, PureDpNoise(Fraction(1, 4)))
    m = compose_over_subsets([count, count, count])
    assert m.privacy_function.slope == Fraction(1, 4)
    assert isinstance(m.input_metric, BoundedLists)
    out = m.eval([T(("a", 1.0)), T(), T(("b", 1.0), ("c", 1.0))], stream())
    assert len(out) == 3
    with pytest.raises(LengthMismatch):
        m.eval([T(), T()], stream())


# ---------------------------------------------------------------------------
# The interactive queryable.


def _queryable(total=Fraction(1)):
    return Queryable(
        T(("a", 1.0), ("b", 2.0), ("c", 3.0)),
        SymmetricDifference(),
        PureDP(),
        total,
        RngStream(5),
    )


def _count_m(eps):
    return make_count(DOMAIN, PureDpNoise(Fraction(eps)))


def test_queryable_ledger():
    q = _queryable()
    q.ask(_count_m("2/5"), Fraction(2, 5), 1)
    assert q.remaining() == Fraction(3, 5)
    q.ask(_count_m("3/5"), Fraction(3, 5), 1)
    assert q.remaining() == 0
    with pytest.raises(InsufficientBudget):
        q.ask(_count_m("1/1000"), Fraction(1, 1000), 1)
    assert q.remaining() == 0


def test_queryable_rejects_weak_guarantees():
    q = _queryable()
    with pytest.raises(GuaranteeTooWeak):
        q.ask(_count_m("1/2"), Fraction(1, 4), 1)  # f(1)=0.5 > 0.25
    assert q.remaining() == 1
    # Distance scales the requirement.
    with pytest.raises(GuaranteeTooWeak):
        q.ask(_count_m("1/4"), Fraction(1, 4), 2)
    q.ask(_count_m("1/8"), Fraction(1, 4), 2)
    assert q.remaining() == Fraction(3, 4)


def test_queryable_zero_spend_needs_zero_cost():
    q = _queryable()
    free = make_sum(DOMAIN, "v", 0, 0, 1, PureDpNoise(Fraction(1)))
    assert q.ask(free, Fraction(0), 1) == 0
    assert q.remaining() == 1


def test_failed_asks_change_nothing():
    script = [
        (_count_m("1/4"), Fraction(1, 4)),
        (_count_m("1/2"), Fraction(1, 2)),
    ]
    clean = _queryable()
    clean_outputs = [clean.ask(m, s, 1) for m, s in script]

    noisy_path = _queryable()
    with pytest.raises(GuaranteeTooWeak):
        noisy_path.ask(_count_m("2"), Fraction(1), 1)
    first = noisy_path.ask(*script[0], 1)
    with pytest.raises(InsufficientBudget):
        noisy_path.ask(_count_m("9"), Fraction(9), 1)
    second = noisy_path.ask(*script[1], 1)
    # Same outputs as the clean run: failures consumed no randomness.
    assert [first, second] == clean_outputs


def test_queryable_adaptivity():
    q = _queryable(Fraction(1))
    first = q.ask(_count_m("1/2"), Fraction(1, 2), 1)
    eps = Fraction(1, 4) if first % 2 == 0 else Fraction(1, 2)
    q.ask(_count_m(eps), eps, 1)
    assert q.remaining() >= 0
    assert q.spent() <= 1


def test_queryable_infinite_budget():
    q = _queryable(INF)
    for i in range(5):
        q.ask(_count_m("1000"), Fraction(1000), 1)
    assert q.remaining() == INF
    with pytest.raises(ValueError):
        q.ask(_count_m("1"), INF, 1)


def test_queryable_mismatch_checks():
    q = _queryable()
    zc = make_count(DOMAIN, ZcdpNoise(Fraction(1)))
    with pytest.raises(MeasureMismatch):
        q.ask(zc, Fraction(1), 1)
    grouped = _grouped(PureDpNoise(Fraction(1, 100)))
    with pytest.raises(MetricMismatch):
        q.ask(grouped, Fraction(1, 100), 1)
    assert q.remaining() == 1


def test_queryable_refuses_float_amounts():
    # 0.3 and 0.1 are binary fractions, not the decimals they print as.
    with pytest.raises(TypeMismatch):
        _queryable(0.3)
    q = _queryable()
    with pytest.raises(TypeMismatch):
        q.ask(_count_m("1/10"), 0.1, 1)
    assert q.spent() == 0
    # The refused ask used no randomness: the next ask is a fresh first ask.
    tenth = Fraction(1, 10)
    assert q.ask(_count_m(tenth), tenth, 1) == _queryable().ask(_count_m(tenth), tenth, 1)
    assert q.spent() == tenth


def test_a_failing_evaluation_is_charged_once_and_says_nothing_of_the_rows():
    def leaky(table, rng):
        row = table.rows[0]
        raise ValueError(f"secret {row}")

    quarter = Fraction(1, 4)
    failing = Measurement(DOMAIN, SymmetricDifference(), PureDP(), linear_map(quarter), leaky)
    clean = _queryable()
    clean_outputs = [clean.ask(_count_m(quarter), quarter, 1) for _ in range(3)]
    assert clean_outputs[1] != clean_outputs[2]  # so the check below can tell

    q = _queryable()
    first = q.ask(_count_m(quarter), quarter, 1)
    with pytest.raises(EvaluationFailed) as caught:
        q.ask(failing, quarter, 1)
    message = str(caught.value)
    assert "secret" not in message and "'a'" not in message
    assert caught.value.__cause__ is None and caught.value.__suppress_context__
    assert q.spent() == Fraction(1, 2)
    # The failed ask used up its ordinal: the next ask draws from the third
    # stream, so the failure is no free retry of the second.
    third = q.ask(_count_m(quarter), quarter, 1)
    assert [first, third] == [clean_outputs[0], clean_outputs[2]]
    assert q.spent() == 3 * quarter


def test_queryable_serializes_concurrent_asks():
    q = _queryable(Fraction(1))
    errors = []
    accepted = []

    def worker():
        for _ in range(20):
            try:
                q.ask(_count_m("1/10"), Fraction(1, 10), 1)
                accepted.append(1)
            except InsufficientBudget:
                errors.append(1)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(accepted) == 10  # exactly total / spend
    assert q.remaining() == 0
    assert q.spent() == 1
