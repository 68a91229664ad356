import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import mpmath
import pytest

from helpers import (
    BadAlpha,
    NotAPmf,
    ari_distance,
    dataset_distance,
    grouped_distance,
    pure_dp_divergence,
    random_table,
    sd_distance,
    zcdp_divergence,
)
from noisegate.errors import TypeMismatch
from noisegate.metrics import (
    INF,
    AddRemoveIds,
    BoundedLists,
    DistanceMap,
    GroupedBy,
    SymmetricDifference,
    TableTuple,
    compose_maps,
    format_amount,
    linear_map,
    max_map,
    parse_budget_amount,
    sum_maps,
)
from noisegate.tabledata import ColumnType, Schema, Table

SCHEMA = Schema.of(("id", ColumnType.INT64), ("v", ColumnType.INT64))


def test_symmetric_difference_vs_oracle():
    rng = random.Random(100)
    for _ in range(300):
        a = random_table(rng, 6)
        b = random_table(rng, 6)
        assert dataset_distance(SymmetricDifference(), a, b) == sd_distance(a, b)


def test_symmetric_difference_hand_cases():
    a = Table.of(SCHEMA, [(1, 0), (1, 0), (2, 1)])
    b = Table.of(SCHEMA, [(1, 0), (2, 1)])
    assert dataset_distance(SymmetricDifference(), a, b) == 1
    assert dataset_distance(SymmetricDifference(), a, a) == 0


def test_add_remove_ids_vs_formula_oracle():
    rng = random.Random(200)
    metric = AddRemoveIds("id")
    for _ in range(300):
        a = random_table(rng, 6)
        b = random_table(rng, 6)
        assert dataset_distance(metric, a, b) == ari_distance(a, b, "id")


def _tiny_universe():
    """Every table over ids {0,1}, row values {0,1}, at most 2 rows per id."""
    per_id_states = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    tables = []
    for s0, s1 in product(per_id_states, repeat=2):
        rows = []
        for id_value, (zeros, ones) in ((0, s0), (1, s1)):
            rows += [(id_value, 0)] * zeros + [(id_value, 1)] * ones
        tables.append(Table.of(SCHEMA, rows))
    return tables


def _bfs_ari(start: Table, goal: Table) -> int:
    """Shortest path where one step adds or removes one id's full row set."""

    def key(t):
        return frozenset(Counter(t.rows).items())

    def groups(t):
        out = {}
        for row in t.rows:
            out.setdefault(row[0], []).append(row)
        return out

    # Moves: drop one id entirely, or (if an id is absent) adopt the goal's
    # rows for it.  Adding anything other than the goal state is never useful.
    goal_groups = groups(goal)
    frontier = [start]
    seen = {key(start)}
    depth = 0
    while True:
        nxt = []
        for t in frontier:
            if key(t) == key(goal):
                return depth
            g = groups(t)
            for id_value in list(g):
                rows = [r for r in t.rows if r[0] != id_value]
                cand = Table.of(SCHEMA, rows)
                if key(cand) not in seen:
                    seen.add(key(cand))
                    nxt.append(cand)
            for id_value, rows in goal_groups.items():
                if id_value not in g:
                    cand = Table.of(SCHEMA, tuple(t.rows) + tuple(rows))
                    if key(cand) not in seen:
                        seen.add(key(cand))
                        nxt.append(cand)
        frontier = nxt
        depth += 1
        assert depth <= 8, "BFS runaway"


def test_add_remove_ids_is_the_shortest_edit_path():
    metric = AddRemoveIds("id")
    universe = _tiny_universe()
    for a in universe[:18]:
        for b in universe:
            assert dataset_distance(metric, a, b) == _bfs_ari(a, b)


def test_grouped_by_vs_oracle():
    rng = random.Random(300)
    metric = GroupedBy(("id",), SymmetricDifference())
    for _ in range(200):
        a = random_table(rng, 6)
        b = random_table(rng, 6)
        assert dataset_distance(metric, a, b) == grouped_distance(a, b, ("id",))


def test_table_tuple_adds_components():
    metric = TableTuple((SymmetricDifference(), SymmetricDifference()))
    a1 = Table.of(SCHEMA, [(1, 0)])
    a2 = Table.of(SCHEMA, [(2, 0), (2, 1)])
    b1 = Table.of(SCHEMA, [])
    b2 = Table.of(SCHEMA, [(2, 0)])
    assert dataset_distance(metric, (a1, a2), (b1, b2)) == 1 + 1


def test_bounded_lists_pads_with_empty_tables():
    metric = BoundedLists(SymmetricDifference())
    a = [Table.of(SCHEMA, [(1, 0)]), Table.of(SCHEMA, [(2, 0)])]
    b = [Table.of(SCHEMA, [(1, 0)])]
    assert dataset_distance(metric, a, b) == 1
    assert dataset_distance(metric, a, []) == 2


def test_distance_map_algebra():
    two = linear_map(2)
    three = linear_map(Fraction(3))
    assert two.quadratic == 0
    assert two(5) == 10
    assert two(0) == 0
    assert compose_maps(two, three)(1) == 6
    assert compose_maps(two, three).slope == Fraction(6)
    assert sum_maps([two, three]).slope == Fraction(5)
    assert max_map([two, three]) == three
    with pytest.raises(ValueError):
        two(-1)
    quad = DistanceMap(0, 1)
    with pytest.raises(ValueError):
        quad(-1)
    with pytest.raises(ValueError):
        DistanceMap(-1)
    with pytest.raises(ValueError):
        DistanceMap(0, -1)
    with pytest.raises(ValueError):
        linear_map(-1)
    with pytest.raises(ValueError):
        compose_maps(two, quad)  # only a linear inner map keeps the closed form
    assert max_map([two, quad]) == DistanceMap(2, 1)


def test_distance_map_general_shape():
    quad = DistanceMap(0, 1)
    assert quad.quadratic == 1
    assert quad(3) == 9
    combined = compose_maps(quad, linear_map(2))
    assert combined.quadratic == 4
    assert combined(3) == 36
    assert sum_maps([quad, linear_map(1)])(2) == 6


# Coefficient pairs with a zero in either place, and the distances at
# which the algebra must agree with pointwise evaluation.
ALGEBRA_MAPS = [
    DistanceMap(0),
    DistanceMap(2),
    DistanceMap(0, Fraction(3, 4)),
    DistanceMap(Fraction(1, 3), 5),
]
ALGEBRA_DISTANCES = [0, 1, Fraction(5, 3), 7, INF]


def _times(s, d):
    """s * d with 0 * inf = 0, computed without a DistanceMap."""
    return Fraction(0) if s == 0 else s * d


@pytest.mark.parametrize("d", ALGEBRA_DISTANCES)
@pytest.mark.parametrize("f", ALGEBRA_MAPS)
def test_distance_map_algebra_is_pointwise(f, d):
    if d != INF:
        assert f(d) == f.slope * d + f.quadratic * d * d
    for s in (0, 1, Fraction(2, 3), 4):
        assert compose_maps(f, linear_map(s))(d) == f(_times(s, d))
    for maps in ([f], [f, f], [f] + ALGEBRA_MAPS):
        assert sum_maps(maps)(d) == sum(m(d) for m in maps)


class _Rational(Fraction):
    """A Fraction subclass, which no exact-Fraction shortcut may keep."""


@pytest.mark.parametrize(
    "amount, expected",
    [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(0)),
        (_Rational(2, 7), Fraction(2, 7)),
        (_Rational(0), Fraction(0)),
        (3, Fraction(3)),
        ("1/10", Fraction(1, 10)),
        ("inf", INF),
        (INF, INF),
        (Fraction(-1, 3), TypeMismatch),
        (_Rational(-2, 7), TypeMismatch),
        (-1, TypeMismatch),
        ("-1/10", TypeMismatch),
        (0.5, TypeMismatch),
        (True, TypeMismatch),
    ],
)
def test_an_amount_is_read_into_an_exact_fraction_once(amount, expected):
    if expected is TypeMismatch:
        with pytest.raises(TypeMismatch):
            parse_budget_amount(amount)
        return
    value = parse_budget_amount(amount)
    assert value == expected
    if expected is INF:
        assert value is INF
    else:
        assert type(value) is Fraction
    if type(amount) is Fraction:
        assert value is amount  # an exact Fraction is taken as it is


@pytest.mark.parametrize(
    "slope, quadratic",
    [
        (Fraction(1, 5), Fraction(0)),
        (Fraction(0), Fraction(3, 4)),
        (2, 0),
        (_Rational(1, 5), _Rational(3, 4)),
        (Fraction(-1, 5), Fraction(0)),
        (Fraction(0), Fraction(-3, 4)),
        (_Rational(-1, 5), 0),
        (-2, 0),
    ],
)
def test_a_distance_map_holds_exact_non_negative_fractions(slope, quadratic):
    if slope < 0 or quadratic < 0:
        with pytest.raises(ValueError, match="non-negative"):
            DistanceMap(slope, quadratic)
        return
    f = DistanceMap(slope, quadratic)
    for given, held in ((slope, f.slope), (quadratic, f.quadratic)):
        assert type(held) is Fraction and held == given
        if type(given) is Fraction:
            assert held is given
    # Its value at an int, a Fraction or a float distance is the closed form
    # in exact Fractions, and at INF it is INF unless the map is 0.
    for d in (0, 1, 7, Fraction(5, 3), 0.5):
        exact = Fraction(d)
        value = f(d)
        assert type(value) is Fraction
        assert value == Fraction(slope) * exact + Fraction(quadratic) * exact * exact
    assert f(INF) == (INF if slope or quadratic else 0)
    for d in (-1, Fraction(-1, 3), -0.5):
        with pytest.raises(ValueError, match="non-negative"):
            f(d)


def test_distance_map_handles_infinity():
    assert linear_map(2)(INF) == INF
    assert linear_map(0)(INF) == 0  # a constant pipeline ignores its input


def test_pure_dp_divergence_hand_cases():
    p = {0: 0.5, 1: 0.5}
    q = {0: 0.25, 1: 0.75}
    assert abs(pure_dp_divergence(p, q) - math.log(2)) < 1e-12
    assert pure_dp_divergence(p, p) == 0.0
    assert pure_dp_divergence({0: 1.0}, {0: 0.5, 1: 0.5}) == INF
    with pytest.raises(NotAPmf):
        pure_dp_divergence({0: 0.5}, q)
    with pytest.raises(NotAPmf):
        pure_dp_divergence({0: 1.5, 1: -0.5}, q)


def test_zcdp_divergence_matches_direct_renyi():
    p = {0: 0.5, 1: 0.5}
    q = {0: 0.25, 1: 0.75}
    # D_2(p||q) = ln(sum p^2/q) = ln(4/3); the reported value divides by alpha.
    expected = math.log(4.0 / 3.0) / 2.0
    assert abs(zcdp_divergence(p, q, alphas=(2.0,)) - expected) < 1e-12
    assert zcdp_divergence(p, p) == 0.0
    assert zcdp_divergence({0: 1.0}, {1: 1.0}) == INF


def test_zcdp_divergence_alpha_validation():
    p = {0: 1.0}
    for bad in [(), (1.0,), (0.5,), (INF,), (float("nan"),)]:
        with pytest.raises(BadAlpha):
            zcdp_divergence(p, p, alphas=bad)


def test_divergences_tolerate_tiny_normalization_error():
    # 1e-13 drift is within the documented pmf tolerance.
    p = {0: 0.5 + 5e-14, 1: 0.5}
    q = {0: 0.5, 1: 0.5 + 5e-14}
    assert pure_dp_divergence(p, q) < 1e-12


def test_format_amount_writes_any_exact_amount_as_str_does():
    for amount in (Fraction(0), Fraction(1, 2), Fraction(10**40 - 1), Fraction(7, 10**50)):
        assert format_amount(amount) == str(amount)
    assert format_amount(INF) == "inf"
    # Past the 4,300 digits str() writes of an int.
    assert format_amount(Fraction(10**4300 + 1, 3)) == "1" + "0" * 4299 + "1/3"
    assert format_amount(Fraction(1, 10**5000)) == "1/1" + "0" * 5000
