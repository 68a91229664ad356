"""Acceptance checks, one test per numbered criterion.

Every test prints `criterion N: PASS` or `criterion N: FAIL` (run with
`pytest -s` to see the lines as they happen).  Tolerances are stated
inline; anything not tested against a closed form is tested against an
independently coded oracle from helpers.py.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    INT_SCHEMA,
    dataset_distance,
    empirical_pmf,
    gaussian_pmf,
    geometric_pmf,
    perturb_rows,
    product_pmf,
    pure_dp_divergence,
    quantile_pmf,
    random_table,
    tv_distance,
    zcdp_divergence,
)
from noisegate.errors import GuaranteeTooWeak, InsufficientBudget
from noisegate.measurements import (
    PureDpNoise,
    Queryable,
    compose_over_subsets,
    make_count,
    make_discrete_gaussian,
    make_geometric,
    make_quantile,
)
from noisegate.metrics import (
    INF,
    AddRemoveIds,
    PureDP,
    SymmetricDifference,
    TableTuple,
    ZCDP,
    compose_maps,
)
from noisegate.rng import RngStream
from noisegate.session import (
    AddMaxRows,
    AddRemoveId,
    PrivacyBudget,
    build_session,
    compile_query,
    keyset_from_tuples,
    query,
)
from noisegate.tabledata import ColumnType, Schema, Table, TableDomain
from noisegate.transformations import (
    ExpansionBranch,
    make_filter,
    make_flat_map,
    make_grouped_view,
    make_map,
    make_overlapping_subsets,
    make_private_join,
    make_public_join,
    make_select_table,
    make_truncate_by_id,
)

INT64 = ColumnType.INT64
FLOAT64 = ColumnType.FLOAT64
TEXT = ColumnType.TEXT

KV = Schema.of(("k", INT64), ("v", INT64))
KW = Schema.of(("k", INT64), ("w", INT64))
KV_DOMAIN = TableDomain(KV, None)
KW_DOMAIN = TableDomain(KW, None)
ID_DOMAIN = TableDomain(INT_SCHEMA, "id")


def criterion(number: int):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL")
                raise
            print(f"criterion {number}: PASS")

        return wrapper

    return decorate


def as_float(pmf):
    return {k: float(v) for k, v in pmf.items()}


# ---------------------------------------------------------------------------
# 1. Geometric-mechanism counts stay within their declared pure-DP loss,
#    and the bound is tight.  Tolerance 1e-9.


@criterion(1)
def test_criterion_01_pure_dp_soundness():
    window = 90
    for epsilon in (Fraction(math.log(2)), Fraction(1, 2), Fraction(1)):
        for d in (1, 2):
            mech = make_geometric(epsilon, sensitivity=1)
            lo, hi = 5 - window, 5 + d + window
            p = geometric_pmf(mech.rate, 5, lo, hi)
            q = geometric_pmf(mech.rate, 5 + d, lo, hi)
            divergence = pure_dp_divergence(p, q)
            budget = mech.privacy_function(d)
            assert divergence <= float(budget) + 1e-9, (epsilon, d, divergence)
    # Tightness at the smallest point of the sweep.
    mech = make_geometric(Fraction(math.log(2)), sensitivity=1)
    p = geometric_pmf(mech.rate, 5, -85, 96)
    q = geometric_pmf(mech.rate, 6, -85, 96)
    assert abs(pure_dp_divergence(p, q) - math.log(2)) < 1e-9


# ---------------------------------------------------------------------------
# 2. Discrete Gaussian shifts stay within rho = 1/(2 sigma^2) on the Renyi
#    grid, and the grid estimate reaches at least 90% of that bound.


@criterion(2)
def test_criterion_02_zcdp_soundness():
    for sigma in (1, 2, 4):
        sigma_squared = Fraction(sigma * sigma)
        mech = make_discrete_gaussian(sigma_squared, sensitivity=1)
        assert mech.privacy_function(1) == Fraction(1, 2 * sigma * sigma)
        lo, hi = -40 * sigma, 1 + 40 * sigma
        p = gaussian_pmf(sigma_squared, 0, lo, hi)
        q = gaussian_pmf(sigma_squared, 1, lo, hi)
        rho = zcdp_divergence(p, q)
        bound = 1 / (2 * sigma * sigma)
        assert rho <= bound + 1e-6, (sigma, rho)
        assert rho >= 0.9 * bound, (sigma, rho)


# ---------------------------------------------------------------------------
# 3. Every transformation constructor respects its declared stability on
#    at least 10^4 sampled table pairs (rows capped at 6).  Zero violations.

PAIRS_PER_CONSTRUCTOR = 10_000


def _capped(table, rng):
    rows = list(table.rows)
    while len(rows) > 6:
        rows.pop(rng.randrange(len(rows)))
    return Table.of(table.schema, rows)


def _table_pairs(rng, schema, count):
    for _ in range(count):
        a = random_table(rng, 6, schema)
        b = _capped(perturb_rows(rng, a, rng.randrange(4)), rng)
        yield a, b


def _tuple_pairs(rng, left_schema, right_schema, count):
    for _ in range(count):
        a = (random_table(rng, 6, left_schema), random_table(rng, 6, right_schema))
        b = (
            _capped(perturb_rows(rng, a[0], rng.randrange(3)), rng),
            _capped(perturb_rows(rng, a[1], rng.randrange(3)), rng),
        )
        yield a, b


def _assert_stable(transformation, pairs):
    checked = 0
    for x, y in pairs:
        d_in = dataset_distance(transformation.input_metric, x, y)
        d_out = dataset_distance(
            transformation.output_metric,
            transformation.apply(x),
            transformation.apply(y),
        )
        assert d_out <= transformation.stability(d_in), (x.__class__, d_in, d_out)
        checked += 1
    assert checked >= PAIRS_PER_CONSTRUCTOR


@criterion(3)
def test_criterion_03_stability_soundness():
    rng = random.Random(20240811)
    n = PAIRS_PER_CONSTRUCTOR

    constructors = {
        "filter": make_filter(KV_DOMAIN, "v > 0"),
        "map": make_map(KV_DOMAIN, {"k": "k", "v": "v * 2 - k"}, KV),
        "flat_map": make_flat_map(
            KV_DOMAIN,
            [
                ExpansionBranch({"k": "k", "v": "v"}),
                ExpansionBranch({"k": "k", "v": "v + 1"}, when="v > 0"),
                ExpansionBranch({"k": "v", "v": "k"}),
            ],
            KV,
            max_rows=2,
        ),
        "public_join": make_public_join(
            KV_DOMAIN,
            Table.of(KW, [(0, 7), (1, 8), (1, 9)]),
            ("k",),
        ),
        "grouped_view": make_grouped_view(KV_DOMAIN, Schema.of(("k", INT64))),
        "subsets": make_overlapping_subsets(
            KV_DOMAIN, lambda row: (row[0] % 2, 2, row[1] % 3), 3, 2
        ),
    }
    for name, transformation in constructors.items():
        _assert_stable(transformation, _table_pairs(rng, KV, n))

    _assert_stable(
        make_filter(ID_DOMAIN, "v > 0", AddRemoveIds("id")),
        _table_pairs(rng, INT_SCHEMA, n),
    )
    _assert_stable(
        make_truncate_by_id(ID_DOMAIN, 2), _table_pairs(rng, INT_SCHEMA, n)
    )
    _assert_stable(
        make_private_join(KV_DOMAIN, KW_DOMAIN, ("k",), 2, 3),
        _tuple_pairs(rng, KV, KW, n),
    )
    _assert_stable(
        make_select_table(
            (KV_DOMAIN, KW_DOMAIN), (SymmetricDifference(), SymmetricDifference()), 1
        ),
        _tuple_pairs(rng, KV, KW, n),
    )


# ---------------------------------------------------------------------------
# 4. Random pipelines keep criterion 3 end to end, and compilation solves
#    the mechanism scale so f(unit distance) equals the spend exactly.

KV_BRANCHES = (
    ExpansionBranch({"k": "k", "v": "v"}),
    ExpansionBranch({"k": "k", "v": "v + 1"}),
    ExpansionBranch({"k": "k + 1", "v": "v"}),
)


def _random_pure_chain(rng):
    builder = query("t")
    for _ in range(rng.randrange(2, 5)):
        op = rng.choice(("filter", "map", "flat_map"))
        if op == "filter":
            builder = builder.filter(rng.choice(("v > 0", "k <= 1", "v != 2")))
        elif op == "map":
            builder = builder.map({"k": "k", "v": "v + 1"}, KV)
        else:
            builder = builder.flat_map(
                KV_BRANCHES[: rng.randrange(1, 4)], KV, max_rows=rng.randrange(1, 4)
            )
    return builder.count()


def _random_id_chain(rng):
    builder = query("t").truncate_by_id(rng.randrange(1, 4))
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.5:
            builder = builder.filter("v > 0")
        else:
            builder = builder.map({"id": "id", "v": "v * 2"}, INT_SCHEMA)
    return builder.count()


@criterion(4)
def test_criterion_04_inductive_accounting():
    rng = random.Random(77)
    for round_no in range(30):
        spend = Fraction(rng.randrange(1, 8), rng.randrange(2, 10))
        if round_no % 2 == 0:
            expr = _random_pure_chain(rng)
            unit = AddMaxRows(rng.randrange(1, 4))
            domains = {"t": KV_DOMAIN}
            schema = KV
        else:
            expr = _random_id_chain(rng)
            unit = AddRemoveId("id")
            domains = {"t": ID_DOMAIN}
            schema = INT_SCHEMA
        for measure in (PureDP(), ZCDP()):
            compiled = compile_query(expr, domains, unit, measure, spend)
            assert (
                compiled.measurement.privacy_function(compiled.unit_distance) == spend
            ), (round_no, measure)
        # End-to-end stability of the compiled chain itself.
        chain = compiled.transformation
        for _ in range(300):
            a = (random_table(rng, 6, schema),)
            b = (_capped(perturb_rows(rng, a[0], rng.randrange(3)), rng),)
            d_in = dataset_distance(chain.input_metric, a, b)
            d_out = dataset_distance(
                chain.output_metric, chain.apply(a), chain.apply(b)
            )
            assert d_out <= chain.stability(d_in)


# ---------------------------------------------------------------------------
# 5. A grouped count over 10 keys costs its budget once, not once per key,
#    and the joint output distribution really is 0.4-private.


@criterion(5)
def test_criterion_05_parallel_composition():
    schema = Schema.of(("g", TEXT), ("v", INT64))
    table = Table.of(schema, [(str(i % 10), i) for i in range(30)])
    session = build_session(
        {"t": table}, AddMaxRows(1), PrivacyBudget.pure(1), seed=424242
    )
    keys = keyset_from_tuples([("g", TEXT)], [(str(i),) for i in range(10)])
    out = session.evaluate(
        query("t").group_by(keys).count(), PrivacyBudget.pure("2/5")
    )
    assert session.remaining_budget().amount == Fraction(3, 5)
    assert tuple(row[0] for row in out.rows) == tuple(str(i) for i in range(10))

    # Oracle: neighbors differing by one row change one group count by one.
    # The joint pmf over the 10 groups is a product; the nine untouched
    # factors are identical on both sides and cancel exactly, so the
    # product over (touched, one witness untouched) is the full divergence.
    epsilon = Fraction(2, 5)
    touched_p = geometric_pmf(epsilon, 3, 3 - 120, 4 + 120)
    touched_q = geometric_pmf(epsilon, 4, 3 - 120, 4 + 120)
    untouched = geometric_pmf(epsilon, 3, 3 - 120, 3 + 120)
    joint = pure_dp_divergence(
        product_pmf([touched_p, untouched]), product_pmf([touched_q, untouched])
    )
    single = pure_dp_divergence(touched_p, touched_q)
    assert abs(joint - single) < 1e-12
    assert joint <= 0.4 + 1e-9
    assert joint >= 0.4 - 1e-6


# ---------------------------------------------------------------------------
# 6. Overlapping subsets with contribution bound 2 at 0.25 per subset
#    cost exactly 0.5 end to end, and the joint distribution shows it.


@criterion(6)
def test_criterion_06_generalized_parallel_composition():
    # Rows land in subset (k mod 2) and in subset 2: two of three subsets.
    transformation = make_overlapping_subsets(
        KV_DOMAIN, lambda row: (row[0] % 2, 2), 3, 2
    )
    per_subset = make_count(KV_DOMAIN, PureDpNoise(Fraction(1, 4)))
    measurement = compose_over_subsets([per_subset] * 3)
    end_to_end = compose_maps(measurement.privacy_function, transformation.stability)
    assert end_to_end(1) == Fraction(1, 2)

    x = Table.of(KV, [(0, 1), (1, 1), (2, 1)])
    y = Table.of(KV, [(0, 1), (1, 1), (2, 1), (1, 2)])
    split_x = [len(t) for t in transformation.apply(x)]
    split_y = [len(t) for t in transformation.apply(y)]
    assert split_x == [2, 1, 3]
    assert split_y == [2, 2, 4]  # the added row hits subsets 1 and 2 only

    epsilon = Fraction(1, 4)
    p1 = geometric_pmf(epsilon, 1, 1 - 130, 2 + 130)
    q1 = geometric_pmf(epsilon, 2, 1 - 130, 2 + 130)
    p2 = geometric_pmf(epsilon, 3, 3 - 130, 4 + 130)
    q2 = geometric_pmf(epsilon, 4, 3 - 130, 4 + 130)
    # Subset 0 is identical on both sides and cancels out of the product.
    joint = pure_dp_divergence(product_pmf([p1, p2]), product_pmf([q1, q2]))
    assert joint <= 0.5 + 1e-9
    assert joint >= 0.5 - 1e-6


# ---------------------------------------------------------------------------
# 7. One hundred adaptively chosen spends: the ledger never overdraws,
#    rejected asks have no effect, and accounting is exact.


@criterion(7)
def test_criterion_07_budget_ledger():
    table = Table.of(KV, [(0, 1), (1, 2), (2, 3)])
    total = Fraction(3)

    def fresh():
        return Queryable(
            table, SymmetricDifference(), PureDP(), total, RngStream(31337)
        )

    live = fresh()
    rng = random.Random(271828)
    accepted = []
    outputs = []
    for step in range(100):
        spend = Fraction(rng.randrange(1, 6), rng.choice((7, 11, 13, 17)))
        if step % 9 == 4:
            # Deliberately weak mechanism: must be rejected without effect.
            with pytest.raises(GuaranteeTooWeak):
                live.ask(make_count(KV_DOMAIN, PureDpNoise(spend * 2)), spend, 1)
            continue
        try:
            out = live.ask(make_count(KV_DOMAIN, PureDpNoise(spend)), spend, 1)
        except InsufficientBudget:
            continue
        outputs.append(out)
        accepted.append(spend)
        assert live.remaining() >= 0
        if out % 2 == 1:  # adapt the next spend to this output
            rng.random()
    assert len(outputs) > 10
    assert live.remaining() == total - sum(accepted)
    assert total - live.remaining() == sum(accepted)

    # Replaying only the accepted spends gives identical outputs: the
    # failed asks consumed neither budget nor randomness.
    replay = fresh()
    replayed = [
        replay.ask(make_count(KV_DOMAIN, PureDpNoise(s)), s, 1) for s in accepted
    ]
    assert replayed == outputs


# ---------------------------------------------------------------------------
# 8. Grouped outputs list exactly the keyset keys, whatever the data holds.


@criterion(8)
def test_criterion_08_keyset_non_leakage():
    schema = Schema.of(("g", TEXT), ("v", INT64))
    keys = keyset_from_tuples([("g", TEXT)], [("a",), ("b",), ("c",)])
    expected = ("a", "b", "c")
    rng = random.Random(5150)
    alphabet = ["a", "b", "c", "x", "y", "z", "hidden"]
    for round_no in range(100):
        if round_no == 0:
            rows = []  # empty data still reports every key
        elif round_no == 1:
            rows = [("hidden", 1), ("z", 2)]  # nothing from the keyset
        else:
            rows = [
                (rng.choice(alphabet), rng.randrange(5))
                for _ in range(rng.randrange(12))
            ]
        session = build_session(
            {"t": Table.of(schema, rows)},
            AddMaxRows(1),
            PrivacyBudget.pure(INF),
            seed=round_no,
        )
        out = session.evaluate(
            query("t").group_by(keys).count(), PrivacyBudget.pure(1)
        )
        assert tuple(row[0] for row in out.rows) == expected, round_no


# ---------------------------------------------------------------------------
# 9. The quantile mechanism samples from exactly the distribution its
#    utility scores define.  TV tolerance 0.01 over 10^5 draws.


@criterion(9)
def test_criterion_09_quantile_distribution():
    domain = TableDomain(Schema.of(("v", FLOAT64)), None)
    table = Table.of(domain.schema, [(1.0,), (2.0,), (3.0,)])
    measurement = make_quantile(domain, "v", 0.5, 0.0, 4.0, 4, Fraction(20))
    root = RngStream(60902)
    n = 100_000
    samples = [measurement.eval(table, root.child(i)) for i in range(n)]
    midpoints = (0.5, 1.5, 2.5, 3.5)
    empirical = empirical_pmf([midpoints.index(s) for s in samples])
    oracle = dict(enumerate(quantile_pmf([1.0, 2.0, 3.0], 0.5, 0.0, 4.0, 4, Fraction(20))))
    assert tv_distance(empirical, oracle) < 0.01


# ---------------------------------------------------------------------------
# 10. The end-to-end scenario: filter, group, clamped average.  At huge
#     epsilon the answers match the true clamped averages within the
#     fixed-point granularity; at epsilon 1 reruns are bit-identical.

ZIPS = ("10001", "10002", "10003", "10004", "10005")


def _income_table():
    rng = random.Random(1_000_003)
    schema = Schema.of(("age", INT64), ("zip", TEXT), ("income", FLOAT64))
    rows = [
        (rng.randrange(18, 81), ZIPS[i % 5], float(rng.randrange(5_000, 260_000)))
        for i in range(1000)
    ]
    return Table.of(schema, rows)


def _income_query():
    keys = keyset_from_tuples([("zip", TEXT)], [(z,) for z in ZIPS])
    return (
        query("people")
        .filter("age > 40")
        .group_by(keys)
        .average("income", 0, 200_000, granularity=1)
    )


@criterion(10)
def test_criterion_10_end_to_end_utility():
    table = _income_table()
    session = build_session(
        {"people": table}, AddMaxRows(1), PrivacyBudget.pure(INF), seed=8080
    )
    out = session.evaluate(_income_query(), PrivacyBudget.pure(10**6))

    true_sums = {z: Fraction(0) for z in ZIPS}
    true_counts = {z: 0 for z in ZIPS}
    for age, zip_code, income in table.rows:
        if age > 40:
            true_sums[zip_code] += min(max(Fraction(income), 0), 200_000)
            true_counts[zip_code] += 1
    for zip_code, noisy_average in out.rows:
        assert true_counts[zip_code] > 50  # the scenario exercises real groups
        truth = true_sums[zip_code] / true_counts[zip_code]
        assert abs(noisy_average - float(truth)) < 1.0, zip_code

    def run_at_epsilon_one():
        fresh = build_session(
            {"people": table}, AddMaxRows(1), PrivacyBudget.pure(2), seed=9191
        )
        result = fresh.evaluate(_income_query(), PrivacyBudget.pure(1))
        return [tuple(map(repr, row)) for row in result.rows]

    assert run_at_epsilon_one() == run_at_epsilon_one()


# ---------------------------------------------------------------------------
# 11. Truncation: exhaustive stability and idempotence over every table
#     with ids {0,1,2} and at most 4 rows per id over values {0,1}.


def _id_states():
    # Multisets over {0, 1} of size <= 4, as (zeros, ones) pairs.
    return [(a, b) for a in range(5) for b in range(5) if a + b <= 4]


def _state_rows(identifier, state):
    zeros, ones = state
    return [(identifier, 0)] * zeros + [(identifier, 1)] * ones


@criterion(11)
def test_criterion_11_truncation_exhaustive():
    states = _id_states()
    assert len(states) == 15
    metric = AddRemoveIds("id")

    for bound in (1, 2):
        transformation = make_truncate_by_id(ID_DOMAIN, bound)
        assert transformation.stability(1) == bound

        # Distances between single-id tables, before and after truncation,
        # computed by the real metric on the real outputs.
        raw = {}
        cut = {}
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                x = Table.of(INT_SCHEMA, _state_rows(0, si))
                y = Table.of(INT_SCHEMA, _state_rows(0, sj))
                raw[i, j] = dataset_distance(metric, x, y)
                cut[i, j] = dataset_distance(
                    SymmetricDifference(),
                    transformation.apply(x),
                    transformation.apply(y),
                )
                assert cut[i, j] <= bound * raw[i, j]

        # Both metrics add over disjoint ids; confirm that against the
        # real three-id tables before leaning on it.
        rng = random.Random(1234 + bound)
        for _ in range(300):
            picks = [(rng.choice(states), rng.choice(states)) for _ in range(3)]
            x_rows, y_rows = [], []
            for identifier, (sx, sy) in enumerate(picks):
                x_rows += _state_rows(identifier, sx)
                y_rows += _state_rows(identifier, sy)
            x = Table.of(INT_SCHEMA, x_rows)
            y = Table.of(INT_SCHEMA, y_rows)
            expect_raw = sum(
                raw[states.index(sx), states.index(sy)] for sx, sy in picks
            )
            expect_cut = sum(
                cut[states.index(sx), states.index(sy)] for sx, sy in picks
            )
            assert dataset_distance(metric, x, y) == expect_raw
            assert (
                dataset_distance(
                    SymmetricDifference(),
                    transformation.apply(x),
                    transformation.apply(y),
                )
                == expect_cut
            )

        # Exhaustive sweep over all (15^3)^2 table pairs via the per-id
        # decomposition: output distance <= bound * input distance, always.
        pair_items = [
            (cut[i, j], bound * raw[i, j])
            for i in range(15)
            for j in range(15)
        ]
        violations = 0
        for cut_1, lim_1 in pair_items:
            for cut_2, lim_2 in pair_items:
                head_cut = cut_1 + cut_2
                head_lim = lim_1 + lim_2
                for cut_3, lim_3 in pair_items:
                    if head_cut + cut_3 > head_lim + lim_3:
                        violations += 1
        assert violations == 0

        # Idempotence over every three-id table.
        for s1 in states:
            for s2 in states:
                for s3 in states:
                    rows = (
                        _state_rows(0, s1) + _state_rows(1, s2) + _state_rows(2, s3)
                    )
                    once = transformation.apply(Table.of(INT_SCHEMA, rows))
                    again = transformation.apply(once)
                    assert again.rows == once.rows
