"""Golden outputs for fixed seeds.

Any rewrite of the evaluation path that claims to be exact must reproduce
these values; a change that moves an output on purpose updates them and
says why.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from noisegate.cli import main
from noisegate.metrics import INF
from noisegate.noise import sample_discrete_gaussian, sample_two_sided_geometric
from noisegate.rng import RngStream
from noisegate.session import (
    AddRemoveId,
    PrivacyBudget,
    build_session,
    keyset_from_tuples,
    query,
)
from noisegate.tabledata import ColumnType, Schema, Table

DEMO = Path(__file__).resolve().parents[1] / "demo"

DEMO_OUTPUT = (
    '{"query": "population", "rows": [{"count": 122}], "remaining_budget": "5/2"}\n'
    '{"query": "seniors_by_zip", "rows": [{"zip": "98101", "count": 26}, '
    '{"zip": "98102", "count": 25}, {"zip": "98103", "count": 24}], '
    '"remaining_budget": "3/2"}\n'
    '{"query": "median_income", "rows": [{"quantile": 74000.0}], '
    '"remaining_budget": "1"}\n'
    '{"remaining_budget": "1"}\n'
)


def test_demo_run_output_is_golden(capsys):
    argv = [
        "run",
        "--schema", str(DEMO / "schema.json"),
        "--data", str(DEMO / "data"),
        "--script", str(DEMO / "script.json"),
        "--unit", "add-max-rows:1",
        "--measure", "pure",
        "--budget", "3",
        "--seed", "2024",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == DEMO_OUTPUT


TEXT = ColumnType.TEXT
FLOAT64 = ColumnType.FLOAT64

# Identifiers whose code-point order differs from their order as Python
# reprs, including astral characters and an identifier that is a prefix
# of another.
IDS = ["a", "ab", "Z", "é", "中", "\U0001F600", "～", "zz", "ÿ", "b"]
ZIPS = ["98101", "98102", "98103"]


def _id_tables():
    rng = random.Random(20240517)
    events = []
    for user in IDS:
        for _ in range(rng.randint(1, 6)):
            events.append((user, rng.choice(ZIPS), float(rng.randint(0, 400)) / 4))
        events.append(events[-1])  # every id carries a duplicate row
    visits = [
        (user, rng.choice(["x", "y", "ü"]))
        for user in IDS
        for _ in range(rng.randint(0, 3))
    ]
    rng.shuffle(events)
    rng.shuffle(visits)
    return {
        "events": Table.of(
            Schema.of(("user", TEXT), ("zip", TEXT), ("amount", FLOAT64)), events
        ),
        "visits": Table.of(Schema.of(("user", TEXT), ("site", TEXT)), visits),
    }


def _id_session_outputs():
    session = build_session(
        _id_tables(), AddRemoveId("user"), PrivacyBudget.pure(INF), seed=99
    )
    zips = keyset_from_tuples([("zip", TEXT)], [(z,) for z in ZIPS])
    sites = keyset_from_tuples([("site", TEXT)], [("x",), ("y",), ("ü",)])
    cut_join = (
        query("events")
        .truncate_by_id(3)
        .join_private(query("visits").truncate_by_id(2), ("user",), 1, 2)
    )
    queries = [
        (query("events").truncate_by_id(1).count(), "1/2"),
        (query("events").truncate_by_id(2).group_by(zips).sum("amount", 0, 100, "1/4"), 1000),
        (cut_join.group_by(sites).sum("amount", 0, 100, "1/4"), 1000),
        (cut_join.count(), 1),
        (query("events").truncate_by_id(1).quantile("amount", 0.5, 0.0, 100.0, 40), 1),
    ]
    return [
        session.evaluate(expr, PrivacyBudget.pure(spend)).rows
        for expr, spend in queries
    ]


ID_SESSION_OUTPUT = [
    ((9,),),
    (("98101", 708.25), ("98102", 216.0), ("98103", 30.75)),
    (("x", 221.0), ("y", 353.25), ("ü", 253.5)),
    ((16,),),
    ((48.75,),),
]


def test_id_session_outputs_are_golden():
    assert _id_session_outputs() == ID_SESSION_OUTPUT


# The first 20 draws of each exact sampler from random.Random(seed), and
# the generator's next getrandbits(32) after them, which pins how many
# uniform bits the 20 draws consumed.  A sampler rewrite that keeps the
# law but changes the draws or their cost moves these.
SAMPLER_VECTORS = {
    ("geometric", 11, Fraction(1, 3)): (
        [5, 0, 5, -4, -1, -9, 0, -1, 3, 0, 0, 0, 2, -3, 6, 0, -2, 5, 2, 6],
        1511115941,
    ),
    ("geometric", 11, Fraction(1)): (
        [1, 0, 0, -1, 0, -1, 1, 0, 1, 0, 0, 0, 4, 2, 0, 2, 3, -1, -2, 0],
        1986947328,
    ),
    ("geometric", 11, Fraction(7, 2)): ([0] * 20, 2362288140),
    ("geometric", 2024, Fraction(1, 3)): (
        [0, 1, 3, 4, 0, 8, 2, 5, -8, -1, -14, -9, -6, 1, -1, -3, -1, 5, 1, 1],
        1828399750,
    ),
    ("geometric", 2024, Fraction(1)): (
        [0, 0, -2, -1, 0, 0, -1, 0, 3, 0, 0, -2, -2, -2, 0, -1, 0, 0, 0, 0],
        3837046377,
    ),
    ("geometric", 2024, Fraction(7, 2)): ([0] * 20, 845900241),
    ("gaussian", 11, Fraction(1, 2)): (
        [1, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, -1, 1, 0, -1, 0],
        1458917957,
    ),
    ("gaussian", 11, Fraction(4)): (
        [5, -4, 3, -2, -1, -6, 2, 2, -2, 1, -2, 2, 0, 2, 3, 4, -1, 0, 0, 1],
        1327275234,
    ),
    ("gaussian", 11, Fraction(100)): (
        [19, -24, 0, -17, -9, -4, -19, 0, -35, 4, -1, 3, -1, -9, -9, 8, 1, -9, -1, 13],
        1404285183,
    ),
    ("gaussian", 2024, Fraction(1, 2)): (
        [0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0],
        1326636265,
    ),
    ("gaussian", 2024, Fraction(4)): (
        [0, -2, -3, 1, 1, 2, -3, -1, 0, 0, -1, 1, 1, 2, -1, 2, -1, 1, -2, 0],
        29843580,
    ),
    ("gaussian", 2024, Fraction(100)): (
        [13, -6, 19, 7, -5, 12, -4, 2, -12, -3, 7, 15, -6, -3, 27, 7, -8, 17, -4, -6],
        2242298767,
    ),
}

SAMPLERS = {
    "geometric": sample_two_sided_geometric,
    "gaussian": sample_discrete_gaussian,
}


@pytest.mark.parametrize("sampler, seed, parameter", sorted(SAMPLER_VECTORS, key=str))
def test_sampler_draws_are_golden(sampler, seed, parameter):
    draws, next_bits = SAMPLER_VECTORS[sampler, seed, parameter]
    generator = random.Random(seed)
    assert [SAMPLERS[sampler](parameter, generator) for _ in range(20)] == draws
    assert generator.getrandbits(32) == next_bits


@pytest.mark.parametrize(
    "seed, first", [(11, 1638562283106067334), (2024, 14950175168293070085)]
)
def test_stream_derivation_is_golden(seed, first):
    assert RngStream(seed).child(0, "x").generator().getrandbits(64) == first
