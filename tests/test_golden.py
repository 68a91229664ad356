"""Golden outputs for fixed seeds.

Any rewrite of the evaluation path that claims to be exact must reproduce
these values; a change that moves an output on purpose updates them and
says why.  The outputs are those of stream v2: each ask draws all of its
noise from one generator, so grouped, average and sequential outputs
differ from those of the per-part streams before it, while ungrouped
counts, sums and quantiles do not.
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
    AddMaxRows,
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
    '{"zip": "98102", "count": 25}, {"zip": "98103", "count": 23}], '
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
    (("98101", 707.5), ("98102", 215.75), ("98103", 30.5)),
    (("x", 232.0), ("y", 354.25), ("ü", 243.5)),
    ((16,),),
    ((48.75,),),
]


def test_id_session_outputs_are_golden():
    assert _id_session_outputs() == ID_SESSION_OUTPUT


def test_grouped_evaluate_draws_every_key_from_one_generator(monkeypatch):
    # Stream v2: ask 0 derives one generator, RngStream(seed).child(0),
    # and every key's noise is the next draw from it, in keyset order.
    derived = []
    derive = RngStream.generator

    def counting(stream):
        derived.append(stream)
        return derive(stream)

    monkeypatch.setattr(RngStream, "generator", counting)
    rows = [("98103",)] * 5 + [("98101",)] * 2 + [("00000",)]
    table = Table.of(Schema.of(("zip", TEXT)), rows)
    session = build_session({"t": table}, AddMaxRows(1), PrivacyBudget.pure(INF), seed=77)
    keys = keyset_from_tuples([("zip", TEXT)], [("98103",), ("99999",), ("98101",)])
    result = session.evaluate(query("t").group_by(keys).count(), PrivacyBudget.pure("1/3"))
    assert derived == [RngStream(77).child(0)]

    generator = derive(RngStream(77).child(0))
    expected = [
        (key, true + sample_two_sided_geometric(Fraction(1, 3), generator))
        for key, true in (("98103", 5), ("99999", 0), ("98101", 2))
    ]
    assert result.rows == tuple(expected)


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

# The same, at the wide denominators the grouped and identifier workloads
# draw at: geometric rates down to 1/125,000,000 and a discrete Gaussian
# with sigma^2 = 6.25e16.  They are parametrized after the first set, so
# the first set keeps its test ids.
WIDE_SAMPLER_VECTORS = {
    ("geometric", 11, Fraction(1, 5)): (
        [9, 15, -3, -2, -15, 0, -2, -1, 1, -6, 0, 0, 24, 10, 3, -7, 4, 2, -2, 0],
        364757917,
    ),
    ("geometric", 11, Fraction(1, 10)): (
        [18, 30, -7, -4, -1, -24, 1, 31, -12, 0, 0, -1, 49, 20, 7, -3, 18, 8, 4, -4],
        2345461709,
    ),
    ("geometric", 11, Fraction(1, 125_000_000)): (
        [185643907, 108668649, 212767996, -204317233, -73989902, 413794285,
         9803040, 386696296, -98233178, 15637437, 59262721, 259851387,
         517075325, 256362131, 110557537, -124719969, -123125998, -162844283,
         88171926, 9028903],
        586717449,
    ),
    ("geometric", 2024, Fraction(1, 5)): (
        [6, -4, 9, -7, 2, 1, -2, -7, 3, 16, -3, 3, -15, -4, -9, -10, -3, 3, 1, -5],
        2381777973,
    ),
    ("geometric", 2024, Fraction(1, 10)): (
        [12, -8, 18, -15, 5, 3, -4, -7, 7, -2, -11, 4, -17, 20, -18, -21, -7, 6, 17, 11],
        2126056279,
    ),
    ("geometric", 2024, Fraction(1, 125_000_000)): (
        [149388171, -85382317, 70776943, 19914072, -180911167, 106523047,
         -121472765, 140037043, 79924923, 220096974, -327983314, -35383262,
         -738109134, -398321526, -210275087, -58937674, 24082132, -181266813,
         -57923778, -30212146],
        289961741,
    ),
    ("gaussian", 11, Fraction(62_500_000_000_000_000)): (
        [371287816, -328960712, 77588571, -254534001, -208979916, -36130465,
         154876477, 406426681, -232606213, -194720654, 512724264, 78768451,
         -246251996, 348995069, -4803437, -212940901, -3901046, 104270083,
         177164716, 53285988],
        901481624,
    ),
    ("gaussian", 2024, Fraction(62_500_000_000_000_000)): (
        [298776343, -333088616, 15699457, -88805488, -63372311, -70312063,
         186720945, -70766524, -258100664, -51028399, 221193874, 43323974,
         241299480, 335423377, 181300865, 472055109, -124434315, 49343514,
         444002114, 396835207],
        2173034075,
    ),
}

SAMPLERS = {
    "geometric": sample_two_sided_geometric,
    "gaussian": sample_discrete_gaussian,
}


@pytest.mark.parametrize(
    "sampler, seed, parameter",
    sorted(SAMPLER_VECTORS, key=str) + sorted(WIDE_SAMPLER_VECTORS, key=str),
)
def test_sampler_draws_are_golden(sampler, seed, parameter):
    draws, next_bits = {**SAMPLER_VECTORS, **WIDE_SAMPLER_VECTORS}[sampler, seed, parameter]
    generator = random.Random(seed)
    assert [SAMPLERS[sampler](parameter, generator) for _ in range(20)] == draws
    assert generator.getrandbits(32) == next_bits


@pytest.mark.parametrize(
    "seed, first", [(11, 1638562283106067334), (2024, 14950175168293070085)]
)
def test_stream_derivation_is_golden(seed, first):
    assert RngStream(seed).child(0, "x").generator().getrandbits(64) == first
