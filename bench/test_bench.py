"""Tests of the benchmark itself: generator, reference answers, tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import gc
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "scan": {"rows": 300},
    "groups": {"rows": 400, "keys": 200},
    "ids": {"rows": 500, "zips": 20},
}


def _written(name, seed, directory):
    workloads.write_inputs(workloads.build(name, seed, **SMALL[name]), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_reproducible_and_seed_dependent(name, tmp_path):
    first = _written(name, 5, tmp_path / "a")
    again = _written(name, 5, tmp_path / "b")
    other = _written(name, 6, tmp_path / "c")
    assert first == again
    assert set(first) >= {"schema.json", "script.json", "script_exact.json", "people.csv"}
    assert first["people.csv"] != other["people.csv"]


def test_groups_keyset_has_absent_keys_and_ids_users_repeat():
    groups = workloads.build("groups", 3, **SMALL["groups"])
    present = {row[workloads.ZIP] for row in groups.tables["people"][1]}
    keys = groups.queries[0].keys
    assert len(keys) == 200 and sum(k[0] not in present for k in keys) == 20
    ids = workloads.build("ids", 3, **SMALL["ids"])
    people, users = ids.tables["people"][1], ids.tables["users"][1]
    assert len(people) == 500
    assert {r[0] for r in people} == {u[0] for u in users}
    assert ids.sizes["max_rows_per_user"] > 5  # truncation at 5 cuts


# A hand-checked table: (user_id, age, zip, income, dept).
SIX = [
    (1, 30, "a", 2.675, "x"),
    (1, 50, "b", 20.0, "y"),
    (2, 41, "a", -5.0, "x"),
    (3, 60, "b", 300.0, "x"),
    (3, 25, "a", 7.375, "y"),
    (3, 70, "b", 7.125, "y"),
]
INCOMES = [r[3] for r in SIX]
AGES = [r[1] for r in SIX]


def test_reference_counts_and_grain_sums():
    assert ref.count(SIX) == 6
    assert ref.count([r for r in SIX if r[1] > 40]) == 4
    # The double nearest 2.675 lies just below it, so 267.4999.. grains
    # round to 267; -5 clamps to 0; 300 clamps to 100, 10000 grains;
    # 737.5 -> 738 and 712.5 -> 712 (half to even).
    assert ref.grain_total(INCOMES, 0, 100) == 267 + 2000 + 0 + 10000 + 738 + 712
    assert ref.sum_value(INCOMES, 0, 100) == 137.17
    assert ref.average_value(INCOMES, 0, 100) == float(Fraction(13717, 100) / 6)
    assert ref.average_value([], 0, 100) == 0.0


def test_reference_quantile_top_bins():
    # Midpoints 12.5, 37.5, 62.5, 87.5 have 0, 2, 5, 6 ages below them;
    # the target rank is 3, so only 37.5 scores best.
    assert ref.quantile_choices(AGES, 0.5, 0, 100, 4) == {37.5}
    # Midpoints 25 and 75 have 0 and 6 below: a tie.
    assert ref.quantile_choices(AGES, 0.5, 0, 100, 2) == {25.0, 75.0}


def test_reference_truncation_and_groups():
    kept = ref.truncate_by_key(SIX, 0, 2)
    assert sorted(kept) == sorted(SIX[:3] + [SIX[4], SIX[3]])
    counts = ref.grouped([(r[2],) for r in SIX], [("b",), ("a",), ("c",)], ref.count)
    assert counts == [("b", 3), ("a", 3), ("c", 0)]
    assert ref.matches(counts, [["b", 3], ["a", 3], ["c", 0]])
    assert not ref.matches(counts, [["a", 3], ["b", 3], ["c", 0]])
    assert ref.matches(frozenset({25.0, 75.0}), [[75.0]])
    assert not ref.matches(137.17, [[137]])


def test_tail_is_the_highest_rank_with_ten_samples_above():
    value, percentile, above = run._tail([float(i) for i in range(1, 101)])
    assert (value, percentile, above) == (90.0, 90.0, 10)
    assert run._tail([1.0, 2.0, 3.0])[0] == 2.0  # too few samples: the median


def _session(noisegate, seed):
    from noisegate.tabledata import ColumnType

    schema = noisegate.Schema.of(
        ("user_id", ColumnType.INT64), ("age", ColumnType.INT64),
        ("zip", ColumnType.TEXT), ("income", ColumnType.FLOAT64), ("dept", ColumnType.TEXT),
    )
    table = noisegate.Table.of(schema, SIX)
    return noisegate.build_session(
        {"people": table}, noisegate.AddMaxRows(1), noisegate.PrivacyBudget.pure(10), seed)


def test_tracer_restores_every_wrapped_name():
    import noisegate
    from noisegate.tabledata import ColumnType

    keys = noisegate.keyset_from_tuples([("zip", ColumnType.TEXT)], [("a",), ("b",), ("c",)])
    query = noisegate.query("people").filter("age > 20").group_by(keys).count()
    spend = noisegate.PrivacyBudget.pure(1)
    untraced = _session(noisegate, 9).evaluate(query, spend)

    tracer = spans.Tracer(noisegate, count_prng=True)
    originals = tracer.originals()
    expected = len(spans.TRANSFORMATIONS) + len(spans.MEASUREMENTS) + len(spans.CALLS)
    assert len(originals) == expected
    with tracer:
        assert not tracer.missing
        assert all(owner.__dict__[name] is not obj for (owner, name), obj in originals.items())
        traced = _session(noisegate, 9).evaluate(query, spend)
    assert tracer.restored(originals)
    assert traced.rows == untraced.rows
    assert tracer.counts["session.evaluate"] == 1
    assert tracer.counts["measurements.groups_released"] == 3
    assert tracer.counts["measurements.empty_groups"] == 1
    assert tracer.counts["noise.geometric"] == 3
    assert tracer.counts["noise.prng_calls"] > 0
    assert tracer.self_time["transformations.filter"] > 0

    # Once removed, nothing is recorded any more.
    before = dict(tracer.counts)
    _session(noisegate, 9).evaluate(query, spend)
    assert dict(tracer.counts) == before


def test_tracer_restores_names_when_a_query_raises():
    import noisegate

    tracer = spans.Tracer(noisegate)
    originals = tracer.originals()
    with pytest.raises(noisegate.NoisegateError):
        with tracer:
            _session(noisegate, 1).evaluate(
                noisegate.query("people").count(), noisegate.PrivacyBudget.pure(11))
    assert tracer.restored(originals)


def test_calibration_kernel_is_fixed_work_and_keeps_gc_state():
    assert calibrate._work() == calibrate._work()
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert calibrate.kernel_seconds() > 0
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


def test_timings_are_scaled_by_the_kernel_runs_next_to_them():
    workload = workloads.build("scan", 1, **SMALL["scan"])
    n, ref_s = len(workload.queries), calibrate.REFERENCE_S
    # The second pass ran on a machine twice as slow, kernel included.
    result = {
        "loop": {
            "latencies": [[i, 0.1, 0] for i in range(n)] + [[i, 0.2, 1] for i in range(n)],
            "kernel": [[ref_s] * n, [2 * ref_s] * n],
        },
        "peak_rss_kb": 2048,
    }
    probes = [{"setup_s": 0.4, "kernel_s": [2 * ref_s] * 7}]
    metrics, notes = run.end_to_end(workload, probes, result)
    assert metrics["query_p50_s"] == pytest.approx(0.1)
    assert metrics["query_tail_s"] == pytest.approx(0.1)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["rows_per_s"] == pytest.approx(2 * sum(workload.rows_read()) / (2 * n * 0.1))
    assert metrics["peak_rss_mb"] == 2
    assert "unscaled" in notes["query_p50_s"]
