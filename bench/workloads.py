"""Seeded synthetic workloads for the noisegate benchmark.

Each workload is a set of tables, a privacy unit and measure, and an
ordered query mix.  `build(name, seed)` makes the same rows, the same
script and the same reference answers for the same seed, and nothing
here imports noisegate: the program under test only ever sees the files
`write_inputs` produces, which are exactly what `noisegate run` reads.

Queries are script entries (name, spend, expr) in the CLI's JSON format,
each paired with a plain-Python reference function over the generated
rows (see reference.py) and the names of the source tables it reads.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

# Column layout shared by every `people` table.
PEOPLE_COLUMNS = (
    ("user_id", "int64"),
    ("age", "int64"),
    ("zip", "text"),
    ("income", "float64"),
    ("dept", "text"),
)
USERS_COLUMNS = (("user_id", "int64"), ("tier", "text"))
UID, AGE, ZIP, INCOME, DEPT = range(5)

DEPTS = ("eng", "ops", "sales", "legal", "hr")
DEPT_WEIGHTS = (0.35, 0.25, 0.2, 0.1, 0.1)
DIVISIONS = {"eng": "tech", "ops": "tech", "sales": "business", "legal": "business", "hr": "business"}
TIERS = ("free", "plus", "pro")
TIER_WEIGHTS = (0.7, 0.2, 0.1)

# Spend used by the exact pass: large enough that every mechanism's rate
# is at least 1e9 (pure DP) or sigma^2 at most 1e-18 (zCDP), where
# noisegate adds no noise at all.
EXACT_SPEND = "1" + "0" * 40


@dataclass(frozen=True)
class Query:
    name: str
    spend: str
    expr: dict
    reads: tuple[str, ...]
    reference: Callable[[dict], object]
    # Key rows of a grouped query, in keyset order; None when ungrouped.
    keys: tuple[tuple, ...] | None = None


@dataclass
class Workload:
    name: str
    unit: str
    measure: str
    tables: dict[str, tuple[tuple[tuple[str, str], ...], list[tuple]]]
    queries: list[Query]
    sizes: dict = field(default_factory=dict)

    def schema_doc(self) -> dict:
        return {
            "tables": {
                name: {"columns": [{"name": c, "type": t} for c, t in columns]}
                for name, (columns, _) in self.tables.items()
            }
        }

    def script_doc(self, spend: str | None = None) -> dict:
        return {
            "queries": [
                {"name": q.name, "spend": spend or q.spend, "expr": q.expr}
                for q in self.queries
            ]
        }

    def rows_read(self) -> list[int]:
        return [sum(len(self.tables[t][1]) for t in q.reads) for q in self.queries]


# ---------------------------------------------------------------------------
# Script expression builders (the CLI's JSON query format).


def source(table):
    return {"kind": "Source", "table": table}


def filtered(predicate, child):
    return {"kind": "Filter", "predicate": predicate, "child": child}


def mapped(columns, schema, child):
    return {"kind": "Map", "columns": columns, "schema": _schema_obj(schema), "child": child}


def join_public(columns, rows, on, child):
    table = dict(_schema_obj(columns), rows=[list(r) for r in rows])
    return {"kind": "JoinPublic", "table": table, "on": list(on), "child": child}


def join_private(child, other, on, left_bound, right_bound):
    return {
        "kind": "JoinPrivate", "child": child, "other": other, "on": list(on),
        "left_bound": left_bound, "right_bound": right_bound,
    }


def truncated(bound, child):
    return {"kind": "TruncateById", "bound": bound, "child": child}


def grouped(columns, keys, child):
    keyset = dict(_schema_obj(columns), rows=[list(k) for k in keys])
    return {"kind": "GroupBy", "keys": keyset, "child": child}


def count(child):
    return {"kind": "Count", "child": child}


def summed(column, low, high, child):
    return {"kind": "Sum", "column": column, "low": low, "high": high, "child": child}


def averaged(column, low, high, child):
    return {"kind": "Average", "column": column, "low": low, "high": high, "child": child}


def quantile(column, q, low, high, bins, child):
    return {
        "kind": "Quantile", "column": column, "q": q, "low": low, "high": high,
        "bins": bins, "child": child,
    }


def _schema_obj(columns):
    return {"columns": [{"name": c, "type": t} for c, t in columns]}


# ---------------------------------------------------------------------------
# Row generators.  They use only methods built on random() and randrange()
# (lognormvariate, choices, shuffle), whose streams are stable across
# Python versions for a given seed.


def _person(rng: random.Random, user_id: int, zip_code: str) -> tuple:
    age = 18 + rng.randrange(73)
    income = round(min(rng.lognormvariate(10.9, 0.55), 400000.0), 2)
    dept = rng.choices(DEPTS, DEPT_WEIGHTS)[0]
    return (user_id, age, zip_code, income, dept)


def _scan(seed: int, rows: int = 17_000) -> Workload:
    rng = random.Random(f"scan:{seed}")
    zips = [str(98000 + i) for i in range(200)]
    people = [_person(rng, i, zips[rng.randrange(len(zips))]) for i in range(rows)]
    divisions = sorted(DIVISIONS.items())
    division_keys = [("tech",), ("business",)]
    dept_keys = [(d,) for d in DEPTS]
    p = "people"

    def col(rows, i):
        return [r[i] for r in rows]

    queries = [
        Query("rows", "1/10", count(source(p)), (p,), lambda t: ref.count(t[p])),
        Query(
            "over_40", "1/10", count(filtered("age > 40", source(p))), (p,),
            lambda t: ref.count([r for r in t[p] if r[AGE] > 40]),
        ),
        Query(
            "eng_income", "1/5",
            summed("income", 0, 250000, filtered("dept == 'eng'", source(p))), (p,),
            lambda t: ref.sum_value(col([r for r in t[p] if r[DEPT] == "eng"], INCOME), 0, 250000),
        ),
        Query(
            "mean_income_k", "1/5",
            averaged("income_k", 0, 300, mapped(
                {"dept": "dept", "income_k": "income / 1000.0"},
                (("dept", "text"), ("income_k", "float64")), source(p))),
            (p,),
            lambda t: ref.average_value([r[INCOME] / 1000.0 for r in t[p]], 0, 300),
        ),
        Query(
            "by_division", "1/10",
            count(grouped((("division", "text"),), division_keys, join_public(
                (("dept", "text"), ("division", "text")), divisions, ("dept",), source(p)))),
            (p,),
            lambda t: ref.grouped(
                [(DIVISIONS[r[DEPT]],) for r in t[p]], division_keys, ref.count),
            tuple(division_keys),
        ),
        Query(
            "income_by_dept", "1/5",
            averaged("income", 0, 250000, grouped((("dept", "text"),), dept_keys, source(p))),
            (p,),
            lambda t: ref.grouped(
                [(r[DEPT], r[INCOME]) for r in t[p]], dept_keys,
                lambda rows: ref.average_value([r[-1] for r in rows], 0, 250000)),
            tuple(dept_keys),
        ),
        Query(
            "median_income", "1/20", quantile("income", 0.5, 0, 200000, 100, source(p)), (p,),
            lambda t: ref.quantile_choices(col(t[p], INCOME), 0.5, 0, 200000, 100),
        ),
        Query(
            "p25_income", "1/20", quantile("income", 0.25, 0, 200000, 150, source(p)), (p,),
            lambda t: ref.quantile_choices(col(t[p], INCOME), 0.25, 0, 200000, 150),
        ),
        Query(
            "p90_income", "1/20", quantile("income", 0.9, 0, 400000, 1000, source(p)), (p,),
            lambda t: ref.quantile_choices(col(t[p], INCOME), 0.9, 0, 400000, 1000),
        ),
    ]
    return Workload(
        "scan", "add-max-rows:1", "pure", {p: (PEOPLE_COLUMNS, people)}, queries,
        {"people_rows": len(people), "zips": len(zips), "depts": len(DEPTS)},
    )


def _power_law_sizes(total: int, count: int | None, high: int, exponent: float) -> list[int]:
    """Sizes in 1..high that follow P(k) ~ k^-exponent at evenly spaced
    quantiles and add up to `total`.  With `count` None, as many sizes as
    the law's mean allows.  The multiset is the same for every seed, so
    sizes do not move the timings from seed to seed; the seed only decides
    who gets which size."""
    ks = range(1, high + 1)
    weights = [k ** -exponent for k in ks]
    mass = sum(weights)
    if count is None:
        count = max(1, round(total * mass / sum(k * w for k, w in zip(ks, weights))))
    sizes, cumulative, steps = [], 0.0, iter(zip(ks, weights))
    k, w = next(steps)
    for i in range(count):
        while cumulative + w < (i + 0.5) / count * mass:
            cumulative += w
            k, w = next(steps)
        sizes.append(k)
    # Nudge sizes by one until they add up to `total`: the smallest up,
    # or the largest down.
    missing = total - sum(sizes)
    step = 1 if missing > 0 else -1
    for i in range(2 * count * high):
        if missing == 0:
            break
        j = i % count if step > 0 else count - 1 - i % count
        if 1 <= sizes[j] + step <= high:
            sizes[j] += step
            missing -= step
    return sizes


def _groups(seed: int, rows: int = 5_400, keys: int = 2_900) -> Workload:
    rng = random.Random(f"groups:{seed}")
    universe = [str(10000 + i) for i in range(keys)]
    rng.shuffle(universe)
    present = universe[: keys - keys // 10]  # the last tenth never occurs
    # Zip sizes follow a power law (most zips hold one or two rows, a few
    # hold hundreds); the seed decides which zip gets which size.
    sizes = _power_law_sizes(max(rows, len(present)), len(present), 2000, 2.4)
    zips = [z for z, k in zip(present, sizes) for _ in range(k)]
    rng.shuffle(zips)
    people = [_person(rng, i, z) for i, z in enumerate(zips)]
    keyset = [(z,) for z in universe]
    zip_col = (("zip", "text"),)
    p = "people"

    def by_zip(rows, agg):
        return ref.grouped(rows, keyset, agg)

    queries = [
        Query(
            "count_by_zip", "1/5", count(grouped(zip_col, keyset, source(p))), (p,),
            lambda t: by_zip([(r[ZIP],) for r in t[p]], ref.count), tuple(keyset),
        ),
        Query(
            "over_40_by_zip", "1/5",
            count(grouped(zip_col, keyset, filtered("age > 40", source(p)))), (p,),
            lambda t: by_zip([(r[ZIP],) for r in t[p] if r[AGE] > 40], ref.count), tuple(keyset),
        ),
        Query(
            "income_by_zip", "1/5",
            summed("income", 0, 250000, grouped(zip_col, keyset, source(p))), (p,),
            lambda t: by_zip(
                [(r[ZIP], r[INCOME]) for r in t[p]],
                lambda rows: ref.sum_value([r[-1] for r in rows], 0, 250000)),
            tuple(keyset),
        ),
        Query(
            "mean_income_by_zip", "1/5",
            averaged("income", 0, 250000, grouped(zip_col, keyset, source(p))), (p,),
            lambda t: by_zip(
                [(r[ZIP], r[INCOME]) for r in t[p]],
                lambda rows: ref.average_value([r[-1] for r in rows], 0, 250000)),
            tuple(keyset),
        ),
        Query(
            "over_40_income_by_zip", "1/5",
            summed("income", 0, 250000, grouped(zip_col, keyset, filtered("age > 40", source(p)))),
            (p,),
            lambda t: by_zip(
                [(r[ZIP], r[INCOME]) for r in t[p] if r[AGE] > 40],
                lambda rows: ref.sum_value([r[-1] for r in rows], 0, 250000)),
            tuple(keyset),
        ),
    ]
    return Workload(
        "groups", "add-max-rows:1", "pure", {p: (PEOPLE_COLUMNS, people)}, queries,
        {"people_rows": len(people), "keys": keys, "absent_keys": keys - len(present)},
    )


def _ids(seed: int, rows: int = 14_000, zips: int = 1000) -> Workload:
    rng = random.Random(f"ids:{seed}")
    # Rows per user follow a truncated power law on 1..60 (mean about 4.4),
    # so truncation at 2, 3 or 5 rows per user cuts real data.
    per_user = _power_law_sizes(rows, None, 60, 1.72)
    rng.shuffle(per_user)
    zip_codes = [str(20000 + i) for i in range(zips)]
    owners = [uid for uid, k in enumerate(per_user) for _ in range(k)]
    rng.shuffle(owners)
    people = [_person(rng, uid, zip_codes[rng.randrange(zips)]) for uid in owners]
    users = [(uid, rng.choices(TIERS, TIER_WEIGHTS)[0]) for uid in range(len(per_user))]
    zip_keys = [(z,) for z in zip_codes]
    tier_keys = [(t,) for t in TIERS]
    dept_keys = [(d,) for d in DEPTS]
    p, u = "people", "users"

    def cut(t, bound):
        return ref.truncate_by_key(t[p], UID, bound)

    def tier_incomes(t):
        tiers = {row[0]: row[1] for row in ref.truncate_by_key(t[u], 0, 1)}
        joined = ref.truncate_by_key(cut(t, 3), UID, 3)
        return [(tiers[r[UID]], r[INCOME]) for r in joined if r[UID] in tiers]

    queries = [
        Query(
            "rows_cut_2", "1/8", count(truncated(2, source(p))), (p,),
            lambda t: ref.count(cut(t, 2)),
        ),
        Query(
            "income_cut_5", "1/8", summed("income", 0, 250000, truncated(5, source(p))), (p,),
            lambda t: ref.sum_value([r[INCOME] for r in cut(t, 5)], 0, 250000),
        ),
        Query(
            "zip_counts_cut_3", "1/8",
            count(grouped((("zip", "text"),), zip_keys, truncated(3, source(p)))), (p,),
            lambda t: ref.grouped([(r[ZIP],) for r in cut(t, 3)], zip_keys, ref.count),
            tuple(zip_keys),
        ),
        Query(
            "income_by_tier", "1/8",
            summed("income", 0, 250000, grouped((("tier", "text"),), tier_keys, join_private(
                truncated(3, source(p)), truncated(1, source(u)), ("user_id",), 3, 1))),
            (p, u),
            lambda t: ref.grouped(
                tier_incomes(t), tier_keys,
                lambda rows: ref.sum_value([r[-1] for r in rows], 0, 250000)),
            tuple(tier_keys),
        ),
        Query(
            "mean_income_by_dept_cut_2", "1/8",
            averaged("income", 0, 250000, grouped((("dept", "text"),), dept_keys, truncated(2, source(p)))),
            (p,),
            lambda t: ref.grouped(
                [(r[DEPT], r[INCOME]) for r in cut(t, 2)], dept_keys,
                lambda rows: ref.average_value([r[-1] for r in rows], 0, 250000)),
            tuple(dept_keys),
        ),
    ]
    return Workload(
        "ids", "add-remove-id:user_id", "zcdp",
        {p: (PEOPLE_COLUMNS, people), u: (USERS_COLUMNS, users)}, queries,
        {"people_rows": len(people), "users": len(users), "zips": zips,
         "max_rows_per_user": max(per_user)},
    )


WORKLOADS = {"scan": _scan, "groups": _groups, "ids": _ids}


def build(name: str, seed: int, **sizes) -> Workload:
    return WORKLOADS[name](seed, **sizes)


def _cell(value) -> str:
    # repr round-trips doubles exactly, as noisegate's own writer does.
    return repr(value) if isinstance(value, float) else str(value)


def write_inputs(workload: Workload, directory: Path) -> None:
    """Write schema.json, one <table>.csv per table, script.json and the
    exact pass's script_exact.json into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in (("schema", workload.schema_doc()), ("script", workload.script_doc()),
                      ("script_exact", workload.script_doc(EXACT_SPEND))):
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    for name, (columns, rows) in workload.tables.items():
        with (directory / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([c for c, _ in columns])
            writer.writerows([_cell(v) for v in row] for row in rows)
