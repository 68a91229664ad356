"""One measured process of the benchmark, run in a fresh interpreter.

    python3 bench/measure.py setup WORKDIR
    python3 bench/measure.py loop WORKDIR

Both modes set noisegate up the way `noisegate run` does (import, schema
file, `cli.parse_script`, `load_csv` per table, `build_session`) and time
that as the set-up.  `setup` stops there.  `loop` then runs the untimed
exact pass and the timed closed loop (one client, one query in flight),
with a `setup` child between passes when the plan asks for set-up probes,
and, when it asks for a trace, the same loop again under the tracer.
Untraced loops and set-up runs also time the calibration kernel
(calibrate.py) next to what they measure, so run.py can report the
timings in reference seconds.
WORKDIR holds plan.json and the inputs run.py wrote; the result goes to
WORKDIR/result-<mode>.json.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import calibrate
import spans


# Kernel runs a set-up probe makes after set-up, to scale its time.
SETUP_KERNEL_RUNS = 7


def _unit(noisegate, text: str):
    kind, _, arg = text.partition(":")
    if kind == "add-max-rows":
        return noisegate.AddMaxRows(int(arg))
    return noisegate.AddRemoveId(arg)


def _budget(noisegate, measure: str, amount):
    if measure == "pure":
        return noisegate.PrivacyBudget.pure(amount)
    return noisegate.PrivacyBudget.zcdp(amount)


def _rows(table) -> list:
    return [list(row) for row in table.rows]


def _check(result, keys, remaining, expected_remaining) -> str | None:
    """Shape and ledger checks on one released result."""
    if keys is None:
        if len(result.rows) != 1:
            return f"expected one row, got {len(result.rows)}"
    elif [tuple(row[:-1]) for row in result.rows] != keys:
        return "rows are not exactly the keyset rows in keyset order"
    if not isinstance(remaining, Fraction) or remaining != expected_remaining:
        return f"remaining budget {remaining!r}, expected {expected_remaining}"
    return None


def run_passes(ctx: dict, first_session=None, between=None, calibrate_each=False) -> dict:
    """The closed loop: each pass is one fully spent session.

    `between`, if given, runs after every other pass (the first, third,
    ...), outside the timed calls, and its return values are collected.  With `calibrate_each`, the
    calibration kernel runs once after every query, outside the timed
    call, and its times are kept per pass."""
    noisegate, plan, script = ctx["noisegate"], ctx["plan"], ctx["script"]
    insufficient = noisegate.errors.InsufficientBudget
    total = sum(q.spend for q in script)
    latencies, failures, attempted, between_values, kernel = [], [], 0, [], []
    digest = hashlib.sha256()
    for p, seed in enumerate(plan["pass_seeds"]):
        if p == 0 and first_session is not None:
            session = first_session
        else:
            session = noisegate.build_session(
                ctx["tables"], ctx["unit"], _budget(noisegate, plan["measure"], total), seed
            )
        spent = Fraction(0)
        kernel.append([])
        for i, q in enumerate(script):
            attempted += 1
            spend = _budget(noisegate, plan["measure"], q.spend)
            start = time.perf_counter()
            try:
                result = session.evaluate(q.expr, spend)
            except Exception as exc:  # any raise is a failed operation
                failures.append(f"pass {p} {q.name}: raised {exc!r}")
                continue
            latencies.append((i, time.perf_counter() - start, p))
            if calibrate_each:
                kernel[p].append(calibrate.kernel_seconds())
            spent += q.spend
            problem = _check(
                result, ctx["keys"][i], session.remaining_budget().amount, total - spent
            )
            if problem:
                failures.append(f"pass {p} {q.name}: {problem}")
            digest.update(json.dumps([p, q.name, _rows(result)]).encode())
        # The budget is exactly the planned spends, so one more ask must be
        # refused and must leave the ledger untouched.
        attempted += 1
        before = session.remaining_budget().amount
        try:
            session.evaluate(script[0].expr, _budget(noisegate, plan["measure"], script[0].spend))
            failures.append(f"pass {p}: an ask past the budget was answered")
        except insufficient:
            if session.remaining_budget().amount != before:
                failures.append(f"pass {p}: a refused ask changed the budget")
        except Exception as exc:
            failures.append(f"pass {p}: an ask past the budget raised {exc!r}")
        if between is not None and p % 2 == 0:
            between_values.append(between())
    return {
        "between": between_values,
        "latencies": latencies,
        "kernel": kernel,
        "failures": failures,
        "attempted": attempted,
        "digest": digest.hexdigest(),
    }


def exact_pass(ctx: dict) -> dict:
    """Every query once more, in its own session, with spends so large that
    no noise is added; run.py compares the rows with its reference."""
    noisegate, plan = ctx["noisegate"], ctx["plan"]
    work = ctx["work"]
    script = noisegate.cli.parse_script(
        json.loads((work / "script_exact.json").read_text(encoding="utf-8"))
    )
    session = noisegate.build_session(
        ctx["tables"], ctx["unit"], _budget(noisegate, plan["measure"], "inf"), plan["exact_seed"]
    )
    rows = []
    for q in script:
        try:
            rows.append(_rows(session.evaluate(q.expr, _budget(noisegate, plan["measure"], q.spend))))
        except Exception as exc:
            rows.append({"error": repr(exc)})
    return {"rows": rows}


def traced_loop(ctx: dict) -> dict:
    tracer = spans.Tracer(ctx["noisegate"])
    originals = tracer.originals()
    with tracer:
        loop = run_passes(ctx)
    # PRNG draws are counted over the first pass only, in an untimed copy.
    counter = spans.Tracer(ctx["noisegate"], count_prng=True)
    first = dict(ctx, plan=dict(ctx["plan"], pass_seeds=ctx["plan"]["pass_seeds"][:1]))
    with counter:
        counted = run_passes(first)
    loop.update(
        self_time=dict(tracer.self_time),
        counts=dict(tracer.counts, **{"noise.prng_calls": counter.counts["noise.prng_calls"]}),
        root_time=tracer.root_time,
        missing=tracer.missing,
        restored=tracer.restored(originals) and counter.restored(originals),
        failures=loop["failures"] + counted["failures"],
        attempted=loop["attempted"] + counted["attempted"],
    )
    return loop


def _setup_probe(work: Path) -> dict:
    """Set-up time of a fresh interpreter, measured between passes so that
    it meets the same spells of a shared machine as the loop does."""
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup", str(work)],
        check=True, timeout=60, stdout=subprocess.DEVNULL,
    )
    out = json.loads((work / "result-setup.json").read_text(encoding="utf-8"))
    return {"setup_s": out["setup_s"], "kernel_s": out["kernel_s"]}


def main(argv: list[str]) -> int:
    mode, work = argv[1], Path(argv[2])
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    marks = {}

    start = time.perf_counter()
    import noisegate
    import noisegate.cli

    marks["import"] = time.perf_counter() - start
    domains = noisegate.tabledata.load_schema_file(work / "schema.json")
    doc = json.loads((work / "script.json").read_text(encoding="utf-8"))
    tick = time.perf_counter()
    script = noisegate.cli.parse_script(doc)
    marks["parse_script"] = time.perf_counter() - tick
    tick = time.perf_counter()
    tables = {
        name: noisegate.load_csv(work / f"{name}.csv", domains[name].schema)
        for name in sorted(domains)
    }
    marks["load_csv"] = time.perf_counter() - tick
    unit = _unit(noisegate, plan["unit"])
    total = sum(q.spend for q in script)
    session = noisegate.build_session(
        tables, unit, _budget(noisegate, plan["measure"], total), plan["pass_seeds"][0]
    )
    out = {"setup_s": time.perf_counter() - start, "marks": marks,
           "rows_ingested": sum(len(t.rows) for t in tables.values())}

    if mode == "setup":
        out["kernel_s"] = [calibrate.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
    if mode == "loop":
        keys = [None if k is None else [tuple(row) for row in k] for k in plan["keys"]]
        ctx = {"noisegate": noisegate, "plan": plan, "script": script, "tables": tables,
               "unit": unit, "keys": keys, "work": work}
        out["exact"] = exact_pass(ctx)
        out["loop"] = run_passes(
            ctx, first_session=session, calibrate_each=plan["probe"],
            between=partial(_setup_probe, work) if plan["probe"] else None,
        )
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if plan["trace"]:
            out["traced"] = traced_loop(ctx)

    (work / f"result-{mode}.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
