"""The noisegate benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 16 --trace 0

Run from the root of a source tree (the one holding src/noisegate).  The
run writes the workload's inputs (schema.json, <table>.csv, script.json)
under .bench_work/, times set-up in fresh interpreters, runs the timed
closed loop and the exact correctness pass in another one, and prints a
human-readable report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with every timing in
reference seconds (see calibrate.py); with --trace 1 they are the
per-layer ones from a traced copy of the same loop.  The exit code is 0
only when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

# Seconds one pass of each workload's query mix, with its calibration
# kernel runs, took when the benchmark was defined (Python 3.11, 2 cores).  The timed loop runs
# round(--seconds / PASS_SECONDS) passes, so the loop lasts about
# --seconds there, and every commit does the same number of queries.
PASS_SECONDS = {"scan": 0.84, "groups": 0.84, "ids": 0.84}
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = [
    "tabledata.table_build", "tabledata.split_by_key", "tabledata.canonicalize",
    "transformations.filter", "transformations.map", "transformations.public_join",
    "transformations.truncate_by_id", "transformations.private_join",
    "measurements.count", "measurements.sum", "measurements.average",
    "measurements.quantile", "measurements.per_group",
    "noise.geometric", "noise.gaussian", "rng.derive",
    "session.compile", "session.ledger",
]
LAYER_COUNTS = {
    "tabledata.split_calls": "tabledata.split_by_key",
    "tabledata.canonicalize_calls": "tabledata.canonicalize",
    "measurements.groups_released": "measurements.groups_released",
    "measurements.empty_groups": "measurements.empty_groups",
    "noise.geometric_draws": "noise.geometric",
    "noise.gaussian_draws": "noise.gaussian",
    "noise.prng_calls": "noise.prng_calls",
    "rng.streams_derived": "rng.derive",
}


def _derived_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(mode: str, work: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, str(HERE / "measure.py"), mode, str(work)],
        check=True, timeout=CHILD_TIMEOUT_S, env=env, stdout=subprocess.DEVNULL,
    )
    return json.loads((work / f"result-{mode}.json").read_text(encoding="utf-8"))


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least ten samples above it.

    Returns (value, percentile, samples above).  Runs too short to have
    ten samples above the median report the median's rank instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(workload, probes, result) -> tuple[dict, dict]:
    """End-to-end metrics, with every timing in reference seconds.

    A query's time is scaled by the calibration kernel runs of its own
    pass, a set-up probe's by the kernel runs it made itself (see
    calibrate.py)."""
    loop = result["loop"]
    scales = [calibrate.scale(samples) for samples in loop["kernel"]]
    raw = [s for _, s, _ in loop["latencies"]]
    latencies = [s * scales[p] for _, s, p in loop["latencies"]]
    setups = [probe["setup_s"] * calibrate.scale(probe["kernel_s"]) for probe in probes]
    reads = workload.rows_read()
    rows = sum(reads[i] for i, _, _ in loop["latencies"])
    tail, percentile, above = _tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail,
        "rows_per_s": rows / sum(latencies),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh interpreters, one after every other pass; "
                   f"unscaled median {statistics.median(p['setup_s'] for p in probes):.4f} s",
        "query_p50_s": f"n={len(latencies)}; unscaled {statistics.median(raw):.4f} s",
        "query_tail_s": f"p{percentile:.1f}, {above} of {len(latencies)} samples above",
        "rows_per_s": f"{rows} source rows read over {sum(latencies):.3f} s of evaluate",
        "peak_rss_mb": "ru_maxrss of the measured process",
        "speed": f"kernel median {statistics.median(calibrate.REFERENCE_S / f for f in scales):.5f} s "
                 f"per pass (reference {calibrate.REFERENCE_S} s); timings are in reference seconds",
    }
    return metrics, notes


def per_layer(workload, result) -> tuple[dict, dict]:
    traced, marks = result["traced"], result["marks"]
    self_time, counts = traced["self_time"], traced["counts"]
    reads = workload.rows_read()
    rows_read = sum(reads[i] for i, _, _ in traced["latencies"])
    # Both loops ask the same queries in the same order; pairing them keeps
    # drifts in machine speed between the two loops out of the ratio.
    ratios = [t / u for (i, u, _), (j, t, _) in zip(result["loop"]["latencies"], traced["latencies"])
              if i == j]
    root = traced["root_time"]
    metrics = {
        "noisegate.import_s": marks["import"],
        "cli.parse_script_s": marks["parse_script"],
        "tabledata.load_csv_s": marks["load_csv"],
        "tabledata.rows_ingested": result["rows_ingested"],
        "tabledata.rows_validated_per_row_read":
            counts.get("tabledata.rows_validated", 0) / max(1, rows_read),
    }
    for kind in LAYER_TIMES:
        metrics[kind + "_s"] = self_time.get(kind, 0.0)
    for name, kind in LAYER_COUNTS.items():
        metrics[name] = counts.get(kind, 0)
    covered = sum(t for kind, t in self_time.items() if kind != "session.evaluate")
    metrics["trace.coverage"] = covered / root if root else 0.0
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1 if ratios else 0.0
    shares = {}
    for kind, t in self_time.items():
        module = kind.split(".")[0] if kind != "session.evaluate" else "untraced"
        shares[module] = shares.get(module, 0.0) + (t / root if root else 0.0)
    notes = {
        "module_shares": {k: round(v, 4) for k, v in sorted(shares.items())},
        "kind_shares": {k: round(t / root, 4) for k, t in sorted(self_time.items()) if root},
        "traced_queries": len(traced["latencies"]),
        "missing_names": traced["missing"],
    }
    return metrics, notes


def _unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name in ("tabledata.rows_validated_per_row_read", "trace.coverage", "trace.overhead_frac"):
        return "ratio"
    return "count"


def run(args, work: Path) -> int:
    workload = workloads.build(args.workload, args.seed)
    workloads.write_inputs(workload, work)
    tables = {name: rows for name, (_, rows) in workload.tables.items()}
    expected = [q.reference(tables) for q in workload.queries]
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    plan = {
        "src": str(ROOT / "src"),
        "unit": workload.unit,
        "measure": workload.measure,
        "pass_seeds": [_derived_seed(args.workload, args.seed, "pass", p) for p in range(passes)],
        "exact_seed": _derived_seed(args.workload, args.seed, "exact"),
        "keys": [None if q.keys is None else [list(k) for k in q.keys] for q in workload.queries],
        "trace": args.trace,
        "probe": not args.trace,
    }
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    _child("setup", work)  # warm-up: byte-compiles and fills the file cache
    result = _child("loop", work)
    probes = result["loop"]["between"]

    failures = list(result["loop"]["failures"])
    attempted = result["loop"]["attempted"] + len(expected)
    for q, want, got in zip(workload.queries, expected, result["exact"]["rows"]):
        if isinstance(got, dict):
            failures.append(f"exact pass {q.name}: {got['error']}")
        elif not reference.matches(want, got):
            failures.append(f"exact pass {q.name}: differs from the reference")
    if args.trace:
        traced = result["traced"]
        attempted += traced["attempted"]
        failures += traced["failures"]
        if traced["digest"] != result["loop"]["digest"]:
            failures.append("the traced loop released different values")
        if not traced["restored"]:
            failures.append("the tracer did not restore every wrapped name")
        metrics, notes = per_layer(workload, result)
    else:
        metrics, notes = end_to_end(workload, probes, result)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "client": "closed loop, 1 process, 1 thread, 1 query in flight",
        "passes": passes,
        "queries_per_pass": len(workload.queries),
        "sizes": workload.sizes,
        "pass_seeds": plan["pass_seeds"],
        "exact_seed": plan["exact_seed"],
        "digest": result["loop"]["digest"],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(ROOT),
        "notes": notes,
    }
    print(f"noisegate benchmark: workload {args.workload}, seed {args.seed}, "
          f"{passes} passes of {len(workload.queries)} queries, trace {args.trace}")
    for name, value in metrics.items():
        note = notes.get(name, "") if isinstance(notes.get(name), str) else ""
        print(f"  {name:40s} {value:>16.6g} {_unit_of(name):6s} {note}")
    print(f"  {'failed_frac':40s} {report['failed_frac']:>16.6g} {'ratio':6s} "
          f"{len(failures)} of {attempted} operations")
    if "speed" in notes:
        print(f"  speed: {notes['speed']}")
    print(f"  digest {report['digest']}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("report " + json.dumps(report, sort_keys=True))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(report, metrics=metrics), indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noisegate" / "__init__.py").is_file():
        print(f"error: no noisegate source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
