import ast
import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import noisegate
from noisegate import cli, session
from noisegate.cli import main, parse_script
from noisegate.errors import ScriptError, TypeMismatch
from noisegate.session import QUERY_NODES, keyset_from_tuples, query
from noisegate.tabledata import ColumnType, Schema, Table
from noisegate.transformations import ExpansionBranch

SCHEMA_DOC = {
    "tables": {
        "people": {
            "columns": [
                {"name": "id", "type": "int64"},
                {"name": "zip", "type": "text"},
                {"name": "income", "type": "float64"},
            ]
        }
    }
}

PEOPLE_CSV = (
    "id,zip,income\n"
    "0,981,10.0\n"
    "1,982,20.0\n"
    "2,981,30.0\n"
    "3,982,40.0\n"
)

SOURCE = {"kind": "Source", "table": "people"}


def count_query(name, spend):
    return {"name": name, "spend": spend, "expr": {"kind": "Count", "child": SOURCE}}


def script_of(expr):
    return json.dumps({"queries": [{"name": "a", "spend": "1", "expr": expr}]})


def join_on(on):
    table = {"columns": [{"name": "zip", "type": "text"}], "rows": [["981"]]}
    return {"kind": "Count", "child": {"kind": "JoinPublic", "child": SOURCE, "table": table, "on": on}}


def grouped_by(keys):
    return {"kind": "Count", "child": {"kind": "GroupBy", "child": SOURCE, "keys": keys}}


def write_workspace(root, schema=SCHEMA_DOC, csv=PEOPLE_CSV, queries=()):
    (root / "schema.json").write_text(json.dumps(schema))
    data = root / "data"
    data.mkdir(exist_ok=True)
    (data / "people.csv").write_text(csv)
    (root / "script.json").write_text(json.dumps({"queries": list(queries)}))


def run_args(root, command="run", **overrides):
    flags = {
        "schema": str(root / "schema.json"),
        "data": str(root / "data"),
        "script": str(root / "script.json"),
        "unit": "add-max-rows:1",
        "measure": "pure",
        "budget": "inf",
        "seed": "42",
    }
    flags.update(overrides)
    argv = [command]
    for key, value in flags.items():
        if value is not None:
            argv += [f"--{key}", value]
    return argv


# ---------------------------------------------------------------------------
# run


def test_run_json_stdout(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("total", "1000000000")])
    assert main(run_args(tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["query"] == "total"
    assert first["rows"] == [{"count": 4}]
    assert first["remaining_budget"] == "inf"
    assert json.loads(lines[1]) == {"remaining_budget": "inf"}


def test_run_csv_to_out_dir(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("total", "1000000000")])
    out = tmp_path / "results"
    code = main(run_args(tmp_path, format="csv", out=str(out), budget="2000000000"))
    assert code == 0
    assert (out / "total.csv").read_text() == "count\n4\n"
    assert capsys.readouterr().out == "remaining_budget: 1000000000\n"


def test_run_reruns_are_byte_identical(tmp_path, capsys):
    write_workspace(
        tmp_path,
        queries=[count_query("a", "1"), count_query("b", "1/2")],
    )

    def once():
        assert main(run_args(tmp_path, budget="2", seed="777")) == 0
        return capsys.readouterr().out

    assert once() == once()


def test_runs_without_a_seed_print_different_results(tmp_path, capsys):
    # Each run draws its own seed, so two runs share no noise: at a spend
    # of 1/1000 a count's noise repeats with chance about 1/4000, and
    # three counts all repeat with chance about 10^-11.
    queries = [count_query(name, "1/1000") for name in "abc"]
    write_workspace(tmp_path, queries=queries)

    def once():
        assert main(run_args(tmp_path, budget="1", seed=None)) == 0
        return capsys.readouterr().out

    assert once() != once()


def test_a_drawn_seed_is_a_seed_and_is_printed_nowhere(tmp_path, capsys, monkeypatch):
    drawn = 2**63 + 12345
    write_workspace(tmp_path, queries=[count_query("a", "1/1000"), count_query("b", "1/2")])
    monkeypatch.setattr(session.random.SystemRandom, "getrandbits", lambda self, k: drawn)

    def once(seed):
        assert main(run_args(tmp_path, budget="1", seed=seed)) == 0
        return capsys.readouterr()

    unseeded, seeded = once(None), once(str(drawn))
    assert unseeded == seeded
    assert str(drawn) not in unseeded.out + unseeded.err


def test_run_grouped_query(tmp_path, capsys):
    grouped = {
        "name": "by_zip",
        "spend": "1000000000",
        "expr": {
            "kind": "Count",
            "child": {
                "kind": "GroupBy",
                "child": SOURCE,
                "keys": {
                    "columns": [{"name": "zip", "type": "text"}],
                    "rows": [["982"], ["981"], ["999"]],
                },
            },
        },
    }
    write_workspace(tmp_path, queries=[grouped])
    assert main(run_args(tmp_path)) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first["rows"] == [
        {"zip": "982", "count": 2},
        {"zip": "981", "count": 2},
        {"zip": "999", "count": 0},
    ]


def test_run_pipeline_with_inline_public_table(tmp_path, capsys):
    expr = {
        "kind": "Sum",
        "column": "income",
        "low": 0,
        "high": 100,
        "granularity": "1",
        "child": {
            "kind": "Filter",
            "predicate": "region == 'west'",
            "child": {
                "kind": "JoinPublic",
                "on": ["zip"],
                "table": {
                    "columns": [
                        {"name": "zip", "type": "text"},
                        {"name": "region", "type": "text"},
                    ],
                    "rows": [["981", "west"], ["982", "east"]],
                },
                "child": SOURCE,
            },
        },
    }
    write_workspace(
        tmp_path, queries=[{"name": "west_sum", "spend": "1000000000", "expr": expr}]
    )
    assert main(run_args(tmp_path)) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first["rows"] == [{"sum": 40.0}]


def test_run_zcdp(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("total", "100000000000000")])
    assert main(run_args(tmp_path, measure="zcdp", budget="inf")) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first["rows"] == [{"count": 4}]


def test_run_budget_exhaustion_keeps_earlier_results(tmp_path, capsys):
    write_workspace(
        tmp_path,
        queries=[count_query("first", "3/5"), count_query("second", "3/5")],
    )
    out = tmp_path / "results"
    code = main(run_args(tmp_path, budget="1", out=str(out)))
    captured = capsys.readouterr()
    assert code == 3
    assert (out / "first.json").exists()
    assert not (out / "second.json").exists()
    assert "second" in captured.err
    assert captured.out == "remaining_budget: 2/5\n"


def test_run_compile_error_exits_4(tmp_path, capsys):
    bad = {
        "name": "oops",
        "spend": "1/2",
        "expr": {
            "kind": "Count",
            "child": {"kind": "Filter", "predicate": "nope > 1", "child": SOURCE},
        },
    }
    write_workspace(tmp_path, queries=[bad])
    assert main(run_args(tmp_path, budget="1")) == 4
    assert "oops" in capsys.readouterr().err


def test_run_requires_data(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    assert main(run_args(tmp_path, data=None)) == 2


# ---------------------------------------------------------------------------
# budget


def test_budget_accounting(tmp_path, capsys):
    write_workspace(
        tmp_path,
        queries=[count_query("a", "0.4"), count_query("b", "0.3")],
    )
    assert main(run_args(tmp_path, command="budget", budget="1", data=None)) == 0
    assert capsys.readouterr().out == "remaining_budget: 3/10\n"


def test_budget_empty_script(tmp_path, capsys):
    write_workspace(tmp_path)
    assert main(run_args(tmp_path, command="budget", budget="2/3", data=None)) == 0
    assert capsys.readouterr().out == "remaining_budget: 2/3\n"


def test_budget_overspend(tmp_path, capsys):
    write_workspace(
        tmp_path,
        queries=[count_query("a", "0.7"), count_query("b", "0.7")],
    )
    assert main(run_args(tmp_path, command="budget", budget="1", data=None)) == 3
    assert capsys.readouterr().out == "deficit: 2/5\n"


def test_budget_never_reads_rows(tmp_path, capsys):
    queries = [count_query("a", "1/4")]
    write_workspace(tmp_path, queries=queries)
    assert main(run_args(tmp_path, command="budget", budget="1")) == 0
    full = capsys.readouterr().out
    # Rows beyond the header are never parsed: garbage there is invisible.
    write_workspace(tmp_path, csv="id,zip,income\nnot,even,close\n", queries=queries)
    assert main(run_args(tmp_path, command="budget", budget="1")) == 0
    assert capsys.readouterr().out == full


@pytest.mark.parametrize(
    "data", [b"wrong,header\n1,2\n", b"id,zip,income\n0,\xff\xfe,1.0\n"]
)
def test_budget_checks_headers_when_data_given(tmp_path, data, capsys):
    write_workspace(tmp_path)
    (tmp_path / "data" / "people.csv").write_bytes(data)
    assert main(run_args(tmp_path, command="budget", budget="1")) == 2
    assert main(run_args(tmp_path)) == 2
    assert main(["validate", "--schema", str(tmp_path / "schema.json"),
                 "--data", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err.count("error:") == 3


def test_budget_compile_error_exits_4_like_run(tmp_path, capsys):
    bad = {
        "name": "oops",
        "spend": "1/2",
        "expr": {
            "kind": "Count",
            "child": {"kind": "Filter", "predicate": "nope > 1", "child": SOURCE},
        },
    }
    write_workspace(tmp_path, queries=[count_query("fine", "1/4"), bad])
    assert main(run_args(tmp_path, command="budget", budget="1", data=None)) == 4
    assert "oops" in capsys.readouterr().err
    assert main(run_args(tmp_path, budget="1")) == 4


@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_quantile_spend_beyond_float64_exits_4(tmp_path, command, capsys):
    # A per-unit epsilon of 1e400 has no float: the quantile is refused
    # when it compiles, as any other compile error, and charges nothing.
    huge = {
        "name": "huge",
        "spend": "1e400",
        "expr": {"kind": "Quantile", "child": SOURCE, "column": "income",
                 "q": 0.5, "low": 0.0, "high": 50.0, "bins": 5},
    }
    write_workspace(tmp_path, queries=[huge])
    assert main(run_args(tmp_path, command=command)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "huge" in captured.err
    schema = cli.load_schema_file(tmp_path / "schema.json")["people"].schema
    table = cli.load_csv(tmp_path / "data" / "people.csv", schema)
    budget = session.PrivacyBudget.pure("1e401")
    session_ = session.build_session({"people": table}, session.AddMaxRows(1), budget, seed=1)
    with pytest.raises(noisegate.NoisegateError):
        session_.evaluate(
            query("people").quantile("income", 0.5, 0.0, 50.0, 5),
            session.PrivacyBudget.pure("1e400"),
        )
    assert session_.remaining_budget().amount == Fraction(10) ** 401


@pytest.mark.parametrize("command", ["run", "budget"])
def test_quantile_bins_beyond_the_cap_exit_4(tmp_path, command, capsys):
    # Refused when the query compiles, before its midpoints are built:
    # nothing is charged and nothing is printed.
    many = {
        "name": "many",
        "spend": "1",
        "expr": {"kind": "Quantile", "child": SOURCE, "column": "income",
                 "q": 0.5, "low": 0.0, "high": 50.0, "bins": 10**9},
    }
    write_workspace(tmp_path, queries=[many])
    assert main(run_args(tmp_path, command=command, budget="10")) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: query 'many': ") and captured.err.count("\n") == 1
    assert "bins" in captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys):
    write_workspace(tmp_path)
    argv = [
        "validate",
        "--schema", str(tmp_path / "schema.json"),
        "--data", str(tmp_path / "data"),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "ok: people (4 rows)\n"


def test_validate_reports_cell_position(tmp_path, capsys):
    write_workspace(tmp_path, csv="id,zip,income\n0,981,10.0\nx,982,20.0\n")
    argv = [
        "validate",
        "--schema", str(tmp_path / "schema.json"),
        "--data", str(tmp_path / "data"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "people.csv:3:id:" in err


@pytest.mark.parametrize("command", ["validate", "run", "budget"])
def test_an_over_long_field_exits_2(tmp_path, command, capsys):
    # Over the csv module's field limit: in a record for validate and run,
    # in the header for budget, which reads no record.
    long = "z" * 140_000
    if command == "budget":
        csv_text = f"id,zip,{long}\n"
    else:
        csv_text = PEOPLE_CSV + f"4,{long},50.0\n"
    write_workspace(tmp_path, csv=csv_text, queries=[count_query("t", "1")])
    if command == "validate":
        argv = [
            "validate",
            "--schema", str(tmp_path / "schema.json"),
            "--data", str(tmp_path / "data"),
        ]
    else:
        argv = run_args(tmp_path, command)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "field larger than field limit" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "cell", ["0" * 5000 + "1", "1" + "0" * 4300], ids=["small value", "past int64"]
)
def test_an_int_cell_longer_than_int_converts_exits_2(tmp_path, command, cell, capsys):
    csv_text = PEOPLE_CSV + f"{cell},981,50.0\n"
    write_workspace(tmp_path, csv=csv_text, queries=[count_query("t", "1")])
    if command == "validate":
        argv = [
            "validate",
            "--schema", str(tmp_path / "schema.json"),
            "--data", str(tmp_path / "data"),
        ]
    else:
        argv = run_args(tmp_path, command)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "line 6, column 'id'" in captured.err
    assert captured.out == ""


def test_validate_missing_file(tmp_path, capsys):
    write_workspace(tmp_path)
    (tmp_path / "data" / "people.csv").unlink()
    argv = [
        "validate",
        "--schema", str(tmp_path / "schema.json"),
        "--data", str(tmp_path / "data"),
    ]
    assert main(argv) == 2


# ---------------------------------------------------------------------------
# config errors


@pytest.mark.parametrize(
    "overrides",
    [
        {"unit": "add-max-rows:zero"},
        {"unit": "add-max-rows:0"},
        {"unit": "per-user"},
        {"measure": "approx"},
        {"seed": "-1"},
        {"seed": str(2**64)},
        {"budget": "0.1.2"},
        {"unit": "add-remove-id:"},
    ],
)
def test_bad_flags_exit_2(tmp_path, overrides, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    assert main(run_args(tmp_path, **overrides)) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "script_text",
    [
        "{not json",
        json.dumps({"queries": [{"name": "a", "spend": 0.5, "expr": {"kind": "Count", "child": SOURCE}}]}),
        json.dumps({"queries": [{"name": "a", "spend": "inf", "expr": {"kind": "Count", "child": SOURCE}}]}),
        json.dumps({"queries": [count_query("a", "abc")]}),
        json.dumps({"queries": [count_query("a", "-1")]}),
        json.dumps({"queries": [{"name": "bad name!", "spend": "1", "expr": {"kind": "Count", "child": SOURCE}}]}),
        json.dumps({"queries": [count_query("a", "1"), count_query("a", "1")]}),
        json.dumps({"queries": [{"name": "a", "spend": "1", "expr": {"kind": "Explode", "child": SOURCE}}]}),
        json.dumps({"queries": [{"name": "a", "spend": "1"}]}),
        json.dumps({"queries": 5}),
        script_of(join_on(5)),
        script_of(join_on("zip")),
        script_of(grouped_by({"columns": [{"name": "zip", "type": "text"}], "rows": 5})),
        script_of(grouped_by({"columns": 5, "rows": []})),
        script_of({"kind": "Sum", "child": SOURCE, "column": 3, "low": 0, "high": 1}),
        script_of({"kind": "Count", "child": {"kind": "Filter", "child": SOURCE}}),
        # More digits than int() converts: json.loads raises a plain ValueError.
        pytest.param('{"queries": [], "x": 1' + "0" * 4300 + "}", id="long int"),
    ],
)
def test_bad_scripts_exit_2(tmp_path, script_text, capsys):
    write_workspace(tmp_path)
    (tmp_path / "script.json").write_text(script_text)
    assert main(run_args(tmp_path, budget="10")) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spend", ["abc", "-1"])
@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_spend_that_does_not_parse_names_the_script_and_query(tmp_path, capsys, spend, command):
    write_workspace(tmp_path, queries=[count_query("a", spend)])
    assert main(run_args(tmp_path, command, budget="10")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'script.json'}: queries[0]: ")
    assert spend in err and err.count("\n") == 1


def _clamped_sum(granularity):
    return {
        "kind": "Sum", "child": SOURCE, "column": "income",
        "low": 0, "high": 100, "granularity": granularity,
    }


@pytest.mark.parametrize("amount", ["1e1000000000", "1e-1000000000"])
@pytest.mark.parametrize("where", ["budget", "granularity"])
@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_huge_decimal_exponent_exits_2_at_once(tmp_path, capsys, amount, where, command):
    # Fraction would build a power of ten with a billion digits first.
    granularity = amount if where == "granularity" else "1"
    write_workspace(tmp_path, queries=[{"name": "a", "spend": "1", "expr": _clamped_sum(granularity)}])
    budget = amount if where == "budget" else "10"
    start = time.perf_counter()
    assert main(run_args(tmp_path, command, budget=budget)) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1e40", "1e4300", "1e-4300"])
def test_a_granularity_exponent_up_to_4300_is_read_exactly(text):
    doc = {"queries": [{"name": "a", "spend": "1", "expr": _clamped_sum(text)}]}
    assert parse_script(doc)[0].expr.granularity == Fraction(text)


def test_a_budget_of_1e40_is_accepted(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("a", "1")])
    assert main(run_args(tmp_path, "budget", budget="1e40")) == 0
    assert capsys.readouterr().out == f"remaining_budget: {10**40 - 1}\n"


@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_remaining_budget_past_4300_digits_is_printed_exactly(tmp_path, capsys, command):
    # 10^4300 - 1/2 - 1/3 has a numerator of 4,301 digits, past what str()
    # of an int writes.
    write_workspace(tmp_path, queries=[count_query("a", "1/2"), count_query("b", "1/3")])
    args = run_args(tmp_path, command, budget="1e4300")
    if command == "run":
        args += ["--format", "csv"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # Exactly (6 * 10^4300 - 5) / 6.
    assert captured.out.splitlines()[-1] == "remaining_budget: 5" + "9" * 4299 + "5/6"


@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_budget_short_by_4300_digits_is_reported_exactly(tmp_path, capsys, command):
    # A spend of 1/2 against 10^-4300: run's refusal and budget's deficit
    # write amounts whose numerator or denominator passes 4,300 digits.
    write_workspace(tmp_path, queries=[count_query("a", "1/2")])
    assert main(run_args(tmp_path, command, budget="1e-4300")) == 3
    captured = capsys.readouterr()
    tiny = "1/1" + "0" * 4300
    if command == "run":
        assert captured.err == f"error: query 'a': spend 1/2 exceeds remaining budget {tiny}\n"
        assert json.loads(captured.out) == {"remaining_budget": tiny}
    else:
        # 1/2 - 10^-4300, exactly.
        assert captured.out == "deficit: " + "4" + "9" * 4299 + "/1" + "0" * 4300 + "\n"


@pytest.mark.parametrize("terms", [1000, 5000])
@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_predicate_too_deep_to_compile_is_a_compile_error(tmp_path, capsys, terms, command):
    # Like any predicate that does not compile: exit 4, one error line,
    # nothing charged and no traceback.
    predicate = "income > 0 and " + " + ".join(["income"] * terms) + " > 0"
    expr = {"kind": "Count", "child": {"kind": "Filter", "child": SOURCE, "predicate": predicate}}
    write_workspace(tmp_path, queries=[{"name": "a", "spend": "1", "expr": expr}])
    assert main(run_args(tmp_path, command, budget="10")) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: query 'a': ") and err.count("\n") == 1
    assert "nests too deeply" in err


DEMO = Path(__file__).resolve().parents[1] / "demo"


@pytest.mark.parametrize(
    "command, out", [("run", False), ("run", True), ("budget", False)]
)
def test_lone_surrogate_script_string_exits_2(tmp_path, command, out, capsys):
    # "\ud800" is valid JSON and a legal keyset key, but no output format
    # can encode it; the script is refused before any query is charged.
    doc = json.loads((DEMO / "script.json").read_text())
    doc["queries"][1]["expr"]["child"]["keys"]["rows"].append(["\ud800"])
    (tmp_path / "script.json").write_text(json.dumps(doc))
    argv = [
        command,
        "--schema", str(DEMO / "schema.json"),
        "--data", str(DEMO / "data"),
        "--script", str(tmp_path / "script.json"),
        "--unit", "add-max-rows:1",
        "--measure", "pure",
        "--budget", "3",
        "--seed", "2024",
        "--format", "csv",
    ]
    if out:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_script_that_is_not_utf8_exits_2(tmp_path, capsys):
    write_workspace(tmp_path)
    (tmp_path / "script.json").write_bytes(b'{"queries": [], "x": "\xff"}')
    assert main(run_args(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_schema_file_exits_2(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    assert main(run_args(tmp_path, schema=str(tmp_path / "nope.json"))) == 2


@pytest.mark.parametrize("command", ["validate", "run", "budget"])
@pytest.mark.parametrize("schema", ["directory", "not UTF-8", "long int"])
def test_an_unreadable_schema_file_exits_2(tmp_path, command, schema, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    path = tmp_path / "schema.json"
    if schema == "directory":
        path.unlink()
        path.mkdir()
    elif schema == "not UTF-8":
        path.write_bytes(json.dumps(SCHEMA_DOC).encode()[:-1] + b', "x": "\xff"}')
    else:
        path.write_text(json.dumps(SCHEMA_DOC)[:-1] + ', "x": 1' + "0" * 4300 + "}")
    if command == "validate":
        argv = ["validate", "--schema", str(path), "--data", str(tmp_path / "data")]
    else:
        argv = run_args(tmp_path, command)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_out_naming_a_file_exits_2_before_any_query(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert main(run_args(tmp_path, budget="1", out=str(out))) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot create --out directory")
    assert captured.out == ""
    assert out.read_text() == "not a directory"


def _no_evaluate(self, expr, spend):
    raise AssertionError("a query was evaluated")


def _command_args(root, command):
    if command == "validate":
        return ["validate", "--schema", str(root / "schema.json"), "--data", str(root / "data")]
    return run_args(root, command)


def _refused_before_any_query(captured):
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_out_target_that_is_a_directory_exits_2_before_any_query(
    tmp_path, fmt, capsys, monkeypatch
):
    write_workspace(tmp_path, queries=[count_query("a", "1"), count_query("b", "1")])
    out = tmp_path / "out"
    (out / f"b.{fmt}").mkdir(parents=True)
    monkeypatch.setattr(session.Session, "evaluate", _no_evaluate)
    assert main(run_args(tmp_path, budget="2", out=str(out), format=fmt)) == 2
    captured = capsys.readouterr()
    _refused_before_any_query(captured)
    assert "query 'b'" in captured.err
    assert not (out / f"a.{fmt}").exists()


def test_a_result_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    write_workspace(tmp_path, queries=[count_query("a", "1")])
    out = tmp_path / "out"
    evaluate = session.Session.evaluate

    def evaluate_then_block_the_target(self, expr, spend):
        (out / "a.json").mkdir()  # after run checked the target
        return evaluate(self, expr, spend)

    monkeypatch.setattr(session.Session, "evaluate", evaluate_then_block_the_target)
    assert main(run_args(tmp_path, budget="1", out=str(out))) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: query 'a': cannot write its result")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "run", "budget"])
def test_a_schema_file_id_column_exits_2(tmp_path, command, capsys, monkeypatch):
    # The id column comes only from --unit add-remove-id:<column>.
    schema = json.loads(json.dumps(SCHEMA_DOC))
    schema["tables"]["people"]["id_column"] = "zip"
    write_workspace(tmp_path, schema=schema, queries=[count_query("t", "1")])
    monkeypatch.setattr(session.Session, "evaluate", _no_evaluate)
    assert main(_command_args(tmp_path, command)) == 2
    captured = capsys.readouterr()
    _refused_before_any_query(captured)
    assert "'id_column'" in captured.err


DEEP_ARRAY = "[" * 100000 + "]" * 100000


def _filter_nest_script(depth):
    # Spelled as text: json.dumps itself recurses once per level.
    filters = '{"kind": "Filter", "predicate": "id > 0", "child": ' * depth
    expr = '{"kind": "Count", "child": ' + filters + json.dumps(SOURCE) + "}" * (depth + 1)
    return '{"queries": [{"name": "a", "spend": "1", "expr": ' + expr + "}]}"


@pytest.mark.parametrize("command", ["validate", "run", "budget"])
def test_a_deeply_nested_schema_file_exits_2(tmp_path, command, capsys, monkeypatch):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    (tmp_path / "schema.json").write_text(DEEP_ARRAY)
    monkeypatch.setattr(session.Session, "evaluate", _no_evaluate)
    assert main(_command_args(tmp_path, command)) == 2
    _refused_before_any_query(capsys.readouterr())


@pytest.mark.parametrize("command", ["run", "budget"])
@pytest.mark.parametrize(
    "script_text",
    [
        pytest.param(DEEP_ARRAY, id="deep array"),
        pytest.param(_filter_nest_script(600), id="600 filters"),
        pytest.param(_filter_nest_script(2000), id="2000 filters"),
    ],
)
def test_a_deeply_nested_script_exits_2(tmp_path, command, script_text, capsys, monkeypatch):
    write_workspace(tmp_path)
    (tmp_path / "script.json").write_text(script_text)
    monkeypatch.setattr(session.Session, "evaluate", _no_evaluate)
    assert main(run_args(tmp_path, command, budget="1")) == 2
    _refused_before_any_query(capsys.readouterr())


@pytest.mark.parametrize("command", ["validate", "run", "budget"])
def test_a_schema_file_that_repeats_a_table_exits_2(tmp_path, command, capsys, monkeypatch):
    # json.loads would keep the last "people" silently.
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    people = json.dumps(SCHEMA_DOC["tables"]["people"])
    (tmp_path / "schema.json").write_text(
        '{"tables": {"people": ' + people + ', "people": ' + people + "}}"
    )
    monkeypatch.setattr(session.Session, "evaluate", _no_evaluate)
    assert main(_command_args(tmp_path, command)) == 2
    captured = capsys.readouterr()
    _refused_before_any_query(captured)
    assert "repeats the key 'people'" in captured.err


@pytest.mark.parametrize("command", ["run", "budget"])
def test_a_script_object_that_repeats_a_key_exits_2(tmp_path, command, capsys, monkeypatch):
    # A map of {"x": "id", "x": "income"} would decode as x = income alone.
    write_workspace(tmp_path)
    mapped = (
        '{"kind": "Map", "child": ' + json.dumps(SOURCE) + ', "columns": '
        '{"x": "id", "x": "income"}, "schema": '
        '{"columns": [{"name": "x", "type": "float64"}]}}'
    )
    (tmp_path / "script.json").write_text(
        '{"queries": [{"name": "a", "spend": "1", "expr": '
        '{"kind": "Sum", "child": ' + mapped + ', "column": "x", "low": 0, "high": 1}}]}'
    )
    monkeypatch.setattr(session.Session, "evaluate", _no_evaluate)
    assert main(run_args(tmp_path, command, budget="1")) == 2
    captured = capsys.readouterr()
    _refused_before_any_query(captured)
    assert "repeats the key 'x'" in captured.err


def test_a_query_name_may_not_end_in_a_newline():
    with pytest.raises(ScriptError, match="'name' must match"):
        parse_script({"queries": [count_query("a\n", "1")]})


def test_missing_csv_exits_2(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    (tmp_path / "data" / "people.csv").unlink()
    assert main(run_args(tmp_path)) == 2


# ---------------------------------------------------------------------------
# the script decoder


_ZIP = Schema.of(("zip", ColumnType.TEXT))
_ZIP_DOC = {"columns": [{"name": "zip", "type": "text"}]}
_ZIP_ROWS_DOC = {**_ZIP_DOC, "rows": [["981"]]}

# Each node field annotation -> a value it accepts, as a script spells it
# and as Python does, and the values it refuses: text for a number, a
# float for an int, a bool, a bare string for a name list, a dict for a
# Table, KeySet, Schema or branch, and a list for a string.
_FIELD_VALUES = {
    "str": (("zip", "zip"), [["zip"], 5, True]),
    "int": ((3, 3), ["3", 3.0, True]),
    "float": ((0.5, 0.5), ["0.5", True]),
    "Fraction": (("0.1", "0.1"), ["abc", [1], True]),
    "QueryExpr": ((SOURCE, session.Source("people")), [{"table": "people"}, True]),
    "Schema": ((_ZIP_DOC, _ZIP), [{}, True]),
    "Table": ((_ZIP_ROWS_DOC, Table.of(_ZIP, [("981",)])), [{}, True]),
    "KeySet": ((_ZIP_ROWS_DOC, keyset_from_tuples(_ZIP.columns, [("981",)])), [{}, True]),
    "tuple[str, ...]": ((["zip"], ["zip"]), ["zip", [5], True]),
    "tuple[tuple[str, str], ...]": (({"zip": "zip"}, {"zip": "zip"}), [{"zip": 5}, "zip", True]),
    "tuple[tf.ExpansionBranch, ...]": (
        ([{"columns": {"zip": "zip"}}], [ExpansionBranch({"zip": "zip"})]),
        [{"columns": {"zip": "zip"}}, [{"columns": {"zip": 5}}], True],
    ),
}


@pytest.mark.parametrize(
    "kind, field, wrong",
    [
        pytest.param(kind, field, wrong, id=f"{kind}.{field}-{i}")
        for kind, node in sorted(QUERY_NODES.items())
        for field, annotation in node._record_types.items()
        for i, wrong in enumerate(_FIELD_VALUES[annotation][1])
    ],
)
def test_a_wrongly_typed_field_is_refused_in_python_and_in_a_script(
    tmp_path, capsys, kind, field, wrong
):
    node = QUERY_NODES[kind]
    types = node._record_types
    args = {name: _FIELD_VALUES[types[name]][0][1] for name in types}
    with pytest.raises(TypeMismatch) as exc:
        node(**{**args, field: wrong})
    assert str(exc.value).startswith(f"{kind}.{field}")
    doc = {name: _FIELD_VALUES[types[name]][0][0] for name in types}
    expr = {"kind": kind, **doc, field: wrong}
    write_workspace(tmp_path, queries=[{"name": "q", "spend": "1", "expr": expr}])
    assert main(run_args(tmp_path, "budget", budget="10")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"queries[0]/{kind}.{field}" in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1.5], 5], "expected an array"),
        ([[1.5], [2], [2**1024]], f"{2**1024} is outside the float64 range"),
    ],
)
def test_a_bad_keyset_row_is_named_by_its_index(rows, message):
    keys = {"columns": [{"name": "income", "type": "float64"}], "rows": rows}
    with pytest.raises(ScriptError) as exc:
        parse_script(json.loads(script_of(grouped_by(keys))))
    where = f"queries[0]/Count.child/GroupBy.keys.rows[{len(rows) - 1}]"
    assert str(exc.value) == f"{where}: {message}"


def test_demo_script_decodes_to_builder_queries():
    demo = Path(__file__).resolve().parents[1] / "demo"
    doc = json.loads((demo / "script.json").read_text())
    zips = keyset_from_tuples(
        [("zip", ColumnType.TEXT)], [("98101",), ("98102",), ("98103",)]
    )
    expected = [
        ("population", Fraction(1, 2), query("people").count()),
        (
            "seniors_by_zip",
            Fraction(1),
            query("people").filter("age > 40").group_by(zips).count(),
        ),
        (
            "median_income",
            Fraction(1, 2),
            query("people").quantile("income", 0.5, 0.0, 200000.0, 50),
        ),
    ]
    assert [(q.name, q.spend, q.expr) for q in parse_script(doc)] == expected


def test_cli_import_leaves_mpmath_out():
    src = Path(noisegate.__file__).resolve().parents[1]
    code = "import sys, noisegate.cli; sys.exit('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_argparse_errors_return_codes(capsys):
    assert main(["run"]) == 2
    assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# flags, formats and decoding paths


def test_run_under_add_remove_id(tmp_path, capsys):
    schema = {"tables": {"people": {"columns": [
        {"name": "user_id", "type": "int64"},
        {"name": "income", "type": "float64"},
    ]}}}
    csv = "user_id,income\n0,10.0\n0,20.0\n1,30.0\n"
    cut = {"kind": "TruncateById", "child": SOURCE, "bound": 1}
    truncated = {"name": "t", "spend": "1", "expr": {"kind": "Count", "child": cut}}
    write_workspace(tmp_path, schema=schema, csv=csv, queries=[truncated])
    assert main(run_args(tmp_path, unit="add-remove-id:user_id")) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["query"] == "t"
    write_workspace(tmp_path, schema=schema, csv=csv, queries=[count_query("u", "1")])
    assert main(run_args(tmp_path, unit="add-remove-id:user_id")) == 4
    assert "'u'" in capsys.readouterr().err


def test_run_csv_to_stdout_prints_query_blocks(tmp_path, capsys):
    write_workspace(
        tmp_path, queries=[count_query("a", "1000000000"), count_query("b", "1000000000")]
    )
    assert main(run_args(tmp_path, format="csv")) == 0
    assert capsys.readouterr().out == (
        "query: a\ncount\n4\n\nquery: b\ncount\n4\n\nremaining_budget: inf\n"
    )


def test_validate_missing_schema_file_exits_2(tmp_path, capsys):
    write_workspace(tmp_path)
    argv = [
        "validate",
        "--schema", str(tmp_path / "nope.json"),
        "--data", str(tmp_path / "data"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# Nothing but the noised results reaches the output.


def test_a_failing_evaluation_prints_no_row_value(tmp_path, capsys, monkeypatch):
    real_make_count = session.make_count

    def leaky_count(domain, noise):
        def leaky(table, rng):
            raise ValueError(f"secret {table.rows}")

        return dataclasses.replace(real_make_count(domain, noise), _eval=leaky)

    monkeypatch.setattr(session, "make_count", leaky_count)
    write_workspace(tmp_path, queries=[count_query("leak", "1/2")])
    assert main(run_args(tmp_path, budget="1")) == 4
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert "'leak'" in captured.err
    for cell in ("secret", "981", "982", "10.0", "40.0"):
        assert cell not in printed


def test_no_module_reads_the_clock():
    # The exact samplers take longer for larger noise, so a timing would
    # tell about the noise; timings belong to the operator's tracer only.
    package = Path(noisegate.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("time", "datetime"), path.name


def test_no_module_generates_code_at_run_time():
    # Expressions compile to closures over the checked syntax tree; no
    # source text is built, so no literal can be spliced into code.
    # Method calls such as re.compile do not count.
    package = Path(noisegate.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), (
                    f"{path.name}:{node.lineno}"
                )


def test_two_runs_with_one_seed_print_the_same_bytes(tmp_path):
    keys = {"columns": [{"name": "zip", "type": "text"}], "rows": [["981"], ["983"]]}
    grouped = {"name": "by_zip", "spend": "1/2", "expr": grouped_by(keys)}
    summed = {
        "name": "income",
        "spend": "1/4",
        "expr": {"kind": "Sum", "child": SOURCE, "column": "income", "low": 0, "high": 50},
    }
    queries = [count_query("total", "1/4"), grouped, summed, count_query("over", "1")]
    write_workspace(tmp_path, queries=queries)
    src = Path(noisegate.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "noisegate.cli", *run_args(tmp_path, budget="1", seed="31")]
    first, second = (subprocess.run(argv, env=env, capture_output=True) for _ in range(2))
    assert first.returncode == 3  # the last query is refused, so stderr says so
    assert first.stderr and first.stdout
    assert (first.returncode, first.stdout, first.stderr) == (
        second.returncode, second.stdout, second.stderr
    )


# Values a hostile script may hold where the demo script has any value:
# wrong types, empty and odd text, numbers at and past every limit, and
# nested containers.
HOSTILE_ATOMS = [
    None, True, False, 0, -1, 1, 2**63, -(2**63) - 1, 2**64, 10**400, 0.5, -0.0, 1e308,
    -1e308, 5e-324, float("nan"), float("inf"), float("-inf"),
    "", " ", "0", "-1", "1/0", "-1/2", "3/2", "2", "inf", "nan", "1e999", "x" * 5000, "\ud800",
    "\x00", "age >", "age > 40 or", "income / 0", "people", "nobody", "Source", "Count",
    "Sum", "GroupBy", [], [[]], {}, {"kind": "Source"}, {"kind": "Count"},
    {"kind": "Source", "table": "people"}, [["98101"], ["98101"]], [0] * 3,
]
HOSTILE_KEYS = ["kind", "child", "table", "name", "spend", "expr", "queries", "keys", "rows",
                "columns", "column", "low", "high", "q", "bins", "extra", "", "__class__"]


def _mutated(doc, rng):
    """A copy of a JSON document with 1 to 3 edits: a value swapped for a
    hostile atom, a key or a list item deleted, or a key added."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        places, dicts, stack = [], [doc], [doc]
        while stack:
            node = stack.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                places.append((node, key))
                if isinstance(value, (dict, list)):
                    stack.append(value)
                    if isinstance(value, dict):
                        dicts.append(value)
        edit = rng.randrange(3) if places else 2
        atom = copy.deepcopy(rng.choice(HOSTILE_ATOMS))
        if edit == 2:
            rng.choice(dicts)[rng.choice(HOSTILE_KEYS)] = atom
            continue
        node, key = rng.choice(places)
        if edit == 0:
            node[key] = atom
        else:
            del node[key]
    return doc


@pytest.mark.parametrize("measure", ["pure", "zcdp"])
def test_a_mutated_demo_script_exits_with_one_error_line_and_no_traceback(
    tmp_path, capsys, measure
):
    # A seeded fuzz of the demo script: every mutant ends in a known exit,
    # and a failure says why in exactly one line.  The budget is the
    # demo's total spend or less, so the last query can run out of it.
    demo = json.loads((DEMO / "script.json").read_text())
    script = tmp_path / "script.json"
    argv = [
        "run", "--schema", str(DEMO / "schema.json"), "--data", str(DEMO / "data"),
        "--script", str(script), "--unit", "add-max-rows:1", "--measure", measure,
        "--seed", "1", "--budget",
    ]
    rng = random.Random(f"mutated-demo-{measure}")
    exits = Counter()
    for _ in range(300):
        script.write_text(json.dumps(_mutated(demo, rng)), encoding="utf-8")
        code = main(argv + [rng.choice(["2", "3/2"])])
        out, err = capsys.readouterr()
        exits[code] += 1
        assert code in (0, 2, 3, 4)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == (code != 0), err
        assert "Traceback" not in out + err
    # The mutants reach a full run, a refused script and a refused query;
    # the pure ones also run out of budget.
    assert {0, 2, 4} | ({3} if measure == "pure" else set()) <= set(exits), exits
