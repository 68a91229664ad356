import dataclasses
import json
import os
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import noisegate
from noisegate import cli
from noisegate.cli import main, parse_script
from noisegate.session import QUERY_NODES, keyset_from_tuples, query
from noisegate.tabledata import ColumnType

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
    ],
)
def test_bad_scripts_exit_2(tmp_path, script_text, capsys):
    write_workspace(tmp_path)
    (tmp_path / "script.json").write_text(script_text)
    assert main(run_args(tmp_path, budget="10")) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_missing_csv_exits_2(tmp_path, capsys):
    write_workspace(tmp_path, queries=[count_query("t", "1")])
    (tmp_path / "data" / "people.csv").unlink()
    assert main(run_args(tmp_path)) == 2


# ---------------------------------------------------------------------------
# the script decoder


def test_every_node_field_type_has_a_decoder():
    for node in QUERY_NODES.values():
        hints = typing.get_type_hints(node)
        for field in dataclasses.fields(node):
            assert hints[field.name] in cli._DECODERS, (node.__name__, field.name)


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
