"""Command-line front end.

Runs JSON query scripts against CSV tables under a fixed privacy budget.
Three subcommands:

  run       build a session, evaluate every script query in order, write
            result tables, print the remaining budget
  budget    dry-run a run without data: parse the script, compile every
            query against the schema, sum the spends, and report what
            would remain; row data is never read
  validate  check CSV files against the schema, no privacy machinery

Exit codes are the contract: 0 success, 2 for config/parse/type errors
raised before any query runs and for a result that cannot be written, 3
when the budget runs out (results written so far are kept), 4 for query
compile errors.  Messages go to stderr, results to stdout or to --out.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import MISSING
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import (
    ConfigError,
    InsufficientBudget,
    NoisegateError,
    ScriptError,
    TypeParseError,
)
from .metrics import INF, Measure, PureDP, ZCDP, format_amount
from .records import Record, record_fields
from .session import (
    QUERY_NODES,
    AddMaxRows,
    AddRemoveId,
    KeySet,
    PrivacyBudget,
    PrivacyUnit,
    QueryExpr,
    _session_domains,
    build_session,
    compile_query,
    parse_budget_amount,
)
from .tabledata import (
    ColumnType,
    Schema,
    Table,
    _csv_records,
    _read_json,
    csv_text,
    expect,
    load_csv,
    load_schema_file,
    schema_from_json,
)
from .transformations import ExpansionBranch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_COMPILE = 4

_NAME_RE = re.compile(r"[A-Za-z0-9_\-]+")


# ---------------------------------------------------------------------------
# Config.


class RunConfig(Record):
    schema_path: Path
    data_dir: Path | None
    script_path: Path
    unit: PrivacyUnit
    measure: Measure
    budget: Any
    seed: int | None
    out: Path | None
    format: str


def _parse_unit(text: str) -> PrivacyUnit:
    unit, _, rest = text.partition(":")
    if unit == "add-max-rows":
        try:
            k = int(rest)
        except ValueError:
            raise ConfigError(f"--unit add-max-rows needs an integer, got {rest!r}")
        return AddMaxRows(k)
    if unit == "add-remove-id":
        if not rest:
            raise ConfigError("--unit add-remove-id needs a column name")
        return AddRemoveId(rest)
    raise ConfigError(
        f"unknown unit {text!r}; use add-max-rows:<k> or add-remove-id:<column>"
    )


def _parse_measure(text: str) -> Measure:
    if text == "pure":
        return PureDP()
    if text == "zcdp":
        return ZCDP()
    raise ConfigError(f"unknown measure {text!r}; use pure or zcdp")


def _parse_seed(value: int | None) -> int | None:
    if value is not None and not 0 <= value < 2**64:
        raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {value}")
    return value


# ---------------------------------------------------------------------------
# Script parsing.  Everything here rejects bad input before a Session
# exists; no expression is compiled and no table is read.


class ScriptQuery(Record):
    name: str
    spend: Fraction
    expr: QueryExpr


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ScriptError(f"{where}: missing field {key!r}")
    return obj[key]


def _array(value, where: str) -> Sequence:
    return expect(value, (list, tuple), ScriptError, where, "an array")


def _decode_float(value: int, where: str) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise ScriptError(f"{where}: {value} is outside the float64 range") from exc


def _decode_rows(value, where: str) -> tuple[Schema, list[tuple]]:
    """A schema object with a 'rows' array, as inline tables and keysets are."""
    schema = schema_from_json(value)
    floats = {i for i, (_, ctype) in enumerate(schema.columns) if ctype is ColumnType.FLOAT64}
    rows = []
    for r, row in enumerate(_array(_require(value, "rows", where), f"{where}.rows")):
        # The location is formatted only for a row or cell that may fail:
        # keysets run to thousands of rows.
        if not isinstance(row, (list, tuple)):
            _array(row, f"{where}.rows[{r}]")  # raises
        if floats:
            # JSON has one number type: whole numbers widen into float64 cells.
            row = [
                _decode_float(cell, f"{where}.rows[{r}]")
                if i in floats and type(cell) is int else cell
                for i, cell in enumerate(row)
            ]
        rows.append(tuple(row))
    return schema, rows


def _decode_object(cls: type, obj, where: str, prefix: str):
    """Build a record (a query node or a flat-map branch) from a JSON
    object, decoding a field by _DECODERS[its annotation], if any; a field
    with a default may be left out, and the record's refusal follows `prefix`."""
    expect(obj, Mapping, ScriptError, where, "an object")
    args = {}
    for name, default in record_fields(cls).items():
        if name in obj:
            decode = _DECODERS.get(cls._record_types[name], lambda value, where: value)
            try:
                args[name] = decode(obj[name], f"{where}.{name}")
            except ScriptError:
                raise
            except NoisegateError as exc:
                raise ScriptError(f"{where}.{name}: {exc}") from exc
        elif default is MISSING:
            raise ScriptError(f"{where}: missing field {name!r}")
    try:
        return cls(**args)
    except NoisegateError as exc:
        raise ScriptError(f"{prefix}{exc}") from exc


def _decode_expr(obj, where: str) -> QueryExpr:
    kind = obj.get("kind") if isinstance(obj, Mapping) else None
    if not isinstance(kind, str) or kind not in QUERY_NODES:
        raise ScriptError(f"{where}: expected a query node object with a known 'kind'")
    return _decode_object(QUERY_NODES[kind], obj, f"{where}/{kind}", f"{where}/")


# The decoders of JSON's spellings of objects and floats, by annotation;
# nothing here is specific to one kind of node.
_DECODERS = {
    "QueryExpr": _decode_expr,
    "float": lambda value, where: _decode_float(value, where) if type(value) is int else value,
    "Schema": lambda value, where: schema_from_json(value),
    "Table": lambda value, where: Table.of(*_decode_rows(value, where)),
    "KeySet": lambda value, where: KeySet(*_decode_rows(value, where)),
    "tuple[tf.ExpansionBranch, ...]": lambda value, where: tuple(
        _decode_object(ExpansionBranch, branch, f"{where}[{i}]", f"{where}[{i}]: ")
        for i, branch in enumerate(_array(value, where))
    ),
}


def parse_script(doc) -> list[ScriptQuery]:
    """Parse a script document {"queries": [{name, spend, expr}, ...]}."""
    if not isinstance(doc, Mapping) or "queries" not in doc:
        raise ScriptError("a script is an object with a 'queries' array")
    queries = []
    seen = set()
    for i, entry in enumerate(_array(doc["queries"], "queries")):
        where = f"queries[{i}]"
        expect(entry, Mapping, ScriptError, where, "an object")
        name = _require(entry, "name", where)
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise ScriptError(
                f"{where}: 'name' must match [A-Za-z0-9_-]+, got {name!r}"
            )
        if name in seen:
            raise ScriptError(f"{where}: duplicate query name {name!r}")
        seen.add(name)
        spend_text = _require(entry, "spend", where)
        expect(spend_text, str, ScriptError, where, "'spend' as a string, parsed exactly")
        try:
            spend = parse_budget_amount(spend_text)
        except NoisegateError as exc:
            raise ScriptError(f"{where}: 'spend': {exc}") from exc
        if spend == INF:
            raise ScriptError(f"{where}: spends must be finite")
        expr = _decode_expr(_require(entry, "expr", where), where)
        queries.append(ScriptQuery(name, spend, expr))
    return queries


def _load_script(path: Path) -> list[ScriptQuery]:
    doc = _read_json(path, ScriptError)
    try:
        return parse_script(doc)
    except ScriptError as exc:
        raise ScriptError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ScriptError(f"{path}: the script nests too deeply to decode") from None


# ---------------------------------------------------------------------------
# Output.


def _row_objects(table: Table) -> list[dict]:
    return [dict(zip(table.schema.names, row)) for row in table.rows]


class _Emitter:
    """Writes result tables to stdout or one file per query under --out."""

    def __init__(self, out: Path | None, fmt: str):
        self.out = out
        self.fmt = fmt

    def target(self, name: str) -> Path:
        return self.out / f"{name}.{self.fmt}"

    def emit(self, name: str, table: Table, remaining) -> None:
        if self.fmt == "json":
            payload = {
                "query": name,
                "rows": _row_objects(table),
                "remaining_budget": format_amount(remaining),
            }
            text = json.dumps(payload) + "\n"
        else:
            text = csv_text(table)
        if self.out is None:
            if self.fmt == "csv":
                sys.stdout.write(f"query: {name}\n{text}\n")
            else:
                sys.stdout.write(text)
        else:
            self.target(name).write_text(text, encoding="utf-8")

    def finish(self, remaining) -> None:
        amount = format_amount(remaining)
        if self.fmt == "json" and self.out is None:
            sys.stdout.write(json.dumps({"remaining_budget": amount}) + "\n")
        else:
            sys.stdout.write(f"remaining_budget: {amount}\n")


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands.


def cmd_run(cfg: RunConfig) -> int:
    emitter = _Emitter(cfg.out, cfg.format)
    try:
        domains = load_schema_file(cfg.schema_path)
        script = _load_script(cfg.script_path)
        if cfg.data_dir is None:
            raise ConfigError("run needs --data")
        tables = {
            name: load_csv(cfg.data_dir / f"{name}.csv", domains[name].schema)
            for name in sorted(domains)
        }
        session = build_session(
            tables, cfg.unit, PrivacyBudget(cfg.measure, cfg.budget), cfg.seed
        )
        if cfg.out is not None:
            try:
                cfg.out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create --out directory: {exc}") from exc
            for item in script:
                target = emitter.target(item.name)
                if target.exists() and not target.is_file():
                    raise ConfigError(f"query {item.name!r}: {target} is not a regular file")
    except NoisegateError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    for item in script:
        try:
            result = session.evaluate(item.expr, PrivacyBudget(cfg.measure, item.spend))
        except InsufficientBudget as exc:
            _err(f"query {item.name!r}: {exc}")
            emitter.finish(session.remaining_budget().amount)
            return EXIT_BUDGET
        except NoisegateError as exc:
            _err(f"query {item.name!r}: {exc}")
            return EXIT_COMPILE
        try:
            emitter.emit(item.name, result, session.remaining_budget().amount)
        except OSError as exc:
            _err(f"query {item.name!r}: cannot write its result: {exc}")
            return EXIT_CONFIG
    emitter.finish(session.remaining_budget().amount)
    return EXIT_OK


def cmd_budget(cfg: RunConfig) -> int:
    try:
        schemas = {name: d.schema for name, d in load_schema_file(cfg.schema_path).items()}
        script = _load_script(cfg.script_path)
        if cfg.data_dir is not None:
            for name, schema in sorted(schemas.items()):
                with _csv_records(cfg.data_dir / f"{name}.csv", schema):
                    pass  # opening checks the header; no row is read
        domains = _session_domains(schemas, cfg.unit)
    except NoisegateError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    total = cfg.budget
    spent = Fraction(0)
    for item in script:
        # Compile as run would, up to the first query run could not pay for.
        try:
            compile_query(item.expr, domains, cfg.unit, cfg.measure, item.spend)
        except NoisegateError as exc:
            _err(f"query {item.name!r}: {exc}")
            return EXIT_COMPILE
        spent += item.spend
        if total != INF and spent > total:
            deficit = sum((q.spend for q in script), Fraction(0)) - total
            sys.stdout.write(f"deficit: {format_amount(deficit)}\n")
            return EXIT_BUDGET
    remaining = INF if total == INF else total - spent
    sys.stdout.write(f"remaining_budget: {format_amount(remaining)}\n")
    return EXIT_OK


def cmd_validate(schema_path: Path, data_dir: Path) -> int:
    try:
        domains = load_schema_file(schema_path)
    except NoisegateError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    failures = 0
    for name in sorted(domains):
        path = data_dir / f"{name}.csv"
        try:
            table = load_csv(path, domains[name].schema)
        except TypeParseError as exc:
            _err(f"{path}:{exc.line}:{exc.column}: {exc}")
            failures += 1
        except NoisegateError as exc:
            _err(f"{path}: {exc}")
            failures += 1
        else:
            sys.stdout.write(f"ok: {name} ({len(table)} rows)\n")
    return EXIT_CONFIG if failures else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", required=True, help="schema JSON file")
    parser.add_argument("--data", help="directory holding <table>.csv files")
    parser.add_argument("--script", required=True, help="query script JSON file")
    parser.add_argument(
        "--unit", required=True, help="add-max-rows:<k> or add-remove-id:<column>"
    )
    parser.add_argument("--measure", required=True, help="pure or zcdp")
    parser.add_argument(
        "--budget", required=True, help="exact amount: decimal, a/b, or inf"
    )
    parser.add_argument("--seed", type=int, help="64-bit unsigned seed, only to replay a run")
    parser.add_argument("--out", help="output directory (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="json", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisegate",
        description="Run differentially private query scripts over CSV tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="evaluate a query script")
    _add_run_flags(run_p)
    budget_p = sub.add_parser("budget", help="dry-run the budget accounting")
    _add_run_flags(budget_p)
    val_p = sub.add_parser("validate", help="check CSV files against the schema")
    val_p.add_argument("--schema", required=True, help="schema JSON file")
    val_p.add_argument("--data", required=True, help="directory holding CSV files")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        schema_path=Path(args.schema).resolve(),
        data_dir=Path(args.data).resolve() if args.data else None,
        script_path=Path(args.script).resolve(),
        unit=_parse_unit(args.unit),
        measure=_parse_measure(args.measure),
        budget=parse_budget_amount(args.budget),
        seed=_parse_seed(args.seed),
        out=Path(args.out).resolve() if args.out else None,
        format=args.format,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    if args.command == "validate":
        return cmd_validate(Path(args.schema).resolve(), Path(args.data).resolve())
    try:
        cfg = _config_from_args(args)
    except NoisegateError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    if args.command == "run":
        return cmd_run(cfg)
    return cmd_budget(cfg)


if __name__ == "__main__":
    sys.exit(main())
