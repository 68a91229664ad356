"""Differentially private analytics over tables.

Two layers.  The core (tabledata, metrics, transformations, measurements)
is a small calculus: transformations carry stability maps, measurements
carry privacy functions, and composition rules push guarantees through
pipelines by construction.  The analytics layer (session) wraps the core
in a budget: a Session owns the private tables, compiles fluent queries
into core pipelines, and deducts exact rational spends.

Typical use:

    from noisegate import (
        AddMaxRows, PrivacyBudget, Schema, Table, build_session,
        keyset_from_tuples, query,
    )

    session = build_session({"people": table}, AddMaxRows(1),
                            PrivacyBudget.pure("1"), seed=7)
    keys = keyset_from_tuples([("zip", ColumnType.TEXT)], [("10001",), ("10002",)])
    q = query("people").filter("age > 40").group_by(keys).average(
        "income", low=0, high=200000)
    result = session.evaluate(q, PrivacyBudget.pure("0.4"))
"""

from .errors import NoisegateError
from .metrics import (
    INF,
    AddRemoveIds,
    BoundedLists,
    GroupedBy,
    PureDP,
    SymmetricDifference,
    TableTuple,
    ZCDP,
)
from .session import (
    AddMaxRows,
    AddRemoveId,
    Average,
    Count,
    Filter,
    FlatMap,
    GroupBy,
    JoinPrivate,
    JoinPublic,
    KeySet,
    Map,
    PrivacyBudget,
    Quantile,
    QueryExpr,
    Session,
    Source,
    Sum,
    TruncateById,
    build_session,
    compile_query,
    keyset_from_tuples,
    parse_budget_amount,
    query,
)
from .tabledata import (
    ColumnType,
    Schema,
    Table,
    TableDomain,
    load_csv,
    write_csv,
)
from .transformations import ExpansionBranch

__version__ = "0.1.0"

__all__ = [
    "AddMaxRows",
    "AddRemoveId",
    "AddRemoveIds",
    "Average",
    "BoundedLists",
    "ColumnType",
    "Count",
    "ExpansionBranch",
    "Filter",
    "FlatMap",
    "GroupBy",
    "GroupedBy",
    "INF",
    "JoinPrivate",
    "JoinPublic",
    "KeySet",
    "Map",
    "NoisegateError",
    "PrivacyBudget",
    "PureDP",
    "Quantile",
    "QueryExpr",
    "Schema",
    "Session",
    "Source",
    "Sum",
    "SymmetricDifference",
    "Table",
    "TableDomain",
    "TableTuple",
    "TruncateById",
    "ZCDP",
    "build_session",
    "compile_query",
    "keyset_from_tuples",
    "load_csv",
    "parse_budget_amount",
    "query",
    "write_csv",
]
