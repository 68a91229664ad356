"""Exception types raised across the package.

Everything inherits from NoisegateError so callers can catch broadly.  The
CLI maps these onto exit codes: configuration and data problems exit 2,
budget exhaustion exits 3, and query compilation or evaluation failures
exit 4.
"""

from __future__ import annotations


class NoisegateError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Table data and schema errors.


class MissingFile(NoisegateError):
    """A referenced file does not exist."""


class HeaderMismatch(NoisegateError):
    """A CSV header does not match the declared schema."""


class TypeParseError(NoisegateError):
    """A CSV cell could not be parsed as the declared column type."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaMismatch(NoisegateError):
    """Two tables were expected to share a schema but do not."""


class UnknownColumn(NoisegateError):
    """A named column does not exist in the schema."""


class DuplicateColumn(NoisegateError):
    """A column name would appear twice in one schema."""


class MissingIdColumn(NoisegateError):
    """An operation requires an identifier column that is not declared."""


# ---------------------------------------------------------------------------
# Metric, measure, and distance-map errors.


class DomainMismatch(NoisegateError):
    """Two values do not live in the same domain."""


class MetricMismatch(NoisegateError):
    """An operation received data under the wrong metric."""


class MeasureMismatch(NoisegateError):
    """An operation received a guarantee under the wrong output measure."""


class EmptyList(NoisegateError):
    """A list argument that must be non-empty was empty."""


class LengthMismatch(NoisegateError):
    """A list argument has the wrong number of elements."""


# ---------------------------------------------------------------------------
# Expression language errors.


class ExpressionSyntaxError(NoisegateError):
    """An expression could not be parsed."""


class ExpressionTypeError(NoisegateError):
    """An expression does not type-check against the schema."""


# ---------------------------------------------------------------------------
# Transformation constructor errors.


class IdColumnDropped(NoisegateError):
    """A row mapping failed to carry the identifier column through."""


class KeyTypeMismatch(NoisegateError):
    """Join or group-by key columns disagree on name or type."""


class NonPositiveBound(NoisegateError):
    """A truncation or contribution bound must be a positive integer."""


class BadIndex(NoisegateError):
    """A subset index fell outside the declared range."""


# ---------------------------------------------------------------------------
# Measurement constructor errors.


class NonPositiveEpsilon(NoisegateError):
    """An epsilon parameter must be strictly positive (and, for a quantile,
    within the float64 range)."""


class NonPositiveSigma(NoisegateError):
    """A noise scale parameter must be strictly positive."""


class BadBounds(NoisegateError):
    """Clamping bounds or quantile bins are out of range or otherwise unusable."""


class NonPositiveGranularity(NoisegateError):
    """A fixed-point granularity must be strictly positive."""


class BadQuantile(NoisegateError):
    """A quantile rank must lie in [0, 1]."""


class MissingKeyColumn(NoisegateError):
    """A grouping key column is absent from the data schema."""


# ---------------------------------------------------------------------------
# Budget accounting errors.


class InsufficientBudget(NoisegateError):
    """A requested spend exceeds the remaining budget."""


class GuaranteeTooWeak(NoisegateError):
    """A measurement's privacy loss exceeds the declared spend."""


class EvaluationFailed(NoisegateError):
    """A measurement raised while it ran on the data.

    Its message is fixed, so nothing about the rows gets out through it,
    and its spend was charged, so it is no free retry.
    """


# ---------------------------------------------------------------------------
# Session and query compilation errors.


class EmptyTables(NoisegateError):
    """A session needs at least one source table."""


class TypeCheckError(NoisegateError):
    """A query does not type-check against the session's tables."""


class UnboundedSensitivity(NoisegateError):
    """A query's sensitivity cannot be bounded as written.

    Typically raised when an identifier-based query reaches an aggregation
    without an intervening contribution bound; the fix is an explicit
    truncation step.
    """


class TypeMismatch(NoisegateError):
    """A literal value does not match its declared column type."""


# ---------------------------------------------------------------------------
# CLI errors.


class ConfigError(NoisegateError):
    """Command-line configuration is malformed."""


class ScriptError(NoisegateError):
    """A query script file is malformed."""
