"""Measurements: randomized computations with declared privacy loss.

A Measurement pairs an evaluation function with a privacy function, a
monotone map from input distance to privacy loss under its output
measure.  Aggregations add exact integer noise; composition operators
combine measurements while combining their privacy functions; and the
Queryable enforces a privacy budget across an adaptive sequence of asks.

All noise is integer-domain and exactly distributed (see noise.py).
Real-valued aggregations discretize to a fixed-point grid first, so their
sensitivities are integers and their accounting stays rational.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence, Union

from .errors import (
    BadBounds,
    BadQuantile,
    DomainMismatch,
    EmptyList,
    GuaranteeTooWeak,
    InsufficientBudget,
    LengthMismatch,
    MeasureMismatch,
    MetricMismatch,
    NonLinearPrivacyFunction,
    NonPositiveEpsilon,
    NonPositiveGranularity,
    NonPositiveSigma,
    SchemaMismatch,
    UnknownColumn,
)
from .metrics import (
    INF,
    BoundedLists,
    Distance,
    DistanceMap,
    GroupedBy,
    Measure,
    Metric,
    PureDP,
    SymmetricDifference,
    ZCDP,
    general_map,
    linear_map,
    max_slope_map,
    sum_maps,
)
from .noise import sample_discrete_gaussian, sample_two_sided_geometric
from .rng import RngStream
from .tabledata import (
    ColumnType,
    Schema,
    Table,
    TableDomain,
    TableListDomain,
    check_key_columns,
    result_cell,
    split_by_key,
)

# Noise rates this extreme short-circuit to zero noise.  A two-sided
# geometric at rate 1e9 puts all but exp(-1e9) of its mass on zero, and the
# matching Gaussian threshold keeps infinite-budget golden tests exact
# without grinding through astronomically lopsided rejection loops.
ZERO_NOISE_RATE = Fraction(10**9)
ZERO_NOISE_SIGMA_SQUARED = Fraction(1, 10**18)


@dataclass(frozen=True)
class Measurement:
    """A randomized computation with a declared privacy function."""

    input_domain: Any
    input_metric: Metric
    output_measure: Measure
    privacy_function: DistanceMap
    _eval: Callable[[Any, RngStream], Any]

    def eval(self, data, rng: RngStream):
        return self._eval(data, rng)


# ---------------------------------------------------------------------------
# Noise primitives.


@dataclass(frozen=True)
class GeometricMechanism:
    """Adds two-sided geometric noise with P(k) proportional to
    exp(-|k| epsilon_unit / sensitivity).

    For integer statistics that move by at most `sensitivity` when the
    input moves by one unit of distance, the privacy function is
    linear(epsilon_unit) under PureDP.
    """

    epsilon_unit: Fraction
    sensitivity: int

    @property
    def rate(self) -> Fraction:
        return self.epsilon_unit / self.sensitivity

    @property
    def privacy_function(self) -> DistanceMap:
        return linear_map(self.epsilon_unit)

    def add_noise(self, value: int, rng: RngStream) -> int:
        if self.rate >= ZERO_NOISE_RATE:
            return value
        return value + sample_two_sided_geometric(self.rate, rng.generator())

    def pmf(self, noise: int) -> float:
        """The exact noise pmf, for inspection and tests."""
        if self.rate >= ZERO_NOISE_RATE:
            return 1.0 if noise == 0 else 0.0
        alpha = math.exp(-float(self.rate))
        return (1 - alpha) / (1 + alpha) * alpha ** abs(noise)


@dataclass(frozen=True)
class GaussianMechanism:
    """Adds discrete Gaussian noise with variance parameter sigma_squared.

    For integer statistics that move by at most `sensitivity` per unit of
    input distance, the privacy function under ZCDP is the quadratic
    d -> (d * sensitivity)^2 / (2 sigma_squared).
    """

    sigma_squared: Fraction
    sensitivity: int

    @property
    def privacy_function(self) -> DistanceMap:
        s = self.sensitivity
        sigma_squared = self.sigma_squared

        def rho(d: Distance) -> Distance:
            if d == INF:
                return INF
            shift = Fraction(d) * s
            return shift * shift / (2 * sigma_squared)

        return general_map(rho)

    def add_noise(self, value: int, rng: RngStream) -> int:
        if self.sigma_squared <= ZERO_NOISE_SIGMA_SQUARED:
            return value
        return value + sample_discrete_gaussian(self.sigma_squared, rng.generator())


def make_geometric(epsilon_unit, sensitivity: int = 1) -> GeometricMechanism:
    epsilon_unit = Fraction(epsilon_unit)
    if epsilon_unit <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon_unit}")
    if not isinstance(sensitivity, int) or sensitivity < 1:
        raise ValueError(f"sensitivity must be a positive int, got {sensitivity!r}")
    return GeometricMechanism(epsilon_unit, sensitivity)


def make_discrete_gaussian(sigma_squared, sensitivity: int = 1) -> GaussianMechanism:
    sigma_squared = Fraction(sigma_squared)
    if sigma_squared <= 0:
        raise NonPositiveSigma(f"sigma_squared must be positive, got {sigma_squared}")
    if not isinstance(sensitivity, int) or sensitivity < 1:
        raise ValueError(f"sensitivity must be a positive int, got {sensitivity!r}")
    return GaussianMechanism(sigma_squared, sensitivity)


# ---------------------------------------------------------------------------
# Mechanism choices for aggregations.
#
# Aggregations are parameterized by the privacy budget they consume per
# unit of input distance; the matching noise scale is derived from the
# aggregation's own sensitivity.  That keeps calibration exact: the solved
# parameters reproduce the requested loss in rational arithmetic.


@dataclass(frozen=True)
class PureDpNoise:
    """Two-sided geometric noise costing epsilon_unit per unit distance."""

    epsilon_unit: Fraction


@dataclass(frozen=True)
class ZcdpNoise:
    """Discrete Gaussian noise costing rho_unit at distance 1.

    The natural privacy function is the quadratic rho_unit * d^2.  When
    `linearize_at` is set, the declared map is instead the linear function
    through that quadratic's value at d = linearize_at.  The linear form is
    an upper bound on the true loss for every d <= linearize_at, which is
    the regime a session quotes; it is what grouped queries use, since
    parallel composition only accepts linear privacy functions.
    """

    rho_unit: Fraction
    linearize_at: int | None = None


NoiseSpec = Union[PureDpNoise, ZcdpNoise]


def _noise_parts(noise: NoiseSpec, sensitivity: int):
    """Build (mechanism, privacy map, measure) for an integer aggregation."""
    if isinstance(noise, PureDpNoise):
        mechanism = make_geometric(Fraction(noise.epsilon_unit), sensitivity)
        return mechanism, mechanism.privacy_function, PureDP()
    if isinstance(noise, ZcdpNoise):
        rho_unit = Fraction(noise.rho_unit)
        if rho_unit <= 0:
            raise NonPositiveEpsilon(f"rho must be positive, got {rho_unit}")
        sigma_squared = Fraction(sensitivity * sensitivity) / (2 * rho_unit)
        mechanism = make_discrete_gaussian(sigma_squared, sensitivity)
        if noise.linearize_at is None:
            return mechanism, mechanism.privacy_function, ZCDP()
        if not isinstance(noise.linearize_at, int) or noise.linearize_at < 1:
            raise ValueError("linearize_at must be a positive int")
        return mechanism, linear_map(rho_unit * noise.linearize_at), ZCDP()
    raise TypeError(f"unknown noise spec {noise!r}")


def _halve(noise: NoiseSpec) -> NoiseSpec:
    if isinstance(noise, PureDpNoise):
        return PureDpNoise(Fraction(noise.epsilon_unit) / 2)
    return ZcdpNoise(Fraction(noise.rho_unit) / 2, noise.linearize_at)


# ---------------------------------------------------------------------------
# Aggregations.


def make_count(domain: TableDomain, noise: NoiseSpec) -> Measurement:
    """A noisy row count.  Sensitivity 1 per unit of symmetric difference."""
    mechanism, privacy, measure = _noise_parts(noise, 1)

    def evaluate(table: Table, rng: RngStream) -> int:
        return mechanism.add_noise(len(table.rows), rng)

    return Measurement(
        input_domain=domain,
        input_metric=SymmetricDifference(),
        output_measure=measure,
        privacy_function=privacy,
        _eval=evaluate,
    )


def _check_numeric_column(domain: TableDomain, column: str) -> ColumnType:
    ctype = domain.schema.type_of(column)
    if ctype is ColumnType.TEXT:
        raise UnknownColumn(f"column {column!r} is text; aggregations need numbers")
    return ctype


def _clamp_bounds(low, high):
    low = float(low)
    high = float(high)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise BadBounds("clamping bounds must be finite")
    if low > high:
        raise BadBounds(f"low {low!r} exceeds high {high!r}")
    return low, high


def _sum_setup(low, high, granularity):
    low, high = _clamp_bounds(low, high)
    gamma = Fraction(granularity)
    if gamma <= 0:
        raise NonPositiveGranularity(f"granularity must be positive, got {granularity}")
    # Per-row contribution to the grain-domain total, after clamping.
    sensitivity = math.ceil(max(abs(Fraction(low)), abs(Fraction(high))) / gamma)
    return low, high, gamma, sensitivity


def _grain_total(table: Table, column: str, low: float, high: float, gamma: Fraction) -> int:
    """The sum over rows of round(clamped value / gamma), half to even.

    Exact integer arithmetic: value / gamma is n * g_den / (d * g_num) for
    the value's exact ratio n / d, so no Fraction is built per row.
    """
    index = table.schema.index_of(column)
    g_num, g_den = gamma.numerator, gamma.denominator
    total = 0
    for row in table.rows:
        n, d = min(max(row[index], low), high).as_integer_ratio()
        divisor = d * g_num
        quotient, remainder = divmod(n * g_den, divisor)
        twice = 2 * remainder
        if twice > divisor or (twice == divisor and quotient & 1):
            quotient += 1
        total += quotient
    return total


def make_sum(
    domain: TableDomain,
    column: str,
    low,
    high,
    granularity,
    noise: NoiseSpec,
) -> Measurement:
    """A noisy clamped sum on a fixed-point grid.

    Each value is clamped to [low, high] and rounded to a multiple of the
    granularity; noise is added to the integer total of grid steps and the
    result is scaled back.  The per-row sensitivity in grid steps is
    ceil(max(|low|, |high|) / granularity).
    """
    _check_numeric_column(domain, column)
    low, high, gamma, sensitivity = _sum_setup(low, high, granularity)

    if sensitivity == 0:
        # Bounds pin every value to zero, so the sum is the constant 0 and
        # costs nothing at any distance.
        return Measurement(
            input_domain=domain,
            input_metric=SymmetricDifference(),
            output_measure=PureDP() if isinstance(noise, PureDpNoise) else ZCDP(),
            privacy_function=linear_map(0),
            _eval=lambda table, rng: Fraction(0),
        )

    mechanism, privacy, measure = _noise_parts(noise, sensitivity)

    def evaluate(table: Table, rng: RngStream) -> Fraction:
        noisy = mechanism.add_noise(_grain_total(table, column, low, high, gamma), rng)
        return noisy * gamma

    return Measurement(
        input_domain=domain,
        input_metric=SymmetricDifference(),
        output_measure=measure,
        privacy_function=privacy,
        _eval=evaluate,
    )


def make_average(
    domain: TableDomain,
    column: str,
    low,
    high,
    granularity,
    noise: NoiseSpec,
) -> Measurement:
    """A noisy clamped average: noisy sum over max(1, noisy count).

    The stated budget is split evenly between the two parts, so the
    privacy function is the sum of two half-cost maps and equals the full
    cost at every distance.
    """
    half = _halve(noise)
    sum_part = make_sum(domain, column, low, high, granularity, half)
    count_part = make_count(domain, half)
    privacy = sum_maps([sum_part.privacy_function, count_part.privacy_function])

    def evaluate(table: Table, rng: RngStream) -> Fraction:
        noisy_sum = sum_part.eval(table, rng.child("sum"))
        noisy_count = count_part.eval(table, rng.child("count"))
        return Fraction(noisy_sum) / max(1, noisy_count)

    return Measurement(
        input_domain=domain,
        input_metric=SymmetricDifference(),
        output_measure=sum_part.output_measure,
        privacy_function=privacy,
        _eval=evaluate,
    )


def _quantile_scores(values: Sequence, midpoints: Sequence[float], q: float) -> list:
    """Each midpoint's score: -|(number of values below it) - q * len(values)|.

    One sort, then bisect_left, which counts the values strictly below a
    midpoint exactly as a scan comparing each value would.
    """
    values = sorted(values)
    target = q * len(values)
    return [-abs(bisect_left(values, mid) - target) for mid in midpoints]


def make_quantile(
    domain: TableDomain,
    column: str,
    q: float,
    low,
    high,
    bins: int,
    epsilon_unit,
) -> Measurement:
    """A quantile estimate via exponential choice over equal-width bins.

    Each bin scores -(distance between its rank and the target rank); a
    bin is drawn with probability proportional to exp(epsilon * score / 2)
    and its midpoint is returned.  Score sensitivity is 1 per row, so the
    privacy function is linear(epsilon_unit) under PureDP.
    """
    _check_numeric_column(domain, column)
    low, high = _clamp_bounds(low, high)
    if not 0 <= q <= 1:
        raise BadQuantile(f"quantile rank must be in [0, 1], got {q!r}")
    if not isinstance(bins, int) or bins < 1:
        raise BadBounds(f"bins must be a positive int, got {bins!r}")
    epsilon_unit = Fraction(epsilon_unit)
    if epsilon_unit <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon_unit}")

    width = (high - low) / bins
    if not math.isfinite(width):
        raise BadBounds(f"the bin width over [{low!r}, {high!r}] overflows float64")
    midpoints = [low + (i + 0.5) * width for i in range(bins)]
    index_of_column = domain.schema.index_of(column)
    half_epsilon = float(epsilon_unit) / 2

    def evaluate(table: Table, rng: RngStream) -> float:
        scores = _quantile_scores([row[index_of_column] for row in table.rows], midpoints, q)
        top = max(scores)
        weights = [math.exp(half_epsilon * (s - top)) for s in scores]
        total = math.fsum(weights)
        draw = (rng.generator().getrandbits(64) + 0.5) / 2.0**64 * total
        running = 0.0
        for midpoint, weight in zip(midpoints, weights):
            running += weight
            if running >= draw:
                return midpoint
        return midpoints[-1]

    return Measurement(
        input_domain=domain,
        input_metric=SymmetricDifference(),
        output_measure=PureDP(),
        privacy_function=linear_map(epsilon_unit),
        _eval=evaluate,
    )


# ---------------------------------------------------------------------------
# Composition.


def compose_sequential(parts: Sequence[Measurement]) -> Measurement:
    """Run all parts on the same data; privacy functions add.

    Each part draws from its own stream, so one part's sampling cannot
    perturb another's.
    """
    parts = list(parts)
    if not parts:
        raise EmptyList("compose_sequential needs at least one measurement")
    first = parts[0]
    for part in parts[1:]:
        if part.input_domain != first.input_domain:
            raise DomainMismatch("sequential parts must share an input domain")
        if part.input_metric != first.input_metric:
            raise MetricMismatch("sequential parts must share an input metric")
        if part.output_measure != first.output_measure:
            raise MeasureMismatch("sequential parts must share an output measure")

    def evaluate(data, rng: RngStream) -> tuple:
        return tuple(part.eval(data, rng.child(i)) for i, part in enumerate(parts))

    return Measurement(
        input_domain=first.input_domain,
        input_metric=first.input_metric,
        output_measure=first.output_measure,
        privacy_function=sum_maps([p.privacy_function for p in parts]),
        _eval=evaluate,
    )


def _key_stream_label(key_row: tuple) -> str:
    # repr is injective on tuples of ints, floats, and strings, which is
    # all a key row can hold.
    return repr(key_row)


def compose_per_group(
    domain: TableDomain,
    key_schema: Schema,
    keyset_rows: Sequence[tuple],
    per_group: Measurement,
    value_column: tuple[str, ColumnType],
) -> Measurement:
    """Run one measurement on each keyset group; privacy does not add up.

    Groups partition the data, so a unit of grouped distance is split
    among the groups it touches and the total loss stays bounded by the
    per-group privacy function applied to the total distance.  That
    argument needs a linear privacy function; anything else is rejected.

    The measurement's output is the result table: exactly one row per
    keyset key, in keyset order, whatever keys the data contains, each
    with its group's value released through result_cell.  The key rows
    are checked once, here, and the value column must be numeric.
    """
    if not isinstance(per_group.input_metric, SymmetricDifference):
        raise MetricMismatch("per-group measurements run under SymmetricDifference")
    if per_group.privacy_function.shape != "linear":
        raise NonLinearPrivacyFunction(
            "per-group composition needs a linear privacy function"
        )
    check_key_columns(domain.schema, key_schema)
    value_name, value_type = value_column
    if value_type is ColumnType.TEXT:
        raise SchemaMismatch(f"the value column {value_name!r} must be numeric, not text")
    output_schema = Schema(tuple(key_schema.columns) + ((value_name, value_type),))
    keys = [(row, _key_stream_label(row)) for row in Table.of(key_schema, keyset_rows).rows]
    key_columns = key_schema.names

    def evaluate(table: Table, rng: RngStream) -> Table:
        groups = split_by_key(table, key_columns)
        empty = Table._trusted(table.schema, ())
        rows = []
        for key_row, label in keys:
            value = per_group.eval(groups.get(key_row, empty), rng.child(label))
            rows.append(key_row + (result_cell(value, value_type),))
        return Table._trusted(output_schema, tuple(rows))

    return Measurement(
        input_domain=domain,
        input_metric=GroupedBy(tuple(key_columns), SymmetricDifference()),
        output_measure=per_group.output_measure,
        privacy_function=per_group.privacy_function,
        _eval=evaluate,
    )


def compose_over_subsets(parts: Sequence[Measurement]) -> Measurement:
    """Run the i-th measurement on the i-th table of a bounded list.

    A row may appear in several subsets, so the loss is bounded by the
    worst per-subset slope times the total list distance.  Linear privacy
    functions only.
    """
    parts = list(parts)
    if not parts:
        raise EmptyList("compose_over_subsets needs at least one measurement")
    element = parts[0].input_domain
    for part in parts:
        if part.input_domain != element:
            raise DomainMismatch("subset parts must share an element domain")
        if not isinstance(part.input_metric, SymmetricDifference):
            raise MetricMismatch("subset parts run under SymmetricDifference")
        if part.output_measure != parts[0].output_measure:
            raise MeasureMismatch("subset parts must share an output measure")
        if part.privacy_function.shape != "linear":
            raise NonLinearPrivacyFunction(
                "composition over subsets needs linear privacy functions"
            )

    def evaluate(tables, rng: RngStream) -> tuple:
        if len(tables) != len(parts):
            raise LengthMismatch(
                f"expected {len(parts)} subset tables, got {len(tables)}"
            )
        return tuple(part.eval(tables[i], rng.child(i)) for i, part in enumerate(parts))

    return Measurement(
        input_domain=TableListDomain(element, len(parts)),
        input_metric=BoundedLists(SymmetricDifference()),
        output_measure=parts[0].output_measure,
        privacy_function=max_slope_map([p.privacy_function for p in parts]),
        _eval=evaluate,
    )


# ---------------------------------------------------------------------------
# The budget-enforcing queryable.


class Queryable:
    """Holds a dataset and answers measurements against a fixed budget.

    Asks are adaptive: each may depend on earlier answers.  A failed ask
    raises and changes nothing; a successful ask deducts its declared
    spend exactly and evaluates with a stream derived from the ask's
    ordinal, so replaying the same seed and sequence replays the answers.
    """

    def __init__(
        self,
        dataset,
        input_metric: Metric,
        output_measure: Measure,
        total_budget,
        rng: RngStream,
    ):
        if total_budget != INF:
            total_budget = Fraction(total_budget)
            if total_budget < 0:
                raise ValueError("the total budget must be non-negative")
        self._data = dataset
        self._metric = input_metric
        self._measure = output_measure
        self._total = total_budget
        self._spent = Fraction(0)
        self._count = 0
        self._rng = rng
        self._lock = threading.Lock()

    @property
    def input_metric(self) -> Metric:
        return self._metric

    @property
    def output_measure(self) -> Measure:
        return self._measure

    def spent(self):
        return self._spent

    def remaining(self):
        if self._total == INF:
            return INF
        return self._total - self._spent

    def ask(self, measurement: Measurement, spend, at_distance):
        """Evaluate a measurement, charging `spend` against the budget.

        The measurement's privacy function at `at_distance` must not
        exceed the spend, and the spend must fit in the remaining budget.
        """
        with self._lock:
            if spend == INF:
                # An infinite budget already admits any finite spend, so an
                # infinite spend is never needed and would poison the ledger.
                raise ValueError("spends must be finite")
            spend = Fraction(spend)
            if spend < 0:
                raise ValueError("spends must be non-negative")
            if measurement.input_metric != self._metric:
                raise MetricMismatch(
                    f"queryable holds data under {self._metric!r}, measurement "
                    f"wants {measurement.input_metric!r}"
                )
            if measurement.output_measure != self._measure:
                raise MeasureMismatch(
                    f"queryable accounts in {self._measure!r}, measurement "
                    f"reports {measurement.output_measure!r}"
                )
            loss = measurement.privacy_function(at_distance)
            if loss > spend:
                raise GuaranteeTooWeak(
                    f"measurement loses {loss} at distance {at_distance}, "
                    f"more than the declared spend {spend}"
                )
            remaining = self.remaining()
            if spend > remaining:
                raise InsufficientBudget(
                    f"spend {spend} exceeds remaining budget {remaining}"
                )
            result = measurement.eval(self._data, self._rng.child(self._count))
            self._spent += spend
            self._count += 1
            return result

