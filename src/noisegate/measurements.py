"""Measurements: randomized computations with declared privacy loss.

A Measurement pairs an evaluation function with a privacy function, a
monotone map from input distance to privacy loss under its output
measure.  A noisy aggregation is a statistic under a mechanism: an
integer function of a table's rows with a known sensitivity, plus exact
integer noise from the mechanism the noise spec names.  _noisy solves
that mechanism once per aggregation, when it is built, and hands back its
sampler function; make_count, make_sum and make_average each call it once
per draw and add the draw to their statistic in their own closure.
Composition operators combine measurements and their privacy functions
under either measure: sequential parts' maps add, and parallel parts
(per group, over subsets) take one map at the total distance, since every
map is superadditive.  The Queryable enforces a privacy budget across an
adaptive sequence of asks.

All noise is integer-domain and exactly distributed (see noise.py).
Real-valued aggregations discretize to a fixed-point grid first, so their
sensitivities are integers and their accounting stays rational.
"""

from __future__ import annotations

import math
import random
import sys
import threading
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import getitem, sub
from typing import Any, Callable, Sequence, Union

from .errors import (
    BadBounds,
    BadQuantile,
    DomainMismatch,
    EmptyList,
    EvaluationFailed,
    GuaranteeTooWeak,
    InsufficientBudget,
    LengthMismatch,
    MeasureMismatch,
    MetricMismatch,
    NonPositiveEpsilon,
    NonPositiveGranularity,
    NonPositiveSigma,
    SchemaMismatch,
    UnknownColumn,
)
from .metrics import (
    INF,
    BoundedLists,
    DistanceMap,
    GroupedBy,
    Measure,
    Metric,
    PureDP,
    SymmetricDifference,
    ZCDP,
    as_fraction,
    format_amount,
    linear_map,
    max_map,
    parse_budget_amount,
    sum_maps,
)
from .noise import sample_discrete_gaussian, sample_two_sided_geometric
from .records import Record
from .rng import RngStream
from .tabledata import (
    ColumnType,
    KeySet,
    Table,
    TableDomain,
    TableListDomain,
    check_key_columns,
    columns_of,
    expect,
    gather,
    is_int,
    result_cell,
    split_by_key,
)

# A dataclass, not a Record: the benchmark's tracer (bench/spans.py) and
# tests rebuild one with dataclasses.replace, though no compiled step does.
@dataclass(frozen=True)
class Measurement:
    """A randomized computation with a declared privacy function.

    `_eval(data, generator)` draws all of its randomness from the one
    generator it is given, and compositions hand their parts that same
    generator in a fixed order.
    """

    input_domain: Any
    input_metric: Metric
    output_measure: Measure
    privacy_function: DistanceMap
    _eval: Callable[[Any, random.Random], Any]

    def eval(self, data, stream: RngStream):
        """Evaluate on `data` with the one generator `stream` derives."""
        return self._eval(data, stream.generator())


# ---------------------------------------------------------------------------
# Noise primitives.


class GeometricMechanism(Record):
    """Two-sided geometric noise with P(k) proportional to
    exp(-|k| epsilon_unit / sensitivity).

    For integer statistics that move by at most `sensitivity` when the
    input moves by one unit of distance, the privacy function is
    linear(epsilon_unit) under PureDP.
    """

    epsilon_unit: Fraction
    sensitivity: int

    def __post_init__(self) -> None:
        # Solved once: every draw samples at this rate.  Not a field: it
        # follows from the two that are.
        rate = self.epsilon_unit
        if self.sensitivity != 1:
            rate = rate / self.sensitivity
        object.__setattr__(self, "rate", rate)

    @property
    def privacy_function(self) -> DistanceMap:
        return linear_map(self.epsilon_unit)


class GaussianMechanism(Record):
    """Discrete Gaussian noise with variance parameter sigma_squared.

    For integer statistics that move by at most `sensitivity` per unit of
    input distance, the privacy function under ZCDP is the quadratic
    d -> (d * sensitivity)^2 / (2 sigma_squared).
    """

    sigma_squared: Fraction
    sensitivity: int

    @property
    def privacy_function(self) -> DistanceMap:
        return DistanceMap(0, self.sensitivity**2 / (2 * as_fraction(self.sigma_squared)))


def make_geometric(epsilon_unit, sensitivity: int = 1) -> GeometricMechanism:
    epsilon_unit = as_fraction(epsilon_unit)
    if epsilon_unit <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon_unit}")
    if not is_int(sensitivity) or sensitivity < 1:
        raise ValueError(f"sensitivity must be a positive int, got {sensitivity!r}")
    return GeometricMechanism(epsilon_unit, sensitivity)


def make_discrete_gaussian(sigma_squared, sensitivity: int = 1) -> GaussianMechanism:
    sigma_squared = as_fraction(sigma_squared)
    if sigma_squared <= 0:
        raise NonPositiveSigma(f"sigma_squared must be positive, got {sigma_squared}")
    if not is_int(sensitivity) or sensitivity < 1:
        raise ValueError(f"sensitivity must be a positive int, got {sensitivity!r}")
    return GaussianMechanism(sigma_squared, sensitivity)


# ---------------------------------------------------------------------------
# Mechanism choices for aggregations.
#
# Aggregations are parameterized by the privacy budget they consume per
# unit of input distance; the matching noise scale is derived from the
# aggregation's own sensitivity.  That keeps calibration exact: the solved
# parameters reproduce the requested loss in rational arithmetic.


class PureDpNoise(Record):
    """Two-sided geometric noise costing epsilon_unit per unit distance."""

    epsilon_unit: Fraction

    measure = PureDP()


class ZcdpNoise(Record):
    """Discrete Gaussian noise costing rho_unit at distance 1.

    The privacy function is the quadratic rho_unit * d^2, grouped or not.
    """

    rho_unit: Fraction

    measure = ZCDP()


NoiseSpec = Union[PureDpNoise, ZcdpNoise]


def _halve(noise: NoiseSpec) -> NoiseSpec:
    if isinstance(noise, PureDpNoise):
        return PureDpNoise(as_fraction(noise.epsilon_unit) / 2)
    return ZcdpNoise(as_fraction(noise.rho_unit) / 2)


# ---------------------------------------------------------------------------
# Aggregations.


def _no_noise(parameter, rng: random.Random) -> int:
    """The draw a statistic of sensitivity 0 gets: none."""
    return 0


def _noisy(noise: NoiseSpec, sensitivity: int) -> tuple[DistanceMap, Callable, Any]:
    """The noise for an int statistic that moves by at most `sensitivity`
    per unit of symmetric difference, solved once from the spec's
    mechanism: (privacy function, sampler, parameter).  The sampler is
    sample_two_sided_geometric, sample_discrete_gaussian or _no_noise, read
    from this module when the aggregation is built; every measurement is
    built inside Session.evaluate, so a caller that swaps a sampler here
    before evaluating sees every draw.

    Each aggregation's evaluation is one closure over a table that adds
    sample(parameter, rng), one draw, to its statistic and finishes its
    own value.  So a key of a grouped release costs that closure, the
    statistic (len, or for a sum one read of its key's remembered grain
    total and count), one sampler call per draw (the geometric's runs
    _two_sided_geometric, with one _geometric_exp per attempt), for a sum
    or an average one result_cell, and compose_per_group's result_cell of
    the value.  At sensitivity 0 the
    statistic takes one value on every input, which is released as it is:
    free, and drawing nothing.
    """
    if sensitivity == 0:
        return linear_map(0), _no_noise, None
    if isinstance(noise, PureDpNoise):
        mechanism = make_geometric(noise.epsilon_unit, sensitivity)
        return mechanism.privacy_function, sample_two_sided_geometric, mechanism.rate
    rho_unit = as_fraction(noise.rho_unit)
    if rho_unit <= 0:
        raise NonPositiveEpsilon(f"rho must be positive, got {rho_unit}")
    mechanism = make_discrete_gaussian(sensitivity * sensitivity / (2 * rho_unit), sensitivity)
    return mechanism.privacy_function, sample_discrete_gaussian, mechanism.sigma_squared


def _aggregation(
    domain: TableDomain, noise: NoiseSpec, privacy_function: DistanceMap, evaluate
) -> Measurement:
    return Measurement(domain, SymmetricDifference(), noise.measure, privacy_function, evaluate)


def make_count(domain: TableDomain, noise: NoiseSpec) -> Measurement:
    """A noisy row count.  Sensitivity 1 per unit of symmetric difference.

    The count is len(table), read without the call to Table.__len__,
    which a grouped count would make once per key.  A table under a mask
    (a filter's or a step's output, a cut) remembers its held count
    ("count", see Table.derive), so a warm count reads no row; a
    grouping's key Tables, which count what they remember apart, count
    theirs on each release."""
    privacy_function, sample, parameter = _noisy(noise, 1)

    def evaluate(table: Table, rng: random.Random) -> int:
        held = table.held
        if held is None:
            count = len(table.columns[0])
        elif table.offset is None:
            count = table.derive("count", held.count, 1)
        else:
            count = held.count(1)
        return count + sample(parameter, rng)

    return _aggregation(domain, noise, privacy_function, evaluate)


def _check_numeric_column(domain: TableDomain, column: str) -> ColumnType:
    ctype = domain.schema.type_of(column)
    if ctype is ColumnType.TEXT:
        raise UnknownColumn(f"column {column!r} is text; aggregations need numbers")
    return ctype


def _clamp_bounds(low, high):
    for bound in (low, high):
        expect(bound, (int, float, Fraction), BadBounds, "a clamping bound", "a number")
    try:
        low, high = float(low), float(high)
    except OverflowError:  # an int or Fraction beyond the float64 range
        raise BadBounds("clamping bounds must be finite") from None
    if not (math.isfinite(low) and math.isfinite(high)):
        raise BadBounds("clamping bounds must be finite")
    if low > high:
        raise BadBounds(f"low {low!r} exceeds high {high!r}")
    return low, high


# Float grain counts.  p = v * (g_den / g_num) is at most three roundings
# from the exact x = v * g_den / g_num, each off by a relative u = 2^-53
# (v to a float, for ints only; the ratio; the product), plus up to
# 2^-1075 when the product is subnormal: |p - x| <= |x| ((1 + u)^3 - 1) +
# 2^-1075, well under margin(p) = 2^-50 |p| + 2^-1074.  So when |p - r| <
# 1/2 - margin(p) for r = round(p), |x - r| < 1/2: r is the integer
# nearest x, and x is no tie.  The test's own arithmetic is exact where it
# can matter, at |p - r| near 1/2, so |p| near 1/2 or more: p - r by
# Sterbenz's lemma and 2^-50 |p| as a power-of-two scaling.  Only 1/2 -
# margin(p) may round up, by at most 2^-55, which the room between 3u |x|
# and 8u |p| covers.
#
# One bound serves every row of a measurement.  A clamped value has |v| <=
# max(-low, high), and rounded float products, sums and differences are
# monotone in their operands, so with top = max(-low, high) * (g_den /
# g_num), every row's |p| <= top and bound = 1/2 - margin(top) <= 1/2 -
# margin(p).  A row with |p - r| < bound passes its own test, so its r is
# right.  A row that fails it tries its own test, and a row that fails
# that too takes the exact integer path, which gives the same count.  The
# shared bound only saves work: it is the per-row test with |p| read as
# top.  From top = 2^49 on, bound <= 0 and every row pays its own test;
# rows of |p| under 2^49 still pass it.
#
# Under the shared bound, r is (p + 1.5 * 2^52) - 1.5 * 2^52 rather than
# round(p).  In binary64 with round-half-even, the sum is exact to the
# nearest integer for |p| < 2^51, where the floats of [2^52, 2^53) are the
# integers, and the even multiple 1.5 * 2^52 keeps ties on even r; the
# subtraction is exact.  Only |p| under 2^49 reaches that test, since the
# bound is 0 or less from there, and each such r becomes an int exactly.
_MARGIN_REL = 2.0**-50
_MARGIN_SUBNORMAL = 2.0**-1074


def _own_count(value, p: float, scale: float, g_num: int, g_den: int) -> int:
    """The grain count of a clamped value whose p = value * scale the
    shared bound does not settle: round(p) when |p - round(p)| is under p's
    own 1/2 - margin(p), else value / gamma exactly, n * g_den / (d *
    g_num) for the value's exact ratio n / d, rounded half to even with
    divmod."""
    r = round(p)
    if scale and abs(p - r) < 0.5 - (abs(p) * _MARGIN_REL + _MARGIN_SUBNORMAL):
        return r
    n, d = value.as_integer_ratio()
    divisor = d * g_num
    quotient, remainder = divmod(n * g_den, divisor)
    twice = 2 * remainder
    if twice > divisor or (twice == divisor and quotient & 1):
        quotient += 1
    return quotient


def _grain_counts(low: float, high: float, g_num: int, g_den: int):
    """The function from a column's values to each one's grain count,
    round(clamped value / gamma) half to even for gamma = g_num / g_den,
    an exact int: the one rounding rule of a sum.

    Exact, assuming binary64 floats with round-half-even arithmetic: each
    count is first tried in floats, p = v * (g_den / g_num), rounded with
    the constant 1.5 * 2^52, and kept only when |p - r| is under the bound
    shared by the clamp range (see above); any other row takes _own_count.
    Where g_num or g_den is 2^53 or more, or the range's top p overflows,
    the ratio and the bound are 0 and every row takes the integer path.
    """
    scale = bound = 0.0
    if g_num < 2**53 and g_den < 2**53:
        ratio = g_den / g_num
        top = max(-low, high) * ratio
        if top < math.inf:
            scale, bound = ratio, 0.5 - (top * _MARGIN_REL + _MARGIN_SUBNORMAL)

    def counts_of(values: Sequence) -> tuple[int, ...]:
        counts = []
        for value in values:
            if value < low:
                value = low
            elif value > high:
                value = high
            p = value * scale
            r = p + 6755399441055744.0 - 6755399441055744.0  # 1.5 * 2^52
            counts.append(
                int(r) if -bound < p - r < bound else _own_count(value, p, scale, g_num, g_den)
            )
        return tuple(counts)

    return counts_of


def _packed(values: list[int]) -> Sequence[int]:
    """values as an int64 array, 8 bytes each, where every one fits; else
    as given."""
    try:
        return array("q", values)
    except OverflowError:
        return values


def _grains(domain: TableDomain, column: str, low, high, granularity):
    """A clamped column's grain total, counted in grains of the given
    granularity: (total, which takes a table and gives the grain total of
    its held cells in the column and how many there are, its sensitivity
    in grains, g_num, g_den).

    total's pair is derived data, built once per table and bounds and then
    read, so a warm sum or average reads no row.  A table derives its pair
    in its own memo under ("total", index, low, high, g_num, g_den), one
    value toward MAX_REMEMBERED_OUTPUTS, however many rows it stores (a
    private number on a loaded table or a join's output), by summing at
    its held rows, with compress, in C, the grain counts that the stored
    rows which computed the column derive once, in what every table over
    them shares (Table.stored), under ("grains", its index there, low,
    high, g_num, g_den) by _grain_counts, one int per stored row, held or
    not.  A table's _origin says where a column's cells come from, and
    the counts come from there too: a map's bare column or a fan-out-1
    join's left column reads its input's counts.  Only a column that
    stored rows hold of their own (a loaded or hand-built table's, or one
    a map, a flat map or a join computed) is rounded for them, once.

    A key's Table of a grouping reads its key's pair at its offset from
    every key's totals and held counts, which the first sum of the
    grouping at these bounds derives in one pass, in what its key Tables
    share, under the total key of its read column: O(keys) ints, in place
    of any per-row counts.  The pass gathers the grouped table's counts
    where those are remembered (else it rounds the cells for itself, and
    leaves its grouped table's memo as it was) in key order, and sums each
    key's span of them at the grouping's mask, all in C.  The one Table
    of a grouping's absent keys (offset -1), which stores no row whatever
    the data, gives (0, 0) and remembers nothing.  So what a source
    remembers depends only on the queries asked, never on which keys have
    rows, and a sum's work does not depend on which rows are held, on a
    table of any kind.

    The per-row sensitivity is ceil(max(|low|, |high|) / granularity)."""
    _check_numeric_column(domain, column)
    low, high = _clamp_bounds(low, high)
    gamma = as_fraction(granularity)
    if gamma <= 0:
        raise NonPositiveGranularity(f"granularity must be positive, got {granularity}")
    g_num, g_den = gamma.numerator, gamma.denominator
    # ceil(top / gamma) for top = max(|low|, |high|) = n / d exactly, in ints.
    n, d = max(abs(low), abs(high)).as_integer_ratio()
    sensitivity = -(-n * g_den // (d * g_num))
    counts_of = _grain_counts(low, high, g_num, g_den)
    index = domain.schema.index_of(column)
    clamp = (low, high, g_num, g_den)
    key, total_key = ("grains", index, *clamp), ("total", index, *clamp)

    def held_total(table: Table, entry: tuple | None) -> tuple[int, int]:
        """The grain total and count of table's held cells, from the
        counts of the stored rows that computed the column (entry, its
        _origin entry)."""
        if entry is None:
            stored = table.stored if table.offset is None else None
            counts = table.derive(key, counts_of, table.columns[index], memo=stored)
        else:
            stored, at, cells, _ = entry
            counts = table.derive(("grains", at, *clamp), counts_of, cells, memo=stored)
        held = table.held
        if held is None:
            return sum(counts), len(counts)
        return sum(compress(counts, held)), held.count(1)

    def per_key(stored: dict, at: int, cells: tuple, rows: tuple) -> tuple:
        """Every key's grain total and held count of a grouping, in key
        order: the grain counts of cells, the column at `at` of the stored
        rows that share stored, gathered at the grouping's positions (those
        stored remembers, or counted for the grouping alone, so that no
        key's Table adds to what its grouped table remembers), summed over
        each key's span at the grouping's mask."""
        positions, held, stops = rows
        counts = stored.get(("grains", at, *clamp))
        counts = gather((counts_of(cells) if counts is None else counts,), positions)[0]
        starts = [0, *stops[:-1]]
        spans = list(map(slice, starts, stops))
        parts = map(counts.__getitem__, spans)
        if held is None:
            return _packed(list(map(sum, parts))), _packed(list(map(sub, stops, starts)))
        masks = list(map(held.__getitem__, spans))
        totals = list(map(sum, map(compress, parts, masks)))
        return _packed(totals), _packed(list(map(bytes.count, masks, repeat(1))))

    # The grouping whose pairs a key's Table last read, and those pairs:
    # every key of one release reads the same.
    last = [None, ()]

    def total(table: Table) -> tuple[int, int]:
        offset = table.offset
        if offset == -1:
            return 0, 0
        entry = table._origin[index] if table._origin else None
        if offset is None or entry is None:
            return table.derive(total_key, held_total, table, entry)
        if last[0] is not table.stored:
            last[:] = table.stored, table.derive(total_key, per_key, *entry, memo=table.stored)
        totals, counts = last[1]
        return totals[offset], counts[offset]

    return total, sensitivity, g_num, g_den


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
    result is scaled back, as one correctly rounded float.  The total is
    remembered per table and bounds, from the grain counts remembered
    where the column is stored, at the held rows (see _grains).
    """
    grain_total, sensitivity, g_num, g_den = _grains(domain, column, low, high, granularity)
    privacy_function, sample, parameter = _noisy(noise, sensitivity)
    float64 = ColumnType.FLOAT64

    def evaluate(table: Table, rng: random.Random) -> float:
        total = grain_total(table)[0] + sample(parameter, rng)
        return result_cell(total * g_num, float64, g_den)

    return _aggregation(domain, noise, privacy_function, evaluate)


def make_average(
    domain: TableDomain,
    column: str,
    low,
    high,
    granularity,
    noise: NoiseSpec,
) -> Measurement:
    """A noisy clamped average: noisy sum over max(1, noisy count).

    A sum and a count in sequence, each at half the stated budget and
    the sum's draw first, so its privacy function is the sum of two
    half-cost maps and equals the full cost at every distance.  The
    quotient is rounded once, from the noisy grain total and count.  The
    total is make_sum's and the count is how many held cells it sums,
    remembered with it (see _grains).
    """
    half = _halve(noise)
    grain_total, sensitivity, g_num, g_den = _grains(domain, column, low, high, granularity)
    sum_function, sample_sum, sum_parameter = _noisy(half, sensitivity)
    count_function, sample_count, count_parameter = _noisy(half, 1)
    float64 = ColumnType.FLOAT64

    def evaluate(table: Table, rng: random.Random) -> float:
        total, count = grain_total(table)
        total += sample_sum(sum_parameter, rng)
        count += sample_count(count_parameter, rng)
        return result_cell(total * g_num, float64, g_den * max(1, count))

    return _aggregation(domain, noise, sum_maps([sum_function, count_function]), evaluate)


def _quantile_scores(values: Sequence, midpoints: Sequence[float], q: float) -> list:
    """Each midpoint's score: -|(number of values below it) - q * len(values)|.

    values are sorted, as the table derives them once per column, and
    bisect_left counts the values strictly below a midpoint exactly as a
    scan comparing each value would.
    """
    target = q * len(values)
    return [-abs(bisect_left(values, mid) - target) for mid in midpoints]


# A quantile's cost grows with its bins: at this cap, a first evaluate
# over 17,000 rows takes about 0.04 s, to sort the column and weigh the
# bins, and a later one 5 us, once the table remembers the weights'
# running sums (Python 3.11.7, 2 cores); the sums take 0.8 MB, and 10^9
# bins would need tens of GB.
MAX_QUANTILE_BINS = 10**5


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

    Only the draw differs between asks: a table derives its bins' weights'
    running sums, as an array of doubles, and their fsum once, under
    ("quantile", column index, q's type, q's integer ratio, low, high,
    bins, epsilon / 2), one value toward MAX_REMEMBERED_OUTPUTS, from its
    sorted column ("sorted", column index), which quantiles at any
    parameters share.  So a warm evaluate reads no row: it draws one
    getrandbits(64), finds the first running sum at or above the draw by
    bisection, as a walk adding the weights in order would, and returns
    that bin's midpoint.  q's type is in the key because 0.5 and
    Fraction(1, 2) score in different arithmetic.  A grouping's key Table
    remembers only its sorted column and weighs its bins on every release,
    so a grouped quantile holds no weights beyond the release.
    """
    _check_numeric_column(domain, column)
    low, high = _clamp_bounds(low, high)
    if not 0 <= expect(q, (int, float, Fraction), BadQuantile, "a quantile rank", "a number") <= 1:
        raise BadQuantile(f"quantile rank must be in [0, 1], got {q!r}")
    if not is_int(bins) or not 1 <= bins <= MAX_QUANTILE_BINS:
        raise BadBounds(f"bins must be an int in 1..{MAX_QUANTILE_BINS}, got {bins!r}")
    epsilon_unit = as_fraction(epsilon_unit)
    if epsilon_unit <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon_unit}")
    # The largest float is an int, which a Fraction compares with exactly
    # and without building a Fraction of it, as it would of the float.
    if epsilon_unit > int(sys.float_info.max):
        raise NonPositiveEpsilon("epsilon is beyond the float64 range the bin weights use")

    width = (high - low) / bins
    if not math.isfinite(width):
        raise BadBounds(f"the bin width over [{low!r}, {high!r}] overflows float64")
    index = domain.schema.index_of(column)
    half_epsilon = float(epsilon_unit) / 2
    key = ("quantile", index, type(q), *q.as_integer_ratio(), low, high, bins, half_epsilon)

    def weighed(table: Table) -> tuple:
        """The running sums of the bins' weights and their fsum."""
        values = table.derive(("sorted", index), lambda: sorted(table.column(index)))
        midpoints = [low + (i + 0.5) * width for i in range(bins)]
        scores = _quantile_scores(values, midpoints, q)
        top = max(scores)
        weights = [math.exp(half_epsilon * (s - top)) for s in scores]
        return array("d", accumulate(weights)), math.fsum(weights)

    def evaluate(table: Table, rng: random.Random) -> float:
        # A grouping's key Tables each count what they remember in an
        # order of their own, so weights there would be held once per key.
        if table.offset is None:
            running, total = table.derive(key, weighed, table)
        else:
            running, total = weighed(table)
        draw = (rng.getrandbits(64) + 0.5) / 2.0**64 * total
        i = min(bisect_left(running, draw), bins - 1)
        return low + (i + 0.5) * width

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

    The parts draw from the one generator in list order; their noise is
    still independent, since each part's draws are fresh uniform bits.
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

    def evaluate(data, rng: random.Random) -> tuple:
        return tuple(part._eval(data, rng) for part in parts)

    return Measurement(
        input_domain=first.input_domain,
        input_metric=first.input_metric,
        output_measure=first.output_measure,
        privacy_function=sum_maps([p.privacy_function for p in parts]),
        _eval=evaluate,
    )


def compose_per_group(
    domain: TableDomain,
    keys: KeySet,
    per_group: Measurement,
    value_column: tuple[str, ColumnType],
) -> Measurement:
    """Run one measurement on each keyset group; privacy does not add up.

    Groups partition the data, so a grouped distance d is split among the
    groups it touches, d_g each.  The groups' noise is independent, so
    their max and Renyi divergences add (Bun & Steinke 2016), and the
    total loss is at most the sum of f(d_g) over the groups, where f is
    the per-group privacy function.  Every DistanceMap is superadditive,
    so that sum is at most f(d): f is the composition's privacy function.

    The output is the result table: one row per key, in keyset order,
    whatever keys the data holds, with its group's value as result_cell
    gives it.  Each key's Table holds only the columns the per-group part
    reads (its input_domain.schema): a session builds a sum, average or
    quantile on its column alone and a count on the first key column.
    The read columns are gathered from the data at every key's rows at
    once, in key order, one pass per column in C, and each key's Table is
    a slice of them; its offset is its place in that order.  Every table
    derives its groups under ("groups", key names, read names), however it
    was built: one keyed pass splits all its stored rows, in input order,
    into a dict from each key to a Table of its rows under their mask.  So
    the pass does the same work whatever a cut or a filter keeps, and a
    warm release splits nothing and builds no Table but its result.  Every
    key's Table shares one dict of stored-row data (Table.stored), and its
    _origin gives the numeric read columns as the grouped table's at the
    grouping's positions, with its mask and each key's stop, so the first
    sum or average of the grouping at given bounds derives every key's
    grain total and count there in one pass, and each key's release reads
    its own at its offset (see _grains).  A key's Table counts what it
    remembers in an order of its own (Table.derive), so the grouping is one
    value under its table's source, whatever keys have rows.  Absent keys
    share one empty Table, at offset -1, whose sum reads and remembers
    nothing.  Each key
    costs one call of the per-group measurement, which draws and finishes
    its own value (see _noisy), in keyset order from the one generator;
    nothing is summed across keys, so the part is any Measurement on
    tables, and the benchmark's tracer counts released and empty groups
    from these calls.  The key rows were checked when the KeySet was
    built; the key and read columns must be in the domain with the same
    types, and the value column numeric.
    """
    if not isinstance(per_group.input_metric, SymmetricDifference):
        raise MetricMismatch("per-group measurements run under SymmetricDifference")
    check_key_columns(domain.schema, keys.schema)
    read = per_group.input_domain.schema
    if not set(read.columns) <= set(domain.schema.columns):
        raise DomainMismatch(
            f"the per-group measurement reads {list(read.names)}, which the domain "
            "does not hold with the same types"
        )
    value_name, value_type = value_column
    if value_type is ColumnType.TEXT:
        raise SchemaMismatch(f"the value column {value_name!r} must be numeric, not text")
    output_schema = keys.result_schema((value_name, value_type))
    key_columns, read_names = keys.schema.names, read.names
    # Absent keys share one Table, which stores no row, at offset -1.
    empty = Table._trusted(read, columns_of((), len(read.columns)), offset=-1)
    release = per_group._eval
    numeric = [ctype is not ColumnType.TEXT for ctype in read.types]

    def groups_of(table: Table) -> dict:
        """Each key of table's stored rows, held or not, to a Table of its
        rows under their mask: a slice of the read columns gathered at
        every key's rows at once, in key order."""
        positions = split_by_key(table, key_columns)
        order = list(chain.from_iterable(positions.values()))
        indexes = list(map(table.schema.index_of, read_names))
        columns = gather([table.columns[i] for i in indexes], order)
        held = None if table.held is None else bytes(gather((table.held,), order)[0])
        stops = list(accumulate(map(len, positions.values())))
        starts = [0, *stops[:-1]]
        # Only a numeric column is summed, so only it keeps where its
        # cells come from, with the grouping's positions, mask and stops.
        rows = (array("q", order), held, array("q", stops)) if any(numeric) else None
        origin = tuple(
            table._origin_of(i, rows) if summed else None for i, summed in zip(indexes, numeric)
        )
        spans = list(map(slice, starts, stops))
        columns = zip(*[map(getitem, repeat(cells), spans) for cells in columns])
        masks = repeat(None) if held is None else map(getitem, repeat(held), spans)
        parts = map(
            Table._trusted, repeat(read), columns, masks, repeat(origin if any(origin) else None),
            repeat({}), repeat(None), repeat(None), range(len(stops)),
        )
        return dict(zip(positions, parts))

    def evaluate(table: Table, rng: random.Random) -> Table:
        find = table.derive(("groups", key_columns, read_names), groups_of, table).get
        values = [result_cell(release(find(key, empty), rng), value_type) for key in keys.keys]
        return Table._trusted(output_schema, (*keys.columns, tuple(values)))

    return Measurement(
        input_domain=domain,
        input_metric=GroupedBy(tuple(key_columns), per_group.input_metric),
        output_measure=per_group.output_measure,
        privacy_function=per_group.privacy_function,
        _eval=evaluate,
    )


def compose_over_subsets(parts: Sequence[Measurement]) -> Measurement:
    """Run the i-th measurement on the i-th table of a bounded list.

    A row may appear in several subsets, so the list distance d is the
    sum of the subsets' distances d_i, and the loss is at most the sum of
    f_i(d_i).  max_map bounds every f_i and is superadditive, so its
    value at d bounds that sum.
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

    def evaluate(tables, rng: random.Random) -> tuple:
        if len(tables) != len(parts):
            raise LengthMismatch(
                f"expected {len(parts)} subset tables, got {len(tables)}"
            )
        return tuple(part._eval(table, rng) for part, table in zip(parts, tables))

    return Measurement(
        input_domain=TableListDomain(element, len(parts)),
        input_metric=BoundedLists(SymmetricDifference()),
        output_measure=parts[0].output_measure,
        privacy_function=max_map([p.privacy_function for p in parts]),
        _eval=evaluate,
    )


# ---------------------------------------------------------------------------
# The budget-enforcing queryable.


class Queryable:
    """Holds a dataset and answers measurements against a fixed budget.

    Asks are adaptive: each may depend on earlier answers.  An ask the
    checks refuse raises and changes nothing.  An ask they accept deducts
    its declared spend exactly and evaluates with the one generator of
    the stream derived from the ask's ordinal, so replaying the same seed
    and sequence replays the answers.  If the evaluation raises, the
    spend stays charged and the ordinal stays used, and the caller gets
    EvaluationFailed with a fixed message: the failure depends on the
    data, so it must be neither a free retry nor a channel for it.  The
    total and every spend are read by parse_budget_amount, so all are
    exact.
    """

    def __init__(
        self,
        dataset,
        input_metric: Metric,
        output_measure: Measure,
        total_budget,
        rng: RngStream,
    ):
        self._data = dataset
        self._metric = input_metric
        self._measure = output_measure
        self._total = parse_budget_amount(total_budget)
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
        if self._total is INF:
            return INF
        return self._total - self._spent

    def ask(self, measurement: Measurement, spend, at_distance):
        """Evaluate a measurement, charging `spend` against the budget.

        The measurement's privacy function at `at_distance` must not
        exceed the spend, and the spend must fit in the remaining budget.
        """
        with self._lock:
            spend = parse_budget_amount(spend)
            if spend is INF:
                # An infinite budget already admits any finite spend, so an
                # infinite spend is never needed and would poison the ledger.
                raise ValueError("spends must be finite")
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
                    f"measurement loses {format_amount(loss)} at distance "
                    f"{at_distance}, more than the declared spend {format_amount(spend)}"
                )
            spent = self._spent + spend
            if spent > self._total:
                raise InsufficientBudget(
                    f"spend {format_amount(spend)} exceeds remaining budget "
                    f"{format_amount(self.remaining())}"
                )
            stream = self._rng.child(self._count)
            self._spent = spent
            self._count += 1
            try:
                return measurement.eval(self._data, stream)
            except Exception:
                raise EvaluationFailed(
                    "the measurement failed on the data; its spend was charged"
                ) from None

