"""Plain-Python reference answers for the benchmark's exact pass.

With spends so large that noisegate adds no noise, every released value
is a deterministic function of the rows, and these functions compute it
independently: integer arithmetic for grain rounding, a sort and bisect
for quantile ranks, a per-key sort for truncation.  Nothing here imports
noisegate.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

GRAIN = Fraction(1, 100)  # noisegate's default sum granularity


def count(rows) -> int:
    return len(rows)


def grain_total(values, low, high, grain: Fraction = GRAIN) -> int:
    """Sum of the values clamped to [low, high], each rounded half-to-even
    to a whole number of grains."""
    low, high = float(low), float(high)
    total = 0
    for value in values:
        num, den = min(max(value, low), high).as_integer_ratio()
        # value / grain = (num * grain.den) / (den * grain.num)
        top, bottom = num * grain.denominator, den * grain.numerator
        quotient, rest = divmod(top, bottom)
        if 2 * rest > bottom or (2 * rest == bottom and quotient % 2 == 1):
            quotient += 1
        total += quotient
    return total


def sum_value(values, low, high, grain: Fraction = GRAIN) -> float:
    return float(grain_total(values, low, high, grain) * grain)


def average_value(values, low, high, grain: Fraction = GRAIN) -> float:
    """Exact sum over max(1, count); an empty input averages to 0."""
    total = grain_total(values, low, high, grain) * grain
    return float(total / max(1, len(values)))


def quantile_choices(values, q, low, high, bins) -> frozenset:
    """Every bin midpoint whose rank score is the best one.

    A bin scores -|#{v < midpoint} - q * n|; with unbounded epsilon the
    exponential mechanism returns one of the top-scoring midpoints.
    """
    low, high = float(low), float(high)
    ordered = sorted(values)
    target = q * len(ordered)
    width = (high - low) / bins
    midpoints = [low + (i + 0.5) * width for i in range(bins)]
    scores = [-abs(bisect_left(ordered, mid) - target) for mid in midpoints]
    top = max(scores)
    return frozenset(m for m, s in zip(midpoints, scores) if s == top)


def truncate_by_key(rows, index: int, bound: int) -> list:
    """Keep the first `bound` rows of each key in canonical row order
    (lexicographic; text by code point, which is UTF-8 byte order)."""
    parts: dict = {}
    for row in rows:
        parts.setdefault(row[index], []).append(row)
    kept = []
    for part in parts.values():
        kept.extend(sorted(part)[:bound])
    return kept


def grouped(rows, keys, aggregate) -> list[tuple]:
    """One (key..., value) row per key, in key order, absent keys included.

    Each input row starts with its key columns."""
    width = len(keys[0]) if keys else 1
    parts: dict = {}
    for row in rows:
        parts.setdefault(tuple(row[:width]), []).append(row)
    return [tuple(key) + (aggregate(parts.get(tuple(key), [])),) for key in keys]


def matches(expected, rows) -> bool:
    """Whether released rows equal a reference answer.

    `expected` is a list of grouped rows, a single value, or a frozenset
    of admissible values (quantiles)."""
    if isinstance(expected, list):
        return len(rows) == len(expected) and all(
            tuple(got) == tuple(want) for got, want in zip(rows, expected)
        )
    if len(rows) != 1 or len(rows[0]) != 1:
        return False
    value = rows[0][0]
    if isinstance(expected, frozenset):
        return value in expected
    return type(value) is type(expected) and value == expected
