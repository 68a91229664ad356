"""Dataset metrics, output measures, and privacy distance maps.

A metric says how far apart two datasets are; a measure says how privacy
loss between output distributions is quantified.  Distance maps tie the
two together: every transformation carries a map bounding how much it can
stretch input distances, and every measurement carries a map from input
distance to privacy loss.  Maps are monotone and send 0 to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

INF = math.inf

Distance = Union[int, Fraction, float]

# Rational arithmetic everywhere, with math.inf as the one non-rational
# distance.  These helpers keep 0 * inf from ever appearing.


def scale_distance(slope: Fraction, d: Distance) -> Distance:
    if slope == 0:
        return Fraction(0)
    if d == INF:
        return INF
    return slope * Fraction(d)


def add_distances(values: Sequence[Distance]) -> Distance:
    if any(v == INF for v in values):
        return INF
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
    return total


# ---------------------------------------------------------------------------
# Output measures.


@dataclass(frozen=True)
class PureDP:
    """Privacy loss is the max-divergence bound epsilon."""


@dataclass(frozen=True)
class ZCDP:
    """Privacy loss is the zero-concentrated bound rho."""


Measure = Union[PureDP, ZCDP]


# ---------------------------------------------------------------------------
# Dataset metrics.


@dataclass(frozen=True)
class SymmetricDifference:
    """Multiset symmetric difference between two tables."""


@dataclass(frozen=True)
class AddRemoveIds:
    """Distance counts whole-identifier additions and removals.

    Replacing the rows of one identifier costs 2 (remove it, add it back
    with new rows); adding or dropping an identifier outright costs 1.
    """

    id_column: str


@dataclass(frozen=True)
class GroupedBy:
    """Partition both tables by key columns, sum inner distances per key."""

    key_columns: tuple[str, ...]
    inner: "Metric"


@dataclass(frozen=True)
class TableTuple:
    """Componentwise distances over a tuple of tables, reduced by L1 sum."""

    components: tuple["Metric", ...]


@dataclass(frozen=True)
class BoundedLists:
    """Positionwise inner distances over lists of tables, summed.

    Lists of unequal length are compared by padding the shorter one with
    empty tables.
    """

    inner: "Metric"


Metric = Union[SymmetricDifference, AddRemoveIds, GroupedBy, TableTuple, BoundedLists]


# ---------------------------------------------------------------------------
# Distance maps.


@dataclass(frozen=True)
class DistanceMap:
    """A monotone map from input distance to output distance.

    The shape tag drives composition rules: linear maps compose and sum by
    slope arithmetic and are the only shape parallel composition accepts.
    Everything else is tagged general and treated as opaque.
    """

    shape: str  # "linear" or "general"
    slope: Fraction | None = None
    fn: Callable[[Distance], Distance] | None = None

    def __call__(self, d: Distance) -> Distance:
        if d != INF and d < 0:
            raise ValueError(f"distances are non-negative, got {d!r}")
        if self.shape == "linear":
            return scale_distance(self.slope, d)
        return self.fn(d)


def linear_map(slope: Fraction | int) -> DistanceMap:
    slope = Fraction(slope)
    if slope < 0:
        raise ValueError("a distance map's slope must be non-negative")
    return DistanceMap(shape="linear", slope=slope)


def general_map(fn: Callable[[Distance], Distance]) -> DistanceMap:
    return DistanceMap(shape="general", fn=fn)


def compose_maps(outer: DistanceMap, inner: DistanceMap) -> DistanceMap:
    """The map d -> outer(inner(d))."""
    if outer.shape == "linear" and inner.shape == "linear":
        return linear_map(outer.slope * inner.slope)
    return general_map(lambda d: outer(inner(d)))


def sum_maps(maps: Sequence[DistanceMap]) -> DistanceMap:
    """The pointwise sum of maps, for sequential composition."""
    maps = list(maps)
    if not maps:
        raise ValueError("sum_maps needs at least one map")
    if all(m.shape == "linear" for m in maps):
        return linear_map(sum((m.slope for m in maps), Fraction(0)))
    return general_map(lambda d: add_distances([m(d) for m in maps]))


def max_slope_map(maps: Sequence[DistanceMap]) -> DistanceMap:
    """linear(max slope) over linear maps, for composition over subsets."""
    slopes = []
    for m in maps:
        if m.shape != "linear":
            raise ValueError("max_slope_map needs linear maps")
        slopes.append(m.slope)
    return linear_map(max(slopes))
