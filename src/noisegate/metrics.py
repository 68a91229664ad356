"""Dataset metrics, output measures, and privacy distance maps.

A metric says how far apart two datasets are; a measure says how privacy
loss between output distributions is quantified.  Distance maps tie the
two together: every transformation carries a map bounding how much it can
stretch input distances, and every measurement carries a map from input
distance to privacy loss.  A map is two non-negative rational
coefficients, d -> slope * d + quadratic * d^2, so maps are monotone,
send 0 to 0, and hold no code.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Sequence, Union

from .errors import TypeMismatch
from .records import Record
from .tabledata import expect

INF = math.inf

# The most decimal digits int() converts by default.  A decimal exponent
# beyond it is refused before Fraction builds a power of ten that long:
# Fraction("1e1000000") alone takes a quarter of a second.
_MAX_EXPONENT = 4300


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text), but ValueError for a decimal exponent beyond
    ±_MAX_EXPONENT, whatever its mantissa."""
    _, marker, exponent = text.lower().partition("e")
    if marker and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponents are at most {_MAX_EXPONENT} in size")
    return Fraction(text)


def parse_budget_amount(amount):
    """The one rule for a budget or a spend: text ('inf', 'a/b' or a
    decimal), an int, a Fraction or INF becomes a non-negative Fraction or
    INF, and a value that is exactly a Fraction is returned as it is.  A
    float (so accounting never inherits binary rounding), a negative amount
    or a decimal exponent beyond ±4300 raises TypeMismatch, as does a bool
    or any other type.  INF comes back as INF itself, so `is INF` tells an
    amount this returns from every finite one."""
    if type(amount) is not Fraction:
        expect(amount, (str, int, float, Fraction), TypeMismatch, "an amount", "text, int or Fraction")
        if amount == INF or (
            isinstance(amount, str) and amount.strip().lower() in ("inf", "infinity")
        ):
            return INF
        if isinstance(amount, float):
            raise TypeMismatch(f"budget amounts must be exact, not the float {amount!r}")
        try:
            amount = _parse_fraction(amount) if isinstance(amount, str) else Fraction(amount)
        except (ValueError, ZeroDivisionError) as exc:
            raise TypeMismatch(f"cannot parse budget amount {amount!r}") from exc
    if amount < 0:
        raise TypeMismatch(f"budget amounts are non-negative, got {amount}")
    return amount


def as_fraction(value) -> Fraction:
    """value as a Fraction: itself when it is exactly one, where
    Fraction(value) would build an equal copy."""
    return value if type(value) is Fraction else Fraction(value)


def format_amount(amount) -> str:
    """An exact amount or INF as text: "inf", or the Fraction as str()
    writes it ("n" or "n/d").  The digits go through Decimal, which writes
    an int of any length: str() refuses one of more than 4,300 digits, and
    accounting reaches that from amounts parse_budget_amount accepts (a
    budget of 1e4300 less a spend of 1/2)."""
    if amount == INF:
        return "inf"
    amount = Fraction(amount)
    numerator = str(Decimal(amount.numerator))
    if amount.denominator == 1:
        return numerator
    return f"{numerator}/{Decimal(amount.denominator)}"


Distance = Union[int, Fraction, float]

# ---------------------------------------------------------------------------
# Output measures.


class PureDP(Record):
    """Privacy loss is the max-divergence bound epsilon."""


class ZCDP(Record):
    """Privacy loss is the zero-concentrated bound rho."""


Measure = Union[PureDP, ZCDP]


# ---------------------------------------------------------------------------
# Dataset metrics.


class SymmetricDifference(Record):
    """Multiset symmetric difference between two tables."""


class AddRemoveIds(Record):
    """Distance counts whole-identifier additions and removals.

    Replacing the rows of one identifier costs 2 (remove it, add it back
    with new rows); adding or dropping an identifier outright costs 1.
    """

    id_column: str


class GroupedBy(Record):
    """Partition both tables by key columns, sum inner distances per key."""

    key_columns: tuple[str, ...]
    inner: "Metric"


class TableTuple(Record):
    """Componentwise distances over a tuple of tables, reduced by L1 sum."""

    components: tuple["Metric", ...]


class BoundedLists(Record):
    """Positionwise inner distances over lists of tables, summed.

    Lists of unequal length are compared by padding the shorter one with
    empty tables.
    """

    inner: "Metric"


Metric = Union[SymmetricDifference, AddRemoveIds, GroupedBy, TableTuple, BoundedLists]


# ---------------------------------------------------------------------------
# Distance maps.


class DistanceMap(Record):
    """The monotone map d -> slope * d + quadratic * d^2.

    Both coefficients are non-negative rationals, so every map is data
    and prints as its two numbers.  Stabilities and pure-DP privacy
    functions are linear (quadratic 0); a zCDP privacy function is the
    quadratic rho * d^2 (Bun & Steinke 2016).  The form is closed under
    sums, coefficient-wise maxima and composition with a linear map, the
    only combinations the compiler makes, and every map is superadditive:
    f(a) + f(b) <= f(a + b).  Distances are rational, with math.inf as the
    one non-rational distance, and 0 * inf is 0.
    """

    slope: Fraction
    quadratic: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # A coefficient that is exactly a Fraction is kept as it is, and a
        # Fraction's sign is its numerator's.
        for name in ("slope", "quadratic"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                value = Fraction(value)
                object.__setattr__(self, name, value)
            if value.numerator < 0:
                raise ValueError(f"a distance map's {name} must be non-negative, got {value}")

    def __call__(self, d: Distance) -> Distance:
        if d == INF:
            return INF if self.slope or self.quadratic else Fraction(0)
        if d < 0:
            raise ValueError(f"distances are non-negative, got {d!r}")
        if type(d) is not int:
            d = as_fraction(d)
        value = self.slope * d
        return value + self.quadratic * (d * d) if self.quadratic else value


def linear_map(slope: Fraction | int) -> DistanceMap:
    return DistanceMap(slope)


def compose_maps(outer: DistanceMap, inner: DistanceMap) -> DistanceMap:
    """The map d -> outer(inner(d)), for a linear inner map: outer itself
    when inner is the identity."""
    if inner.quadratic:
        raise ValueError("compose_maps needs a linear inner map")
    s = inner.slope
    if s == 1:
        return outer
    return DistanceMap(outer.slope * s, outer.quadratic and outer.quadratic * s * s)


def sum_maps(maps: Sequence[DistanceMap]) -> DistanceMap:
    """The pointwise sum of maps, for sequential composition."""
    maps = list(maps)
    if not maps:
        raise ValueError("sum_maps needs at least one map")
    # Each sum starts from the first map's coefficient, not from the int 0.
    first, *rest = maps
    return DistanceMap(
        sum((m.slope for m in rest), first.slope),
        sum((m.quadratic for m in rest), first.quadratic),
    )


def max_map(maps: Sequence[DistanceMap]) -> DistanceMap:
    """The coefficient-wise maximum of maps, for composition over subsets:
    at every distance it is at least each of them."""
    return DistanceMap(max(m.slope for m in maps), max(m.quadratic for m in maps))
