import collections
import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import noisegate
from noisegate.errors import DuplicateColumn, NonPositiveBound
from noisegate.measurements import GeometricMechanism
from noisegate.metrics import ZCDP, DistanceMap, PureDP
from noisegate.records import Record, record_fields
from noisegate.session import AddMaxRows, Average, Filter, Sum, query
from noisegate.tabledata import ColumnType, Schema, Table

INT64 = ColumnType.INT64


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


class Doubled(Record):
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative")
        object.__setattr__(self, "n", 2 * self.n)


def test_positional_keyword_and_default_arguments():
    assert Point(1, 2, "q") == Point(x=1, y=2, label="q") == Point(1, label="q", y=2)
    assert (Point(1).x, Point(1).y, Point(1).label) == (1, 0, "p")
    assert (Point(1, 5).y, Point(1, 5).label) == (5, "p")
    assert Point(1, label="r") == Point(1, 0, "r")
    assert record_fields(Point) == {"x": dataclasses.MISSING, "y": 0, "label": "p"}
    assert record_fields(Point(1)) == record_fields(Point)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required argument 'x'"),
        ((), {"y": 2}, "missing required argument 'x'"),
        ((1, 2, "q", 4), {}, "takes 3 arguments but 4 were given"),
        ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
        ((1,), {"x": 2}, "multiple values for argument 'x'"),
    ],
)
def test_a_missing_extra_or_duplicated_argument_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_post_init_runs_and_may_set_a_field():
    assert Doubled(3).n == 6
    with pytest.raises(ValueError):
        Doubled(-1)
    with pytest.raises(DuplicateColumn):
        Schema.of(("a", INT64), ("a", INT64))
    with pytest.raises(NonPositiveBound):
        AddMaxRows(0)
    assert DistanceMap(1).quadratic == Fraction(0)
    assert Sum(query("t"), "x", 0, 1, 0.1).granularity == Fraction(1, 10)


def test_post_init_is_looked_up_on_every_call(monkeypatch):
    # A tracer may rewrap Table.__post_init__ after the class is built.
    seen = []
    original = Table.__post_init__

    def counting(self):
        seen.append(len(self.rows))
        original(self)

    monkeypatch.setattr(Table, "__post_init__", counting)
    Table.of(Schema.of(("a", INT64)), [(1,), (2,)])
    assert seen == [2]


def test_assigning_or_deleting_raises_frozen_instance_error():
    point = Point(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.x = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.other = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del point.x
    with pytest.raises(dataclasses.FrozenInstanceError):
        Schema.of(("a", INT64)).columns = ()
    assert point == Point(1)


def test_equality_and_hash_go_by_exact_class_and_fields():
    child = query("t")
    total, mean = Sum(child, "x", 0, 1), Average(child, "x", 0, 1)
    assert total != mean and mean != total
    assert total == Sum(query("t"), "x", 0, 1)
    assert hash(total) == hash(Sum(query("t"), "x", 0, 1))
    assert total != Sum(child, "x", 0, 2)
    assert Point(1) != (1, 0, "p")
    assert PureDP() == PureDP() and PureDP() != ZCDP()
    assert len({Point(1), Point(1), Point(2)}) == 2


def test_a_table_is_equal_only_to_itself():
    schema = Schema.of(("a", INT64))
    table, twin = Table.of(schema, [(1,)]), Table.of(schema, [(1,)])
    assert table == table and table != twin
    assert len({table, twin, table}) == 2


def test_repr_is_the_dataclass_text():
    schema = Schema.of(("a", INT64))
    assert repr(schema) == "Schema(columns=(('a', <ColumnType.INT64: 'int64'>),))"
    assert repr(Filter(query("t"), "a > 1")) == (
        "Filter(child=Source(table='t'), predicate='a > 1')"
    )
    # rate is worked out from the fields, so it is not one.
    mechanism = GeometricMechanism(Fraction(1), 2)
    assert mechanism.rate == Fraction(1, 2)
    assert repr(mechanism) == "GeometricMechanism(epsilon_unit=Fraction(1, 1), sensitivity=2)"


def test_repr_writes_an_int_or_fraction_of_any_length():
    assert repr(Point(True, -3)) == "Point(x=True, y=-3, label='p')"
    assert repr(Point(Fraction(-1, 3), 10**4300)) == (
        f"Point(x=Fraction(-1, 3), y=1{'0' * 4300}, label='p')"
    )


def test_only_measurement_and_transformation_are_dataclasses():
    dataclasses_found = set()
    records = 0
    for module in pkgutil.iter_modules(noisegate.__path__, "noisegate."):
        for _, cls in inspect.getmembers(importlib.import_module(module.name), inspect.isclass):
            if cls.__module__ != module.name:
                continue
            if hasattr(cls, "__dataclass_fields__"):
                dataclasses_found.add(cls.__qualname__)
            records += issubclass(cls, Record)
    assert dataclasses_found == {"Measurement", "Transformation"}
    assert records >= 40


def _nested(depth, innermost):
    # Each level holds the one below it inside a tuple, beside a field.
    point = Point(innermost)
    for i in range(depth):
        point = Point((point, i), label=str(i % 2))
    return point


def test_records_nested_through_tuples_compare_hash_and_print_at_any_depth():
    deep, twin, other = _nested(20_000, 1), _nested(20_000, 1), _nested(20_000, 2)
    assert deep == twin and deep != other
    assert hash(deep) == hash(twin)
    assert len({deep, twin, other}) == 2
    assert repr(deep) == repr(twin)
    assert repr(_nested(2, 1)) == (
        "Point(x=(Point(x=(Point(x=1, y=0, label='p'), 0), y=0, label='0'), 1), "
        "y=0, label='1')"
    )
    assert repr(Point((), (1,), ("a", None))) == "Point(x=(), y=(1,), label=('a', None))"
    pair = collections.namedtuple("pair", "a b")
    assert Point((deep, 2)) == Point(pair(twin, 2))
    assert hash(Point((deep, 2))) == hash(Point(pair(twin, 2)))
