"""Immutable value records, built without generated code.

Nearly every value noisegate declares is a small immutable record: a
schema, a domain, a metric, a distance map, a budget, a query node.  They
were frozen dataclasses, and @dataclass writes each class's __init__,
__eq__, __hash__, __repr__, __setattr__ and __delattr__ as source text and
compiles it when the class is created.  For noisegate's 40 such classes
that was most of the package's import, which every CLI run pays before its
first query: with fresh bytecode and the standard-library modules it uses
already loaded, `import noisegate.cli` took 0.031-0.036 s with dataclasses
and takes 0.010-0.015 s with Record (medians of 9 fresh processes, Python
3.11.7, 2 cores).  Record gives the same behaviour from one set of methods
shared by every record class, which read the class's field list when they
run, so creating a record class costs no more than creating a plain one.

A record may nest to any depth: a query of 10,000 chained filters is a
chain of 10,000 records.  So __eq__, __hash__ and __repr__ walk nested
records, and plain tuples of them, with an explicit stack rather than
recursion, and a deep query can be compared, hashed, logged and used as a
key like any other value.  The walk costs about a microsecond per
comparison: equality of an 8-column TableDomain went from 0.5-0.75 to
1.7-1.85 us (timeit, Python 3.11.7).  A warm evaluate makes 3 to 5
record comparisons per query on the benchmark's scan workload and 5 to 7
on ids, and a record compared with itself, as a chain's steps compare
the domain and metric they share, is equal at once.  Values of other
types are compared, hashed and written as they are.

Measurement and Transformation stay dataclasses: callers rebuild them with
dataclasses.replace.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter


def _values_getter(names: tuple):
    """A function of a record giving its field values, as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


class _Text(str):
    """Literal text of a repr, as against a value to be written by repr."""


def _field_repr(value) -> str:
    """repr(value), with the digits of an int or a Fraction written through
    Decimal, which writes an int of any length: repr refuses one of more
    than 4,300 digits, and exact accounting reaches that (a budget of
    10^4300 less a spend of 1/2)."""
    if type(value) is int:
        return str(Decimal(value))
    if type(value) is Fraction:
        return f"Fraction({Decimal(value.numerator)}, {Decimal(value.denominator)})"
    return repr(value)


class Record:
    """Base class of an immutable record.

    Each annotation in a subclass body declares a field, after the fields
    of its record bases; a class attribute of the same name is the field's
    default.  Records are built like frozen dataclasses: positionally in
    field order or by keyword, then __post_init__ runs (looked up on each
    call, so a class may rewrap it), and it may set fields with
    object.__setattr__.  Two records are equal when they are of the same
    class and their fields are equal, and they hash alike then; repr is
    `QualName(field=value, ...)`.  None of the three recurses through
    nested records or tuples.  Assigning or deleting any attribute
    raises FrozenInstanceError.
    """

    # Field name -> default (MISSING when it has none), and -> annotation
    # text, in field order; the names alone; the defaults of the fields after
    # the last required one; and a function of a record giving its values.
    _record_fields = {}
    _record_types = {}
    _record_names = ()
    _record_tail = ()
    _record_values = _values_getter(())

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        fields = {
            **cls._record_fields,
            **{name: cls.__dict__.get(name, MISSING) for name in own},
        }
        tail = []
        for default in reversed(fields.values()):
            if default is MISSING:
                break
            tail.insert(0, default)
        cls._record_fields = fields
        cls._record_types = {**cls._record_types, **own}
        cls._record_names = tuple(fields)
        cls._record_tail = tuple(tail)
        cls._record_values = _values_getter(cls._record_names)

    def __init__(self, *args, **kwargs) -> None:
        names = self._record_names
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in field order, from arguments that leave out a
        default or name a field by keyword."""
        fields = cls._record_fields
        if not kwargs and 0 < len(fields) - len(args) <= len(cls._record_tail):
            return args + cls._record_tail[len(args) - len(fields):]
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(
                    f"{cls.__qualname__}() got an unexpected keyword argument {name!r}"
                )
            if name in values:
                raise TypeError(
                    f"{cls.__qualname__}() got multiple values for argument {name!r}"
                )
            values[name] = value
        for name, default in fields.items():
            if name not in values:
                if default is MISSING:
                    raise TypeError(
                        f"{cls.__qualname__}() missing required argument {name!r}"
                    )
                values[name] = default
        return tuple(values[name] for name in fields)

    def __post_init__(self) -> None:
        """Check or normalise the fields; a record without checks has none."""

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        # Pairs of value tuples of one length (two records' fields, or the
        # items of two tuples) whose items are still to be compared.
        values = type(self)._record_values
        pairs = [(values(self), values(other))]
        while pairs:
            for a, b in zip(*pairs.pop()):
                if a is b:
                    continue
                kind = type(a)
                if kind is not type(b):
                    if a != b:
                        return False
                elif kind is tuple:
                    if len(a) != len(b):
                        return False
                    pairs.append((a, b))
                elif kind.__eq__ is Record.__eq__:
                    pairs.append((kind._record_values(a), kind._record_values(b)))
                elif a != b:
                    return False
        return True

    def __hash__(self) -> int:
        # Every value the walk meets, with each record's class and each
        # tuple's length in front of the values inside it.  A tuple
        # subclass is walked too: it may equal a plain tuple.
        flat = [type(self)]
        stack = [type(self)._record_values(self)]
        while stack:
            for value in stack.pop():
                kind = type(value)
                if isinstance(value, tuple):
                    flat.append(len(value))
                    stack.append(value)
                elif kind.__hash__ is Record.__hash__:
                    flat.append(kind)
                    stack.append(kind._record_values(value))
                else:
                    flat.append(value)
        return hash(tuple(flat))

    def __repr__(self) -> str:
        text, stack = [], [self]
        while stack:
            value = stack.pop()
            kind = type(value)
            if kind is tuple:
                labels, items = [""] * len(value), value
                opening, closing = "(", ",)" if len(value) == 1 else ")"
            elif kind.__repr__ is Record.__repr__:
                labels = [f"{name}=" for name in kind._record_names]
                items = kind._record_values(value)
                opening, closing = f"{kind.__qualname__}(", ")"
            else:
                text.append(value if kind is _Text else _field_repr(value))
                continue
            parts = [_Text(opening)]
            for i, (label, item) in enumerate(zip(labels, items)):
                parts += (_Text(f", {label}" if i else label), item)
            parts.append(_Text(closing))
            stack.extend(reversed(parts))
        return "".join(text)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def record_fields(record) -> dict:
    """A record class's (or a record's) fields in order, each mapped to its
    default, or to dataclasses.MISSING when it has none."""
    return dict(record._record_fields)
