"""Per-module spans for the benchmark's traced run.

The tracer wraps public names of noisegate at the places their callers
look them up, times every call as a span, and folds spans into per-kind
self times (a span's duration minus its child spans) and counts as they
close, so memory stays flat however many spans a run makes.  Nothing in
noisegate changes: `install` swaps attributes, `remove` puts back the
exact original objects, and `restored` checks that it did.

Transformation and measurement kinds are tagged by wrapping the `make_*`
constructors the session compiler calls: the objects they return get a
timed `_apply` / `_eval`.  With `count_prng`, every generator a stream
hands out also counts its integer draws; that costs a Python call per
draw, so it is kept out of the timed traced loop.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import defaultdict

ROOT = "session.evaluate"

# Constructors whose products are tagged: (module, attribute, span kind).
TRANSFORMATIONS = [
    ("transformations", "make_filter", "transformations.filter"),
    ("transformations", "make_map", "transformations.map"),
    ("transformations", "make_public_join", "transformations.public_join"),
    ("transformations", "make_truncate_by_id", "transformations.truncate_by_id"),
    ("transformations", "make_private_join", "transformations.private_join"),
]
MEASUREMENTS = [
    ("session", "make_count", "measurements.count"),
    ("session", "make_sum", "measurements.sum"),
    ("session", "make_average", "measurements.average"),
    ("session", "make_quantile", "measurements.quantile"),
    ("session", "compose_per_group", "measurements.per_group"),
]
# Functions and methods timed directly: (module, owner or None, name, kind).
CALLS = [
    ("session", "Session", "evaluate", ROOT),
    ("session", None, "compile_query", "session.compile"),
    ("measurements", "Queryable", "ask", "session.ledger"),
    ("tabledata", "Table", "__post_init__", "tabledata.table_build"),
    ("measurements", None, "split_by_key", "tabledata.split_by_key"),
    ("transformations", None, "split_by_key", "tabledata.split_by_key"),
    ("transformations", None, "canonicalize", "tabledata.canonicalize"),
    ("measurements", None, "sample_two_sided_geometric", "noise.geometric"),
    ("measurements", None, "sample_discrete_gaussian", "noise.gaussian"),
    ("rng", "RngStream", "generator", "rng.derive"),
]
PER_GROUP = "measurements.per_group"


class Tracer:
    def __init__(self, noisegate, count_prng: bool = False):
        self.modules = {name: getattr(noisegate, name) for name in (
            "session", "measurements", "transformations", "tabledata", "rng")}
        self.count_prng = count_prng
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_time = 0.0
        self._stack: list[list] = []  # [kind, child time]
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _timed(self, kind, fn, on_call=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack and kind != ROOT:
                return fn(*args, **kwargs)  # outside any evaluate
            if on_call is not None:
                on_call(args)
            frame = [kind, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.self_time[kind] += duration - frame[1]
                self.counts[kind] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_time += duration

        return wrapper

    def _count_rows(self, args):
        self.counts["tabledata.rows_validated"] += len(args[0].rows)

    def _count_group(self, args):
        if self._stack and self._stack[-1][0] == PER_GROUP:
            self.counts["measurements.groups_released"] += 1
            if not args[0].rows:
                self.counts["measurements.empty_groups"] += 1

    def _tagging(self, kind, make, field):
        on_call = self._count_group if field == "_eval" else None

        def constructor(*args, **kwargs):
            made = make(*args, **kwargs)
            inner = getattr(made, field)
            return dataclasses.replace(made, **{field: self._timed(kind, inner, on_call)})

        return constructor

    def _generator(self, original):
        if not self.count_prng:
            return self._timed("rng.derive", original)

        counts = self.counts

        class Counting(random.Random):
            # Swapped in by class, so the generator's state and stream stay
            # exactly as the original made them.
            def getrandbits(self, k):
                counts["noise.prng_calls"] += 1
                return super().getrandbits(k)

        def generator(stream):
            made = original(stream)
            made.__class__ = Counting
            return made

        return self._timed("rng.derive", generator)

    # -- install / remove ----------------------------------------------------

    def _targets(self):
        """(label, owner, name, kind, field) for every name install wraps.

        `field` is the attribute tagged on what a constructor returns, or
        None for a call that is timed itself; `owner` is None when a class
        it should be on no longer exists."""
        for module, name, kind in TRANSFORMATIONS + MEASUREMENTS:
            field = "_apply" if module == "transformations" else "_eval"
            yield f"{module}.{name}", self.modules[module], name, kind, field
        for module, owner, name, kind in CALLS:
            target = self.modules[module]
            if owner:
                target = getattr(target, owner, None)
            yield f"{module}.{owner or ''}.{name}", target, name, kind, None

    def originals(self) -> dict:
        """The objects install would replace, keyed by (owner, name)."""
        return {
            (owner, name): owner.__dict__[name]
            for _, owner, name, _, _ in self._targets()
            if owner is not None and name in owner.__dict__
        }

    def install(self) -> None:
        for label, owner, name, kind, field in self._targets():
            if owner is None or name not in owner.__dict__:
                self.missing.append(label)
                continue
            original = owner.__dict__[name]
            if field is not None:
                wrapped = self._tagging(kind, original, field)
            elif kind == "rng.derive":
                wrapped = self._generator(original)
            elif kind == "tabledata.table_build":
                wrapped = self._timed(kind, original, self._count_rows)
            else:
                wrapped = self._timed(kind, original)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def restored(self, originals: dict) -> bool:
        """Whether every traced name is its original object again."""
        return not self._saved and all(
            owner.__dict__.get(name) is original
            for (owner, name), original in originals.items()
        )

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
