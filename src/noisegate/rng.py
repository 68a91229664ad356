"""Deterministic, forkable randomness.

An RngStream is a root seed plus a derivation path.  The same seed and
path always produce the same draws, and distinct paths behave as
independent streams.  A session derives one stream per ask, from the
ask's ordinal, and the ask's measurement turns it into one generator that
every part of the query draws from in a fixed order (stream v2), which is
what makes whole pipelines replayable from a single seed.
"""

from __future__ import annotations

import hashlib
import random

from .records import Record

_LABEL_SEPARATOR = b"\x1f"


def _encode_label(label) -> bytes:
    # Type-prefixed so that 1 and "1" derive different streams.
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, int):
        return b"i:" + str(label).encode("ascii")
    if isinstance(label, str):
        return b"s:" + label.encode("utf-8")
    if isinstance(label, bytes):
        return b"b:" + label
    raise TypeError(f"labels must be int, str, or bytes, got {type(label).__name__}")


class RngStream(Record):
    """A seed plus a path of labels identifying one random stream."""

    seed: int
    path: tuple = ()

    def child(self, *labels) -> "RngStream":
        """A stream for a sub-computation; distinct labels, distinct draws."""
        return RngStream(self.seed, self.path + tuple(labels))

    def generator(self) -> random.Random:
        """A fresh PRNG positioned at the start of this stream."""
        digest = hashlib.sha256()
        digest.update(_encode_label(self.seed))
        for label in self.path:
            digest.update(_LABEL_SEPARATOR)
            digest.update(_encode_label(label))
        return random.Random(int.from_bytes(digest.digest(), "big"))
