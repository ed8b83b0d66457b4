"""Match sinks — where enumeration results go.

The paper's jobs write matches to HDFS; a library needs more options.

The one contract
----------------
Every run hands its sink :class:`RowBlock` objects: RES appends each
match (a full match tuple, or VCBC code slots when compressed) to a
per-chunk flat buffer, and at the chunk boundary the backend passes the
buffer on through :func:`block_emitter` — a call or a few per chunk of
tasks (or per worker chunk), not one per match.  The built-in sinks work
per block (a table lookup, a column selection, a truncation) and forward
through ``block_emitter(inner)``; a terminal sink — a file, a callback, a
user's object — may implement only ``emit(row)``, and
:func:`block_emitter`, the one caller of ``emit``, feeds it the block's
rows one tuple at a time.  ``collect=True`` is a :class:`CollectSink` at
the bottom of the same chain.

Provided sinks:

* :class:`CountSink` — count only (cheapest; the default mode does this
  without a sink at all);
* :class:`CollectSink` — keep everything in memory;
* :class:`FileSink` — stream matches to a TSV file;
* :class:`ReservoirSink` — a uniform random sample of bounded size, for
  result sets too large to keep (reservoir sampling, seeded);
* :class:`CallbackSink` — adapt any callable;
* :class:`JsonlSink` — stream matches as JSON lines to any writable;
* :class:`LimitSink` — end the run after N results via a control;
* :class:`TranslatingSink` — translate vertex ids before forwarding;
* :class:`ProjectingSink` — narrow match tuples to selected columns;
* :class:`GroupCountSink` — per-group-key match counts (GROUP BY).
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

try:  # numpy is optional: without it blocks translate through the dict
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less CI
    _np = None


class RowBlock:
    """A flat sequence of fixed-width rows.

    ``flat`` holds ``len(block) * width`` values, row-major: an
    ``array('q')`` when they are int64s (uncompressed matches over integer
    ids), a plain ``list`` otherwise (string ids, frozenset VCBC slots).
    The block reads like a sequence of tuples — ``len``, iteration,
    indexing, slicing (a slice is a block), ``+`` — but a row only becomes
    a tuple when somebody iterates or indexes it.

    >>> block = RowBlock(array("q", [1, 2, 3, 4, 5, 6]), 3)
    >>> len(block), list(block), list(block[1:])
    (2, [(1, 2, 3), (4, 5, 6)], [(4, 5, 6)])
    >>> list(block.select((2, 0))), list(block.column(1))
    ([(3, 1), (6, 4)], [2, 5])
    """

    __slots__ = ("flat", "width")

    def __init__(self, flat: Union[array, list], width: int) -> None:
        if width < 1 or len(flat) % width:
            raise ValueError(
                f"{len(flat)} values do not make rows of width {width}"
            )
        self.flat = flat
        self.width = width

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], width: int) -> "RowBlock":
        """Pack an iterable of equal-width integer rows."""
        return cls(array("q", chain.from_iterable(rows)), width)

    def __len__(self) -> int:
        return len(self.flat) // self.width

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        # One shared iterator read ``width`` times per step: zip slices
        # the flat buffer into row tuples entirely in C.
        return zip(*[iter(self.flat)] * self.width)

    def __getitem__(self, key):
        width = self.width
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("row blocks slice contiguously")
            return RowBlock(self.flat[start * width : stop * width], width)
        if key < 0:
            key += len(self)
        if not 0 <= key < len(self):
            raise IndexError("row index out of range")
        return tuple(self.flat[key * width : (key + 1) * width])

    def __add__(self, other: "RowBlock") -> "RowBlock":
        if other.width != self.width:
            raise ValueError("row blocks of different widths do not join")
        return RowBlock(self.flat + other.flat, self.width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowBlock):
            return NotImplemented
        return self.width == other.width and self.flat == other.flat

    def __repr__(self) -> str:
        return f"RowBlock({len(self)} rows x {self.width})"

    def column(self, index: int) -> Union[array, list]:
        """One column's values, in row order."""
        return self.flat[index :: self.width]

    def select(self, indices: Sequence[int]) -> "RowBlock":
        """The block narrowed (and reordered) to the given columns."""
        columns = [self.flat[i :: self.width] for i in indices]
        flat = self.flat[:0]  # an empty buffer of the same kind
        flat.extend(chain.from_iterable(zip(*columns)))
        return RowBlock(flat, len(columns))


#: Rows per block at most: a producer holding a larger buffer (a hub
#: task's, a skewed worker chunk's) cuts it, so the copies a hop makes of
#: a block — a translation, a projection, a page — stay small whatever
#: the skew.
BLOCK_ROWS = 4096


def row_blocks(flat: Union[array, list], width: int) -> Iterator[RowBlock]:
    """``flat`` as row blocks of at most :data:`BLOCK_ROWS` rows each."""
    step = BLOCK_ROWS * width
    if len(flat) <= step:
        yield RowBlock(flat, width)
        return
    for start in range(0, len(flat), step):
        yield RowBlock(flat[start : start + step], width)


def block_emitter(sink) -> Callable[[RowBlock], None]:
    """The callable a producer hands row blocks to for ``sink``.

    The sink's own ``emit_block`` when it has one; otherwise the adapter
    for a terminal sink that only has ``emit(row)`` — the block's rows are
    made into tuples one at a time, so no more than one is alive.  The
    adapter is the only caller of a sink's ``emit``.
    """
    emit_block = getattr(sink, "emit_block", None)
    if emit_block is not None:
        return emit_block
    emit = sink.emit

    def emit_rows(block: RowBlock) -> None:
        for row in block:
            emit(row)

    return emit_rows


def block_translator(mapping: dict) -> Optional[Callable[[array], array]]:
    """``flat ids -> flat images`` under ``mapping``, for int64 blocks.

    None when a key or an image is not an int64 (such blocks translate
    into list-flat ones).  With numpy loaded and the keys dense enough for
    a lookup table the translation is one ``take`` over the flat buffer;
    otherwise one C-level ``map`` through the dict.
    """
    try:
        keys = array("q", mapping)
        images = array("q", mapping.values())
    except (TypeError, OverflowError):
        return None
    if _np is not None and keys:
        if min(keys) >= 0 and max(keys) < 2 * len(keys) + 64:
            table = _np.zeros(max(keys) + 1, dtype=_np.int64)
            table[_np.frombuffer(keys, dtype=_np.int64)] = _np.frombuffer(
                images, dtype=_np.int64
            )

            def take(flat: array) -> array:
                ids = _np.frombuffer(flat, dtype=_np.int64)
                return array("q", table.take(ids).tobytes())

            return take
    lookup = mapping.__getitem__
    return lambda flat: array("q", map(lookup, flat))


class CountSink:
    """Counts rows; keeps nothing."""

    def __init__(self) -> None:
        self.count = 0

    def emit_block(self, block: RowBlock) -> None:
        self.count += len(block)


class CollectSink:
    """Stores every row, as a tuple, in ``results``."""

    def __init__(self) -> None:
        self.results: List[Tuple] = []
        self.count = 0

    def emit_block(self, block: RowBlock) -> None:
        self.results.extend(block)
        self.count += len(block)


class FileSink:
    """Streams results to a TSV file (one line per result).

    Frozenset slots (VCBC image sets) render as comma-joined sorted ids
    in braces, e.g. ``{3,7,9}``.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[TextIO] = self.path.open("w", encoding="utf-8")
        self.count = 0

    @staticmethod
    def _format_slot(slot) -> str:
        if isinstance(slot, frozenset):
            return "{" + ",".join(map(str, sorted(slot))) + "}"
        return str(slot)

    def emit(self, result: Tuple) -> None:
        assert self._fh is not None, "sink is closed"
        self._fh.write("\t".join(self._format_slot(s) for s in result) + "\n")
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "FileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReservoirSink:
    """Keeps a uniform random sample of at most ``capacity`` results.

    Classic reservoir sampling: after N emissions each result is retained
    with probability capacity/N.  Seeded for reproducibility.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.sample: List[Tuple] = []
        self.count = 0
        self._rng = random.Random(seed)

    def emit(self, result: Tuple) -> None:
        self.count += 1
        if len(self.sample) < self.capacity:
            self.sample.append(result)
            return
        j = self._rng.randrange(self.count)
        if j < self.capacity:
            self.sample[j] = result


class CallbackSink:
    """Adapts a plain callable to the sink interface."""

    def __init__(self, callback: Callable[[Tuple], None]) -> None:
        self._callback = callback
        self.count = 0

    def emit(self, result: Tuple) -> None:
        self._callback(result)
        self.count += 1


class JsonlSink:
    """Streams each result as one JSON array line to a writable.

    Frozenset slots (VCBC image sets) render as sorted JSON arrays.  The
    writable is borrowed, not owned — handy for ``sys.stdout``.
    """

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self.count = 0

    @staticmethod
    def _json_slot(slot) -> object:
        if isinstance(slot, frozenset):
            return sorted(slot)
        return slot

    def emit(self, result: Tuple) -> None:
        import json

        self._stream.write(
            json.dumps([self._json_slot(s) for s in result]) + "\n"
        )
        self.count += 1


class LimitSink:
    """Forwards at most ``limit`` results, then ends the run.

    Pairs with an :class:`~repro.engine.control.ExecutionControl` handed
    to the executor: once the limit is reached the control's
    ``limit_reached`` is set, so the job stops at the next chunk boundary
    instead of enumerating everything and returns its result — counters
    through the chunk that filled the limit.  Every backend hands rows
    over in task order, so the rows kept are the unlimited run's prefix;
    results past the limit within the current chunk are dropped.
    """

    def __init__(self, inner, limit: int, control=None) -> None:
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self.inner = inner
        self.limit = limit
        self.control = control
        self.count = 0
        self._inner_block = block_emitter(inner)

    @property
    def reached(self) -> bool:
        return self.count >= self.limit

    def emit_block(self, block: RowBlock) -> None:
        """The limit as a truncation: the block's head, then the stop."""
        if not len(block):
            return
        room = self.limit - self.count
        if room > 0:
            if len(block) > room:
                block = block[:room]
            self._inner_block(block)
            self.count += len(block)
        if self.count >= self.limit and self.control is not None:
            self.control.limit_reached = True


class TranslatingSink:
    """Translates vertex ids through a mapping before forwarding.

    Frozenset slots translate member-wise.  Used by the execution stage
    to deliver matches — streamed or collected — in original
    (pre-relabeling) ids.

    ``translator`` is ``block_translator(mapping)`` when the caller
    already holds it (a prepared graph computes it once for every query);
    left out, it is built on the first block.
    """

    _UNSET = object()

    def __init__(self, inner, mapping: dict, translator=_UNSET) -> None:
        self.inner = inner
        self.mapping = mapping
        self.count = 0
        self._inner_block = block_emitter(inner)
        self._translator = translator

    def _translate(self, slot):
        if isinstance(slot, frozenset):
            return frozenset(self.mapping[v] for v in slot)
        return self.mapping[slot]

    def emit_block(self, block: RowBlock) -> None:
        """One table lookup over an int64 block's flat buffer."""
        translate = self._translator
        if translate is self._UNSET:
            translate = self._translator = block_translator(self.mapping)
        if translate is not None and isinstance(block.flat, array):
            flat = translate(block.flat)
        else:
            # Images that are not int64s (string ids), or slots that are
            # not (VCBC sets): the block leaves packing.
            flat = list(map(self._translate, block.flat))
        self._inner_block(RowBlock(flat, block.width))
        self.count += len(block)


class ProjectingSink:
    """Projects match tuples to a fixed set of column indices.

    The BENU-QL ``RETURN a, c`` path: the engine always emits full match
    tuples (indexed by sorted pattern vertex); this sink narrows them to
    the requested columns before forwarding.
    """

    def __init__(self, inner, indices: Sequence[int]) -> None:
        self.inner = inner
        self.indices = tuple(indices)
        self.count = 0
        self._inner_block = block_emitter(inner)

    def emit_block(self, block: RowBlock) -> None:
        self._inner_block(block.select(self.indices))
        self.count += len(block)


class GroupCountSink:
    """Counts matches per value of one match-tuple slot.

    The BENU-QL ``COUNT(*) GROUP BY v`` path: nothing is materialized;
    ``counts`` maps each group key (a vertex id) to its match count.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.counts: dict = {}
        self.count = 0

    def emit_block(self, block: RowBlock) -> None:
        """A count over one column; keys keep first-seen order."""
        counts = self.counts
        for key, n in Counter(block.column(self.index)).items():
            counts[key] = counts.get(key, 0) + n
        self.count += len(block)
