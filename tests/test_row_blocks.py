"""Row blocks: a sink sees the same rows however they are cut.

The contract of :mod:`repro.engine.sinks`: whatever a sink (or a chain of
sinks) does when it is handed a stream of rows as one-row blocks through
:func:`block_emitter`, it does when the same rows arrive cut into
:class:`RowBlock`\\ s of any sizes — same rows out, same order, same
counts, same batches, same cancel.  It holds for packed int64 blocks and
for list-flat ones alike (int rows, rows with frozenset slots, and
string images on the way out of a translation).

Seeded random suites run everywhere; when hypothesis is installed an
extra class runs the same assertions under its shrinking search.
"""

import io
import itertools
import random
import threading
from array import array

import pytest

from repro.engine import sinks
from repro.engine.control import ExecutionControl
from repro.engine.sinks import (
    BLOCK_ROWS,
    CallbackSink,
    CollectSink,
    CountSink,
    FileSink,
    GroupCountSink,
    JsonlSink,
    LimitSink,
    ProjectingSink,
    ReservoirSink,
    RowBlock,
    TranslatingSink,
    block_emitter,
    block_translator,
    row_blocks,
)
from repro.service.streaming import StreamBuffer

UNIVERSE = 40


# ------------------------------------------------------------------ inputs
#: How a case's rows are held: packed int64s, list-flat ints, and
#: list-flat rows whose even slots are frozensets (VCBC codes' shape).
KINDS = ("packed", "list", "sets")


def random_rows(rng, width, n, kind="packed"):
    def slot(i):
        if kind == "sets" and i % 2 == 0:
            return frozenset(rng.sample(range(UNIVERSE), rng.randint(1, 3)))
        return rng.randrange(UNIVERSE)

    return [tuple(slot(i) for i in range(width)) for _ in range(n)]


def make_block(rows, width, kind="packed"):
    if kind == "packed":
        return RowBlock.from_rows(rows, width)
    return RowBlock(list(itertools.chain.from_iterable(rows)), width)


def cut(rng, rows, width, kind="packed"):
    """``rows`` as a list of blocks of random sizes, empty ones included."""
    blocks = []
    start = 0
    while start < len(rows):
        size = rng.choice((0, 1, 2, 3, 7, 50))
        blocks.append(make_block(rows[start : start + size], width, kind))
        start += size
    blocks.append(make_block([], width, kind))
    return blocks


def feed_rows(sink, rows, width, kind="packed"):
    """The oracle: the rows one at a time, as one-row blocks."""
    emit_block = block_emitter(sink)
    for row in rows:
        emit_block(make_block([row], width, kind))


def feed_blocks(sink, blocks):
    emit_block = block_emitter(sink)
    for block in blocks:
        emit_block(block)


def drain(buffer):
    """Every batch of a closed buffer, rows as tuples."""
    buffer.close()
    batches = []
    while True:
        batch = buffer.next_batch(timeout=1)
        if batch is None:
            return batches
        batches.append(list(batch))


MAPPING = {v: 1000 + 3 * v for v in range(UNIVERSE)}
STRING_MAPPING = {v: f"v{v}" for v in range(UNIVERSE)}


# ------------------------------------------------------------- sink cases
# name -> (factory(width, tmp_path) -> sink, observe(sink) -> comparable)
def _collecting(wrap):
    """A case whose sink is ``wrap(CollectSink(), width)``."""

    def make(width, tmp_path):
        inner = CollectSink()
        outer = wrap(inner, width)
        outer._observed = inner
        return outer

    def observe(sink):
        inner = sink._observed
        control = getattr(sink, "control", None)
        return (
            inner.results,
            inner.count,
            sink.count,
            control.limit_reached if control is not None else None,
        )

    return make, observe


def _limit(limit):
    return _collecting(
        lambda inner, width: LimitSink(inner, limit, ExecutionControl())
    )


_file_names = itertools.count()


def _file_case():
    def make(width, tmp_path):
        return FileSink(tmp_path / f"out-{next(_file_names)}.tsv")

    def observe(sink):
        sink.close()
        return sink.path.read_text(), sink.count

    return make, observe


def _stream_chain(limit, batch_size, mapping=MAPPING):
    """What the service builds for ``RETURN a, c LIMIT n`` on a relabeled
    graph: Translating -> Projecting -> Limit -> StreamBuffer."""

    def make(width, tmp_path):
        buffer = StreamBuffer(batch_size=batch_size, max_batches=100_000)
        control = ExecutionControl()
        sink = LimitSink(buffer, limit, control) if limit is not None else buffer
        sink = ProjectingSink(sink, (width - 1, 0))
        sink = TranslatingSink(sink, mapping)
        sink._observed = (buffer, control)
        return sink

    def observe(sink):
        buffer, control = sink._observed
        return drain(buffer), buffer.count, control.limit_reached

    return make, observe


def _group_chain(mapping=MAPPING):
    """``COUNT(*) GROUP BY`` on a relabeled graph: Translating -> GroupCount."""

    def make(width, tmp_path):
        groups = GroupCountSink(width - 1)
        sink = TranslatingSink(groups, mapping)
        sink._observed = groups
        return sink

    def observe(sink):
        groups = sink._observed
        # list(): first-seen key order is part of the contract.
        return list(groups.counts.items()), groups.count

    return make, observe


CASES = {
    "count": (lambda w, t: CountSink(), lambda s: s.count),
    "collect": (lambda w, t: CollectSink(), lambda s: (s.results, s.count)),
    "callback": (
        lambda w, t: CallbackSink([].append),
        lambda s: (s._callback.__self__, s.count),
    ),
    "file": _file_case(),
    "jsonl": (
        lambda w, t: JsonlSink(io.StringIO()),
        lambda s: (s._stream.getvalue(), s.count),
    ),
    "reservoir": (
        lambda w, t: ReservoirSink(5, seed=3),
        lambda s: (s.sample, s.count),
    ),
    "limit-0": _limit(0),
    "limit-inside-a-block": _limit(11),
    "limit-beyond": _limit(10**6),
    "translate": _collecting(lambda inner, w: TranslatingSink(inner, MAPPING)),
    "translate-to-strings": _collecting(
        lambda inner, w: TranslatingSink(inner, STRING_MAPPING)
    ),
    "project": _collecting(lambda inner, w: ProjectingSink(inner, (w - 1, 0))),
    "group": (
        lambda w, t: GroupCountSink(w - 1),
        lambda s: (list(s.counts.items()), s.count),
    ),
    "chain-stream": _stream_chain(None, 4),
    "chain-stream-limit": _stream_chain(13, 4),
    "chain-stream-limit-0": _stream_chain(0, 4),
    "chain-groups": _group_chain(),
    # String images: every hop after the translation sees list-flat blocks.
    "chain-stream-strings": _stream_chain(None, 4, STRING_MAPPING),
    "chain-stream-limit-strings": _stream_chain(13, 4, STRING_MAPPING),
    "chain-groups-strings": _group_chain(STRING_MAPPING),
}


def assert_block_equals_rows(name, rows, blocks, width, tmp_path, kind="packed"):
    make, observe = CASES[name]
    by_row, by_block = make(width, tmp_path), make(width, tmp_path)
    feed_rows(by_row, rows, width, kind)
    feed_blocks(by_block, blocks)
    assert observe(by_block) == observe(by_row), name


# ------------------------------------------------------------------ tests
class TestRowBlock:
    def test_reads_as_a_sequence_of_tuples(self):
        block = RowBlock(array("q", range(12)), 3)
        assert len(block) == 4
        assert list(block) == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
        assert block[1] == (3, 4, 5) and block[-1] == (9, 10, 11)
        assert list(block[1:3]) == [(3, 4, 5), (6, 7, 8)]
        assert list(block[:0]) == [] and not block[:0]
        assert block[:2] + block[2:] == block
        with pytest.raises(IndexError):
            block[4]

    def test_width_one(self):
        block = RowBlock.from_rows([(7,), (8,), (9,)], 1)
        assert list(block) == [(7,), (8,), (9,)]
        assert list(block.column(0)) == [7, 8, 9]
        assert list(block.select((0, 0))) == [(7, 7), (8, 8), (9, 9)]

    def test_rejects_ragged_buffers(self):
        with pytest.raises(ValueError):
            RowBlock(array("q", range(5)), 3)
        with pytest.raises(ValueError):
            RowBlock(array("q"), 0)

    def test_row_blocks_bound_the_block_size(self):
        width = 3
        flat = array("q", range((2 * BLOCK_ROWS + 5) * width))
        blocks = list(row_blocks(flat, width))
        assert [len(b) for b in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 5]
        assert sum((b.flat for b in blocks), array("q")) == flat
        # A buffer that fits is handed on as it is, not copied.
        small = array("q", range(6))
        (only,) = row_blocks(small, width)
        assert only.flat is small


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("width", (1, 2, 4))
@pytest.mark.parametrize("seed", range(4))
def test_emit_block_equals_row_by_row_emit(name, width, seed, tmp_path):
    rng = random.Random(f"{name}:{width}:{seed}")
    rows = random_rows(rng, width, rng.choice((0, 1, 30, 200)))
    assert_block_equals_rows(name, rows, cut(rng, rows, width), width, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("width", (1, 2, 4))
@pytest.mark.parametrize("kind", ("list", "sets"))
def test_list_flat_blocks_equal_one_row_blocks(name, width, kind, tmp_path):
    rng = random.Random(f"{name}:{width}:{kind}")
    rows = random_rows(rng, width, rng.choice((1, 30, 200)), kind)
    blocks = cut(rng, rows, width, kind)
    assert_block_equals_rows(name, rows, blocks, width, tmp_path, kind)
    if kind == "list":
        # Int rows: list-flat blocks deliver what packed one-row blocks do.
        assert_block_equals_rows(name, rows, blocks, width, tmp_path)


@pytest.mark.parametrize("name", ("translate", "chain-stream-limit", "chain-groups"))
def test_without_numpy_blocks_translate_through_the_dict(
    name, monkeypatch, tmp_path
):
    monkeypatch.setattr(sinks, "_np", None)
    rng = random.Random(name)
    rows = random_rows(rng, 3, 120)
    assert_block_equals_rows(name, rows, cut(rng, rows, 3), 3, tmp_path)


class TestBlockTranslator:
    def test_numpy_table_and_dict_map_agree(self, monkeypatch):
        flat = array("q", [0, 5, 39, 5, 1])
        with_numpy = block_translator(MAPPING)(flat)
        monkeypatch.setattr(sinks, "_np", None)
        assert block_translator(MAPPING)(flat) == with_numpy
        assert list(with_numpy) == [MAPPING[v] for v in flat]

    def test_sparse_keys_translate_without_a_table(self):
        sparse = {10**12: 1, 7: 2}
        assert list(block_translator(sparse)(array("q", [7, 10**12]))) == [2, 1]

    @pytest.mark.parametrize(
        "mapping", ({0: "a"}, {0: 2**70}, {"a": 0}, {0: 1.5})
    )
    def test_images_that_are_not_int64_do_not_pack(self, mapping):
        assert block_translator(mapping) is None


class TestForeignSinks:
    def test_emit_only_sink_receives_exactly_the_rows(self):
        """A user sink with nothing but ``emit`` sits behind the adapter."""

        class Mine:
            def __init__(self):
                self.rows = []

            def emit(self, row):
                assert type(row) is tuple
                self.rows.append(row)

        mine = Mine()
        chain = TranslatingSink(ProjectingSink(mine, (1,)), MAPPING)
        rows = random_rows(random.Random(1), 2, 50)
        feed_blocks(chain, cut(random.Random(2), rows, 2))
        assert mine.rows == [(MAPPING[b],) for _, b in rows]


class TestStreamBufferBlocks:
    @pytest.mark.parametrize("block_rows", (1, 3, 10, 64, 1000))
    def test_buffered_rows_stay_bounded_whatever_block_sizes_arrive(
        self, block_rows
    ):
        """A consumer thread drains while the producer pushes blocks far
        larger than the whole buffer: the queue never holds more than
        ``batch_size x max_batches`` rows, and nothing is lost."""
        self._assert_bounded(block_rows, "packed")

    @pytest.mark.parametrize("block_rows", (1, 10, 1000))
    @pytest.mark.parametrize("kind", ("list", "sets"))
    def test_list_flat_blocks_batch_and_stay_bounded(self, block_rows, kind):
        self._assert_bounded(block_rows, kind)

    @staticmethod
    def _assert_bounded(block_rows, kind):
        batch_size, max_batches = 4, 3
        buffer = StreamBuffer(batch_size=batch_size, max_batches=max_batches)
        rows = random_rows(random.Random(block_rows), 2, 3000, kind)
        seen = []
        peak = 0

        def consume():
            nonlocal peak
            while True:
                with buffer._queue.mutex:
                    queued = list(buffer._queue.queue)
                peak = max(
                    peak, sum(len(b) for b in queued if isinstance(b, RowBlock))
                )
                batch = buffer.next_batch(timeout=10)
                if batch is None:
                    return
                assert len(batch) <= batch_size
                assert isinstance(batch.flat, array if kind == "packed" else list)
                seen.extend(batch)

        consumer = threading.Thread(target=consume)
        consumer.start()
        for start in range(0, len(rows), block_rows):
            buffer.emit_block(
                make_block(rows[start : start + block_rows], 2, kind)
            )
        buffer.close()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert seen == rows
        assert buffer.count == len(rows)
        assert 0 < peak <= batch_size * max_batches

    def test_replay_window_re_serves_a_lost_packed_page(self):
        from repro.service.streaming import QueryHandle, QueryStatus

        control = ExecutionControl()
        buffer = StreamBuffer(batch_size=4, max_batches=100, control=control)
        handle = QueryHandle("q-1", "p", "g", control, buffer=buffer)
        rows = random_rows(random.Random(9), 3, 25)
        buffer.emit_block(RowBlock.from_rows(rows, 3))
        handle._mark(QueryStatus.SUCCEEDED)
        buffer.close()

        first = handle.fetch(limit=10, cursor=0)
        assert isinstance(first.matches, RowBlock)
        assert list(first.matches) == rows[:10] and first.cursor == 10
        # The response was lost in transit: the client retries the poll
        # with the old cursor and gets the same page, still packed.
        again = handle.fetch(limit=10, cursor=0)
        assert again.matches == first.matches and again.cursor == 10
        rest = handle.fetch(limit=100, cursor=10)
        assert list(rest.matches) == rows[10:] and rest.done
        # Only one page back: the first page is gone for good.
        from repro.service.errors import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            handle.fetch(limit=10, cursor=0)


# ------------------------------------------------------- hypothesis (opt.)
try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - CI without hypothesis
    given = None


@pytest.mark.skipif(given is None, reason="hypothesis unavailable")
class TestHypothesis:
    if given is not None:

        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(
            name=st.sampled_from(sorted(CASES)),
            width=st.integers(1, 4),
            kind=st.sampled_from(KINDS),
            data=st.data(),
        )
        def test_any_cut_of_any_rows(self, name, width, kind, data, tmp_path):
            vertex = st.integers(0, UNIVERSE - 1)
            code_set = st.frozensets(vertex, min_size=1, max_size=3)
            slots = [
                code_set if kind == "sets" and i % 2 == 0 else vertex
                for i in range(width)
            ]
            rows = data.draw(st.lists(st.tuples(*slots), max_size=60))
            sizes = data.draw(st.lists(st.integers(0, 9), max_size=30))
            blocks = []
            start = 0
            for size in sizes + [len(rows)]:
                blocks.append(make_block(rows[start : start + size], width, kind))
                start += size
            assert_block_equals_rows(name, rows, blocks, width, tmp_path, kind)
