"""Tests for the shared-memory SPSC ring (repro.mp.ring).

Every batch pushed through a ring must come back equal, with the same
item types and the same ``seq`` numbers, whichever envelope kind
carried it: columnar int64/float64 for plain int or float elements,
pickle for everything else.
"""

import math
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.ring import ShmRing, encode_batch
from repro.streams.elements import END_OF_STREAM, NO_ELEMENT, StreamElement

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@contextmanager
def open_ring(capacity=1 << 16):
    ring = ShmRing.create(capacity)
    try:
        yield ring
    finally:
        ring.close()
        ring.unlink()


def float_bits(value):
    return struct.pack("<d", value)


def assert_same_items(sent, received):
    assert len(received) == len(sent)
    for before, after in zip(sent, received):
        assert type(after) is type(before)
        if not isinstance(before, StreamElement):
            assert after == before
            continue
        assert type(after.value) is type(before.value)
        if type(before.value) is float:
            assert float_bits(after.value) == float_bits(before.value)
        else:
            assert after.value == before.value
        assert type(after.timestamp) is type(before.timestamp)
        assert after.timestamp == before.timestamp
        assert after.seq == before.seq


class SubElement(StreamElement):
    __slots__ = ()


ints = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 0, -1]),
    st.integers(min_value=INT64_MAX + 1, max_value=2**70),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)
others = st.one_of(
    st.booleans(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4)),
    st.none(),
)
timestamps = st.one_of(
    st.integers(0, INT64_MAX), st.sampled_from([INT64_MIN, INT64_MAX + 1])
)


def elements_of(values):
    return st.builds(StreamElement, values, timestamps)


items = st.one_of(
    elements_of(ints),
    elements_of(floats),
    elements_of(others),
    st.builds(SubElement, ints, timestamps),
    st.sampled_from([END_OF_STREAM, NO_ELEMENT]),
)
batches = st.one_of(
    st.lists(elements_of(st.integers(INT64_MIN, INT64_MAX)), min_size=1, max_size=40),
    st.lists(elements_of(floats), min_size=1, max_size=40),
    st.lists(items, min_size=1, max_size=40),
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(batches, min_size=1, max_size=4))
    def test_batches_come_back_identical(self, sent):
        with open_ring() as ring:
            for batch in sent:
                assert ring.try_push_batch(batch)
            received = ring.pop_batches()
            assert ring.empty
        assert len(received) == len(sent)
        for before, after in zip(sent, received):
            assert_same_items(before, after)

    @pytest.mark.parametrize(
        "values",
        [[1], [INT64_MIN, INT64_MAX, 0], [0.5], [math.nan, -0.0, math.inf]],
    )
    def test_plain_numbers_are_columnar(self, values):
        # kind byte plus 24 bytes per element: timestamp, seq, value.
        batch = [StreamElement(value, 7) for value in values]
        assert len(encode_batch(batch)) == 1 + 24 * len(batch)

    @pytest.mark.parametrize(
        "batch",
        [
            [StreamElement(True, 1)],
            [StreamElement(INT64_MAX + 1, 1)],
            [StreamElement(1, INT64_MAX + 1)],
            [StreamElement(1, 1), StreamElement(1.0, 1)],
            [SubElement(1, 1)],
            [StreamElement(1, 1), END_OF_STREAM],
        ],
    )
    def test_everything_else_falls_back_to_pickle(self, batch):
        with open_ring() as ring:
            assert len(encode_batch(batch)) != 1 + 24 * len(batch)
            assert ring.try_push_batch(batch)
            (received,) = ring.pop_batches()
        assert_same_items(batch, received)


class TestRingBounds:
    @pytest.mark.parametrize("capacity", [64, 100, 128, 257, 512])
    def test_wrap_around_keeps_fifo(self, capacity):
        sent, received = [], []
        with open_ring(capacity) as ring:
            value = 0
            for step in range(300):
                size = 1 + step % 2
                batch = [StreamElement(value + i, value + i) for i in range(size)]
                if step % 7 == 3 and capacity >= 128:
                    # A pickled envelope (~80 bytes) fits from 128 up.
                    batch = [StreamElement(f"s{value}", value)]
                if not ring.try_push_batch(batch):
                    for popped in ring.pop_batches():
                        received.extend(popped)
                    assert ring.try_push_batch(batch)
                sent.extend(batch)
                value += size
                if step % 5 == 0:
                    for popped in ring.pop_batches():
                        received.extend(popped)
            for popped in ring.pop_batches():
                received.extend(popped)
        assert_same_items(sent, received)

    def test_full_ring_refuses_and_keeps_contents(self):
        with open_ring(64) as ring:
            first = [StreamElement(1, 1)]
            assert ring.try_push_batch(first)  # 4 + 25 bytes
            assert ring.try_push_batch(first)  # 58 of 64 bytes used
            assert not ring.try_push_batch([StreamElement(2, 2)])
            received = ring.pop_batches()
            assert ring.empty
        assert len(received) == 2
        for batch in received:
            assert_same_items(first, batch)

    def test_oversized_envelope_raises(self):
        with open_ring(64) as ring:
            with pytest.raises(ValueError, match="exceeds ring capacity"):
                ring.try_push_batch([StreamElement(i, i) for i in range(3)])
            assert ring.empty
