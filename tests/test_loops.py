"""Tests for the shared level-2 driver (repro.core.loops).

Both backends run the same source loop and unit loop; these tests pin
the behaviour that lives only there: a paced source answers abort while
it sleeps, and a unit retired by ``reconfigure()`` runs no further
grant on the queues it handed over.
"""

import sys
import threading
import time

import pytest

from repro.api import Engine
from repro.core.modes import PartitionSpec
from repro.core.strategies import FifoStrategy
from repro.graph.builder import QueryBuilder
from repro.streams.elements import StreamElement
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource


def increment(value):
    return value + 1


def build_chain(elements):
    """source -> q -> sink; returns (graph, queue node, sink)."""
    build = QueryBuilder()
    sink = CollectingSink()
    build.source(ListSource(elements), name="src").decouple(name="q").into(sink)
    graph = build.graph()
    (queue_node,) = graph.queues()
    return graph, queue_node, sink


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_paced_source_aborts_while_sleeping(backend):
    # The second element is due 20 s after the first: the source spends
    # the whole run in its pacing sleep.
    elements = [
        StreamElement(value=0, timestamp=0),
        StreamElement(value=1, timestamp=20_000_000_000),
    ]
    graph, _, _ = build_chain(elements)
    engine = Engine.from_graph(graph, "gts", backend=backend, pace_sources=True)
    started = time.monotonic()
    report = engine.run(timeout=0.5)
    assert time.monotonic() - started < 3.0
    assert report.aborted


class ParkOnce(FifoStrategy):
    """FIFO that parks its first ``select`` until the test releases it."""

    def __init__(self):
        super().__init__()
        self.parked = threading.Event()
        self.release = threading.Event()
        self.thread = None

    def select(self, ready):
        if self.thread is None:
            self.thread = threading.current_thread()
            self.parked.set()
            assert self.release.wait(10.0)
        return super().select(ready)


def test_retired_unit_runs_no_grant_after_reconfigure():
    graph, queue_node, sink = build_chain(range(50))
    parking = ParkOnce()
    engine = Engine.from_graph(graph, [PartitionSpec([queue_node], parking, name="old")])
    inner = engine.inner
    reconfigured = threading.Event()
    late_grants = []
    run_queue = inner.dispatcher.run_queue

    def counting_run_queue(*args, **kwargs):
        if reconfigured.is_set() and threading.current_thread() is parking.thread:
            late_grants.append(args[0])
        return run_queue(*args, **kwargs)

    inner.dispatcher.run_queue = counting_run_queue
    engine.start()
    try:
        # The old unit saw a ready queue and stalls inside select(),
        # between its retirement check and the work gate.
        assert parking.parked.wait(10.0)
        engine.reconfigure([PartitionSpec([queue_node], FifoStrategy(), name="new")])
        reconfigured.set()
        parking.release.set()
        assert engine.join(timeout=10.0)
    finally:
        parking.release.set()
        engine.close()
    assert late_grants == []
    assert sink.values == list(range(50))


def test_reconfigure_storm_keeps_every_element_in_order():
    # More units than cores, a short switch interval, and layouts flipped
    # while elements flow: a grant slipping past the pause gate, or a
    # retired unit draining a queue it handed over, would lose, repeat or
    # reorder elements on this single-path chain.
    n = 20_000
    build = QueryBuilder()
    sink = CollectingSink()
    stream = build.source(ListSource(range(n)), name="src")
    for index in range(4):
        stream = stream.decouple(name=f"q{index}").map(increment, name=f"m{index}")
    stream.into(sink)
    graph = build.graph()
    queues = list(graph.queues())
    layouts = [
        lambda: [PartitionSpec([q], FifoStrategy(), name=q.name) for q in queues],
        lambda: [PartitionSpec(list(queues), FifoStrategy(), name="all")],
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine = Engine.from_graph(graph, layouts[0](), max_concurrency=2)
        engine.start()
        try:
            deadline = time.monotonic() + 20.0
            flips = 0
            while not engine.join(timeout=0.005) and time.monotonic() < deadline:
                flips += 1
                engine.reconfigure(layouts[flips % 2]())
            assert engine.join(timeout=20.0)
        finally:
            engine.close()
    finally:
        sys.setswitchinterval(interval)
    assert flips > 0
    assert engine.inner.errors == []
    assert sink.values == [value + 4 for value in range(n)]
