"""Tests for the DI dispatcher (chain reactions, ends, queue runs)."""

import pytest

from repro.core.dataflow import Dispatcher
from repro.errors import SchedulingError
from repro.graph.builder import QueryBuilder
from repro.graph.query_graph import QueryGraph
from repro.operators.aggregate import WindowedAggregate
from repro.operators.union import Union
from repro.streams.elements import StreamElement
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource


def element(value, timestamp=0):
    return StreamElement(value=value, timestamp=timestamp)


def pipeline(n_selections=2):
    build = QueryBuilder()
    sink = CollectingSink()
    stream = build.source(ListSource([]))
    for i in range(n_selections):
        stream = stream.where(lambda v: True, name=f"s{i}")
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    return graph, first, sink


class TestInject:
    def test_chain_reaction_reaches_sink(self):
        graph, first, sink = pipeline()
        Dispatcher(graph).inject(first, element(1))
        assert sink.values == [1]

    def test_order_preserved_through_fan_out(self):
        build = QueryBuilder()
        sink_a, sink_b = CollectingSink("a"), CollectingSink("b")
        shared = build.source(ListSource([])).map(lambda v: v)
        shared.into(sink_a)
        shared.into(sink_b)
        graph = build.graph(validate=False)
        target = shared.node
        dispatcher = Dispatcher(graph)
        for i in range(5):
            dispatcher.inject(target, element(i))
        assert sink_a.values == [0, 1, 2, 3, 4]
        assert sink_b.values == [0, 1, 2, 3, 4]

    def test_multi_output_order_preserved(self):
        build = QueryBuilder()
        sink = CollectingSink()
        stream = build.source(ListSource([])).flat_map(lambda v: [v, v + 1, v + 2])
        stream.into(sink)
        graph = build.graph(validate=False)
        Dispatcher(graph).inject(stream.node, element(10))
        assert sink.values == [10, 11, 12]

    def test_stops_at_queue(self):
        graph, first, sink = pipeline()
        edge = graph.out_edges(first)[0]
        queue = graph.insert_queue(edge)
        Dispatcher(graph).inject(first, element(1))
        assert sink.values == []
        assert len(queue.payload) == 1

    def test_deep_graph_does_not_recurse(self):
        import sys

        depth = sys.getrecursionlimit() + 200
        graph, first, sink = pipeline(n_selections=depth)
        Dispatcher(graph).inject(first, element(7))
        assert sink.values == [7]

    def test_invocation_count(self):
        graph, first, sink = pipeline(n_selections=3)
        dispatcher = Dispatcher(graph)
        dispatcher.inject(first, element(1))
        assert dispatcher.invocations == 3
        assert dispatcher.sink_deliveries == 1


class TestInjectEnd:
    def test_end_reaches_sink(self):
        graph, first, sink = pipeline()
        Dispatcher(graph).inject_end(first)
        assert sink.ended

    def test_end_waits_for_all_ports(self):
        g = QueryGraph()
        union = g.add_operator(Union(arity=2))
        sink_node = g.add_sink(CollectingSink())
        sink = sink_node.payload
        g.connect(union, sink_node)
        dispatcher = Dispatcher(g)
        dispatcher.inject_end(union, port=0)
        assert not sink.ended
        dispatcher.inject_end(union, port=1)
        assert sink.ended

    def test_end_through_queue_is_buffered(self):
        graph, first, sink = pipeline()
        edge = graph.out_edges(first)[0]
        queue = graph.insert_queue(edge)
        dispatcher = Dispatcher(graph)
        dispatcher.inject(first, element(1))
        dispatcher.inject_end(first)
        assert not sink.ended  # END is buffered behind the data
        dispatcher.run_queue(queue)
        assert sink.values == [1]
        assert sink.ended

    def test_flush_output_delivered_before_end(self):
        g = QueryGraph()
        agg = g.add_operator(_FlushingAggregate())
        sink_node = g.add_sink(CollectingSink())
        g.connect(agg, sink_node)
        dispatcher = Dispatcher(g)
        dispatcher.inject(agg, element(1))
        dispatcher.inject_end(agg)
        sink = sink_node.payload
        assert sink.values[-1] == "flushed"
        assert sink.ended


class _FlushingAggregate(WindowedAggregate):
    """Aggregate that emits a marker when flushed at end-of-stream."""

    def __init__(self):
        super().__init__(window_ns=10**9, aggregate="count")

    def flush(self):
        return [element("flushed")]


class TestRunQueue:
    def test_processes_buffered_elements(self):
        graph, first, sink = pipeline()
        queue = graph.insert_queue(graph.out_edges(first)[0])
        dispatcher = Dispatcher(graph)
        for i in range(5):
            dispatcher.inject(first, element(i))
        processed = dispatcher.run_queue(queue)
        assert processed == 5
        assert sink.values == [0, 1, 2, 3, 4]

    def test_respects_batch_limit(self):
        graph, first, sink = pipeline()
        queue = graph.insert_queue(graph.out_edges(first)[0])
        dispatcher = Dispatcher(graph)
        for i in range(5):
            dispatcher.inject(first, element(i))
        assert dispatcher.run_queue(queue, max_items=2) == 2
        assert len(queue.payload) == 3

    def test_rejects_non_queue_node(self):
        graph, first, sink = pipeline()
        with pytest.raises(SchedulingError):
            Dispatcher(graph).run_queue(first)


class TestStats:
    def test_measures_cost_and_interarrival(self):
        from repro.obs import MetricsRegistry

        graph, first, sink = pipeline(n_selections=1)
        registry = MetricsRegistry()
        dispatcher = Dispatcher(graph, observer=registry)
        for t in range(0, 10_000, 1_000):
            dispatcher.inject(first, element(1, timestamp=t))
        metrics = registry.operator(first.name)
        assert metrics.elements_in == 10
        assert metrics.service_ns_ewma > 0
        assert metrics.interarrival_ns == pytest.approx(1_000)
