"""Integration tests for the real-thread execution engine."""

import pytest

from repro.core.engine import ThreadedEngine
from repro.core.modes import (
    PartitionSpec,
    di_config,
    gts_config,
    hmts_config,
    ots_config,
)
from repro.core.strategies import make_strategy
from repro.errors import SchedulingError
from repro.graph.builder import QueryBuilder
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource

N = 300


def selection_query(decouple):
    """source -> 3 selections -> sink over 0..N-1; keeps multiples of 6."""
    build = QueryBuilder()
    sink = CollectingSink()
    (
        build.source(ListSource(range(N)))
        .where(lambda v: v % 2 == 0, name="s0", selectivity=0.5)
        .where(lambda v: v % 3 == 0, name="s1", selectivity=1 / 3)
        .map(lambda v: v, name="m", cost_ns=10.0)
        .into(sink)
    )
    graph = build.graph()
    if decouple:
        graph.decouple_all()
    return graph, sink


EXPECTED = [v for v in range(N) if v % 6 == 0]


class TestModes:
    def test_di_mode(self):
        graph, sink = selection_query(decouple=False)
        report = ThreadedEngine(graph, di_config(graph)).run(timeout=30)
        assert not report.aborted
        assert sink.values == EXPECTED

    def test_gts_fifo(self):
        graph, sink = selection_query(decouple=True)
        report = ThreadedEngine(graph, gts_config(graph, "fifo")).run(timeout=30)
        assert not report.aborted
        assert sink.values == EXPECTED

    def test_gts_chain(self):
        graph, sink = selection_query(decouple=True)
        report = ThreadedEngine(graph, gts_config(graph, "chain")).run(timeout=30)
        assert not report.aborted
        assert sorted(sink.values) == EXPECTED

    def test_ots(self):
        graph, sink = selection_query(decouple=True)
        report = ThreadedEngine(graph, ots_config(graph)).run(timeout=30)
        assert not report.aborted
        assert sink.values == EXPECTED

    def test_hmts_two_groups(self):
        graph, sink = selection_query(decouple=True)
        queues = graph.queues()
        config = hmts_config(
            graph,
            groups=[queues[:2], queues[2:]],
            strategies="fifo",
            priorities=[1.0, 2.0],
            max_concurrency=2,
        )
        report = ThreadedEngine(graph, config).run(timeout=30)
        assert not report.aborted
        assert sink.values == EXPECTED

    def test_di_config_rejects_queued_graph(self):
        graph, sink = selection_query(decouple=True)
        with pytest.raises(SchedulingError):
            di_config(graph)

    def test_uncovered_queue_rejected(self):
        graph, sink = selection_query(decouple=True)
        queues = graph.queues()
        config = hmts_config(graph, groups=[queues])
        # Manually shrink the partition to leave a queue uncovered.
        config.partitions[0].queue_nodes.pop()
        with pytest.raises(SchedulingError, match="no partition owns"):
            ThreadedEngine(graph, config)


class TestJoinUnderOts:
    def test_binary_join_fed_by_two_queues(self):
        from repro.streams.elements import StreamElement

        build = QueryBuilder()
        sink = CollectingSink()
        left = build.source(
            ListSource([StreamElement(value=i, timestamp=i) for i in range(50)]),
            name="left",
        )
        right = build.source(
            ListSource(
                [StreamElement(value=i, timestamp=i) for i in range(0, 50, 2)]
            ),
            name="right",
        )
        left.hash_join(right, window_ns=10**9).into(sink)
        graph = build.graph()
        graph.decouple_all()
        report = ThreadedEngine(graph, ots_config(graph)).run(timeout=30)
        assert not report.aborted
        assert sorted(e for e in sink.values) == [(i, i) for i in range(0, 50, 2)]


class TestReport:
    def test_report_counts(self):
        graph, sink = selection_query(decouple=True)
        report = ThreadedEngine(graph, gts_config(graph)).run(timeout=30)
        assert report.total_results == len(EXPECTED)
        assert report.invocations > 0
        assert report.wall_ns > 0
        assert set(report.queue_peaks) == {q.name for q in graph.queues()}

    def test_memory_sampling(self):
        graph, sink = selection_query(decouple=True)
        report = ThreadedEngine(graph, gts_config(graph, observe=True)).run(
            timeout=30
        )
        assert report.memory_samples  # at least one sample
        assert all(total >= 0 for _, total in report.memory_samples)


class TestThreadSchedulerIntegration:
    def test_bounded_concurrency_completes(self):
        graph, sink = selection_query(decouple=True)
        config = ots_config(graph, max_concurrency=1)
        report = ThreadedEngine(graph, config).run(timeout=30)
        assert not report.aborted
        assert sink.values == EXPECTED


class TestRuntimeFlexibility:
    def test_reconfigure_gts_to_ots_mid_run(self):
        graph, sink = selection_query(decouple=True)
        config = gts_config(graph, "fifo")
        engine = ThreadedEngine(graph, config)
        engine.start()
        ots_partitions = [
            PartitionSpec(
                queue_nodes=[node],
                strategy=make_strategy("fifo"),
                name=f"switched-{i}",
            )
            for i, node in enumerate(graph.queues())
        ]
        engine.reconfigure(ots_partitions)
        assert engine.join(timeout=30)
        assert sorted(sink.values) == EXPECTED

    def test_pause_resume(self):
        graph, sink = selection_query(decouple=True)
        engine = ThreadedEngine(graph, gts_config(graph))
        engine.pause()
        engine.start()
        import time

        time.sleep(0.05)
        engine.resume()
        assert engine.join(timeout=30)
        assert sink.values == EXPECTED

    def test_insert_queue_runtime(self):
        graph, sink = selection_query(decouple=False)
        # Start with one queue so there is a partition to own new queues.
        src = graph.sources()[0]
        first_edge = graph.out_edges(src)[0]
        graph.insert_queue(first_edge)
        engine = ThreadedEngine(graph, gts_config(graph))
        engine.start()
        ops = graph.operators(include_queues=False)
        edge = graph.find_edge(ops[0], ops[1])
        queue_node = engine.insert_queue_runtime(edge)
        assert queue_node.is_queue
        assert engine.join(timeout=30)
        assert sink.values == EXPECTED

    def test_remove_queue_runtime(self):
        graph, sink = selection_query(decouple=True)
        engine = ThreadedEngine(graph, gts_config(graph))
        engine.start()
        queue_node = graph.queues()[-1]
        engine.remove_queue_runtime(queue_node)
        assert queue_node not in graph
        assert engine.join(timeout=30)
        assert sorted(sink.values) == EXPECTED

    def test_abort_on_timeout(self):
        from repro.streams.sources import ConstantRateSource

        build = QueryBuilder()
        sink = CollectingSink()
        (
            build.source(ConstantRateSource(10**6, 10.0))  # ~100,000 s paced
            .where(lambda v: True)
            .into(sink)
        )
        graph = build.graph()
        graph.decouple_all()
        config = gts_config(graph, pace_sources=True, time_scale=1.0)
        report = ThreadedEngine(graph, config).run(timeout=0.3)
        assert report.aborted
