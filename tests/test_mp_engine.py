"""Tests for the process-backed execution engine (repro.mp).

Operator callables here are module-level functions, not lambdas: the
process backend snapshots operator state by pickling whole payloads
during reconfiguration, which is exactly the restriction AN009 lints.
"""

import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import pytest

from repro.api import Engine
from repro.core.engine import ThreadedEngine, spsc_eligible_queues
from repro.core.modes import (
    EngineConfig,
    PartitionSpec,
    SchedulingMode,
    gts_config,
    hmts_config,
    ots_config,
)
from repro.core.strategies import make_strategy
from repro.errors import SchedulingError
from repro.graph.builder import QueryBuilder
from repro.mp.process_engine import ProcessEngine
from repro.streams.elements import StreamElement
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource, Source


def keep_even(value):
    return value % 2 == 0


def triple(value):
    return value * 3


def add_one(value):
    return value + 1


N = 4000
EXPECTED = [triple(v) + 1 for v in range(N) if keep_even(v)]


def build_pipeline(n=N):
    """source -> q -> even filter -> q -> *3 -> q -> +1 -> sink."""
    build = QueryBuilder()
    sink = CollectingSink()
    (
        build.source(ListSource(range(n)), name="src")
        .decouple(name="q0")
        .where(keep_even, name="even", selectivity=0.5)
        .decouple(name="q1")
        .map(triple, name="triple")
        .decouple(name="q2")
        .map(add_one, name="plus1")
        .into(sink)
    )
    return build.graph(), sink


class GatedSource(Source):
    """Emits ``head`` elements, blocks on an event, then emits the rest.

    The event is created before the engine forks, so the source worker
    inherits it — the parent can hold the stream open mid-run while it
    drives the control plane.
    """

    def __init__(self, n, head, gate, name="gated-source"):
        self.name = name
        self.n = n
        self.head = head
        self.gate = gate

    def schedule(self):
        for index in range(self.n):
            if index == self.head:
                self.gate.wait()
            yield index, index

    def __len__(self):
        return self.n


class TestProcessMatchesThread:
    def test_gts_identical_sink_output(self):
        graph, sink = build_pipeline()
        report = Engine.from_graph(graph, config=gts_config(graph, "fifo", backend="process")).run(
            timeout=60
        )
        assert not report.aborted and report.failure is None
        assert sink.values == EXPECTED

        graph2, sink2 = build_pipeline()
        ThreadedEngine(graph2, gts_config(graph2, "fifo")).run(timeout=60)
        assert sink.values == sink2.values

    def test_ots_with_permit_gate(self):
        graph, sink = build_pipeline()
        config = ots_config(graph, backend="process", max_concurrency=1)
        report = Engine.from_graph(graph, config=config).run(timeout=60)
        assert not report.aborted and report.failure is None
        assert sink.values == EXPECTED
        assert report.sink_counts == {"collecting-sink": len(EXPECTED)}
        assert report.invocations > 0

    def test_report_queue_peaks_cover_all_queues(self):
        graph, sink = build_pipeline(500)
        report = Engine.from_graph(graph, config=gts_config(graph, backend="process")).run(
            timeout=60
        )
        assert set(report.queue_peaks) == {"q0", "q1", "q2"}
        assert all(peak >= 0 for peak in report.queue_peaks.values())


class TestControlPlane:
    def test_set_priority_mid_run(self):
        gate = multiprocessing.get_context("fork").Event()
        build = QueryBuilder()
        sink = CollectingSink()
        (
            build.source(GatedSource(800, 50, gate), name="src")
            .decouple(name="qa")
            .map(triple, name="t")
            .decouple(name="qb")
            .map(add_one, name="p")
            .into(sink)
        )
        graph = build.graph()
        queues = graph.queues()
        config = hmts_config(
            graph,
            groups=[[queues[0]], [queues[1]]],
            backend="process",
            max_concurrency=1,
        )
        engine = Engine.from_graph(graph, config=config)
        assert isinstance(engine.inner, ProcessEngine)
        engine.start()
        try:
            # Mid-run (source is gated): flip the level-3 priorities.
            engine.set_priority("hmts-0", 5.0)
            engine.set_priority("hmts-1", -1.0)
            assert engine.thread_scheduler.priority_of("hmts-0") == 5.0
            assert engine.thread_scheduler.priority_of("hmts-1") == -1.0
            gate.set()
            assert engine.join(60)
        finally:
            gate.set()
            engine.close()
        assert engine.errors == []
        assert sink.values == [triple(v) + 1 for v in range(800)]

    def test_reconfigure_ots_to_hmts_mid_run(self):
        """Mode switch across processes with stateful-operator migration."""
        gate = multiprocessing.get_context("fork").Event()
        n = 600
        build = QueryBuilder()
        sink = CollectingSink()
        from repro.operators.dedup import WindowedDistinct

        distinct = WindowedDistinct(window_ns=10**18, name="distinct")
        (
            build.source(GatedSource(n, 200, gate), name="src")
            .decouple(name="qa")
            .map(half, name="half")
            .decouple(name="qb")
            .through(distinct)
            .into(sink)
        )
        graph = build.graph()
        config = ots_config(graph, backend="process")
        assert config.mode is SchedulingMode.OTS
        engine = ProcessEngine(graph, config)
        engine.start()
        try:
            for handle in engine._handles:
                assert handle.ready.wait(10)
            # Let the head elements flow through the stateful operator
            # before switching modes (the source is gated at 200).
            time.sleep(0.4)
            # OTS -> HMTS: both queues collapse into one unit. The
            # distinct operator's seen-keys state must migrate with qb.
            merged = PartitionSpec(
                queue_nodes=list(graph.queues()),
                strategy=make_strategy("fifo"),
                name="merged",
            )
            engine.reconfigure([merged])
            gate.set()
            assert engine.join(60)
        finally:
            gate.set()
            engine.close()
        assert engine.errors == []
        # half() makes consecutive pairs collide; the windowed distinct
        # must suppress every second value *including across the
        # reconfiguration boundary* (state migrated, not reset).
        assert sink.values == sorted(set(half(v) for v in range(n)))

    def test_reconfigure_rejects_uncovered_queue(self):
        graph, sink = build_pipeline(100)
        engine = ProcessEngine(graph, gts_config(graph, backend="process"))
        queues = graph.queues()
        partial = PartitionSpec(
            queue_nodes=queues[:1], strategy=make_strategy("fifo"), name="partial"
        )
        with pytest.raises(SchedulingError, match="cover all queues"):
            engine.reconfigure([partial])
        engine.close()


def half(value):
    return value // 2


def slow(value):
    time.sleep(0.002)
    return value


def _slow_chain(n):
    """src -> qa -> half -> qb -> slow (2 ms/el) -> sink, under OTS."""
    build = QueryBuilder()
    sink = CollectingSink()
    (
        build.source(ListSource(range(n)), name="src")
        .decouple(name="qa")
        .map(half, name="half")
        .decouple(name="qb")
        .map(slow, name="slow")
        .into(sink)
    )
    return build.graph(), sink


def _merge_all(graph):
    return [
        PartitionSpec(
            queue_nodes=list(graph.queues()),
            strategy=make_strategy("fifo"),
            name="merged",
        )
    ]


class TestReconfigureHandoff:
    def test_spill_of_retired_producer_reaches_the_ring(self):
        """qb's producer is retired with batches still spilled.

        A 2 KiB ring holds one 64-element envelope, and the slow consumer
        takes 128 ms per grant of one envelope, so ``ots-0`` holds most of
        its output (END included) in its local spill when the layout
        merges; the spill must move to ``merged``, the ring's new
        producer, ahead of anything ``merged`` pushes.
        """
        n = 400
        graph, sink = _slow_chain(n)
        config = ots_config(graph, backend="process", ring_capacity=2048, batch_size=64)
        engine = ProcessEngine(graph, config)
        engine.start()
        try:
            time.sleep(0.3)
            engine.reconfigure(_merge_all(graph))
            assert engine.join(30)
        finally:
            engine.close()
        assert engine.errors == []
        assert sink.values == [half(v) for v in range(n)]

    def test_reconfigure_after_a_partition_finished(self):
        """The owner of qa has drained it to END before the merge.

        ``merged`` inherits qa from a finished worker, so qa must arrive
        ended, else ``merged`` waits for an END that was already popped.
        """
        n = 400
        graph, sink = _slow_chain(n)
        config = ots_config(graph, backend="process")
        qa = next(node for node in graph.queues() if node.name == "qa")
        owner = next(spec.name for spec in config.partitions if qa in spec.queue_nodes)
        engine = ProcessEngine(graph, config)
        engine.start()
        try:
            handle = next(h for h in engine._handles if h.name == owner)
            assert handle.done.wait(30)
            engine.reconfigure(_merge_all(graph))
            assert engine.join(15)
        finally:
            engine.close()
        assert engine.errors == []
        assert sink.values == [half(v) for v in range(n)]


class TestCrashDetection:
    def test_killed_worker_reports_failure_and_cleans_shm(self):
        graph, sink = build_pipeline(200_000)
        engine = ProcessEngine(graph, gts_config(graph, backend="process"))
        ring_names = list(engine._ring_names)
        engine.start()
        victim = next(h for h in engine._handles if h.kind == "partition")
        assert victim.ready.wait(10)
        os.kill(victim.process.pid, signal.SIGKILL)
        started = time.monotonic()
        try:
            # Crash must surface as a terminal state well within the
            # join timeout — no hang.
            assert engine.join(20)
        finally:
            engine.close()
        assert time.monotonic() - started < 20
        assert engine.errors and engine.errors[0][0] == victim.name
        report = engine._report(aborted=False)
        assert report.failure is not None and "exited" in report.failure
        # No orphaned shared-memory segments survive close().
        for name in ring_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_run_raises_scheduling_error_on_crash(self):
        import threading

        graph, sink = build_pipeline(200_000)
        engine = ProcessEngine(graph, gts_config(graph, backend="process"))

        def killer():
            victim = None
            deadline = time.monotonic() + 10
            while victim is None and time.monotonic() < deadline:
                with engine._handles_lock:
                    victim = next(
                        (h for h in engine._handles if h.kind == "partition"),
                        None,
                    )
                time.sleep(0.005)
            if victim is not None and victim.ready.wait(10):
                os.kill(victim.process.pid, signal.SIGKILL)

        thread = threading.Thread(target=killer)
        thread.start()
        with pytest.raises(SchedulingError, match="failed"):
            engine.run(timeout=60)
        thread.join()


class TestValidation:
    def test_from_graph_selects_process_backend(self):
        graph, _ = build_pipeline(10)
        config = gts_config(graph, backend="process")
        engine = Engine.from_graph(graph, config=config)
        try:
            assert isinstance(engine.inner, ProcessEngine)
        finally:
            engine.close()

    def test_report_metrics_annotate_placement(self):
        from repro.core.placement import annotate_from_metrics

        graph, sink = build_pipeline(400)
        config = gts_config(graph, backend="process", observe=True)
        report = Engine.from_graph(graph, config=config).run(timeout=60)
        assert sink.values == [triple(v) + 1 for v in range(400) if keep_even(v)]
        annotate_from_metrics(graph, report.metrics)
        operators = report.metrics["operators"]
        for node in graph.operators(include_queues=False):
            assert node.cost_ns == operators[node.name]["service_ns_ewma"] > 0
        even = next(n for n in graph.nodes if n.name == "even")
        # Index-stamped source: one timestamp unit between arrivals.
        assert even.interarrival_ns == 1.0

    def test_region_disjointness_rejects_split_join(self):
        # left -> qL -> join <- qR <- right: OTS puts qL and qR in
        # different processes, but both reach the same join operator.
        build = QueryBuilder()
        sink = CollectingSink()
        left = build.source(
            ListSource([StreamElement(value=i, timestamp=i) for i in range(10)]),
            name="left",
        )
        right = build.source(
            ListSource([StreamElement(value=i, timestamp=i) for i in range(10)]),
            name="right",
        )
        left.hash_join(right, window_ns=10**9).into(sink)
        graph = build.graph()
        graph.decouple_all()
        with pytest.raises(SchedulingError, match="two processes"):
            ProcessEngine(graph, ots_config(graph, backend="process"))

    def test_duplicate_node_names_rejected(self):
        build = QueryBuilder()
        sink = CollectingSink()
        (
            build.source(ListSource(range(5)), name="src")
            .decouple(name="q0")
            .map(triple, name="dup")
            .map(add_one, name="dup")
            .into(sink)
        )
        graph = build.graph()
        with pytest.raises(SchedulingError, match="unique node names"):
            ProcessEngine(graph, gts_config(graph, backend="process"))

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(SchedulingError, match="backend"):
            EngineConfig(mode=SchedulingMode.GTS, backend="fiber")


class TestSpscEligibility:
    """The in-process SPSC fast path (thread backend satellite)."""

    def test_point_to_point_chain_is_eligible(self):
        graph, _ = build_pipeline(10)
        config = gts_config(graph)
        eligible = spsc_eligible_queues(graph, config.partitions)
        assert {node.name for node in eligible} == {"q0", "q1", "q2"}

    def test_engine_enables_and_runs_spsc(self):
        graph, sink = build_pipeline(2000)
        # sanitize=False explicitly: under REPRO_SANITIZE=1 the engine
        # (correctly) keeps the locked path, which the next test pins.
        config = gts_config(graph, "fifo")
        config.sanitize = False
        engine = ThreadedEngine(graph, config)
        assert {node.name for node in engine.spsc_queues} == {"q0", "q1", "q2"}
        assert all(node.payload.is_spsc for node in engine.spsc_queues)
        report = engine.run(timeout=60)
        assert not report.aborted
        assert sink.values == [triple(v) + 1 for v in range(2000) if keep_even(v)]

    def test_opt_out_and_sanitizer_disable_spsc(self):
        graph, _ = build_pipeline(10)
        engine = ThreadedEngine(graph, gts_config(graph, spsc_queues=False))
        assert engine.spsc_queues == []
        graph2, _ = build_pipeline(10)
        engine2 = ThreadedEngine(graph2, gts_config(graph2, sanitize=True))
        assert engine2.spsc_queues == []

    def test_join_fed_queues_stay_locked_under_ots(self):
        # Two queues feeding one join: under OTS each queue is its own
        # thread, so the join region has two producers -> the queue
        # downstream of the join keeps the locked path only if its
        # producers split; the two feeder queues themselves are each
        # single-producer (one source each) and point-to-point.
        build = QueryBuilder()
        sink = CollectingSink()
        left = build.source(
            ListSource([StreamElement(value=i, timestamp=i) for i in range(10)]),
            name="left",
        )
        right = build.source(
            ListSource([StreamElement(value=i, timestamp=i) for i in range(10)]),
            name="right",
        )
        joined = left.hash_join(right, window_ns=10**9)
        joined.decouple(name="post-join").map(add_one, name="p").into(sink)
        graph = build.graph()
        # Decouple the join inputs manually.
        for edge in list(graph.in_edges(joined.node)):
            graph.insert_queue(edge)
        config = ots_config(graph)
        eligible = {node.name for node in spsc_eligible_queues(graph, config.partitions)}
        # The feeder queues' downstream (the join) is shared between two
        # partitions under OTS, but each feeder queue itself has exactly
        # one producing entry (its source), so they are eligible; the
        # post-join queue is pushed by whichever partition drives the
        # join region -- under OTS the two feeder partitions *both*
        # reach it, so it must NOT be eligible.
        assert "post-join" not in eligible
