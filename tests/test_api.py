"""Tests for the unified engine facade (repro.api).

Covers the construction paths (mode names, queue groups, explicit
PartitionSpecs, operator-level Partitioning), knob normalization and
validation, context-manager teardown, and the unified error surface: both backends populate
``EngineReport.failure`` *and* raise with the report attached on the
exception.
"""

import time

import pytest

from repro import Engine, open_engine
from repro.core.engine import ThreadedEngine
from repro.core.modes import (
    EngineConfig,
    PartitionSpec,
    SchedulingMode,
    gts_config,
)
from repro.core.partition import Partition, Partitioning
from repro.core.strategies import make_strategy
from repro.errors import SchedulingError
from repro.graph.builder import QueryBuilder
from repro.mp.process_engine import ProcessEngine
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource


def keep_even(value):
    return value % 2 == 0


def triple(value):
    return value * 3


def boom(value):
    raise RuntimeError("boom: operator failure for the error-surface test")


N = 600
EXPECTED = [v * 3 for v in range(N) if v % 2 == 0]


def build_pipeline(n=N):
    build = QueryBuilder("api-test")
    sink = CollectingSink()
    (
        build.source(ListSource(range(n)), name="src")
        .decouple(name="q0")
        .where(keep_even, name="even", selectivity=0.5)
        .decouple(name="q1")
        .map(triple, name="triple")
        .into(sink)
    )
    return build.graph(), sink


def build_failing_pipeline(n=50):
    build = QueryBuilder("api-fail")
    sink = CollectingSink()
    (
        build.source(ListSource(range(n)), name="src")
        .decouple(name="q0")
        .map(boom, name="boom")
        .into(sink)
    )
    return build.graph(), sink


class TestConstruction:
    def test_default_is_gts_thread(self):
        graph, sink = build_pipeline()
        engine = Engine.from_graph(graph)
        assert engine.backend == "thread"
        assert engine.config.mode is SchedulingMode.GTS
        assert isinstance(engine.inner, ThreadedEngine)
        engine.run(timeout=30)
        assert sink.values == EXPECTED

    def test_mode_names(self):
        graph, _ = build_pipeline()
        assert (
            Engine.from_graph(graph, "ots").config.mode is SchedulingMode.OTS
        )
        assert (
            Engine.from_graph(graph, "gts").config.mode is SchedulingMode.GTS
        )
        with pytest.raises(SchedulingError, match="unknown scheduling mode"):
            Engine.from_graph(graph, "fancy")

    def test_queue_groups_make_hmts(self):
        graph, sink = build_pipeline()
        queues = {node.name: node for node in graph.queues()}
        engine = Engine.from_graph(
            graph, [[queues["q0"]], [queues["q1"]]], strategy="chain"
        )
        assert engine.config.mode is SchedulingMode.HMTS
        assert len(engine.config.partitions) == 2
        engine.run(timeout=30)
        assert sink.values == EXPECTED

    def test_partition_specs_pass_through(self):
        graph, sink = build_pipeline()
        spec = PartitionSpec(
            queue_nodes=list(graph.queues()),
            strategy=make_strategy("fifo"),
            name="all",
        )
        engine = Engine.from_graph(graph, [spec])
        assert engine.config.partitions == [spec]
        engine.run(timeout=30)
        assert sink.values == EXPECTED

    def test_operator_partitioning_maps_to_queue_groups(self):
        graph, sink = build_pipeline()
        by_name = {node.name: node for node in graph.nodes}
        partitioning = Partitioning(
            [
                Partition([by_name["even"]], name="head"),
                Partition([by_name["triple"]], name="tail"),
            ]
        )
        engine = Engine.from_graph(graph, partitioning)
        assert engine.config.mode is SchedulingMode.HMTS
        # q0 feeds `even`, q1 feeds `triple` — one group each.
        groups = [spec.queue_nodes for spec in engine.config.partitions]
        assert [[n.name for n in g] for g in groups] == [["q0"], ["q1"]]
        engine.run(timeout=30)
        assert sink.values == EXPECTED

    def test_knobs_override_config_without_mutating_it(self):
        graph, _ = build_pipeline()
        config = gts_config(graph)
        assert config.observe is False
        engine = Engine.from_graph(
            graph, config=config, observe=True, batch_size=8
        )
        assert engine.config.observe is True
        assert engine.config.batch_size == 8
        assert config.observe is False and config.batch_size is None

    def test_unknown_knob_rejected_with_catalogue(self):
        graph, _ = build_pipeline()
        with pytest.raises(SchedulingError, match="valid knobs"):
            Engine.from_graph(graph, observ=True)

    def test_partitioning_wins_over_config_partitions(self):
        graph, _ = build_pipeline()
        config = gts_config(graph)
        engine = Engine.from_graph(graph, "ots", config=config)
        assert engine.config.mode is SchedulingMode.OTS
        assert len(engine.config.partitions) == len(graph.queues())


class TestOpenEngine:
    def test_context_manager_runs(self):
        graph, sink = build_pipeline()
        with open_engine(graph, "gts") as engine:
            report = engine.run(timeout=30)
        assert report.failure is None
        assert sink.values == EXPECTED

    def test_teardown_on_body_exception(self):
        graph, _ = build_pipeline()
        with pytest.raises(ValueError, match="user error"):
            with open_engine(graph, "gts") as engine:
                engine.start()
                raise ValueError("user error")
        # close() aborted and joined: every worker thread is gone.
        assert engine.join(timeout=5.0)

    def test_engine_is_its_own_context_manager(self):
        graph, sink = build_pipeline()
        with Engine.from_graph(graph) as engine:
            engine.run(timeout=30)
        assert sink.values == EXPECTED


class TestErrorSurface:
    def test_thread_backend_raises_and_populates_report(self):
        graph, _ = build_failing_pipeline()
        with pytest.raises(SchedulingError, match="boom") as exc_info:
            Engine.from_graph(graph, "gts").run(timeout=30)
        report = exc_info.value.report
        assert report is not None
        assert report.failure is not None and "boom" in report.failure

    def test_thread_backend_report_only_when_asked(self):
        graph, _ = build_failing_pipeline()
        report = Engine.from_graph(graph, "gts").run(
            timeout=30, raise_on_failure=False
        )
        assert report.failure is not None and "boom" in report.failure

    def test_process_backend_raises_and_populates_report(self):
        graph, _ = build_failing_pipeline()
        with pytest.raises(SchedulingError, match="boom") as exc_info:
            Engine.from_graph(graph, "gts", backend="process").run(
                timeout=60
            )
        report = exc_info.value.report
        assert report is not None
        assert report.failure is not None and "boom" in report.failure

    def test_process_backend_report_only_when_asked(self):
        graph, _ = build_failing_pipeline()
        report = Engine.from_graph(graph, "gts", backend="process").run(
            timeout=60, raise_on_failure=False
        )
        assert report.failure is not None and "boom" in report.failure

    @staticmethod
    def _slow_pump(monkeypatch):
        """Delay every read of a worker's messages by 50 ms.

        Workers then exit well before the pump reads their last message,
        which is what a busy machine does now and then.
        """
        drain = ProcessEngine._drain_conn

        def slow_drain(self, handle):
            time.sleep(0.05)
            drain(self, handle)

        monkeypatch.setattr(ProcessEngine, "_drain_conn", slow_drain)

    def test_process_backend_join_reads_last_messages(self, monkeypatch):
        self._slow_pump(monkeypatch)
        graph, sink = build_pipeline()
        report = Engine.from_graph(graph, "gts", backend="process").run(timeout=60)
        assert report.failure is None
        assert sink.values == EXPECTED
        assert report.invocations > 0

    def test_process_backend_failure_survives_slow_pump(self, monkeypatch):
        self._slow_pump(monkeypatch)
        graph, _ = build_failing_pipeline()
        report = Engine.from_graph(graph, "gts", backend="process").run(
            timeout=60, raise_on_failure=False
        )
        assert report.failure is not None and "boom" in report.failure
