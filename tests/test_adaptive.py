"""Tests for runtime queue replacement (the implemented future work)."""

import threading
import time

import pytest

from repro.core.adaptive import AdaptiveReplacer
from repro.core.engine import ThreadedEngine
from repro.core.modes import gts_config, ots_config
from repro.core.placement import stall_avoiding_replacement
from repro.errors import PlacementError, SchedulingError
from repro.graph.builder import QueryBuilder
from repro.graph.query_graph import derive_rates
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ConstantRateSource, ListSource


def build_graph(n=2_000, cheap_cost=100.0, heavy_cost=100.0):
    """source -> cheap -> heavy -> sink with declared costs."""
    build = QueryBuilder("adaptive")
    sink = CollectingSink()
    (
        build.source(ConstantRateSource(n, 5_000.0, name="src"))
        .where(lambda v: v % 2 == 0, name="cheap",
               cost_ns=cheap_cost, selectivity=0.5)
        .where(lambda v: True, name="heavy",
               cost_ns=heavy_cost, selectivity=1.0)
        .into(sink)
    )
    graph = build.graph()
    derive_rates(graph)
    return graph, sink


class TestReplacementPlan:
    def test_plan_on_live_graph_matches_static_placement(self):
        """Evaluating on a decoupled graph reproduces the static answer."""
        static_graph, _ = build_graph(heavy_cost=5e6)  # overloaded heavy op
        from repro.core.placement import stall_avoiding_partitioning

        static = stall_avoiding_partitioning(static_graph)
        static_cut_names = {
            (e.producer.name, e.consumer.name) for e in static.queue_edges
        }

        live_graph, _ = build_graph(heavy_cost=5e6)
        live_graph.decouple_all()
        plan = stall_avoiding_replacement(live_graph)
        live_cut_names = {(p.name, c.name) for p, c in plan.cuts}
        assert live_cut_names == static_cut_names

    def test_diff_detects_missing_and_superfluous_queues(self):
        graph, _ = build_graph(heavy_cost=5e6)
        graph.decouple_all()  # queues everywhere
        plan = stall_avoiding_replacement(graph)
        to_insert, to_remove = plan.diff(graph)
        # Everything is decoupled already: nothing to insert, but the
        # cheap links should fuse.
        assert to_insert == []
        assert len(to_remove) >= 1

    def test_diff_on_already_optimal_graph_is_empty(self):
        graph, _ = build_graph(heavy_cost=5e6)
        from repro.core.placement import stall_avoiding_partitioning

        stall_avoiding_partitioning(graph).apply(graph)
        plan = stall_avoiding_replacement(graph)
        to_insert, to_remove = plan.diff(graph)
        assert to_insert == []
        assert to_remove == []

    def test_wants_cut(self):
        graph, _ = build_graph(heavy_cost=5e6)
        plan = stall_avoiding_replacement(graph)
        cheap = next(n for n in graph.operators() if n.name == "cheap")
        heavy = next(n for n in graph.operators() if n.name == "heavy")
        assert plan.wants_cut(cheap, heavy)


class TestAdaptiveReplacer:
    def test_rebalance_waits_for_statistics(self):
        graph, sink = build_graph()
        graph.decouple_all()
        engine = ThreadedEngine(graph, gts_config(graph, observe=True))
        replacer = AdaptiveReplacer(engine, min_elements=10)
        report = replacer.rebalance_once()  # nothing measured yet
        assert not report.evaluated
        assert not report.changed

    def test_rebalance_fuses_cheap_operators_mid_run(self):
        graph, sink = build_graph(n=30_000)
        graph.decouple_all()
        assert len(graph.queues()) == 2  # sink edge stays direct
        engine = ThreadedEngine(graph, ots_config(graph, observe=True))
        replacer = AdaptiveReplacer(engine, min_elements=20)
        engine.start()
        # Let measurements accumulate, then rebalance while running.
        deadline = time.monotonic() + 20
        report = None
        while time.monotonic() < deadline:
            time.sleep(0.05)
            report = replacer.rebalance_once()
            if report.evaluated:
                break
        assert report is not None and report.evaluated
        # The cheap chain fuses: fewer queues than the OTS layout.
        assert len(graph.queues()) < 2
        assert engine.join(timeout=60)
        assert len(sink.elements) == 15_000  # no element lost
        assert not engine.errors

    def test_background_loop_runs_and_stops(self):
        graph, sink = build_graph(n=20_000)
        graph.decouple_all()
        engine = ThreadedEngine(graph, ots_config(graph, observe=True))
        replacer = AdaptiveReplacer(engine, min_elements=20)
        engine.start()
        replacer.start(interval_s=0.05)
        assert engine.join(timeout=60)
        replacer.stop()
        assert len(sink.elements) == 10_000
        assert not engine.errors
        # At least one pass ran.
        assert replacer.reports

    def test_requires_observed_engine(self):
        graph, sink = build_graph(n=100)
        graph.decouple_all()
        engine = ThreadedEngine(graph, gts_config(graph, observe=False))
        with pytest.raises(SchedulingError, match="observe=True"):
            AdaptiveReplacer(engine)

    def test_background_loop_keeps_placement_error(self, monkeypatch):
        """A pass that cannot place ends the loop and reports why.

        A list source declares no rate, so Algorithm 1 fails once the
        operators are measured; the thread must not die unhandled.
        """
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        build = QueryBuilder("unrated")
        sink = CollectingSink()
        (
            build.source(ListSource(range(50_000), name="src"))
            .where(lambda v: v % 2 == 0, name="even")
            .map(lambda v: v + 1, name="inc")
            .into(sink)
        )
        graph = build.graph()
        graph.decouple_all()
        engine = ThreadedEngine(graph, ots_config(graph, observe=True))
        replacer = AdaptiveReplacer(engine, min_elements=20)
        engine.start()
        replacer.start(interval_s=0.02)
        assert engine.join(timeout=60)
        replacer.stop()
        assert len(sink.elements) == 25_000
        assert not engine.errors
        assert isinstance(replacer.error, PlacementError)
        assert "no rate information" in str(replacer.error)
        assert unhandled == []

    def test_double_start_rejected(self):
        graph, sink = build_graph(n=100)
        graph.decouple_all()
        engine = ThreadedEngine(graph, gts_config(graph, observe=True))
        replacer = AdaptiveReplacer(engine)
        replacer.start(interval_s=10.0)
        try:
            with pytest.raises(SchedulingError):
                replacer.start(interval_s=10.0)
        finally:
            replacer.stop()

    def test_never_removes_the_last_queue(self):
        """A fully fusible graph must keep one queue for the workers."""
        graph, sink = build_graph(n=20_000)  # everything cheap
        # Single queue after the source.
        src = graph.sources()[0]
        graph.insert_queue(graph.out_edges(src)[0])
        engine = ThreadedEngine(graph, gts_config(graph, observe=True))
        replacer = AdaptiveReplacer(engine, min_elements=20, include_sources=True)
        engine.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            time.sleep(0.05)
            if replacer.rebalance_once().evaluated:
                break
        assert len(graph.queues()) >= 1
        assert engine.join(timeout=60)
        assert len(sink.elements) == 10_000
