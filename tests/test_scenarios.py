"""End-to-end scenario tests combining multiple subsystems.

Each scenario exercises a realistic DSMS workflow across the builder,
placement, engines (real and simulated), statistics, and rendering —
the integration level above per-module tests.
"""

from repro.core import (
    Dispatcher,
    ThreadedEngine,
    build_virtual_operators,
    gts_config,
    hmts_config,
    ots_config,
    stall_avoiding_partitioning,
)
from repro.graph import QueryBuilder, derive_rates
from repro.graph.render import to_text
from repro.operators import WindowedDistinct
from repro.sim import GraphSimConfig, simulate_graph
from repro.streams import (
    CollectingSink,
    ConstantRateSource,
    CountingSink,
    PoissonSource,
)

SECOND = 1_000_000_000


class TestPlacementToExecutionPipeline:
    """Annotate -> place -> apply -> execute, the full §5 workflow."""

    def build(self):
        build = QueryBuilder("scenario")
        sink = CollectingSink()
        (
            build.source(ConstantRateSource(5_000, 100_000.0, name="src"))
            .where(lambda v: v % 2 == 0, name="cheap-a",
                   cost_ns=100.0, selectivity=0.5)
            .where(lambda v: v % 4 == 0, name="cheap-b",
                   cost_ns=100.0, selectivity=0.5)
            .where(lambda v: v % 8 == 0, name="heavy",
                   cost_ns=50_000.0, selectivity=0.5)
            .into(sink)
        )
        graph = build.graph()
        derive_rates(graph)
        return graph, sink

    def test_placement_isolates_heavy_operator(self):
        graph, sink = self.build()
        placement = stall_avoiding_partitioning(graph)
        heavy = next(n for n in graph.operators() if n.name == "heavy")
        assert len(placement.partitioning.partition_of(heavy)) == 1

    def test_placed_graph_runs_correctly_under_hmts(self):
        graph, sink = self.build()
        placement = stall_avoiding_partitioning(graph)
        placement.apply(graph)
        groups = []
        for vo in build_virtual_operators(graph):
            owned = [
                q
                for q in graph.queues()
                if any(vo.contains(e.consumer) for e in graph.out_edges(q))
            ]
            if owned:
                groups.append(owned)
        config = hmts_config(graph, groups=groups, max_concurrency=2)
        report = ThreadedEngine(graph, config).run(timeout=60)
        assert not report.aborted
        assert len(sink.elements) == 625  # 5000 / 8

    def test_same_graph_same_answer_across_all_modes(self):
        expected = None
        for mode_factory in (gts_config, ots_config):
            graph, sink = self.build()
            graph.decouple_all()
            report = ThreadedEngine(graph, mode_factory(graph)).run(timeout=60)
            assert not report.aborted
            if expected is None:
                expected = sink.values
            else:
                assert sink.values == expected

    def test_simulated_and_real_results_agree(self):
        graph, sink = self.build()
        graph.decouple_all()
        sim = simulate_graph(graph, GraphSimConfig(mode="gts"))

        graph2, sink2 = self.build()
        graph2.decouple_all()
        ThreadedEngine(graph2, gts_config(graph2)).run(timeout=60)
        assert sim.total_results == len(sink2.elements)


class TestDedupScenario:
    """Sensor dedup feeding an aggregate, mixed real/declared costs."""

    def test_distinct_then_count(self):
        build = QueryBuilder("dedup")
        sink = CollectingSink()
        stream = build.source(
            PoissonSource(
                2_000,
                rate_per_second=10_000.0,
                seed=5,
                value_fn=lambda i: i % 50,  # 50 hot keys
            )
        )
        (
            stream.through(WindowedDistinct(window_ns=SECOND // 100))
            .aggregate(window_ns=SECOND, aggregate="count")
            .into(sink)
        )
        graph = build.graph()
        graph.decouple_all()
        report = ThreadedEngine(graph, gts_config(graph)).run(timeout=60)
        assert not report.aborted
        # Dedup dropped a large share of the 2000 elements.
        assert 0 < len(sink.elements) < 2_000

    def test_measured_selectivity_feeds_placement(self):
        """A metrics-annotated dedup graph can be partitioned."""
        from repro.core.placement import annotate_from_metrics

        build = QueryBuilder("dedup2")
        sink = CountingSink()
        distinct = WindowedDistinct(window_ns=SECOND)
        stream = build.source(
            ConstantRateSource(
                3_000, 50_000.0, value_fn=lambda i: i % 10
            )
        )
        stream.through(distinct).map(lambda v: v, name="fmt").into(sink)
        graph = build.graph()
        graph.decouple_all()
        report = ThreadedEngine(graph, ots_config(graph, observe=True)).run(
            timeout=60
        )
        # Write back measured selectivity and cost; then partition.
        node = next(
            n for n in graph.operators(include_queues=False)
            if n.payload is distinct
        )
        node.selectivity = distinct.measured_selectivity
        annotate_from_metrics(graph, report.metrics)
        # Remove the queues to produce the static-placement input.
        for queue in list(graph.queues()):
            queue.payload.drain()
            queue.payload.reset()
            graph.remove_queue(queue)
        derive_rates(graph)
        placement = stall_avoiding_partitioning(graph, include_sources=False)
        assert len(placement.partitioning) >= 1
        # 10 distinct keys out of 3000 elements: tiny selectivity.
        assert node.selectivity < 0.05


class TestRenderingIntegration:
    def test_text_rendering_of_partitioned_graph(self):
        build = QueryBuilder("render")
        sink = CountingSink()
        (
            build.source(ConstantRateSource(10, 1_000.0))
            .where(lambda v: True, name="f1", cost_ns=10.0)
            .where(lambda v: True, name="f2", cost_ns=10.0)
            .into(sink)
        )
        graph = build.graph()
        derive_rates(graph)
        stall_avoiding_partitioning(graph).apply(graph)
        text = to_text(graph)
        assert "f1" in text and "f2" in text

    def test_di_smoke_after_render(self):
        """Rendering must not disturb graph state."""
        build = QueryBuilder()
        sink = CollectingSink()
        build.source(ConstantRateSource(10, 1_000.0)).map(
            lambda v: v + 1
        ).into(sink)
        graph = build.graph()
        to_text(graph)
        dispatcher = Dispatcher(graph)
        src = graph.sources()[0]
        for element in src.payload:
            for edge in graph.out_edges(src):
                dispatcher.inject(edge.consumer, element, edge.port)
        assert sink.values == list(range(1, 11))
