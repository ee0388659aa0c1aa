"""Tests for the general graph simulator."""

import pytest

from repro.errors import SimulationError
from repro.graph import QueryBuilder, derive_rates
from repro.sim.graph_engine import GraphSimConfig, simulate_graph
from repro.streams import ConstantRateSource, CountingSink

SECOND = 1_000_000_000


def chain_graph(decouple=True, m=10_000, rate=100_000.0):
    build = QueryBuilder("chain")
    sink = CountingSink("out")
    (
        build.source(ConstantRateSource(m, rate))
        .where_fraction(0.5, cost_ns=300, name="a")
        .where_fraction(0.5, cost_ns=300, name="b")
        .into(sink)
    )
    graph = build.graph()
    derive_rates(graph)
    if decouple:
        graph.decouple_all()
    return graph


def diamond_graph(m=20_000):
    """Shared subquery + union + second source (fan-out and fan-in)."""
    build = QueryBuilder("diamond")
    s1 = build.source(ConstantRateSource(m, 100_000.0, name="s1"))
    s2 = build.source(ConstantRateSource(m // 2, 50_000.0, name="s2"))
    shared = s1.where_fraction(0.5, cost_ns=300, name="half")
    a = shared.where_fraction(0.2, cost_ns=500, name="a")
    b = shared.where_fraction(0.8, cost_ns=200, name="b")
    merged = a.union(b)
    merged.node.cost_ns = 50
    sink1, sink2 = CountingSink("out1"), CountingSink("out2")
    merged.where_fraction(1.0, cost_ns=100, name="tail").into(sink1)
    s2.where_fraction(0.3, cost_ns=1_000, name="s2f").into(sink2)
    graph = build.graph()
    derive_rates(graph)
    return graph


class TestResultExactness:
    @pytest.mark.parametrize("mode", ["ots", "gts"])
    def test_chain_counts(self, mode):
        graph = chain_graph()
        result = simulate_graph(graph, GraphSimConfig(mode=mode))
        assert result.sink_counts["out"] == 2_500  # 10k * 0.5 * 0.5

    @pytest.mark.parametrize("mode", ["ots", "gts"])
    def test_diamond_counts(self, mode, ):
        graph = diamond_graph()
        graph.decouple_all()
        result = simulate_graph(graph, GraphSimConfig(mode=mode))
        # out1: 20k*0.5 = 10k shared; branches 0.2 + 0.8 -> 10k total.
        assert result.sink_counts["out1"] == 10_000
        assert result.sink_counts["out2"] == 3_000

    def test_di_only_graph_without_queues(self):
        """No queues at all: sources drive everything inline."""
        graph = chain_graph(decouple=False)
        result = simulate_graph(graph, GraphSimConfig())
        assert result.sink_counts["out"] == 2_500
        assert result.queue_peaks == {}

    def test_hmts_groups(self):
        graph = chain_graph()
        queues = graph.queues()
        config = GraphSimConfig(
            mode="hmts",
            queue_groups=[queues[:1], queues[1:]],
            priorities=[1.0, 0.0],
        )
        result = simulate_graph(graph, config)
        assert result.sink_counts["out"] == 2_500

    def test_counts_match_threaded_engine(self):
        """The simulator and the real-thread engine agree on results."""
        from repro.core.engine import ThreadedEngine
        from repro.core.modes import gts_config

        sim_graph_instance = chain_graph()
        sim_result = simulate_graph(sim_graph_instance, GraphSimConfig(mode="gts"))

        real_graph = chain_graph()
        report = ThreadedEngine(real_graph, gts_config(real_graph)).run(
            timeout=60
        )
        assert sim_result.sink_counts["out"] == report.sink_counts["out"]


class TestTimingShape:
    def test_partitioned_beats_gts_with_expensive_tail(self):
        """A heavy tail VO on its own thread exploits the second core."""
        build = QueryBuilder("heavy")
        sink = CountingSink("out")
        (
            build.source(ConstantRateSource(20_000, 1_000_000.0))
            .where_fraction(1.0, cost_ns=2_000, name="cheap")
            .where_fraction(0.5, cost_ns=6_000, name="heavy")
            .into(sink)
        )
        graph = build.graph()
        derive_rates(graph)
        graph.decouple_all()
        gts = simulate_graph(graph, GraphSimConfig(mode="gts", n_cores=2))

        graph2 = QueryBuilder("heavy2")
        sink2 = CountingSink("out")
        (
            graph2.source(ConstantRateSource(20_000, 1_000_000.0))
            .where_fraction(1.0, cost_ns=2_000, name="cheap")
            .where_fraction(0.5, cost_ns=6_000, name="heavy")
            .into(sink2)
        )
        g2 = graph2.graph()
        derive_rates(g2)
        g2.decouple_all()
        ots = simulate_graph(g2, GraphSimConfig(mode="ots", n_cores=2))
        assert ots.sink_counts == gts.sink_counts
        assert ots.runtime_ns < gts.runtime_ns

    def test_runtime_at_least_source_span(self):
        graph = chain_graph(m=1_000, rate=1_000.0)  # 1 second span
        result = simulate_graph(graph, GraphSimConfig())
        assert result.runtime_ns >= 0.99 * SECOND

    def test_memory_sampling(self):
        graph = chain_graph()
        result = simulate_graph(
            graph, GraphSimConfig(sample_interval_ns=SECOND // 100)
        )
        assert len(result.memory) > 0


class TestDeterminism:
    def test_identical_runs(self):
        a = simulate_graph(diamond_graph_with_queues(), GraphSimConfig(mode="gts"))
        b = simulate_graph(diamond_graph_with_queues(), GraphSimConfig(mode="gts"))
        assert a.runtime_ns == b.runtime_ns
        assert a.sink_counts == b.sink_counts


def diamond_graph_with_queues():
    graph = diamond_graph()
    graph.decouple_all()
    return graph


class TestValidation:
    def test_hmts_requires_groups(self):
        graph = chain_graph()
        with pytest.raises(SimulationError, match="queue_groups"):
            simulate_graph(graph, GraphSimConfig(mode="hmts"))

    def test_groups_must_cover_all_queues(self):
        graph = chain_graph()
        queues = graph.queues()
        config = GraphSimConfig(mode="hmts", queue_groups=[queues[:1]])
        with pytest.raises(SimulationError, match="cover"):
            simulate_graph(graph, config)

    def test_foreign_queue_rejected(self):
        graph = chain_graph()
        other = chain_graph()
        config = GraphSimConfig(
            mode="hmts", queue_groups=[other.queues()]
        )
        with pytest.raises(SimulationError, match="not a queue"):
            simulate_graph(graph, config)

    def test_priorities_length_checked(self):
        graph = chain_graph()
        config = GraphSimConfig(
            mode="hmts",
            queue_groups=[graph.queues()],
            priorities=[1.0, 2.0],
        )
        with pytest.raises(SimulationError, match="priorities"):
            simulate_graph(graph, config)

    def test_unknown_strategy_rejected(self):
        graph = chain_graph()
        config = GraphSimConfig(mode="gts", strategy="no-such-strategy")
        with pytest.raises(SimulationError, match="no-such-strategy"):
            simulate_graph(graph, config)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["fifo", "chain", "round-robin"])
    def test_all_strategies_complete(self, strategy):
        graph = chain_graph()
        result = simulate_graph(
            graph, GraphSimConfig(mode="gts", strategy=strategy)
        )
        assert result.sink_counts["out"] == 2_500
