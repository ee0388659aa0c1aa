"""Tests for runtime statistics (c(v)/d(v) measurement)."""

import pytest

from repro.core.placement import annotate_from_metrics
from repro.graph.builder import QueryBuilder
from repro.obs import MetricsRegistry, OperatorMetrics
from repro.streams.sinks import CountingSink
from repro.streams.sources import ListSource


class TestOperatorStatistics:
    """``OperatorMetrics`` as the measured ``c(v)`` and ``d(v)``."""

    def test_measures_cost_and_interarrival(self):
        metrics = OperatorMetrics()
        metrics.observe(1, 1, 500, 0, 0)
        metrics.observe(1, 1, 700, 1_000, 1_000)
        # Service-time EWMA with the shared alpha of 0.2.
        assert metrics.service_ns_ewma == pytest.approx(540.0)
        assert metrics.interarrival_ns == 1_000.0
        assert metrics.elements_in == 2

    def test_utilization(self):
        metrics = OperatorMetrics()
        metrics.observe(1, 1, 500, 0, 0)
        metrics.observe(1, 1, 500, 1_000, 1_000)
        assert metrics.utilization == pytest.approx(0.5)

    def test_utilization_none_before_data(self):
        assert OperatorMetrics().utilization is None

    def test_overload_detectable(self):
        metrics = OperatorMetrics()
        metrics.observe(1, 1, 2_000, 0, 0)
        metrics.observe(1, 1, 2_000, 1_000, 1_000)
        assert metrics.utilization > 1.0


class TestStatisticsRegistry:
    """``MetricsRegistry`` snapshots feeding ``annotate_from_metrics``."""

    def build_graph(self):
        build = QueryBuilder()
        sink = CountingSink()
        stream = build.source(ListSource(range(10)))
        node = stream.where(lambda v: True, name="sel").node
        stream.where(lambda v: True).into(sink)
        return build.graph(validate=False), node

    def test_lazy_creation(self):
        registry = MetricsRegistry()
        assert registry.snapshot()["operators"] == {}
        registry.operator("sel").observe(1, 1, 100, 0, 0)
        assert len(registry.snapshot()["operators"]) == 1
        assert registry.operator("sel") is registry.operator("sel")

    def test_annotate_writes_measured_values(self):
        graph, node = self.build_graph()
        registry = MetricsRegistry()
        registry.operator("sel").observe(1, 1, 250, 0, 0)
        registry.operator("sel").observe(1, 1, 250, 2_000, 2_000)
        annotate_from_metrics(graph, registry.snapshot())
        assert node.cost_ns == pytest.approx(250.0)
        assert node.interarrival_ns == pytest.approx(2_000.0)

    def test_annotate_skips_sparse_measurements(self):
        graph, node = self.build_graph()
        registry = MetricsRegistry()
        registry.operator("sel").observe(1, 1, 250, 0, 0)  # a single sample
        annotate_from_metrics(graph, registry.snapshot(), min_elements=2)
        assert node.cost_ns is None  # selection has no declared cost

    def test_iteration_yields_pairs(self):
        graph, node = self.build_graph()
        registry = MetricsRegistry()
        registry.operator(node.name).observe(1, 1, 1, 0, 0)
        pairs = list(registry.snapshot()["operators"].items())
        assert pairs[0][0] == node.name
        assert pairs[0][1]["elements_in"] == 1
