"""Tests for the runtime observability layer (repro.obs).

Covers the ISSUE 5 acceptance criteria: zero instrumentation when
``observe`` is off (no registry objects, byte-identical dispatch plans,
``repro.obs`` never imported), metrics parity between the thread and
process backends on the paper's Fig. 7 query shape, and the bounded
ring-buffer tracer's wraparound behavior.

Operator callables are module-level (the process backend pickles
operator payloads).
"""

import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.api import Engine
from repro.core.dataflow import Dispatcher
from repro.core.modes import hmts_config
from repro.core.placement import annotate_from_metrics
from repro.graph.builder import QueryBuilder
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    merge_snapshots,
    metrics_to_json,
    metrics_to_prometheus,
)
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource


def keep_mod(modulus, value):
    return value % modulus != 0


def keep_even(value):
    return value % 2 == 0


def slow_identity(value):
    time.sleep(0.001)
    return value


def triple(value):
    return value * 3


#: Fig. 7 moduli approximating the paper's selectivities
#: 0.998, 0.996, ~0.994, 0.992, 0.990 with a deterministic filter.
FIG07_MODULI = (500, 250, 167, 125, 100)

N_FIG07 = 3000


def build_fig07_graph(n=N_FIG07):
    """The paper's Fig. 7 query: a chain of five cheap selections."""
    build = QueryBuilder("fig07")
    sink = CollectingSink()
    stage = build.source(ListSource(range(n)), name="src").decouple(
        name="q-src"
    )
    for index, modulus in enumerate(FIG07_MODULI):
        stage = stage.where(
            partial(keep_mod, modulus),
            name=f"sel{index}",
            selectivity=1.0 - 1.0 / modulus,
        ).decouple(name=f"q{index}")
    stage.into(sink)
    return build.graph(), sink


def build_small_graph(n=800):
    build = QueryBuilder("small")
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


class TestOffModeZeroInstrumentation:
    def test_engine_allocates_nothing_when_off(self):
        graph, sink = build_small_graph()
        engine = Engine.from_graph(graph, "gts", observe=False)
        assert engine.metrics is None
        assert engine.tracer is None
        report = engine.run(timeout=30)
        assert report.metrics is None
        assert sink.values == [v * 3 for v in range(800) if v % 2 == 0]

    def test_dispatch_plans_byte_identical(self):
        # Two dispatchers over the same graph, one observed — the
        # compiled plans must serialize to the exact same bytes
        # (observation lives in _invoke, never in the plan).
        graph, _ = build_small_graph()
        plain = Dispatcher(graph)
        observed = Dispatcher(graph, observer=MetricsRegistry())
        for node in graph.nodes:
            assert repr(plain._plan_for(node)) == repr(
                observed._plan_for(node)
            )
        assert observed._timed and not plain._timed

    def test_obs_never_imported_when_off(self):
        # Fresh interpreter: a full engine run with observe=False must
        # not even import repro.obs.
        script = (
            "import sys\n"
            "from repro.graph.builder import QueryBuilder\n"
            "from repro.streams.sources import ListSource\n"
            "from repro.streams.sinks import CollectingSink\n"
            "from repro.api import Engine\n"
            "build = QueryBuilder()\n"
            "sink = CollectingSink()\n"
            "(build.source(ListSource(range(100))).decouple()\n"
            "      .map(lambda v: v + 1).into(sink))\n"
            "graph = build.graph()\n"
            "report = Engine.from_graph(graph, 'gts', observe=False"
            ").run(timeout=30)\n"
            "assert report.metrics is None\n"
            "assert len(sink.elements) == 100\n"
            "assert 'repro.obs' not in sys.modules, 'obs imported!'\n"
            "print('CLEAN')\n"
        )
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        env.pop("REPRO_OBSERVE", None)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "CLEAN" in result.stdout


class TestTracer:
    def test_ring_buffer_wraparound(self):
        tracer = EventTracer(capacity=4)
        for index in range(10):
            tracer.record("schedule", f"unit-{index}", seq=index)
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        events = tracer.events()
        assert len(events) == 4
        # Oldest-first, holding exactly the last four records.
        assert [dict(e.detail)["seq"] for e in events] == [6, 7, 8, 9]
        assert all(e.kind == "schedule" for e in events)

    def test_dump_and_unknown_kind(self):
        tracer = EventTracer(capacity=8)
        tracer.record("end", "src")
        text = tracer.dump()
        assert "end" in text and "src" in text
        try:
            tracer.record("sparkle", "x")
        except Exception as error:
            assert "sparkle" in str(error)
        else:
            raise AssertionError("unknown trace kind accepted")

    def test_engine_records_lifecycle_events(self):
        graph, _ = build_small_graph(200)
        engine = Engine.from_graph(graph, "gts", observe=True)
        engine.run(timeout=30)
        kinds = {event.kind for event in engine.tracer.events()}
        assert "end" in kinds


class TestMetricsParity:
    def _run(self, backend):
        graph, sink = build_fig07_graph()
        report = Engine.from_graph(
            graph, "gts", backend=backend, observe=True, batch_size=32
        ).run(timeout=120)
        assert report.failure is None and not report.aborted
        return sink.values, report.metrics

    def test_fig07_thread_vs_process(self):
        thread_out, thread_metrics = self._run("thread")
        process_out, process_metrics = self._run("process")
        assert thread_out == process_out
        assert set(thread_metrics["operators"]) == set(
            process_metrics["operators"]
        )
        for name in thread_metrics["operators"]:
            t = thread_metrics["operators"][name]
            p = process_metrics["operators"][name]
            assert t["elements_in"] == p["elements_in"], name
            assert t["elements_out"] == p["elements_out"], name
            assert t["selectivity"] == p["selectivity"], name
        assert set(thread_metrics["queues"]) == set(
            process_metrics["queues"]
        )
        for name in thread_metrics["queues"]:
            assert (
                thread_metrics["queues"][name]["pushed"]
                == process_metrics["queues"][name]["pushed"]
            ), name


class TestSchedulerInstruments:
    def test_units_and_schedule_traces_under_permits(self):
        graph, sink = build_small_graph()
        queues = {node.name: node for node in graph.queues()}
        config = hmts_config(
            graph,
            groups=[[queues["q0"]], [queues["q1"]]],
            max_concurrency=1,
            observe=True,
        )
        engine = Engine.from_graph(graph, config=config)
        report = engine.run(timeout=30)
        assert report.failure is None
        units = report.metrics["scheduler"]
        assert units, "no scheduler-unit instruments recorded"
        assert sum(unit["grants"] for unit in units.values()) > 0
        kinds = {event.kind for event in engine.tracer.events()}
        assert "schedule" in kinds


class TestExposition:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.operator("sel0").observe(100, 99, 5_000, 0, 990)
        registry.queue("q0").sync(3, 17, 120)
        registry.partition("gts").observe_grant(64, 9_000)
        registry.scheduler_unit("gts@0").grants = 2
        return registry.snapshot()

    def test_json_round_trip(self):
        snapshot = self._snapshot()
        decoded = json.loads(metrics_to_json(snapshot))
        assert decoded["operators"]["sel0"]["elements_in"] == 100
        assert decoded["queues"]["q0"]["high_water"] == 17

    def test_prometheus_text(self):
        text = metrics_to_prometheus(self._snapshot())
        assert (
            'repro_operator_elements_in_total{operator="sel0"} 100' in text
        )
        assert 'repro_queue_high_water{queue="q0"} 17' in text
        assert "# TYPE repro_operator_elements_in_total counter" in text

    def test_prometheus_escapes_labels(self):
        registry = MetricsRegistry()
        registry.operator('we"ird\nname').observe(1, 1, 10, 0, 0)
        text = metrics_to_prometheus(registry.snapshot())
        assert '\\"' in text and "\\n" in text


class TestAggregation:
    def test_merge_sums_counters_and_recomputes_selectivity(self):
        first = MetricsRegistry()
        first.operator("sel").observe(100, 50, 1_000, 0, 99)
        first.queue("q").sync(2, 10, 100)
        second = MetricsRegistry()
        second.operator("sel").observe(300, 30, 3_000, 100, 399)
        second.queue("q").sync(5, 25, 300)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        op = merged["operators"]["sel"]
        assert op["elements_in"] == 400
        assert op["elements_out"] == 80
        assert op["selectivity"] == 80 / 400
        queue = merged["queues"]["q"]
        assert queue["pushed"] == 400
        assert queue["high_water"] == 25


class TestStatsIngestion:
    def test_report_metrics_feed_annotate(self):
        graph, _ = build_small_graph()
        report = Engine.from_graph(graph, "gts", observe=True).run(
            timeout=30
        )
        annotate_from_metrics(graph, report.metrics)
        even = next(n for n in graph.nodes if n.name == "even")
        measured = report.metrics["operators"]["even"]
        assert even.cost_ns == measured["service_ns_ewma"]
        assert even.cost_ns is not None and even.cost_ns >= 0
        # Index-stamped source: the gap is in element-timestamp units.
        assert even.interarrival_ns == measured["interarrival_ns"] == 1.0


class TestSampler:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_sampler_fills_memory_samples(self, backend, monkeypatch):
        from repro.obs.sampler import PeriodicSampler

        started = []
        original_start = PeriodicSampler.start

        def counting_start(sampler):
            started.append(sampler)
            return original_start(sampler)

        monkeypatch.setattr(PeriodicSampler, "start", counting_start)
        # Slow enough (~0.3 s) for several ticks: the process backend
        # samples only while its workers run, and a worker answers polls
        # only between grants (hence batch_limit).
        build = QueryBuilder("slow")
        sink = CollectingSink()
        (
            build.source(ListSource(range(300)), name="src")
            .decouple(name="q0")
            .map(slow_identity, name="slow")
            .into(sink)
        )
        engine = Engine.from_graph(
            build.graph(), "gts", backend=backend, observe=True, batch_limit=10
        )
        report = engine.run(timeout=60)
        assert sink.values == list(range(300))
        assert len(started) == 1
        samples = report.memory_samples
        assert samples
        times = [wall_ns for wall_ns, _ in samples]
        assert times == sorted(times)
        assert all(total >= 0 for _, total in samples)
        # The slow operator's input queue backs up while it runs.
        assert max(total for _, total in samples) > 0
