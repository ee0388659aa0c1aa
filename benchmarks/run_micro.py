#!/usr/bin/env python
"""Standalone micro-benchmark runner: scalar vs batched substrate paths.

Times the scalar/batched kernel pairs from ``bench_micro.py`` without a
pytest-benchmark dependency and writes a JSON report (default:
``BENCH_micro.json`` at the repo root) recording elements/sec for each
variant plus the batched-over-scalar speedup.

The report keeps a history: each invocation appends (or refreshes) an
entry in the ``runs`` list keyed by the current git commit (suffixed
``-dirty`` when the tree has uncommitted changes), so CI
artifacts accumulate comparable data points instead of overwriting the
previous run.  The top-level ``config``/``benchmarks`` always mirror
the latest run.

Usage::

    PYTHONPATH=src python benchmarks/run_micro.py [--out PATH] [--n N]
                                                  [--batch B] [--repeat R]
                                                  [--profile]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.dataflow import Dispatcher  # noqa: E402
from repro.graph.builder import QueryBuilder  # noqa: E402
from repro.mp.queues import RingQueue  # noqa: E402
from repro.mp.ring import ShmRing  # noqa: E402
from repro.operators.aggregate import WindowedAggregate  # noqa: E402
from repro.operators.joins import SymmetricHashJoin  # noqa: E402
from repro.operators.queue_op import QueueOperator  # noqa: E402
from repro.operators.selection import SimulatedSelection  # noqa: E402
from repro.streams.elements import StreamElement  # noqa: E402
from repro.streams.sinks import CountingSink  # noqa: E402
from repro.streams.sources import ListSource  # noqa: E402

SELECTIVITIES = (0.998, 0.996, 0.994, 0.992, 0.990)


def _build_chain():
    """5-selection DI chain; returns (dispatcher, first operator node)."""
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for selectivity in SELECTIVITIES:
        stream = stream.where_fraction(selectivity)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    return Dispatcher(graph), graph, first


def bench_selection_scalar(n: int, batch: int) -> int:
    op = SimulatedSelection(0.5)
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    total = 0
    for element in elements:
        total += len(op.process(element))
    return total


def bench_selection_batched(n: int, batch: int) -> int:
    op = SimulatedSelection(0.5)
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    total = 0
    for start in range(0, n, batch):
        total += len(op.process_batch(elements[start : start + batch]))
    return total


def bench_di_dispatch_scalar(n: int, batch: int) -> int:
    dispatcher, _, first = _build_chain()
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    for element in elements:
        dispatcher.inject(first, element)
    return dispatcher.sink_deliveries


def bench_di_dispatch_batched(n: int, batch: int) -> int:
    dispatcher, _, first = _build_chain()
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    for start in range(0, n, batch):
        dispatcher.inject_batch(first, elements[start : start + batch])
    return dispatcher.sink_deliveries


#: Last metrics snapshot taken by the observed DI benchmark (written to
#: ``--metrics-out`` so CI uploads it alongside the BENCH files).
_LAST_OBS_SNAPSHOT: dict | None = None


def bench_di_dispatch_observed(n: int, batch: int) -> int:
    """Batched DI dispatch with the repro.obs registry enabled.

    Paired against :func:`bench_di_dispatch_batched` as the baseline;
    the pair's "speedup" is baseline/observed, so the enabled-metrics
    overhead is ``1/speedup - 1`` (CI gates it at 10%).
    """
    global _LAST_OBS_SNAPSHOT
    from repro.obs import MetricsRegistry

    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for selectivity in SELECTIVITIES:
        stream = stream.where_fraction(selectivity)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    registry = MetricsRegistry()
    dispatcher = Dispatcher(graph, observer=registry)
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    for start in range(0, n, batch):
        dispatcher.inject_batch(first, elements[start : start + batch])
    _LAST_OBS_SNAPSHOT = registry.snapshot()
    return dispatcher.sink_deliveries


def bench_queue_roundtrip_scalar(n: int, batch: int) -> int:
    queue = QueueOperator()
    elements = [StreamElement(value=i) for i in range(n)]
    for element in elements:
        queue.push(element)
    drained = 0
    while queue.try_pop() is not None:
        drained += 1
    return drained


def bench_queue_roundtrip_batched(n: int, batch: int) -> int:
    queue = QueueOperator()
    elements = [StreamElement(value=i) for i in range(n)]
    for start in range(0, n, batch):
        queue.push_many(elements[start : start + batch])
    drained = 0
    while True:
        popped = queue.pop_many(batch)
        if not popped:
            return drained
        drained += len(popped)


def bench_queue_roundtrip_spsc_locked(n: int, batch: int) -> int:
    """Reference for the SPSC pair: the default Condition-locked path."""
    return bench_queue_roundtrip_batched(n, batch)


def bench_queue_roundtrip_spsc_fast(n: int, batch: int) -> int:
    """Same bulk transfer over the lock-free point-to-point path."""
    queue = QueueOperator()
    queue.enable_spsc()
    elements = [StreamElement(value=i) for i in range(n)]
    for start in range(0, n, batch):
        queue.push_many(elements[start : start + batch])
    drained = 0
    while True:
        popped = queue.pop_many(batch)
        if not popped:
            return drained
        drained += len(popped)


def _ring_elements(n: int) -> List[StreamElement]:
    # Explicit seqs, so both variants checksum the same elements.
    return [StreamElement(value=i, timestamp=10 * i, seq=i) for i in range(n)]


def _ring_checksum(elements: List[StreamElement]) -> int:
    """Order-sensitive checksum over (value, timestamp, seq)."""
    checksum = 0
    for element in elements:
        checksum = (
            checksum * 31 + element.value + 3 * element.timestamp + 7 * element.seq
        ) % (1 << 61)
    return checksum


def bench_ring_roundtrip_scalar(n: int, batch: int) -> int:
    """One-element push / try_pop through a shared-memory ring queue."""
    ring = ShmRing.create()
    try:
        queue = RingQueue(ring, name="ring")
        received = []
        for element in _ring_elements(n):
            queue.push(element)
            received.append(queue.try_pop())
        return _ring_checksum(received)
    finally:
        ring.close()
        ring.unlink()


def bench_ring_roundtrip_batched(n: int, batch: int) -> int:
    """push_many / pop_many of ``batch`` elements through a ring queue."""
    ring = ShmRing.create()
    try:
        queue = RingQueue(ring, name="ring")
        elements = _ring_elements(n)
        received = []
        for start in range(0, n, batch):
            queue.push_many(elements[start : start + batch])
            received.extend(queue.pop_many(batch))
        return _ring_checksum(received)
    finally:
        ring.close()
        ring.unlink()


def bench_run_queue_scalar(n: int, batch: int) -> int:
    dispatcher, graph, first = _build_chain()
    queue_node = graph.insert_queue(graph.in_edges(first)[0])
    queue_op = queue_node.payload
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    queue_op.push_many(elements)
    return dispatcher.run_queue(queue_node)


def bench_run_queue_batched(n: int, batch: int) -> int:
    dispatcher, graph, first = _build_chain()
    queue_node = graph.insert_queue(graph.in_edges(first)[0])
    queue_op = queue_node.payload
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    queue_op.push_many(elements)
    return dispatcher.run_queue(queue_node, batch_size=batch)


def bench_shj_probe_scalar(n: int, batch: int) -> list:
    join = SymmetricHashJoin(window_ns=1_000)
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(n)]
    total = 0
    for index, element in enumerate(elements):
        total += len(join.process(element, (index // batch) % 2))
    return [total, join.total_probe_work]


def bench_shj_probe_batched(n: int, batch: int) -> list:
    join = SymmetricHashJoin(window_ns=1_000)
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(n)]
    total = 0
    for start in range(0, n, batch):
        port = (start // batch) % 2
        total += len(join.process_batch(elements[start : start + batch], port))
    return [total, join.total_probe_work]


def bench_windowed_aggregate_scalar(n: int, batch: int) -> float:
    op = WindowedAggregate(window_ns=1_000, aggregate="sum")
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(n)]
    checksum = 0
    for element in elements:
        for out in op.process(element):
            checksum += out.value
    return checksum


def bench_windowed_aggregate_batched(n: int, batch: int) -> float:
    op = WindowedAggregate(window_ns=1_000, aggregate="sum")
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(n)]
    checksum = 0
    for start in range(0, n, batch):
        for out in op.process_batch(elements[start : start + batch]):
            checksum += out.value
    return checksum


def _build_fused_chain():
    """8-stage straight-line VO: maps interleaved with filters."""
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for stage in range(4):
        stream = stream.map(lambda v, _s=stage: v + _s)
        stream = stream.where_fraction(0.99 - stage * 0.01)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    return Dispatcher(graph), first


def bench_fused_vo_chain_scalar(n: int, batch: int) -> int:
    dispatcher, first = _build_fused_chain()
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    for element in elements:
        dispatcher.inject(first, element)
    return dispatcher.sink_deliveries


def bench_fused_vo_chain_batched(n: int, batch: int) -> int:
    dispatcher, first = _build_fused_chain()
    elements = [StreamElement(value=i, timestamp=i) for i in range(n)]
    for start in range(0, n, batch):
        dispatcher.inject_batch(first, elements[start : start + batch])
    return dispatcher.sink_deliveries


PAIRS: Dict[str, Dict[str, Callable[[int, int], int]]] = {
    "selection_kernel": {
        "scalar": bench_selection_scalar,
        "batched": bench_selection_batched,
    },
    "di_dispatch": {
        "scalar": bench_di_dispatch_scalar,
        "batched": bench_di_dispatch_batched,
    },
    # "scalar" = unobserved batched dispatch (baseline), "batched" =
    # the same dispatch with the metrics registry attached — the
    # inverse speedup is the enabled-observability overhead.
    "di_dispatch_observed": {
        "scalar": bench_di_dispatch_batched,
        "batched": bench_di_dispatch_observed,
    },
    "queue_roundtrip": {
        "scalar": bench_queue_roundtrip_scalar,
        "batched": bench_queue_roundtrip_batched,
    },
    # "scalar" = the Condition-locked path, "batched" = the SPSC fast
    # path, same bulk operations — the speedup isolates the lock cost.
    "queue_roundtrip_spsc": {
        "scalar": bench_queue_roundtrip_spsc_locked,
        "batched": bench_queue_roundtrip_spsc_fast,
    },
    # Process-backend transport: the envelope encode/decode and the
    # shared-memory copy, checksummed so a decoding fault fails the run.
    "ring_roundtrip": {
        "scalar": bench_ring_roundtrip_scalar,
        "batched": bench_ring_roundtrip_batched,
    },
    "run_queue": {
        "scalar": bench_run_queue_scalar,
        "batched": bench_run_queue_batched,
    },
    "shj_probe": {
        "scalar": bench_shj_probe_scalar,
        "batched": bench_shj_probe_batched,
    },
    "windowed_aggregate": {
        "scalar": bench_windowed_aggregate_scalar,
        "batched": bench_windowed_aggregate_batched,
    },
    "fused_vo_chain": {
        "scalar": bench_fused_vo_chain_scalar,
        "batched": bench_fused_vo_chain_batched,
    },
}


def _measure_observe_overhead(n: int, batch: int, repeat: int) -> float:
    """Enabled-metrics overhead on batched DI dispatch, as a fraction.

    Measured separately from the PAIRS timings: the two variants are
    interleaved run-for-run and each takes its best-of-``repeat``, so
    scheduler/GC jitter hits both sides alike — a one-shot comparison
    of two independently-timed benchmarks is far too noisy to gate on
    at smoke sizes.
    """
    bench_di_dispatch_batched(n, batch)
    bench_di_dispatch_observed(n, batch)
    base = observed = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        bench_di_dispatch_batched(n, batch)
        base = min(base, time.perf_counter() - start)
        start = time.perf_counter()
        bench_di_dispatch_observed(n, batch)
        observed = min(observed, time.perf_counter() - start)
    return observed / base - 1.0


def _time_best(fn: Callable[[int, int], int], n: int, batch: int, repeat: int):
    """Best-of-``repeat`` wall time; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(n, batch)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _profile_to_stderr(name: str, variant: str, fn, n: int, batch: int) -> None:
    """One profiled pass; top-20 cumulative hotspots to stderr."""
    profiler = cProfile.Profile()
    profiler.runcall(fn, n, batch)
    print(f"--- profile: {name}/{variant} (top 20 by cumulative) ---", file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(20)


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "describe", "--always", "--dirty", "--abbrev=7"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def merge_history(previous: dict | None, report: dict, sha: str) -> dict:
    """Fold ``report`` into the accumulated ``runs`` history.

    The output keeps the latest run's ``config``/``benchmarks`` at the
    top level (the shape consumers already parse) and appends a run
    entry keyed by git SHA.  A rerun on the same commit replaces its
    earlier entry; a pre-history file (no ``runs``) is migrated by
    treating its top level as one run of unknown provenance.  The
    migrated run is marked ``migrated`` and never replaced, so it
    survives a new run whose SHA is the ``"unknown"`` fallback too.
    """
    runs: List[dict] = []
    if previous:
        runs = list(previous.get("runs", []))
        if not runs and "benchmarks" in previous:
            runs.append(
                {
                    "sha": previous.get("sha", "unknown"),
                    "migrated": True,
                    "timestamp": previous.get("timestamp"),
                    "config": previous.get("config"),
                    "benchmarks": previous.get("benchmarks"),
                }
            )
    entry = {
        "sha": sha,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": report["config"],
        "benchmarks": report["benchmarks"],
    }
    runs = [run_ for run_ in runs if run_.get("migrated") or run_.get("sha") != sha]
    runs.append(entry)
    return {
        "config": report["config"],
        "benchmarks": report["benchmarks"],
        "sha": sha,
        "runs": runs,
    }


def run(n: int, batch: int, repeat: int, profile: bool = False) -> dict:
    benchmarks = {}
    for name, variants in PAIRS.items():
        entry = {}
        for variant, fn in variants.items():
            # Warm-up pass so one-time costs (imports, first-call plan
            # compilation) don't land in the measured run.
            fn(n, batch)
            if profile:
                _profile_to_stderr(name, variant, fn, n, batch)
            seconds, result = _time_best(fn, n, batch, repeat)
            entry[variant] = {
                "seconds": seconds,
                "elements_per_sec": n / seconds if seconds > 0 else None,
                "result": result,
            }
        scalar_s = entry["scalar"]["seconds"]
        batched_s = entry["batched"]["seconds"]
        entry["speedup"] = scalar_s / batched_s if batched_s > 0 else None
        # The batched path is only a valid optimisation if it computes
        # the same answer; a mismatch fails the run (and CI).
        entry["results_match"] = entry["scalar"]["result"] == entry["batched"]["result"]
        benchmarks[name] = entry
    return {
        "config": {"n": n, "batch_size": batch, "repeat": repeat},
        "benchmarks": benchmarks,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_micro.json",
        help="output JSON path (default: BENCH_micro.json at the repo root)",
    )
    parser.add_argument("--n", type=int, default=50_000, help="elements per run")
    parser.add_argument("--batch", type=int, default=64, help="batch size")
    parser.add_argument(
        "--repeat", type=int, default=5, help="repetitions (best-of wall time)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run (n=4000, repeat=2) for CI correctness checking",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="emit cProfile top-20 cumulative hotspots per benchmark to stderr",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="where to write the observed run's metrics snapshot "
        "(default: BENCH_metrics.json next to --out)",
    )
    parser.add_argument(
        "--max-observe-overhead",
        type=float,
        default=None,
        help="fail when enabled-metrics overhead on di_dispatch_observed "
        "exceeds this fraction (<= 0 disables the gate; default 0.10 "
        "under --smoke, disabled otherwise)",
    )
    args = parser.parse_args(argv)
    if args.metrics_out is None:
        args.metrics_out = args.out.parent / "BENCH_metrics.json"
    if args.max_observe_overhead is None:
        args.max_observe_overhead = 0.10 if args.smoke else 0.0
    if args.smoke:
        args.n = min(args.n, 4_000)
        args.repeat = min(args.repeat, 2)
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.batch < 1:
        parser.error("--batch must be >= 1")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    report = run(args.n, args.batch, args.repeat, profile=args.profile)
    previous = None
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except (OSError, json.JSONDecodeError):
            previous = None  # corrupt history: start fresh, keep the run
    merged = merge_history(previous, report, _git_sha())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(merged, indent=2) + "\n")

    print(f"n={args.n} batch={args.batch} repeat={args.repeat}")
    mismatched = []
    for name, entry in report["benchmarks"].items():
        print(
            f"  {name:20s} scalar {entry['scalar']['elements_per_sec']:>12,.0f} el/s"
            f"  batched {entry['batched']['elements_per_sec']:>12,.0f} el/s"
            f"  speedup {entry['speedup']:.2f}x"
        )
        if not entry["results_match"]:
            mismatched.append(name)
            print(
                f"    MISMATCH: scalar={entry['scalar']['result']!r}"
                f" batched={entry['batched']['result']!r}"
            )
    print(f"wrote {args.out}")
    if _LAST_OBS_SNAPSHOT is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            json.dumps(_LAST_OBS_SNAPSHOT, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.metrics_out}")
    if mismatched:
        print(f"FAILED: batched/scalar result mismatch in {', '.join(mismatched)}")
        return 1
    if args.max_observe_overhead > 0:
        # Measure at >= 20k elements even under --smoke: a ~9ms run is
        # dominated by fixed costs and interpreter jitter, which makes a
        # percentage gate meaningless.
        overhead = _measure_observe_overhead(
            max(args.n, 20_000), args.batch, max(args.repeat, 7)
        )
        print(f"observability overhead: {overhead * 100:+.1f}%")
        if overhead > args.max_observe_overhead:
            print(
                "FAILED: enabled-metrics overhead "
                f"{overhead * 100:.1f}% exceeds the "
                f"{args.max_observe_overhead * 100:.0f}% budget"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
