"""Traffic monitoring: adaptive queue placement over sensor streams.

The paper's introduction motivates DSMS with traffic monitoring.  This
example builds such a query — speed sensors joined with camera
observations on road segment, filtered to speeding vehicles, counted
over a sliding window — and walks through the full Section 5 workflow:

1. run the query once with ``observe=True`` while *measuring*
   per-operator costs c(v) and interarrival times d(v),
2. write the measured costs into the graph annotations,
3. run the stall-avoiding queue placement (Algorithm 1) to decide
   where decoupling queues belong,
4. re-run the query in HMTS mode with one thread per resulting VO.

Run with::

    python examples/traffic_monitoring.py
"""

from repro import (
    CollectingSink,
    PoissonSource,
    QueryBuilder,
    ThreadedEngine,
    hmts_config,
    ots_config,
    stall_avoiding_partitioning,
)
from repro.core import build_virtual_operators
from repro.core.placement import annotate_from_metrics
from repro.graph import derive_rates
from repro.operators import IncrementalAggregate

SECOND = 1_000_000_000
N_READINGS = 800
SEGMENTS = 16


def speed_reading(index: int) -> dict:
    """A synthetic (segment, speed) sensor tuple."""
    return {
        "segment": (index * 7) % SEGMENTS,
        "speed": 40 + (index * 13) % 90,
    }


def camera_reading(index: int) -> dict:
    """A synthetic (segment, vehicle) camera tuple."""
    return {"segment": (index * 5) % SEGMENTS, "vehicle": index}


def build_query():
    build = QueryBuilder("traffic-monitoring")
    sink = CollectingSink()
    speeds = build.source(
        PoissonSource(
            N_READINGS, rate_per_second=20_000.0, seed=11, value_fn=speed_reading
        ),
        name="speed-sensors",
    )
    cameras = build.source(
        PoissonSource(
            N_READINGS, rate_per_second=20_000.0, seed=23, value_fn=camera_reading
        ),
        name="cameras",
    )
    speeding = speeds.where(
        lambda r: r["speed"] > 100, name="speeding", selectivity=0.3
    )
    # The join window covers the whole stream span, so every speeding
    # reading pairs with every same-segment camera observation exactly
    # once — making the result count independent of thread interleaving.
    joined = speeding.hash_join(
        cameras,
        window_ns=SECOND,
        key_fns=(lambda r: r["segment"], lambda r: r["segment"]),
        combine=lambda s, c: {**s, "vehicle": c["vehicle"]},
        selectivity=8.0,
    )
    # O(1)-per-element sliding count of alerts in the last second.
    (
        joined.through(
            IncrementalAggregate(window_ns=SECOND, aggregate="count")
        ).into(sink)
    )
    return build.graph(), sink


def build_graph():
    """Lint target: the measurement-pass layout (fully decoupled OTS)."""
    graph, _ = build_query()
    graph.decouple_all()
    return graph


def main() -> None:
    # --- Pass 1: measure, running fully decoupled (OTS) --------------
    graph, sink = build_query()
    graph.decouple_all()
    engine = ThreadedEngine(graph, ots_config(graph, observe=True))
    report = engine.run(timeout=120)
    print(f"measurement pass: {len(sink.elements)} results "
          f"in {report.wall_ns / 1e6:.0f} ms under OTS "
          f"({len(graph.queues())} queues, one thread each)")

    # --- Derive annotations -------------------------------------------
    # Fresh graph (the measured one is consumed); the metrics snapshot
    # carries the measured costs by operator name.  Propagate rates for
    # d(v) afterwards.
    graph2, sink2 = build_query()
    for node in graph2.operators(include_queues=False):
        # Unmeasured operators (none in practice) default to 1 us.
        node.cost_ns = 1_000.0
    annotate_from_metrics(graph2, report.metrics)
    derive_rates(graph2)

    # --- Pass 2: place queues with Algorithm 1 -------------------------
    placement = stall_avoiding_partitioning(graph2, include_sources=False)
    print(f"\nAlgorithm 1 placed {len(placement.queue_edges)} queue(s), "
          f"forming {len(placement.partitioning)} VO(s):")
    for partition in placement.partitioning:
        members = ", ".join(node.name for node in partition)
        print(f"  cap={partition.capacity_ns() / 1e3:9.1f} us  [{members}]")
    placement.apply(graph2)

    # --- Pass 3: run HMTS with one thread per VO -----------------------
    # Queues always need owners; if Algorithm 1 placed none, fall back
    # to a single queue after each source so the engine has workers.
    if not graph2.queues():
        for source in graph2.sources():
            for edge in list(graph2.out_edges(source)):
                graph2.insert_queue(edge)
    vos = build_virtual_operators(graph2)
    groups = []
    for vo in vos:
        owned = [
            queue
            for queue in graph2.queues()
            if any(
                vo.contains(edge.consumer) for edge in graph2.out_edges(queue)
            )
        ]
        if owned:
            groups.append(owned)
    config = hmts_config(
        graph2, groups=groups, strategies="fifo", max_concurrency=2
    )
    report2 = ThreadedEngine(graph2, config).run(timeout=120)
    print(f"\nHMTS pass: {len(sink2.elements)} results "
          f"in {report2.wall_ns / 1e6:.0f} ms with "
          f"{len(groups)} scheduler thread(s)")
    assert len(sink2.elements) == len(sink.elements), "same query, same answer"
    print("result counts match between OTS and HMTS runs")


if __name__ == "__main__":
    main()
