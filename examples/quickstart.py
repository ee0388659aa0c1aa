"""Quickstart: build a continuous query, choose a scheduling mode, run it.

Demonstrates the core workflow of the library:

1. compose a query graph with the fluent builder,
2. decide where the decoupling queues go (here: everywhere),
3. execute it under one of the paper's scheduling architectures
   (graph-threaded scheduling with the FIFO strategy) through the
   unified ``open_engine`` facade,
4. inspect the results and the engine report — with ``--observe``, the
   runtime metrics snapshot too, and with ``--trace`` the scheduler
   event ring.

Run with::

    python examples/quickstart.py [--observe] [--trace]

(``ThreadedEngine(graph, config)`` still works, but ``open_engine`` /
``Engine.from_graph`` is the supported construction path.)
"""

import argparse

from repro import (
    CollectingSink,
    ConstantRateSource,
    QueryBuilder,
    open_engine,
)


def build_query():
    """The quickstart query: threshold filter, rescale, windowed count."""
    build = QueryBuilder("quickstart")
    sink = CollectingSink()
    (
        build.source(
            ConstantRateSource(
                count=5_000,
                rate_per_second=10_000.0,
                value_fn=lambda i: (i * 37) % 100,  # synthetic "reading"
            )
        )
        .where(lambda reading: reading >= 80, name="threshold")
        .map(lambda reading: reading / 10.0, name="rescale")
        .aggregate(window_ns=1_000_000_000, aggregate="count")
        .into(sink)
    )
    return build.graph(), sink


def build_graph():
    """Lint target (``python -m repro.analysis.lint examples/quickstart.py``):
    the decoupled graph plus its one-VO-per-operator partitioning."""
    from repro.core import build_virtual_operators
    from repro.core.partition import Partition, Partitioning

    graph, _ = build_query()
    graph.decouple_all()
    partitioning = Partitioning(
        [
            Partition(vo.members, name=f"vo{index}")
            for index, vo in enumerate(build_virtual_operators(graph))
        ]
    )
    return graph, partitioning


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description="repro quickstart")
    parser.add_argument(
        "--observe",
        action="store_true",
        help="enable the runtime observability layer and print metrics",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="dump the scheduler event ring after the run (implies --observe)",
    )
    args = parser.parse_args([] if argv is None else argv)
    observe = args.observe or args.trace

    # 1. A query: keep readings above a threshold, convert units, and
    #    count them over a sliding one-second window.
    graph, sink = build_query()

    # 2. Decouple every operator (the classic GTS/OTS layout).  The
    #    placement heuristic of Section 5 can decide this instead; see
    #    examples/traffic_monitoring.py.
    graph.decouple_all()

    # 3. Run under graph-threaded scheduling: one scheduler thread
    #    drives all queues in FIFO order.  The facade picks the backend
    #    from the config (thread by default) and guarantees teardown.
    with open_engine(graph, "gts", strategy="fifo", observe=observe) as eng:
        report = eng.run(timeout=60)
        tracer = eng.tracer

    # 4. Results.
    print(f"mode            : {report.mode.value}")
    print(f"results         : {len(sink.elements)}")
    print(f"last window size: {sink.values[-1] if sink.values else '-'}")
    print(f"operator calls  : {report.invocations}")
    print(f"wall time       : {report.wall_ns / 1e6:.1f} ms")
    for queue, peak in sorted(report.queue_peaks.items()):
        print(f"queue peak      : {queue} -> {peak}")

    # 5. Observability (--observe / --trace).
    if report.metrics is not None:
        print("\n-- metrics (per operator) --")
        for name, op in sorted(report.metrics["operators"].items()):
            sel = op["selectivity"]
            print(
                f"{name:12s} in={op['elements_in']:<6d} "
                f"out={op['elements_out']:<6d} "
                f"sel={sel if sel is None else round(sel, 3)} "
                f"service_ns={op['service_ns_total']}"
            )
    if args.trace and tracer is not None:
        print("\n-- event trace --")
        print(tracer.dump())


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
