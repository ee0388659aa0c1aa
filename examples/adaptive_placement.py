"""Adaptive queue placement reacting to a workload shift.

The paper leaves "an efficient algorithm for placing queues during
runtime" as future work (Section 5.1.3); this library implements the
mechanism it sketches as :class:`repro.core.AdaptiveReplacer`.  This
example shows the controller in action on a workload whose costs
change mid-stream:

* Phase 1 — every operator is cheap: the controller *fuses* the fully
  decoupled (OTS-style) layout into few VOs, removing queues.
* Phase 2 — one operator's payload suddenly becomes expensive: the
  measured c(v) rises, the capacity of the fused VO goes negative, and
  the next rebalance *re-inserts* a decoupling queue in front of the
  hot operator (the Fig. 5 move, performed live).

Run with::

    python examples/adaptive_placement.py
"""


from repro import (
    CollectingSink,
    ConstantRateSource,
    QueryBuilder,
    ThreadedEngine,
    ots_config,
)
from repro.core import AdaptiveReplacer
from repro.graph import derive_rates

N_ELEMENTS = 60_000
PHASE_SPLIT = N_ELEMENTS // 2


def make_predicate():
    """A filter whose cost explodes halfway through the stream."""
    seen = {"count": 0}

    def predicate(value: int) -> bool:
        seen["count"] += 1
        # "screen" passes every second element, so this predicate sees
        # half the stream: the stream's midpoint is half its calls.
        if seen["count"] > PHASE_SPLIT // 2:
            # Simulate a suddenly expensive predicate (hot phase).
            total = 0
            for i in range(400):
                total += (value * i) % 7
            return total % 2 == 0 or True
        return True

    return predicate


def build_query():
    build = QueryBuilder("adaptive-demo")
    sink = CollectingSink()
    (
        build.source(ConstantRateSource(N_ELEMENTS, 50_000.0, name="src"))
        .where(lambda v: v % 2 == 0, name="screen", selectivity=0.5)
        .where(make_predicate(), name="hot-candidate", selectivity=1.0)
        .map(lambda v: v, name="format")
        .into(sink)
    )
    graph = build.graph()
    derive_rates(graph)
    return graph, sink


def build_graph():
    """Lint target: the initial fully decoupled layout."""
    graph, _ = build_query()
    graph.decouple_all()
    return graph


def main() -> None:
    graph, sink = build_query()
    graph.decouple_all()
    initial_queues = len(graph.queues())

    # The replacer reads the engine's metrics registry (observe=True).
    engine = ThreadedEngine(graph, ots_config(graph, observe=True))
    replacer = AdaptiveReplacer(engine, min_elements=100)

    engine.start()
    replacer.start(interval_s=0.1)
    history = []
    while not engine.join(timeout=0.25):
        history.append(len(graph.queues()))
    replacer.stop()

    print(f"initial layout : {initial_queues} queues (fully decoupled OTS)")
    print(f"queue history  : {history}")
    print(f"final layout   : {len(graph.queues())} queue(s)")
    changes = [r for r in replacer.reports if r.changed]
    for index, report in enumerate(changes):
        print(
            f"rebalance #{index}: inserted={report.inserted or '-'} "
            f"removed={report.removed or '-'} "
            f"partitions={report.partitions}"
        )
    print(f"results        : {len(sink.elements)} (expected {N_ELEMENTS // 2})")
    assert len(sink.elements) == N_ELEMENTS // 2
    assert not engine.errors
    print("stream processed completely across all live re-placements")


if __name__ == "__main__":
    main()
