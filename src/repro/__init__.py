"""repro: a reproduction of "Flexible Multi-Threaded Scheduling for
Continuous Queries over Data Streams" (Cammert et al., ICDE 2007).

The package provides:

* a push-based stream-processing substrate with direct interoperability
  (:mod:`repro.streams`, :mod:`repro.operators`, :mod:`repro.graph`),
* the pull-based open-next-close substrate with proxies for comparison
  (:mod:`repro.pull`),
* the paper's contribution — virtual operators, the capacity model,
  stall-avoiding queue placement, and the three-level HMTS scheduling
  architecture with GTS/OTS as special cases (:mod:`repro.core`),
* a deterministic discrete-event simulator of a multicore machine used
  as the performance substrate for the paper's experiments
  (:mod:`repro.sim`),
* the experiment harness reproducing Figures 6-11 (:mod:`repro.bench`).

Quickstart::

    from repro import QueryBuilder, ConstantRateSource, CollectingSink
    from repro import open_engine

    build = QueryBuilder("demo")
    sink = CollectingSink()
    (build.source(ConstantRateSource(1000, 10_000.0))
          .where(lambda v: v % 7 == 0)
          .map(lambda v: v * 2)
          .into(sink))
    graph = build.graph()
    graph.decouple_all()
    with open_engine(graph, "gts", observe=True) as eng:
        report = eng.run()
    print(len(sink.elements), "results")
    print(report.metrics["operators"])

(``ThreadedEngine(graph, gts_config(graph))`` still works; the facade
in :mod:`repro.api` is the supported construction path since 1.0.)
"""

from repro.api import Engine, open_engine
from repro.core import (
    CapacityAggregate,
    ChainStrategy,
    Dispatcher,
    EngineConfig,
    EngineReport,
    FifoStrategy,
    Partition,
    Partitioning,
    PartitionSpec,
    PlacementResult,
    RoundRobinStrategy,
    SchedulingMode,
    SchedulingStrategy,
    ThreadedEngine,
    ThreadScheduler,
    VirtualOperator,
    build_virtual_operators,
    chain_partitioning,
    di_config,
    gts_config,
    hmts_config,
    ots_config,
    segment_partitioning,
    stall_avoiding_partitioning,
)
from repro.errors import ReproError, SanitizerError, SchedulingError
from repro.graph import (
    Edge,
    Node,
    NodeKind,
    QueryBuilder,
    QueryGraph,
    RandomDagConfig,
    derive_rates,
    random_query_dag,
)
from repro.operators import (
    CostedOperator,
    MapOperator,
    Operator,
    Projection,
    QueueOperator,
    Selection,
    SimulatedSelection,
    SymmetricHashJoin,
    SymmetricNestedLoopsJoin,
    Union,
    WindowedAggregate,
)
from repro.streams import (
    BurstPhase,
    BurstySource,
    CollectingSink,
    ConstantRateSource,
    CountingSink,
    LatencySink,
    ListSource,
    PoissonSource,
    Sink,
    Source,
    StreamElement,
    TimestampedCountSink,
    uniform_int_values,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "SanitizerError",
    "SchedulingError",
    # facade
    "Engine",
    "open_engine",
    # graph
    "Edge",
    "Node",
    "NodeKind",
    "QueryBuilder",
    "QueryGraph",
    "RandomDagConfig",
    "derive_rates",
    "random_query_dag",
    # streams
    "BurstPhase",
    "BurstySource",
    "CollectingSink",
    "ConstantRateSource",
    "CountingSink",
    "LatencySink",
    "ListSource",
    "PoissonSource",
    "Sink",
    "Source",
    "StreamElement",
    "TimestampedCountSink",
    "uniform_int_values",
    # operators
    "CostedOperator",
    "MapOperator",
    "Operator",
    "Projection",
    "QueueOperator",
    "Selection",
    "SimulatedSelection",
    "SymmetricHashJoin",
    "SymmetricNestedLoopsJoin",
    "Union",
    "WindowedAggregate",
    # core
    "CapacityAggregate",
    "ChainStrategy",
    "Dispatcher",
    "EngineConfig",
    "EngineReport",
    "FifoStrategy",
    "Partition",
    "Partitioning",
    "PartitionSpec",
    "PlacementResult",
    "RoundRobinStrategy",
    "SchedulingMode",
    "SchedulingStrategy",
    "ThreadedEngine",
    "ThreadScheduler",
    "VirtualOperator",
    "build_virtual_operators",
    "chain_partitioning",
    "di_config",
    "gts_config",
    "hmts_config",
    "ots_config",
    "segment_partitioning",
    "stall_avoiding_partitioning",
]
