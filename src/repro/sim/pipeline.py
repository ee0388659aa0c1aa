"""Chain-shaped experiment queries on the graph simulator.

The paper's evaluation queries (Sections 6.4-6.6) are a source followed
by a chain of unary operators, each specified by per-element cost and
selectivity, with ``n_queries`` independent copies (Section 6.5).
:class:`PipelineConfig` is that specification; :func:`run_pipeline`
builds the chain ``n_queries`` times as one
:class:`~repro.graph.query_graph.QueryGraph`, places one decoupling
queue before each operator group, and runs it with
:func:`repro.sim.graph_engine.simulate_graph`.

Configurations (``mode``):

* ``"di"`` — one decoupling queue after the source; one worker thread
  runs the whole operator chain as a single VO via direct
  interoperability (the paper's DI setting in Fig. 7).
* ``"gts"`` — every operator decoupled; **one** scheduler thread for
  all queues of all queries, picking the next queue by a level-2
  strategy from :mod:`repro.core.strategies`.
* ``"ots"`` — every operator decoupled; one thread per queue.
* ``"hmts"`` — operators grouped into VOs (``groups``); one scheduler
  thread per group per query, with level-3 priorities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Optional, Tuple

from repro.errors import SimulationError
from repro.graph.query_graph import QueryGraph
from repro.operators.selection import SimulatedSelection
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.graph_engine import (
    GraphSimConfig,
    SelectivityCounter,
    simulate_graph,
)
from repro.sim.machine import Machine
from repro.sim.metrics import ResultCounter, Series
from repro.streams.sinks import CountingSink
from repro.streams.sources import BurstPhase, BurstySource

__all__ = [
    "OperatorSpec",
    "SourcePhase",
    "SourceSpec",
    "PipelineConfig",
    "PipelineResult",
    "SelectivityCounter",
    "run_pipeline",
]

SECOND = 1_000_000_000

Mode = Literal["di", "gts", "ots", "hmts"]

#: One source phase: ``count`` elements at ``rate_per_second``.
SourcePhase = BurstPhase


@dataclass(frozen=True)
class OperatorSpec:
    """One unary operator of the chain.

    An operator whose ``cost_ns`` reaches the machine's preemption
    quantum (the paper's multi-second predicate) runs one element at a
    time; see :mod:`repro.sim.graph_engine`.

    Attributes:
        cost_ns: Per-element processing cost.
        selectivity: Output/input ratio, realized exactly.
        name: Display name.
    """

    cost_ns: float
    selectivity: float = 1.0
    name: str = "op"

    def __post_init__(self) -> None:
        if self.cost_ns < 0:
            raise ValueError(f"negative cost {self.cost_ns}")


@dataclass(frozen=True)
class SourceSpec:
    """A (possibly multi-phase) autonomous source.

    Attributes:
        phases: Consecutive emission phases.
    """

    phases: Tuple[SourcePhase, ...]

    @classmethod
    def constant(cls, count: int, rate_per_second: float) -> "SourceSpec":
        """A single-phase constant-rate source."""
        return cls(phases=(SourcePhase(count, rate_per_second),))

    @property
    def total_elements(self) -> int:
        return sum(phase.count for phase in self.phases)

    def duration_ns(self) -> int:
        """Nominal time of the last element's emission."""
        total = 0.0
        for phase in self.phases:
            total += phase.count * SECOND / phase.rate_per_second
        return round(total)


@dataclass
class PipelineConfig:
    """Full specification of one simulated pipeline experiment."""

    operators: List[OperatorSpec]
    source: SourceSpec
    mode: Mode = "di"
    strategy: str = "fifo"
    groups: Optional[List[List[int]]] = None
    priorities: Optional[List[float]] = None
    n_queries: int = 1
    n_cores: int = 2
    cost_model: CostModel = DEFAULT_COST_MODEL
    sample_interval_ns: Optional[int] = None

    def resolved_groups(self) -> List[List[int]]:
        """The operator-index groups implied by the mode."""
        indices = list(range(len(self.operators)))
        if self.mode == "di":
            return [indices]
        if self.mode in ("gts", "ots"):
            return [[i] for i in indices]
        if self.groups is None:
            raise SimulationError("hmts mode requires explicit groups")
        flat = sorted(i for group in self.groups for i in group)
        if flat != indices:
            raise SimulationError(
                f"groups {self.groups} must partition operator indices {indices}"
            )
        for group in self.groups:
            if group != sorted(group) or group != list(
                range(group[0], group[-1] + 1)
            ):
                raise SimulationError(
                    f"each group must be a contiguous index range, got {group}"
                )
        return [list(group) for group in self.groups]


@dataclass
class PipelineResult:
    """Outcome of one simulated pipeline run."""

    runtime_ns: int
    results: ResultCounter
    memory: Series
    machine: Machine
    config: PipelineConfig = field(repr=False)
    #: Per result batch: (emission-to-result latency ns, result count).
    latencies: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def runtime_s(self) -> float:
        """Runtime in seconds."""
        return self.runtime_ns / SECOND

    @property
    def mean_latency_ns(self) -> float:
        """Count-weighted mean result latency (0.0 without results).

        Latency is measured from the *scheduled emission time* of a
        batch's newest element to the simulated time its results left
        the pipeline — i.e. it includes queueing delay, which is what
        distinguishes the scheduling architectures.
        """
        total = sum(count for _, count in self.latencies)
        if total == 0:
            return 0.0
        return sum(lat * count for lat, count in self.latencies) / total

    @property
    def max_latency_ns(self) -> int:
        """Largest observed result latency (0 without results)."""
        return max((lat for lat, _ in self.latencies), default=0)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Build and run one pipeline experiment on a fresh machine.

    Returns the runtime (simulated time until everything — including
    the last result — is processed), the cumulative result series over
    all queries, and the queue-memory series (when sampling is enabled).
    """
    if config.n_queries < 1:
        raise SimulationError("n_queries must be >= 1")
    groups = config.resolved_groups()
    priorities: Optional[List[float]] = None
    if config.mode == "hmts" and config.priorities:
        if len(config.priorities) != len(groups):
            raise SimulationError(
                f"{len(groups)} groups but {len(config.priorities)} priorities"
            )
        priorities = list(config.priorities) * config.n_queries

    graph = QueryGraph("pipeline")
    queue_groups = []
    for query in range(config.n_queries):
        producer = graph.add_source(
            BurstySource(config.source.phases), name=f"source-{query}"
        )
        for group_index, group in enumerate(groups):
            for position, index in enumerate(group):
                spec = config.operators[index]
                node = graph.add_operator(
                    SimulatedSelection(
                        spec.selectivity,
                        name=spec.name,
                        declared_cost_ns=spec.cost_ns,
                    )
                )
                edge = graph.connect(producer, node)
                if position == 0:
                    queue_groups.append(
                        [graph.insert_queue(edge, f"q{query}.{group_index}")]
                    )
                producer = node
        graph.connect(producer, graph.add_sink(CountingSink(f"results-{query}")))

    result = simulate_graph(
        graph,
        GraphSimConfig(
            mode="gts" if config.mode == "gts" else "hmts",
            queue_groups=queue_groups,
            strategy=config.strategy,
            priorities=priorities,
            n_cores=config.n_cores,
            cost_model=config.cost_model,
            sample_interval_ns=config.sample_interval_ns,
        ),
    )
    return PipelineResult(
        runtime_ns=result.runtime_ns,
        results=result.results,
        memory=result.memory,
        machine=result.machine,
        config=config,
        latencies=result.latencies,
    )
