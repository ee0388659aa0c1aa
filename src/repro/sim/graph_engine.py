"""The simulator: any query graph on the simulated multicore machine.

This module simulates any annotated
:class:`~repro.graph.query_graph.QueryGraph` — fan-out (shared
subqueries, Fig. 1), fan-in (unions, joins), multiple sources — under
any partitioning, so users can evaluate *their* graphs and placements
on the simulated multicore machine before deploying on the real-thread
engine.  The paper's chain-shaped experiment queries
(:func:`repro.sim.pipeline.run_pipeline`) are translated into graphs
and run here too.

How a graph maps onto the machine:

* Every **source node** becomes an autonomous simulated thread
  following the source's emission schedule in chunks of at most
  :data:`CHUNK_MAX` elements spanning at most :data:`CHUNK_INTERVAL_NS`
  of schedule time; a chunk never spans two rate phases.
  :class:`~repro.streams.sources.ConstantRateSource` and
  :class:`~repro.streams.sources.BurstySource` chunks come from their
  phase arithmetic, without iterating elements.
* The graph's current **queue placement** defines the VOs (the
  connected queue-free components, exactly like
  :func:`repro.core.virtual_operator.build_virtual_operators`).  Each
  decoupling queue becomes a :class:`~repro.sim.channel.SimQueue`.
* A **partition** (a group of queues, from a mode name or explicit
  ``queue_groups``) becomes one scheduler thread.  A thread owning
  several queues picks the next one with the engine's own
  :mod:`repro.core.strategies` class, paying ``strategy_select_ns`` per
  decision and running one queued batch per decision.  A thread owning
  one queue makes no decision (Section 4.1.2: OTS has no strategy) and
  pops everything buffered.
* Operator execution is modeled from node annotations: each element
  entering a VO flows depth-first through the member operators; every
  operator charges ``c(v)`` per element processed and multiplies the
  element count by its selectivity (exact floor-accumulated, per
  operator).  Fan-out duplicates counts to every consumer; fan-in
  merges them.  Binary/n-ary operators apply their selectivity to the
  summed input rate — a standard fluid approximation for joins (the
  per-element join experiment of Fig. 6 is modeled exactly instead in
  :mod:`repro.sim.joins`).  A VO holding an operator whose ``c(v)``
  reaches the machine's preemption quantum runs one element per
  ``Compute`` and pushes its output after each element: "an expensive
  operator can exceed the given time slice as there is no guarantee
  that the processing of a single element is done quickly enough"
  (Section 4.1.1).
* Elements reaching **sinks** are counted with timestamps; each batch
  carries the emission time of its source chunk's newest element, so
  results also yield emission-to-result latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Literal, Optional, Sequence, Tuple

from repro.core.strategies import SchedulingStrategy, make_strategy
from repro.core.virtual_operator import VirtualOperator, build_virtual_operators
from repro.errors import SchedulingError, SimulationError
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph
from repro.sim.channel import SimQueue
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.items import ElementBatch, EndMarker
from repro.sim.machine import Machine
from repro.sim.metrics import ResultCounter, Series, sampler_program
from repro.sim.requests import Compute, PopBatch, Push, Sleep, WaitAny
from repro.streams.sources import BurstySource, ConstantRateSource, Source

__all__ = [
    "CHUNK_MAX",
    "CHUNK_INTERVAL_NS",
    "DEFAULT_COST_NS",
    "GraphSimConfig",
    "GraphSimResult",
    "SelectivityCounter",
    "simulate_graph",
]

SECOND = 1_000_000_000

#: Most elements one source chunk (one pushed batch) carries.
CHUNK_MAX = 512
#: Most schedule time one source chunk covers, so slow phases still
#: deliver with fine time granularity.
CHUNK_INTERVAL_NS = 100_000_000  # 100 ms
#: ``c(v)`` assumed for operators without a cost annotation.
DEFAULT_COST_NS = 100.0

Mode = Literal["auto", "gts", "ots", "hmts"]


class SelectivityCounter:
    """Exact deterministic selectivity over element counts.

    After ``k`` inputs in total, exactly ``floor(k * s)`` outputs have
    been produced, regardless of how the inputs were batched.
    """

    def __init__(self, selectivity: float) -> None:
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
        self.selectivity = selectivity
        self._seen = 0

    def take(self, n_in: int) -> int:
        """Feed ``n_in`` elements; return how many pass."""
        before = math.floor(self._seen * self.selectivity)
        self._seen += n_in
        return math.floor(self._seen * self.selectivity) - before


@dataclass
class GraphSimConfig:
    """Configuration for simulating one query graph.

    Attributes:
        mode: ``"gts"`` (one scheduler for all queues), ``"ots"`` (one
            thread per queue), ``"hmts"`` (explicit ``queue_groups``),
            or ``"auto"`` (one thread per queue — like OTS — when no
            groups are given, else HMTS).
        queue_groups: For hmts/auto: lists of queue *nodes* forming the
            level-2 units.
        strategy: Level-2 strategy name (see
            :func:`repro.core.strategies.make_strategy`) for every
            scheduler thread owning more than one queue.
        priorities: Level-3 priorities, one per group.
        n_cores: Simulated core count.
        cost_model: Machine overheads.
        sample_interval_ns: Queue-memory sampling period (None = off).
    """

    mode: Mode = "auto"
    queue_groups: Optional[Sequence[Sequence[Node]]] = None
    strategy: str = "fifo"
    priorities: Optional[Sequence[float]] = None
    n_cores: int = 2
    cost_model: CostModel = DEFAULT_COST_MODEL
    sample_interval_ns: Optional[int] = None


@dataclass
class GraphSimResult:
    """Outcome of one simulated graph run."""

    runtime_ns: int
    sink_counts: Dict[str, int]
    sink_series: Dict[str, ResultCounter]
    memory: Series
    queue_peaks: Dict[str, int]
    machine: Machine = field(repr=False)
    #: Results of all sinks together, over time.
    results: ResultCounter = field(default_factory=ResultCounter)
    #: Per result batch reaching a sink: (emission-to-result latency
    #: ns, result count).
    latencies: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def runtime_s(self) -> float:
        """Runtime in seconds of simulated time."""
        return self.runtime_ns / SECOND

    @property
    def total_results(self) -> int:
        """Sum over all sinks."""
        return sum(self.sink_counts.values())


def _source_chunks(source: Source) -> Iterator[Tuple[int, int]]:
    """``(emission time of the newest element, count)`` per chunk."""
    if isinstance(source, ConstantRateSource):
        phases = [(source.count, source.rate_per_second)]
    elif isinstance(source, BurstySource):
        phases = [(phase.count, phase.rate_per_second) for phase in source.phases]
    else:
        yield from _element_chunks(source)
        return
    clock = float(source.start_ns)
    for count, rate in phases:
        gap = SECOND / rate
        size = max(1, min(CHUNK_MAX, math.floor(CHUNK_INTERVAL_NS / gap)))
        remaining = count
        while remaining > 0:
            n = min(size, remaining)
            yield round(clock + (n - 1) * gap), n
            clock += n * gap
            remaining -= n


def _element_chunks(source: Source) -> Iterator[Tuple[int, int]]:
    """Chunks of an arbitrary schedule, by iterating its elements."""
    first = last = 0
    n = 0
    for element in source:
        timestamp = element.timestamp
        if n and (n == CHUNK_MAX or timestamp - first >= CHUNK_INTERVAL_NS):
            yield last, n
            n = 0
        if n == 0:
            first = timestamp
        last = timestamp
        n += 1
    if n:
        yield last, n


class _ExpandingCounter:
    """Selectivity above 1 (expanding operators, e.g. joins with
    fan-out > 1), realized with a fractional accumulator."""

    def __init__(self, factor: float) -> None:
        self.factor = factor
        self._acc = 0.0

    def take(self, n_in: int) -> int:
        self._acc += n_in * self.factor
        out = int(self._acc)
        self._acc -= out
        return out


class _SimVO:
    """One VO: the queue-free region downstream of an entry point.

    ``feed(n, entry_node)`` pushes ``n`` elements into the VO at a
    member node and returns ``(compute_ns, outputs)`` where outputs are
    ``(boundary_node, count)`` pairs for the queues and sinks reached.
    """

    def __init__(self, vo: VirtualOperator, cost_model: CostModel) -> None:
        #: End markers this VO forwards downstream: one per entry.
        self.entry_count = max(1, len(vo.entry_edges))
        #: Queues on the VO's boundary.
        self.downstream_queues = [
            edge.consumer for edge in vo.exit_edges if edge.consumer.is_queue
        ]
        self._di_call_ns = cost_model.di_call_ns
        #: Per member: (c(v), selectivity counter, consumers).  One
        #: counter per operator, shared by all its input ports
        #: (selectivity applies to the merged input).
        self._plan: Dict[
            Node, Tuple[float, SelectivityCounter | _ExpandingCounter, List[Node]]
        ] = {}
        for node in vo.members:
            cost = DEFAULT_COST_NS if node.cost_ns is None else node.cost_ns
            selectivity = 1.0 if node.selectivity is None else node.selectivity
            counter: SelectivityCounter | _ExpandingCounter = (
                _ExpandingCounter(selectivity)
                if selectivity > 1.0
                else SelectivityCounter(selectivity)
            )
            consumers = [edge.consumer for edge in vo.graph.out_edges(node)]
            self._plan[node] = (cost, counter, consumers)
        #: Fed one element at a time (an operator outlasts the quantum).
        self.stepwise = any(
            cost >= cost_model.quantum_ns for cost, _, _ in self._plan.values()
        )

    def feed(self, n: int, entry_node: Node) -> Tuple[int, List[Tuple[Node, int]]]:
        """Flow ``n`` elements into ``entry_node``; depth-first DI."""
        total_cost = 0.0
        outputs: List[Tuple[Node, int]] = []
        stack: List[Tuple[Node, int]] = [(entry_node, n)]
        while stack:
            node, count = stack.pop()
            step = self._plan.get(node)
            if step is None:  # a queue or sink on the VO's boundary
                outputs.append((node, count))
                continue
            cost, counter, consumers = step
            total_cost += count * (self._di_call_ns + cost)
            n_out = counter.take(count)
            if n_out > 0:
                for consumer in consumers:
                    stack.append((consumer, n_out))
        return round(total_cost), outputs


class _SimUnit:
    """A scheduled queue: sim queue + the VO entry it feeds."""

    def __init__(
        self,
        queue_node: Node,
        sim_queue: SimQueue,
        vo: Optional[_SimVO],
        consumers: List[Node],
    ) -> None:
        self.queue_node = queue_node
        self.sim_queue = sim_queue
        self.vo = vo
        self.consumers = consumers
        self.ended = False
        self.pending_ends = 0  # producers that have not ended yet
        #: Popped elements not yet started: still queue memory.
        self.held = 0


def simulate_graph(
    graph: QueryGraph, config: GraphSimConfig | None = None
) -> GraphSimResult:
    """Simulate ``graph`` (with its current queue placement) end to end.

    Requirements: the graph validates; sources carry finite schedules;
    operators carry ``cost_ns`` annotations (else
    :data:`DEFAULT_COST_NS` is used) and optional selectivities.

    Raises:
        SimulationError: on an unknown strategy or an invalid
            mode/group configuration.
    """
    config = config or GraphSimConfig()
    graph.validate()
    try:
        make_strategy(config.strategy)
    except SchedulingError as exc:
        raise SimulationError(str(exc)) from None
    machine = Machine(n_cores=config.n_cores, cost_model=config.cost_model)

    # --- VOs from the current queue placement ---------------------------
    member_of: Dict[Node, _SimVO] = {}
    for vo in build_virtual_operators(graph):
        sim_vo = _SimVO(vo, config.cost_model)
        for node in vo.members:
            member_of[node] = sim_vo

    # --- Queues --------------------------------------------------------
    units: Dict[Node, _SimUnit] = {}
    for queue_node in graph.queues():
        sim_queue = machine.new_queue(queue_node.name)
        consumers = [edge.consumer for edge in graph.out_edges(queue_node)]
        target = consumers[0]
        vo = member_of.get(target)
        if vo is None and not target.is_sink:
            raise SimulationError(
                f"queue {queue_node.name!r} feeds {target.name!r}, which "
                "is neither an operator nor a sink"
            )
        units[queue_node] = _SimUnit(queue_node, sim_queue, vo, consumers)
    sim_queue_of = {node: unit.sim_queue for node, unit in units.items()}

    # A queue is done when it has received one end marker per *entry*
    # of the producing region: a source pushing directly counts as one,
    # and a VO forwards one end per entry feeding it (each entry queue
    # or direct-DI source announces its own end to every downstream
    # queue of the VO).
    for queue_node, unit in units.items():
        expected = sum(
            1 if edge.producer.is_source else member_of[edge.producer].entry_count
            for edge in graph.in_edges(queue_node)
        )
        unit.pending_ends = max(1, expected)

    # --- Sinks ----------------------------------------------------------
    sink_series: Dict[str, ResultCounter] = {
        node.name: ResultCounter(node.name) for node in graph.sinks()
    }
    results = ResultCounter("results")
    latencies: List[Tuple[int, int]] = []

    def deliver(sink_name: str, count: int, emitted: Optional[int]) -> None:
        now = machine.now
        sink_series[sink_name].add(now, count)
        results.add(now, count)
        if emitted is not None:
            latencies.append((now - emitted, count))

    def push_data(queue_node: Node, count: int, emitted: Optional[int]):
        return Push(
            sim_queue_of[queue_node],
            ElementBatch(count, payload=emitted),
            count,
        )

    def run_vo(vo: _SimVO, count: int, entry: Node, emitted: Optional[int]):
        """Feed ``count`` elements into ``vo`` (generator fragment)."""
        step = 1 if vo.stepwise else count
        for _ in range(0, count, step):
            cost, outputs = vo.feed(step, entry)
            if cost:
                yield Compute(cost)
            for target, n in outputs:
                if target.is_sink:
                    deliver(target.name, n, emitted)
                else:
                    yield push_data(target, n, emitted)

    def push_end(queue_node: Node):
        return Push(sim_queue_of[queue_node], EndMarker(), 0)

    # --- Source threads --------------------------------------------------
    def source_program(source_node: Node):
        out_edges = graph.out_edges(source_node)
        for emitted, count in _source_chunks(source_node.payload):
            yield Sleep(until_ns=emitted)
            for edge in out_edges:
                consumer = edge.consumer
                if consumer.is_queue:
                    yield push_data(consumer, count, emitted)
                else:
                    # DI straight from the source thread.
                    yield from run_vo(member_of[consumer], count, consumer, emitted)
        # End of stream: notify downstream queues, also those reached
        # through DI regions.
        for edge in out_edges:
            consumer = edge.consumer
            if consumer.is_queue:
                yield push_end(consumer)
            else:
                for queue_node in member_of[consumer].downstream_queues:
                    yield push_end(queue_node)

    # --- Scheduler threads ------------------------------------------------
    def run_items(unit: _SimUnit, batch):
        """Run popped queue items through the unit's VO (fragment)."""
        unit.held = sum(weight for _, weight in batch)
        for item, weight in batch:
            unit.held -= weight
            if isinstance(item, EndMarker):
                unit.pending_ends -= 1
                if unit.pending_ends <= 0:
                    unit.ended = True
                    # Propagate the end through this unit's VO to its
                    # downstream queues.
                    if unit.vo is not None:
                        for queue_node in unit.vo.downstream_queues:
                            yield push_end(queue_node)
                continue
            for consumer in unit.consumers:
                if consumer.is_sink:
                    deliver(consumer.name, item.count, item.payload)
                else:
                    yield from run_vo(unit.vo, item.count, consumer, item.payload)

    def queue_program(unit: _SimUnit):
        """A thread owning one queue: no strategy, drains the queue."""
        while not unit.ended:
            batch = yield PopBatch(unit.sim_queue)
            yield from run_items(unit, batch)

    def scheduler_program(owned: List[_SimUnit], strategy: SchedulingStrategy):
        """A thread owning several queues: one strategy pick per batch."""
        unit_of = {unit.queue_node: unit for unit in owned}
        select_ns = config.cost_model.strategy_select_ns
        while True:
            live = [u for u in owned if not (u.ended and u.sim_queue.empty)]
            if not live:
                return
            ready = [u.queue_node for u in live if not u.sim_queue.empty]
            if not ready:
                yield WaitAny([u.sim_queue for u in live])
                continue
            if select_ns > 0:
                yield Compute(select_ns)
            unit = unit_of[strategy.select(ready)]
            batch = yield PopBatch(unit.sim_queue, max_items=1)
            yield from run_items(unit, batch)

    # --- Spawn -------------------------------------------------------------
    for source_node in graph.sources():
        machine.spawn(
            source_program(source_node), name=f"source:{source_node.name}"
        )

    unit_list = list(units.values())
    if config.mode == "gts":
        groups = [unit_list] if unit_list else []
    elif config.mode in ("ots", "auto") and config.queue_groups is None:
        groups = [[unit] for unit in unit_list]
    else:
        if config.queue_groups is None:
            raise SimulationError("hmts mode requires queue_groups")
        covered: set[Node] = set()
        groups = []
        for group_nodes in config.queue_groups:
            group = []
            for queue_node in group_nodes:
                if queue_node not in units:
                    raise SimulationError(
                        f"{queue_node.name!r} is not a queue of this graph"
                    )
                covered.add(queue_node)
                group.append(units[queue_node])
            groups.append(group)
        missing = set(units) - covered
        if missing:
            raise SimulationError(
                "queue_groups must cover all queues; missing "
                + ", ".join(node.name for node in missing)
            )
    priorities = list(config.priorities or [0.0] * len(groups))
    if len(priorities) != len(groups):
        raise SimulationError(
            f"{len(groups)} groups but {len(priorities)} priorities"
        )
    for index, group in enumerate(groups):
        if len(group) == 1:
            program = queue_program(group[0])
        elif group:
            strategy = make_strategy(config.strategy)
            strategy.prepare(graph, [unit.queue_node for unit in group])
            strategy.queue_of = sim_queue_of.__getitem__
            program = scheduler_program(group, strategy)
        else:
            continue
        machine.spawn(
            program, name=f"scheduler-{index}", priority=priorities[index]
        )

    memory = Series("queue-memory")
    if config.sample_interval_ns is not None:

        def queued() -> float:
            return float(
                sum(unit.sim_queue.size + unit.held for unit in unit_list)
            )

        machine.spawn(
            sampler_program(
                machine,
                config.sample_interval_ns,
                {"memory": queued},
                {"memory": memory},
            ),
            name="sampler",
        )

    runtime_ns = machine.run()
    return GraphSimResult(
        runtime_ns=runtime_ns,
        sink_counts={name: counter.count for name, counter in sink_series.items()},
        sink_series=sink_series,
        memory=memory,
        queue_peaks={
            unit.queue_node.name: unit.sim_queue.peak_size
            for unit in unit_list
        },
        machine=machine,
        results=results,
        latencies=latencies,
    )
