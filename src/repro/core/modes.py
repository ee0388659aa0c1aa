"""Engine configurations: DI, GTS, OTS, and HMTS as one parameter space.

Paper Section 4.2.2: "OTS and GTS are special cases of our
architecture."  An engine configuration is a list of
:class:`PartitionSpec` — each one a level-2 unit owning a set of
decoupling queues and a strategy — plus level-3 parameters (the thread
scheduler's concurrency bound and aging constant).  The classic modes
are then just factory functions:

* :func:`di_config` — no partitions at all: the source threads drive
  the whole graph through direct interoperability.  (If the graph
  contains queues, they must be consumed by someone, so DI requires a
  queue-free graph or explicit partitions.)
* :func:`gts_config` — one partition holding *all* queues, scheduled by
  one thread under a strategy: graph-threaded scheduling.
* :func:`ots_config` — one partition per queue: operator-threaded
  scheduling (each decoupled operator is driven by its own thread).
* :func:`hmts_config` — arbitrary queue groups with per-group
  strategies and priorities: the general hybrid.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.strategies import SchedulingStrategy, make_strategy
from repro.errors import SchedulingError
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph

__all__ = [
    "SchedulingMode",
    "PartitionSpec",
    "EngineConfig",
    "di_config",
    "gts_config",
    "ots_config",
    "hmts_config",
]


class SchedulingMode(enum.Enum):
    """The classic scheduling architectures, as named by the paper."""

    DI = "di"
    GTS = "gts"
    OTS = "ots"
    HMTS = "hmts"


@dataclass
class PartitionSpec:
    """One level-2 unit: a thread scheduling a group of queues.

    Attributes:
        queue_nodes: The decoupling queues this unit owns.
        strategy: How the unit picks the next queue (FIFO/Chain/...).
        priority: Level-3 base priority (higher runs first).
        name: Display/bookkeeping name; must be unique per config.
    """

    queue_nodes: List[Node]
    strategy: SchedulingStrategy
    priority: float = 0.0
    name: str = "partition"

    def __post_init__(self) -> None:
        if not self.queue_nodes:
            raise SchedulingError(
                f"partition {self.name!r} owns no queues; a level-2 unit "
                "must schedule at least one queue"
            )
        for node in self.queue_nodes:
            if not node.is_queue:
                raise SchedulingError(
                    f"partition {self.name!r} contains non-queue node "
                    f"{node.name!r}"
                )


@dataclass
class EngineConfig:
    """Full configuration of an execution engine run.

    Attributes:
        mode: Which classic architecture this configuration represents
            (informational; the partitions are authoritative).
        partitions: The level-2 units.
        backend: Execution substrate: ``"thread"`` runs every level-2
            unit as an OS thread in this process (GIL-bound — faithful
            architecture, no parallelism); ``"process"`` runs every
            unit and every source in its own worker process with
            shared-memory ring queues on the partition-crossing edges
            (:mod:`repro.mp`), which is what actually uses multiple
            cores.  Construct via :meth:`repro.api.Engine.from_graph`
            to get the right engine for the backend.
        spsc_queues: Thread backend only: enable the lock-free
            single-producer/single-consumer fast path on every queue
            the engine can prove is point-to-point with a single
            producing DI region (AN006 shape + region analysis).
            Disabled automatically under the sanitizer.
        ring_capacity: Process backend only: data bytes per
            shared-memory ring (one ring per decoupling queue).  A
            batch envelope larger than this is a hard error; smaller
            rings spill to the producer's local deque more often.
        max_concurrency: Level-3 permit bound (None = unbounded; the
            paper's dual-core machine corresponds to 2).
        aging_ns: Level-3 starvation-prevention aging constant.
        batch_limit: Max data elements a unit processes per grant
            (None = drain the selected queue completely).
        batch_size: Micro-batch granularity of the hot path.  Sources
            inject this many elements per DI chain reaction, and queue
            workers transfer/dispatch this many items per lock
            acquisition (bulk ``pop_many`` + ``process_batch``).  None
            or 1 preserves the classic element-at-a-time behavior
            exactly; larger values amortize dispatch overhead while
            keeping per-port order and END_OF_STREAM placement
            identical.
        pace_sources: When True, source threads respect their elements'
            timestamps in (scaled) real time; when False they replay at
            full speed.
        time_scale: Real seconds per timestamp second when pacing
            (0.1 = 10x fast-forward).
        sanitize: Run the engine under the concurrency sanitizer
            (:mod:`repro.analysis.sanitizer`): dispatcher node locks
            become lock-order-tracked instrumented locks, the level-3
            scheduler gets a starvation watchdog, and the run fails
            with :class:`~repro.errors.SanitizerError` if any finding
            is reported.  Defaults to the ``REPRO_SANITIZE``
            environment variable (unset/0 = off), so CI can re-run a
            test subset sanitized without touching call sites.  When
            off, no instrumentation objects are constructed at all.
        sanitize_starvation_grants: Watchdog bound ``N``: every ready
            unit must be granted within N grants to other units.
        observe: Enable the runtime observability layer
            (:mod:`repro.obs`): a per-engine
            :class:`~repro.obs.registry.MetricsRegistry` with
            per-operator / per-queue / per-partition / per-scheduler-
            unit instruments, a bounded ring-buffer event tracer, and a
            periodic sampler thread; the final metrics snapshot lands
            in ``EngineReport.metrics``.  Defaults to the
            ``REPRO_OBSERVE`` environment variable (unset/0 = off).
            When off, :mod:`repro.obs` is never even imported and the
            compiled dispatch plans are byte-identical to an
            unobserved engine.
        trace_capacity: Events retained by the ring-buffer tracer;
            older events are overwritten once full.
    """

    mode: SchedulingMode
    partitions: List[PartitionSpec] = field(default_factory=list)
    backend: str = "thread"
    spsc_queues: bool = True
    ring_capacity: int = 1 << 20
    max_concurrency: Optional[int] = None
    aging_ns: float = 50_000_000.0
    batch_limit: Optional[int] = None
    batch_size: Optional[int] = None
    pace_sources: bool = False
    time_scale: float = 1.0
    sanitize: bool = field(
        default_factory=lambda: os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
    )
    sanitize_starvation_grants: int = 1000
    observe: bool = field(
        default_factory=lambda: os.environ.get("REPRO_OBSERVE", "") not in ("", "0")
    )
    trace_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.backend not in ("thread", "process"):
            raise SchedulingError(
                f'backend must be "thread" or "process", got {self.backend!r}'
            )
        if self.ring_capacity < 64:
            raise SchedulingError(
                f"ring_capacity must be >= 64 bytes, got {self.ring_capacity}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise SchedulingError(
                f"batch_size must be >= 1 or None, got {self.batch_size}"
            )
        if self.trace_capacity < 1:
            raise SchedulingError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        names = [partition.name for partition in self.partitions]
        if len(names) != len(set(names)):
            raise SchedulingError(f"duplicate partition names in {names}")
        owned: set[Node] = set()
        for partition in self.partitions:
            for node in partition.queue_nodes:
                if node in owned:
                    raise SchedulingError(
                        f"queue {node.name!r} owned by two partitions"
                    )
                owned.add(node)

    def owned_queues(self) -> set[Node]:
        """All queues covered by some partition."""
        return {
            node
            for partition in self.partitions
            for node in partition.queue_nodes
        }


def _all_queues(graph: QueryGraph) -> List[Node]:
    return graph.queues()


def di_config(graph: QueryGraph, **kwargs) -> EngineConfig:
    """Pure direct interoperability: source threads drive everything.

    Requires a queue-free graph — with no scheduler, buffered elements
    would never be consumed.
    """
    queues = _all_queues(graph)
    if queues:
        raise SchedulingError(
            "di_config requires a graph without queues; found "
            + ", ".join(node.name for node in queues)
        )
    return EngineConfig(mode=SchedulingMode.DI, partitions=[], **kwargs)


def gts_config(
    graph: QueryGraph, strategy: str | SchedulingStrategy = "fifo", **kwargs
) -> EngineConfig:
    """Graph-threaded scheduling: one thread runs every queue."""
    queues = _all_queues(graph)
    if not queues:
        raise SchedulingError("gts_config requires at least one queue")
    if isinstance(strategy, str):
        strategy = make_strategy(strategy)
    spec = PartitionSpec(
        queue_nodes=queues, strategy=strategy, name="gts", priority=0.0
    )
    return EngineConfig(mode=SchedulingMode.GTS, partitions=[spec], **kwargs)


def ots_config(graph: QueryGraph, **kwargs) -> EngineConfig:
    """Operator-threaded scheduling: one thread per queue."""
    queues = _all_queues(graph)
    if not queues:
        raise SchedulingError("ots_config requires at least one queue")
    partitions = [
        PartitionSpec(
            queue_nodes=[node],
            strategy=make_strategy("fifo"),
            name=f"ots-{index}",
        )
        for index, node in enumerate(queues)
    ]
    return EngineConfig(mode=SchedulingMode.OTS, partitions=partitions, **kwargs)


def hmts_config(
    graph: QueryGraph,
    groups: Sequence[Sequence[Node]],
    strategies: Sequence[str | SchedulingStrategy] | str = "fifo",
    priorities: Sequence[float] | None = None,
    **kwargs,
) -> EngineConfig:
    """Hybrid multi-threaded scheduling over explicit queue groups.

    Args:
        graph: The (already decoupled) query graph.
        groups: Queue groups; each becomes one level-2 unit/thread.
            Together they must cover every queue in the graph.
        strategies: One strategy (applied to all groups) or one per group.
        priorities: Level-3 base priorities, one per group (default 0).
    """
    queues = set(_all_queues(graph))
    if isinstance(strategies, (str, SchedulingStrategy)):
        strategies = [strategies] * len(groups)
    if len(strategies) != len(groups):
        raise SchedulingError(
            f"{len(groups)} groups but {len(strategies)} strategies"
        )
    if priorities is None:
        priorities = [0.0] * len(groups)
    if len(priorities) != len(groups):
        raise SchedulingError(
            f"{len(groups)} groups but {len(priorities)} priorities"
        )
    partitions = []
    for index, (group, strategy, priority) in enumerate(
        zip(groups, strategies, priorities)
    ):
        if isinstance(strategy, str):
            strategy = make_strategy(strategy)
        partitions.append(
            PartitionSpec(
                queue_nodes=list(group),
                strategy=strategy,
                priority=priority,
                name=f"hmts-{index}",
            )
        )
    config = EngineConfig(
        mode=SchedulingMode.HMTS, partitions=partitions, **kwargs
    )
    missing = queues - config.owned_queues()
    if missing:
        raise SchedulingError(
            "hmts groups must cover all queues; missing "
            + ", ".join(node.name for node in missing)
        )
    return config
