"""Adaptive runtime queue placement.

Paper Section 5.1.3 closes with: "an efficient algorithm for placing
queues during runtime remains to be addressed in future work", after
sketching the mechanism — "inserting and removing queues can be done
during runtime by interrupting the processing of the graph shortly".
This module implements that sketch as a feedback controller:

1. the engine measures per-operator costs and interarrival times while
   running (its :mod:`repro.obs` metrics registry, ``observe=True``),
2. periodically, :class:`AdaptiveReplacer` writes the measurements into
   the graph annotations
   (:func:`repro.core.placement.annotate_from_metrics`), re-evaluates
   Algorithm 1 on the live graph
   (:func:`repro.core.placement.stall_avoiding_replacement`), and
3. diffs the target placement against the current one: new cuts insert
   queues (:meth:`~repro.core.engine.ThreadedEngine.insert_queue_runtime`),
   fused pairs drain and remove their queue
   (:meth:`~repro.core.engine.ThreadedEngine.remove_queue_runtime`),
   and the level-2 partitions are rebuilt one-per-VO.

The controller is deliberately conservative: nothing changes while the
statistics are too sparse, and a ``cooldown`` limits reconfiguration
frequency so measurement noise cannot thrash the placement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.engine import ThreadedEngine
from repro.core.modes import PartitionSpec
from repro.core.placement import annotate_from_metrics, stall_avoiding_replacement
from repro.core.strategies import make_strategy
from repro.core.virtual_operator import build_virtual_operators
from repro.errors import PlacementError, ReproError, SchedulingError

__all__ = ["AdaptiveReplacer", "RebalanceReport"]


@dataclass
class RebalanceReport:
    """What one rebalance pass did."""

    evaluated: bool
    inserted: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    partitions: int = 0

    @property
    def changed(self) -> bool:
        """True when the pass modified the placement."""
        return bool(self.inserted or self.removed)


class AdaptiveReplacer:
    """Feedback controller re-deriving the queue placement at runtime.

    Args:
        engine: A running (or about-to-run) :class:`ThreadedEngine`
            built with ``observe=True``; the controller reads its
            metrics registry.
        min_elements: Minimum measured elements per operator before the
            controller trusts the statistics.
        include_sources: Whether sources may fuse with their successors.
        min_capacity_ns: Algorithm 1 admission threshold.
        strategy: Level-2 strategy for the rebuilt partitions.
    """

    def __init__(
        self,
        engine: ThreadedEngine,
        min_elements: int = 50,
        include_sources: bool = True,
        min_capacity_ns: float = 0.0,
        strategy: str = "fifo",
    ) -> None:
        if engine.metrics is None:
            raise SchedulingError(
                "adaptive replacement reads the engine's metrics registry; "
                "build the engine with observe=True"
            )
        self.engine = engine
        self.metrics = engine.metrics
        self.min_elements = min_elements
        self.include_sources = include_sources
        self.min_capacity_ns = min_capacity_ns
        self.strategy = strategy
        self.reports: List[RebalanceReport] = []
        #: The error that ended the background loop, if any.
        self.error: Optional[ReproError] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # One-shot rebalancing
    # ------------------------------------------------------------------
    def rebalance_once(self) -> RebalanceReport:
        """Evaluate the placement once and apply any changes.

        Returns a report; ``evaluated=False`` means the statistics were
        still too sparse to act on.
        """
        graph = self.engine.graph
        snapshot = self.metrics.snapshot()
        if not self._statistics_ready(graph, snapshot["operators"]):
            report = RebalanceReport(evaluated=False)
            self.reports.append(report)
            return report

        # 1. Fold measurements into the annotations.
        annotate_from_metrics(graph, snapshot, min_elements=self.min_elements)

        # 2. Target placement on the live graph.
        plan = stall_avoiding_replacement(
            graph,
            include_sources=self.include_sources,
            min_capacity_ns=self.min_capacity_ns,
        )
        to_insert, to_remove = plan.diff(graph)
        report = RebalanceReport(evaluated=True)
        if not to_insert and not to_remove:
            report.partitions = len(self.engine.config.partitions)
            self.reports.append(report)
            return report

        # Never leave the engine without any queue to schedule: the
        # worker threads own queues, so a fully fused graph would have
        # no one to drive it except the sources.  Keep one queue.
        if len(to_remove) >= len(graph.queues()) + len(to_insert):
            to_remove = to_remove[1:]

        # 3. Apply structural changes under a single pause.
        self.engine.pause()
        try:
            for producer, consumer in to_insert:
                # A pair in to_insert has no queue between it, so the
                # direct physical edge exists.
                edge = graph.find_edge(producer, consumer)
                queue_node = self.engine.insert_queue_runtime(edge)
                report.inserted.append(queue_node.name)
            for queue_node in to_remove:
                self.engine.remove_queue_runtime(queue_node)
                report.removed.append(queue_node.name)
            # 4. Rebuild the level-2 layout: one partition per VO.
            partitions = self._partitions_from_vos()
            self.engine.reconfigure(partitions)
            report.partitions = len(partitions)
        finally:
            self.engine.resume()
        self.reports.append(report)
        return report

    def _statistics_ready(self, graph, operators: dict) -> bool:
        return all(
            node.name in operators
            and operators[node.name]["elements_in"] >= self.min_elements
            for node in graph.operators(include_queues=False)
        )

    def _partitions_from_vos(self) -> List[PartitionSpec]:
        graph = self.engine.graph
        partitions: List[PartitionSpec] = []
        assigned: set = set()
        for index, vo in enumerate(build_virtual_operators(graph)):
            owned = [
                queue_node
                for queue_node in graph.queues()
                if queue_node not in assigned
                and any(
                    vo.contains(edge.consumer)
                    for edge in graph.out_edges(queue_node)
                )
            ]
            if owned:
                assigned.update(owned)
                partitions.append(
                    PartitionSpec(
                        queue_nodes=owned,
                        strategy=make_strategy(self.strategy),
                        name=f"adaptive-{index}",
                    )
                )
        # Queues feeding sinks directly belong to no VO; give them a
        # partition of their own so nothing is orphaned.
        leftovers = [
            queue_node
            for queue_node in graph.queues()
            if queue_node not in assigned
        ]
        if leftovers:
            partitions.append(
                PartitionSpec(
                    queue_nodes=leftovers,
                    strategy=make_strategy(self.strategy),
                    name="adaptive-leftover",
                )
            )
        if not partitions:
            raise SchedulingError(
                "adaptive rebalance produced a queue-less graph with no "
                "partitions; keep at least one queue after each source"
            )
        return partitions

    # ------------------------------------------------------------------
    # Background operation
    # ------------------------------------------------------------------
    def start(self, interval_s: float = 0.2) -> None:
        """Rebalance every ``interval_s`` seconds until stopped.

        A pass that fails (e.g. a :class:`PlacementError` because a
        source carries no rate) ends the loop; the error is kept on
        :attr:`error`.
        """
        if self._thread is not None:
            raise SchedulingError("adaptive replacer already started")

        def loop() -> None:
            while not self._stop.wait(interval_s):
                if self.engine._finished.is_set():  # engine done: exit
                    return
                try:
                    self.rebalance_once()
                except (PlacementError, SchedulingError) as error:
                    self.error = error
                    return

        self._thread = threading.Thread(
            target=loop, name="adaptive-replacer", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
