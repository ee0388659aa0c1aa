"""The capacity model of Section 5.1.2.

For an operator ``v``:

* ``c(v)`` — average time to process one element (nanoseconds here),
* ``d(v)`` — average interarrival time of elements on v's inputs
  (the reciprocal of v's input rate).

For a partition ``P`` (a candidate virtual operator):

* ``c(P) = sum(c(v) for v in P)``
* ``d(P) = 1 / sum(1/d(v) for v in P)``
* ``cap(P) = d(P) - c(P)`` — the *capacity*.

A negative capacity means the VO cannot keep pace with its combined
input rate: elements arrive on average every ``d(P)`` while one element
costs ``c(P)`` to push through, so the VO stalls.  A positive capacity
is slack.  The placement goal (Section 5.1.2): "minimize the number of
partitions under the constraint that the capacity of each VO is not
negative."

:class:`CapacityAggregate` is the additive form used throughout the
algorithms: costs add, and input *rates* (``1/d``) add, so merging two
groups is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import PlacementError
from repro.graph.node import Node

__all__ = [
    "CapacityAggregate",
    "node_aggregate",
    "partition_cost",
    "partition_interarrival",
    "partition_capacity",
]


@dataclass(frozen=True, slots=True)
class CapacityAggregate:
    """Additive (cost, input-rate) summary of a node group.

    Attributes:
        cost_ns: ``c(P)``: summed per-element cost, nanoseconds.
        rate_per_ns: ``1/d(P)``: summed input rate, elements/nanosecond.
    """

    cost_ns: float
    rate_per_ns: float

    @property
    def interarrival_ns(self) -> float:
        """``d(P)`` in nanoseconds (infinite for a rate of zero)."""
        if self.rate_per_ns <= 0.0:
            return float("inf")
        return 1.0 / self.rate_per_ns

    @property
    def capacity_ns(self) -> float:
        """``cap(P) = d(P) - c(P)`` in nanoseconds."""
        return self.interarrival_ns - self.cost_ns

    @property
    def utilization(self) -> float:
        """``c(P) / d(P)``; above 1.0 the group is overloaded."""
        gap = self.interarrival_ns
        if gap == float("inf"):
            return 0.0
        return self.cost_ns / gap

    def merge(self, other: "CapacityAggregate") -> "CapacityAggregate":
        """Aggregate of the union of two disjoint groups."""
        return CapacityAggregate(
            cost_ns=self.cost_ns + other.cost_ns,
            rate_per_ns=self.rate_per_ns + other.rate_per_ns,
        )

    @classmethod
    def empty(cls) -> "CapacityAggregate":
        """The aggregate of an empty group (zero cost, zero rate)."""
        return cls(cost_ns=0.0, rate_per_ns=0.0)


def node_aggregate(node: Node) -> CapacityAggregate:
    """The single-node aggregate from the node's annotations.

    Sources contribute zero processing cost and their emission rate;
    operators need both ``cost_ns`` and ``interarrival_ns`` annotations
    (set them directly, via :func:`repro.graph.query_graph.derive_rates`,
    or from runtime metrics via
    :func:`repro.core.placement.annotate_from_metrics`).

    Raises:
        PlacementError: if a required annotation is missing.
    """
    if node.is_source:
        rate = getattr(node.payload, "rate_per_second", None)
        if rate is None and node.interarrival_ns:
            rate = 1e9 / node.interarrival_ns
        if rate is None:
            raise PlacementError(
                f"source {node.name!r} has no rate information"
            )
        return CapacityAggregate(cost_ns=0.0, rate_per_ns=rate / 1e9)
    cost = node.cost_ns
    if cost is None:
        raise PlacementError(f"node {node.name!r} has no cost annotation c(v)")
    gap = node.interarrival_ns
    if gap is None:
        raise PlacementError(
            f"node {node.name!r} has no interarrival annotation d(v); "
            "run derive_rates() or annotate it explicitly"
        )
    rate = 0.0 if gap == float("inf") else 1.0 / gap
    return CapacityAggregate(cost_ns=float(cost), rate_per_ns=rate)


def _aggregate_of(nodes: Iterable[Node]) -> CapacityAggregate:
    total = CapacityAggregate.empty()
    for node in nodes:
        total = total.merge(node_aggregate(node))
    return total


def partition_cost(nodes: Iterable[Node]) -> float:
    """``c(P)``: summed per-element cost of ``nodes``, nanoseconds."""
    return _aggregate_of(nodes).cost_ns


def partition_interarrival(nodes: Iterable[Node]) -> float:
    """``d(P)``: combined interarrival time of ``nodes``, nanoseconds."""
    return _aggregate_of(nodes).interarrival_ns


def partition_capacity(nodes: Iterable[Node]) -> float:
    """``cap(P) = d(P) - c(P)`` of ``nodes``, nanoseconds."""
    return _aggregate_of(nodes).capacity_ns
