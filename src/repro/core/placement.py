"""Queue placement: where to cut the query graph into virtual operators.

This implements the paper's core heuristic and the two baselines it is
compared against in Section 6.7 / Fig. 11:

* :func:`stall_avoiding_partitioning` — Algorithm 1 ("static queue
  placement"): traverse the graph bottom-up from the sources and grow
  each partition with a first-fit-decreasing pass over the candidate
  producers, admitting a producer only while the merged capacity stays
  non-negative.  Queues go on every rejected edge.
* :func:`segment_partitioning` — the simplified segment strategy of
  Jiang & Chakravarthy (BNCOD 2004): cut operator chains where the
  memory release capacity stops improving; capacity-blind.
* :func:`chain_partitioning` — VO construction from the Chain strategy
  (Babcock et al. 2003): operators in the same lower-envelope segment
  keep direct connections ("removes queues if they belong to the same
  chain"); also capacity-blind.

:func:`annotate_from_metrics` writes runtime-measured ``c(v)`` and
``d(v)`` (a :mod:`repro.obs` metrics snapshot) into the node
annotations these algorithms read.

All three return a :class:`PlacementResult` holding the partitioning
(the VOs), the edges that need decoupling queues, and an
:meth:`PlacementResult.apply` that splices the queues into the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.capacity import CapacityAggregate, node_aggregate
from repro.core.envelope import lower_envelope_segments
from repro.core.partition import Partition, Partitioning
from repro.errors import PlacementError
from repro.graph.node import Node
from repro.graph.query_graph import Edge, QueryGraph

__all__ = [
    "annotate_from_metrics",
    "PlacementResult",
    "ReplacementPlan",
    "stall_avoiding_partitioning",
    "stall_avoiding_replacement",
    "segment_partitioning",
    "chain_partitioning",
]


@dataclass
class PlacementResult:
    """Outcome of a queue-placement algorithm.

    Attributes:
        partitioning: The virtual operators (disjoint connected groups).
        queue_edges: Graph edges that must carry a decoupling queue.
        algorithm: Name of the algorithm that produced the result.
    """

    partitioning: Partitioning
    queue_edges: List[Edge]
    algorithm: str = "unknown"
    _applied: bool = field(default=False, repr=False)

    def apply(self, graph: QueryGraph) -> list[Node]:
        """Insert a :class:`QueueOperator` on every crossing edge.

        Returns the inserted queue nodes.  May be called once.
        """
        if self._applied:
            raise PlacementError("placement already applied to a graph")
        self._applied = True
        return [graph.insert_queue(edge) for edge in self.queue_edges]

    def capacities_ns(self) -> list[float]:
        """``cap(P_i)`` of every produced VO, nanoseconds."""
        return self.partitioning.capacities_ns()

    def negative_capacities_ns(self) -> list[float]:
        """Capacities of the VOs that violate ``cap >= 0``."""
        return [cap for cap in self.capacities_ns() if cap < 0]

    def positive_capacities_ns(self) -> list[float]:
        """Capacities of the VOs with slack (``cap >= 0``)."""
        return [cap for cap in self.capacities_ns() if cap >= 0]


class _UnionFind:
    """Union-find over nodes with per-root capacity aggregates."""

    def __init__(self, nodes: List[Node]) -> None:
        self._parent: Dict[Node, Node] = {node: node for node in nodes}
        self.aggregate: Dict[Node, CapacityAggregate] = {
            node: node_aggregate(node) for node in nodes
        }

    def find(self, node: Node) -> Node:
        root = node
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[node] is not root:  # path compression
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, first: Node, second: Node) -> Node:
        """Merge the groups of ``first`` and ``second``; returns the root."""
        root_a, root_b = self.find(first), self.find(second)
        if root_a is root_b:
            return root_a
        self._parent[root_b] = root_a
        self.aggregate[root_a] = self.aggregate[root_a].merge(
            self.aggregate[root_b]
        )
        del self.aggregate[root_b]
        return root_a

    def groups(self) -> Dict[Node, List[Node]]:
        """Map each root to its member nodes (insertion order)."""
        result: Dict[Node, List[Node]] = {}
        for node in self._parent:
            result.setdefault(self.find(node), []).append(node)
        return result


def _participants(graph: QueryGraph, include_sources: bool) -> List[Node]:
    if graph.queues():
        raise PlacementError(
            "queue placement expects a graph without queues "
            "(Algorithm 1 input: 'a query graph G without queues')"
        )
    nodes = graph.operators(include_queues=False)
    if include_sources:
        nodes = graph.sources() + nodes
    return nodes


def _result_from_unionfind(
    graph: QueryGraph,
    uf: _UnionFind,
    participants: List[Node],
    algorithm: str,
) -> PlacementResult:
    member_set = set(participants)
    groups = uf.groups()
    partitions = [
        Partition(nodes, name=f"vo-{index}")
        for index, nodes in enumerate(groups.values())
    ]
    partitioning = Partitioning(partitions)
    queue_edges = [
        edge
        for edge in graph.edges
        if edge.producer in member_set
        and edge.consumer in member_set
        and uf.find(edge.producer) is not uf.find(edge.consumer)
    ]
    return PlacementResult(
        partitioning=partitioning, queue_edges=queue_edges, algorithm=algorithm
    )


def _logical_predecessors(graph: QueryGraph, node: Node) -> List[Node]:
    """Producers of ``node``, looking through decoupling queues."""
    producers = []
    for edge in graph.in_edges(node):
        producer = edge.producer
        while producer.is_queue:
            in_edges = graph.in_edges(producer)
            if not in_edges:
                break
            producer = in_edges[0].producer
        producers.append(producer)
    return producers


def _logical_successors(graph: QueryGraph, node: Node) -> List[Node]:
    """Consumers of ``node``, looking through decoupling queues."""
    consumers = []
    stack = [edge.consumer for edge in graph.out_edges(node)]
    while stack:
        consumer = stack.pop()
        if consumer.is_queue:
            stack.extend(edge.consumer for edge in graph.out_edges(consumer))
        else:
            consumers.append(consumer)
    return consumers


def _stall_avoiding_unionfind(
    graph: QueryGraph,
    participants: List[Node],
    min_capacity_ns: float,
) -> _UnionFind:
    """The Algorithm 1 traversal over logical (queue-transparent) edges."""
    member_set = set(participants)
    uf = _UnionFind(participants)
    todo: deque[Node] = deque(graph.sources())
    done: set[Node] = set()
    while todo:
        node = todo.popleft()
        if node in done:
            continue
        done.add(node)
        for successor in _logical_successors(graph, node):
            if not successor.is_sink:
                todo.append(successor)
        if node not in member_set or node.is_source:
            continue
        producers = [
            producer
            for producer in _logical_predecessors(graph, node)
            if producer in member_set
        ]
        # sortDescByCap: first-fit-decreasing over the producers' current
        # group capacities.
        producers.sort(
            key=lambda producer: uf.aggregate[uf.find(producer)].capacity_ns,
            reverse=True,
        )
        for producer in producers:
            root_node, root_producer = uf.find(node), uf.find(producer)
            if root_node is root_producer:
                continue  # already merged transitively: stay direct
            combined = uf.aggregate[root_node].merge(uf.aggregate[root_producer])
            if combined.capacity_ns >= min_capacity_ns:
                uf.union(node, producer)
    return uf


def stall_avoiding_partitioning(
    graph: QueryGraph,
    include_sources: bool = True,
    min_capacity_ns: float = 0.0,
) -> PlacementResult:
    """Algorithm 1: static queue placement (paper Section 5.1.3).

    Traverses the graph bottom-up from its sources (the paper's
    ``todo``/``done`` lists).  For each reached node, the candidate
    producers are sorted descending by the capacity of their current
    group (``sortDescByCap``) and admitted first-fit-decreasing while
    the merged capacity stays at or above ``min_capacity_ns``
    ("a source is selected, when the combined capacity of source and
    the actual processed partition is greater than or equal to zero").
    Every rejected producer edge receives a queue.

    Args:
        graph: A validated query graph without queues, with ``c(v)`` and
            ``d(v)`` annotations on every operator (see
            :func:`repro.graph.query_graph.derive_rates`).
        include_sources: Whether data sources may join VOs (merging a
            source means its successors run in the source's thread).
        min_capacity_ns: The admission threshold; 0 reproduces the paper.

    Returns:
        The partitioning, with ``cap(P) >= min_capacity_ns`` guaranteed
        for every multi-node partition (singletons may be negative when
        a single operator is already overloaded — unavoidable).
    """
    participants = _participants(graph, include_sources)
    uf = _stall_avoiding_unionfind(graph, participants, min_capacity_ns)
    return _result_from_unionfind(graph, uf, participants, "stall-avoiding")


def _memory_release_capacity(node: Node) -> float:
    """Memory released per unit processing time (Jiang & Chakravarthy).

    An operator with selectivity ``s`` consumes one element and emits
    ``s``; it thus releases ``1 - s`` elements of memory at the price of
    ``c(v)`` time.
    """
    cost = node.cost_ns
    selectivity = node.selectivity
    if cost is None:
        raise PlacementError(f"node {node.name!r} has no cost annotation")
    if selectivity is None:
        selectivity = 1.0
    if cost <= 0:
        return float("inf")
    return (1.0 - selectivity) / cost


def _chain_predecessor(graph: QueryGraph, node: Node, member_set: set) -> Node | None:
    """The unique chain predecessor of ``node``, if the link is 1:1."""
    producers = [p for p in graph.predecessors(node) if p in member_set]
    if len(producers) != 1:
        return None
    producer = producers[0]
    consumers = [
        c for c in graph.successors(producer) if c in member_set or c.is_sink
    ]
    if len([c for c in consumers if not c.is_sink]) != 1:
        return None
    return producer


def segment_partitioning(graph: QueryGraph) -> PlacementResult:
    """Simplified segment strategy (Jiang & Chakravarthy 2004).

    Operator chains are cut where the memory release capacity (MRC)
    *decreases*: a node joins its unique chain predecessor's segment
    only while ``MRC(node) >= MRC(predecessor)``.  The construction is
    capacity-blind — it can and does produce VOs with negative capacity,
    which is exactly what Fig. 11 measures.
    """
    participants = _participants(graph, include_sources=False)
    member_set = set(participants)
    uf = _UnionFind(participants)
    for node in graph.topological_order():
        if node not in member_set:
            continue
        producer = _chain_predecessor(graph, node, member_set)
        if producer is None:
            continue
        if _memory_release_capacity(node) >= _memory_release_capacity(producer):
            uf.union(producer, node)
    return _result_from_unionfind(graph, uf, participants, "segment")


def chain_partitioning(graph: QueryGraph) -> PlacementResult:
    """VO construction from the Chain strategy (Babcock et al. 2003).

    Decomposes the operator graph into maximal 1:1 chains, computes each
    chain's lower envelope, and merges the operators of every envelope
    segment into one VO ("the latter removes queues if they belong to
    the same chain").  Capacity-blind, like the segment baseline.
    """
    participants = _participants(graph, include_sources=False)
    member_set = set(participants)
    uf = _UnionFind(participants)

    # Build maximal chains: start at nodes without a unique chain
    # predecessor and follow unique 1:1 successors.
    chain_next: Dict[Node, Node] = {}
    chain_heads: List[Node] = []
    for node in graph.topological_order():
        if node not in member_set:
            continue
        producer = _chain_predecessor(graph, node, member_set)
        if producer is None:
            chain_heads.append(node)
        else:
            chain_next[producer] = node

    for head in chain_heads:
        chain = [head]
        while chain[-1] in chain_next:
            chain.append(chain_next[chain[-1]])
        costs = []
        selectivities = []
        for node in chain:
            if node.cost_ns is None:
                raise PlacementError(f"node {node.name!r} has no cost annotation")
            costs.append(node.cost_ns)
            selectivities.append(
                1.0 if node.selectivity is None else node.selectivity
            )
        for segment in lower_envelope_segments(costs, selectivities):
            for index in segment[1:]:
                uf.union(chain[segment[0]], chain[index])
    return _result_from_unionfind(graph, uf, participants, "chain")


@dataclass
class ReplacementPlan:
    """A desired queue placement for a *live* graph (queues present).

    Produced by :func:`stall_avoiding_replacement`: the same Algorithm 1
    decision process, but evaluated on a graph that already carries
    decoupling queues (treated as transparent).  The plan describes the
    target state as *logical cuts* — unordered producer/consumer node
    pairs that must be separated by a queue — so a controller can diff
    it against the current placement and insert/remove queues at
    runtime (the future-work item of Section 5.1.3, implemented by
    :class:`repro.core.adaptive.AdaptiveReplacer`).
    """

    partitioning: Partitioning
    cuts: List[tuple]  # (producer Node, consumer Node) logical pairs

    def wants_cut(self, producer: Node, consumer: Node) -> bool:
        """True when the plan separates ``producer`` from ``consumer``."""
        return any(
            p is producer and c is consumer for p, c in self.cuts
        )

    def current_cuts(self, graph: QueryGraph) -> List[tuple]:
        """The logical pairs currently separated by a queue in ``graph``."""
        separated = []
        for queue_node in graph.queues():
            in_edges = graph.in_edges(queue_node)
            if not in_edges:
                continue
            producer = in_edges[0].producer
            while producer.is_queue:
                upstream = graph.in_edges(producer)
                if not upstream:
                    break
                producer = upstream[0].producer
            for edge in graph.out_edges(queue_node):
                consumer = edge.consumer
                if not consumer.is_queue:
                    separated.append((producer, consumer))
        return separated

    def diff(self, graph: QueryGraph) -> tuple[list, list]:
        """``(to_insert, to_remove)`` against the graph's current state.

        ``to_insert`` lists logical pairs that need a new queue;
        ``to_remove`` lists existing queue *nodes* that the plan fuses
        away.  Pairs involving sinks are never touched.
        """
        desired = {
            (p.node_id, c.node_id) for p, c in self.cuts
        }
        existing_pairs = {}
        for queue_node in graph.queues():
            in_edges = graph.in_edges(queue_node)
            if not in_edges:
                continue
            producer = in_edges[0].producer
            for edge in graph.out_edges(queue_node):
                consumer = edge.consumer
                if not consumer.is_queue and not consumer.is_sink:
                    existing_pairs[(producer.node_id, consumer.node_id)] = (
                        queue_node
                    )
        to_insert = [
            (p, c)
            for p, c in self.cuts
            if (p.node_id, c.node_id) not in existing_pairs
        ]
        to_remove = [
            queue_node
            for pair, queue_node in existing_pairs.items()
            if pair not in desired
        ]
        return to_insert, to_remove


def stall_avoiding_replacement(
    graph: QueryGraph,
    include_sources: bool = True,
    min_capacity_ns: float = 0.0,
) -> ReplacementPlan:
    """Algorithm 1 evaluated on a live (queue-carrying) graph.

    Unlike :func:`stall_avoiding_partitioning`, the input graph may
    already contain decoupling queues; they are treated as transparent
    links, and the result describes the *target* placement as logical
    cuts rather than concrete edges.
    """
    nodes = graph.operators(include_queues=False)
    if include_sources:
        nodes = graph.sources() + nodes
    uf = _stall_avoiding_unionfind(graph, nodes, min_capacity_ns)
    member_set = set(nodes)
    groups = uf.groups()
    partitioning = Partitioning(
        [
            Partition(members, name=f"vo-{index}")
            for index, members in enumerate(groups.values())
        ]
    )
    cuts = []
    for node in nodes:
        for consumer in _logical_successors(graph, node):
            if consumer in member_set and uf.find(node) is not uf.find(consumer):
                cuts.append((node, consumer))
    return ReplacementPlan(partitioning=partitioning, cuts=cuts)


def annotate_from_metrics(
    graph: QueryGraph, metrics: dict, min_elements: int = 2
) -> None:
    """Write measured ``c(v)`` and ``d(v)`` into the node annotations.

    Paper Section 5.1.3 assumes both are "meta data provided by the DSMS
    during runtime".  ``metrics`` is a whole :mod:`repro.obs` snapshot
    (``EngineReport.metrics`` or ``MetricsRegistry.snapshot()``, from
    either backend); its ``"operators"`` section supplies, per node,
    ``service_ns_ewma`` as ``cost_ns`` and ``interarrival_ns`` as
    ``interarrival_ns``.  The gap is in element-timestamp units and is
    written only when positive: a degenerate span (all-equal
    timestamps) means no usable arrival spread, not an infinite input
    rate.  Nodes with fewer than ``min_elements`` measured inputs keep
    their declared values (the paper's "suitable model" fallback).
    """
    operators = metrics["operators"]
    for node in graph.operators(include_queues=False):
        measured = operators.get(node.name)
        if measured is None or measured["elements_in"] < min_elements:
            continue
        if measured["service_ns_ewma"] is not None:
            node.cost_ns = measured["service_ns_ewma"]
        gap = measured["interarrival_ns"]
        if gap is not None and gap > 0:
            node.interarrival_ns = gap
