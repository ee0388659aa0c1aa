"""Level-2 scheduling strategies.

A partition scheduler (a GTS instance over one partition of the query
graph) repeatedly picks the next decoupling queue to execute — "a
graph threaded scheduler utilizes a strategy to select the next
operator to be executed" (paper Section 4.1.1).  HMTS allows "arbitrary
strategies on the second level" (Section 4.2.2); we implement five: the
three the paper uses or mentions (FIFO, RoundRobin, Chain) and two
ablation partners (LongestQueueFirst, Greedy):

* :class:`FifoStrategy` — run the queue holding the globally oldest
  buffered element: elements are processed in arrival order across the
  whole partition.
* :class:`RoundRobinStrategy` — cycle through the ready queues.
* :class:`ChainStrategy` — Babcock et al.'s memory-minimizing strategy:
  every operator gets the slope of its lower-envelope segment as its
  priority; the ready queue whose consumer has the steepest (most
  negative) slope runs first.
* :class:`LongestQueueFirstStrategy` — always drain the fullest queue;
  a classic load-shedding-adjacent heuristic that bounds the maximum
  backlog.
* :class:`GreedyStrategy` — "highest rate": run the queue whose
  consumer destroys the most elements per unit time (selectivity drop
  per cost), the greedy single-operator variant of Chain.

A strategy instance is stateful and owned by exactly one scheduler.
Strategies see *graph queue nodes* and read each queue's state through
:attr:`SchedulingStrategy.queue_of` — only ``len()`` and
``oldest_seq()`` (:class:`QueueState`).  By default that is the node's
payload (a :class:`~repro.operators.queue_op.QueueOperator` or an
:class:`~repro.mp.queues.RingQueue`); the simulator points it at its
:class:`~repro.sim.channel.SimQueue` buffers.  So the same classes, and
the same decisions, drive the real-thread engine, the process engine
and the simulator.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from repro.core.envelope import segment_slopes
from repro.errors import SchedulingError
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph

__all__ = [
    "QueueState",
    "SchedulingStrategy",
    "FifoStrategy",
    "RoundRobinStrategy",
    "ChainStrategy",
    "LongestQueueFirstStrategy",
    "GreedyStrategy",
    "operator_chains",
    "make_strategy",
]


class QueueState(Protocol):
    """The queue state a strategy reads."""

    def __len__(self) -> int:
        """Buffered items: data elements plus punctuations."""

    def oldest_seq(self) -> Optional[int]:
        """Sequence number of the oldest buffered data element; None
        when only punctuation is buffered."""


def _oldest_first(
    ready: Sequence[Node], queue_of: Callable[[Node], QueueState]
) -> Node:
    """FIFO order: the queue whose oldest data element has the smallest
    sequence number; a punctuation-only queue is served first (cheap,
    unblocks end-of-stream propagation)."""
    best = None
    best_seq: Optional[int] = None
    for node in ready:
        seq = queue_of(node).oldest_seq()
        if seq is None:
            return node
        if best_seq is None or seq < best_seq:
            best, best_seq = node, seq
    assert best is not None
    return best


class SchedulingStrategy:
    """Base class: picks the next queue to execute among ready queues."""

    name = "strategy"

    #: Maps a queue node to the :class:`QueueState` the strategy reads.
    #: Engines keep the queue on ``node.payload``; the simulator assigns
    #: a lookup of its own queues on the instance.
    queue_of: Callable[[Node], QueueState] = attrgetter("payload")

    def prepare(self, graph: QueryGraph, queue_nodes: Sequence[Node]) -> None:
        """Called once before scheduling starts.

        Strategies that need static analysis (Chain's lower envelope)
        perform it here.  The default does nothing.
        """

    def select(self, ready: Sequence[Node]) -> Node:
        """Pick one of the ``ready`` (non-empty) queue nodes.

        ``ready`` is never empty.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class FifoStrategy(SchedulingStrategy):
    """Process elements in global arrival order.

    The ready queue whose head data element carries the smallest
    sequence number runs next; queues holding only punctuations are
    served first (cheap, unblocks end-of-stream propagation).
    """

    name = "fifo"

    def select(self, ready: Sequence[Node]) -> Node:
        if not ready:
            raise SchedulingError("select() called with no ready queue")
        return _oldest_first(ready, self.queue_of)


class RoundRobinStrategy(SchedulingStrategy):
    """Cycle through the queues in registration order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._order: List[Node] = []
        self._cursor = 0

    def prepare(self, graph: QueryGraph, queue_nodes: Sequence[Node]) -> None:
        self._order = list(queue_nodes)
        self._cursor = 0

    def select(self, ready: Sequence[Node]) -> Node:
        if not ready:
            raise SchedulingError("select() called with no ready queue")
        ready_set = set(ready)
        order = self._order or list(ready)
        for offset in range(len(order)):
            candidate = order[(self._cursor + offset) % len(order)]
            if candidate in ready_set:
                self._cursor = (self._cursor + offset + 1) % len(order)
                return candidate
        # A ready queue not registered in prepare(): serve it directly.
        return ready[0]


def operator_chains(graph: QueryGraph) -> List[List[Node]]:
    """Maximal 1:1 operator chains, treating queues as transparent.

    A chain is a maximal path of non-queue operator nodes where each
    link is the only (logical) producer/consumer relation of both
    endpoints; decoupling queues sitting on a link do not break it.
    Used by :class:`ChainStrategy` to compute progress charts.
    """

    def logical_producers(node: Node) -> List[Node]:
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

    def logical_consumers(node: Node) -> List[Node]:
        consumers = []
        stack = [edge.consumer for edge in graph.out_edges(node)]
        while stack:
            consumer = stack.pop()
            if consumer.is_queue:
                stack.extend(edge.consumer for edge in graph.out_edges(consumer))
            else:
                consumers.append(consumer)
        return consumers

    operators = graph.operators(include_queues=False)
    member_set = set(operators)
    next_link: Dict[Node, Node] = {}
    has_predecessor: set[Node] = set()
    for node in operators:
        consumers = [c for c in logical_consumers(node) if c in member_set]
        if len(consumers) != 1:
            continue
        consumer = consumers[0]
        producers = [p for p in logical_producers(consumer) if p in member_set]
        if len(producers) != 1 or producers[0] is not node:
            continue
        next_link[node] = consumer
        has_predecessor.add(consumer)

    chains: List[List[Node]] = []
    for node in operators:
        if node in has_predecessor:
            continue
        chain = [node]
        while chain[-1] in next_link:
            chain.append(next_link[chain[-1]])
        chains.append(chain)
    return chains


class ChainStrategy(SchedulingStrategy):
    """Chain scheduling (Babcock et al. 2003) over a partition's queues.

    :meth:`prepare` decomposes the operator graph into chains, computes
    each chain's lower envelope from the nodes' cost and selectivity
    annotations, and assigns every operator its segment slope.  A
    queue's priority is the slope of its consuming operator; the most
    negative slope wins.  Ties fall back to FIFO order.

    Operators without annotations get slope ``0`` (lowest priority
    among data-reducing operators).
    """

    name = "chain"

    def __init__(self) -> None:
        self._slope_of_queue: Dict[Node, float] = {}

    def prepare(self, graph: QueryGraph, queue_nodes: Sequence[Node]) -> None:
        slope_of_operator: Dict[Node, float] = {}
        for chain in operator_chains(graph):
            costs = [node.cost_ns if node.cost_ns is not None else 0.0 for node in chain]
            selectivities = [
                node.selectivity if node.selectivity is not None else 1.0
                for node in chain
            ]
            for node, slope in zip(chain, segment_slopes(costs, selectivities)):
                slope_of_operator[node] = slope
        self._slope_of_queue = {}
        for queue_node in queue_nodes:
            consumers = [
                edge.consumer
                for edge in graph.out_edges(queue_node)
                if not edge.consumer.is_sink
            ]
            slopes = [
                slope_of_operator.get(consumer, 0.0) for consumer in consumers
            ]
            self._slope_of_queue[queue_node] = min(slopes) if slopes else 0.0

    def slope_of(self, queue_node: Node) -> float:
        """The priority slope assigned to ``queue_node`` by prepare()."""
        return self._slope_of_queue.get(queue_node, 0.0)

    def select(self, ready: Sequence[Node]) -> Node:
        if not ready:
            raise SchedulingError("select() called with no ready queue")
        best_slope = min(self._slope_of_queue.get(node, 0.0) for node in ready)
        steepest = [
            node
            for node in ready
            if self._slope_of_queue.get(node, 0.0) == best_slope
        ]
        if len(steepest) == 1:
            return steepest[0]
        return _oldest_first(steepest, self.queue_of)


class LongestQueueFirstStrategy(SchedulingStrategy):
    """Serve the queue with the largest backlog first.

    Ties fall back to FIFO order.  Bounds the worst-case queue length
    at the price of ignoring operator costs entirely.
    """

    name = "longest-queue-first"

    def select(self, ready: Sequence[Node]) -> Node:
        if not ready:
            raise SchedulingError("select() called with no ready queue")
        queue_of = self.queue_of
        longest = max(len(queue_of(node)) for node in ready)
        candidates = [node for node in ready if len(queue_of(node)) == longest]
        if len(candidates) == 1:
            return candidates[0]
        return _oldest_first(candidates, queue_of)


class GreedyStrategy(SchedulingStrategy):
    """Highest-rate greedy: maximize elements destroyed per unit time.

    Each queue's priority is ``(1 - selectivity) / cost`` of its
    consuming operator — the single-operator memory release rate.  This
    is Chain without the lower envelope; Babcock et al. show it can be
    arbitrarily worse than Chain on adversarial charts, which makes it
    a useful ablation partner.
    """

    name = "greedy"

    def __init__(self) -> None:
        self._rate_of_queue: Dict[Node, float] = {}

    def prepare(self, graph: QueryGraph, queue_nodes: Sequence[Node]) -> None:
        self._rate_of_queue = {}
        for queue_node in queue_nodes:
            rates = []
            for edge in graph.out_edges(queue_node):
                consumer = edge.consumer
                if consumer.is_sink:
                    continue
                cost = consumer.cost_ns
                selectivity = consumer.selectivity
                if cost is None or cost <= 0:
                    rates.append(float("inf"))
                else:
                    if selectivity is None:
                        selectivity = 1.0
                    rates.append((1.0 - selectivity) / cost)
            self._rate_of_queue[queue_node] = max(rates) if rates else 0.0

    def rate_of(self, queue_node: Node) -> float:
        """The release rate assigned to ``queue_node`` by prepare()."""
        return self._rate_of_queue.get(queue_node, 0.0)

    def select(self, ready: Sequence[Node]) -> Node:
        if not ready:
            raise SchedulingError("select() called with no ready queue")
        best = max(self._rate_of_queue.get(node, 0.0) for node in ready)
        candidates = [
            node
            for node in ready
            if self._rate_of_queue.get(node, 0.0) == best
        ]
        if len(candidates) == 1:
            return candidates[0]
        return _oldest_first(candidates, self.queue_of)


_STRATEGY_FACTORIES = {
    "fifo": FifoStrategy,
    "chain": ChainStrategy,
    "round-robin": RoundRobinStrategy,
    "longest-queue-first": LongestQueueFirstStrategy,
    "greedy": GreedyStrategy,
}


def make_strategy(name: str) -> SchedulingStrategy:
    """Instantiate a strategy by name: "fifo", "round-robin", "chain",
    "longest-queue-first" or "greedy"."""
    try:
        factory = _STRATEGY_FACTORIES[name]
    except KeyError:
        raise SchedulingError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGY_FACTORIES)}"
        ) from None
    return factory()
