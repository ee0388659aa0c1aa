"""Direct interoperability (DI): push-based dataflow through a graph.

Paper Section 2.4: "we let an operator invoke its successors.
Therefore, an incoming element at an operator triggers a chain
reaction, resulting in a depth first traversal of the graph. [...] We
denote the ability of an operator to call its successors direct
interoperability (DI)."

:class:`Dispatcher` implements that chain reaction over a
:class:`~repro.graph.query_graph.QueryGraph`:

* data elements flow depth-first through operators,
* **decoupling queues stop DI** — an element reaching a queue node is
  buffered there, to be picked up later by whichever scheduler owns the
  queue,
* sinks consume,
* END_OF_STREAM propagates port-wise; an operator flushes and closes
  once all its ports have ended.

Every execution engine (DI-only, GTS, OTS, HMTS — real threads or
simulated) is built on this dispatcher, which is what makes the paper's
"seamless switching" between modes possible: the graph and its
operators never change, only who calls the dispatcher and where the
queues sit.

Two per-element overheads are amortized away on the hot path:

* **Compiled dispatch plans** — instead of resolving
  ``graph.out_edges()`` plus ``isinstance`` checks per dispatch, the
  dispatcher caches one ``(kind, payload, out, out_reversed)`` record
  per node, keyed on the graph's structure ``generation``; queue
  splices invalidate the whole plan automatically.
* **Batch injection** — :meth:`Dispatcher.inject_batch` runs the DI
  chain reaction for a whole micro-batch at a time, invoking each
  operator once per batch via
  :meth:`~repro.operators.base.Operator.process_batch`.  Per-element
  semantics (per-port order, END_OF_STREAM placement, routing) are
  preserved: at fan-out points (a node with several out-edges) the
  batch degrades to the element-wise interleaving so graphs that
  re-converge (e.g. a join fed from both sides of a split) observe
  exactly the scalar arrival order.
* **Fused virtual-operator segments** — a straight-line run of
  operators (each stage has exactly one out-edge leading to another
  non-queue operator) is a segment of a virtual operator (paper
  Section 3: queue-free subgraphs "automatically build a VO").  The
  compiled plan stores the whole segment as a tuple of stages, so a
  batch traverses it with one operator call per stage — no stack
  traffic, no per-stage plan lookups — which is what makes a VO
  actually cost like *one* operator on the hot path.  Fused segments
  are part of the generation-keyed plan: splicing a queue into (or out
  of) a segment bumps ``QueryGraph.generation`` and recompiles, so
  Level 2/3 runtime re-partitioning stays correct.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.analysis.sanitizer import ConcurrencySanitizer
    from repro.obs.registry import MetricsRegistry, OperatorMetrics

from repro.errors import SchedulingError
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph
from repro.operators.queue_op import QueueOperator
from repro.streams.elements import (
    Punctuation,
    StreamElement,
    is_data,
    is_end,
)
from repro.streams.sinks import Sink

__all__ = ["Dispatcher"]

# Node classification in a compiled plan entry.
_KIND_OPERATOR = 0
_KIND_QUEUE = 1
_KIND_SINK = 2

#: Fallback pop granularity for run_queue when no batch size is given.
_DEFAULT_POP_CHUNK = 64

# A plan entry: (kind, payload, out, out_reversed, fused) where out is a
# tuple of (consumer, port) pairs in edge-declaration order and fused is
# None or the compiled straight-line segment hanging off this node:
# ((stage_node, stage_port), ...) plus the out/out_reversed of the
# segment's last stage.
_PlanEntry = Tuple[int, object, tuple, tuple, Optional[tuple]]

#: A per-node lock: a plain ``threading.Lock`` or, under the sanitizer,
#: an instrumented :class:`repro.analysis.sanitizer.SanitizedLock`.
_NodeLock = ContextManager[object]


class Dispatcher:
    """Executes DI chain reactions and end-of-stream propagation.

    Args:
        graph: The query graph to execute.  Structural changes (queue
            insertion/removal) are picked up automatically: the compiled
            dispatch plan is keyed on the graph's structure generation
            and rebuilt lazily after any splice.
        locking: Serialize per-node operator access and counter updates;
            required whenever several threads may reach the same node
            (OTS, multi-source DI).
        sanitizer: Optional concurrency sanitizer
            (:class:`repro.analysis.sanitizer.ConcurrencySanitizer`).
            With ``locking=True`` the per-node locks become instrumented
            locks feeding the global lock-order graph; with
            ``locking=False`` every operator invocation is checked by
            the ownership/happens-before checker instead (a second
            thread touching a node's state without a node lock is a
            data race).  None (the default) constructs no wrappers and
            leaves the hot path untouched.
        observer: Optional :class:`repro.obs.registry.MetricsRegistry`;
            when given, every operator invocation updates that node's
            :class:`~repro.obs.registry.OperatorMetrics` (elements
            in/out, invocations, service time, batch size) inside the
            node's dispatch serialization.  None (the default) adds no
            timing or branches to the hot path and keeps the compiled
            dispatch plans byte-identical to an unobserved dispatcher.
    """

    def __init__(
        self,
        graph: QueryGraph,
        locking: bool = False,
        sanitizer: Optional["ConcurrencySanitizer"] = None,
        observer: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.graph = graph
        self.observer = observer
        # Per-node instruments are cached in a side dict so the plan
        # entries stay identical with and without observation.
        self._timed = observer is not None
        self._op_metrics: Dict[Node, "OperatorMetrics"] = {}
        #: Number of elements delivered to sinks so far.
        self.sink_deliveries: int = 0
        #: Number of elements processed by operator invocations so far
        #: (a batch invocation counts once per element it carries).
        self.invocations: int = 0
        # Per-node locks: operators are not thread-safe, and under OTS or
        # multi-source DI the same operator can be reached from several
        # threads at once (e.g. a join fed by two autonomous sources).
        #
        # The lock map is pre-populated for every graph node at plan
        # (re)compilation and treated as immutable afterwards: the rare
        # late additions (capture sinks that are not graph nodes) go
        # through a guarded copy-and-swap, so the unguarded fast-path
        # read in _lock_for never observes a dict under mutation.
        self._locking = locking
        self._sanitizer = sanitizer
        self._access_check: Optional[Callable[[object, str], None]] = (
            sanitizer.check_unlocked_access
            if (sanitizer is not None and not locking)
            else None
        )
        self._locks: Dict[Node, _NodeLock] = {}
        self._locks_guard = threading.Lock() if locking else None
        if locking:
            self._prime_locks()
        # Counter lock: without it, concurrent `+= 1` from several
        # worker threads loses increments and EngineReport.invocations
        # under-counts on multi-core runs.
        self._counter_lock = threading.Lock() if locking else None
        # Compiled dispatch plan: (generation, {node: entry}).  Swapped
        # wholesale when the graph structure changes; entries are built
        # lazily per node.  Structural changes only happen while engines
        # are paused (no in-flight dispatch), so readers never observe a
        # half-spliced graph through a stale plan.
        self._plan: Tuple[int, Dict[Node, _PlanEntry]] = (-1, {})

    # ------------------------------------------------------------------
    # Compiled dispatch plan
    # ------------------------------------------------------------------
    def _plan_for(self, node: Node) -> _PlanEntry:
        generation = self.graph.generation
        plan_generation, plan = self._plan
        if plan_generation != generation:
            plan = {}
            self._plan = (generation, plan)
            if self._locking:
                # Keep the lock map keyed on plan compilation: a queue
                # splice introduces new nodes, which get their locks here
                # instead of on first contention.
                self._prime_locks()
        entry = plan.get(node)
        if entry is None:
            entry = self._compile_node(node)
            plan[node] = entry
        return entry

    def _compile_node(self, node: Node) -> _PlanEntry:
        if node.is_sink:
            # Terminal: no out-edge resolution (capture sinks used by VO
            # views are not even part of the graph).
            return (_KIND_SINK, node.payload, (), (), None)
        kind = _KIND_QUEUE if node.is_queue else _KIND_OPERATOR
        out = tuple(
            (edge.consumer, edge.port) for edge in self.graph.out_edges(node)
        )
        fused = None
        if kind == _KIND_OPERATOR and not node.is_source:
            fused = self._compile_fused_tail(out)
        return (kind, node.payload, out, tuple(reversed(out)), fused)

    def _compile_fused_tail(self, out: tuple) -> Optional[tuple]:
        """Compile the straight-line VO segment hanging off a node.

        Starting from the node's fan-out ``out``, follow single-out
        edges through non-queue operator nodes; each becomes one fused
        stage ``(node, port)``.  The walk stops at queues (decoupling
        ends the VO), sinks, and fan-out points (several out-edges need
        the element-wise interleaving).  Returns None when nothing can
        be fused, else ``(stages, last_out, last_out_reversed)`` where
        ``last_out`` is the fan-out of the segment's final stage.
        """
        stages: List[Tuple[Node, int]] = []
        current_out = out
        while len(current_out) == 1:
            consumer, port = current_out[0]
            if not consumer.is_operator or consumer.is_queue:
                break
            stages.append((consumer, port))
            current_out = tuple(
                (edge.consumer, edge.port)
                for edge in self.graph.out_edges(consumer)
            )
        if not stages:
            return None
        return (tuple(stages), current_out, tuple(reversed(current_out)))

    def fused_chain(self, node: Node) -> Tuple[Node, ...]:
        """The nodes a batch entering ``node`` traverses without dispatch.

        Introspection helper (tests, docs): ``node`` followed by the
        stages of its compiled fused segment, if any.
        """
        entry = self._plan_for(node)
        fused = entry[4]
        if fused is None:
            return (node,)
        return (node,) + tuple(stage_node for stage_node, _ in fused[0])

    def plan_out(self, node: Node) -> tuple:
        """Compiled ``(consumer, port)`` fan-out of ``node``.

        Generation-cached: engines use this instead of re-resolving
        ``graph.out_edges`` on the per-batch hot path; queue splices
        invalidate it automatically.
        """
        return self._plan_for(node)[2]

    def invalidate_plan(self) -> None:
        """Drop the compiled plan so the next dispatch recompiles it.

        Plan entries cache node *payloads*; graph-structure changes are
        picked up automatically via the generation key, but payload
        replacement (the process backend's ring-queue swap and operator
        state migration) changes what a node executes without bumping
        the generation — callers doing that must invalidate explicitly.
        Only safe while no dispatch is in flight (engines do it under
        pause quiescence).
        """
        self._plan = (-1, {})

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def inject(self, node: Node, element: StreamElement, port: int = 0) -> None:
        """Deliver ``element`` to ``node``'s input ``port`` and run DI.

        The chain reaction stops at decoupling queues (the element is
        buffered) and at sinks (the element is consumed).
        """
        # Depth-first traversal with an explicit stack (query graphs can
        # be deep; DI must not be limited by Python's recursion limit).
        plan_for = self._plan_for
        stack: List[Tuple[Node, StreamElement, int]] = [(node, element, port)]
        while stack:
            current, item, in_port = stack.pop()
            kind, payload, _, out_reversed, _ = plan_for(current)
            if kind == _KIND_SINK:
                self._deliver_to_sink(current, payload, item)
                continue
            if kind == _KIND_QUEUE:
                payload.process(item, in_port)
                continue
            outputs = self._invoke(current, item, in_port)
            if outputs:
                for output in reversed(list(outputs)):
                    for consumer, out_port in out_reversed:
                        stack.append((consumer, output, out_port))

    def inject_batch(
        self, node: Node, elements: Sequence[StreamElement], port: int = 0
    ) -> None:
        """Deliver a micro-batch to ``node``'s input ``port`` and run DI.

        Produces exactly the outputs of injecting the elements one by
        one, but pays the dispatch cost (plan lookup, lock, operator
        call) once per batch per node instead of once per element.  At
        nodes with more than one out-edge the traversal falls back to
        the element-wise interleaving so downstream arrival order is
        bit-for-bit identical to the scalar path.
        """
        if not elements:
            return
        plan_for = self._plan_for
        stack: List[Tuple[Node, List[StreamElement], int]] = [
            (node, list(elements), port)
        ]
        while stack:
            current, items, in_port = stack.pop()
            kind, payload, out, out_reversed, fused = plan_for(current)
            if kind == _KIND_SINK:
                self._deliver_batch_to_sink(current, payload, items)
                continue
            if kind == _KIND_QUEUE:
                payload.process_batch(items, in_port)
                continue
            outputs = self._invoke_batch(current, items, in_port)
            if fused is not None and outputs:
                # Fused VO segment: the batch runs straight through the
                # compiled stages — one operator call per stage, no stack
                # traffic or plan lookups — then fans out from the last
                # stage exactly as the unfused traversal would.
                stages, out, out_reversed = fused
                invoke_batch = self._invoke_batch
                for stage_node, stage_port in stages:
                    outputs = invoke_batch(stage_node, outputs, stage_port)
                    if not outputs:
                        break
            if not outputs:
                continue
            if len(out) == 1:
                consumer, out_port = out[0]
                stack.append((consumer, outputs, out_port))
            else:
                # Fan-out: interleave per element (reversed twice so the
                # LIFO stack replays production order and edge order).
                for output in reversed(outputs):
                    for consumer, out_port in out_reversed:
                        stack.append((consumer, [output], out_port))

    def inject_end(self, node: Node, port: int = 0) -> None:
        """Signal END_OF_STREAM on ``node``'s input ``port`` via DI.

        Flush output (if the node closes) is delivered first, then the
        end signal propagates to the node's successors.
        """
        stack: List[Tuple[Node, Punctuation | None, int]] = [(node, None, port)]
        while stack:
            current, _, in_port = stack.pop()
            if current.is_sink:
                sink = current.payload
                assert isinstance(sink, Sink)
                with self._lock_for(current):
                    if not sink.ended:
                        sink.on_end()
                continue
            operator = current.operator
            if isinstance(operator, QueueOperator):
                # END travels through the buffer behind the data.
                operator.end_port(in_port)
                continue
            with self._lock_for(current):
                flush = operator.end_port(in_port)
            if flush:
                data_stack: List[Tuple[Node, StreamElement, int]] = []
                self._fan_out(current, flush, data_stack)
                while data_stack:
                    nxt, item, nxt_port = data_stack.pop()
                    self.inject(nxt, item, nxt_port)
            if operator.closed:
                for edge in self.graph.out_edges(current):
                    stack.append((edge.consumer, None, edge.port))

    # ------------------------------------------------------------------
    # Queue consumption (used by schedulers)
    # ------------------------------------------------------------------
    def run_queue(
        self,
        queue_node: Node,
        max_items: int | None = None,
        batch_size: int | None = None,
    ) -> int:
        """Pop up to ``max_items`` buffered items and run DI downstream.

        Returns the number of *data* elements processed.  An
        END_OF_STREAM marker popped from the buffer is forwarded as an
        end signal to the queue's consumer — mid-batch, any data popped
        before the marker is dispatched first, exactly as on the scalar
        path.

        Args:
            queue_node: The decoupling queue to drain.
            max_items: Cap on processed data elements (None = drain).
            batch_size: When > 1, transfer items out of the queue in
                bulk (one lock per batch) and dispatch them downstream
                via :meth:`inject_batch`.  None or 1 keeps the classic
                element-wise pop/inject loop.
        """
        queue_op = queue_node.payload
        if not isinstance(queue_op, QueueOperator):
            raise SchedulingError(f"{queue_node.name!r} is not a queue node")
        if batch_size is not None and batch_size > 1:
            return self._run_queue_batched(
                queue_node, queue_op, max_items, batch_size
            )
        _, _, out, _, _ = self._plan_for(queue_node)
        processed = 0
        remaining = max_items if max_items is not None else float("inf")
        while remaining > 0:
            item = queue_op.try_pop()
            if item is None:
                break
            if is_data(item):
                assert isinstance(item, StreamElement)
                for consumer, out_port in out:
                    self.inject(consumer, item, out_port)
                processed += 1
                remaining -= 1
            elif is_end(item):
                for consumer, out_port in out:
                    self.inject_end(consumer, out_port)
            # NO_ELEMENT markers are meaningful only to pull-based
            # proxies; a push scheduler simply skips them.
        return processed

    def _run_queue_batched(
        self,
        queue_node: Node,
        queue_op: QueueOperator,
        max_items: int | None,
        batch_size: int,
    ) -> int:
        _, _, out, _, _ = self._plan_for(queue_node)
        single = out[0] if len(out) == 1 else None
        processed = 0
        remaining = max_items
        while remaining is None or remaining > 0:
            limit = batch_size if remaining is None else min(batch_size, remaining)
            items = queue_op.pop_many(limit)
            if not items:
                break
            run: List[StreamElement] = []
            for item in items:
                if isinstance(item, StreamElement):
                    run.append(item)
                elif is_end(item):
                    if run:
                        processed += self._dispatch_run(out, single, run)
                        run = []
                    for consumer, out_port in out:
                        self.inject_end(consumer, out_port)
                # NO_ELEMENT markers are simply skipped.
            if run:
                processed += self._dispatch_run(out, single, run)
            if remaining is not None:
                # Only data counts toward the cap; punctuations are free.
                remaining = max_items - processed
        return processed

    def _dispatch_run(
        self,
        out: tuple,
        single: tuple | None,
        run: List[StreamElement],
    ) -> int:
        if single is not None:
            consumer, out_port = single
            self.inject_batch(consumer, run, out_port)
        else:
            # Multiple consumers: keep the scalar per-element edge
            # interleaving (see inject_batch fan-out note).
            for item in run:
                for consumer, out_port in out:
                    self.inject(consumer, item, out_port)
        return len(run)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_lock(self, node: Node) -> _NodeLock:
        if self._sanitizer is not None:
            return self._sanitizer.make_lock(f"node:{node.name}")
        return threading.Lock()

    def _prime_locks(self) -> None:
        """Publish a lock map covering every current graph node.

        Runs at construction and at every plan recompilation.  The map
        is replaced wholesale (copy-and-swap under the guard), never
        mutated in place, so concurrent readers always see a complete,
        stable dict.
        """
        assert self._locks_guard is not None
        with self._locks_guard:
            locks = dict(self._locks)
            for node in self.graph.nodes:
                if node not in locks:
                    locks[node] = self._new_lock(node)
            self._locks = locks

    def _lock_for(self, node: Node) -> ContextManager[object]:
        if not self._locking:
            return nullcontext()
        # Fast path: an unguarded read of a dict that is only ever
        # replaced (copy-and-swap), never mutated in place — pre-
        # populated at plan compilation for all graph nodes.
        lock = self._locks.get(node)
        if lock is None:
            lock = self._add_lock(node)
        return lock

    def _add_lock(self, node: Node) -> _NodeLock:
        """Slow path for nodes outside the graph (e.g. capture sinks)."""
        assert self._locks_guard is not None
        with self._locks_guard:
            lock = self._locks.get(node)
            if lock is None:
                lock = self._new_lock(node)
                locks = dict(self._locks)
                locks[node] = lock
                self._locks = locks
        return lock

    def _count_invocations(self, n: int) -> None:
        lock = self._counter_lock
        if lock is None:
            self.invocations += n
        else:
            with lock:
                self.invocations += n

    def _count_sink_deliveries(self, n: int) -> None:
        lock = self._counter_lock
        if lock is None:
            self.sink_deliveries += n
        else:
            with lock:
                self.sink_deliveries += n

    def _metrics_for(self, node: Node) -> "OperatorMetrics":
        metrics = self._op_metrics.get(node)
        if metrics is None:
            assert self.observer is not None
            metrics = self.observer.operator(node.name)
            self._op_metrics[node] = metrics
        return metrics

    def _invoke(
        self, node: Node, element: StreamElement, port: int
    ) -> List[StreamElement]:
        self._count_invocations(1)
        if self._access_check is not None:
            # locking=False under the sanitizer: no node lock serializes
            # this operator, so a second thread here is a data race.
            self._access_check(node, node.name)
        if not self._timed:
            with self._lock_for(node):
                return node.operator.process(element, port)
        with self._lock_for(node):
            started = time.perf_counter_ns()
            outputs = node.operator.process(element, port)
            elapsed = time.perf_counter_ns() - started
            # Inside the node lock: the lock (or, with locking=False, the
            # single thread owning this node) serializes writers per
            # instrument, keeping updates lock-free.
            metrics = self._op_metrics.get(node) or self._metrics_for(node)
            metrics.observe(
                1, len(outputs), elapsed, element.timestamp, element.timestamp
            )
        return outputs

    def _invoke_batch(
        self, node: Node, elements: List[StreamElement], port: int
    ) -> List[StreamElement]:
        self._count_invocations(len(elements))
        if self._access_check is not None:
            self._access_check(node, node.name)
        if not self._timed:
            with self._lock_for(node):
                return node.operator.process_batch(elements, port)
        n_in = len(elements)
        first_ts = elements[0].timestamp
        last_ts = elements[-1].timestamp
        with self._lock_for(node):
            started = time.perf_counter_ns()
            outputs = node.operator.process_batch(elements, port)
            elapsed = time.perf_counter_ns() - started
            metrics = self._op_metrics.get(node) or self._metrics_for(node)
            metrics.observe(n_in, len(outputs), elapsed, first_ts, last_ts)
        return outputs

    def _fan_out(
        self,
        node: Node,
        outputs: Iterable[StreamElement],
        stack: List[Tuple[Node, StreamElement, int]],
    ) -> None:
        edges = self.graph.out_edges(node)
        # Both loops run reversed so that the stack (last-in first-out)
        # pops elements in production order and edges in declaration
        # order.
        for output in reversed(list(outputs)):
            for edge in reversed(edges):
                stack.append((edge.consumer, output, edge.port))

    def _deliver_to_sink(
        self, node: Node, sink: object, element: StreamElement
    ) -> None:
        assert isinstance(sink, Sink)
        with self._lock_for(node):
            sink.receive(element)
        self._count_sink_deliveries(1)

    def _deliver_batch_to_sink(
        self, node: Node, sink: object, elements: List[StreamElement]
    ) -> None:
        assert isinstance(sink, Sink)
        with self._lock_for(node):
            receive = sink.receive
            for element in elements:
                receive(element)
        self._count_sink_deliveries(len(elements))
