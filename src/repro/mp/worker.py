"""Worker-process main loops for the process backend.

Each worker is forked by :class:`repro.mp.process_engine.ProcessEngine`
with a context object built in the parent:

* a **source worker** drives one autonomous source: it replays the
  source's schedule (optionally paced) and injects micro-batches into
  the forked graph copy; the DI chain reaction ends at the ring-backed
  decoupling queues (:class:`repro.mp.queues.RingQueue`), whose
  producer side serializes whole batches into shared memory.
* a **partition worker** is one level-2 unit: it drains the rings of
  the queues it owns, brackets each grant with the parent-served permit
  pipe when ``max_concurrency`` is set, and answers the control plane
  (pause/resume/assign/set_priority/stop — see :mod:`repro.mp.control`).

Both run the shared loops of :mod:`repro.core.loops` with process
hooks: control and idle waits block on the command pipe, the permit is
an ``acq``/``rel`` round trip, and spilled ring envelopes are retried
before every injection and every ready scan.

Because workers are *forked*, the child inherits the parent's graph,
ring mappings, and pipe ends by copy-on-write — no graph pickling, and
operator closures work unchanged.  Cross-process state then flows only
through three explicit channels: ring envelopes (data), the command
pipe (control + migrated operator state), and the permit pipe
(level-3 scheduling).
"""

from __future__ import annotations

import pickle
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.dataflow import Dispatcher
from repro.core.loops import run_source, run_unit
from repro.core.partition import di_region
from repro.core.strategies import SchedulingStrategy, make_strategy
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph
from repro.mp.control import Assignment, sink_state
from repro.mp.queues import RingQueue

__all__ = [
    "SourceContext",
    "PartitionContext",
    "source_worker_main",
    "partition_worker_main",
]

_POLL_SECONDS = 0.002
#: Control-pipe wait while paused, and the longest paced-sleep slice.
_PAUSE_POLL_SECONDS = _POLL_SECONDS * 5


@dataclass
class SourceContext:
    """Everything a source worker needs (inherited via fork)."""

    graph: QueryGraph
    node: Node
    conn: Any  # multiprocessing.Connection (child end)
    name: str
    pace: bool = False
    time_scale: float = 1.0
    batch_size: Optional[int] = None
    observe: bool = False


@dataclass
class PartitionContext:
    """Everything a partition worker needs (inherited via fork)."""

    graph: QueryGraph
    queue_nodes: List[Node]
    strategy: SchedulingStrategy
    priority: float
    conn: Any  # multiprocessing.Connection (child end)
    name: str
    batch_limit: Optional[int] = None
    batch_size: Optional[int] = None
    permit_conn: Any = None  # permit pipe child end, when bounded
    initial_assignment: Optional[Assignment] = None
    observe: bool = False
    # Parent-end pipe objects of *other* workers leak into forked
    # children; the engine nulls what it can before forking, the rest
    # is harmless (children never touch them).


def _send(conn: Any, message: tuple) -> None:
    """Best-effort send: a vanished parent must not crash the worker."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass


def source_worker_main(ctx: SourceContext) -> None:
    """Process entry point for one autonomous source."""
    try:
        _SourceWorker(ctx).run()
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        _send(ctx.conn, ("error", traceback.format_exc()))
        sys.exit(1)


def partition_worker_main(ctx: PartitionContext) -> None:
    """Process entry point for one level-2 partition."""
    try:
        _PartitionWorker(ctx).run()
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        _send(ctx.conn, ("error", traceback.format_exc()))
        sys.exit(1)


class _WorkerBase:
    """Shared control-plane handling for both worker kinds."""

    def __init__(
        self, graph: QueryGraph, conn: Any, name: str, kind: str, observe: bool
    ) -> None:
        self.graph = graph
        self.conn = conn
        self.name = name
        self.kind = kind  # "source" | "partition"
        #: Per-worker metrics registry when observing; each worker counts
        #: only what *it* processed, so the parent's merged view sums to
        #: the run totals (see repro.obs.registry.merge_snapshots).
        self.metrics = None
        if observe:
            from repro.obs import MetricsRegistry

            self.metrics = MetricsRegistry()
        # Single-threaded inside the worker: no dispatcher locking.
        self.dispatcher = Dispatcher(graph, locking=False, observer=self.metrics)
        self.paused = False
        self.stopping = False
        self.retired = False  # partition workers only
        self.priority = 0.0
        #: Owned queues (partition workers; reassignable).
        self.queue_nodes: List[Node] = []
        # Downstream rings this worker produces into, and the sinks its
        # DI regions reach (their deliveries ship to the parent).
        self._boundary_rings: List[RingQueue] = []
        self._sinks: Set[Node] = set()
        # Per owned queue, cumulative across reassignments (a queue may
        # move away before the final stats are reported).
        self._peak_acc: Dict[str, int] = {}
        self._ends_acc: Dict[str, bool] = {}

    # -- control ---------------------------------------------------------
    def handle_control(self, wait_seconds: float = 0.0) -> None:
        """Drain pending commands; optionally block up to ``wait_seconds``.

        Blocking on the command pipe doubles as the idle sleep, so a
        control message wakes the worker immediately.
        """
        timeout = wait_seconds
        while True:
            try:
                if not self.conn.poll(timeout):
                    return
                message = self.conn.recv()
            except (EOFError, OSError):
                # Parent is gone; exit instead of spinning forever.
                self.stopping = True
                return
            timeout = 0.0
            kind = message[0]
            if kind == "pause":
                self.on_pause(bool(message[1]))
            elif kind == "resume":
                self.paused = False
            elif kind == "set_priority":
                self.priority = float(message[1])
            elif kind == "assign":
                self.on_assign(message[1])
            elif kind == "metrics":
                _send(self.conn, ("metrics", self.metrics_snapshot()))
            elif kind == "stop":
                self.stopping = True

    def on_pause(self, collect_state: bool) -> None:
        self.paused = True
        _send(self.conn, ("paused", self.snapshot() if collect_state else None))

    def on_assign(self, assignment: Assignment) -> None:  # pragma: no cover
        raise NotImplementedError  # partition workers only

    def snapshot(self) -> Optional[dict]:
        return None

    def metrics_snapshot(self) -> Optional[dict]:
        """This worker's registry snapshot (None when not observing).

        Called between grants (the control plane is only drained at
        batch boundaries), so within this single-threaded worker the
        snapshot is exact, not torn.
        """
        if self.metrics is None:
            return None
        self._sync_queue_metrics()
        return self.metrics.snapshot()

    def _sync_queue_metrics(self) -> None:
        assert self.metrics is not None
        # Owned queues: this worker is their consumer, so the full
        # stats_view (depth/high-water/pushed) is safe to read.
        owned = set()
        for queue_node in self.queue_nodes:
            ring_queue = queue_node.payload
            assert isinstance(ring_queue, RingQueue)
            owned.add(ring_queue)
            depth, high_water, pushed = ring_queue.stats_view()
            self.metrics.queue(queue_node.name).sync(depth, high_water, pushed)
        # Downstream boundary rings this worker produces into but does
        # not own: contribute only the producer-side pushed counter —
        # the consumer-side _sync() would steal envelopes that belong
        # to the owning partition.
        for ring_queue in self._boundary_rings:
            if ring_queue not in owned:
                self.metrics.queue(ring_queue.name).sync(
                    0, 0, ring_queue.total_enqueued
                )

    def _stats(self) -> Dict[str, Any]:
        return {
            "worker": self.name,
            "kind": self.kind,
            "invocations": self.dispatcher.invocations,
            "sink_states": {n.name: sink_state(n.payload) for n in self._sinks},
            "queue_peaks": dict(self._peak_acc),
            "ends_seen": dict(self._ends_acc),
            "aborted": self.stopping,
            "metrics": self.metrics_snapshot(),
        }

    def exiting(self) -> bool:
        return self.stopping or self.retired

    def halted(self) -> bool:
        """Loop control hook: drain commands, block while paused.

        True when the worker must exit (stopped, or retired by a
        reassignment).
        """
        self.handle_control()
        while self.paused and not self.exiting():
            self.handle_control(_PAUSE_POLL_SECONDS)
        return self.exiting()

    def _flush_spills(self) -> bool:
        """Retry spilled envelopes on every boundary ring; True when none remain."""
        flushed = True
        for ring_queue in self._boundary_rings:
            if not ring_queue.flush_pending():
                flushed = False
        return flushed


class _SourceWorker(_WorkerBase):
    def __init__(self, ctx: SourceContext) -> None:
        super().__init__(ctx.graph, ctx.conn, ctx.name, "source", ctx.observe)
        self.ctx = ctx
        self.node = ctx.node
        members, boundary = di_region(self.graph, self.node)
        self._sinks.update(n for n in members if n.is_sink)
        for queue_node in boundary:
            payload = queue_node.payload
            assert isinstance(payload, RingQueue)
            self._boundary_rings.append(payload)

    def run(self) -> None:
        _send(self.conn, ("ready",))
        run_source(
            self.dispatcher,
            self.node,
            pace=self.ctx.pace,
            time_scale=self.ctx.time_scale,
            batch_size=self.ctx.batch_size,
            poll_s=_PAUSE_POLL_SECONDS,
            halted=self.halted,
            bracket=nullcontext(),
            flush=self._flush_spills,
        )
        # END markers (and any spilled batches) must reach the rings
        # before we exit, else downstream partitions wait forever.
        while not self._flush_spills() and not self.stopping:
            self.handle_control(_POLL_SECONDS)
        _send(self.conn, ("done", self._stats()))


class _PartitionWorker(_WorkerBase):
    def __init__(self, ctx: PartitionContext) -> None:
        super().__init__(ctx.graph, ctx.conn, ctx.name, "partition", ctx.observe)
        self.ctx = ctx
        self.queue_nodes = list(ctx.queue_nodes)
        self.strategy = ctx.strategy
        self.priority = ctx.priority
        self.permit = ctx.permit_conn
        self.queues_by_name = {n.name: n for n in self.graph.queues()}
        self.nodes_by_name = {n.name: n for n in self.graph.nodes}
        if ctx.initial_assignment is not None:
            self.on_assign(ctx.initial_assignment)
        self._prepare()

    # -- assignment ------------------------------------------------------
    def _prepare(self) -> None:
        if self.queue_nodes:
            self.strategy.prepare(self.graph, self.queue_nodes)
        boundary_ops: List[RingQueue] = []
        for queue_node in self.queue_nodes:
            members, boundary = di_region(self.graph, queue_node)
            self._sinks.update(n for n in members if n.is_sink)
            for b in boundary:
                payload = b.payload
                assert isinstance(payload, RingQueue)
                if payload not in boundary_ops:
                    boundary_ops.append(payload)
        self._boundary_rings = boundary_ops

    def on_assign(self, assignment: Assignment) -> None:
        self._record_owned()
        self.queue_nodes = [
            self.queues_by_name[name] for name in assignment.queue_names
        ]
        self.priority = assignment.priority
        if not self.queue_nodes:
            self.retired = True
            return
        self.strategy = make_strategy(assignment.strategy_name)
        for node_name, blob in assignment.states.items():
            node = self.nodes_by_name[node_name]
            node.payload = pickle.loads(blob)
        for queue_name, (items, end_popped) in assignment.staging.items():
            ring_queue = self.queues_by_name[queue_name].payload
            assert isinstance(ring_queue, RingQueue)
            ring_queue.import_staging(items, end_popped)
        # Plan entries cache payloads; migrated state must be re-read.
        self.dispatcher.invalidate_plan()
        self._prepare()
        # This worker now produces into these rings: the previous
        # producer's spill goes out before anything pushed from here.
        for queue_name, batches in assignment.spills.items():
            ring_queue = self.queues_by_name[queue_name].payload
            assert isinstance(ring_queue, RingQueue)
            ring_queue.import_spill(batches)

    def snapshot(self) -> dict:
        """Reconfigure snapshot: operator states, staged elements, spills."""
        self._record_owned()
        states: Dict[str, bytes] = {}
        for queue_node in self.queue_nodes:
            members, _ = di_region(self.graph, queue_node)
            for node in members:
                if node.is_sink:
                    continue
                states[node.name] = pickle.dumps(
                    node.payload, pickle.HIGHEST_PROTOCOL
                )
        staging: Dict[str, Tuple[list, bool]] = {}
        for queue_node in self.queue_nodes:
            ring_queue = queue_node.payload
            assert isinstance(ring_queue, RingQueue)
            staging[queue_node.name] = ring_queue.export_staging()
        spills: Dict[str, list] = {}
        for ring_queue in self._boundary_rings:
            batches = ring_queue.export_spill()
            if batches:
                spills[ring_queue.name] = batches
        return {"states": states, "staging": staging, "spills": spills}

    def _record_owned(self) -> None:
        for queue_node in self.queue_nodes:
            op = queue_node.payload
            assert isinstance(op, RingQueue)
            previous = self._peak_acc.get(queue_node.name, 0)
            self._peak_acc[queue_node.name] = max(previous, op.peak_size)
            self._ends_acc[queue_node.name] = (
                self._ends_acc.get(queue_node.name, False) or op.closed
            )

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        _send(self.conn, ("ready",))
        bounded = self.permit is not None
        run_unit(
            self.dispatcher,
            self,
            batch_limit=self.ctx.batch_limit,
            batch_size=self.ctx.batch_size,
            poll_s=_POLL_SECONDS,
            halted=self.halted,
            retired=self.exiting,
            idle=self.handle_control,
            bracket=nullcontext(),
            acquire=self._acquire_permit if bounded else None,
            release=self._release_permit if bounded else None,
            flush=self._flush_spills,
            metrics=(
                self.metrics.partition(self.name) if self.metrics is not None else None
            ),
        )
        self._record_owned()
        _send(self.conn, ("done", self._stats()))

    def _acquire_permit(self) -> bool:
        """One ``acq``/``ok`` round with the parent's permit server."""
        try:
            self.permit.send("acq")
            reply = self.permit.recv()
        except (EOFError, OSError):
            self.stopping = True
            return False
        return reply == "ok"

    def _release_permit(self) -> None:
        _send(self.permit, "rel")
