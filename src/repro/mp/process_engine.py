"""The process-backed execution engine (multicore backend).

Mirrors :class:`repro.core.engine.ThreadedEngine`'s surface — run /
start / join / abort / pause / resume / reconfigure / set_priority —
but executes every level-2 partition and every source in its own
**worker process**, so CPU-heavy partitions actually run in parallel
instead of time-slicing under the GIL.

Architecture (see docs/multicore.md):

* Every decoupling queue's :class:`~repro.operators.queue_op.QueueOperator`
  payload is replaced, before forking, by a
  :class:`~repro.mp.queues.RingQueue` over a shared-memory SPSC ring
  (:class:`~repro.mp.ring.ShmRing`).  Workers inherit the mappings via
  fork; one ring envelope carries one micro-batch (int64/float64
  columns for plain numeric elements, pickled otherwise), so a single
  IPC crossing moves a whole ``push_many`` batch.
* A duplex command pipe per worker carries the control plane
  (:mod:`repro.mp.control`): pause/resume with quiescence acks,
  runtime priority updates, reconfiguration with operator-state,
  staging and spill migration (the OTS/GTS/HMTS mode switching of
  paper Section 4.2.2, across address spaces), and stop.
* When ``max_concurrency`` is set, the parent runs the level-3
  :class:`~repro.core.thread_scheduler.ThreadScheduler` and serves each
  partition worker's permit pipe from a dedicated thread, so priorities
  and aging arbitrate across processes exactly as across threads.
* A monitor ("pump") thread multiplexes every worker's messages and
  process sentinel: a worker that dies without reporting is detected
  within the poll interval, the run is aborted, and the failure is
  surfaced as a :class:`~repro.errors.SchedulingError` (or as
  ``EngineReport.failure``) instead of a hang.  Ring segments are
  always unlinked in ``close()`` — no orphaned shared memory, even
  after a crash.

Restrictions (validated at construction): queues must be point-to-point
(AN006 shape), node names must be unique (they key cross-process state
migration), the DI regions of entries in different processes must be
disjoint (an operator's state cannot live in two address spaces), and
the statistics registry is unsupported (measure on the thread backend).
The concurrency sanitizer is a no-op here: every worker is
single-threaded, and the thread backend exercises the shared
scheduling logic under sanitization.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing import connection
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.obs.sampler import PeriodicSampler
    from repro.obs.tracer import EventTracer

from repro.core.engine import (
    EngineReport,
    check_queue_cover,
    entry_owners,
    finish_run,
    sink_counts,
)
from repro.core.modes import EngineConfig, PartitionSpec
from repro.core.partition import di_region
from repro.core.strategies import _STRATEGY_FACTORIES  # type: ignore[attr-defined]
from repro.core.thread_scheduler import ThreadScheduler
from repro.errors import EngineStateError, SchedulingError
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph
from repro.mp.control import Assignment, merge_sink_state
from repro.mp.queues import RingQueue
from repro.mp.ring import ShmRing, unlink_by_name
from repro.mp.worker import (
    PartitionContext,
    SourceContext,
    partition_worker_main,
    source_worker_main,
)

__all__ = ["ProcessEngine"]

_POLL_SECONDS = 0.02
#: How long reconfigure waits for the pump to read an exited worker's
#: last message.
_DONE_WAIT_SECONDS = 5.0


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, name: str, kind: str, process, conn, permit_conn=None):
        self.name = name
        self.kind = kind  # "source" | "partition"
        self.process = process
        self.conn = conn
        self.permit_conn = permit_conn  # parent end of the permit pipe
        self.ready = threading.Event()
        self.paused = threading.Event()
        self.pause_payload: Optional[dict] = None
        self.done = threading.Event()
        self.stats: Optional[dict] = None
        self.error: Optional[str] = None
        self.conn_closed = False

    @property
    def terminal(self) -> bool:
        """True once the worker takes no further commands.

        Its last messages may still be unread: only ``done`` (set by the
        pump for a "done" or "error" message, or a crash) says they are in.
        """
        return self.done.is_set() or self.process.exitcode is not None

    def send(self, message: tuple) -> bool:
        """Best-effort command send; False when the worker is gone."""
        if self.conn_closed or self.terminal:
            return False
        try:
            self.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            # The worker exited; what it sent first stays readable, so
            # the pump still drains the connection.
            return False


class ProcessEngine:
    """Executes a query graph with one worker process per unit.

    Args:
        graph: A validated query graph; its queue payloads are replaced
            in place by ring-backed queues (the graph is consumed by
            this engine and cannot be reused on the thread backend).
        config: Partition layout and level-3 parameters, with
            ``backend="process"`` semantics (``ring_capacity`` sizes the
            per-queue shared-memory rings).
    """

    def __init__(self, graph: QueryGraph, config: EngineConfig) -> None:
        graph.validate()
        check_queue_cover(graph, config.partitions, "no partition owns queue(s): ")
        _validate_process_layout(graph, config.partitions)
        self.graph = graph
        self.config = config
        self._mp = multiprocessing.get_context("fork")
        self._handles: List[_WorkerHandle] = []
        self._handles_lock = threading.RLock()
        self._rings: List[ShmRing] = []
        self._ring_names: List[str] = []
        self._done_stats: List[dict] = []
        self.errors: List[tuple[str, str]] = []
        self._started = False
        self._closing = False
        self._closed = False
        self._aborted = False
        self._merged = False
        self._start_wall_ns = 0
        self._wall_ns = 0
        self._partitions: List[PartitionSpec] = list(config.partitions)
        self._reconfig_lock = threading.RLock()
        self._pump_thread: Optional[threading.Thread] = None
        self._permit_threads: List[threading.Thread] = []
        #: Parent-side observability: the parent's own registry holds
        #: the level-3 scheduler instruments (the TS runs here); worker
        #: registries arrive as snapshots over the control plane and are
        #: merged into one view at report time.
        self.metrics: Optional["MetricsRegistry"] = None
        self.tracer: Optional["EventTracer"] = None
        self._obs_sampler: Optional["PeriodicSampler"] = None
        self._worker_metrics: Dict[str, dict] = {}
        #: ``(wall_ns, total_queued)`` series written by the sampler.
        self._memory_samples: List[tuple[int, int]] = []
        if config.observe:
            from repro.obs import EventTracer, MetricsRegistry

            self.metrics = MetricsRegistry()
            self.tracer = EventTracer(capacity=config.trace_capacity)
        self.thread_scheduler: Optional[ThreadScheduler] = None
        if config.max_concurrency is not None:
            self.thread_scheduler = ThreadScheduler(
                max_concurrency=config.max_concurrency,
                aging_ns=config.aging_ns,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        # Swap every queue payload for a ring-backed proxy *before* any
        # fork, so all workers inherit the same transport objects.
        for node in graph.queues():
            ring = ShmRing.create(config.ring_capacity)
            self._rings.append(ring)
            self._ring_names.append(ring.name)
            node.payload = RingQueue(ring, name=node.name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(
        self,
        timeout: float | None = None,
        raise_on_failure: bool = True,
    ) -> EngineReport:
        """Execute the graph to completion (blocking).

        Raises:
            SchedulingError: when a worker crashed or reported an error
                (unless ``raise_on_failure`` is False, in which case the
                report's ``failure`` field carries the diagnosis).
        """
        self.start()
        try:
            finished = self.join(timeout)
            if not finished:
                self.abort()
                if not self.join(10.0):
                    self._terminate_stragglers()
                    self.join(5.0)
        finally:
            self.close()
        # The report is always built — even on failure — so the raised
        # exception carries the partial results on `.report`.
        report = self._report(aborted=not finished)
        failure = SchedulingError(report.failure) if report.failure else None
        return finish_run(report, failure, raise_on_failure)

    def start(self) -> None:
        """Fork source and partition workers without blocking."""
        with self._reconfig_lock:
            if self._started:
                raise EngineStateError("engine already started")
            self._started = True
            self._start_wall_ns = time.monotonic_ns()
            for spec in self._partitions:
                if self.thread_scheduler is not None:
                    self.thread_scheduler.register(spec.name, spec.priority)
                self._start_partition_worker(spec)
            for node in self.graph.sources():
                self._start_source_worker(node)
            self._pump_thread = threading.Thread(
                target=self._pump, name="mp-engine-pump", daemon=True
            )
            self._pump_thread.start()
            if self.metrics is not None:
                from repro.obs import PeriodicSampler

                self._obs_sampler = PeriodicSampler(
                    self._poll_worker_metrics
                ).start()

    def join(self, timeout: float | None = None) -> bool:
        """Wait until the pump has read every worker's last message.

        A worker's exit alone is not enough: its "done" stats (sink
        deliveries, invocations) or its "error" may still sit unread in
        the pipe, and ``close()`` stops the pump.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._handles_lock:
                handles = list(self._handles)
            if all(h.done.is_set() for h in handles):
                self._wall_ns = time.monotonic_ns() - self._start_wall_ns
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_SECONDS)

    def abort(self) -> None:
        """Ask every worker to exit at the next safe point."""
        self._aborted = True
        with self._handles_lock:
            for handle in self._handles:
                handle.send(("stop",))

    def close(self) -> None:
        """Tear down threads, pipes, and shared memory (idempotent).

        Always unlinks every ring segment, including after worker
        crashes — no orphaned shared memory survives the engine.
        """
        if self._closed:
            return
        self._closing = True
        if self._obs_sampler is not None:
            # No final poll: the exact per-worker snapshots arrive with
            # each worker's "done" stats.
            self._obs_sampler.stop(final_sample=False)
        if self.thread_scheduler is not None:
            self.thread_scheduler.stop()
        self._terminate_stragglers()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=5.0)
        for thread in self._permit_threads:
            thread.join(timeout=5.0)
        with self._handles_lock:
            for handle in self._handles:
                for conn in (handle.conn, handle.permit_conn):
                    if conn is not None:
                        try:
                            conn.close()
                        except OSError:
                            pass
        for ring in self._rings:
            try:
                ring.close()
            except (OSError, BufferError):
                pass
            ring.unlink()
        for name in self._ring_names:
            unlink_by_name(name)  # idempotent backstop
        self._merge_sink_states()
        self._closed = True

    def _merge_sink_states(self) -> None:
        """Fold worker-side sink deliveries into the parent's sinks (once)."""
        if self._merged:
            return
        self._merged = True
        sinks_by_name = {node.name: node.payload for node in self.graph.sinks()}
        for stats in self._done_stats:
            for sink_name, state in stats.get("sink_states", {}).items():
                sink = sinks_by_name.get(sink_name)
                if sink is not None:
                    merge_sink_state(sink, state)

    def _terminate_stragglers(self) -> None:
        with self._handles_lock:
            handles = list(self._handles)
        for handle in handles:
            if handle.process.exitcode is None:
                handle.process.terminate()
        for handle in handles:
            if handle.process.exitcode is None:
                handle.process.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Worker spawning
    # ------------------------------------------------------------------
    def _start_partition_worker(
        self, spec: PartitionSpec, initial_assignment: Assignment | None = None
    ) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        permit_parent = permit_child = None
        if self.thread_scheduler is not None:
            permit_parent, permit_child = self._mp.Pipe(duplex=True)
        ctx = PartitionContext(
            graph=self.graph,
            queue_nodes=list(spec.queue_nodes) if initial_assignment is None else [],
            strategy=spec.strategy,
            priority=spec.priority,
            conn=child_conn,
            name=spec.name,
            batch_limit=self.config.batch_limit,
            batch_size=self.config.batch_size,
            permit_conn=permit_child,
            initial_assignment=initial_assignment,
            observe=self.config.observe,
        )
        process = self._mp.Process(
            target=partition_worker_main,
            args=(ctx,),
            name=f"partition:{spec.name}",
            daemon=True,
        )
        handle = self._fork(
            _WorkerHandle(spec.name, "partition", process, parent_conn, permit_parent),
            child_conn,
            permit_child,
        )
        if permit_parent is not None:
            thread = threading.Thread(
                target=self._serve_permits,
                args=(handle,),
                name=f"permits:{spec.name}",
                daemon=True,
            )
            self._permit_threads.append(thread)
            thread.start()
        return handle

    def _fork(self, handle: _WorkerHandle, *child_ends) -> _WorkerHandle:
        """List ``handle`` and fork its process in one step.

        The pump reads every listed handle's process sentinel, which an
        unstarted process does not have yet; join() must already count
        the new worker as live, so it is listed before the fork.  The
        child's pipe ends are closed here once inherited.
        """
        with self._handles_lock:
            self._handles.append(handle)
            handle.process.start()
        for conn in child_ends:
            if conn is not None:
                conn.close()
        return handle

    def _start_source_worker(self, node: Node) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        ctx = SourceContext(
            graph=self.graph,
            node=node,
            conn=child_conn,
            name=f"source:{node.name}",
            pace=self.config.pace_sources,
            time_scale=self.config.time_scale,
            batch_size=self.config.batch_size,
            observe=self.config.observe,
        )
        process = self._mp.Process(
            target=source_worker_main,
            args=(ctx,),
            name=f"source:{node.name}",
            daemon=True,
        )
        return self._fork(
            _WorkerHandle(ctx.name, "source", process, parent_conn), child_conn
        )

    # ------------------------------------------------------------------
    # Message pump and crash detection
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while not self._closing:
            exited: List[_WorkerHandle] = []
            with self._handles_lock:
                watch: Dict[Any, _WorkerHandle] = {}
                for handle in self._handles:
                    if handle.done.is_set():
                        continue
                    if handle.process.exitcode is not None:
                        exited.append(handle)
                        continue
                    if not handle.conn_closed:
                        watch[handle.conn] = handle
                    watch[handle.process.sentinel] = handle
            for handle in exited:
                # Read its last messages, or declare the crash.
                self._check_crash(handle)
            if not watch:
                time.sleep(_POLL_SECONDS)
                continue
            try:
                ready = connection.wait(list(watch), timeout=_POLL_SECONDS)
            except OSError:
                continue
            for waitable in ready:
                handle = watch[waitable]
                if waitable is handle.conn:
                    self._drain_conn(handle)
                else:
                    self._check_crash(handle)

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        while not handle.conn_closed:
            try:
                if not handle.conn.poll(0):
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.conn_closed = True
                self._check_crash(handle)
                return
            kind = message[0]
            if kind == "ready":
                handle.ready.set()
            elif kind == "paused":
                handle.pause_payload = message[1]
                handle.paused.set()
            elif kind == "done":
                handle.stats = message[1]
                self._done_stats.append(message[1])
                final_metrics = message[1].get("metrics")
                if final_metrics:
                    # Exact post-quiescence snapshot; supersedes polls.
                    self._worker_metrics[handle.name] = final_metrics
                handle.done.set()
                if self.tracer is not None:
                    self.tracer.record("end", handle.name)
            elif kind == "metrics":
                if message[1]:
                    self._worker_metrics[handle.name] = message[1]
            elif kind == "error":
                handle.error = message[1]
                handle.done.set()
                self.errors.append((handle.name, message[1]))
                if self.tracer is not None:
                    self.tracer.record(
                        "crash", handle.name, error=message[1].splitlines()[-1]
                    )
                self.abort()

    def _check_crash(self, handle: _WorkerHandle) -> None:
        exitcode = handle.process.exitcode
        if exitcode is None or handle.done.is_set():
            return
        # Drain any final messages racing the exit before declaring a
        # crash (a worker sends "done" and exits immediately after).
        if not handle.conn_closed:
            self._drain_conn(handle)
            if handle.done.is_set():
                return
        handle.done.set()
        text = f"worker process exited with code {exitcode} without reporting"
        handle.error = text
        self.errors.append((handle.name, text))
        if self.tracer is not None:
            self.tracer.record("crash", handle.name, exitcode=exitcode)
        self.abort()

    def _poll_worker_metrics(self) -> None:
        """Sampler tick: ask every live worker for a registry snapshot.

        Replies arrive asynchronously through the pump ("metrics"
        messages), giving the parent a continuously refreshed aggregated
        view while the run is in flight.  The memory series sums queue
        depths over the latest snapshot of every live worker: only a
        queue's owner reports its depth (producers report 0), and a
        terminal worker's last snapshot may hold a stale depth.
        """
        with self._handles_lock:
            handles = [h for h in self._handles if not h.terminal]
        for handle in handles:
            handle.send(("metrics",))
        total = 0
        for handle in handles:
            snapshot = self._worker_metrics.get(handle.name)
            if snapshot:
                total += sum(q["depth"] for q in snapshot["queues"].values())
        self._memory_samples.append(
            (time.monotonic_ns() - self._start_wall_ns, total)
        )

    def _serve_permits(self, handle: _WorkerHandle) -> None:
        """Proxy one worker's permit pipe into the ThreadScheduler."""
        ts = self.thread_scheduler
        assert ts is not None
        conn = handle.permit_conn
        outstanding = False
        try:
            while not self._closing:
                if handle.terminal:
                    return
                try:
                    if not conn.poll(_POLL_SECONDS):
                        continue
                    message = conn.recv()
                except (EOFError, OSError):
                    return
                if message == "acq":
                    granted = False
                    while not self._closing and not handle.terminal:
                        try:
                            if ts.acquire(handle.name, timeout=_POLL_SECONDS * 5):
                                granted = True
                                break
                        except SchedulingError:
                            break  # unit unregistered mid-wait
                    outstanding = granted
                    try:
                        # Always answer: a stopping worker must not hang
                        # in recv(); it observes "stop" right after.
                        conn.send("ok")
                    except (BrokenPipeError, OSError):
                        return
                elif message == "rel" and outstanding:
                    ts.release(handle.name)
                    outstanding = False
        finally:
            if outstanding:
                try:
                    ts.release(handle.name)
                except SchedulingError:
                    pass

    # ------------------------------------------------------------------
    # Runtime flexibility across processes
    # ------------------------------------------------------------------
    def pause(self, collect_state: bool = False, timeout: float = 30.0) -> Dict[str, Optional[dict]]:
        """Quiesce every live worker; returns pause payloads by name.

        With ``collect_state=True`` partition workers attach their
        operator states and staged elements (the reconfigure snapshot);
        the caller must follow up with assignments, because staging is
        *moved* out of the old owners, not copied.
        """
        with self._handles_lock:
            targets = [h for h in self._handles if not h.terminal]
        if self.tracer is not None:
            self.tracer.record("pause", "engine")
        for handle in targets:
            handle.paused.clear()
            handle.pause_payload = None
            handle.send(
                ("pause", collect_state and handle.kind == "partition")
            )
        payloads: Dict[str, Optional[dict]] = {}
        deadline = time.monotonic() + timeout
        for handle in targets:
            # Partition acks are mandatory: their quiescence guards the
            # state snapshot.  Source acks are best-effort — a source
            # blocked inside user code (waiting for input) cannot ack,
            # and it only *produces* into SPSC rings, which tolerate a
            # live producer during consumer handoff.
            soft_deadline = (
                deadline
                if handle.kind == "partition"
                else min(deadline, time.monotonic() + 1.0)
            )
            while not handle.paused.is_set():
                if handle.terminal:
                    break  # finished (or died) instead of pausing
                if time.monotonic() >= soft_deadline:
                    if handle.kind == "partition":
                        raise SchedulingError(
                            f"pause ack timeout from worker {handle.name!r}"
                        )
                    break
                time.sleep(_POLL_SECONDS / 4)
            payloads[handle.name] = handle.pause_payload
        if self.errors:
            name, text = self.errors[0]
            raise SchedulingError(f"worker {name!r} failed during pause: {text}")
        return payloads

    def resume(self) -> None:
        """Resume after :meth:`pause`."""
        if self.tracer is not None:
            self.tracer.record("resume", "engine")
        with self._handles_lock:
            for handle in self._handles:
                handle.send(("resume",))

    def set_priority(self, partition_name: str, priority: float) -> None:
        """Adapt a partition's level-3 priority at runtime.

        The authoritative copy lives in the parent's ThreadScheduler
        (which arbitrates the permit pipes); the worker is informed so
        its own bookkeeping follows.
        """
        with self._handles_lock:
            handle = next(
                (
                    h
                    for h in self._handles
                    if h.kind == "partition" and h.name == partition_name
                ),
                None,
            )
        if handle is None:
            raise SchedulingError(f"unknown partition {partition_name!r}")
        for spec in self._partitions:
            if spec.name == partition_name:
                spec.priority = priority
        if self.thread_scheduler is not None:
            self.thread_scheduler.set_priority(partition_name, priority)
        handle.send(("set_priority", priority))

    def reconfigure(self, partitions: List[PartitionSpec]) -> None:
        """Switch the partition layout (and thus the scheduling mode).

        The cross-process version of paper Section 4.2.2: all workers
        quiesce, the old owners export their operator states, staged
        elements and ring spills, the parent redistributes them along the
        new layout (retiring, reassigning, and forking workers as
        needed), and the run resumes — OTS→GTS→HMTS switching without
        losing an element.  Queues a finished worker drained to END pass
        to their new owner as ended.
        """
        check_queue_cover(
            self.graph, partitions, "reconfigure must cover all queues; missing "
        )
        _validate_process_layout(self.graph, partitions)
        for spec in partitions:
            if spec.strategy.name not in _STRATEGY_FACTORIES:
                raise SchedulingError(
                    f"strategy {type(spec.strategy).__name__} has no "
                    "registered name; the process backend ships strategies "
                    "by name across the control plane"
                )
        with self._reconfig_lock:
            if self.tracer is not None:
                self.tracer.record(
                    "reconfigure",
                    "engine",
                    layout=",".join(spec.name for spec in partitions),
                )
            snapshots = self.pause(collect_state=True)
            states: Dict[str, bytes] = {}
            staging: Dict[str, tuple] = {}
            spills: Dict[str, list] = {}
            for payload in snapshots.values():
                if payload:
                    states.update(payload["states"])
                    staging.update(payload["staging"])
                    spills.update(payload["spills"])
            with self._handles_lock:
                workers = [h for h in self._handles if h.kind == "partition"]
            old = {h.name: h for h in workers if not h.terminal}
            for handle in workers:
                # A finished worker drained its queues to END; their new
                # owner starts from that END instead of waiting for one.
                if handle.terminal and handle.done.wait(_DONE_WAIT_SECONDS):
                    ends = (handle.stats or {}).get("ends_seen", {})
                    for queue_name, ended in ends.items():
                        if ended:
                            staging.setdefault(queue_name, ([], True))
            new_names = {spec.name for spec in partitions}
            for spec in partitions:
                region_names: set[str] = set()
                boundary_names: set[str] = set()
                for queue_node in spec.queue_nodes:
                    members, boundary = di_region(self.graph, queue_node)
                    region_names.update(
                        n.name for n in members if not n.is_sink
                    )
                    boundary_names.update(n.name for n in boundary)
                assignment = Assignment(
                    queue_names=[n.name for n in spec.queue_nodes],
                    strategy_name=spec.strategy.name,
                    priority=spec.priority,
                    states={
                        name: blob
                        for name, blob in states.items()
                        if name in region_names
                    },
                    staging={
                        n.name: staging[n.name]
                        for n in spec.queue_nodes
                        if n.name in staging
                    },
                    spills={
                        name: spills[name]
                        for name in boundary_names
                        if name in spills
                    },
                )
                if spec.name in old:
                    old[spec.name].send(("assign", assignment))
                    if self.thread_scheduler is not None:
                        self.thread_scheduler.set_priority(
                            spec.name, spec.priority
                        )
                else:
                    if self.thread_scheduler is not None:
                        self.thread_scheduler.register(spec.name, spec.priority)
                    self._start_partition_worker(
                        spec, initial_assignment=assignment
                    )
            for name, handle in old.items():
                if name not in new_names:
                    # Retire: the worker reports its stats and exits;
                    # the pump merges them like any normal completion.
                    handle.send(("assign", Assignment([])))
            self._partitions = list(partitions)
            self.resume()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, aborted: bool) -> EngineReport:
        self._merge_sink_states()
        queue_peaks: Dict[str, int] = {
            node.name: 0 for node in self.graph.queues()
        }
        invocations = 0
        for stats in self._done_stats:
            invocations += stats.get("invocations", 0)
            for queue_name, peak in stats.get("queue_peaks", {}).items():
                queue_peaks[queue_name] = max(
                    queue_peaks.get(queue_name, 0), peak
                )
        failure = None
        if self.errors:
            name, text = self.errors[0]
            failure = f"worker {name!r} failed: {text}"
        metrics = None
        if self.metrics is not None:
            from repro.obs import merge_snapshots

            # Worker snapshots (exact post-quiescence copies arrive with
            # the "done" stats, superseding mid-run sampler polls) plus
            # the parent's own registry, which holds the scheduler-unit
            # instruments (the ThreadScheduler runs in the parent).
            snapshots = list(self._worker_metrics.values())
            snapshots.append(self.metrics.snapshot())
            metrics = merge_snapshots(snapshots)
        wall_ns = self._wall_ns or (time.monotonic_ns() - self._start_wall_ns)
        return EngineReport(
            mode=self.config.mode,
            wall_ns=wall_ns,
            invocations=invocations,
            sink_counts=sink_counts(self.graph),
            queue_peaks=queue_peaks,
            memory_samples=self._memory_samples,
            aborted=aborted or self._aborted and failure is not None,
            failure=failure,
            metrics=metrics,
        )


def _validate_process_layout(
    graph: QueryGraph, partitions: List[PartitionSpec]
) -> None:
    """Reject layouts the process backend cannot execute safely.

    * Node names must be unique (cross-process state keys).
    * Queues must be point-to-point (AN006 shape): fan-in/fan-out on a
      ring would need multi-producer/multi-consumer synchronization.
    * The DI regions of entries driven by different processes must be
      disjoint: an operator reachable from two processes would have its
      state split across address spaces.  (Sinks are exempt — their
      deliveries are merged by the parent.)
    """
    names = [node.name for node in graph.nodes]
    if len(names) != len(set(names)):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise SchedulingError(
            "process backend requires unique node names; duplicates: "
            + ", ".join(duplicates)
        )
    for queue_node in graph.queues():
        if (
            len(graph.in_edges(queue_node)) != 1
            or len(graph.out_edges(queue_node)) != 1
        ):
            raise SchedulingError(
                f"queue {queue_node.name!r} is not point-to-point; the "
                "process backend requires the AN006 boundary shape "
                "(one producer edge, one consumer edge per queue)"
            )
    claimed: Dict[Node, tuple] = {}
    for entry, owner_key in entry_owners(graph, partitions):
        members, _ = di_region(graph, entry)
        for node in members:
            if node.is_sink:
                continue
            previous = claimed.setdefault(node, owner_key)
            if previous != owner_key:
                raise SchedulingError(
                    f"operator {node.name!r} is reachable from two "
                    f"processes ({previous[0]} {previous[1]!r} and "
                    f"{owner_key[0]} {owner_key[1]!r}); decouple the "
                    "shared path with queues owned by one partition, or "
                    "merge the partitions"
                )
