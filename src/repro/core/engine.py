"""The real-thread execution engine.

Runs a query graph with OS threads, in any of the configurations of
:mod:`repro.core.modes`:

* one autonomous thread per data source (the paper's sources are
  autonomous in every experiment),
* one worker thread per level-2 partition, scheduling its queues under
  the partition's strategy,
* an optional level-3 :class:`~repro.core.thread_scheduler.ThreadScheduler`
  bounding concurrency with priorities and aging.

The engine also implements the runtime flexibility of Section 4.2.2 and
5.1.3: :meth:`ThreadedEngine.pause` / :meth:`ThreadedEngine.resume`
suspend processing at batch boundaries ("interrupting the processing of
the graph shortly"), :meth:`ThreadedEngine.reconfigure` switches the
partition layout — and thus between GTS, OTS, and HMTS — while the
query runs, and :meth:`ThreadedEngine.insert_queue_runtime` /
:meth:`ThreadedEngine.remove_queue_runtime` change the decoupling
points of the live graph.

Note on measurement: this engine is *functionally* faithful, but under
CPython's GIL its wall-clock numbers do not reflect the multi-core
behaviour the paper measures; use :mod:`repro.sim` for the performance
experiments.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.analysis.sanitizer import ConcurrencySanitizer
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import EventTracer

from repro.core.dataflow import Dispatcher
from repro.core.loops import run_source, run_unit
from repro.core.modes import EngineConfig, PartitionSpec, SchedulingMode
from repro.core.partition import di_region
from repro.core.thread_scheduler import ThreadScheduler
from repro.errors import (
    EngineStateError,
    ReproError,
    SanitizerError,
    SchedulingError,
)
from repro.graph.node import Node
from repro.graph.query_graph import Edge, QueryGraph
from repro.operators.queue_op import QueueOperator
from repro.streams.sinks import Sink

__all__ = [
    "ThreadedEngine",
    "EngineReport",
    "spsc_eligible_queues",
]

_POLL_SECONDS = 0.01


def entry_owners(
    graph: QueryGraph, partitions: Sequence[PartitionSpec]
) -> list[tuple[Node, tuple[str, str]]]:
    """Every DI entry with the thread or process that drives it.

    A source drives itself (``("source", name)``); a queue is driven by
    its owning partition (``("partition", name)``, falling back to the
    queue's own name when unowned).
    """
    owner = {node: spec.name for spec in partitions for node in spec.queue_nodes}
    return [(node, ("source", node.name)) for node in graph.sources()] + [
        (node, ("partition", owner.get(node, node.name))) for node in graph.queues()
    ]


def spsc_eligible_queues(
    graph: QueryGraph, partitions: Sequence[PartitionSpec]
) -> list[Node]:
    """Queues provably touched by one producer and one consumer thread.

    A queue qualifies for the lock-free SPSC fast path when

    * it has exactly one in-edge and one out-edge (the AN006
      point-to-point boundary shape), and
    * exactly one *thread owner* — a source thread or a partition
      worker — pushes into it: the queue appears on the region boundary
      of exactly one DI entry owner (each queue entry is attributed to
      the partition that owns it, so two queues scheduled by the same
      worker count as one producer thread).

    The consumer side is always single-threaded (one partition owns
    each queue, and a partition is driven by one worker).  Eligibility
    is stable under runtime queue splices: splicing moves region
    ownership between entries but never duplicates it, and splices run
    under pause quiescence anyway.
    """
    producers: Dict[Node, set] = {node: set() for node in graph.queues()}
    for entry, owner in entry_owners(graph, partitions):
        _, boundary = di_region(graph, entry)
        for queue_node in boundary:
            producers.setdefault(queue_node, set()).add(owner)
    eligible = []
    for queue_node in graph.queues():
        if len(graph.in_edges(queue_node)) != 1:
            continue
        if len(graph.out_edges(queue_node)) != 1:
            continue
        if len(producers.get(queue_node, ())) == 1:
            eligible.append(queue_node)
    return eligible


@dataclass
class EngineReport:
    """Outcome of one engine run.

    Attributes:
        mode: The configuration's scheduling mode.
        wall_ns: Wall-clock duration of the run.
        invocations: Operator invocations performed by the dispatcher.
        sink_counts: Elements delivered, per sink name.
        queue_peaks: Peak buffered elements, per queue name.
        memory_samples: ``(wall_ns, total_queued)`` series taken by
            the observability sampler; empty unless
            ``EngineConfig.observe=True``.
        aborted: True when the run hit the timeout and was aborted.
        failure: Human-readable description of a fatal failure (a
            crashed/erroring worker, or sanitizer findings), None on a
            clean run.  Engines raise by default *and* populate this
            field — the raised exception carries this report on its
            ``.report`` attribute; pass ``raise_on_failure=False`` to
            ``run()`` to get the report without the raise.
        metrics: Final observability snapshot
            (:meth:`repro.obs.registry.MetricsRegistry.snapshot` shape:
            ``operators`` / ``queues`` / ``partitions`` / ``scheduler``
            sections) when the engine ran with
            ``EngineConfig.observe=True``; None otherwise.  On the
            process backend this is the control-plane-aggregated view
            over every worker's registry.
    """

    mode: SchedulingMode
    wall_ns: int
    invocations: int
    sink_counts: Dict[str, int]
    queue_peaks: Dict[str, int]
    memory_samples: List[tuple[int, int]] = field(default_factory=list)
    aborted: bool = False
    failure: Optional[str] = None
    metrics: Optional[dict] = None

    @property
    def total_results(self) -> int:
        """Sum of all sink deliveries."""
        return sum(self.sink_counts.values())


# ----------------------------------------------------------------------
# Construction and reporting steps shared by both backends
# ----------------------------------------------------------------------
def check_queue_cover(
    graph: QueryGraph, partitions: Sequence[PartitionSpec], message: str
) -> None:
    """Raise ``SchedulingError(message + names)`` unless every queue is owned."""
    covered = {node for spec in partitions for node in spec.queue_nodes}
    missing = set(graph.queues()) - covered
    if missing:
        raise SchedulingError(message + ", ".join(node.name for node in missing))


def sink_counts(graph: QueryGraph) -> Dict[str, int]:
    """Elements delivered per sink name (``count``, else ``len(elements)``)."""
    counts: Dict[str, int] = {}
    for node in graph.sinks():
        sink = node.payload
        assert isinstance(sink, Sink)
        count = getattr(sink, "count", None)
        if count is None:
            count = len(getattr(sink, "elements", []) or [])
        counts[node.name] = count
    return counts


def finish_run(
    report: EngineReport, failure: Optional[ReproError], raise_on_failure: bool
) -> EngineReport:
    """Record ``failure`` on ``report`` and raise it (report attached) if asked."""
    if failure is not None:
        report.failure = str(failure)
        failure.report = report
        if raise_on_failure:
            raise failure
    return report


class _WorkGate:
    """Quiescence barrier around every injection and every grant.

    ``with gate:`` blocks while paused, then counts the caller as in
    flight; :meth:`close` stops admissions and waits for the count to
    drain.  Both hold one lock, so nothing slips in between.
    """

    def __init__(self, abort: threading.Event) -> None:
        #: Set while admissions are open (the engine is not paused).
        self.resumed = threading.Event()
        self.resumed.set()
        self._abort = abort
        self._condition = threading.Condition()
        self._active = 0

    def __enter__(self) -> None:
        with self._condition:
            while not self.resumed.is_set() and not self._abort.is_set():
                self._condition.wait(_POLL_SECONDS)
            self._active += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._condition:
            self._active -= 1
            self._condition.notify_all()

    def close(self) -> None:
        with self._condition:
            self.resumed.clear()
            while self._active > 0:
                self._condition.wait(_POLL_SECONDS)

    def open(self) -> None:
        with self._condition:
            self.resumed.set()
            self._condition.notify_all()


class ThreadedEngine:
    """Executes a query graph with real threads.

    Args:
        graph: A validated query graph.
        config: Partition layout and level-3 parameters; see
            :mod:`repro.core.modes` for factories.
    """

    def __init__(self, graph: QueryGraph, config: EngineConfig) -> None:
        graph.validate()
        check_queue_cover(graph, config.partitions, "no partition owns queue(s): ")
        self.graph = graph
        self.config = config
        #: The concurrency sanitizer, when ``config.sanitize`` is set.
        #: None otherwise — off-mode constructs no instrumentation.
        self.sanitizer: Optional["ConcurrencySanitizer"] = None
        if config.sanitize:
            # Imported lazily: the sanitizer (and its findings model)
            # stays entirely out of unsanitized engine runs.
            from repro.analysis.sanitizer import ConcurrencySanitizer

            self.sanitizer = ConcurrencySanitizer(
                starvation_grant_bound=config.sanitize_starvation_grants
            )
        #: Observability registry and tracer, when ``config.observe`` is
        #: set.  None otherwise — :mod:`repro.obs` is then never even
        #: imported, and the dispatcher compiles the exact same plans.
        self.metrics: Optional["MetricsRegistry"] = None
        self.tracer: Optional["EventTracer"] = None
        if config.observe:
            from repro.obs import EventTracer, MetricsRegistry

            self.metrics = MetricsRegistry()
            self.tracer = EventTracer(capacity=config.trace_capacity)
        self.dispatcher = Dispatcher(
            graph, locking=True, sanitizer=self.sanitizer, observer=self.metrics
        )
        #: Queues running the lock-free SPSC fast path this run.
        self.spsc_queues: List[Node] = []
        self._threads: List[threading.Thread] = []
        self._abort = threading.Event()
        # pause() closes the gate and waits for it to drain, so
        # structural graph changes see no in-flight elements.
        self._gate = _WorkGate(self._abort)
        self._generation = 0
        self._partitions: List[PartitionSpec] = list(config.partitions)
        self._reconfig_lock = threading.RLock()
        self._started = False
        self._finished = threading.Event()
        #: Exceptions raised inside engine threads (name, exception).
        self.errors: List[tuple[str, BaseException]] = []
        self._start_wall_ns = 0
        #: ``(wall_ns, total_queued)`` series written by the sampler.
        self._memory_samples: List[tuple[int, int]] = []
        self.thread_scheduler: Optional[ThreadScheduler] = None
        if config.max_concurrency is not None:
            self.thread_scheduler = ThreadScheduler(
                max_concurrency=config.max_concurrency,
                aging_ns=config.aging_ns,
                watchdog=(
                    self.sanitizer.watchdog if self.sanitizer is not None else None
                ),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self._apply_spsc()

    def _apply_spsc(self) -> None:
        """(Re)apply the SPSC fast path to exactly the eligible queues.

        Called at construction and — under pause quiescence — after
        every structural or ownership change (reconfigure, runtime
        queue splices), since both can create or destroy a queue's
        single-producer proof.  Sanitized runs stay on the locked path:
        the sanitizer's checkers assume it, and its findings would be
        meaningless against lock-free transfers.
        """
        if not self.config.spsc_queues or self.config.sanitize:
            return
        eligible = set(spsc_eligible_queues(self.graph, self._partitions))
        self.spsc_queues = []
        for node in self.graph.queues():
            payload = node.payload
            assert isinstance(payload, QueueOperator)
            if node in eligible:
                if not payload.is_spsc:
                    payload.enable_spsc()
                self.spsc_queues.append(node)
            elif payload.is_spsc:
                payload.disable_spsc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(
        self,
        timeout: float | None = None,
        raise_on_failure: bool = True,
    ) -> EngineReport:
        """Execute the graph to completion (blocking).

        Args:
            timeout: Abort the run after this many wall seconds.
            raise_on_failure: When True (default) a failed worker or
                sanitizer finding raises (``SchedulingError`` /
                ``SanitizerError``, with the report attached on the
                exception's ``.report``); when False the failure is
                only recorded in ``EngineReport.failure``.

        Returns:
            The run report; ``aborted`` is True on timeout and
            ``failure`` carries the diagnosis of any fatal condition.
        """
        self.start()
        sampler = None
        if self.metrics is not None:
            from repro.obs import PeriodicSampler

            sampler = PeriodicSampler(self._sync_queue_metrics).start()
        finished = self.join(timeout)
        if not finished:
            self.abort()
            self.join(None)
        if sampler is not None:
            # The final sample runs after the workers quiesced, so the
            # report's metrics snapshot is exact.
            sampler.stop(final_sample=True)
        # The report is always built — even on failure — so the raised
        # exception can carry the partial results on `.report`.
        report = self._report(aborted=not finished)
        failure: Optional[ReproError] = None
        if self.errors:
            name, error = self.errors[0]
            failure = SchedulingError(f"engine thread {name!r} failed: {error!r}")
            failure.__cause__ = error
        elif self.sanitizer is not None:
            # A sanitized run must be concurrency-clean end to end.
            try:
                self.sanitizer.raise_if_findings()
            except SanitizerError as error:
                failure = error
        return finish_run(report, failure, raise_on_failure)

    def start(self) -> None:
        """Start source and worker threads without blocking."""
        with self._reconfig_lock:
            if self._started:
                raise EngineStateError("engine already started")
            self._started = True
            self._start_wall_ns = time.monotonic_ns()
            for spec in self._partitions:
                self._start_partition(spec, self._generation)
            for node in self.graph.sources():
                self._spawn(f"source:{node.name}", self._source_worker, node)

    def join(self, timeout: float | None = None) -> bool:
        """Wait for every thread to finish; True when all completed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._reconfig_lock:
                threads = list(self._threads)
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                with self._reconfig_lock:
                    # Reconfiguration may have started new threads while
                    # we were checking; only finish when the set is
                    # stable and all dead.
                    if all(not t.is_alive() for t in self._threads):
                        self._finished.set()
                        return True
                # A reconfigure raced us and started fresh threads while
                # the set looked dead; back off briefly instead of
                # busy-spinning on the recheck.
                time.sleep(_POLL_SECONDS)
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return False
            alive[0].join(timeout=_POLL_SECONDS)

    def abort(self) -> None:
        """Ask every thread to exit at the next safe point."""
        self._abort.set()
        self._gate.open()
        if self.thread_scheduler is not None:
            self.thread_scheduler.stop()

    def close(self) -> None:
        """Tear down whatever is still running (idempotent).

        Interface parity with the process backend so the
        :mod:`repro.api` facade can always ``close()`` on context
        exit: aborts and joins the worker threads when the engine was
        started and has not finished; a no-op otherwise.
        """
        if self._started and not self._finished.is_set():
            self.abort()
            self.join(None)

    # ------------------------------------------------------------------
    # Runtime flexibility (paper Sections 4.2.2 / 5.1.3)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Suspend all processing and wait for in-flight work to drain.

        After pause() returns, no element is mid-dispatch anywhere, so
        the graph structure can be changed safely ("interrupting the
        processing of the graph shortly", Section 5.1.3).
        """
        self._gate.close()
        if self.tracer is not None:
            self.tracer.record("pause", "engine")

    def resume(self) -> None:
        """Resume after :meth:`pause`."""
        if self.tracer is not None:
            self.tracer.record("resume", "engine")
        self._gate.open()

    @contextmanager
    def _paused(self):
        """Hold the reconfiguration lock with processing paused."""
        with self._reconfig_lock:
            was_running = self._gate.resumed.is_set()
            self.pause()
            try:
                yield
            finally:
                if was_running:
                    self.resume()

    def set_priority(self, partition_name: str, priority: float) -> None:
        """Adapt a partition's level-3 base priority at runtime.

        Mirrors :meth:`repro.mp.process_engine.ProcessEngine.set_priority`
        so the facade exposes one surface on both backends.
        """
        with self._reconfig_lock:
            for spec in self._partitions:
                if spec.name == partition_name:
                    spec.priority = priority
                    if self.thread_scheduler is not None:
                        self.thread_scheduler.set_priority(
                            f"{partition_name}@{self._generation}", priority
                        )
                    return
            raise SchedulingError(f"unknown partition {partition_name!r}")

    def reconfigure(self, partitions: List[PartitionSpec]) -> None:
        """Switch the partition layout (and thus the scheduling mode).

        Safe to call while running: processing pauses briefly, the old
        worker threads retire, and new workers take over the queues —
        the seamless OTS/GTS/HMTS switching of Section 4.2.2.
        """
        check_queue_cover(
            self.graph, partitions, "reconfigure must cover all queues; missing "
        )
        with self._paused():
            self._generation += 1
            generation = self._generation
            self._partitions = list(partitions)
            self._apply_spsc()
            if self.tracer is not None:
                self.tracer.record(
                    "reconfigure",
                    "engine",
                    layout=",".join(spec.name for spec in partitions),
                )
            if self._started and not self._abort.is_set():
                for spec in partitions:
                    self._start_partition(spec, generation)

    def insert_queue_runtime(
        self, edge: Edge, owner: PartitionSpec | None = None
    ) -> Node:
        """Insert a decoupling queue on ``edge`` while running.

        The new queue is added to ``owner`` (default: the first
        partition).  Processing pauses only for the splice itself.
        """
        with self._paused():
            queue_node = self.graph.insert_queue(edge)
            target = owner or (self._partitions[0] if self._partitions else None)
            if target is None:
                raise SchedulingError(
                    "no partition available to own the new queue; "
                    "reconfigure with at least one partition first"
                )
            target.queue_nodes.append(queue_node)
            target.strategy.prepare(self.graph, target.queue_nodes)
            self._apply_spsc()
            return queue_node

    def remove_queue_runtime(self, queue_node: Node) -> Edge:
        """Drain and remove a decoupling queue while running.

        Section 5.1.3: "To remove a queue all remaining elements in the
        queue must be entirely processed before."
        """
        with self._paused():
            assert isinstance(queue_node.payload, QueueOperator)
            self.dispatcher.run_queue(queue_node, None)
            for spec in self._partitions:
                if queue_node in spec.queue_nodes:
                    spec.queue_nodes.remove(queue_node)
                    if spec.queue_nodes:
                        spec.strategy.prepare(self.graph, spec.queue_nodes)
            removed = self.graph.remove_queue(queue_node)
            self._apply_spsc()
            return removed

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _start_partition(self, spec: PartitionSpec, generation: int) -> None:
        if self.thread_scheduler is not None:
            try:
                self.thread_scheduler.register(
                    f"{spec.name}@{generation}", spec.priority
                )
            except SchedulingError:
                pass  # re-registration after reconfigure with same name
        self._spawn(f"partition:{spec.name}", self._partition_worker, spec, generation)

    def _spawn(self, name: str, body, *args) -> None:
        """Run ``body`` on a daemon thread; a crash is recorded and aborts the run."""

        def guarded() -> None:
            try:
                body(*args)
            except BaseException as error:  # noqa: BLE001 - report any failure
                self.errors.append((name, error))
                if self.tracer is not None:
                    self.tracer.record("crash", name, error=repr(error))
                self.abort()

        thread = threading.Thread(target=guarded, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def _source_worker(self, node: Node) -> None:
        config = self.config
        finished = run_source(
            self.dispatcher,
            node,
            pace=config.pace_sources,
            time_scale=config.time_scale,
            batch_size=config.batch_size,
            poll_s=_POLL_SECONDS,
            halted=self._abort.is_set,
            bracket=self._gate,
        )
        if finished and self.tracer is not None:
            self.tracer.record("end", f"source:{node.name}")

    def _partition_worker(self, spec: PartitionSpec, generation: int) -> None:
        spec.strategy.prepare(self.graph, spec.queue_nodes)
        wake = threading.Event()
        resumed = self._gate.resumed
        ts = self.thread_scheduler
        unit_id = f"{spec.name}@{generation}"

        def retired() -> bool:
            return self._abort.is_set() or generation != self._generation

        def halted() -> bool:
            while not retired():
                if resumed.is_set():
                    return False
                resumed.wait(_POLL_SECONDS)
            return True

        def idle(seconds: float) -> None:
            wake.wait(seconds)
            wake.clear()

        listener = wake.set
        listening = self._queue_operators(spec.queue_nodes)
        for op in listening:
            op.push_listener = listener
        try:
            run_unit(
                self.dispatcher,
                spec,
                batch_limit=self.config.batch_limit,
                batch_size=self.config.batch_size,
                poll_s=_POLL_SECONDS,
                halted=halted,
                retired=retired,
                idle=idle,
                bracket=self._gate,
                acquire=(
                    None
                    if ts is None
                    else lambda: ts.acquire(unit_id, timeout=_POLL_SECONDS * 5)
                ),
                release=None if ts is None else lambda: ts.release(unit_id),
                metrics=(
                    self.metrics.partition(spec.name)
                    if self.metrics is not None
                    else None
                ),
            )
        finally:
            for op in listening:
                if op.push_listener is listener:
                    op.push_listener = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _queue_operators(
        self, nodes: Optional[Sequence[Node]] = None
    ) -> list[QueueOperator]:
        ops = []
        for node in self.graph.queues() if nodes is None else nodes:
            payload = node.payload
            assert isinstance(payload, QueueOperator)
            ops.append(payload)
        return ops

    def _sync_queue_metrics(self) -> None:
        """Sampler tick: sync every queue's instrument, record the total.

        One pass over the queues feeds both the registry and the
        ``(wall_ns, total queued)`` memory series.
        """
        assert self.metrics is not None
        queues = self.graph.queues()
        total = 0
        for node, op in zip(queues, self._queue_operators(queues)):
            depth, high_water, pushed = op.stats_view()
            self.metrics.queue(node.name).sync(depth, high_water, pushed)
            total += depth
        self._memory_samples.append(
            (time.monotonic_ns() - self._start_wall_ns, total)
        )

    def _report(self, aborted: bool) -> EngineReport:
        queue_peaks = {
            node.name: node.payload.peak_size for node in self.graph.queues()
        }
        metrics = None if self.metrics is None else self.metrics.snapshot()
        return EngineReport(
            mode=self.config.mode,
            wall_ns=time.monotonic_ns() - self._start_wall_ns,
            invocations=self.dispatcher.invocations,
            sink_counts=sink_counts(self.graph),
            queue_peaks=queue_peaks,
            memory_samples=self._memory_samples,
            aborted=aborted,
            metrics=metrics,
        )
