"""Control-plane protocol of the process backend.

One duplex command pipe connects the parent engine to every worker
process; an optional second *permit* pipe per partition worker carries
the level-3 thread-scheduler gate.  Messages are small picklable tuples
``(kind, *payload)``:

Parent -> worker
    ``("pause", collect_state)``
        Finish the current grant, ack, then idle.  With
        ``collect_state=True`` the ack carries the worker's operator
        states, staged elements and ring spills (reconfigure snapshot).
    ``("resume",)``
        Leave the paused state.
    ``("assign", assignment)``
        Reconfigure: new queue set, strategy name, priority, migrated
        operator states, staged elements and the spills of the rings the
        worker now produces into.  An empty queue set
        retires the worker (it reports its stats and exits).
    ``("set_priority", value)``
        Update the worker's recorded base priority (the authoritative
        copy for permit arbitration lives in the parent's
        ThreadScheduler).
    ``("stop",)``
        Abort: exit at the next safe point, reporting stats.
    ``("metrics",)``
        Observability poll (only sent when ``EngineConfig.observe`` is
        on): ask the worker for a cumulative metrics snapshot.

Worker -> parent
    ``("ready",)`` — worker finished setup and entered its loop.
    ``("paused", snapshot_or_none)`` — pause ack.
    ``("done", stats)`` — normal completion (or retirement); ``stats``
    is a :class:`WorkerStats` payload dict (with a ``"metrics"`` key
    holding the worker's exact final registry snapshot when observing).
    ``("metrics", snapshot)`` — reply to a metrics poll; cumulative
    ``MetricsRegistry.snapshot()`` dict (``None`` when not observing).
    The parent keeps the latest per worker and merges them with
    :func:`repro.obs.merge_snapshots` at report time.
    ``("error", traceback_text)`` — the worker failed; the engine
    surfaces this as a run failure.

Permit pipe (partition workers, only when ``max_concurrency`` is set)
    worker sends ``"acq"`` and blocks for ``"ok"``; after the grant's
    batch it sends ``"rel"``.  The parent services each worker's permit
    pipe from a dedicated thread that proxies into the shared
    :class:`~repro.core.thread_scheduler.ThreadScheduler`, so priority
    updates and aging behave exactly as in the thread backend.

END_OF_STREAM is *not* a control message: it travels in-band through
the rings (one per edge), and each worker's ``done`` stats include the
per-queue ``ends_seen`` map — the per-edge acknowledgment the parent
uses to distinguish a drained edge from a crashed producer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Assignment",
    "sink_state",
    "merge_sink_state",
]


class Assignment:
    """A partition worker's (re)assignment, shippable over the pipe.

    Attributes:
        queue_names: Names of the queue nodes the worker now owns.
        strategy_name: Level-2 strategy registry name.
        priority: Level-3 base priority.
        states: Migrated operator payloads per node name (pickled
            bytes), covering the downstream regions of the new queues.
        staging: Per queue name, ``(staged_items, end_popped)`` exported
            by the previous owner.
        spills: Per queue name, the batches the ring's previous producer
            had spilled; the worker now produces into that ring and
            pushes them first.
    """

    def __init__(
        self,
        queue_names: List[str],
        strategy_name: str = "fifo",
        priority: float = 0.0,
        states: Optional[Dict[str, bytes]] = None,
        staging: Optional[Dict[str, Tuple[list, bool]]] = None,
        spills: Optional[Dict[str, List[list]]] = None,
    ) -> None:
        self.queue_names = list(queue_names)
        self.strategy_name = strategy_name
        self.priority = priority
        self.states = states or {}
        self.staging = staging or {}
        self.spills = spills or {}


def sink_state(sink: Any) -> Dict[str, Any]:
    """Extract a sink's mergeable state (duck-typed over shipped sinks)."""
    state: Dict[str, Any] = {"ended": bool(getattr(sink, "ended", False))}
    count = getattr(sink, "count", None)
    if isinstance(count, int):
        state["count"] = count
    for attr in ("elements", "series", "latencies_ns"):
        value = getattr(sink, attr, None)
        if isinstance(value, list):
            state[attr] = value
    return state


def merge_sink_state(sink: Any, state: Dict[str, Any]) -> None:
    """Fold a worker's sink state into the parent's sink object."""
    if "count" in state:
        sink.count = getattr(sink, "count", 0) + state["count"]
    for attr in ("elements", "series", "latencies_ns"):
        if attr in state:
            getattr(sink, attr).extend(state[attr])
    if state.get("ended") and not sink.ended:
        sink.on_end()
