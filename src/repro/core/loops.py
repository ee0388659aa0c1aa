"""The backend-neutral level-2 driver: one source loop, one unit loop.

Each level-2 partition behaves like a private graph-threaded scheduler:
it picks a ready queue by its strategy, takes a level-3 permit, and
drains the queue; OTS and GTS are degenerate layouts of that loop.  The
thread backend and the process workers run the same loops and differ
only in their hooks: ``halted`` (abort/stop/retire checks, and waiting
while paused), ``bracket`` (entered around each injection and grant),
``idle`` (the wait when nothing is ready), ``flush`` (retry spilled
output) and the level-3 permit.
Each hook runs at most once per source element (plus one control check
per pacing slice) and once per grant.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, ContextManager, List, Optional, Protocol
from typing import Sequence, cast

from repro.core.dataflow import Dispatcher
from repro.core.strategies import SchedulingStrategy
from repro.graph.node import Node
from repro.operators.queue_op import QueueOperator
from repro.streams.elements import StreamElement
from repro.streams.sources import Source

if TYPE_CHECKING:  # the registry is never imported when observe is off
    from repro.obs.registry import PartitionMetrics

__all__ = ["LevelTwoUnit", "run_source", "run_unit"]


class LevelTwoUnit(Protocol):
    """Re-read before every grant, so splices and reassignments apply."""

    queue_nodes: List[Node]
    strategy: SchedulingStrategy


def run_source(
    dispatcher: Dispatcher,
    node: Node,
    *,
    pace: bool,
    time_scale: float,
    batch_size: Optional[int],
    poll_s: float,
    halted: Callable[[], bool],
    bracket: ContextManager[object],
    flush: Optional[Callable[[], bool]] = None,
) -> bool:
    """Drive one autonomous source to END; False when halted first.

    With ``pace`` each element is released at its scaled timestamp.  At
    ``batch_size`` None or 1 each element is injected on its own; larger
    sizes buffer (pacing each element) and inject full batches, so a
    paced batch goes out at its last element's release time.  ``flush``
    runs before each injection.
    """
    source = node.payload
    assert isinstance(source, Source)
    batch_size = batch_size or 1
    started = time.monotonic()
    batch: List[StreamElement] = []
    for element in source:
        if halted():
            return False
        if pace:
            due = started + element.timestamp * time_scale / 1e9
            if not _sleep_until(due, poll_s, halted):
                return False
        if batch_size == 1:
            if flush is not None:
                flush()
            with bracket:
                # plan_out is generation-cached, so runtime queue splices
                # (made under pause, never inside a bracket) are seen.
                for consumer, port in dispatcher.plan_out(node):
                    dispatcher.inject(consumer, element, port)
            continue
        batch.append(element)
        if len(batch) >= batch_size:
            _inject_batch(dispatcher, node, batch, bracket, flush)
            batch = []
    if batch:
        _inject_batch(dispatcher, node, batch, bracket, flush)
    with bracket:
        for consumer, port in dispatcher.plan_out(node):
            dispatcher.inject_end(consumer, port)
    return True


def _sleep_until(due: float, poll_s: float, halted: Callable[[], bool]) -> bool:
    """Sleep until ``due`` in slices of at most ``poll_s``; False if halted.

    The last slice is one plain sleep to ``due``, so release times are
    those of a single sleep.
    """
    delay = due - time.monotonic()
    while delay > poll_s:
        time.sleep(poll_s)
        if halted():
            return False
        delay = due - time.monotonic()
    if delay > 0:
        time.sleep(delay)
    return True


def _inject_batch(
    dispatcher: Dispatcher,
    node: Node,
    batch: Sequence[StreamElement],
    bracket: ContextManager[object],
    flush: Optional[Callable[[], bool]],
) -> None:
    if flush is not None:
        flush()
    with bracket:
        out = dispatcher.plan_out(node)
        if len(out) == 1:
            consumer, port = out[0]
            dispatcher.inject_batch(consumer, batch, port)
        else:
            # Several consumers: keep the scalar per-element edge
            # interleaving (see Dispatcher.inject_batch).
            for element in batch:
                for consumer, port in out:
                    dispatcher.inject(consumer, element, port)


def run_unit(
    dispatcher: Dispatcher,
    unit: LevelTwoUnit,
    *,
    batch_limit: Optional[int],
    batch_size: Optional[int],
    poll_s: float,
    halted: Callable[[], bool],
    retired: Callable[[], bool],
    idle: Callable[[float], None],
    bracket: ContextManager[object],
    acquire: Optional[Callable[[], bool]] = None,
    release: Optional[Callable[[], None]] = None,
    flush: Optional[Callable[[], bool]] = None,
    metrics: Optional["PartitionMetrics"] = None,
) -> None:
    """Run one level-2 unit until all its queues have ended, or it halts.

    ``retired`` is re-checked once ``bracket`` admits a grant: a unit
    that stalled in ``select`` or a permit wait while a reconfiguration
    handed its queues to a new unit must not run one more grant on them.
    ``flush`` runs before each scan; the unit finishes only once it
    returns True.
    """
    while not halted():
        queue_nodes = unit.queue_nodes
        flushed = flush is None or flush()
        ops = cast(List[QueueOperator], [node.payload for node in queue_nodes])
        ready = [node for node, op in zip(queue_nodes, ops) if len(op) > 0]
        if not ready:
            if flushed and all(op.closed for op in ops):
                return
            idle(poll_s)
            continue
        queue_node = unit.strategy.select(ready)
        if acquire is not None and not acquire():
            continue
        try:
            with bracket:
                if retired():
                    return
                started_ns = time.perf_counter_ns() if metrics is not None else 0
                processed = dispatcher.run_queue(queue_node, batch_limit, batch_size)
                if metrics is not None:
                    metrics.observe_grant(processed, time.perf_counter_ns() - started_ns)
        finally:
            if release is not None:
                release()
