"""Simulated decoupling queues.

A :class:`SimQueue` is the simulator's counterpart of
:class:`~repro.operators.queue_op.QueueOperator`: an unbounded FIFO
whose enqueue/dequeue operations cost simulated CPU time (charged by
the machine, per the :class:`~repro.sim.costs.CostModel`).

Items are opaque to the queue; engines push
:class:`~repro.sim.items.ElementBatch` records or end markers.  Each
item carries a *weight* — how many stream elements it represents — so
batched execution (one item standing for n elements) still yields exact
memory accounting: ``size`` is the total buffered element count, which
is what Fig. 9 plots.  Punctuations (end markers) travel as weight-0
items.

A :class:`SimQueue` offers the level-2 strategies the same
:class:`~repro.core.strategies.QueueState` view as a ``QueueOperator``:
``len()`` counts buffered data elements plus punctuations, and
``oldest_seq()`` gives the head data item's ``seq``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

__all__ = ["SimQueue"]


class SimQueue:
    """An unbounded weighted FIFO with blocked-consumer bookkeeping.

    Created via :meth:`repro.sim.machine.Machine.new_queue`; engines
    never construct one directly.
    """

    def __init__(self, name: str, queue_id: int) -> None:
        self.name = name
        self.queue_id = queue_id
        self._items: Deque[Tuple[Any, int]] = deque()
        #: Total weight (stream elements) currently buffered.
        self.size = 0
        # Buffered weight-0 items (punctuations), counted by len().
        self._marks = 0
        #: Largest ``size`` ever observed.
        self.peak_size = 0
        #: Total weight ever enqueued.
        self.total_enqueued = 0
        #: Threads blocked in Pop/PopBatch on this queue (machine-managed).
        self.waiters: List[Any] = []

    def push(self, item: Any, weight: int = 1) -> None:
        """Buffer ``item`` representing ``weight`` stream elements."""
        if weight < 0:
            raise ValueError(f"negative item weight {weight}")
        self._items.append((item, weight))
        self.size += weight
        if weight == 0:
            self._marks += 1
        self.total_enqueued += weight
        if self.size > self.peak_size:
            self.peak_size = self.size

    def pop(self) -> Optional[Tuple[Any, int]]:
        """Remove and return ``(item, weight)``, or None when empty."""
        if not self._items:
            return None
        item, weight = self._items.popleft()
        self.size -= weight
        if weight == 0:
            self._marks -= 1
        return item, weight

    def pop_batch(self, max_items: int | None = None) -> List[Tuple[Any, int]]:
        """Remove up to ``max_items`` buffered items (all if None)."""
        if max_items is None or max_items >= len(self._items):
            batch = list(self._items)
            self._items.clear()
            self.size = 0
            self._marks = 0
            return batch
        return [self.pop() for _ in range(max_items)]

    def oldest_seq(self) -> Optional[int]:
        """``seq`` of the oldest buffered data item; None when only
        punctuations (or nothing) are buffered."""
        for item, weight in self._items:
            if weight:
                return item.seq
        return None

    @property
    def empty(self) -> bool:
        """True when nothing is buffered."""
        return not self._items

    def __len__(self) -> int:
        return self.size + self._marks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SimQueue {self.name!r} size={self.size}>"
