"""Ring-backed decoupling queues for the process backend.

In a worker process, every decoupling queue node of the (forked) graph
copy has its :class:`~repro.operators.queue_op.QueueOperator` payload
replaced by a :class:`RingQueue` wired to the queue's shared-memory
ring (:mod:`repro.mp.ring`).  The class speaks both sides of the
boundary:

* the *producer* methods (``push``/``push_many``/``process``/
  ``process_batch``/``end_port``) are invoked by whichever process's DI
  chain reaction reaches the queue node — each call encodes its whole
  batch as one ring envelope (columnar for plain int/float elements,
  pickled otherwise);
* the *consumer* methods (``try_pop``/``pop_many``/``__len__``/
  ``oldest_seq``) are invoked only by the worker that owns the queue —
  they drain ring envelopes into a local staging deque and serve the
  scheduler from there, so `Dispatcher.run_queue` and every level-2
  strategy work across processes unchanged.

The ring is bounded but the queue is not: when an envelope does not fit
the producer spills to an unbounded local deque and retries on later
pushes (and from the worker idle loop via :meth:`flush_pending`).  A
producer therefore **never blocks inside a dispatch**, which is what
makes engine-wide pause/reconfigure quiescence deadlock-free.

Ownership handoff (reconfigure): the staging deque — elements already
popped from the ring but not yet dispatched — is exported with
:meth:`export_staging` by the old owner and re-imported with
:meth:`import_staging` by the new owner; likewise the producer's spill
moves with :meth:`export_spill` / :meth:`import_spill` to whichever
worker produces into the ring after the handoff.  No element is lost
when a queue, or the queue feeding it, moves between worker processes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence

from repro.mp.ring import ShmRing
from repro.operators.queue_op import QueueOperator
from repro.streams.elements import (
    Punctuation,
    StreamElement,
    is_end,
)

__all__ = ["RingQueue"]


class RingQueue(QueueOperator):
    """A :class:`QueueOperator` whose buffer is a shared-memory ring."""

    def __init__(self, ring: ShmRing, name: str | None = None) -> None:
        super().__init__(name=name or "ring-queue")
        self._ring = ring
        # Producer-side spill for envelopes that did not fit the ring.
        self._pending: Deque[List[StreamElement | Punctuation]] = deque()
        # Consumer-side staging: items popped from the ring, not yet
        # dispatched.  All consumer methods serve from here.
        self._staging: Deque[StreamElement | Punctuation] = deque()
        self._staging_seqs: Deque[int] = deque()
        self._end_popped = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _push_batch(self, batch: List[StreamElement | Punctuation]) -> None:
        self.total_enqueued += len(batch)
        if self._pending or not self._ring.try_push_batch(batch):
            # FIFO: once anything spilled, everything goes behind it.
            self._pending.append(batch)
            self.flush_pending()

    def flush_pending(self) -> bool:
        """Retry spilled envelopes; True when the spill is empty."""
        while self._pending:
            if not self._ring.try_push_batch(self._pending[0]):
                return False
            self._pending.popleft()
        return True

    def push(self, item: StreamElement | Punctuation) -> None:
        self._push_batch([item])

    def push_many(self, items: Iterable[StreamElement | Punctuation]) -> int:
        batch = list(items)
        if batch:
            self._push_batch(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Drain every complete ring envelope into the staging deque."""
        if self._ring.empty:
            return
        for batch in self._ring.pop_batches():
            self._staging.extend(batch)
            for item in batch:
                if isinstance(item, StreamElement):
                    self._staging_seqs.append(item.seq)
        backlog = len(self._staging)
        if backlog > self.peak_size:
            self.peak_size = backlog

    def _note_popped(self, item: StreamElement | Punctuation) -> None:
        if isinstance(item, StreamElement):
            self._staging_seqs.popleft()
        elif is_end(item):
            self._end_popped = True

    def try_pop(self) -> Optional[StreamElement | Punctuation]:
        self._sync()
        if not self._staging:
            return None
        item = self._staging.popleft()
        self._note_popped(item)
        return item

    def pop(self, timeout: float | None = None) -> Optional[StreamElement | Punctuation]:
        # The process backend never blocks in pop; the worker loop polls.
        return self.try_pop()

    def pop_many(
        self, limit: int | None = None
    ) -> list[StreamElement | Punctuation]:
        self._sync()
        size = len(self._staging)
        if size == 0:
            return []
        take = size if limit is None or limit >= size else limit
        popleft = self._staging.popleft
        items = [popleft() for _ in range(take)]
        for item in items:
            self._note_popped(item)
        return items

    def __len__(self) -> int:
        self._sync()
        return len(self._staging)

    def oldest_seq(self) -> Optional[int]:
        self._sync()
        if self._staging_seqs:
            return self._staging_seqs[0]
        return None

    def stats_view(self) -> tuple[int, int, int]:
        """``(depth, high_water, pushed)`` — CONSUMER SIDE ONLY.

        ``_sync()`` moves ring envelopes into this process's staging
        deque, so only the queue's owning worker may call this; a
        producer-side process must read ``total_enqueued`` directly
        instead (its fork copy counts exactly what it pushed).
        """
        self._sync()
        return (len(self._staging), self.peak_size, self.total_enqueued)

    @property
    def closed(self) -> bool:  # type: ignore[override]
        """Consumer view: True once END_OF_STREAM has been popped.

        (The producer-side Operator close flag lives in a different
        process; END travelling through the ring is the authority.)
        """
        return self._end_popped

    # ------------------------------------------------------------------
    # Ownership handoff
    # ------------------------------------------------------------------
    def export_spill(self) -> list:
        """Strip and return the producer's spilled batches for migration."""
        batches = list(self._pending)
        self._pending.clear()
        return batches

    def import_spill(self, batches: Sequence[list]) -> None:
        """Queue a previous producer's spill ahead of this one's own."""
        self._pending.extendleft(reversed(batches))
        self.flush_pending()

    def export_staging(self) -> tuple[list, bool]:
        """Strip and return ``(staged_items, end_popped)`` for migration."""
        items = list(self._staging)
        self._staging.clear()
        self._staging_seqs.clear()
        return items, self._end_popped

    def import_staging(self, items: Sequence, end_popped: bool) -> None:
        """Seed the staging deque from a previous owner's export."""
        for item in items:
            self._staging.append(item)
            if isinstance(item, StreamElement):
                self._staging_seqs.append(item.seq)
        if end_popped:
            self._end_popped = True
