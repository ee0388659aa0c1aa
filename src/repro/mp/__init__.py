"""Multicore execution backend: process workers over shared-memory rings.

The thread backend (:class:`repro.core.engine.ThreadedEngine`) is the
faithful reproduction of the paper's architecture, but under CPython's
GIL its "threads" time-slice a single core.  This package provides a
drop-in process-backed engine — select it with ``backend="process"``
in :meth:`repro.api.Engine.from_graph` — where every level-2 partition
and every source is a worker process, every decoupling queue becomes a
shared-memory SPSC ring, and the
paper's level-3 flexibility (priorities, strategy/mode switching at
runtime) travels over a per-worker control pipe.

Modules:
    ring: Raw shared-memory SPSC byte ring (:class:`ShmRing`).
    queues: :class:`RingQueue`, a ``QueueOperator`` proxy over a ring.
    control: Control-plane message protocol and sink-state merging.
    worker: Child-process entry points: the shared loops of
        :mod:`repro.core.loops` plus the process hooks.
    process_engine: The parent orchestrator (:class:`ProcessEngine`).
"""

from repro.mp.control import Assignment
from repro.mp.process_engine import ProcessEngine
from repro.mp.queues import RingQueue
from repro.mp.ring import ShmRing
from repro.mp.worker import (
    PartitionContext,
    SourceContext,
    partition_worker_main,
    source_worker_main,
)

__all__ = [
    "Assignment",
    "PartitionContext",
    "ProcessEngine",
    "RingQueue",
    "ShmRing",
    "SourceContext",
    "partition_worker_main",
    "source_worker_main",
]
