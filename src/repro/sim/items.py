"""Items that flow through simulated queues.

Engines batch elements for efficiency: one :class:`ElementBatch` item
stands for ``count`` consecutive stream elements.  Batching changes no
totals — queue costs, operator costs, and memory accounting are all
charged per element via the item *weight* — it only coarsens the
interleaving granularity, which matches the paper's schedulers anyway
(an operator "runs for a certain time slice or as long as elements for
processing are available").

``seq`` carries the global sequence number of the batch's first element
so the FIFO strategy can find the globally oldest work; ``payload``
carries the emission time of the batch's newest source element, for
result latencies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ElementBatch", "EndMarker", "GLOBAL_SEQ"]

#: Global element sequence counter shared by all engines in a process.
GLOBAL_SEQ = itertools.count()


@dataclass(frozen=True, slots=True)
class ElementBatch:
    """``count`` consecutive stream elements, oldest having ``seq``."""

    count: int
    seq: int = field(default_factory=lambda: next(GLOBAL_SEQ))
    payload: Any = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"batch count must be positive, got {self.count}")


@dataclass(frozen=True, slots=True)
class EndMarker:
    """End-of-stream punctuation; weight 0, sorts after all data."""

    seq: float = float("inf")
