"""Rate measurement over a sliding window.

:class:`SlidingRateMeter` measures the arrival rate over a sliding
window of wall/application time, used to draw the input-rate collapse
of Fig. 6.  The placement heuristic's per-operator ``c(v)`` and ``d(v)``
are measured by :mod:`repro.obs` (``OperatorMetrics``).

All times are integer nanoseconds, matching :mod:`repro.streams.elements`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

__all__ = ["SlidingRateMeter", "NANOS_PER_SECOND"]

NANOS_PER_SECOND = 1_000_000_000


class SlidingRateMeter:
    """Measured arrival rate over a sliding time window.

    Used to plot "input rate over time" series (the Fig. 6 experiment):
    at any timestamp ``t`` the rate is the number of arrivals in
    ``(t - window, t]`` divided by the window length.
    """

    def __init__(self, window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self._window_ns = window_ns
        self._arrivals: Deque[int] = deque()
        self._total = 0

    @property
    def window_ns(self) -> int:
        """Window length in nanoseconds."""
        return self._window_ns

    @property
    def total_arrivals(self) -> int:
        """All arrivals ever observed (not just those in the window)."""
        return self._total

    def observe_arrival(self, timestamp: int) -> None:
        """Record one arrival at ``timestamp`` nanoseconds."""
        if self._arrivals and timestamp < self._arrivals[-1]:
            raise ValueError(
                f"arrival timestamps must be non-decreasing; "
                f"got {timestamp} after {self._arrivals[-1]}"
            )
        self._arrivals.append(timestamp)
        self._total += 1
        self._evict(timestamp)

    def rate_at(self, timestamp: int) -> float:
        """Arrivals per second over ``(timestamp - window, timestamp]``."""
        self._evict(timestamp)
        seconds = self._window_ns / NANOS_PER_SECOND
        in_window = sum(1 for t in self._arrivals if t <= timestamp)
        return in_window / seconds

    def _evict(self, now: int) -> None:
        cutoff = now - self._window_ns
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
