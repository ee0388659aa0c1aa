"""Periodic background sampler for observability callbacks.

Engines use one :class:`PeriodicSampler` per run to refresh sampled
instruments (queue depths via ``QueueOperator.stats_view()``, the
process backend's worker-snapshot poll) off the hot path.  The sampler
is a daemon thread with a stop event, so a crashed engine never leaves
a live sampling thread behind.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["PeriodicSampler", "SAMPLE_INTERVAL_S"]

#: Sampler period: queue depths and the memory series on the thread
#: backend, worker snapshot polls on the process backend.
SAMPLE_INTERVAL_S = 0.05


class PeriodicSampler:
    """Run ``sample_fn`` every :data:`SAMPLE_INTERVAL_S` seconds until stopped.

    ``sample_fn`` errors are swallowed after the first (sampling is
    best-effort monitoring; it must never take the engine down), but the
    first exception is kept on :attr:`error` for post-run inspection.
    """

    def __init__(
        self,
        sample_fn: Callable[[], None],
        name: str = "repro-obs-sampler",
    ) -> None:
        self._sample_fn = sample_fn
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self.samples = 0
        self.error: BaseException | None = None

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            try:
                self._sample_fn()
                self.samples += 1
            except BaseException as exc:  # noqa: BLE001 - monitoring must not crash the engine
                if self.error is None:
                    self.error = exc

    def start(self) -> "PeriodicSampler":
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop the thread; optionally take one last (quiesced) sample."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        if final_sample:
            try:
                self._sample_fn()
                self.samples += 1
            except BaseException as exc:  # noqa: BLE001
                if self.error is None:
                    self.error = exc
