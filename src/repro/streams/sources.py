"""Synthetic data sources.

The paper's evaluation (Section 6.2) uses synthetic streams: constant
rates, Poisson interarrivals ("to simulate bursty traffic, the inter
arrival rate between two successive elements followed a Poisson
distribution"), and multi-phase bursty schedules (Section 6.6).

A source here is a deterministic, replayable *emission schedule*: an
iterable of :class:`~repro.streams.elements.StreamElement` whose
``timestamp`` is the planned emission time in integer nanoseconds.
Execution engines interpret the schedule:

* the real-thread engine (:mod:`repro.core.engine`) can either respect
  the schedule with sleeps or replay at full speed,
* the discrete-event simulator (:mod:`repro.sim`) uses the timestamps as
  the times at which the simulated source thread *wants* to emit (it may
  be delayed further by back-pressure, which is exactly the Fig. 6
  phenomenon).

All randomness is seeded, so every experiment is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.streams.elements import StreamElement
from repro.streams.rates import NANOS_PER_SECOND

__all__ = [
    "Source",
    "ListSource",
    "ConstantRateSource",
    "PoissonSource",
    "BurstySource",
    "BurstPhase",
    "uniform_int_values",
    "sequence_values",
]

#: A value generator: maps the element index to a payload.
ValueFn = Callable[[int], Any]


def uniform_int_values(low: int, high: int, seed: int) -> ValueFn:
    """Payloads drawn uniformly from the integer range ``[low, high]``.

    This matches the paper's join experiment, where "the first source
    delivered elements uniformly distributed in [0, 1e5] and the second
    in the range of [0, 1e4]" (Section 6.3).

    The value at index ``i`` is a pure function of ``(seed, i)``, so the
    stream can be replayed or sampled out of order and always yields the
    same payloads.
    """
    if low > high:
        raise ValueError(f"empty range [{low}, {high}]")
    span = high - low + 1

    def value_fn(index: int) -> int:
        # Derive each value from an independent generator keyed on the
        # index; Random's seeding hashes the key well enough for this
        # synthetic-workload purpose.
        return low + random.Random((seed << 32) | index).randrange(span)

    return value_fn


def sequence_values(values: Sequence[Any] | None = None) -> ValueFn:
    """Payloads taken from ``values`` (or the index itself if omitted)."""
    if values is None:
        return lambda index: index
    return lambda index: values[index]


class Source:
    """Base class for emission schedules.

    Subclasses implement :meth:`schedule`, yielding ``(timestamp, value)``
    pairs in non-decreasing timestamp order.  Iterating a source yields
    :class:`StreamElement` objects; iteration is restartable and each
    restart replays the identical schedule.
    """

    #: Human-readable name used in experiment output.
    name: str = "source"

    def schedule(self) -> Iterator[tuple[int, Any]]:
        """Yield ``(timestamp_ns, value)`` pairs in timestamp order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[StreamElement]:
        for timestamp, value in self.schedule():
            yield StreamElement(value=value, timestamp=timestamp)

    def __len__(self) -> int:
        raise NotImplementedError


class ListSource(Source):
    """A source that replays a fixed list of elements.

    Args:
        items: Either payloads (timestamps default to their index) or
            ready-made :class:`StreamElement` objects.
        name: Display name.
    """

    def __init__(self, items: Iterable[Any], name: str = "list-source") -> None:
        self.name = name
        self._elements: list[StreamElement] = []
        for index, item in enumerate(items):
            if isinstance(item, StreamElement):
                self._elements.append(item)
            else:
                self._elements.append(StreamElement(value=item, timestamp=index))

    def schedule(self) -> Iterator[tuple[int, Any]]:
        for element in self._elements:
            yield element.timestamp, element.value

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)


class ConstantRateSource(Source):
    """``count`` elements at a fixed rate of ``rate_per_second``.

    Element ``i`` is scheduled at ``start_ns + i * interarrival`` where
    ``interarrival = 1e9 / rate_per_second`` nanoseconds.
    """

    def __init__(
        self,
        count: int,
        rate_per_second: float,
        value_fn: ValueFn | None = None,
        start_ns: int = 0,
        name: str = "constant-source",
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be positive, got {rate_per_second}"
            )
        self.name = name
        self.count = count
        self.rate_per_second = rate_per_second
        self.interarrival_ns = NANOS_PER_SECOND / rate_per_second
        self._value_fn = value_fn or sequence_values()
        self.start_ns = start_ns

    def schedule(self) -> Iterator[tuple[int, Any]]:
        for index in range(self.count):
            timestamp = self.start_ns + round(index * self.interarrival_ns)
            yield timestamp, self._value_fn(index)

    def __len__(self) -> int:
        return self.count


class PoissonSource(Source):
    """``count`` elements with exponentially distributed interarrivals.

    A Poisson arrival process with mean rate ``rate_per_second``; the gap
    between consecutive elements is ``Exp(rate)``.  This is the paper's
    bursty-traffic model (Section 6.2, following Babcock et al.).
    """

    def __init__(
        self,
        count: int,
        rate_per_second: float,
        seed: int,
        value_fn: ValueFn | None = None,
        start_ns: int = 0,
        name: str = "poisson-source",
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be positive, got {rate_per_second}"
            )
        self.name = name
        self.count = count
        self.rate_per_second = rate_per_second
        self.seed = seed
        self._value_fn = value_fn or sequence_values()
        self._start_ns = start_ns

    def schedule(self) -> Iterator[tuple[int, Any]]:
        rng = random.Random(self.seed)
        mean_gap_ns = NANOS_PER_SECOND / self.rate_per_second
        clock = float(self._start_ns)
        for index in range(self.count):
            clock += rng.expovariate(1.0) * mean_gap_ns
            yield round(clock), self._value_fn(index)

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True, slots=True)
class BurstPhase:
    """One phase of a bursty schedule: ``count`` elements at ``rate``."""

    count: int
    rate_per_second: float

    def duration_ns(self) -> int:
        """Nominal duration of the phase in nanoseconds."""
        return round(self.count * NANOS_PER_SECOND / self.rate_per_second)


class BurstySource(Source):
    """A multi-phase schedule alternating bursts and trickles.

    This reproduces the Section 6.6 source: elements 1-10,000 at
    ~500,000 el/s (a burst "significantly less than a second"), elements
    10,001-30,000 at 250 el/s (80 seconds), and so on.

    Args:
        phases: The consecutive phases; the stream is their concatenation.
        value_fn: Payload generator over the global element index.
        start_ns: Timestamp of the first element.
    """

    def __init__(
        self,
        phases: Sequence[BurstPhase],
        value_fn: ValueFn | None = None,
        start_ns: int = 0,
        name: str = "bursty-source",
    ) -> None:
        if not phases:
            raise ValueError("at least one phase is required")
        self.name = name
        self.phases = tuple(phases)
        self._value_fn = value_fn or sequence_values()
        self.start_ns = start_ns

    def schedule(self) -> Iterator[tuple[int, Any]]:
        clock = float(self.start_ns)
        index = 0
        for phase in self.phases:
            gap_ns = NANOS_PER_SECOND / phase.rate_per_second
            for _ in range(phase.count):
                yield round(clock), self._value_fn(index)
                clock += gap_ns
                index += 1

    def __len__(self) -> int:
        return sum(phase.count for phase in self.phases)

    def total_duration_ns(self) -> int:
        """Nominal duration of the full schedule in nanoseconds."""
        return sum(phase.duration_ns() for phase in self.phases)
