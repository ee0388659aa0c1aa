"""Workload definitions of the end-to-end benchmark.

Every workload is an open-loop, seeded schedule with two phases, run
with ``pace_sources=True`` through :func:`repro.open_engine` at the
default configuration (``batch_size=None``, ``observe`` off):

* the **paced phase** offers elements at the workload's fixed
  ``paced_rate``, in bursts of ``paced_burst`` elements due at the same
  instant; latency is measured here only.  A burst gives each element a
  fixed number of predecessors to wait for, so latency scales with the
  per-element path cost instead of with the timing of thread wake-ups,
  which a shared machine makes erratic.  The rate is a fifth to a third
  of what the flood phase sustained when the benchmark was defined: an
  element of the paced phase is dispatched with fewer elements per grant
  than one of the flood, so it costs more, and at half the flood's rate
  the paced phase built up backlog;
* after a short idle gap, the **flood phase** is a block of elements all
  due at the same instant; throughput is measured here only.

An element's *due* time is the source's first-emission instant plus its
schedule offset (its ``timestamp``).  :class:`ScheduledSource` records
the first-emission instant on the system-wide monotonic clock in a
shared anonymous mapping, and :class:`RecordingSink` stamps every
delivery on the same clock, so latency is computed the same way on the
thread backend and inside forked workers (sink lists ship back to the
parent through ``repro.mp.control.sink_state``).
"""

from __future__ import annotations

import mmap
import random
import struct
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.core.placement import stall_avoiding_partitioning
from repro.graph.builder import QueryBuilder
from repro.graph.query_graph import QueryGraph, derive_rates
from repro.operators.aggregate import WindowedAggregate
from repro.operators.base import StatelessOperator
from repro.streams.elements import StreamElement
from repro.streams.sinks import Sink
from repro.streams.sources import Source

__all__ = [
    "WORKLOADS",
    "Workload",
    "Schedule",
    "Instance",
    "ScheduledSource",
    "RecordingSink",
    "EventTime",
    "make_schedule",
]

_NS = 1_000_000_000
_T0 = struct.Struct("<q")

#: Idle time between the last paced element and the flood, so the flood
#: starts on drained queues.
PHASE_GAP_NS = 150_000_000


class ScheduledSource(Source):
    """Replays a precomputed ``(offset, value)`` schedule.

    The first-emission instant (``time.monotonic_ns()`` when iteration
    starts) is written to an anonymous shared mapping, so it is visible
    to the parent even when the source runs in a forked worker.
    ``rate_per_second`` is the rate queue placement plans for.
    """

    def __init__(
        self,
        offsets: Sequence[int],
        values: Sequence[Any],
        rate_per_second: float,
        name: str = "src",
    ) -> None:
        self.name = name
        self.offsets = offsets
        self.values = values
        self.rate_per_second = rate_per_second
        self._t0 = mmap.mmap(-1, _T0.size)

    def __iter__(self) -> Iterator[StreamElement]:
        _T0.pack_into(self._t0, 0, time.monotonic_ns())
        for offset, value in zip(self.offsets, self.values):
            yield StreamElement(value=value, timestamp=offset)

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def t0_ns(self) -> int:
        """Monotonic first-emission instant (0 before the first run)."""
        return _T0.unpack_from(self._t0, 0)[0]

    def close(self) -> None:
        self._t0.close()


class RecordingSink(Sink):
    """Keeps every result and its monotonic delivery instant.

    A result is kept as its ``(value, timestamp)`` pair, the fields that
    decide :class:`StreamElement` equality; the garbage collector does
    not track pairs of atomic values, so the results a run keeps add
    nothing to the engine's collection work.
    """

    def __init__(self, name: str = "sink") -> None:
        super().__init__(name)
        self.elements: List[Tuple[Any, int]] = []
        self.series: List[int] = []

    def receive(self, element: StreamElement) -> None:
        self.elements.append((element.value, element.timestamp))
        self.series.append(time.monotonic_ns())


class EventTime(StatelessOperator):
    """Re-stamps an element with the event time carried in its payload.

    The paced schedule spaces elements in wall time while the flood
    gives them one due instant; the windowed aggregate needs the same
    event-time spacing in both phases, so each payload's sequence number
    (its first field) sets ``timestamp = seq * gap_ns``.
    """

    def __init__(self, gap_ns: int, name: str = "event-time") -> None:
        super().__init__(name=name, declared_cost_ns=1_000.0, declared_selectivity=1.0)
        self.gap_ns = gap_ns

    def apply(self, element: StreamElement):
        yield StreamElement(value=element.value, timestamp=element.value[0] * self.gap_ns)


# Module-level callables (not lambdas) keep the graphs picklable.
def mix(value: int) -> int:
    """The chain's map kernel: a multiplicative hash of the payload."""
    return (value * 2654435761) % 4294967296


def keep_nonzero_mod8(value: tuple) -> bool:
    """First filter of ``window_hmts``: drops one value in eight."""
    return value[2] % 8 != 0


def keep_avg_above(result: tuple) -> bool:
    """Last filter of ``window_hmts``: keeps groups with a high average."""
    return result[1] >= 430.0


@dataclass(frozen=True)
class Schedule:
    """The generated input of one run."""

    offsets: List[int]
    values: List[Any]
    paced_count: int
    flood_offset_ns: int
    paced_rate: float

    @property
    def flood_count(self) -> int:
        return len(self.offsets) - self.paced_count


@dataclass
class Instance:
    """One constructed, not yet started, workload graph."""

    graph: QueryGraph
    source: ScheduledSource
    sink: RecordingSink
    partitioning: Any
    knobs: Dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """A benchmark workload.

    Attributes:
        name: Workload name (``--workload``).
        why: One line on what the workload isolates.
        backend: Engine backend.
        paced_rate: Fixed offered rate of the paced phase, el/s.
        paced_burst: Elements due together in the paced phase.
        flood_rate: Nominal flood rate, el/s, used only to size the
            flood so that it lasts about ``FLOOD_SHARE`` of a run.
        values: ``(rng, count) -> payloads``.
        build: ``(schedule, decoupled) -> Instance``; with
            ``decoupled=False`` it returns the queue-free graph for the
            single-threaded DI reference run.
        result_offset: Maps a sink result's timestamp to the schedule
            offset of the input it came from (for due times).
    """

    name: str
    why: str
    backend: str
    paced_rate: float
    paced_burst: int
    flood_rate: float
    values: Callable[[random.Random, int], List[Any]]
    build: Callable[[Schedule, bool], Instance]
    result_offset: Callable[[int, Schedule], int]


#: Shares of ``--seconds`` spent in the paced and the flood phase.
PACED_SHARE = 0.6
FLOOD_SHARE = 0.3


def make_schedule(workload: Workload, seed: int, seconds: float) -> Schedule:
    """Generate the seeded two-phase schedule of one run."""
    paced_count = max(2, round(workload.paced_rate * seconds * PACED_SHARE))
    flood_count = max(2, round(workload.flood_rate * seconds * FLOOD_SHARE))
    gap = _NS / workload.paced_rate
    burst = workload.paced_burst
    offsets = [round((index // burst) * burst * gap) for index in range(paced_count)]
    flood_offset = offsets[-1] + PHASE_GAP_NS
    offsets.extend([flood_offset] * flood_count)
    rng = random.Random(seed)
    values = workload.values(rng, paced_count + flood_count)
    return Schedule(offsets, values, paced_count, flood_offset, workload.paced_rate)


# ----------------------------------------------------------------------
# chain_gts / chain_process: the Fig. 7 selection chain
# ----------------------------------------------------------------------
CHAIN_SELECTIVITIES = (0.998, 0.996, 0.994, 0.992, 0.990)


def _chain_values(rng: random.Random, count: int) -> List[int]:
    return [rng.getrandbits(31) for _ in range(count)]


def _build_chain(backend: str) -> Callable[[Schedule, bool], Instance]:
    def build(schedule: Schedule, decoupled: bool) -> Instance:
        builder = QueryBuilder("chain")
        source = ScheduledSource(
            schedule.offsets, schedule.values, rate_per_second=schedule.paced_rate
        )
        sink = RecordingSink()
        stream = builder.source(source, name="src")
        for index, selectivity in enumerate(CHAIN_SELECTIVITIES):
            stream = stream.where_fraction(selectivity, name=f"sel{index}")
        stream.map(mix, name="map").into(sink)
        graph = builder.graph()
        if not decoupled:
            return Instance(graph, source, sink, "di", {})
        graph.decouple_all()
        return Instance(graph, source, sink, "gts", {"backend": backend})

    return build


def _offset_from_timestamp(timestamp: int, schedule: Schedule) -> int:
    return timestamp


# ----------------------------------------------------------------------
# window_hmts: keyed sliding average under HMTS with permit contention
# ----------------------------------------------------------------------
#: Event-time spacing of consecutive inputs, ns.
WINDOW_GAP_NS = 1_000
#: Window length in inputs (event time = inputs * gap).
WINDOW_INPUTS = 512
#: Number of groups and Zipf exponent of the key distribution.
WINDOW_GROUPS = 64
WINDOW_ZIPF_ALPHA = 1.2
#: Declared per-element cost of the window aggregate (ns), close to what
#: it measures at the window size above; Algorithm 1 places queues from it.
WINDOW_AGG_COST_NS = 60_000.0
#: Source rate Algorithm 1 places queues for: the flood's peak, about what
#: the source emits at when all elements are due at once.  At this rate
#: the window aggregate and the last filter get a queue each, so HMTS runs
#: two level-2 units.
WINDOW_PLACEMENT_RATE = 10_000.0


def _zipf_cum_weights(groups: int, alpha: float) -> List[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, groups + 1):
        total += 1.0 / rank**alpha
        cumulative.append(total)
    return cumulative


def _window_values(rng: random.Random, count: int) -> List[tuple]:
    cumulative = _zipf_cum_weights(WINDOW_GROUPS, WINDOW_ZIPF_ALPHA)
    keys = rng.choices(range(WINDOW_GROUPS), cum_weights=cumulative, k=count)
    return [(index, key, rng.randrange(1000)) for index, key in enumerate(keys)]


def _build_window(schedule: Schedule, decoupled: bool) -> Instance:
    builder = QueryBuilder("window")
    source = ScheduledSource(
        schedule.offsets, schedule.values, rate_per_second=WINDOW_PLACEMENT_RATE
    )
    sink = RecordingSink()
    (
        builder.source(source, name="src")
        .through(EventTime(WINDOW_GAP_NS))
        .where(keep_nonzero_mod8, cost_ns=500.0, selectivity=0.875, name="filter-in")
        .through(
            WindowedAggregate(
                WINDOW_INPUTS * WINDOW_GAP_NS,
                "avg",
                key_fn=itemgetter(1),
                value_fn=itemgetter(2),
                name="window-avg",
                declared_cost_ns=WINDOW_AGG_COST_NS,
            )
        )
        .where(keep_avg_above, cost_ns=500.0, selectivity=0.8, name="filter-out")
        .into(sink)
    )
    graph = builder.graph()
    if not decoupled:
        return Instance(graph, source, sink, "di", {})
    derive_rates(graph)
    placement = stall_avoiding_partitioning(graph, include_sources=True)
    placement.apply(graph)
    return Instance(
        graph, source, sink, placement.partitioning, {"max_concurrency": 1}
    )


def _offset_from_sequence(timestamp: int, schedule: Schedule) -> int:
    return schedule.offsets[timestamp // WINDOW_GAP_NS]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="chain_gts",
            why=(
                "Fig. 7 selection chain, fully decoupled, GTS, threads: near-free "
                "kernels, so DI dispatch, queues and strategy dominate; paced at "
                "2000 el/s in bursts of 100"
            ),
            backend="thread",
            paced_rate=2_000.0,
            paced_burst=100,
            flood_rate=7_000.0,
            values=_chain_values,
            build=_build_chain("thread"),
            result_offset=_offset_from_timestamp,
        ),
        Workload(
            name="window_hmts",
            why=(
                "Zipf-keyed sliding avg placed by Algorithm 1, HMTS with two units "
                "under one permit: window kernel and permit waits dominate; paced "
                "at 1500 el/s in bursts of 150"
            ),
            backend="thread",
            paced_rate=1_500.0,
            paced_burst=150,
            flood_rate=5_000.0,
            values=_window_values,
            build=_build_window,
            result_offset=_offset_from_sequence,
        ),
        Workload(
            name="chain_process",
            why=(
                "chain_gts graph and mode on the process backend: every queue hop "
                "pickles through a shared-memory ring, so transport dominates; "
                "paced at 1000 el/s in bursts of 50"
            ),
            backend="process",
            paced_rate=1_000.0,
            paced_burst=50,
            flood_rate=3_500.0,
            values=_chain_values,
            build=_build_chain("process"),
            result_offset=_offset_from_timestamp,
        ),
    )
}
