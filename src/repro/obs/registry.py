"""Lock-minimal metric instruments and the per-engine registry.

Design constraints (DRS-style continuous collection without paying for
it on the hot path):

* **Writers never take a registry lock.**  Every instrument is a small
  ``__slots__`` object whose fields are updated with plain attribute
  arithmetic.  Writers are already serialized per entity — the
  dispatcher updates an operator's instrument inside that node's
  dispatch lock (or from the single thread that owns the node), the
  thread scheduler updates unit instruments under its own gate lock,
  and each queue/partition instrument has exactly one writer thread.
  The registry lock guards only instrument *creation*, which happens
  once per entity.
* **Readers tolerate torn views.**  ``snapshot()`` reads live fields
  without stopping writers; a snapshot is a monitoring view, not a
  barrier.  (Engines additionally take one final snapshot after all
  workers have quiesced, which *is* exact.)
* **Aggregation is sum-by-construction.**  In the process backend every
  worker keeps its own registry and ships whole snapshots; an entity's
  counters are only ever incremented by the worker that owns it, so the
  parent's merged view (:func:`merge_snapshots`) sums counters, maxes
  high-water marks, and keeps the heaviest-weighted EWMA.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Ewma",
    "OperatorMetrics",
    "QueueMetrics",
    "PartitionMetrics",
    "SchedulerUnitMetrics",
    "MetricsRegistry",
    "merge_snapshots",
]


class Counter:
    """A monotonically increasing count (single writer, lock-free)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value with its high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value


#: Smoothing factor shared by every instrument EWMA (including the
#: float-inlined ones in :class:`OperatorMetrics`).
EWMA_ALPHA = 0.2


class Ewma:
    """Exponentially weighted moving average (rates, latencies).

    The first observation seeds the average directly; later ones are
    blended with weight ``alpha`` (validated once here, never on the
    hot path).
    """

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float = EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.count = 0

    def reset(self) -> None:
        self.value = None
        self.count = 0

    def observe(self, sample: float) -> None:
        value = self.value
        if value is None:
            self.value = float(sample)
        else:
            self.value = value + self.alpha * (sample - value)
        self.count += 1


class OperatorMetrics:
    """Per-operator instruments fed by the dispatcher.

    ``observe(n_in, n_out, service_ns, first_ts, last_ts)`` is called
    once per operator invocation (scalar or batch) while the caller
    holds that node's dispatch serialization, so no further locking is
    needed.
    """

    __slots__ = (
        "elements_in",
        "elements_out",
        "invocations",
        "service_ns_total",
        "service_ns_ewma",
        "batch_size_ewma",
        "first_arrival_ns",
        "last_arrival_ns",
    )

    def __init__(self) -> None:
        self.elements_in = 0
        self.elements_out = 0
        self.invocations = 0
        self.service_ns_total = 0
        # EWMAs kept as plain floats (not Ewma objects): observe() runs
        # once per operator invocation on the dispatch hot path, and the
        # inlined update saves two method calls per invocation.
        self.service_ns_ewma: Optional[float] = None
        self.batch_size_ewma: Optional[float] = None
        self.first_arrival_ns: Optional[int] = None
        self.last_arrival_ns: Optional[int] = None

    def observe(
        self,
        n_in: int,
        n_out: int,
        service_ns: int,
        first_ts: int,
        last_ts: int,
    ) -> None:
        self.elements_in += n_in
        self.elements_out += n_out
        self.invocations += 1
        self.service_ns_total += service_ns
        per_element = service_ns / n_in
        ewma = self.service_ns_ewma
        self.service_ns_ewma = (
            per_element
            if ewma is None
            else ewma + EWMA_ALPHA * (per_element - ewma)
        )
        ewma = self.batch_size_ewma
        self.batch_size_ewma = (
            float(n_in) if ewma is None else ewma + EWMA_ALPHA * (n_in - ewma)
        )
        if self.first_arrival_ns is None:
            self.first_arrival_ns = first_ts
        self.last_arrival_ns = last_ts

    @property
    def selectivity(self) -> Optional[float]:
        """Measured output/input ratio, None before any input."""
        if self.elements_in == 0:
            return None
        return self.elements_out / self.elements_in

    @property
    def interarrival_ns(self) -> Optional[float]:
        """Mean arrival gap ``d(v)`` over the observed timestamp span."""
        if (
            self.first_arrival_ns is None
            or self.last_arrival_ns is None
            or self.elements_in < 2
        ):
            return None
        span = self.last_arrival_ns - self.first_arrival_ns
        if span <= 0:
            return None
        return span / (self.elements_in - 1)

    @property
    def rate_per_second(self) -> Optional[float]:
        """Input rate ``1 / d(v)``, for nanosecond element timestamps."""
        gap = self.interarrival_ns
        return None if gap is None else 1e9 / gap

    @property
    def utilization(self) -> Optional[float]:
        """``c(v) / d(v)``: fraction of time the operator is busy.

        Above 1.0 the operator cannot keep pace with its input and by
        itself already needs decoupling from its upstream.
        """
        cost, gap = self.service_ns_ewma, self.interarrival_ns
        if cost is None or gap is None:
            return None
        return cost / gap

    def to_dict(self) -> dict:
        return {
            "elements_in": self.elements_in,
            "elements_out": self.elements_out,
            "invocations": self.invocations,
            "service_ns_total": self.service_ns_total,
            "service_ns_ewma": self.service_ns_ewma,
            "batch_size_ewma": self.batch_size_ewma,
            "selectivity": self.selectivity,
            "interarrival_ns": self.interarrival_ns,
        }


class QueueMetrics:
    """Per-queue instruments (depth sampled, totals synced from the op)."""

    __slots__ = ("pushed", "depth", "high_water")

    def __init__(self) -> None:
        self.pushed = 0
        self.depth = 0
        self.high_water = 0

    def sync(self, depth: int, high_water: int, pushed: int) -> None:
        """Fold one ``QueueOperator.stats_view()`` reading in."""
        self.depth = depth
        if high_water > self.high_water:
            self.high_water = high_water
        if pushed > self.pushed:
            self.pushed = pushed

    def to_dict(self) -> dict:
        return {
            "pushed": self.pushed,
            "depth": self.depth,
            "high_water": self.high_water,
        }


class PartitionMetrics:
    """Per level-2 unit instruments fed by the partition worker loop."""

    __slots__ = ("grants", "elements", "service_ns_total", "batch_size_ewma")

    def __init__(self) -> None:
        self.grants = 0
        self.elements = 0
        self.service_ns_total = 0
        self.batch_size_ewma = Ewma()

    def observe_grant(self, elements: int, service_ns: int) -> None:
        self.grants += 1
        self.elements += elements
        self.service_ns_total += service_ns
        self.batch_size_ewma.observe(elements)

    def to_dict(self) -> dict:
        return {
            "grants": self.grants,
            "elements": self.elements,
            "service_ns_total": self.service_ns_total,
            "batch_size_ewma": self.batch_size_ewma.value,
        }


class SchedulerUnitMetrics:
    """Per level-3 unit instruments fed by the thread scheduler."""

    __slots__ = ("grants", "wait_ns_total", "run_ns_total", "boosts", "preemptions")

    def __init__(self) -> None:
        self.grants = 0
        self.wait_ns_total = 0
        self.run_ns_total = 0
        #: Grants won through aging over a higher-base-priority waiter
        #: (the starvation-prevention mechanism firing).
        self.boosts = 0
        #: Times the unit yielded its permit while a strictly
        #: higher-effective-priority waiter took over (the cooperative
        #: batch-boundary preemption of the real-thread TS).
        self.preemptions = 0

    def to_dict(self) -> dict:
        return {
            "grants": self.grants,
            "wait_ns_total": self.wait_ns_total,
            "run_ns_total": self.run_ns_total,
            "boosts": self.boosts,
            "preemptions": self.preemptions,
        }


_SECTIONS = ("operators", "queues", "partitions", "scheduler")

#: Per section: fields merged by summation across worker snapshots.
_SUM_FIELDS = {
    "operators": (
        "elements_in",
        "elements_out",
        "invocations",
        "service_ns_total",
    ),
    "queues": ("pushed",),
    "partitions": ("grants", "elements", "service_ns_total"),
    "scheduler": (
        "grants",
        "wait_ns_total",
        "run_ns_total",
        "boosts",
        "preemptions",
    ),
}

#: Per section: fields merged by max (monotone high-water marks).
_MAX_FIELDS = {"queues": ("high_water",)}

#: Per section: point-in-time fields (last writer wins).
_LAST_FIELDS = {"queues": ("depth",)}

#: Per section: EWMA/derived fields kept from the heaviest contributor,
#: weighted by the named counter field.
_WEIGHTED_FIELDS = {
    "operators": (
        ("service_ns_ewma", "elements_in"),
        ("batch_size_ewma", "elements_in"),
        ("selectivity", "elements_in"),
        ("interarrival_ns", "elements_in"),
    ),
    "partitions": (("batch_size_ewma", "grants"),),
}


class MetricsRegistry:
    """All instruments of one engine run (or one worker process).

    Instruments are created lazily per entity name; creation takes the
    registry lock once, every later update is lock-free (see module
    docstring for why this is safe).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._operators: Dict[str, OperatorMetrics] = {}
        self._queues: Dict[str, QueueMetrics] = {}
        self._partitions: Dict[str, PartitionMetrics] = {}
        self._scheduler: Dict[str, SchedulerUnitMetrics] = {}

    def _get(self, table: Dict[str, object], name: str, factory):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = factory()
                    table[name] = instrument
        return instrument

    def operator(self, name: str) -> OperatorMetrics:
        """The per-operator instrument set for ``name``."""
        return self._get(self._operators, name, OperatorMetrics)

    def queue(self, name: str) -> QueueMetrics:
        """The per-queue instrument set for ``name``."""
        return self._get(self._queues, name, QueueMetrics)

    def partition(self, name: str) -> PartitionMetrics:
        """The per level-2 unit instrument set for ``name``."""
        return self._get(self._partitions, name, PartitionMetrics)

    def scheduler_unit(self, name: str) -> SchedulerUnitMetrics:
        """The per level-3 unit instrument set for ``name``."""
        return self._get(self._scheduler, name, SchedulerUnitMetrics)

    def snapshot(self) -> dict:
        """One JSON-able view over every instrument.

        Taken without stopping writers; exact only after quiescence
        (engines take the authoritative snapshot after the run ends).
        """
        return {
            "operators": {
                name: m.to_dict() for name, m in sorted(self._operators.items())
            },
            "queues": {
                name: m.to_dict() for name, m in sorted(self._queues.items())
            },
            "partitions": {
                name: m.to_dict() for name, m in sorted(self._partitions.items())
            },
            "scheduler": {
                name: m.to_dict() for name, m in sorted(self._scheduler.items())
            },
        }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Aggregate per-worker registry snapshots into one engine view.

    Every entity's counters are incremented by exactly one worker at a
    time (disjoint DI regions; a queue's producer and consumer sides
    update different fields), so counters sum, high-water marks max,
    point-in-time gauges take the last report, and EWMAs keep the value
    from the snapshot that observed the most elements.  Entities that
    moved between workers mid-run (reconfigure) contribute one partial
    count per worker — the sum is still the run total.
    """
    merged: dict = {section: {} for section in _SECTIONS}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for section in _SECTIONS:
            sums = _SUM_FIELDS.get(section, ())
            maxes = _MAX_FIELDS.get(section, ())
            lasts = _LAST_FIELDS.get(section, ())
            weighted = _WEIGHTED_FIELDS.get(section, ())
            for name, entry in snapshot.get(section, {}).items():
                out = merged[section].setdefault(name, {})
                for field in sums:
                    out[field] = out.get(field, 0) + entry.get(field, 0)
                for field in maxes:
                    out[field] = max(out.get(field, 0), entry.get(field, 0))
                for field in lasts:
                    if field in entry:
                        out[field] = entry[field]
                for field, weight_field in weighted:
                    weight = entry.get(weight_field, 0) or 0
                    if entry.get(field) is None:
                        out.setdefault(field, None)
                        continue
                    if weight >= out.get(f"_w_{field}", -1):
                        out[field] = entry[field]
                        out[f"_w_{field}"] = weight
    for section in _SECTIONS:
        for entry in merged[section].values():
            for key in [k for k in entry if k.startswith("_w_")]:
                del entry[key]
    # Recompute cross-field derivations from the summed counters where
    # possible (more faithful than any single worker's view).
    for entry in merged["operators"].values():
        if entry.get("elements_in"):
            entry["selectivity"] = entry.get("elements_out", 0) / entry["elements_in"]
    return merged
