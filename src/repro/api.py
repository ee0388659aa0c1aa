"""Unified engine facade: one construction path for every backend.

The backends are built in different ways —
``ThreadedEngine(graph, config)``, ``ProcessEngine(graph, config)`` —
each with its own knob spelling and error surface.  This module is the
single public entry point:

* :meth:`Engine.from_graph` builds the right backend engine from a
  graph, an optional partitioning (in any of the shapes users actually
  have in hand: a mode name, a :class:`~repro.core.partition.Partitioning`,
  queue groups, or explicit :class:`~repro.core.modes.PartitionSpec`
  lists), and an optional :class:`~repro.core.modes.EngineConfig`,
  with keyword knobs (``backend=``, ``observe=``, ``batch_size=``,
  ``sanitize=``, ``spsc_queues=``, ...) validated against the config
  schema and applied on top.
* :func:`open_engine` is the context-manager spelling; it guarantees
  teardown (abort + join of worker threads/processes) on exit, even
  when the body raises.

Both backends expose the same surface through the facade
(``run``/``start``/``join``/``abort``/``pause``/``resume``/
``set_priority``/``reconfigure``/``close``) and the same error
contract: a failed run populates ``EngineReport.failure`` *and* raises
(:class:`~repro.errors.SchedulingError` or
:class:`~repro.errors.SanitizerError`) with the report attached on the
exception's ``.report``; pass ``raise_on_failure=False`` to
:meth:`Engine.run` to get the report back instead.

Example::

    from repro import open_engine

    with open_engine(graph, "gts", observe=True) as eng:
        report = eng.run(timeout=30.0)
    print(report.metrics["operators"])
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union

from repro.core.engine import EngineReport, ThreadedEngine
from repro.core.modes import (
    EngineConfig,
    PartitionSpec,
    SchedulingMode,
    di_config,
    gts_config,
    hmts_config,
    ots_config,
)
from repro.core.partition import Partitioning
from repro.core.strategies import SchedulingStrategy
from repro.errors import SchedulingError
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import EventTracer, MetricsRegistry

__all__ = ["Engine", "open_engine", "PartitioningLike"]

#: Everything :meth:`Engine.from_graph` accepts as a partitioning:
#: ``None`` (derive from the config, or default to GTS/DI), a mode name
#: (``"di"``/``"gts"``/``"ots"``) or :class:`SchedulingMode`, an
#: operator-level :class:`Partitioning`, one or more
#: :class:`PartitionSpec`, or explicit queue groups (sequence of
#: sequences of queue nodes, as for ``hmts_config``).
PartitioningLike = Union[
    None,
    str,
    SchedulingMode,
    Partitioning,
    PartitionSpec,
    Sequence[PartitionSpec],
    Sequence[Sequence[Node]],
]

# Knobs callers may pass as keywords: every EngineConfig field except
# the two structural ones the facade itself computes.
_STRUCTURAL_FIELDS = ("mode", "partitions")
_KNOB_NAMES = frozenset(
    f.name for f in dataclasses.fields(EngineConfig)
) - frozenset(_STRUCTURAL_FIELDS)


def _mode_skeleton(
    graph: QueryGraph,
    partitioning: PartitioningLike,
    strategy: Union[str, SchedulingStrategy],
) -> Optional[EngineConfig]:
    """Turn any accepted partitioning shape into a (mode, partitions)
    carrier config, or None when the caller did not constrain it."""
    if partitioning is None:
        return None
    if isinstance(partitioning, SchedulingMode):
        partitioning = partitioning.value
    if isinstance(partitioning, str):
        name = partitioning.lower()
        if name == "di":
            return di_config(graph)
        if name == "gts":
            return gts_config(graph, strategy)
        if name == "ots":
            return ots_config(graph)
        raise SchedulingError(
            f"unknown scheduling mode {partitioning!r}; use 'di', 'gts', "
            "'ots', or pass explicit queue groups / PartitionSpecs / a "
            "Partitioning for HMTS"
        )
    if isinstance(partitioning, Partitioning):
        return hmts_config(
            graph, partitioning.queue_groups(graph), strategies=strategy
        )
    if isinstance(partitioning, PartitionSpec):
        partitioning = [partitioning]
    specs = list(partitioning)
    if not specs:
        raise SchedulingError("an explicit partitioning must be non-empty")
    if all(isinstance(spec, PartitionSpec) for spec in specs):
        mode = (
            SchedulingMode.HMTS if len(specs) > 1 else SchedulingMode.GTS
        )
        return EngineConfig(mode=mode, partitions=specs)
    # Queue groups (sequence of sequences of queue nodes).
    return hmts_config(graph, specs, strategies=strategy)


def _normalize_config(
    graph: QueryGraph,
    partitioning: PartitioningLike,
    config: Optional[EngineConfig],
    strategy: Union[str, SchedulingStrategy],
    knobs: dict,
) -> EngineConfig:
    unknown = sorted(set(knobs) - _KNOB_NAMES)
    if unknown:
        raise SchedulingError(
            "unknown engine knob(s) "
            + ", ".join(repr(k) for k in unknown)
            + "; valid knobs: "
            + ", ".join(sorted(_KNOB_NAMES))
        )
    skeleton = _mode_skeleton(graph, partitioning, strategy)
    if config is None:
        if skeleton is None:
            # Sensible default: schedule every queue from one thread
            # (GTS); a queue-free graph can only run pure-DI.
            skeleton = (
                gts_config(graph, strategy)
                if graph.queues()
                else di_config(graph)
            )
        return dataclasses.replace(skeleton, **knobs) if knobs else skeleton
    replacements = dict(knobs)
    if skeleton is not None:
        replacements["mode"] = skeleton.mode
        replacements["partitions"] = skeleton.partitions
    # replace() re-runs __post_init__, i.e. re-validates the knobs.
    return (
        dataclasses.replace(config, **replacements) if replacements else config
    )


class Engine:
    """Backend-agnostic facade over a constructed execution engine.

    Build one with :meth:`from_graph` (or :func:`open_engine`); the
    facade forwards the common engine surface to the backend instance
    and exposes backend extras through attribute delegation.  The
    wrapped engine is available as :attr:`inner` when backend-specific
    access is genuinely needed.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: QueryGraph,
        partitioning: PartitioningLike = None,
        config: Optional[EngineConfig] = None,
        *,
        strategy: Union[str, SchedulingStrategy] = "fifo",
        **knobs,
    ) -> "Engine":
        """Build the engine for ``config.backend`` from any partitioning shape.

        Args:
            graph: The (decoupled, unless pure-DI) query graph.
            partitioning: See :data:`PartitioningLike`.  When both
                ``partitioning`` and ``config`` are given, the
                partitioning wins for ``mode``/``partitions`` and the
                config supplies everything else.
            config: A full :class:`EngineConfig`; keyword knobs are
                applied on top of it (the original is not mutated).
            strategy: Level-2 strategy used when the facade builds the
                partitions itself (mode names, ``Partitioning``, queue
                groups); ignored for explicit ``PartitionSpec`` input.
            **knobs: Any non-structural :class:`EngineConfig` field —
                ``backend``, ``observe``, ``batch_size``, ``sanitize``,
                ``spsc_queues``, ``max_concurrency``, ...  Unknown
                names raise :class:`SchedulingError` listing the valid
                set.

        Returns:
            An :class:`Engine` wrapping a
            :class:`~repro.core.engine.ThreadedEngine` or a
            :class:`~repro.mp.process_engine.ProcessEngine`.
        """
        resolved = _normalize_config(graph, partitioning, config, strategy, knobs)
        if resolved.backend != "process":
            return cls(ThreadedEngine(graph, resolved))
        # Imported lazily so thread-backend users never load multiprocessing.
        from repro.mp.process_engine import ProcessEngine

        return cls(ProcessEngine(graph, resolved))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inner(self):
        """The wrapped backend engine instance."""
        return self._inner

    @property
    def backend(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._inner.config.backend

    @property
    def config(self) -> EngineConfig:
        return self._inner.config

    @property
    def graph(self) -> QueryGraph:
        return self._inner.graph

    @property
    def metrics(self) -> Optional["MetricsRegistry"]:
        """The live metrics registry (None unless ``observe`` is on)."""
        return self._inner.metrics

    @property
    def tracer(self) -> Optional["EventTracer"]:
        """The live event tracer (None unless ``observe`` is on)."""
        return self._inner.tracer

    # ------------------------------------------------------------------
    # Common engine surface
    # ------------------------------------------------------------------
    def run(
        self,
        timeout: Optional[float] = None,
        raise_on_failure: bool = True,
    ) -> EngineReport:
        """Execute the graph to completion (blocking); see backend docs."""
        return self._inner.run(timeout=timeout, raise_on_failure=raise_on_failure)

    def start(self) -> None:
        """Start workers without blocking."""
        self._inner.start()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for completion; True when every worker finished."""
        return self._inner.join(timeout)

    def abort(self) -> None:
        """Ask every worker to exit at the next safe point."""
        self._inner.abort()

    def pause(self, *args, **kwargs):
        """Quiesce all workers (see backend docs for snapshot options)."""
        return self._inner.pause(*args, **kwargs)

    def resume(self) -> None:
        """Resume after :meth:`pause`."""
        self._inner.resume()

    def set_priority(self, partition_name: str, priority: float) -> None:
        """Adapt a partition's level-3 priority at runtime."""
        self._inner.set_priority(partition_name, priority)

    def reconfigure(self, partitions: List[PartitionSpec]) -> None:
        """Switch the partition layout mid-run (OTS<->GTS<->HMTS)."""
        self._inner.reconfigure(partitions)

    def close(self) -> None:
        """Tear down whatever is still running (idempotent)."""
        self._inner.close()

    # Backend extras (insert_queue_runtime, thread_scheduler, ...) stay
    # reachable without widening the facade's guaranteed surface.
    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Engine backend={self.backend!r} "
            f"mode={self.config.mode.value!r} "
            f"inner={type(self._inner).__name__}>"
        )


@contextmanager
def open_engine(
    graph: QueryGraph,
    partitioning: PartitioningLike = None,
    config: Optional[EngineConfig] = None,
    *,
    strategy: Union[str, SchedulingStrategy] = "fifo",
    **knobs,
) -> Iterator[Engine]:
    """Context-manager spelling of :meth:`Engine.from_graph`.

    Guarantees teardown on exit: worker threads/processes are aborted
    and joined even when the body raises, so a failed experiment never
    leaks a running engine.

    ::

        with open_engine(graph, "gts", backend="process", observe=True) as eng:
            report = eng.run(timeout=30.0)
    """
    engine = Engine.from_graph(
        graph, partitioning, config, strategy=strategy, **knobs
    )
    try:
        yield engine
    finally:
        engine.close()
