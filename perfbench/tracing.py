"""Layer spans recorded from outside the engine.

The traced run wraps the public entry points of each engine layer at
class (or module) level; nothing inside ``src/`` changes.  Each wrapped
call is a span on a per-thread stack, timed on the calling thread's CPU
clock: with two Python threads sharing the interpreter lock, a wall-clock
span would also count the time its thread waited for the lock.  A span's
*self* time is its CPU time minus that of its nested spans, so self times
of all layers add up without double counting; the CPU time of top-level
spans is the covered time that ``residual_frac`` compares with the run's
CPU time.

Wait spans (level-3 permit waits) are the exception: they measure
waiting, so they run on the wall clock and stay out of the span stack.

On the process backend the wrappers are installed before the fork, so
workers inherit them; the worker entry points referenced from
``repro.mp.process_engine`` are wrapped too, so each worker starts from
zeroed totals and writes them to ``dump_dir`` when it exits.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "Totals"]

# Slots kept per layer and thread: self time, inclusive time, calls, and
# the two increments a measure function returns.
_SELF_NS, _TOTAL_NS, _CALLS, _COUNT, _FLAG = range(5)
_SLOTS = 5

# A measure function maps (args, result) to (count, flag) increments.
Measure = Callable[[tuple, Any], Tuple[int, int]]


def _size(items: Any) -> int:
    return len(items) if hasattr(items, "__len__") else 1


def _first_timestamp(items: Any) -> int:
    element = items[0] if isinstance(items, list) else items
    return element.timestamp


class _ThreadState:
    """Span stack and per-layer totals of one thread."""

    def __init__(self, layers: int) -> None:
        self.stack: List[int] = []
        self.slots = [[0] * _SLOTS for _ in range(layers)]
        #: CPU time spent inside top-level spans.
        self.covered_ns = 0
        #: ``(schedule offset, monotonic emission ns)`` per source emission.
        self.emits: List[Tuple[int, int]] = []


class Totals:
    """Merged per-layer totals of one or more threads and processes."""

    def __init__(self) -> None:
        self.slots: Dict[str, List[int]] = {}
        self.covered_ns = 0
        self.emits: List[Tuple[int, int]] = []

    def add(self, snapshot: dict) -> None:
        for name, values in snapshot["slots"].items():
            total = self.slots.setdefault(name, [0] * _SLOTS)
            for index, value in enumerate(values):
                total[index] += value
        self.covered_ns += snapshot["covered_ns"]
        self.emits.extend(snapshot["emits"])

    def _get(self, layer: str, slot: int) -> int:
        return self.slots.get(layer, (0,) * _SLOTS)[slot]

    def self_ns(self, layer: str) -> int:
        return self._get(layer, _SELF_NS)

    def total_ns(self, layer: str) -> int:
        return self._get(layer, _TOTAL_NS)

    def calls(self, layer: str) -> int:
        return self._get(layer, _CALLS)

    def count(self, layer: str) -> int:
        return self._get(layer, _COUNT)

    def flags(self, layer: str) -> int:
        return self._get(layer, _FLAG)


class Tracer:
    """Installs span wrappers on the engine's layer entry points.

    Args:
        kernel_classes: Operator classes whose ``process`` and
            ``process_batch`` are timed as ``kernel.<ClassName>``.
        dump_dir: Where forked workers write their totals.
    """

    def __init__(self, kernel_classes: Iterable[type], dump_dir: Path) -> None:
        self.kernel_classes = sorted(set(kernel_classes), key=lambda cls: cls.__name__)
        self.dump_dir = dump_dir
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._reset_state()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        """Drop all totals; every thread starts a fresh state."""
        self._lock = threading.Lock()
        self._registry: List[_ThreadState] = []
        self._local = threading.local()

    def _state(self) -> _ThreadState:
        """The calling thread's state, registered on first use."""
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.layers))
            with self._lock:
                self._registry.append(state)
            self._local.state = state
            return state

    def _layer(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
        return self._index[name]

    def snapshot(self) -> dict:
        """Totals of every thread of this process seen so far."""
        slots = {name: [0] * _SLOTS for name in self.layers}
        covered_ns = 0
        emits: List[Tuple[int, int]] = []
        with self._lock:
            states = list(self._registry)
        for state in states:
            for name, values in zip(self.layers, state.slots):
                total = slots[name]
                for index, value in enumerate(values):
                    total[index] += value
            covered_ns += state.covered_ns
            emits.extend(state.emits)
        return {"slots": slots, "covered_ns": covered_ns, "emits": emits}

    def collect(self) -> Totals:
        """This process's totals plus every worker dump, merged."""
        totals = Totals()
        totals.add(self.snapshot())
        for path in sorted(self.dump_dir.glob("*.trace")):
            with path.open("rb") as handle:
                totals.add(pickle.load(handle))
        return totals

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(
        self,
        layer_name: str,
        func: Callable,
        measure: Optional[Measure] = None,
        emission: bool = False,
    ) -> Callable:
        """Wrap ``func`` as a CPU-time span of ``layer_name``.

        ``emission`` spans record, when they are top level (a source
        handing an element to the graph), the element's schedule offset
        and the monotonic emission instant.
        """
        layer = self._layer(layer_name)
        tracer = self
        clock = time.thread_time_ns

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if emission and not stack:
                state.emits.append((_first_timestamp(args[2]), time.monotonic_ns()))
            stack.append(0)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                slots = state.slots[layer]
                slots[_SELF_NS] += elapsed - stack.pop()
                slots[_TOTAL_NS] += elapsed
                slots[_CALLS] += 1
                if measure is not None:
                    count, flag = measure(args, result)
                    slots[_COUNT] += count
                    slots[_FLAG] += flag
                if stack:
                    stack[-1] += elapsed
                else:
                    state.covered_ns += elapsed

        return wrapper

    def _wait(self, layer_name: str, func: Callable, measure: Measure) -> Callable:
        """Wrap ``func`` as a wall-clock wait of ``layer_name``."""
        layer = self._layer(layer_name)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = func(*args, **kwargs)
            slots = tracer._state().slots[layer]
            slots[_TOTAL_NS] += clock() - start
            slots[_CALLS] += 1
            count, flag = measure(args, result)
            slots[_COUNT] += count
            slots[_FLAG] += flag
            return result

        return wrapper

    def _counter(self, layer_name: str, func: Callable, measure: Measure) -> Callable:
        """Wrap ``func`` to count only (no span, no time)."""
        layer = self._layer(layer_name)
        tracer = self

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            count, flag = measure(args, result)
            slots = tracer._state().slots[layer]
            slots[_COUNT] += count
            slots[_FLAG] += flag
            return result

        return wrapper

    def _patch(self, owner: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
        had_own = name in vars(owner)
        original = getattr(owner, name)
        self._patches.append((owner, name, had_own, original))
        setattr(owner, name, wrap(original))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, process_backend: bool) -> None:
        """Wrap every layer entry point (call before building engines)."""
        from repro.core.dataflow import Dispatcher
        from repro.core.strategies import _STRATEGY_FACTORIES  # type: ignore[attr-defined]
        from repro.core.thread_scheduler import ThreadScheduler
        from repro.operators.queue_op import QueueOperator

        def grant(args: tuple, processed: Any) -> Tuple[int, int]:
            processed = processed or 0
            return processed, int(processed == 0)

        def pushed(args: tuple, result: Any) -> Tuple[int, int]:
            return _size(args[1]), 0

        def popped(args: tuple, result: Any) -> Tuple[int, int]:
            if result is None:
                return 0, 0
            return (len(result) if isinstance(result, list) else 1), 0

        def permit(args: tuple, granted: Any) -> Tuple[int, int]:
            return int(bool(granted)), int(not granted)

        span = self._span
        for name in ("inject", "inject_batch"):
            self._patch(Dispatcher, name, lambda f: span("dispatch", f, emission=True))
        self._patch(Dispatcher, "inject_end", lambda f: span("dispatch", f))
        self._patch(Dispatcher, "run_queue", lambda f: span("partition.run_queue", f, grant))
        for cls in self.kernel_classes:
            layer = f"kernel.{cls.__name__}"
            for name in ("process", "process_batch"):
                self._patch(cls, name, lambda f, layer=layer: span(layer, f))
        queue_classes: List[type] = [QueueOperator]
        if process_backend:
            from repro.mp.queues import RingQueue

            queue_classes.append(RingQueue)
        for cls in queue_classes:
            for name in ("push", "push_many", "_push_spsc", "_push_many_spsc"):
                if name in vars(cls):
                    self._patch(cls, name, lambda f: span("queue.push", f, pushed))
            for name in ("try_pop", "pop_many", "_try_pop_spsc", "_pop_many_spsc"):
                if name in vars(cls):
                    self._patch(cls, name, lambda f: span("queue.pop", f, popped))
        for cls in set(_STRATEGY_FACTORIES.values()):
            if "select" in vars(cls):
                self._patch(cls, "select", lambda f: span("strategy.select", f))
        self._patch(
            ThreadScheduler, "acquire", lambda f: self._wait("ts.acquire", f, permit)
        )
        if process_backend:
            self._install_transport()
        # Thread states created before now have too few layer slots.
        self._reset_state()

    def _install_transport(self) -> None:
        from repro.mp import process_engine
        from repro.mp.ring import ShmRing

        def encoded(args: tuple, ok: Any) -> Tuple[int, int]:
            return _size(args[1]), int(not ok)

        def written(args: tuple, ok: Any) -> Tuple[int, int]:
            return (len(args[1]) if ok else 0), 0

        def decoded(args: tuple, batches: Any) -> Tuple[int, int]:
            return sum(len(batch) for batch in batches or ()), 0

        self._patch(
            ShmRing, "try_push_batch", lambda f: self._span("ring.encode", f, encoded)
        )
        self._patch(
            ShmRing, "try_push_bytes", lambda f: self._counter("ring.bytes", f, written)
        )
        self._patch(
            ShmRing, "pop_batches", lambda f: self._span("ring.decode", f, decoded)
        )
        for name in ("partition_worker_main", "source_worker_main"):
            self._patch(process_engine, name, self._worker_entry)

    def _worker_entry(self, func: Callable) -> Callable:
        """Worker main that starts from zero and dumps its totals on exit."""
        tracer = self

        def entry(ctx: Any) -> None:
            tracer._reset_state()

            def stop(signum: int, frame: Any) -> None:
                raise SystemExit(0)

            # The parent may terminate a worker right after its "done"
            # message; unwind through the dump below instead of dying.
            signal.signal(signal.SIGTERM, stop)
            try:
                func(ctx)
            finally:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                try:
                    tracer._dump()
                finally:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)

        return entry

    def _dump(self) -> None:
        path = self.dump_dir / f"{os.getpid()}.trace"
        partial = path.with_suffix(".partial")
        with partial.open("wb") as handle:
            pickle.dump(self.snapshot(), handle, pickle.HIGHEST_PROTOCOL)
        os.replace(partial, path)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, name, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()
