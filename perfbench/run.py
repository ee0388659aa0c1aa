#!/usr/bin/env python3
"""End-to-end benchmark of the HMTS engine: open-loop latency and flood throughput.

Runs one workload (see ``perfbench/workloads.py``) through
``repro.open_engine`` at the default configuration, checks every sink
result against a single-threaded DI reference run of the same graph and
seed, and prints each metric by name with its unit.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the repository root::

    python3 perfbench/run.py --workload chain_gts --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --steadiness --repeats 10 [--workload W] [--trace 0]

``--seconds`` is split into ``ROUNDS`` engine runs of the same seeded
schedule.  ``--trace 0`` reports the end-to-end metrics, each the median
over the untraced rounds (``throughput_eps``, ``latency_p50_ms``,
``latency_p99_ms``, ``cpu_us_per_el``), plus ``setup_s``, the median of
``SETUP_PER_ROUND`` constructions before each round.  Every workload
runs on one CPU, which an idle-priority spinner process keeps out of
idle (see ``start_spinners``).
``--trace 1`` makes one untraced round
and then one traced round with span wrappers on every engine layer
(``perfbench/tracing.py``) and reports the per-layer metrics.
``--steadiness`` repeats each workload in fresh processes with seeds
1..N and prints every metric's median and interquartile spread relative
to the median, flagging end-to-end metrics whose spread exceeds their
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Wall-clock cap of one engine run, seconds.
RUN_TIMEOUT_S = 60.0
#: Engine runs per measured run.  Each end-to-end metric is the median
#: of its per-round values, so a round disturbed by the machine does not
#: move it.
ROUNDS = 7
#: Constructions before each round; ``setup_s`` is the median of all.
SETUP_PER_ROUND = 5
#: Length of the discarded warm-up run, seconds.
WARMUP_SECONDS = 0.3

#: Per-layer metrics of ``--trace 1`` with their units, in output order.
KERNEL_CLASSES = (
    "SimulatedSelection",
    "MapOperator",
    "EventTime",
    "Selection",
    "WindowedAggregate",
)
PER_LAYER_UNITS: Dict[str, str] = {
    "source.lag_p99_ms": "ms",
    "dispatch.self_ns_per_el": "ns/el",
    "dispatch.invocations_per_el": "count/el",
    **{f"kernel.{name}.ns_per_el": "ns/el" for name in KERNEL_CLASSES},
    "queue.push_ns_per_el": "ns/el",
    "queue.pop_ns_per_el": "ns/el",
    "queue.peak_queued": "count",
    "strategy.select_ns_per_call": "ns",
    "strategy.selects_per_el": "count/el",
    "partition.run_queue_ns_per_el": "ns/el",
    "partition.el_per_grant": "el/grant",
    "partition.empty_grant_frac": "ratio",
    "ts.acquire_wait_ns_per_grant": "ns",
    "ts.denied_frac": "ratio",
    "ring.encode_ns_per_el": "ns/el",
    "ring.decode_ns_per_el": "ns/el",
    "ring.bytes_per_el": "B/el",
    "ring.full_frac": "ratio",
    "residual_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS: Dict[str, str] = {
    "throughput_eps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_us_per_el": "us",
    "setup_s": "s",
}


#: Body of a spinner: pinned to the CPU given as its argument, it runs
#: only when nothing else wants that CPU, and ends with the benchmark
#: even when the benchmark is killed.
_SPIN_CODE = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    pass
"""
_spinners: List[subprocess.Popen] = []


def start_spinners(cpus: Set[int]) -> None:
    """Keep each of ``cpus`` busy with an idle-priority spinner process.

    A paced run leaves its CPUs idle between bursts.  On a virtual
    machine an idle CPU is handed back to the host, and waking it when the
    next burst is due waits for the host to schedule it again: measured
    on a shared 2-CPU VM, these wake-ups made a paced run's latency
    percentiles vary by up to 40% between runs.  A spinner under
    ``SCHED_IDLE`` yields at once to any engine thread or worker, so it
    only fills time the CPU would have spent idle.  Its CPU time is not in
    ``cpu_us_per_el``: a child counts there only once reaped, and
    spinners are reaped after the last round.
    """
    for cpu in sorted(cpus):
        _spinners.append(
            subprocess.Popen(
                [sys.executable, "-c", _SPIN_CODE, str(cpu)], stdin=subprocess.DEVNULL
            )
        )


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    That is the spinners, the forked engine workers, if any outlived their
    engine, and the shared-memory resource tracker, which
    ``multiprocessing`` starts on the first ring and otherwise leaves
    running after this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    while _spinners:
        spinner = _spinners.pop()
        spinner.kill()
        spinner.wait()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    try:
        resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]
    except (ChildProcessError, OSError):
        pass
    # Backstop: any other child of this process.
    me = os.getpid()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) != me:
            continue
        pid = int(entry.name)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def _import_engine() -> None:
    """Put the checkout's engine sources first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


# ----------------------------------------------------------------------
# One engine run
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """What one engine run delivered and cost."""

    elements: list
    series: List[int]
    t0_ns: int
    cpu_ns: int
    report: Any
    leaked: List[str]


def _cpu_ns() -> int:
    """User+sys CPU of this process plus its reaped children, ns."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return int(total * 1e9)


def _shm_segments() -> Set[str]:
    """Names of the POSIX shared-memory segments the engine creates."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def run_engine(workload, schedule) -> RunRecord:
    """Build the workload graph and run it paced to completion."""
    from repro import open_engine

    instance = workload.build(schedule, True)
    before = _shm_segments()
    # The benchmark's own inputs and reference outputs are not the
    # engine's heap: keep them out of the collector's scans.
    gc.collect()
    gc.freeze()
    cpu_start = _cpu_ns()
    try:
        with open_engine(
            instance.graph, instance.partitioning, pace_sources=True, **instance.knobs
        ) as engine:
            report = engine.run(timeout=RUN_TIMEOUT_S, raise_on_failure=False)
    finally:
        cpu_ns = _cpu_ns() - cpu_start
        gc.unfreeze()
    record = RunRecord(
        elements=instance.sink.elements,
        series=instance.sink.series,
        t0_ns=instance.source.t0_ns,
        cpu_ns=cpu_ns,
        report=report,
        leaked=sorted(_shm_segments() - before),
    )
    instance.source.close()
    return record


def reference_results(workload, schedule) -> list:
    """Sink output of the queue-free graph under single-threaded DI."""
    from repro import open_engine

    instance = workload.build(schedule, False)
    with open_engine(instance.graph, "di") as engine:
        engine.run(timeout=RUN_TIMEOUT_S)
    instance.source.close()
    return instance.sink.elements


def measure_setup(workload, schedule) -> List[float]:
    """Seconds of graph build + placement + ``Engine.from_graph``, per try."""
    from repro import Engine

    samples = []
    for _ in range(SETUP_PER_ROUND):
        start = time.perf_counter()
        instance = workload.build(schedule, True)
        engine = Engine.from_graph(
            instance.graph, instance.partitioning, pace_sources=True, **instance.knobs
        )
        samples.append(time.perf_counter() - start)
        engine.close()
        instance.source.close()
    return samples


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
class Ledger:
    """Counts checked operations: sink results and shared-memory checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check_run(self, label: str, record: RunRecord, expected: list) -> None:
        self.attempted += len(expected)
        report = record.report
        if report.aborted or report.failure:
            self.failed += len(expected)
            self.notes.append(f"{label}: aborted={report.aborted} failure={report.failure}")
        else:
            got = record.elements
            wrong = sum(1 for want, have in zip(expected, got) if want != have)
            wrong += abs(len(expected) - len(got))
            self.failed += wrong
            if wrong:
                self.notes.append(
                    f"{label}: {wrong} of {len(expected)} results lost or different"
                )
        self.check_shm(label, record.leaked)

    def check_shm(self, label: str, leaked: Sequence[str]) -> None:
        self.attempted += 1
        if leaked:
            self.failed += 1
            self.notes.append(f"{label}: shared-memory segments survived: {list(leaked)}")


def _split_phases(workload, schedule, record: RunRecord):
    """Latencies (ms) of paced results and the flood's last delivery."""
    flood_at = schedule.flood_offset_ns
    latencies = []
    last_flood_ns: Optional[int] = None
    for (_, timestamp), delivered in zip(record.elements, record.series):
        offset = workload.result_offset(timestamp, schedule)
        if offset < flood_at:
            latencies.append((delivered - record.t0_ns - offset) / 1e6)
        else:
            last_flood_ns = delivered
    return latencies, last_flood_ns


def flood_throughput(workload, schedule, record: RunRecord) -> float:
    """Flood inputs per second from the flood's due time to its last result."""
    _, last = _split_phases(workload, schedule, record)
    if last is None:
        return 0.0
    elapsed_ns = last - (record.t0_ns + schedule.flood_offset_ns)
    return schedule.flood_count / (elapsed_ns / 1e9)


def _percentiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return 0.0, 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]


def round_metrics(workload, schedule, record: RunRecord) -> dict:
    """End-to-end metrics of one round (all but ``setup_s``)."""
    latencies, _ = _split_phases(workload, schedule, record)
    p50, p99 = _percentiles(latencies)
    metrics = {
        "throughput_eps": flood_throughput(workload, schedule, record),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "cpu_us_per_el": record.cpu_ns / 1e3 / len(schedule.offsets),
    }
    print(
        f"  {len(latencies)} latency samples: "
        + ", ".join(f"{name} {value:.6g}" for name, value in metrics.items())
    )
    return metrics


def per_layer_metrics(
    workload, schedule, plain: RunRecord, traced: RunRecord, totals
) -> dict:
    inputs = len(schedule.offsets)

    def per_el(value: float) -> float:
        return value / inputs

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    flood_at = schedule.flood_offset_ns
    lags = [
        (emitted - traced.t0_ns - offset) / 1e6
        for offset, emitted in totals.emits
        if offset < flood_at
    ]
    metrics = {
        "source.lag_p99_ms": _percentiles(lags)[1],
        "dispatch.self_ns_per_el": per_el(totals.self_ns("dispatch")),
        "dispatch.invocations_per_el": per_el(traced.report.invocations),
    }
    for name in KERNEL_CLASSES:
        metrics[f"kernel.{name}.ns_per_el"] = per_el(totals.self_ns(f"kernel.{name}"))
    grants = totals.calls("partition.run_queue")
    metrics.update(
        {
            "queue.push_ns_per_el": per_el(totals.self_ns("queue.push")),
            "queue.pop_ns_per_el": per_el(totals.self_ns("queue.pop")),
            "queue.peak_queued": sum(traced.report.queue_peaks.values()),
            "strategy.select_ns_per_call": ratio(
                totals.self_ns("strategy.select"), totals.calls("strategy.select")
            ),
            "strategy.selects_per_el": per_el(totals.calls("strategy.select")),
            "partition.run_queue_ns_per_el": per_el(
                totals.total_ns("partition.run_queue")
            ),
            "partition.el_per_grant": ratio(totals.count("partition.run_queue"), grants),
            "partition.empty_grant_frac": ratio(
                totals.flags("partition.run_queue"), grants
            ),
            "ts.acquire_wait_ns_per_grant": ratio(
                totals.total_ns("ts.acquire"), totals.count("ts.acquire")
            ),
            "ts.denied_frac": ratio(totals.flags("ts.acquire"), totals.calls("ts.acquire")),
            "ring.encode_ns_per_el": per_el(totals.self_ns("ring.encode")),
            "ring.decode_ns_per_el": per_el(totals.self_ns("ring.decode")),
            "ring.bytes_per_el": per_el(totals.count("ring.bytes")),
            "ring.full_frac": ratio(
                totals.flags("ring.encode"), totals.calls("ring.encode")
            ),
            "residual_frac": 1.0 - ratio(totals.covered_ns, traced.cpu_ns),
            "trace.overhead_frac": ratio(
                flood_throughput(workload, schedule, plain),
                flood_throughput(workload, schedule, traced),
            )
            - 1.0,
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, make_schedule

    workload = WORKLOADS[workload_name]
    schedule = make_schedule(workload, seed, seconds / ROUNDS)
    print(
        f"workload {workload.name} (backend {workload.backend}), seed {seed}, "
        f"{seconds:g} s, trace {int(trace)}"
    )
    print(f"why: {workload.why}")
    print(
        f"paced phase: {schedule.paced_count} inputs at {workload.paced_rate:g} el/s "
        f"in bursts of {workload.paced_burst}; flood phase: {schedule.flood_count} "
        f"inputs due at one instant"
    )
    # Every workload runs on one CPU; threads and forked workers started
    # later inherit this.  Under the interpreter lock one engine thread
    # runs at a time, and on one CPU a hand-off between threads is a plain
    # context switch; across two it is a cross-CPU wake-up, whose delay a
    # shared virtual machine makes erratic (measured on the thread
    # backend: flood throughput 20-40% lower and varying run to run).  On
    # the process backend one CPU serialises the workers; in an interleaved
    # comparison it narrowed the spread of throughput and CPU time per
    # element, and it leaves the other CPU to the rest of the machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start_spinners(os.sched_getaffinity(0))
    # One discarded warm-up per process: imports, plan compilation and
    # first-use allocations are not timed.
    run_engine(workload, make_schedule(workload, seed, WARMUP_SECONDS))
    expected = reference_results(workload, schedule)
    ledger = Ledger()
    if not trace:
        setup_samples: List[float] = []
        rounds = []
        for index in range(ROUNDS):
            print(f"round {index + 1} of {ROUNDS}")
            before = _shm_segments()
            setup_samples.extend(measure_setup(workload, schedule))
            ledger.check_shm(f"setup {index + 1}", sorted(_shm_segments() - before))
            record = run_engine(workload, schedule)
            ledger.check_run(f"round {index + 1}", record, expected)
            rounds.append(round_metrics(workload, schedule, record))
        metrics = {
            name: statistics.median(values[name] for values in rounds)
            for name in rounds[0]
        }
        metrics["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END_UNITS
    else:
        plain = run_engine(workload, schedule)
        ledger.check_run("untraced run", plain, expected)
        probe = workload.build(schedule, True)
        kernels = {
            type(node.payload) for node in probe.graph.operators(include_queues=False)
        }
        probe.source.close()
        dump_dir = Path(tempfile.mkdtemp(prefix=".perfbench-trace-", dir=ROOT))
        tracer = Tracer(kernels, dump_dir)
        tracer.install(process_backend=workload.backend == "process")
        try:
            traced = run_engine(workload, schedule)
            totals = tracer.collect()
        finally:
            tracer.uninstall()
            shutil.rmtree(dump_dir, ignore_errors=True)
        ledger.check_run("traced run", traced, expected)
        metrics = per_layer_metrics(workload, schedule, plain, traced, totals)
        units = PER_LAYER_UNITS
    for note in ledger.notes:
        print(f"FAILED {note}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    correct = ledger.failed == 0
    print(f"correct: {str(correct).lower()} ({ledger.failed} of {ledger.attempted} checks failed)")
    return {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def steadiness(workloads: Sequence[str], repeats: int, seconds: float, trace: int) -> int:
    """Repeat each workload in fresh processes and report medians and spreads."""
    bounds = {
        entry["name"]: entry["bound"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    status = 0
    for name in workloads:
        values: Dict[str, List[float]] = {}
        for seed in range(1, repeats + 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output")
                status = 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {repeats} runs of {seconds:g} s, trace {trace}")
        for metric, samples in values.items():
            median = statistics.median(samples)
            spread = float("nan")
            if len(samples) >= 2 and median:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                spread = (q3 - q1) / abs(median)
            bound = bounds.get(metric) if trace == 0 else None
            flag = ""
            if bound is not None and metric != "setup_s" and not spread <= bound:
                flag = f"  SPREAD ABOVE BOUND {bound}"
            print(f"  {metric:34s} median {median:14.6g}  spread {spread:7.3f}{flag}")
            print("      runs: " + " ".join(f"{value:.4g}" for value in samples))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", action="store_true", help="repeat workloads and report spreads"
    )
    parser.add_argument("--repeats", type=int, default=5, help="runs per workload")
    args = parser.parse_args(argv)
    _import_engine()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.steadiness:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(names, args.repeats, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
