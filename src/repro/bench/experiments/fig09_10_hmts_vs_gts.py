"""Figures 9 & 10 — HMTS versus GTS on a query with an expensive
operator (paper Section 6.6).

Setup: projection -> cheap selective filter -> very expensive filter
(multi-second per element), fed by a bursty 70,000-element source:
10k burst, 20k at 250 el/s (80 s), 20k burst, 20k at 250 el/s (80 s) —
total source span ~160 s.  GTS decouples every operator and schedules
with one thread (FIFO and Chain); HMTS decouples twice — after the
source and between the filters — and runs the two resulting VOs
{projection, cheap filter} and {expensive filter} in two threads.

Paper findings reproduced here:

* Fig. 9 (queue memory over time): every curve starts with the 10k
  burst; Chain drains it fast and stays low between bursts; FIFO
  decreases slower; HMTS stays at or below Chain.
* Fig. 10 (cumulative results over time): FIFO produces results earlier
  than Chain; HMTS produces them "significantly earlier and the whole
  processing is finished within 160 seconds" versus ~260 s for GTS —
  the two VOs run concurrently on the two cores.

Parameter recalibration (documented in EXPERIMENTS.md): the paper's
literal per-operator numbers (2.7 us + 530 ns cheap work) are
internally inconsistent with its reported completion times — with only
~0.2 s of cheap work there is nothing for the second core to overlap,
and a work-conserving GTS would finish at ~162 s as well, not 260 s.
We keep the paper's structure, phase layout and the ~2 s expensive
filter, and scale the cheap group's costs (1 ms + 0.4 ms) and the first
filter's selectivity (1.1e-3) so that total work = cheap (~98 s) +
expensive (~154 s) ≈ 252 s > 160 s source span.  Then the mechanism the
paper credits — "both selections can be executed concurrently" on the
dual core — genuinely produces the reported ~100 s gap: GTS ≈ 253 s,
HMTS ≈ 160-170 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.harness import ascii_chart, format_series_table
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.metrics import SECOND
from repro.sim.pipeline import (
    OperatorSpec,
    PipelineConfig,
    PipelineResult,
    SourcePhase,
    SourceSpec,
    run_pipeline,
)

__all__ = ["make_operators", "make_source", "Fig910Result", "run", "report"]

#: Calibrated operator parameters (see module docstring).
PROJECTION_COST_NS = 1_000_000.0  # 1 ms
CHEAP_FILTER_COST_NS = 400_000.0  # 0.4 ms
CHEAP_FILTER_SELECTIVITY = 1.1e-3
EXPENSIVE_FILTER_COST_NS = 2.0 * SECOND  # the paper's ~2 s predicate
EXPENSIVE_FILTER_SELECTIVITY = 0.3

PAPER_FINISH_S = {"gts-fifo": 260.0, "gts-chain": 260.0, "hmts": 162.0}


def make_operators(scale: float = 1.0) -> List[OperatorSpec]:
    """The three-operator query, optionally time-scaled."""
    return [
        OperatorSpec(
            cost_ns=PROJECTION_COST_NS * scale,
            selectivity=1.0,
            name="projection",
        ),
        OperatorSpec(
            cost_ns=CHEAP_FILTER_COST_NS * scale,
            selectivity=CHEAP_FILTER_SELECTIVITY,
            name="cheap-filter",
        ),
        OperatorSpec(
            cost_ns=EXPENSIVE_FILTER_COST_NS * scale,
            selectivity=EXPENSIVE_FILTER_SELECTIVITY,
            name="expensive-filter",
        ),
    ]


def make_source(scale: float = 1.0) -> SourceSpec:
    """The four-phase bursty source (bursts + 250 el/s trickles)."""
    burst_rate = 500_000.0
    trickle_rate = 250.0 / scale
    return SourceSpec(
        phases=(
            SourcePhase(10_000, burst_rate),
            SourcePhase(20_000, trickle_rate),
            SourcePhase(20_000, burst_rate),
            SourcePhase(20_000, trickle_rate),
        )
    )


@dataclass
class Fig910Result:
    """The three runs plus the sampled series."""

    runs: Dict[str, PipelineResult]
    scale: float

    def finish_times_s(self) -> Dict[str, float]:
        """Processing-complete time per setting, in paper seconds."""
        return {
            name: run.runtime_s / self.scale
            for name, run in self.runs.items()
        }


def run(
    scale: float = 1.0, cost_model: CostModel = DEFAULT_COST_MODEL
) -> Fig910Result:
    """Execute Figs. 9/10.

    Args:
        scale: Time-compression factor: operator costs are multiplied
            by ``scale`` and trickle phases sped up by ``1/scale``, so
            the full 70k elements flow through a proportionally shorter
            experiment.  Reported times are scaled back to paper
            seconds.  1.0 reproduces the paper's ~260 s span.
    """
    runs: Dict[str, PipelineResult] = {}
    sample = max(1, round(SECOND * scale))
    for name, mode, strategy, groups in (
        ("gts-fifo", "gts", "fifo", None),
        ("gts-chain", "gts", "chain", None),
        ("hmts", "hmts", "fifo", [[0, 1], [2]]),
    ):
        config = PipelineConfig(
            operators=make_operators(scale),
            source=make_source(scale),
            mode=mode,
            strategy=strategy,
            groups=groups,
            n_cores=2,
            cost_model=cost_model,
            sample_interval_ns=sample,
        )
        runs[name] = run_pipeline(config)
    return Fig910Result(runs=runs, scale=scale)


def report(result: Fig910Result) -> str:
    """Render the Figs. 9/10 reproduction report."""
    names = ["gts-fifo", "gts-chain", "hmts"]
    horizon_ns = max(run.runtime_ns for run in result.runs.values())
    step_ns = max(1, horizon_ns // 26)
    times_paper_s = []
    memory_columns: List[List[float]] = [[] for _ in names]
    result_columns: List[List[float]] = [[] for _ in names]
    t = 0
    while t <= horizon_ns:
        times_paper_s.append(t / result.scale / SECOND)
        for index, name in enumerate(names):
            run_result = result.runs[name]
            memory_columns[index].append(run_result.memory.value_at(t))
            result_columns[index].append(
                run_result.results.series.value_at(t)
            )
        t += step_ns

    lines = ["Figure 9 - queue memory over time [elements]", ""]
    lines.append(
        format_series_table(
            ["t[s]"] + [f"{n} mem" for n in names],
            times_paper_s,
            memory_columns,
            fmt="{:.0f}",
        )
    )
    lines.append("")
    for name, column in zip(names, memory_columns):
        lines.append(ascii_chart(f"{name:9s} memory", column))
    lines.append("")
    lines.append("Figure 10 - cumulative results over time")
    lines.append("")
    lines.append(
        format_series_table(
            ["t[s]"] + [f"{n} results" for n in names],
            times_paper_s,
            result_columns,
            fmt="{:.0f}",
        )
    )
    lines.append("")
    finish = result.finish_times_s()
    for name in names:
        lines.append(
            f"finish: {name} paper ~{PAPER_FINISH_S[name]:.0f} s, "
            f"measured {finish[name]:.0f} s "
            f"({result.runs[name].results.count} results)"
        )
    return "\n".join(lines)
