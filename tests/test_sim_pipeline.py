"""Tests for the simulated pipeline engines (DI/GTS/OTS/HMTS)."""

import pytest

from repro.errors import SimulationError
from repro.sim.costs import CostModel
from repro.sim.pipeline import (
    OperatorSpec,
    PipelineConfig,
    SelectivityCounter,
    SourcePhase,
    SourceSpec,
    run_pipeline,
)

SECOND = 1_000_000_000

CHEAP = CostModel(
    context_switch_ns=0,
    enqueue_ns=10,
    dequeue_ns=10,
    wake_ns=0,
    strategy_select_ns=0,
    di_call_ns=0,
    per_thread_switch_ns=0.0,
)


def simple_config(mode, m=10_000, selectivities=(0.5, 0.5), **kwargs):
    ops = [
        OperatorSpec(cost_ns=100.0, selectivity=s, name=f"op{i}")
        for i, s in enumerate(selectivities)
    ]
    return PipelineConfig(
        operators=ops,
        source=SourceSpec.constant(m, 1_000_000.0),
        mode=mode,
        cost_model=CHEAP,
        **kwargs,
    )


class TestSelectivityCounter:
    @pytest.mark.parametrize("selectivity", [0.0, 0.25, 0.5, 0.998, 1.0])
    def test_exact_totals_regardless_of_batching(self, selectivity):
        import math
        import random

        rng = random.Random(1)
        a = SelectivityCounter(selectivity)
        b = SelectivityCounter(selectivity)
        total = 10_000
        # a: one big batch; b: random small batches.
        out_a = a.take(total)
        out_b = 0
        fed = 0
        while fed < total:
            n = min(rng.randint(1, 100), total - fed)
            out_b += b.take(n)
            fed += n
        assert out_a == out_b == math.floor(total * selectivity)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SelectivityCounter(1.2)


class TestResultCorrectness:
    """All four architectures must produce identical result counts."""

    @pytest.mark.parametrize("mode", ["di", "gts", "ots"])
    def test_exact_result_count(self, mode):
        result = run_pipeline(simple_config(mode))
        assert result.results.count == 2_500  # 10k * 0.5 * 0.5

    def test_hmts_result_count(self):
        result = run_pipeline(
            simple_config("hmts", groups=[[0], [1]])
        )
        assert result.results.count == 2_500

    @pytest.mark.parametrize("strategy", ["fifo", "chain", "round-robin"])
    def test_gts_strategies_agree(self, strategy):
        result = run_pipeline(simple_config("gts", strategy=strategy))
        assert result.results.count == 2_500

    def test_multi_query_scales_results(self):
        result = run_pipeline(simple_config("ots", n_queries=3))
        assert result.results.count == 3 * 2_500

    def test_zero_selectivity_produces_nothing(self):
        result = run_pipeline(simple_config("di", selectivities=(0.0,)))
        assert result.results.count == 0


class TestDeterminism:
    def test_same_config_same_timings(self):
        a = run_pipeline(simple_config("ots"))
        b = run_pipeline(simple_config("ots"))
        assert a.runtime_ns == b.runtime_ns
        assert a.results.count == b.results.count


class TestPerformanceShape:
    """The paper's qualitative orderings, at test scale."""

    def paper_config(self, mode, m=50_000, **kwargs):
        ops = [
            OperatorSpec(cost_ns=500.0, selectivity=s)
            for s in (0.998, 0.996, 0.994, 0.992, 0.990)
        ]
        kwargs.setdefault("n_cores", 2)
        return PipelineConfig(
            operators=ops,
            source=SourceSpec.constant(m, 500_000.0),
            mode=mode,
            **kwargs,
        )

    def test_di_faster_than_ots_faster_than_gts(self):
        di = run_pipeline(self.paper_config("di")).runtime_ns
        ots = run_pipeline(self.paper_config("ots")).runtime_ns
        gts = run_pipeline(self.paper_config("gts", strategy="chain")).runtime_ns
        assert di < ots < gts

    def test_runtime_scales_with_m(self):
        small = run_pipeline(self.paper_config("di", m=20_000)).runtime_ns
        large = run_pipeline(self.paper_config("di", m=80_000)).runtime_ns
        assert large == pytest.approx(4 * small, rel=0.25)

    def test_ots_exploits_second_core(self):
        one = run_pipeline(self.paper_config("ots", n_cores=1)).runtime_ns
        two = run_pipeline(self.paper_config("ots", n_cores=2)).runtime_ns
        assert two < 0.7 * one

    def test_expensive_operator_stalls_gts_but_not_hmts(self):
        """Miniature Fig. 9/10: 2-thread HMTS beats 1-thread GTS."""
        ops = [
            OperatorSpec(cost_ns=50_000.0, selectivity=1.0, name="proj"),
            OperatorSpec(cost_ns=20_000.0, selectivity=0.01, name="cheap"),
            OperatorSpec(
                cost_ns=100_000_000.0, selectivity=0.3, name="heavy"
            ),
        ]
        source = SourceSpec(
            phases=(
                SourcePhase(2_000, 500_000.0),
                SourcePhase(4_000, 2_500.0),
            )
        )
        gts = run_pipeline(
            PipelineConfig(
                operators=ops, source=source, mode="gts", strategy="chain",
                n_cores=2,
            )
        )
        hmts = run_pipeline(
            PipelineConfig(
                operators=ops, source=source, mode="hmts",
                groups=[[0, 1], [2]], n_cores=2,
            )
        )
        assert hmts.results.count == gts.results.count > 0
        assert hmts.runtime_ns < gts.runtime_ns

    def test_chain_drains_memory_faster_than_fifo(self):
        """Chain prioritizes the data-reducing group (Fig. 9)."""
        ops = [
            OperatorSpec(cost_ns=50_000.0, selectivity=1.0),
            OperatorSpec(cost_ns=20_000.0, selectivity=0.01),
            OperatorSpec(cost_ns=100_000_000.0, selectivity=0.3),
        ]
        source = SourceSpec(
            phases=(
                SourcePhase(2_000, 500_000.0),
                SourcePhase(4_000, 2_500.0),
            )
        )

        def run(strategy):
            return run_pipeline(
                PipelineConfig(
                    operators=ops, source=source, mode="gts",
                    strategy=strategy, n_cores=2,
                    sample_interval_ns=SECOND // 10,
                )
            )

        fifo, chain = run("fifo"), run("chain")
        # Compare average queued memory over the common duration.
        duration = min(fifo.runtime_ns, chain.runtime_ns)
        steps = range(0, duration, SECOND // 10)
        fifo_avg = sum(fifo.memory.value_at(t) for t in steps) / len(steps)
        chain_avg = sum(chain.memory.value_at(t) for t in steps) / len(steps)
        assert chain_avg < fifo_avg


class TestValidation:
    def test_hmts_requires_groups(self):
        with pytest.raises(SimulationError, match="groups"):
            run_pipeline(simple_config("hmts"))

    def test_groups_must_partition(self):
        with pytest.raises(SimulationError, match="partition"):
            run_pipeline(simple_config("hmts", groups=[[0]]))

    def test_groups_must_be_contiguous(self):
        config = simple_config("hmts", selectivities=(1.0, 1.0, 1.0))
        config.groups = [[0, 2], [1]]
        with pytest.raises(SimulationError, match="contiguous"):
            run_pipeline(config)

    def test_priorities_length_checked(self):
        config = simple_config("hmts", groups=[[0], [1]], priorities=[1.0])
        with pytest.raises(SimulationError, match="priorities"):
            run_pipeline(config)

    def test_rejects_zero_queries(self):
        config = simple_config("di")
        config.n_queries = 0
        with pytest.raises(SimulationError):
            run_pipeline(config)

    def test_operator_spec_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec(cost_ns=-1.0)


class TestSourceSpec:
    def test_total_elements(self):
        spec = SourceSpec(
            phases=(SourcePhase(10, 1.0), SourcePhase(20, 2.0))
        )
        assert spec.total_elements == 30

    def test_duration(self):
        spec = SourceSpec(
            phases=(SourcePhase(10, 10.0), SourcePhase(10, 5.0))
        )
        assert spec.duration_ns() == 3 * SECOND

    def test_source_respects_schedule(self):
        """Runtime can never undercut the source schedule."""
        config = simple_config("di", m=1_000)
        config = PipelineConfig(
            operators=config.operators,
            source=SourceSpec.constant(1_000, 1_000.0),  # 1 second span
            mode="di",
            cost_model=CHEAP,
        )
        result = run_pipeline(config)
        assert result.runtime_ns >= 0.99 * SECOND
