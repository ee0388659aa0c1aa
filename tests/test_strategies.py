"""Tests for the level-2 scheduling strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    _STRATEGY_FACTORIES,
    ChainStrategy,
    FifoStrategy,
    RoundRobinStrategy,
    make_strategy,
    operator_chains,
)
from repro.errors import SchedulingError
from repro.graph.node import annotated_operator_node
from repro.graph.query_graph import QueryGraph
from repro.sim.channel import SimQueue
from repro.sim.items import ElementBatch, EndMarker
from repro.streams.elements import END_OF_STREAM, StreamElement
from repro.streams.sinks import CountingSink
from repro.streams.sources import ConstantRateSource


def decoupled_chain(costs, selectivities):
    """source -> q0 -> op0 -> q1 -> op1 ... -> sink, fully decoupled."""
    g = QueryGraph()
    src = g.add_source(ConstantRateSource(1, 1000.0))
    prev = src
    ops = []
    for i, (cost, sel) in enumerate(zip(costs, selectivities)):
        node = annotated_operator_node(f"op{i}", cost_ns=cost, selectivity=sel)
        g.add_node(node)
        g.connect(prev, node)
        prev = node
        ops.append(node)
    sink = g.add_sink(CountingSink())
    g.connect(prev, sink)
    queues = g.decouple_all()
    return g, ops, queues


class TestFifoStrategy:
    def test_picks_queue_with_oldest_element(self):
        g, ops, queues = decoupled_chain([1.0, 1.0], [1.0, 1.0])
        older = StreamElement(value="old")
        newer = StreamElement(value="new")
        queues[1].payload.push(newer)
        queues[0].payload.push(older)
        strategy = FifoStrategy()
        # Queue 0 holds the globally older element despite later push.
        assert strategy.select(queues) is queues[0]

    def test_punctuation_only_queue_served_first(self):
        from repro.streams.elements import END_OF_STREAM

        g, ops, queues = decoupled_chain([1.0, 1.0], [1.0, 1.0])
        queues[0].payload.push(StreamElement(value=1))
        queues[1].payload.push(END_OF_STREAM)
        assert FifoStrategy().select(queues) is queues[1]

    def test_empty_ready_rejected(self):
        with pytest.raises(SchedulingError):
            FifoStrategy().select([])


class TestRoundRobinStrategy:
    def test_cycles_through_ready(self):
        g, ops, queues = decoupled_chain([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        strategy = RoundRobinStrategy()
        strategy.prepare(g, queues)
        picks = [strategy.select(queues) for _ in range(6)]
        assert picks[:3] == queues
        assert picks[3:] == queues

    def test_skips_non_ready(self):
        g, ops, queues = decoupled_chain([1.0, 1.0, 1.0], [1.0] * 3)
        strategy = RoundRobinStrategy()
        strategy.prepare(g, queues)
        ready = [queues[0], queues[2]]
        assert strategy.select(ready) is queues[0]
        assert strategy.select(ready) is queues[2]
        assert strategy.select(ready) is queues[0]

    def test_unknown_ready_queue_served(self):
        strategy = RoundRobinStrategy()
        g, ops, queues = decoupled_chain([1.0], [1.0])
        assert strategy.select([queues[0]]) is queues[0]


class TestOperatorChains:
    def test_chain_through_queues(self):
        g, ops, queues = decoupled_chain([1.0, 2.0, 3.0], [1.0, 0.5, 1.0])
        chains = operator_chains(g)
        assert len(chains) == 1
        assert chains[0] == ops

    def test_fan_out_breaks_chain(self):
        g = QueryGraph()
        src = g.add_source(ConstantRateSource(1, 100.0))
        a = annotated_operator_node("a", cost_ns=1.0)
        b = annotated_operator_node("b", cost_ns=1.0)
        c = annotated_operator_node("c", cost_ns=1.0)
        for node in (a, b, c):
            g.add_node(node)
        sink_b = g.add_sink(CountingSink(name="sb"))
        sink_c = g.add_sink(CountingSink(name="sc"))
        g.connect(src, a)
        g.connect(a, b)
        g.connect(a, c)
        g.connect(b, sink_b)
        g.connect(c, sink_c)
        chains = operator_chains(g)
        assert sorted(len(chain) for chain in chains) == [1, 1, 1]


class TestChainStrategy:
    def test_paper_groups_get_priorities(self):
        """Fig. 9 query: {projection, cheap selection} beats {2s selection}."""
        g, ops, queues = decoupled_chain(
            [2_700.0, 530.0, 2e9], [1.0, 9e-4, 0.3]
        )
        strategy = ChainStrategy()
        strategy.prepare(g, queues)
        # queues[i] feeds ops[i].
        assert strategy.slope_of(queues[0]) == strategy.slope_of(queues[1])
        assert strategy.slope_of(queues[0]) < strategy.slope_of(queues[2])
        # With all queues ready, the cheap group runs first.
        for q in queues:
            q.payload.push(StreamElement(value=1))
        assert strategy.select(queues) in (queues[0], queues[1])

    def test_falls_back_to_fifo_on_ties(self):
        g, ops, queues = decoupled_chain([10.0, 10.0], [0.5, 0.5])
        strategy = ChainStrategy()
        strategy.prepare(g, queues)
        old = StreamElement(value="old")
        new = StreamElement(value="new")
        queues[1].payload.push(old)
        queues[0].payload.push(new)
        if strategy.slope_of(queues[0]) == strategy.slope_of(queues[1]):
            assert strategy.select(queues) is queues[1]


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fifo", FifoStrategy),
            ("round-robin", RoundRobinStrategy),
            ("chain", ChainStrategy),
            ("longest-queue-first", __import__("repro.core.strategies", fromlist=["x"]).LongestQueueFirstStrategy),
            ("greedy", __import__("repro.core.strategies", fromlist=["x"]).GreedyStrategy),
        ],
    )
    def test_make_strategy(self, name, cls):
        assert isinstance(make_strategy(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(SchedulingError):
            make_strategy("lottery")


class TestLongestQueueFirst:
    def test_picks_fullest_queue(self):
        from repro.core.strategies import LongestQueueFirstStrategy

        g, ops, queues = decoupled_chain([1.0, 1.0], [1.0, 1.0])
        for _ in range(5):
            queues[1].payload.push(StreamElement(value=1))
        queues[0].payload.push(StreamElement(value=2))
        strategy = LongestQueueFirstStrategy()
        assert strategy.select(queues) is queues[1]

    def test_tie_falls_back_to_fifo(self):
        from repro.core.strategies import LongestQueueFirstStrategy

        g, ops, queues = decoupled_chain([1.0, 1.0], [1.0, 1.0])
        older = StreamElement(value="old")
        newer = StreamElement(value="new")
        queues[1].payload.push(newer)
        queues[0].payload.push(older)
        strategy = LongestQueueFirstStrategy()
        assert strategy.select(queues) is queues[0]


class TestGreedyStrategy:
    def test_prefers_high_release_rate(self):
        from repro.core.strategies import GreedyStrategy

        # op0: selectivity 1 (releases nothing); op1: drops 90% cheaply.
        g, ops, queues = decoupled_chain([100.0, 100.0], [1.0, 0.1])
        strategy = GreedyStrategy()
        strategy.prepare(g, queues)
        assert strategy.rate_of(queues[1]) > strategy.rate_of(queues[0])
        for q in queues:
            q.payload.push(StreamElement(value=1))
        assert strategy.select(queues) is queues[1]

    def test_greedy_ignores_downstream_structure(self):
        """Greedy's known blind spot: a selectivity-1 operator in front
        of a hugely selective one gets rate zero, while Chain sees the
        combined envelope."""
        from repro.core.strategies import ChainStrategy, GreedyStrategy

        g, ops, queues = decoupled_chain(
            [100.0, 1.0], [1.0, 0.001]
        )
        greedy = GreedyStrategy()
        greedy.prepare(g, queues)
        chain = ChainStrategy()
        chain.prepare(g, queues)
        # Greedy gives the first queue zero priority...
        assert greedy.rate_of(queues[0]) == 0.0
        # ...while Chain folds both operators into one steep segment.
        assert chain.slope_of(queues[0]) < 0.0


# One queue's contents: None for END-only, else (data count, seq of the
# head element, END buffered after the data).
queue_contents = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 4), st.integers(0, 12), st.booleans()),
)
consumer_annotations = st.tuples(
    st.sampled_from([1.0, 10.0, 100.0]), st.sampled_from([0.1, 0.5, 1.0])
)


class TestQueueStateIndependence:
    """The simulator runs the engine's exact level-2 policy."""

    @settings(max_examples=150, deadline=None)
    @given(
        queues_spec=st.lists(
            st.tuples(queue_contents, consumer_annotations),
            min_size=1,
            max_size=5,
        ),
        picks=st.integers(1, 4),
    )
    def test_queue_operators_and_sim_queues_pick_alike(self, queues_spec, picks):
        g = QueryGraph()
        for index, (_, (cost, selectivity)) in enumerate(queues_spec):
            src = g.add_source(ConstantRateSource(1, 1000.0))
            op = annotated_operator_node(
                f"op{index}", cost_ns=cost, selectivity=selectivity
            )
            g.add_node(op)
            g.connect(src, op)
            g.connect(op, g.add_sink(CountingSink(name=f"out{index}")))
        queues = g.decouple_all()
        sim_queues = {}
        for index, (node, (contents, _)) in enumerate(zip(queues, queues_spec)):
            sim = sim_queues[node] = SimQueue(node.name, index)
            if contents is not None:
                count, head_seq, _ = contents
                sim.push(ElementBatch(count, seq=head_seq), count)
            if contents is None or contents[2]:
                sim.push(EndMarker(), 0)

        def picks_of(queue_of=None):
            made = {}
            for name in _STRATEGY_FACTORIES:
                strategy = make_strategy(name)
                strategy.prepare(g, queues)
                if queue_of is not None:
                    strategy.queue_of = queue_of
                made[name] = [strategy.select(queues) for _ in range(picks)]
            return made

        # The simulator's picks come first, while the QueueOperators are
        # still empty: they must be read from the SimQueues alone.
        sim_picks = picks_of(sim_queues.__getitem__)
        for node, (contents, _) in zip(queues, queues_spec):
            if contents is not None:
                count, head_seq, _ = contents
                for offset in range(count):
                    node.payload.push(
                        StreamElement(value=offset, seq=head_seq + offset)
                    )
            if contents is None or contents[2]:
                node.payload.push(END_OF_STREAM)
        assert picks_of() == sim_picks
