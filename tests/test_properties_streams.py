"""Property-based tests (hypothesis) for the stream substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import Ewma
from repro.operators.joins import SymmetricHashJoin, SymmetricNestedLoopsJoin
from repro.operators.queue_op import QueueOperator
from repro.operators.window import CountWindow, TimeWindow
from repro.streams.elements import StreamElement
from repro.streams.sources import BurstPhase, BurstySource, PoissonSource


class TestTimeWindowProperties:
    @given(
        size=st.integers(min_value=1, max_value=1_000),
        gaps=st.lists(st.integers(min_value=0, max_value=300), max_size=80),
    )
    def test_window_contains_exactly_in_range_elements(self, size, gaps):
        window = TimeWindow(size_ns=size)
        timestamps = []
        t = 0
        for gap in gaps:
            t += gap
            timestamps.append(t)
            window.insert(StreamElement(value=t, timestamp=t))
        if timestamps:
            now = timestamps[-1]
            expected = [ts for ts in timestamps if ts > now - size]
            assert [e.timestamp for e in window] == expected

    @given(
        size=st.integers(min_value=1, max_value=500),
        timestamps=st.lists(
            st.integers(min_value=0, max_value=2_000), max_size=60
        ),
    )
    def test_out_of_order_inserts_keep_window_sorted(self, size, timestamps):
        window = TimeWindow(size_ns=size)
        for ts in timestamps:
            window.insert(StreamElement(value=ts, timestamp=ts))
        contents = [e.timestamp for e in window]
        assert contents == sorted(contents)

    @given(
        capacity=st.integers(min_value=1, max_value=50),
        n=st.integers(min_value=0, max_value=200),
    )
    def test_count_window_never_exceeds_capacity(self, capacity, n):
        window = CountWindow(size=capacity)
        for i in range(n):
            window.insert(StreamElement(value=i, timestamp=i))
        assert len(window) == min(capacity, n)
        if n:
            assert [e.value for e in window][-1] == n - 1


class TestJoinEquivalence:
    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # port
                st.integers(min_value=0, max_value=9),  # key
                st.integers(min_value=0, max_value=50),  # time gap
            ),
            max_size=80,
        ),
        window=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_shj_and_snj_agree_on_equijoins(self, events, window):
        """SHJ and SNJ implement the same semantics for equality."""
        shj = SymmetricHashJoin(window)
        snj = SymmetricNestedLoopsJoin(window)
        shj_out, snj_out = [], []
        t = 0
        for port, key, gap in events:
            t += gap
            element = StreamElement(value=key, timestamp=t)
            shj_out.extend(e.value for e in shj.process(element, port))
            snj_out.extend(e.value for e in snj.process(element, port))
        assert shj_out == snj_out
        assert shj.state_size() == snj.state_size()


class TestQueueProperties:
    @given(st.lists(st.integers(), max_size=200))
    def test_fifo_order_preserved(self, values):
        queue = QueueOperator()
        elements = [StreamElement(value=v) for v in values]
        for element in elements:
            queue.push(element)
        popped = []
        while True:
            item = queue.try_pop()
            if item is None:
                break
            popped.append(item)
        assert popped == elements

    @given(
        pushes=st.lists(st.integers(min_value=0, max_value=30), max_size=30)
    )
    def test_peak_size_is_max_population(self, pushes):
        """Interleave pushes and full drains; peak == max burst size."""
        queue = QueueOperator()
        expected_peak = 0
        for burst in pushes:
            for i in range(burst):
                queue.push(StreamElement(value=i))
            expected_peak = max(expected_peak, burst)
            queue.drain()
        assert queue.peak_size == expected_peak


class TestSourceProperties:
    @given(
        count=st.integers(min_value=0, max_value=300),
        rate=st.floats(min_value=0.5, max_value=1e6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_poisson_schedule_sorted_and_replayable(self, count, rate, seed):
        source = PoissonSource(count, rate, seed=seed)
        first = [e.timestamp for e in source]
        second = [e.timestamp for e in source]
        assert first == second
        assert first == sorted(first)
        assert len(first) == count

    @given(
        phases=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_bursty_schedule_sorted_with_exact_count(self, phases):
        source = BurstySource(
            phases=[BurstPhase(count, rate) for count, rate in phases]
        )
        stamps = [e.timestamp for e in source]
        assert len(stamps) == sum(count for count, _ in phases)
        assert stamps == sorted(stamps)


class TestEwmaProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    def test_estimate_stays_within_observed_range(self, samples, alpha):
        ewma = Ewma(alpha=alpha)
        for sample in samples:
            ewma.observe(sample)
        assert min(samples) - 1e-6 <= ewma.value <= max(samples) + 1e-6
