"""Unit and property tests for the bounded Fifo primitive."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.kernel import Fifo, SimulationError, Simulator


class TestFifoBasics:
    def test_capacity_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Fifo(sim, capacity=0)

    def test_try_put_try_get(self):
        sim = Simulator()
        fifo = sim.fifo(capacity=2)
        assert fifo.try_put(1)
        assert fifo.try_put(2)
        assert not fifo.try_put(3)  # full
        ok, item = fifo.try_get()
        assert ok and item == 1
        ok, item = fifo.try_get()
        assert ok and item == 2
        ok, item = fifo.try_get()
        assert not ok and item is None

    def test_unbounded_never_full(self):
        sim = Simulator()
        fifo = sim.fifo()
        for i in range(1000):
            assert fifo.try_put(i)
        assert not fifo.is_full

    def test_len_and_flags(self):
        sim = Simulator()
        fifo = sim.fifo(capacity=1)
        assert fifo.is_empty
        fifo.try_put("x")
        assert fifo.is_full
        assert len(fifo) == 1

    def test_blocking_get_waits_for_put(self):
        sim = Simulator()
        fifo = sim.fifo(capacity=1)
        log = []

        def consumer():
            item = yield from fifo.get()
            log.append((sim.now, item))

        def producer():
            yield 6
            yield from fifo.put("flit")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert log == [(6, "flit")]

    def test_blocking_put_waits_for_space(self):
        sim = Simulator()
        fifo = sim.fifo(capacity=1)
        log = []

        def producer():
            yield from fifo.put(1)
            yield from fifo.put(2)  # blocks until consumer frees a slot
            log.append(("put2", sim.now))

        def consumer():
            yield 9
            item = yield from fifo.get()
            log.append(("got", item, sim.now))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert ("got", 1, 9) in log
        put_times = [entry for entry in log if entry[0] == "put2"]
        assert put_times and put_times[0][1] == 9

    def test_items_preserve_fifo_order(self):
        sim = Simulator()
        fifo = sim.fifo(capacity=3)
        out = []

        def producer():
            for i in range(10):
                yield from fifo.put(i)
                yield 1

        def consumer():
            for _ in range(10):
                item = yield from fifo.get()
                out.append(item)
                yield 2

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert out == list(range(10))


def inline_put(fifo, item):
    """The producer half of the hand-off the ×pipes model inlines."""
    while len(fifo.items) >= fifo.limit:
        yield fifo.not_full
    fifo.items.append(item)
    fifo.not_empty.notify()


def inline_get(fifo):
    """The consumer half of the hand-off the ×pipes model inlines."""
    while not fifo.items:
        yield fifo.not_empty
    item = fifo.items.popleft()
    fifo.not_full.notify()
    return item


class TestFifoProperties:
    def test_unbounded_limit(self):
        sim = Simulator()
        assert sim.fifo().limit == sys.maxsize
        assert sim.fifo(capacity=3).limit == 3
        assert "inf" in repr(sim.fifo())
        assert "/3>" in repr(sim.fifo(capacity=3))

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=30),
           st.lists(st.integers(min_value=0, max_value=3), max_size=30),
           st.integers(min_value=1, max_value=4))
    def test_inline_hand_off_matches_generators(self, put_gaps, get_gaps,
                                                capacity):
        """Two producers and two consumers contending for one FIFO see
        the same timeline and fire the same events whether they use
        put/get or the documented inline hand-off."""
        count = min(len(put_gaps), len(get_gaps))

        def run(put, get):
            sim = Simulator()
            fifo = sim.fifo(capacity=capacity)
            log = []

            def producer(tag):
                for index, gap in enumerate(put_gaps[:count]):
                    yield from put(fifo, (tag, index))
                    if gap:
                        yield gap

            def consumer(tag):
                for gap in get_gaps[:count]:
                    item = yield from get(fifo)
                    log.append((sim.now, tag, item))
                    if gap:
                        yield gap

            for tag in "ab":
                sim.spawn(producer(tag))
                sim.spawn(consumer(tag))
            sim.run()
            return log, sim.events_fired

        reference = run(lambda fifo, item: fifo.put(item),
                        lambda fifo: fifo.get())
        assert run(inline_put, inline_get) == reference

    @given(st.lists(st.integers(), max_size=60),
           st.integers(min_value=1, max_value=5))
    def test_everything_put_comes_out_in_order(self, items, capacity):
        sim = Simulator()
        fifo = sim.fifo(capacity=capacity)
        out = []

        def producer():
            for item in items:
                yield from fifo.put(item)

        def consumer():
            for _ in items:
                value = yield from fifo.get()
                out.append(value)
                yield 1

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert out == items
