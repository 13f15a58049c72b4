"""Unit tests for the EventQueue oracle's ordering guarantees."""

from hypothesis import given, strategies as st

from repro.kernel.event import _COMPACT_MIN_SIZE, EventQueue


def drain(queue):
    events = []
    while True:
        event = queue.pop()
        if event is None:
            return events
        events.append(event)


class TestEventQueueBasics:
    def test_empty_queue_pops_none(self):
        assert EventQueue().pop() is None

    def test_empty_queue_peek_none(self):
        assert EventQueue().peek_time() is None

    def test_len_tracks_pushes(self):
        queue = EventQueue()
        for i in range(5):
            queue.push(i, lambda: None)
        assert len(queue) == 5

    def test_pop_orders_by_time(self):
        queue = EventQueue()
        queue.push(30, lambda: None)
        queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        assert [e.time for e in drain(queue)] == [10, 20, 30]

    def test_same_time_same_priority_is_fifo(self):
        queue = EventQueue()
        order = []
        for i in range(10):
            queue.push(7, lambda i=i: order.append(i))
        for event in drain(queue):
            event.fn()
        assert order == list(range(10))

    def test_peek_time_returns_earliest(self):
        queue = EventQueue()
        queue.push(9, lambda: None)
        queue.push(4, lambda: None)
        assert queue.peek_time() == 4

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        victim = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        victim.cancel()
        assert [e.time for e in drain(queue)] == [2]

    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        victim = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        victim.cancel()
        assert queue.peek_time() == 2

    def test_event_repr_mentions_state(self):
        queue = EventQueue()
        event = queue.push(3, lambda: None)
        assert "t=3" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)

    def test_len_counts_live_events_only(self):
        """Regression: cancelled tombstones used to inflate len(queue)."""
        queue = EventQueue()
        victim = queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        assert len(queue) == 2
        victim.cancel()
        assert len(queue) == 1
        assert queue.tombstones == 1

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        victim = queue.push(10, lambda: None)
        victim.cancel()
        victim.cancel()
        assert len(queue) == 0
        assert queue.events_cancelled == 1

    def test_cancel_after_pop_does_not_corrupt_len(self):
        """A watchdog guard may be cancelled after it already fired."""
        queue = EventQueue()
        guard = queue.push(5, lambda: None)
        queue.push(9, lambda: None)
        assert queue.pop() is guard
        guard.cancel()  # late cancel: event already left the heap
        assert len(queue) == 1
        assert queue.events_cancelled == 0
        assert queue.pop().time == 9


class TestTombstoneCompaction:
    def test_compaction_triggers_and_shrinks_heap(self):
        queue = EventQueue()
        victims = [queue.push(1000 + i, lambda: None)
                   for i in range(_COMPACT_MIN_SIZE)]
        survivors_times = [5, 7]
        for time in survivors_times:
            queue.push(time, lambda: None)
        for victim in victims:
            victim.cancel()
        assert queue.compactions >= 1
        assert queue.tombstones < _COMPACT_MIN_SIZE
        assert [e.time for e in drain(queue)] == survivors_times

    def test_small_heaps_are_not_compacted(self):
        queue = EventQueue()
        victim = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        victim.cancel()
        assert queue.compactions == 0

    def test_peak_size_counts_tombstones(self):
        queue = EventQueue()
        events = [queue.push(i, lambda: None) for i in range(10)]
        for event in events[:5]:
            event.cancel()
        queue.push(99, lambda: None)
        assert queue.peak_size == 11  # high-water mark of the raw heap


class _ReferenceQueue:
    """The pre-compaction implementation: plain lazy deletion at pop.

    The compacting queue must pop the exact same (time, seq)
    sequence as this one for any interleaving of pushes and cancels —
    that equivalence is what keeps every simulation byte-identical
    (DESIGN.md, E7) no matter when compactions happen to trigger.
    """

    def __init__(self):
        import heapq
        self._heapq = heapq
        self._heap = []
        self._seq = 0
        self._cancelled = set()

    def push(self, time):
        seq = self._seq
        self._seq += 1
        self._heapq.heappush(self._heap, (time, seq))
        return seq

    def cancel(self, seq):
        self._cancelled.add(seq)

    def pop(self):
        while self._heap:
            entry = self._heapq.heappop(self._heap)
            if entry[1] not in self._cancelled:
                return entry
        return None


def _run_op_sequence(ops):
    """Drive the real and reference queues through the same op sequence."""
    queue = EventQueue()
    reference = _ReferenceQueue()
    handles = []
    popped, ref_popped = [], []
    for op in ops:
        if op[0] == "push":
            handles.append(queue.push(op[1], lambda: None))
            reference.push(op[1])
        elif op[0] == "cancel":
            if handles:
                index = op[1] % len(handles)
                handles[index].cancel()
                reference.cancel(handles[index].seq)
        else:  # pop
            event = queue.pop()
            popped.append(None if event is None
                          else (event.time, event.seq))
            ref_popped.append(reference.pop())
    while True:
        event = queue.pop()
        entry = reference.pop()
        if event is None and entry is None:
            break
        popped.append(None if event is None
                      else (event.time, event.seq))
        ref_popped.append(entry)
    return queue, popped, ref_popped


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 100)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("pop")),
    ),
    max_size=400,
)


class TestCompactionDeterminism:
    @given(_OPS)
    def test_matches_uncompacted_reference(self, ops):
        _, popped, ref_popped = _run_op_sequence(ops)
        assert popped == ref_popped

    def test_stress_sequence_actually_compacts(self):
        """The hypothesis sizes may stay under the compaction threshold;
        this deterministic interleaving is guaranteed to cross it."""
        ops = []
        for round_no in range(8):
            for i in range(40):
                ops.append(("push", (i * 7 + round_no) % 50))
            for i in range(36):
                ops.append(("cancel", round_no * 31 + i * 5))
            for _ in range(4):
                ops.append(("pop",))
        queue, popped, ref_popped = _run_op_sequence(ops)
        assert popped == ref_popped
        assert queue.compactions >= 1


class TestEventQueueProperties:
    @given(st.lists(st.integers(0, 1000), max_size=200))
    def test_pop_order_is_sorted_by_time_priority(self, times):
        """Pops come out sorted by time (events had a priority key too
        until it was removed)."""
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        popped = [e.time for e in drain(queue)]
        assert popped == sorted(popped)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_fifo_within_identical_keys(self, times):
        queue = EventQueue()
        for index, time in enumerate(times):
            queue.push(time, lambda: None)
        popped = drain(queue)
        # sequence numbers must be increasing within each time
        by_key = {}
        for event in popped:
            by_key.setdefault(event.time, []).append(event.seq)
        for seqs in by_key.values():
            assert seqs == sorted(seqs)
