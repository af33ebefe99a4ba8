"""Unit and property tests for the max-heap behind the Pack_Disks oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pack_oracle import MaxHeap


class TestBasics:
    def test_empty(self):
        h = MaxHeap()
        assert len(h) == 0
        assert not h
        with pytest.raises(IndexError):
            h.pop()
        with pytest.raises(IndexError):
            h.peek()

    def test_push_pop_descending(self):
        h = MaxHeap()
        for k in (3.0, 1.0, 4.0, 1.5, 9.0):
            h.push(k, f"p{k}")
        keys = [h.pop()[0] for _ in range(len(h))]
        assert keys == [9.0, 4.0, 3.0, 1.5, 1.0]

    def test_bulk_construction_matches_pushes(self):
        entries = [(float(k), k) for k in (5, 2, 8, 1, 9, 3)]
        bulk = MaxHeap(entries)
        incremental = MaxHeap()
        for k, p in entries:
            incremental.push(k, p)
        assert bulk.as_sorted_list() == incremental.as_sorted_list()

    def test_peek_does_not_remove(self):
        h = MaxHeap([(1.0, "a"), (2.0, "b")])
        assert h.peek() == (2.0, "b")
        assert len(h) == 2

    def test_fifo_tie_breaking(self):
        h = MaxHeap()
        for name in ("first", "second", "third"):
            h.push(1.0, name)
        assert [h.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_fifo_ties_survive_mixed_operations(self):
        h = MaxHeap([(1.0, "a"), (2.0, "x")])
        h.pop()  # remove "x"
        h.push(1.0, "b")
        h.push(1.0, "c")
        assert [h.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_payloads_travel_with_keys(self):
        h = MaxHeap([(2.5, {"id": 1}), (7.5, {"id": 2})])
        key, payload = h.pop()
        assert key == 7.5
        assert payload == {"id": 2}


class TestProperties:
    @given(st.lists(st.floats(-1e9, 1e9), max_size=300))
    def test_pop_order_is_sorted_descending(self, keys):
        h = MaxHeap((k, i) for i, k in enumerate(keys))
        out = [h.pop()[0] for _ in range(len(keys))]
        assert out == sorted(keys, reverse=True)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["push", "pop"]), st.floats(-100, 100)),
            max_size=200,
        )
    )
    def test_invariant_under_mixed_operations(self, ops):
        h = MaxHeap()
        for op, key in ops:
            if op == "push" or not h:
                h.push(key, None)
            else:
                h.pop()
            h.check_invariant()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_heapify_invariant(self, keys):
        h = MaxHeap((k, None) for k in keys)
        h.check_invariant()

    @given(st.lists(st.floats(0, 100), max_size=100))
    def test_as_sorted_list_is_nondestructive(self, keys):
        h = MaxHeap((k, None) for k in keys)
        before = len(h)
        h.as_sorted_list()
        assert len(h) == before


# A push (a key) or a pop (None); the key pool mixes duplicates and +-0.0.
heap_ops = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
        st.floats(-10, 10),
    ),
    max_size=200,
)


class TestSortedOracle:
    @given(
        st.lists(st.sampled_from([-0.0, 0.0, 1.0, 3.0]), max_size=30), heap_ops
    )
    def test_matches_sorted_oracle(self, initial, ops):
        """Pop order is ``sorted`` on (-key, insertion seq), keys come back
        bit-equal, and payloads are never compared."""
        h = MaxHeap((k, {"seq": i}) for i, k in enumerate(initial))
        live = [(-k, i, k) for i, k in enumerate(initial)]
        seq = len(initial)
        for op in ops:
            if op is not None:
                h.push(op, {"seq": seq})
                live.append((-op, seq, op))
                seq += 1
                continue
            if not live:
                with pytest.raises(IndexError):
                    h.pop()
                continue
            live.sort(key=lambda e: e[:2])
            _, want_seq, want_key = live.pop(0)
            assert h.peek()[1] == {"seq": want_seq}
            key, payload = h.pop()
            assert payload == {"seq": want_seq}
            assert key.hex() == want_key.hex()
        assert len(h) == len(live)
        h.check_invariant()
