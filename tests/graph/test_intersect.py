"""Unit and property-based tests for the sorted-intersection kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.intersect import (
    KeySet,
    contains_sorted,
    intersect_multiway,
    intersect_sorted,
    intersect_sorted_gallop,
    locate_sorted,
    member_sorted,
)

from tests.graph.intersect_reference import (
    gallop_search,
    intersect_sorted_gallop_python,
    intersect_sorted_python,
    is_sorted_unique,
)


sorted_unique_arrays = st.lists(
    st.integers(min_value=0, max_value=300), max_size=60
).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int64))


class TestIntersectSorted:
    def test_basic(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5, 8])
        assert list(intersect_sorted(a, b)) == [3, 5]

    def test_empty_inputs(self):
        a = np.array([], dtype=np.int64)
        b = np.array([1, 2, 3])
        assert len(intersect_sorted(a, b)) == 0
        assert len(intersect_sorted(b, a)) == 0

    def test_disjoint(self):
        assert len(intersect_sorted(np.array([1, 2]), np.array([3, 4]))) == 0

    def test_identical(self):
        a = np.array([2, 4, 6])
        assert list(intersect_sorted(a, a)) == [2, 4, 6]

    @given(sorted_unique_arrays, sorted_unique_arrays)
    @settings(max_examples=100, deadline=None)
    def test_matches_python_reference(self, a, b):
        expected = intersect_sorted_python(a.tolist(), b.tolist())
        got = intersect_sorted(a, b)
        assert list(got) == expected

    @given(sorted_unique_arrays, sorted_unique_arrays)
    @settings(max_examples=60, deadline=None)
    def test_result_is_sorted_unique_subset(self, a, b):
        got = intersect_sorted(a, b)
        assert is_sorted_unique(got)
        assert set(got).issubset(set(a.tolist()))
        assert set(got).issubset(set(b.tolist()))


class TestGallop:
    def test_gallop_search_insertion_points(self):
        arr = [1, 4, 7, 9]
        assert gallop_search(arr, 0) == 0
        assert gallop_search(arr, 4) == 1
        assert gallop_search(arr, 5) == 2
        assert gallop_search(arr, 10) == 4
        assert gallop_search(arr, 7, lo=2) == 2
        assert gallop_search([], 3) == 0

    def test_skewed_pair(self):
        small = np.array([5, 1000, 100_000], dtype=np.int64)
        large = np.arange(0, 200_000, 2, dtype=np.int64)
        expected = [x for x in small.tolist() if x % 2 == 0]
        assert list(intersect_sorted_gallop(small, large)) == expected
        assert list(intersect_sorted(small, large)) == expected

    def test_empty_inputs(self):
        a = np.array([], dtype=np.int64)
        b = np.array([1, 2, 3], dtype=np.int64)
        assert len(intersect_sorted_gallop(a, b)) == 0
        assert len(intersect_sorted_gallop(b, a)) == 0

    @given(sorted_unique_arrays, sorted_unique_arrays)
    @settings(max_examples=100, deadline=None)
    def test_gallop_matches_merge_reference(self, a, b):
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        expected = intersect_sorted_python(a.tolist(), b.tolist())
        assert list(intersect_sorted_gallop(small, large)) == expected
        assert intersect_sorted_gallop_python(small.tolist(), large.tolist()) == expected

    @given(sorted_unique_arrays, sorted_unique_arrays)
    @settings(max_examples=60, deadline=None)
    def test_gallop_result_is_sorted_unique_subset(self, a, b):
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        got = intersect_sorted_gallop(small, large)
        assert is_sorted_unique(got)
        assert set(got.tolist()) <= set(small.tolist()) & set(large.tolist())


class TestEmptySingleton:
    def test_empty_result_is_read_only(self):
        a = np.array([], dtype=np.int64)
        b = np.array([1, 2, 3], dtype=np.int64)
        empty = intersect_sorted(a, b)
        assert len(empty) == 0
        assert not empty.flags.writeable
        with pytest.raises(ValueError):
            empty.fill(0)

    def test_disjoint_multiway_empty_is_read_only(self):
        out = intersect_multiway([np.array([1, 2]), np.array([], dtype=np.int64)])
        assert len(out) == 0
        assert not out.flags.writeable


class TestIntersectMultiway:
    def test_empty_list_of_lists(self):
        assert len(intersect_multiway([])) == 0

    def test_single_list(self):
        a = np.array([1, 2, 3])
        assert list(intersect_multiway([a])) == [1, 2, 3]

    def test_three_way(self):
        a = np.array([1, 2, 3, 4, 5])
        b = np.array([2, 3, 4, 9])
        c = np.array([0, 3, 4])
        assert list(intersect_multiway([a, b, c])) == [3, 4]

    def test_any_empty_kills_result(self):
        a = np.array([1, 2, 3])
        b = np.array([], dtype=np.int64)
        assert len(intersect_multiway([a, b])) == 0

    @given(st.lists(sorted_unique_arrays, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_set_intersection(self, lists):
        expected = set(lists[0].tolist())
        for other in lists[1:]:
            expected &= set(other.tolist())
        got = intersect_multiway(lists)
        assert set(got.tolist()) == expected
        assert is_sorted_unique(got)

    @given(st.lists(sorted_unique_arrays, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_order_invariant(self, lists):
        forward = intersect_multiway(lists)
        backward = intersect_multiway(list(reversed(lists)))
        assert list(forward) == list(backward)


class TestMembershipKernel:
    """``locate_sorted`` / ``member_sorted``: the one probe under the batch
    SCAN, E/I and HASH-JOIN operators and the galloping intersection."""

    keys = np.array([2, 5, 9], dtype=np.int64)

    def test_hits_and_misses(self):
        probe = np.array([5, 3, 9, 2], dtype=np.int64)
        loc, hit = locate_sorted(self.keys, probe)
        assert hit.tolist() == [True, False, True, True]
        assert self.keys[loc[hit]].tolist() == [5, 9, 2]
        assert member_sorted(self.keys, probe).tolist() == hit.tolist()

    def test_probe_above_the_last_key_and_below_the_first(self):
        probe = np.array([11, 9, 10**12, 0, -4], dtype=np.int64)
        loc, hit = locate_sorted(self.keys, probe)
        assert hit.tolist() == [False, True, False, False, False]
        # Clamped, so the positions index the keys without a validity mask.
        assert loc.max() < len(self.keys) and loc.min() >= 0

    def test_empty_keys(self):
        probe = np.array([5, 3], dtype=np.int64)
        loc, hit = locate_sorted(np.array([], dtype=np.int64), probe)
        assert hit.tolist() == [False, False] and len(loc) == 2
        assert member_sorted(np.array([], dtype=np.int64), probe).tolist() == [False, False]

    def test_empty_probes(self):
        empty = np.array([], dtype=np.int64)
        loc, hit = locate_sorted(self.keys, empty)
        assert len(loc) == 0 and len(hit) == 0 and hit.dtype == bool
        assert len(member_sorted(empty, empty)) == 0

    def test_repeated_keys_locate_the_first(self):
        # HASH-JOIN probes unique codes, but the kernel itself is leftmost.
        loc, hit = locate_sorted(np.array([1, 4, 4, 4, 6]), np.array([4, 6]))
        assert loc.tolist() == [1, 4] and hit.all()

    @given(sorted_unique_arrays, st.lists(st.integers(min_value=-5, max_value=310), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_set_membership(self, keys, probe):
        probe = np.array(probe, dtype=np.int64)
        members = set(keys.tolist())
        assert member_sorted(keys, probe).tolist() == [p in members for p in probe.tolist()]


#: Sorted codes as adjacency key arrays hold them: wildcard merges keep one
#: entry per edge, so a code may repeat; 0 is a code (vertex 0 -> vertex 0).
sorted_codes = st.lists(
    st.integers(min_value=0, max_value=2**40), max_size=80
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestKeySet:
    """``KeySet.contains``: the bit filter may only save work, never change
    an answer, so it must equal plain set membership on every input."""

    @given(
        sorted_codes,
        st.lists(st.integers(min_value=-3, max_value=2**40 + 3), max_size=60),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_isin(self, codes, others, data):
        # Probe every code (members must all pass the filter), its
        # neighbours, the extremes around the range, code 0, and arbitrary
        # values.
        members = codes.tolist()
        near = [c + d for c in members[:20] for d in (-1, 1)]
        extremes = [0, -1, 2**62]
        if members:
            extremes += [members[0] - 1, members[-1] + 1]
        probe = members + near + extremes + others
        probe = data.draw(st.permutations(probe))
        probe = np.array(probe, dtype=np.int64)
        assert KeySet(codes).contains(probe).tolist() == np.isin(probe, codes).tolist()

    def test_empty_keys(self):
        keys = KeySet(np.array([], dtype=np.int64))
        assert keys.contains(np.array([0, 5], dtype=np.int64)).tolist() == [False, False]
        assert keys.contains(np.array([], dtype=np.int64)).tolist() == []

    def test_single_key_and_code_zero(self):
        keys = KeySet(np.array([0], dtype=np.int64))
        probe = np.array([0, 1, -1, 2**62], dtype=np.int64)
        assert keys.contains(probe).tolist() == [True, False, False, False]

    def test_duplicate_codes(self):
        keys = KeySet(np.array([3, 3, 7, 7, 7, 9], dtype=np.int64))
        probe = np.array([2, 3, 7, 8, 9, 10], dtype=np.int64)
        assert keys.contains(probe).tolist() == [False, True, True, False, True, False]

    def test_the_filter_spares_most_absent_probes_the_binary_search(self, monkeypatch):
        import repro.graph.intersect as intersect

        searched = []

        def counting_member_sorted(sorted_keys, probe):
            searched.append(len(probe))
            return member_sorted(sorted_keys, probe)

        rng = np.random.default_rng(3)
        codes = np.unique(rng.integers(0, 2**40, 5000))
        keys = KeySet(codes)
        absent = rng.integers(0, 2**40, 20_000)
        absent = absent[~np.isin(absent, codes)]
        monkeypatch.setattr(intersect, "member_sorted", counting_member_sorted)
        assert not keys.contains(absent).any()
        # 16 or more filter bits per code: ~6 % of absent probes pass.
        assert sum(searched) < 0.1 * len(absent)


class TestHelpers:
    def test_is_sorted_unique(self):
        assert is_sorted_unique(np.array([], dtype=np.int64))
        assert is_sorted_unique(np.array([5]))
        assert is_sorted_unique(np.array([1, 2, 9]))
        assert not is_sorted_unique(np.array([1, 1, 2]))
        assert not is_sorted_unique(np.array([3, 2]))

    def test_contains_sorted(self):
        a = np.array([1, 4, 7, 9])
        assert contains_sorted(a, 4)
        assert not contains_sorted(a, 5)
        assert not contains_sorted(np.array([], dtype=np.int64), 3)
        assert contains_sorted(a, 9)
        assert not contains_sorted(a, 10)
