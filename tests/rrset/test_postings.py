"""The node → set postings: one-sort build, append merge, repair patch."""

import numpy as np
import pytest

from repro.rrset import FlatRRCollection, greedy_max_coverage, lazy_greedy_max_coverage
from repro.rrset.coverage import (
    _append_postings,
    _inverted_index,
    _pair_keys,
    _patch_postings,
)


def reference_postings(ptr, nodes, num_nodes):
    """The former builder: a stable argsort of the member array."""
    set_of_entry = np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))
    inv_sets = set_of_entry[np.argsort(nodes, kind="stable")]
    inv_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=inv_ptr[1:])
    return inv_ptr, inv_sets


def random_sets(rng, num_nodes, num_sets, max_size=6):
    """``(ptr, nodes)`` of random sets with unique members (some empty)."""
    members = [rng.choice(num_nodes, size=rng.integers(0, max_size + 1), replace=False)
               for _ in range(num_sets)]
    ptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum([m.size for m in members], out=ptr[1:])
    nodes = np.concatenate(members + [np.empty(0, dtype=np.int64)]).astype(np.int32)
    return ptr, nodes


def assert_same(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestBuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 40))
        ptr, nodes = random_sets(rng, num_nodes, int(rng.integers(1, 300)),
                                 max_size=min(num_nodes, 8))
        assert_same(_inverted_index(ptr, nodes, num_nodes),
                    reference_postings(ptr, nodes, num_nodes))

    def test_zero_sets(self):
        inv_ptr, inv_sets = _inverted_index(np.zeros(1, dtype=np.int64),
                                            np.empty(0, dtype=np.int32), 5)
        assert np.array_equal(inv_ptr, np.zeros(6, dtype=np.int64))
        assert inv_sets.dtype == np.int64 and inv_sets.size == 0

    def test_zero_set_collection_still_selects(self):
        empty = FlatRRCollection(5, 0)
        for solver in (greedy_max_coverage, lazy_greedy_max_coverage):
            result = solver(empty, 5, 2)
            assert result.seeds == [0, 1]
            assert result.covered == 0 and result.num_sets == 0

    def test_key_overflow_rejected(self):
        ptr = np.array([0, 1, 2], dtype=np.int64)
        nodes = np.array([0, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="overflow int64"):
            _inverted_index(ptr, nodes, 2**62)

    def test_read_only_input_left_untouched(self):
        ptr, nodes = random_sets(np.random.default_rng(3), 12, 50)
        ptr.setflags(write=False)
        nodes.setflags(write=False)
        before = nodes.copy()
        assert_same(_inverted_index(ptr, nodes, 12), reference_postings(ptr, nodes, 12))
        assert np.array_equal(nodes, before)


class TestAppend:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_fresh_build(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 30))
        ptr, nodes = random_sets(rng, num_nodes, 200, max_size=min(num_nodes, 6))
        split = int(rng.integers(0, 201))
        inv_ptr, inv_sets = _inverted_index(ptr[: split + 1], nodes[: ptr[split]], num_nodes)
        appended = _append_postings(inv_ptr, inv_sets, ptr[split:] - ptr[split],
                                    nodes[ptr[split]:], split)
        assert_same(appended, reference_postings(ptr, nodes, num_nodes))


class TestPatch:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_fresh_build(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 30))
        num_sets = 150
        size = min(num_nodes, 6)
        old_ptr, old_nodes = random_sets(rng, num_nodes, num_sets, max_size=size)
        changed = np.unique(rng.integers(0, num_sets, size=int(rng.integers(0, 40))))
        members = [old_nodes[old_ptr[i] : old_ptr[i + 1]] for i in range(num_sets)]
        for i in changed.tolist():
            members[i] = rng.choice(num_nodes, size=rng.integers(0, size + 1),
                                    replace=False).astype(np.int32)
        new_ptr = np.zeros(num_sets + 1, dtype=np.int64)
        np.cumsum([m.size for m in members], out=new_ptr[1:])
        new_nodes = np.concatenate(members).astype(np.int32)
        changed = changed.astype(np.int64)
        inv_ptr, inv_sets = _inverted_index(old_ptr, old_nodes, num_nodes)
        patched = _patch_postings(inv_ptr, inv_sets, changed,
                                  _pair_keys(old_ptr, old_nodes, changed, num_sets),
                                  _pair_keys(new_ptr, new_nodes, changed, num_sets), num_sets)
        assert_same(patched, reference_postings(new_ptr, new_nodes, num_nodes))
