"""SketchIndex.select against the lazy-heap greedy it replaced.

The index's selection used to run a CELF-style lazy heap of ``(-count,
node)`` entries; it now runs argmax rounds (``coverage._greedy_rounds``).
The heap versions of the resumable and the constrained selection are kept
below, verbatim in logic, as the reference: every case must give identical
seeds and marginal gains — ascending, descending and repeated ``k``,
``incremental=False``, forced include/exclude, heavy ties, ``k`` beyond the
nodes with a positive count, and an empty (θ=0) sketch.
"""

import heapq

import numpy as np
import pytest

from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset.coverage import _decrement, _gather_members, greedy_max_coverage
from repro.rrset.flat_collection import FlatRRCollection
from repro.sketch import SketchIndex


class HeapState:
    """The former resumable lazy-greedy state."""

    def __init__(self, counts, num_sets):
        self.counts = counts
        self.covered = np.zeros(num_sets, dtype=bool)
        self.heap = list(zip((-counts).tolist(), range(counts.size)))
        heapq.heapify(self.heap)
        self.chosen = np.zeros(counts.size, dtype=bool)
        self.seeds = []
        self.gains = []
        self.covered_total = 0


def fresh_counts(index):
    inv_ptr, _ = index._ensure_postings()
    return np.diff(inv_ptr)


def heap_rounds(index, k, state):
    """The former ``SketchIndex._run_greedy_inner``."""
    inv_ptr, inv_sets = index._ensure_postings()
    ptr = index.collection.ptr_array
    nodes = index.collection.nodes_array
    counts, covered, heap, chosen = state.counts, state.covered, state.heap, state.chosen
    while len(state.seeds) < k and heap:
        negative_count, node = heapq.heappop(heap)
        if chosen[node]:
            continue
        current = int(counts[node])
        if -negative_count != current:
            heapq.heappush(heap, (-current, node))
            continue
        state.seeds.append(node)
        chosen[node] = True
        state.gains.append(current)
        state.covered_total += current
        candidate_sets = inv_sets[inv_ptr[node] : inv_ptr[node + 1]]
        new_sets = candidate_sets[~covered[candidate_sets]]
        if new_sets.size:
            covered[new_sets] = True
            _decrement(counts, _gather_members(ptr, nodes, new_sets), index.num_nodes)
    if len(state.seeds) < k:
        fill = np.flatnonzero(~chosen)[: k - len(state.seeds)]
        for v in fill:
            state.seeds.append(int(v))
            state.gains.append(0)
            chosen[v] = True
    return list(state.seeds), state.covered_total, tuple(state.gains)


def heap_select(index, k, state=None):
    """A resumable heap answer for ``k`` (prefix reads like ``select``)."""
    state = state or HeapState(fresh_counts(index), index.num_sets)
    if len(state.seeds) >= k:
        return state.seeds[:k], int(sum(state.gains[:k])), tuple(state.gains[:k])
    return heap_rounds(index, k, state)


def heap_constrained(index, k, include, exclude):
    """The former ``SketchIndex._select_constrained``."""
    inv_ptr, inv_sets = index._ensure_postings()
    ptr = index.collection.ptr_array
    nodes = index.collection.nodes_array
    counts = fresh_counts(index)
    covered = np.zeros(index.num_sets, dtype=bool)
    chosen = np.zeros(index.num_nodes, dtype=bool)
    seeds, gains = [], []
    total = 0

    def take(node):
        nonlocal total
        gain = int(counts[node])
        seeds.append(node)
        gains.append(gain)
        total += gain
        chosen[node] = True
        candidate_sets = inv_sets[inv_ptr[node] : inv_ptr[node + 1]]
        new_sets = candidate_sets[~covered[candidate_sets]]
        if new_sets.size:
            covered[new_sets] = True
            _decrement(counts, _gather_members(ptr, nodes, new_sets), index.num_nodes)

    for node in include:
        take(node)
    if exclude:
        chosen[list(exclude)] = True
    heap = [(-int(counts[node]), node) for node in range(index.num_nodes) if not chosen[node]]
    heapq.heapify(heap)
    while len(seeds) < k and heap:
        negative_count, node = heapq.heappop(heap)
        if chosen[node]:
            continue
        current = int(counts[node])
        if -negative_count != current:
            heapq.heappush(heap, (-current, node))
            continue
        take(node)
    if len(seeds) < k:
        fill = np.flatnonzero(~chosen)[: k - len(seeds)]
        for v in fill:
            seeds.append(int(v))
            gains.append(0)
    return seeds, total, tuple(gains)


def answer(result):
    return result.seeds, result.covered, result.marginal_gains


def from_sets(num_nodes, sets):
    collection = FlatRRCollection(num_nodes, 0)
    for members in sets:
        collection.append_arrays(int(members[0]) if members else 0,
                                 np.asarray(members, dtype=np.int64), 0, 0)
    return SketchIndex(collection)


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(gnm_random_digraph(150, 600, rng=4))


@pytest.fixture
def index(graph):
    return SketchIndex.build(graph, "IC", theta=1200, rng=9)


def tied_index():
    """Every node in exactly two sets and every set of size 2 (a ring),
    plus isolated nodes: maximal ties at every round."""
    ring = 24
    sets = [(i, (i + 1) % ring) for i in range(ring)]
    return from_sets(ring + 6, sets)


@pytest.mark.parametrize("ks", [
    [1, 2, 5, 9, 20, 40],   # ascending
    [40, 20, 9, 5, 2, 1],   # descending
    [7, 7, 3, 7, 12, 12],   # repeated
])
def test_incremental_sequences(index, ks):
    state = HeapState(fresh_counts(index), index.num_sets)
    for k in ks:
        assert answer(index.select(k)) == heap_select(index, k, state)


@pytest.mark.parametrize("k", [1, 3, 10, 60])
def test_not_incremental(index, k):
    index.select(5)  # a live incremental state must not leak into the answer
    assert answer(index.select(k, incremental=False)) == heap_select(index, k)
    assert index.select(k).seeds == greedy_max_coverage(index.collection, index.num_nodes, k).seeds


@pytest.mark.parametrize("include, exclude", [
    ([3], set()),
    ([], {0, 1, 2}),
    ([17, 4], {5, 6, 99}),
])
@pytest.mark.parametrize("k", [2, 8, 30])
def test_forced_include_exclude(index, include, exclude, k):
    result = index.select(k, forced_include=include, forced_exclude=exclude)
    assert answer(result) == heap_constrained(index, k, include, exclude)


def test_heavy_ties():
    index = tied_index()
    for k in (1, 2, 5, 13, 28):
        assert answer(index.select(k, incremental=False)) == heap_select(index, k)
        constrained = index.select(k, forced_include=[5], forced_exclude={0, 6})
        assert answer(constrained) == heap_constrained(index, k, [5], {0, 6})
    state = HeapState(fresh_counts(index), index.num_sets)
    for k in (3, 11, 30, 4):
        assert answer(index.select(k)) == heap_select(index, k, state)


def test_k_beyond_positive_counts():
    index = from_sets(40, [(0, 1), (1, 2), (5,), (5, 7)])
    for k in (4, 10, 40):
        expected = heap_select(index, k)
        assert answer(index.select(k, incremental=False)) == expected
        assert expected[2][-1] == 0
    state = HeapState(fresh_counts(index), index.num_sets)
    for k in (6, 10, 25, 2):  # resumes after a zero-gain tail
        assert answer(index.select(k)) == heap_select(index, k, state)
    assert answer(index.select(12, forced_include=[9], forced_exclude={0, 2})) == \
        heap_constrained(index, 12, [9], {0, 2})


def test_empty_sketch():
    index = SketchIndex(FlatRRCollection(12, 0))
    assert index.num_sets == 0
    for k in (1, 6, 12):
        assert answer(index.select(k)) == heap_select(index, k)
        assert index.select(k).seeds == list(range(k))
    assert answer(index.select(4, forced_include=[7], forced_exclude={0})) == \
        heap_constrained(index, 4, [7], {0})
