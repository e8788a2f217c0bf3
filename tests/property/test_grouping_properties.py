"""Property suite: ``group_by_sample`` is a stable argsort by sample id.

The batch samplers group each batch's (sample, entry) pairs with one sort of
composite ``sample·L + position`` keys.  Its order must equal
``np.argsort(samples, kind="stable")`` on every input — empty, one entry,
all equal, already sorted, arbitrary — and its ``ptr`` must be the CSR
prefix sum of the per-sample counts.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rrset.flat_collection import group_by_sample, group_traces


def assert_matches_oracle(samples, num_samples):
    samples = np.asarray(samples, dtype=np.int64)
    ptr, order = group_by_sample(samples.copy(), num_samples)  # consumes its input
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(samples, kind="stable"))
    expected_ptr = np.zeros(num_samples + 1, dtype=np.int64)
    np.cumsum(np.bincount(samples, minlength=num_samples), out=expected_ptr[1:])
    assert ptr.dtype == np.int64
    assert np.array_equal(ptr, expected_ptr)


@pytest.mark.parametrize("samples,num_samples", [
    ([], 0),
    ([], 3),
    ([2], 5),
    ([4] * 9, 5),
    ([0, 0, 1, 1, 1, 3, 4, 4], 5),
    ([3, 1, 3, 0, 1, 3, 0, 2], 4),
], ids=["empty-no-samples", "empty", "one", "all-equal", "sorted", "shuffled"])
def test_edge_cases_match_stable_argsort(samples, num_samples):
    assert_matches_oracle(samples, num_samples)


@given(st.integers(1, 40).flatmap(
    lambda num: st.tuples(st.lists(st.integers(0, num - 1), max_size=300), st.just(num))
))
def test_random_samples_match_stable_argsort(case):
    samples, num_samples = case
    assert_matches_oracle(samples, num_samples)


def test_overflowing_keys_are_refused_before_allocating():
    # 2^62 samples x 4 entries needs keys up to 2^64: refused up front,
    # before the 2^62-slot ptr would be allocated.
    with pytest.raises(ValueError, match="overflow int64"):
        group_by_sample(np.zeros(4, dtype=np.int64), 1 << 62)


def test_group_traces_keeps_per_sample_recording_order():
    samples = [np.array([1, 0, 1]), np.array([0, 1])]
    edges = [np.array([10, 20, 11]), np.array([21, 12])]
    trace_ptr, trace_edges = group_traces(samples, edges, 3)
    assert trace_ptr.tolist() == [0, 2, 5, 5]
    assert trace_edges.tolist() == [20, 21, 10, 11, 12]
    assert trace_edges.dtype == np.int32
    assert samples == [] and edges == []  # the chunk lists are consumed
    empty_ptr, empty_edges = group_traces([], [], 2)
    assert empty_ptr.tolist() == [0, 0, 0] and empty_edges.size == 0
    assert group_traces(None, None, 2) == (None, None)
