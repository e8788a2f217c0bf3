"""Byte-identity goldens for the vectorised IC and LT batch samplers.

``sample_batch`` output is pinned by sha256 digests of every array it
fills (``ptr``, ``nodes``, ``widths``, ``costs`` and, when tracing, the
trace CSR).  The samplers' bookkeeping (visited-row recycling, grouping a
batch by sample) may be rewritten for speed, but it must never change the
RNG stream or a single output byte: a rewrite that does fails here.

To re-pin after a deliberate change of the sampled stream, print
``digest(...)`` for each case and replace the constants below.
"""

import hashlib

import numpy as np
import pytest

from repro.graphs import (
    constant_probability,
    gnm_random_digraph,
    uniform_random_lt,
    weighted_cascade,
)
from repro.rrset.ic_sampler import ICRRSampler
from repro.rrset.lt_sampler import LTRRSampler
from repro.utils.rng import RandomSource

N, M = 300, 2400
ROOTS = np.arange(2000, dtype=np.int64) * 7 % N


def digest(batch) -> str:
    """One sha256 over every output array's dtype, shape and bytes."""
    h = hashlib.sha256()
    arrays = [batch.ptr_array, batch.nodes_array, batch.widths_array, batch.costs_array]
    if batch.has_traces:
        arrays += [batch.trace_ptr_array, batch.trace_edges_array]
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(N, M, rng=5))


@pytest.fixture(scope="module")
def const_graph():
    # One p for every in-edge of the graph, not one per node.
    return constant_probability(gnm_random_digraph(N, M, rng=5), 0.05)


@pytest.fixture(scope="module")
def lt_graph():
    return uniform_random_lt(gnm_random_digraph(N, M, rng=5), rng=3)


GOLDEN = {
    "ic": "5a85af2bfd09534f88c6d96eefefe04183759a3c4c23a0dfeea8918fea71083f",
    "ic-depth2": "4e000c4f3fa243be546e8a821a80577065040e1ff59a8095a72b517e4239f4e5",
    "ic-traced": "072f51facdc0fdfe66d22f4b05398ed4b6f20e174489487fbc86231824eaa1fd",
    "ic-traced-depth2": "37451d5f656c3b49dad2b12623b1003f011ac21b0950edd770d2339241f818f6",
    "ic-geometric": "9ec72eb9713b539c815990ff623d500d677f3f06322a51c21a2c608ab96e5de5",
    "lt": "b6aeb2e0c1a1ffd4da39f14e4ff20d531b36f2d29ebf79033b27cf8f2b6ab44a",
    "lt-traced": "95b1faf6a79c7c0dffef1bf64352b2c150014ac9891096628a44f47f605b7932",
}

CASES = {
    "ic": (lambda g: ICRRSampler(g), "wc_graph"),
    "ic-depth2": (lambda g: ICRRSampler(g, max_depth=2), "wc_graph"),
    "ic-traced": (lambda g: ICRRSampler(g, trace_edges=True), "wc_graph"),
    "ic-traced-depth2": (
        lambda g: ICRRSampler(g, max_depth=2, trace_edges=True), "wc_graph"),
    "ic-geometric": (lambda g: ICRRSampler(g), "const_graph"),
    "lt": (lambda g: LTRRSampler(g), "lt_graph"),
    "lt-traced": (lambda g: LTRRSampler(g, trace_edges=True), "lt_graph"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_batch_bytes_are_pinned(case, request):
    make, fixture = CASES[case]
    sampler = make(request.getfixturevalue(fixture))
    assert digest(sampler.sample_batch(ROOTS, RandomSource(17))) == GOLDEN[case]


STAMP_WRAP_GOLDEN = "9b0c77c69e3cd224ed21e95ea59316607b91720377085ac63cdf98341f8cb446"


def test_row_reuse_past_stamp_wrap_keeps_bytes(wc_graph, monkeypatch):
    """16 pool rows serve 8000 roots: each row is reused ~500 times, so any
    per-row generation counter of one byte wraps at least once, and the
    final stragglers go through the scalar tail finisher."""
    monkeypatch.setattr(ICRRSampler, "BATCH_CHUNK_MAX", 16)
    tail_calls = []
    finish_tail = ICRRSampler._finish_tail

    def spy(self, *args, **kwargs):
        tail_calls.append(1)
        return finish_tail(self, *args, **kwargs)

    monkeypatch.setattr(ICRRSampler, "_finish_tail", spy)
    sampler = ICRRSampler(wc_graph, trace_edges=True)
    roots = np.arange(8000, dtype=np.int64) * 13 % N
    batch = sampler.sample_batch(roots, RandomSource(23))
    assert tail_calls, "the tail cutover was never reached"
    assert digest(batch) == STAMP_WRAP_GOLDEN
