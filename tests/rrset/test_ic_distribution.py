"""The vectorised IC sampler draws exactly the RR-set distribution of a
per-edge reverse BFS.

The reference below is the paper's sampler written as plainly as possible:
a FIFO reverse BFS over the in-CSR that flips one coin per examined edge.
It lives here, not in the library, so it stays an independent definition
whatever the library's samplers become.  ``sample_batch`` consumes random
numbers differently (batched waves, geometric gaps, a scalar tail), so the
two are compared in distribution on the same roots: per-node inclusion
frequencies, the set-size histogram and, when tracing, per-edge live
frequencies and the trace-length histogram, each at 6σ of the two-sample
binomial error.
"""

from collections import deque
import random

import numpy as np
import pytest

from repro.graphs import DiGraph, gnm_random_digraph, weighted_cascade
from repro.rrset.ic_sampler import ICRRSampler
from repro.utils.rng import RandomSource

N = 200
SETS = 12_000
ROOTS = np.arange(SETS, dtype=np.int64) % N
SIZE_BINS = 40  # sizes at or above the last bin are pooled into it


def reference_sets(graph, roots, seed, max_depth=None):
    """Per-edge reverse BFS: one coin per in-edge of every expanded member.

    Returns each set's members and the in-CSR ids of its live edges.
    """
    coin = random.Random(seed).random
    in_ptr, in_idx, in_prob = (a.tolist() for a in (graph.in_ptr, graph.in_idx, graph.in_prob))
    sets, traces = [], []
    for root in roots.tolist():
        members, live = {root}, []
        queue = deque([(root, 0)])
        while queue:
            node, depth = queue.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            for edge in range(in_ptr[node], in_ptr[node + 1]):
                if coin() < in_prob[edge]:
                    live.append(edge)
                    source = in_idx[edge]
                    if source not in members:
                        members.add(source)
                        queue.append((source, depth + 1))
        sets.append(list(members))
        traces.append(live)
    return sets, traces


def frequencies(groups, size):
    """Share of groups containing each id, and the group-length histogram."""
    counts = np.zeros(size)
    lengths = np.zeros(SIZE_BINS)
    for group in groups:
        counts[list(set(group))] += 1
        lengths[min(len(group), SIZE_BINS - 1)] += 1
    return counts / len(groups), lengths / len(groups)


def batch_groups(batch):
    ptr, nodes = batch.ptr_array, batch.nodes_array
    sets = [nodes[ptr[i]:ptr[i + 1]].tolist() for i in range(len(batch))]
    if not batch.has_traces:
        return sets, None
    tptr, tedges = batch.trace_ptr_array, batch.trace_edges_array
    return sets, [tedges[tptr[i]:tptr[i + 1]].tolist() for i in range(len(batch))]


def assert_same_rates(got, want, count, what):
    """Two independent binomial rates over ``count`` trials agree at 6σ."""
    pooled = (got + want) / 2
    sigma = np.sqrt(pooled * (1 - pooled) * 2 / count)
    excess = np.abs(got - want) - (6 * sigma + 1e-12)
    worst = int(np.argmax(excess))
    assert excess[worst] <= 0, (
        f"{what}[{worst}]: {got[worst]:.4f} vs reference {want[worst]:.4f} "
        f"(6σ = {6 * sigma[worst]:.4f})")


def assert_same_distribution(graph, batch, reference):
    ref_sets, ref_traces = reference
    sets, traces = batch_groups(batch)
    assert [s[0] for s in sets] == ROOTS.tolist()
    for got, want, what in zip(frequencies(sets, graph.n), frequencies(ref_sets, graph.n),
                               ("node inclusion", "set-size histogram")):
        assert_same_rates(got, want, SETS, what)
    if traces is None:
        return
    for got, want, what in zip(frequencies(traces, graph.m), frequencies(ref_traces, graph.m),
                               ("live-edge frequency", "trace-length histogram")):
        assert_same_rates(got, want, SETS, what)
    # Every live edge runs between two members of its set.
    targets = np.repeat(np.arange(graph.n), np.diff(graph.in_ptr))
    for members, live in zip(sets, traces):
        assert set(targets[live].tolist()) | set(graph.in_idx[live].tolist()) <= set(members)


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(N, 1000, rng=11))


@pytest.fixture(scope="module")
def mixed_graph():
    """Even nodes: all in-edges share one p.  Odd nodes: per-edge p.

    Node 0 is a hub whose ~50 expected live in-edges outlast the
    single-skip geometric rounds.
    """
    base = gnm_random_digraph(N, 1000, rng=12)
    src = np.r_[base.src, np.arange(1, N)]
    dst = np.r_[base.dst, np.zeros(N - 1, dtype=np.int64)]
    rng = np.random.default_rng(12)
    indeg = np.bincount(dst, minlength=N)
    prob = np.where(dst % 2 == 0, 1.5 / indeg[dst], rng.uniform(0.02, 0.3, size=dst.size))
    prob[dst == 0] = 0.25
    return DiGraph(N, src, dst, np.minimum(prob, 1.0))


@pytest.fixture(scope="module")
def wc_reference(wc_graph):
    return reference_sets(wc_graph, ROOTS, seed=1)


@pytest.mark.parametrize("traced", [False, True])
def test_unbounded_matches_reference(wc_graph, wc_reference, traced):
    sampler = ICRRSampler(wc_graph, trace_edges=traced)
    assert_same_distribution(wc_graph, sampler.sample_batch(ROOTS, RandomSource(2)),
                             wc_reference)


def test_scalar_tail_matches_reference(wc_graph, wc_reference, monkeypatch):
    """Every pair goes through the scalar tail finisher."""
    monkeypatch.setattr(ICRRSampler, "TAIL_CUTOVER_PAIRS", 1 << 40)
    sampler = ICRRSampler(wc_graph, trace_edges=True)
    assert_same_distribution(wc_graph, sampler.sample_batch(ROOTS, RandomSource(3)),
                             wc_reference)


def test_max_depth_matches_reference(wc_graph):
    sampler = ICRRSampler(wc_graph, max_depth=2, trace_edges=True)
    assert_same_distribution(wc_graph, sampler.sample_batch(ROOTS, RandomSource(4)),
                             reference_sets(wc_graph, ROOTS, seed=5, max_depth=2))


def test_mixed_probability_nodes_match_reference(mixed_graph):
    unif = ICRRSampler(mixed_graph)._uniform_in_probs()
    assert np.isfinite(unif[0::2]).any() and np.isnan(unif[1::2]).any()
    sampler = ICRRSampler(mixed_graph, trace_edges=True)
    assert_same_distribution(mixed_graph, sampler.sample_batch(ROOTS, RandomSource(6)),
                             reference_sets(mixed_graph, ROOTS, seed=7))


def live_closure(graph, root, live):
    """Members and live edges when node ``v``'s in-edges are all live iff
    ``live[v]`` (and all dead otherwise)."""
    members, edges, queue = {root}, [], [root]
    while queue:
        node = queue.pop()
        if not live[node]:
            continue
        for edge in range(int(graph.in_ptr[node]), int(graph.in_ptr[node + 1])):
            edges.append(edge)
            source = int(graph.in_idx[edge])
            if source not in members:
                members.add(source)
                queue.append(source)
    return members, sorted(edges)


@pytest.mark.parametrize("path", ["wave", "tail"])
@pytest.mark.parametrize("rule", ["p0", "p1", "alternating"])
def test_certain_and_impossible_edges(rule, path, monkeypatch):
    """Nodes whose in-edges all have p = 0 or all have p = 1.

    p = 0 nodes draw nothing (a skip of log1p(-U)/log1p(-0) would divide by
    zero); p = 1 nodes make every in-edge live.  The hub's in-degree keeps
    some geometric rounds running past the per-edge cutover.
    """
    base = gnm_random_digraph(80, 400, rng=13)
    src = np.r_[base.src, np.arange(1, 80)]
    dst = np.r_[base.dst, np.zeros(79, dtype=np.int64)]  # node 0 is a hub
    live = {"p0": np.zeros(80, dtype=bool), "p1": np.ones(80, dtype=bool),
            "alternating": np.arange(80) % 2 == 0}[rule]
    graph = DiGraph(80, src, dst, live[dst].astype(float))
    if path == "tail":
        monkeypatch.setattr(ICRRSampler, "TAIL_CUTOVER_PAIRS", 1 << 40)
    roots = np.arange(400, dtype=np.int64) % 80
    batch = ICRRSampler(graph, trace_edges=True).sample_batch(roots, RandomSource(8))
    sets, traces = batch_groups(batch)
    for root, members, edges in zip(roots.tolist(), sets, traces):
        want_members, want_edges = live_closure(graph, root, live)
        assert members[0] == root and len(members) == len(set(members))
        assert set(members) == want_members
        assert sorted(edges) == want_edges
