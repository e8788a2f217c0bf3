"""Property suite: a SketchIndex's postings stay equal to a fresh build.

The index builds its node → set postings once and then keeps them current:
``extend_flat`` appends the new sets' postings and ``apply_update`` patches
the postings of the sets a repair rewrote.  For any random interleaving of
extensions and edge updates (insert, delete, reweight, and a reweight to the
same probability) over traced IC, untraced IC and LT sketches, the live
postings must be byte-identical to ``_inverted_index`` of the current
collection, and ``select(k)`` must equal ``greedy_max_coverage``.  Checks
are interleaved at random too, so updates also land on postings that still
owe an append.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicDiGraph
from repro.graphs import gnm_random_digraph, uniform_random_lt, weighted_cascade
from repro.rrset.coverage import _inverted_index, greedy_max_coverage
from repro.sketch import SketchIndex

N, M = 30, 120
KINDS = ("IC-traced", "IC-untraced", "LT")


def make_graph(kind, seed):
    base = gnm_random_digraph(N, M, rng=seed)
    if kind == "LT":
        # Leave in-weight slack so inserts and up-weights stay valid.
        lt = uniform_random_lt(base, rng=seed)
        return lt.with_probabilities(lt.prob * 0.8)
    return weighted_cascade(base)


def lt_slack(graph, v):
    return max(0.0, 0.99 - float(graph.prob[graph.dst == v].sum()))


def update(data, dynamic, kind):
    graph = dynamic.graph
    op = data.draw(st.sampled_from(["insert", "delete", "reweight", "noop"]))
    if op == "insert" or graph.m < 2:
        u = data.draw(st.integers(0, N - 1))
        v = (u + data.draw(st.integers(1, N - 1))) % N
        top = min(0.1, lt_slack(graph, v)) if kind == "LT" else 0.9
        return dynamic.insert_edge(u, v, data.draw(st.floats(0.0, top)))
    edge = data.draw(st.integers(0, graph.m - 1))
    u, v = int(graph.src[edge]), int(graph.dst[edge])
    if op == "delete":
        return dynamic.delete_edge(u, v)
    current = graph.edge_probability(u, v)
    if op == "noop":
        return dynamic.reweight_edge(u, v, current)
    top = min(1.0, current + lt_slack(graph, v)) if kind == "LT" else 1.0
    return dynamic.reweight_edge(u, v, data.draw(st.floats(0.0, top)))


def assert_current(index, k):
    collection = index.collection
    live = index._ensure_postings()
    fresh = _inverted_index(collection.ptr_array, collection.nodes_array, index.num_nodes)
    for got, want in zip(live, fresh):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    expected = greedy_max_coverage(collection, index.num_nodes, k)
    result = index.select(k)
    assert result.seeds == expected.seeds
    assert result.covered == expected.covered


class TestPostingsStayCurrent:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_extend_and_update(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        seed = data.draw(st.integers(0, 2**16))
        graph = make_graph(kind, seed)
        dynamic = DynamicDiGraph(graph)
        index = SketchIndex.build(graph, kind[:2], theta=data.draw(st.integers(1, 150)),
                                  rng=seed, trace_edges=kind != "IC-untraced")
        if data.draw(st.booleans()):
            index.select(3)  # start with built postings, or let a step build them
        for step in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                index.ensure_theta(index.num_sets + data.draw(st.integers(0, 60)),
                                   rng=seed + step)
            else:
                index.apply_update(update(data, dynamic, kind), rng=seed + step)
            if data.draw(st.booleans()):
                assert_current(index, data.draw(st.integers(1, 6)))
        assert_current(index, 4)
        index.close()
