"""Property suite: a spliced snapshot equals a from-scratch CSR build.

``DynamicDiGraph`` previews every edge update by splicing the touched entry
into or out of the old snapshot's CSR arrays.  For any random sequence of
inserts (self-loops and parallel duplicates included), deletes, reweights and
same-probability reweights, every snapshot must be byte-identical to
``DiGraph(n, src, dst, prob)`` over the same edge lists: all nine arrays,
their dtypes, and the fingerprint that keys caches and persisted sketches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicDiGraph, EdgeUpdate
from repro.graphs import DiGraph

CSR_ARRAYS = ("src", "dst", "prob", "out_ptr", "out_idx", "out_prob",
              "in_ptr", "in_idx", "in_prob")


@st.composite
def starting_graphs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 20))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    prob = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    return DiGraph(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                   np.array(prob, dtype=np.float64))


def draw_update(data, graph):
    op = data.draw(st.sampled_from(["insert", "delete", "reweight", "same"]))
    if op == "insert" or graph.m == 0:
        u = data.draw(st.integers(0, graph.n - 1))
        v = data.draw(st.integers(0, graph.n - 1))
        return EdgeUpdate("insert", u, v, data.draw(st.floats(0.0, 1.0)))
    edge = data.draw(st.integers(0, graph.m - 1))
    u, v = int(graph.src[edge]), int(graph.dst[edge])
    if op == "delete":
        return EdgeUpdate("delete", u, v)
    if op == "same":
        return EdgeUpdate("reweight", u, v, graph.edge_probability(u, v))
    return EdgeUpdate("reweight", u, v, data.draw(st.floats(0.0, 1.0)))


def assert_equals_rebuild(graph):
    rebuilt = DiGraph(graph.n, graph.src, graph.dst, graph.prob)
    assert (graph.n, graph.m) == (rebuilt.n, rebuilt.m)
    for name in CSR_ARRAYS:
        got, want = getattr(graph, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert graph.fingerprint() == rebuilt.fingerprint()


@given(starting_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_every_snapshot_equals_a_rebuild(graph, data):
    dynamic = DynamicDiGraph(graph)
    for _ in range(data.draw(st.integers(1, 12))):
        before = dynamic.fingerprint()
        delta = dynamic.apply(draw_update(data, dynamic.graph))
        assert_equals_rebuild(dynamic.graph)
        assert delta.old_fingerprint == before
        assert delta.new_fingerprint == dynamic.fingerprint()
