"""Graph delta primitives: CSR splices and edge-id remapping."""

import numpy as np
import pytest

from repro.dynamic import DynamicDiGraph, EdgeUpdate
from repro.graphs import (
    DiGraph,
    delete_edge,
    gnm_random_digraph,
    insert_edge,
    locate_edge,
    reweight_edge,
    weighted_cascade,
)


@pytest.fixture
def graph():
    return weighted_cascade(gnm_random_digraph(30, 120, rng=5))


CSR_ARRAYS = ("src", "dst", "prob", "out_ptr", "out_idx", "out_prob",
              "in_ptr", "in_idx", "in_prob")


def assert_equals_rebuild(graph):
    """``graph`` is byte-identical to a from-scratch build of its edge lists."""
    rebuilt = DiGraph(graph.n, graph.src, graph.dst, graph.prob)
    assert (graph.n, graph.m) == (rebuilt.n, rebuilt.m)
    for name in CSR_ARRAYS:
        got, want = getattr(graph, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype, name
        assert got.flags.c_contiguous, name
        assert np.array_equal(got, want), name
    assert graph.fingerprint() == rebuilt.fingerprint()


def edge_identity(graph):
    """in-CSR id -> (source, destination) pairs for the whole graph."""
    dst_of = np.searchsorted(graph.in_ptr, np.arange(graph.m), side="right") - 1
    return list(zip(graph.in_idx.tolist(), dst_of.tolist()))


class TestInsert:
    def test_appends_edge(self, graph):
        delta = insert_edge(graph, 3, 7, 0.25)
        new = delta.new_graph
        assert new.m == graph.m + 1
        assert new.has_edge(3, 7)
        assert new.edge_probability(3, 7) == pytest.approx(0.25)
        assert graph.m == 120  # original untouched
        assert delta.new_fingerprint == new.fingerprint()
        assert delta.old_fingerprint == graph.fingerprint()
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_new_edge_lands_last_in_slice(self, graph):
        delta = insert_edge(graph, 3, 7, 0.25)
        new = delta.new_graph
        # in_pos is the new edge's id in the NEW graph, at the end of 7's slice.
        assert delta.in_pos == int(graph.in_ptr[8])
        assert int(new.in_idx[delta.in_pos]) == 3
        assert float(new.in_prob[delta.in_pos]) == pytest.approx(0.25)

    def test_remap_preserves_edge_identity(self, graph):
        delta = insert_edge(graph, 3, 7, 0.25)
        old_ids = np.arange(graph.m)
        new_ids = delta.remap_edge_ids(old_ids)
        old_identity = edge_identity(graph)
        new_identity = edge_identity(delta.new_graph)
        for old, new in zip(old_ids.tolist(), new_ids.tolist()):
            assert old_identity[old] == new_identity[new]

    def test_rejects_bad_probability(self, graph):
        with pytest.raises(ValueError):
            insert_edge(graph, 0, 1, 1.5)

    def test_rejects_bad_node(self, graph):
        with pytest.raises(ValueError):
            insert_edge(graph, 0, graph.n, 0.5)


class TestDelete:
    def test_removes_edge(self, graph):
        u, v = int(graph.src[17]), int(graph.dst[17])
        delta = delete_edge(graph, u, v)
        assert delta.new_graph.m == graph.m - 1
        assert delta.old_prob == pytest.approx(graph.edge_probability(u, v))
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_missing_edge_raises(self, graph):
        missing = next(
            (u, v)
            for u in range(graph.n)
            for v in range(graph.n)
            if u != v and not graph.has_edge(u, v)
        )
        with pytest.raises(KeyError):
            delete_edge(graph, *missing)

    def test_remap_preserves_edge_identity(self, graph):
        u, v = int(graph.src[17]), int(graph.dst[17])
        delta = delete_edge(graph, u, v)
        surviving = np.setdiff1d(np.arange(graph.m), [delta.in_pos])
        new_ids = delta.remap_edge_ids(surviving)
        old_identity = edge_identity(graph)
        new_identity = edge_identity(delta.new_graph)
        for old, new in zip(surviving.tolist(), new_ids.tolist()):
            assert old_identity[old] == new_identity[new]

    def test_parallel_edges_delete_first_match(self):
        # DiGraph permits parallel edges (GraphBuilder deduplicates).
        g = DiGraph(3, np.array([0, 1, 0]), np.array([2, 2, 2]),
                    np.array([0.1, 0.2, 0.3]))
        delta = delete_edge(g, 0, 2)
        assert delta.old_prob == pytest.approx(0.1)
        assert delta.new_graph.edge_probability(0, 2) == pytest.approx(0.3)


class TestReweight:
    def test_replaces_probability(self, graph):
        u, v = int(graph.src[3]), int(graph.dst[3])
        delta = reweight_edge(graph, u, v, 0.9)
        assert delta.new_graph.edge_probability(u, v) == pytest.approx(0.9)
        assert delta.new_graph.m == graph.m
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_remap_is_identity(self, graph):
        u, v = int(graph.src[3]), int(graph.dst[3])
        delta = reweight_edge(graph, u, v, 0.9)
        ids = np.arange(graph.m)
        assert np.array_equal(delta.remap_edge_ids(ids), ids)

    def test_same_probability_still_changes_fingerprint_only_if_bits_differ(self, graph):
        u, v = int(graph.src[3]), int(graph.dst[3])
        p = graph.edge_probability(u, v)
        delta = reweight_edge(graph, u, v, p)
        assert delta.new_fingerprint == delta.old_fingerprint


class TestLocate:
    def test_locate_agrees_with_csr(self, graph):
        for j in (0, 10, 50):
            u, v = int(graph.src[j]), int(graph.dst[j])
            edge_index, in_pos = locate_edge(graph, u, v)
            assert int(graph.in_idx[in_pos]) == u
            assert int(graph.src[edge_index]) == u
            assert int(graph.dst[edge_index]) == v
            assert graph.in_ptr[v] <= in_pos < graph.in_ptr[v + 1]

    def test_locate_missing_raises(self):
        g = DiGraph(3, np.array([0]), np.array([1]), np.array([0.5]))
        with pytest.raises(KeyError):
            locate_edge(g, 1, 0)


class TestSpliceEqualsRebuild:
    """Each primitive splices the CSR; the result equals a full rebuild."""

    @pytest.fixture
    def parallel(self):
        # Three parallel 0 -> 2 edges interleaved with other sources.
        return DiGraph(5, np.array([0, 1, 0, 3, 0, 2]), np.array([2, 2, 2, 2, 2, 4]),
                       np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))

    def test_insert_into_zero_in_degree_node(self):
        g = DiGraph(5, np.array([0, 1, 4]), np.array([1, 2, 1]), np.array([0.1, 0.2, 0.3]))
        for u, v in ((2, 0), (1, 3)):
            assert g.in_degree(v) == 0
            delta = insert_edge(g, u, v, 0.4)
            assert_equals_rebuild(delta.new_graph)
            assert delta.new_graph.in_degree(v) == 1
        assert_equals_rebuild(insert_edge(DiGraph(3, [], []), 2, 1, 0.5).new_graph)

    def test_insert_at_last_node(self, graph):
        last = graph.n - 1
        for u, v in ((last, 0), (0, last), (last, last)):
            assert_equals_rebuild(insert_edge(graph, u, v, 0.3).new_graph)

    def test_insert_self_loop(self, graph):
        delta = insert_edge(graph, 6, 6, 0.7)
        assert_equals_rebuild(delta.new_graph)
        assert delta.new_graph.has_edge(6, 6)

    def test_insert_parallel_duplicate(self, parallel):
        delta = insert_edge(parallel, 0, 2, 0.9)
        assert_equals_rebuild(delta.new_graph)
        assert delta.new_graph.in_neighbors(2).tolist() == [0, 1, 0, 3, 0, 0]

    def test_delete_first_parallel_edge(self, parallel):
        delta = delete_edge(parallel, 0, 2)
        assert_equals_rebuild(delta.new_graph)
        assert delta.new_graph.in_prob[delta.new_graph.in_ptr[2]:].tolist()[:4] == \
            [0.2, 0.3, 0.4, 0.5]

    def test_reweight_first_parallel_edge(self, parallel):
        delta = reweight_edge(parallel, 0, 2, 0.95)
        assert_equals_rebuild(delta.new_graph)
        assert delta.new_graph.out_prob[:3].tolist() == [0.95, 0.3, 0.5]
        # Only the probability arrays are new.
        for name in ("src", "dst", "out_ptr", "out_idx", "in_ptr", "in_idx"):
            assert getattr(delta.new_graph, name) is getattr(parallel, name)
        assert parallel.prob[0] == 0.1  # the old snapshot is untouched

    def test_reweight_to_same_bits(self, graph):
        u, v = int(graph.src[11]), int(graph.dst[11])
        delta = reweight_edge(graph, u, v, graph.edge_probability(u, v))
        assert_equals_rebuild(delta.new_graph)
        assert delta.new_fingerprint == delta.old_fingerprint

    def test_chain_of_mixed_ops(self, graph):
        g = graph
        for step in range(30):
            if step % 3 == 0:
                g = insert_edge(g, step % g.n, (7 * step) % g.n, 0.05 * (step % 20)).new_graph
            else:
                u, v = int(g.src[step]), int(g.dst[step])
                op = delete_edge if step % 3 == 1 else reweight_edge
                args = () if op is delete_edge else (0.5,)
                g = op(g, u, v, *args).new_graph
            assert_equals_rebuild(g)

    def test_preview_never_rebuilds_the_csr(self, graph, monkeypatch):
        dynamic = DynamicDiGraph(graph)
        u, v = int(graph.src[5]), int(graph.dst[5])

        def rebuild(*args, **kwargs):
            raise AssertionError("preview re-sorted the whole graph")

        monkeypatch.setattr(DiGraph, "_build_csr", rebuild)
        for update in (EdgeUpdate("insert", 2, 9, 0.5), EdgeUpdate("reweight", u, v, 0.25),
                       EdgeUpdate("delete", u, v)):
            dynamic.commit(dynamic.preview(update))
        assert dynamic.version == 3
