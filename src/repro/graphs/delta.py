"""Single-edge graph mutations as CSR splices.

:class:`~repro.graphs.digraph.DiGraph` is immutable by design — every other
subsystem keys caches and persisted sketches off its content fingerprint.
Evolving-network workloads therefore model a mutation as a *transition
between two immutable snapshots*: each primitive here derives the new
snapshot's arrays from the old ones by splicing the one touched entry into
(or out of) each CSR direction and shifting the pointer tails by one — no
sort and no re-validation of untouched edges, O(m) memory copies but no
O(m log m) work — and returns a :class:`GraphDelta` describing exactly what
moved.  The spliced snapshot is byte-identical to ``DiGraph(n, src, dst,
prob)`` built from the same edited edge lists, fingerprint included.

The delta is what makes *incremental* downstream repair possible.  RR-set
machinery addresses edges by their position in the **in-CSR** arrays
(``in_ptr``/``in_idx``/``in_prob`` — the arrays the reverse traversals
walk), so the delta records

* the touched edge's old in-CSR position (``in_pos``) and the old in-CSR
  slice ``[slice_lo, slice_hi)`` of its destination node, and
* how every *other* in-CSR edge id shifts across the mutation
  (:meth:`GraphDelta.remap_edge_ids`) — a pure ±1 threshold shift, because
  the CSR build is a stable sort by destination and insertions append to
  the input edge list (a new edge lands *last* in its destination's slice).

Deletion and reweighting resolve parallel ``u -> v`` duplicates to the
first match in input-edge order, which by stability is also the first match
in the source's out-CSR slice and in the destination's in-CSR slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.utils.validation import check_node, require

__all__ = [
    "GraphDelta",
    "insert_edge",
    "delete_edge",
    "reweight_edge",
    "locate_edge",
]


@dataclass(frozen=True)
class GraphDelta:
    """One edge mutation between two immutable graph snapshots.

    ``in_pos`` is the edge's position in the **old** graph's in-CSR arrays
    for ``delete``/``reweight``; for ``insert`` it is the new edge's
    position in the **new** graph's in-CSR arrays (which equals
    ``slice_hi``, the old end of the destination's slice, because the new
    edge sorts last within the slice).  ``slice_lo``/``slice_hi`` bound the
    destination node's in-CSR slice in the *old* graph.
    """

    op: str
    u: int
    v: int
    old_prob: float | None
    new_prob: float | None
    edge_index: int | None
    in_pos: int
    slice_lo: int
    slice_hi: int
    old_graph: DiGraph
    new_graph: DiGraph
    old_fingerprint: str
    new_fingerprint: str

    def remap_edge_ids(self, ids: np.ndarray) -> np.ndarray:
        """Map old-graph in-CSR edge ids into the new graph's id space.

        Only valid for ids that still exist after the mutation (a deleted
        edge's own id must not be passed — downstream repair resamples every
        RR set whose trace contains it, so surviving traces never do).
        """
        ids = np.asarray(ids)
        if self.op == "insert":
            # Ids at/after the old end of v's slice shift up by one to make
            # room for the appended edge (which takes id ``slice_hi``).
            return ids + (ids >= self.slice_hi)
        if self.op == "delete":
            return ids - (ids > self.in_pos)
        return ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        prob = "" if self.new_prob is None else f", p={self.new_prob:g}"
        return f"GraphDelta({self.op} {self.u}->{self.v}{prob})"


def locate_edge(graph: DiGraph, u: int, v: int) -> tuple[int, int]:
    """``(input_edge_index, in_csr_position)`` of the first ``u -> v`` edge.

    Both "firsts" agree: the in-CSR build sorts stably by destination, so
    within ``v``'s slice the sources appear in input-edge order.
    """
    u = check_node(u, graph.n)
    v = check_node(v, graph.n)
    lo, hi = int(graph.in_ptr[v]), int(graph.in_ptr[v + 1])
    matches = np.flatnonzero(graph.in_idx[lo:hi] == u)
    if matches.size == 0:
        raise KeyError(f"no edge {u} -> {v}")
    in_pos = lo + int(matches[0])
    edge_index = int(np.flatnonzero((graph.src == u) & (graph.dst == v))[0])
    return edge_index, in_pos


def _delta(op, u, v, old_prob, new_prob, edge_index, in_pos, graph, new_graph) -> GraphDelta:
    lo, hi = int(graph.in_ptr[v]), int(graph.in_ptr[v + 1])
    return GraphDelta(
        op=op,
        u=int(u),
        v=int(v),
        old_prob=old_prob,
        new_prob=new_prob,
        edge_index=edge_index,
        in_pos=in_pos,
        slice_lo=lo,
        slice_hi=hi,
        old_graph=graph,
        new_graph=new_graph,
        old_fingerprint=graph.fingerprint(),
        new_fingerprint=new_graph.fingerprint(),
    )


def _out_position(graph: DiGraph, u: int, v: int) -> int:
    """Out-CSR position of the first ``u -> v`` edge (which must exist)."""
    lo, hi = int(graph.out_ptr[u]), int(graph.out_ptr[u + 1])
    return lo + int(np.flatnonzero(graph.out_idx[lo:hi] == v)[0])


def _splice_insert(csr, node: int, value: int, prob: float):
    """``(ptr, idx, prob)`` with ``value`` appended to ``node``'s slice."""
    ptr, idx, probs = csr
    at = int(ptr[node + 1])
    new_ptr = ptr.copy()
    new_ptr[node + 1 :] += 1
    return new_ptr, np.insert(idx, at, value), np.insert(probs, at, prob)


def _splice_delete(csr, node: int, at: int):
    """``(ptr, idx, prob)`` without entry ``at`` of ``node``'s slice."""
    ptr, idx, probs = csr
    new_ptr = ptr.copy()
    new_ptr[node + 1 :] -= 1
    return new_ptr, np.delete(idx, at), np.delete(probs, at)


def _replaced(array: np.ndarray, at: int, value: float) -> np.ndarray:
    """A copy of ``array`` with entry ``at`` set to ``value``."""
    out = array.copy()
    out[at] = value
    return out


def insert_edge(graph: DiGraph, u: int, v: int, prob: float) -> GraphDelta:
    """A new snapshot with edge ``u -> v`` (probability ``prob``) appended.

    Parallel edges are allowed, matching :class:`DiGraph` semantics; the new
    edge is appended to the input edge list, so it materialises *last*
    within ``u``'s out-CSR slice and ``v``'s in-CSR slice, and every
    pre-existing in-CSR id is either unchanged or shifted up by exactly one.
    """
    u = check_node(u, graph.n)
    v = check_node(v, graph.n)
    require(0.0 <= prob <= 1.0, f"edge probability must lie in [0, 1]; got {prob}")
    prob = float(prob)
    new_graph = DiGraph._from_csr(
        graph.n,
        np.append(graph.src, np.int64(u)),
        np.append(graph.dst, np.int64(v)),
        np.append(graph.prob, np.float64(prob)),
        _splice_insert((graph.out_ptr, graph.out_idx, graph.out_prob), u, v, prob),
        _splice_insert((graph.in_ptr, graph.in_idx, graph.in_prob), v, u, prob),
    )
    # The appended edge's id in the NEW graph: old end of v's slice.
    in_pos = int(graph.in_ptr[v + 1])
    return _delta("insert", u, v, None, prob, int(graph.m), in_pos, graph, new_graph)


def delete_edge(graph: DiGraph, u: int, v: int) -> GraphDelta:
    """A new snapshot with the first ``u -> v`` edge removed."""
    edge_index, in_pos = locate_edge(graph, u, v)
    u, v = int(u), int(v)
    old_prob = float(graph.prob[edge_index])
    out_pos = _out_position(graph, u, v)
    new_graph = DiGraph._from_csr(
        graph.n,
        np.delete(graph.src, edge_index),
        np.delete(graph.dst, edge_index),
        np.delete(graph.prob, edge_index),
        _splice_delete((graph.out_ptr, graph.out_idx, graph.out_prob), u, out_pos),
        _splice_delete((graph.in_ptr, graph.in_idx, graph.in_prob), v, in_pos),
    )
    return _delta("delete", u, v, old_prob, None, edge_index, in_pos, graph, new_graph)


def reweight_edge(graph: DiGraph, u: int, v: int, prob: float) -> GraphDelta:
    """A new snapshot with the first ``u -> v`` edge's probability replaced.

    Only the three probability arrays are copied; the index and pointer
    arrays (and ``src``/``dst``) are shared with ``graph``.
    """
    require(0.0 <= prob <= 1.0, f"edge probability must lie in [0, 1]; got {prob}")
    edge_index, in_pos = locate_edge(graph, u, v)
    u, v, prob = int(u), int(v), float(prob)
    old_prob = float(graph.prob[edge_index])
    out_pos = _out_position(graph, u, v)
    new_graph = DiGraph._from_csr(
        graph.n, graph.src, graph.dst, _replaced(graph.prob, edge_index, prob),
        (graph.out_ptr, graph.out_idx, _replaced(graph.out_prob, out_pos, prob)),
        (graph.in_ptr, graph.in_idx, _replaced(graph.in_prob, in_pos, prob)),
    )
    return _delta("reweight", u, v, old_prob, prob, edge_index, in_pos, graph, new_graph)
