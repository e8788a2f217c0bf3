"""RR-set sampling under the independent cascade model (Section 3.1).

The scalar sampler is the paper's randomized reverse BFS: starting at the
root, for each in-edge of a dequeued node flip a coin with the edge's
probability and enqueue the (unvisited) source on success.

Fast path (DESIGN.md §4): when *all* in-edges of a node share one
probability ``p`` — always true under the weighted-cascade convention,
where ``p = 1/indeg`` — the number of successful flips among ``d`` edges is
``Binomial(d, p)`` and the successful subset is uniform given its size.
Drawing the count then ``random.sample``-ing the subset is distributionally
identical to ``d`` per-edge flips but substantially faster for large ``d``.
The ``use_fast_path`` flag exists so the ablation bench (and sceptical
tests) can compare both implementations.

Vectorised path (:meth:`ICRRSampler.sample_batch`): many RR sets are grown
*simultaneously* as one level-synchronous reverse BFS over ``(sample,
node)`` pairs, read straight off ``DiGraph.in_ptr``/``in_idx``/``in_prob``,
with newly reached pairs deduplicated against a pool of visited rows (one
per in-flight sample, recycled by generation stamp rather than wiped).  A
frontier node whose in-edges share one probability ``p`` — every node under
the weighted-cascade convention, where ``p = 1/indeg`` — is expanded by
*geometric skip*: the gaps between the live edges of its ``d`` in-edges are
iid Geometric(p), so each pair walks a cursor through its own CSR slice
with one draw per live edge plus the one that runs past the slice, ``≈ 1 +
d·p`` draws instead of ``d`` coin flips.  Only nodes with mixed
in-probabilities flip one coin per edge.  The scalar tail that finishes a
batch's last few frontiers applies the same per-node rule.  The whole batch
is returned as a :class:`~repro.rrset.flat_collection.FlatRRCollection`, so
no per-set Python objects are created on the hot path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.obs import runtime as obs
from repro.obs.registry import SIZE_BUCKETS
from repro.rrset.base import RRSampler, RRSet
from repro.rrset.flat_collection import FlatRRCollection, group_by_sample, group_traces
from repro.utils.rng import RandomSource, resolve_rng

__all__ = ["ICRRSampler"]


def _skips(source: RandomSource, log_q: np.ndarray, width: int = 1) -> np.ndarray:
    """Geometric(p) - 1 skips as floats: ``log1p(-U) / log1p(-p)``.

    ``log_q`` holds ``log1p(-p)`` per pair (a column for ``width`` skips
    per pair; ``-inf`` for ``p = 1`` gives skips of 0).  The float is
    non-negative and its floor is the skip; for a ``p`` so small that the
    quotient leaves the double range it is ``+inf``.
    """
    shape = log_q.shape if width == 1 else (log_q.shape[0], width)
    skip = source.np.random(shape)
    np.negative(skip, out=skip)
    np.log1p(skip, out=skip)
    np.divide(skip, log_q, out=skip)
    return skip


class ICRRSampler(RRSampler):
    """Randomized reverse BFS generating IC RR sets."""

    model_name = "IC"

    #: Minimum in-degree for the Binomial fast path.  One numpy scalar
    #: binomial draw costs about as much as ~30 plain ``random()`` calls, so
    #: below this the per-edge loop is faster (measured in bench_ablation).
    DEFAULT_FAST_PATH_MIN_DEGREE = 32

    #: Upper bounds on the visited-row pool: at most this many one-byte
    #: cells (rows · n, i.e. at most 16 MiB of scratch) and at most this
    #: many concurrent samples.  Measured sweet spot: much smaller and
    #: the waves lose their numpy amortisation, much bigger and the
    #: scattered visited-row accesses fall out of last-level cache.
    BATCH_CHUNK_CELLS = 16 << 20
    BATCH_CHUNK_MAX = 8192

    #: When the live frontier shrinks below this many (sample, node) pairs,
    #: the chunk's stragglers are finished by the scalar BFS: numpy call
    #: overhead dominates vectorised waves this small, and deep RR sets
    #: (long weighted-cascade chains) would otherwise pay it per level.
    TAIL_CUTOVER_PAIRS = 64

    #: Single-skip geometric rounds per wave before the pairs still live
    #: switch to doubling rows of skips (see :meth:`_expand_geometric`).
    #: Under weighted cascade no pair is live this long.
    GEOMETRIC_SINGLE_ROUNDS = 16

    def __init__(
        self,
        graph: DiGraph,
        use_fast_path: bool = True,
        fast_path_min_degree: int | None = None,
        max_depth: int | None = None,
        trace_edges: bool = False,
    ):
        super().__init__(graph)
        #: Record the in-CSR ids of every successful coin on each sample
        #: (the live-edge trace incremental repair depends on).  Tracing
        #: never touches the RNG stream: every code path below derives the
        #: edge id from state it already computes, so a traced run samples
        #: the exact same sets as an untraced one.
        self.trace_edges = bool(trace_edges)
        #: Binomial subset draws in the scalar :meth:`sample_rooted` (the
        #: vectorised path always uses geometric skip for uniform nodes).
        self.use_fast_path = use_fast_path
        if fast_path_min_degree is None:
            fast_path_min_degree = self.DEFAULT_FAST_PATH_MIN_DEGREE
        self.fast_path_min_degree = fast_path_min_degree
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1; got {max_depth}")
        #: Depth truncation for the time-critical (bounded-horizon) IC model:
        #: a node enters the RR set only via live paths of length <= max_depth.
        self.max_depth = max_depth
        #: Per node: ``log1p(-p)`` of its shared in-probability ``p``
        #: (``-inf`` for ``p = 1``), NaN when its in-probabilities are mixed,
        #: and 0 when no in-edge can be live (``p = 0`` or no in-edge).
        #: Computed straight off the CSR arrays — no Python materialisation,
        #: so pool workers sampling over a shared graph stay at the one-copy
        #: memory footprint.
        with np.errstate(divide="ignore"):
            self._np_log_q = np.log1p(-self._uniform_in_probs())
        self._np_log_q[graph.in_degrees() == 0] = 0.0
        # Lazy caches: Python adjacency lists (scalar sample_rooted path
        # only), the shared-p list mirror, and the vector-path degree array.
        self._adj: tuple[list[list[int]], list[list[float]]] | None = None
        self._uniform_list: list[float | None] | None = None
        self._np_in_deg: np.ndarray | None = None

    def _uniform_in_probs(self) -> np.ndarray:
        """Per-node shared in-probability (NaN when mixed or in-degree 0)."""
        graph = self.graph
        out = np.full(graph.n, np.nan, dtype=np.float64)
        if graph.m == 0:
            return out
        in_deg = graph.in_degrees()
        node_of_edge = np.repeat(np.arange(graph.n, dtype=np.int64), in_deg)
        first_prob = graph.in_prob[graph.in_ptr[node_of_edge]]
        mixed = np.zeros(graph.n, dtype=bool)
        mixed[node_of_edge[graph.in_prob != first_prob]] = True
        uniform = (in_deg > 0) & ~mixed
        out[uniform] = graph.in_prob[graph.in_ptr[:-1][uniform]]
        return out

    def _adjacency(self) -> tuple[list[list[int]], list[list[float]]]:
        """Python adjacency lists for the scalar loops (built on demand)."""
        if self._adj is None:
            self._adj = self.graph.in_adjacency()
        return self._adj

    def _uniform_prob_list(self) -> list[float | None]:
        if self._uniform_list is None:
            self._uniform_list = [
                None if math.isnan(p) else p for p in self._uniform_in_probs().tolist()
            ]
        return self._uniform_list

    def sample_rooted(self, root: int, rng: RandomSource) -> RRSet:
        random01 = rng.py.random
        sample_distinct = rng.py.sample
        binomial = rng.np.binomial
        in_adj, in_probs = self._adjacency()
        uniform_prob = self._uniform_prob_list()
        use_fast_path = self.use_fast_path
        min_degree = self.fast_path_min_degree

        if self.max_depth is not None:
            return self._sample_rooted_bounded(root, rng)

        in_ptr = self.graph.in_ptr
        trace: list[int] | None = [] if self.trace_edges else None

        visited = {root}
        # A LIFO frontier is fine: traversal order does not change the set of
        # nodes whose coins succeed, only the order coins are consumed.
        frontier = [root]
        width = 0
        while frontier:
            current = frontier.pop()
            neighbors = in_adj[current]
            degree = len(neighbors)
            width += degree
            if degree == 0:
                continue
            edge_base = int(in_ptr[current])
            shared = uniform_prob[current]
            if use_fast_path and shared is not None and degree >= min_degree:
                successes = int(binomial(degree, shared))
                if successes == 0:
                    continue
                # Sampling *positions* instead of neighbour values consumes
                # the RNG identically (random.sample depends only on the
                # population length), while also yielding the edge ids.
                chosen = sample_distinct(range(degree), successes)
                if trace is not None:
                    trace.extend(edge_base + index for index in chosen)
                for index in chosen:
                    source_node = neighbors[index]
                    if source_node not in visited:
                        visited.add(source_node)
                        frontier.append(source_node)
            else:
                probs = in_probs[current]
                for index in range(degree):
                    if random01() < probs[index]:
                        if trace is not None:
                            trace.append(edge_base + index)
                        source_node = neighbors[index]
                        if source_node not in visited:
                            visited.add(source_node)
                            frontier.append(source_node)
        # Every in-edge of every visited node was (conceptually) examined, so
        # the generation cost is |R| nodes + w(R) edges.
        return RRSet(
            root=root,
            nodes=tuple(visited),
            width=width,
            cost=len(visited) + width,
            trace=None if trace is None else tuple(trace),
        )

    def _sample_rooted_bounded(self, root: int, rng: RandomSource) -> RRSet:
        """Depth-truncated variant for bounded-horizon IC.

        Must be FIFO: with a stack, a node could be first touched via a
        *long* live path, get marked visited, and wrongly lose the expansion
        budget its shortest live path would have granted.  FIFO dequeues in
        nondecreasing live distance, so each node's recorded depth is its
        true live distance to the root and membership is exactly "live path
        of length <= max_depth".
        """
        from collections import deque

        random01 = rng.py.random
        in_adj, in_probs = self._adjacency()
        in_ptr = self.graph.in_ptr
        max_depth = self.max_depth
        trace: list[int] | None = [] if self.trace_edges else None

        visited = {root}
        queue = deque([(root, 0)])
        width = 0
        while queue:
            current, depth = queue.popleft()
            if depth >= max_depth:
                continue
            neighbors = in_adj[current]
            probs = in_probs[current]
            edge_base = int(in_ptr[current])
            width += len(neighbors)
            for index in range(len(neighbors)):
                if random01() < probs[index]:
                    if trace is not None:
                        trace.append(edge_base + index)
                    source_node = neighbors[index]
                    if source_node not in visited:
                        visited.add(source_node)
                        queue.append((source_node, depth + 1))
        return RRSet(
            root=root,
            nodes=tuple(visited),
            width=width,
            cost=len(visited) + width,
            trace=None if trace is None else tuple(trace),
        )

    # ------------------------------------------------------------------
    # Vectorised batch path
    # ------------------------------------------------------------------
    def _ensure_vector_state(self) -> None:
        if self._np_in_deg is None:
            self._np_in_deg = self.graph.in_degrees()

    def sample_batch(self, roots, rng) -> FlatRRCollection:
        """Generate one IC RR set per root with numpy-batched expansion.

        Matches :meth:`sample_rooted` in distribution — including
        ``max_depth`` truncation — but not coin-for-coin (different RNG
        consumption order).  Two internal drivers share the wave-expansion
        core:

        * unbounded sampling uses a *streaming* reverse BFS: a pool of
          visited rows grows many RR sets concurrently and admits the next
          root the moment a row frees up, so the frontier stays wide and
          numpy call overhead is amortised across the whole batch;
        * ``max_depth`` sampling processes fixed chunks level-synchronously
          (every wave is one BFS depth), which realises the scalar FIFO
          truncation semantics exactly.
        """
        source = resolve_rng(rng)
        self._ensure_vector_state()
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        n = self.graph.n
        out = FlatRRCollection(n, self.graph.m, track_traces=self.trace_edges)
        if roots.size == 0:
            return out
        rows = max(1, min(self.BATCH_CHUNK_MAX, self.BATCH_CHUNK_CELLS // max(n, 1)))
        rows = min(rows, int(roots.size))
        visited = np.zeros((rows, n), dtype=np.uint8)
        with obs.trace("sampling.ic_batch", sets=int(roots.size)):
            if self.max_depth is None:
                self._sample_stream(roots, source, out, visited)
            else:
                for start in range(0, roots.size, rows):
                    self._expand_chunk(roots[start : start + rows], source, out, visited)
        if obs.enabled():
            obs.add("rr.sets", int(roots.size))
            obs.add("rr.cost", int(out.costs_array.sum()))
            obs.observe_many("rr.width", out.widths_array, bounds=SIZE_BUCKETS)
        return out

    def _sample_stream(
        self,
        roots: np.ndarray,
        source: RandomSource,
        out: FlatRRCollection,
        visited: np.ndarray,
    ) -> None:
        """Streaming driver: grow all RR sets through one shared frontier.

        Each in-flight sample owns one row of ``visited`` and recycles it to
        admit the next root the moment its frontier dies, so the wave width
        stays near the pool size instead of decaying into long tails of tiny
        frontiers.  Rows are recycled by generation stamp, not by wiping: a
        cell is visited iff it holds its row's current ``stamp``, so freeing
        a row is one increment and costs O(1) instead of O(n).  Only when a
        row's one-byte stamp wraps (every 255th reuse) is the row zeroed.
        Bookkeeping per RR set is thus O(|R|), the paper's sampling cost.
        """
        n = self.graph.n
        num_rows = visited.shape[0]
        total = int(roots.size)
        id_dtype = np.int32 if num_rows * n < 2**31 else np.int64
        sample_of_row = np.empty(num_rows, dtype=np.int64)
        free_rows: list[int] = list(range(num_rows - 1, -1, -1))
        member_samples: list[np.ndarray] = []
        member_nodes: list[np.ndarray] = []
        trace_samples: list[np.ndarray] | None = [] if self.trace_edges else None
        trace_edge_ids: list[np.ndarray] | None = [] if self.trace_edges else None
        next_root = 0
        active_v = np.empty(0, dtype=np.int64)
        active_r = np.empty(0, dtype=id_dtype)
        row_live = np.zeros(num_rows, dtype=bool)
        stamp = np.ones(num_rows, dtype=np.uint8)
        visited_flat = visited.reshape(-1)

        while True:
            if next_root < total and free_rows:
                take = min(len(free_rows), total - next_root)
                new_r = np.array(free_rows[-take:][::-1], dtype=id_dtype)
                del free_rows[-take:]
                new_s = np.arange(next_root, next_root + take, dtype=np.int64)
                new_v = roots[next_root : next_root + take]
                next_root += take
                sample_of_row[new_r] = new_s
                row_live[new_r] = True
                visited[new_r, new_v] = stamp[new_r]
                member_samples.append(new_s)
                member_nodes.append(new_v.astype(np.int32))
                active_v = np.concatenate([active_v, new_v])
                active_r = np.concatenate([active_r, new_r])
            if active_v.size == 0:
                break
            if active_v.size <= self.TAIL_CUTOVER_PAIRS and next_root >= total:
                self._finish_tail(
                    sample_of_row[active_r], active_r, active_v, 0, visited, stamp, None, source,
                    member_samples, member_nodes, trace_samples, trace_edge_ids,
                )
                break
            hit_pos, hit_v, hit_e = self._expand_wave(active_v, source)
            if trace_samples is not None and hit_pos.size:
                # Traces record every successful coin — captured before the
                # visited filter and the within-wave dedup, because a success
                # into an already-reached member is still a live edge.
                trace_samples.append(sample_of_row[active_r[hit_pos]])
                trace_edge_ids.append(hit_e)
            key = np.empty(0, dtype=id_dtype)
            if hit_pos.size:
                # One flat (row·n + node) key drives everything: the visited
                # lookup, the within-wave dedup (in-place sort + adjacent
                # diff beats a hash-based unique here), and the stamp write.
                hit_r = active_r[hit_pos]
                key = hit_r * id_dtype(n) + hit_v.astype(id_dtype, copy=False)
                key = key[visited_flat[key] != stamp[hit_r]]
            if key.size:
                key.sort()
                if key.size > 1:
                    keep = np.empty(key.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(key[1:], key[:-1], out=keep[1:])
                    key = key[keep]
                cand_r = key // id_dtype(n)
                visited_flat[key] = stamp[cand_r]
                cand_v = (key % id_dtype(n)).astype(np.int32, copy=False)
                member_samples.append(sample_of_row[cand_r])
                member_nodes.append(cand_v)
            else:
                cand_v = np.empty(0, dtype=np.int32)
                cand_r = np.empty(0, dtype=id_dtype)
            # Rows whose frontier died this wave are recycled by advancing
            # their stamp, which un-visits every cell at once; a row whose
            # stamp wrapped to 0 is zeroed and restarts at 1.  O(rows +
            # frontier) per wave, and O(n) only once per 255 reuses of a row.
            still_live = np.zeros(num_rows, dtype=bool)
            still_live[cand_r] = True
            finished = np.flatnonzero(row_live & ~still_live)
            if finished.size:
                stamp[finished] += 1
                wrapped = finished[stamp[finished] == 0]
                if wrapped.size:
                    visited[wrapped] = 0
                    stamp[wrapped] = 1
                free_rows.extend(finished.tolist())
            row_live = still_live
            active_v, active_r = cand_v, cand_r

        self._commit(roots, member_samples, member_nodes, None, out,
                     trace_samples, trace_edge_ids)

    def _expand_chunk(
        self,
        chunk_roots: np.ndarray,
        source: RandomSource,
        out: FlatRRCollection,
        visited: np.ndarray,
    ) -> None:
        """Level-synchronous driver for ``max_depth``-truncated sampling.

        Wave ``d`` expands exactly the nodes at live distance ``d``, so a
        member's recorded depth is its true live distance and truncation is
        exact (the vectorised analogue of :meth:`_sample_rooted_bounded`).
        ``visited`` is an all-zero scratch matrix with at least
        ``len(chunk_roots)`` rows; members are marked 1 and every touched
        cell is cleared back to 0 before return (O(members), no stamps).
        """
        n = self.graph.n
        in_deg = self._np_in_deg
        batch = chunk_roots.size
        id_dtype = np.int32 if batch * n < 2**31 else np.int64
        sample_ids = np.arange(batch, dtype=np.int64)
        visited[sample_ids, chunk_roots] = 1
        member_samples = [sample_ids]
        member_nodes = [chunk_roots.astype(np.int32)]
        trace_samples: list[np.ndarray] | None = [] if self.trace_edges else None
        trace_edge_ids: list[np.ndarray] | None = [] if self.trace_edges else None
        # Depth-truncated width needs the running per-wave total: members
        # sitting exactly at the horizon contribute no examined edges.
        widths = np.zeros(batch, dtype=np.int64)

        active_s, active_v = sample_ids, chunk_roots
        depth = 0
        while active_v.size:
            if depth >= self.max_depth:
                break
            if active_v.size <= self.TAIL_CUTOVER_PAIRS:
                self._finish_tail(
                    active_s, active_s, active_v, depth, visited, None, widths, source,
                    member_samples, member_nodes, trace_samples, trace_edge_ids,
                )
                break
            # w(R) counts every in-edge of every expanded member (Equation 1).
            widths += np.bincount(
                active_s, weights=in_deg[active_v], minlength=batch
            ).astype(np.int64)
            hit_pos, hit_v, hit_e = self._expand_wave(active_v, source)
            if hit_pos.size == 0:
                break
            if trace_samples is not None:
                trace_samples.append(active_s[hit_pos])
                trace_edge_ids.append(hit_e)
            hit_s = active_s[hit_pos]
            # uint8 cells: `~` would be a bitwise NOT, so compare with 0.
            fresh = visited[hit_s, hit_v] == 0
            hit_s, hit_v = hit_s[fresh], hit_v[fresh]
            if hit_s.size == 0:
                break
            key = np.unique(
                hit_s.astype(id_dtype, copy=False) * id_dtype(n)
                + hit_v.astype(id_dtype, copy=False)
            )
            cand_s = (key // id_dtype(n)).astype(np.int64, copy=False)
            cand_v = (key % id_dtype(n)).astype(np.int32, copy=False)
            visited[cand_s, cand_v] = 1
            member_samples.append(cand_s)
            member_nodes.append(cand_v)
            active_s, active_v = cand_s, cand_v
            depth += 1

        for wave_s, wave_v in zip(member_samples, member_nodes):
            visited[wave_s, wave_v] = 0  # reset scratch for the next chunk
        self._commit(chunk_roots, member_samples, member_nodes, widths, out,
                     trace_samples, trace_edge_ids)

    def _commit(
        self,
        roots: np.ndarray,
        member_samples: list[np.ndarray],
        member_nodes: list[np.ndarray],
        widths: np.ndarray | None,
        out: FlatRRCollection,
        trace_samples: list[np.ndarray] | None = None,
        trace_edge_ids: list[np.ndarray] | None = None,
    ) -> None:
        """Group membership by sample and bulk-append the batch to ``out``.

        Each sample's members (and trace edges) keep their discovery order,
        grouped by one composite-key sort
        (:func:`~repro.rrset.flat_collection.group_by_sample`).
        """
        batch = int(roots.size)
        all_s = member_samples[0] if len(member_samples) == 1 else np.concatenate(member_samples)
        all_v = member_nodes[0] if len(member_nodes) == 1 else np.concatenate(member_nodes)
        # Drop the per-wave chunks now, so they are not alive beside the
        # concatenated copies through grouping.
        member_samples.clear()
        member_nodes.clear()
        if widths is None:
            # Unbounded: w(R) = Σ in-degree over the final membership.
            widths = np.bincount(
                all_s, weights=self._np_in_deg[all_v], minlength=batch
            ).astype(np.int64)
        local_ptr, order = group_by_sample(all_s, batch)  # consumes all_s
        trace_ptr, trace_edges = group_traces(trace_samples, trace_edge_ids, batch)
        out.extend_arrays(
            roots=roots,
            ptr=local_ptr,
            nodes=all_v[order].astype(np.int32, copy=False),
            widths=widths,
            costs=np.diff(local_ptr) + widths,
            trace_ptr=trace_ptr,
            trace_edges=trace_edges,
        )

    def _finish_tail(
        self,
        active_s: np.ndarray,
        active_r: np.ndarray,
        active_v: np.ndarray,
        depth: int,
        visited: np.ndarray,
        stamp: np.ndarray | None,
        widths: np.ndarray | None,
        source: RandomSource,
        member_samples: list[np.ndarray],
        member_nodes: list[np.ndarray],
        trace_samples: list[np.ndarray] | None = None,
        trace_edge_ids: list[np.ndarray] | None = None,
    ) -> None:
        """Finish the few remaining frontiers with the scalar BFS.

        Numpy call overhead dominates waves this small, and deep RR sets
        (long weighted-cascade chains) would otherwise pay it per level.
        Shares the driver's visited matrix: ``active_r`` names each pair's
        row and ``stamp`` the row's visited mark (``None``: the bounded
        driver's plain 1).  Each expanded node's live in-edges are drawn by
        the wave path's per-node rule — geometric skip through its CSR
        slice when its in-edges share one ``p``, a coin per edge otherwise —
        straight off the CSR arrays (deliberately *not* the full cached
        adjacency, so pool workers never materialise the whole graph as
        Python lists).  Draw order differs from the wave path but the
        sampled distribution is identical.  FIFO with explicit depths keeps
        ``max_depth`` truncation exact (see :meth:`_sample_rooted_bounded`).
        ``widths`` is only accumulated for the bounded driver; the streaming
        driver derives widths from the final membership instead.
        """
        from collections import deque

        random01 = source.py.random
        log1p = math.log1p
        graph = self.graph
        in_ptr = graph.in_ptr
        in_idx = graph.in_idx
        in_prob = graph.in_prob
        log_qs = self._np_log_q
        max_depth = self.max_depth
        extra_s: list[int] = []
        extra_v: list[int] = []
        tracing = trace_samples is not None
        extra_ts: list[int] = []
        extra_te: list[int] = []
        queue = deque(
            (int(s), int(r), int(v), depth)
            for s, r, v in zip(active_s.tolist(), active_r.tolist(), active_v.tolist())
        )
        while queue:
            sample, row_id, current, level = queue.popleft()
            if max_depth is not None and level >= max_depth:
                continue
            lo, hi = int(in_ptr[current]), int(in_ptr[current + 1])
            if widths is not None:
                widths[sample] += hi - lo
            log_q = float(log_qs[current])
            live: list[int] = []
            if log_q < 0.0:
                # Geometric skip, as in _expand_geometric: ``skip`` dead
                # edges follow the cursor, then the next live one.
                edge = lo - 1
                while True:
                    skip = log1p(-random01()) / log_q
                    if skip >= hi - 1 - edge:
                        break
                    edge += 1 + int(skip)
                    live.append(edge)
            elif log_q != 0.0:  # NaN: mixed in-probabilities
                probs = in_prob[lo:hi].tolist()
                live = [lo + index for index, p in enumerate(probs) if random01() < p]
            if not live:
                continue
            row = visited[row_id]
            mark = 1 if stamp is None else int(stamp[row_id])
            for edge in live:
                if tracing:
                    extra_ts.append(sample)
                    extra_te.append(edge)
                source_node = int(in_idx[edge])
                if row[source_node] != mark:
                    row[source_node] = mark
                    extra_s.append(sample)
                    extra_v.append(source_node)
                    queue.append((sample, row_id, source_node, level + 1))
        if extra_s:
            member_samples.append(np.asarray(extra_s, dtype=np.int64))
            member_nodes.append(np.asarray(extra_v, dtype=np.int32))
        if tracing and extra_ts:
            trace_samples.append(np.asarray(extra_ts, dtype=np.int64))
            trace_edge_ids.append(np.asarray(extra_te, dtype=np.int64))

    def _expand_wave(
        self, active_v: np.ndarray, source: RandomSource
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One frontier wave: draw the live in-edges of every ``active_v``.

        Returns ``(positions, source_nodes, edge_ids)`` of the live edges —
        ``positions`` index into ``active_v`` so callers can recover the
        owning sample/row — undeduplicated.  ``edge_ids`` are the live
        edges' in-CSR positions when ``trace_edges`` is on (``None``
        otherwise; both sub-paths compute them anyway, so tracing draws no
        extra randomness).  Nodes whose in-edges share one probability go
        through :meth:`_expand_geometric`, nodes with mixed probabilities
        through :meth:`_expand_per_edge`; ``p = 0`` nodes draw nothing.
        """
        log_q = self._np_log_q[active_v]
        positions = np.flatnonzero(log_q != 0.0)
        if positions.size < active_v.size:
            active_v, log_q = active_v[positions], log_q[positions]
        out_pos: list[np.ndarray] = []
        out_v: list[np.ndarray] = []
        out_e: list[np.ndarray] | None = [] if self.trace_edges else None
        mixed = np.isnan(log_q)
        if mixed.any():
            mixed_v = active_v[mixed]
            self._expand_per_edge(
                positions[mixed], mixed_v, self._np_in_deg[mixed_v], source,
                out_pos, out_v, out_e,
            )
            uniform = ~mixed
            positions, active_v, log_q = positions[uniform], active_v[uniform], log_q[uniform]
        self._expand_geometric(positions, active_v, log_q, source, out_pos, out_v, out_e)
        if not out_pos:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, (empty if self.trace_edges else None)
        return (
            np.concatenate(out_pos),
            np.concatenate(out_v),
            np.concatenate(out_e) if out_e is not None else None,
        )

    def _expand_geometric(self, positions, frontier_v, log_q, source, out_pos, out_v,
                          out_e=None) -> None:
        """Geometric-skip expansion of uniform-probability frontier nodes.

        A node's ``d`` in-edges, all live with one probability ``p``, are
        ``d`` iid Bernoulli(p) trials, so the number of dead edges before
        each live one is Geometric(p) - 1 = ``floor(log1p(-U) / log1p(-p))``.
        Each (sample, node) pair keeps a cursor on its last live edge; a
        round draws one skip per pair, moves every cursor that stays inside
        its CSR slice and drops the rest, so a pair costs ``≈ 1 + d·p``
        draws instead of ``d`` coins.  Rounds end when every pair has run
        past its slice, so a wave takes one more round than its most live
        edges in one slice — a handful under weighted cascade, where ``d·p
        = 1``.  Pairs still live after ``GEOMETRIC_SINGLE_ROUNDS`` rounds
        (high-degree nodes with a large ``d·p``) then draw a row of skips
        per round, doubling its length each round, so the number of rounds
        grows with the logarithm of their live edges.
        """
        graph = self.graph
        in_idx = graph.in_idx
        cursor = graph.in_ptr[frontier_v] - 1
        last = graph.in_ptr[frontier_v + 1] - 1
        for _ in range(self.GEOMETRIC_SINGLE_ROUNDS):
            if positions.size == 0:
                return
            skip = _skips(source, log_q)
            inside = np.flatnonzero(skip < last - cursor)
            # New arrays each round: the appended ones are never written.
            cursor = cursor[inside] + skip[inside].astype(np.int64) + 1
            positions, last, log_q = positions[inside], last[inside], log_q[inside]
            out_pos.append(positions)
            out_v.append(in_idx[cursor])
            if out_e is not None:
                out_e.append(cursor)
        width = 2
        while positions.size:
            skip = _skips(source, log_q[:, None], width)
            # A skip this long leaves any slice; the cap keeps the sums in range.
            np.minimum(skip, float(graph.m), out=skip)
            edge = skip.astype(np.int64)
            edge += 1
            np.cumsum(edge, axis=1, out=edge)
            edge += cursor[:, None]
            inside = edge <= last[:, None]  # a prefix of each row
            hits = edge[inside]
            out_pos.append(np.repeat(positions, inside.sum(axis=1)))
            out_v.append(in_idx[hits])
            if out_e is not None:
                out_e.append(hits)
            alive = np.flatnonzero(inside[:, -1])
            cursor = edge[alive, -1]
            positions, last, log_q = positions[alive], last[alive], log_q[alive]
            width *= 2

    def _expand_per_edge(self, positions, frontier_v, deg, source, out_pos, out_v,
                         out_e=None) -> None:
        """Batched per-edge coin flips over the frontier's CSR edge slices."""
        graph = self.graph
        total = int(deg.sum())
        if total == 0:
            return
        ends = np.cumsum(deg)
        # Concatenated CSR ranges via the diff/cumsum trick: step 1 within a
        # node's slice, jump to the next node's start at each boundary.
        starts = graph.in_ptr[frontier_v]
        edge_idx = np.ones(total, dtype=np.int64)
        edge_idx[0] = starts[0]
        if ends.size > 1:
            edge_idx[ends[:-1]] = starts[1:] - starts[:-1] - deg[:-1] + 1
        np.cumsum(edge_idx, out=edge_idx)
        success_at = np.flatnonzero(source.np.random(total) < graph.in_prob[edge_idx])
        if success_at.size == 0:
            return
        # Map successful edge positions back to their frontier entry.
        success_edges = edge_idx[success_at]
        out_pos.append(positions[np.searchsorted(ends, success_at, side="right")])
        out_v.append(graph.in_idx[success_edges])
        if out_e is not None:
            out_e.append(success_edges)
