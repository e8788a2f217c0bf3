"""Greedy maximum coverage over RR sets (Algorithm 1, lines 3–7).

Given sampled RR sets, pick ``k`` nodes covering as many sets as possible.
The standard greedy gives the ``(1 - 1/e)`` guarantee [29]; the solvers here
all run on the *flat* CSR layout (``ptr``/``nodes`` arrays, see
:mod:`repro.rrset.flat_collection`): per-node cover counts live in one int64
array, the node → set membership map is a CSR inverted index (the
*postings*), and each round is an ``argmax`` plus a vectorised
count-decrement instead of the former ``O(k·n)`` Python scans.

This module owns the postings format: ``inv_ptr`` (int64, ``n + 1``) and
``inv_sets`` (int64 set ids, ascending within each node).  Equivalently the
postings are the sorted composite keys ``node·θ + set_id``, which is how
:func:`_inverted_index` builds them in one sort.  A
:class:`~repro.sketch.index.SketchIndex` builds them once and keeps them
current: :func:`_append_postings` merges newly appended sets in one linear
scatter, and :func:`_patch_postings` swaps the pairs of sets a repair
rewrote, given as the same keys (:func:`_pair_keys`).  Either result is
byte-identical to a fresh build.

* :func:`greedy_max_coverage` — the *linear-time exact* greedy the paper
  cites: ``k`` rounds of true argmax over live cover counts.  The rounds are
  :func:`_greedy_rounds`, the one greedy loop of the package: a
  :class:`~repro.sketch.index.SketchIndex` runs it too, resumably across
  ``select`` calls and with forced/excluded nodes.
* :func:`lazy_greedy_max_coverage` — CELF-style lazy heap over the same
  counts (the ``coverage="lazy"`` solver); identical seeds (including on
  ties — both orders resolve a tied maximum toward the smaller node id),
  different constant factors.
* :func:`greedy_max_coverage_python` — the original pure-Python exact
  greedy, kept as the ``engine="python"`` ablation baseline and test oracle.

All solvers accept either a sequence of node tuples (the classic
:class:`~repro.rrset.collection.RRCollection` storage) or a
:class:`~repro.rrset.flat_collection.FlatRRCollection`; tuple input is
flattened once up front.

Ties break toward the smaller node id so selections are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.utils.validation import require

__all__ = [
    "CoverageResult",
    "greedy_max_coverage",
    "lazy_greedy_max_coverage",
    "greedy_max_coverage_python",
    "brute_force_max_coverage",
    "coverage_of",
]


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a maximum-coverage run."""

    seeds: list[int]
    covered: int
    num_sets: int
    #: Sets still uncovered after each pick (length k); used by diagnostics.
    marginal_gains: tuple[int, ...]

    @property
    def fraction(self) -> float:
        """``F_R(S)`` of the selected seeds."""
        return self.covered / self.num_sets if self.num_sets else 0.0


def coverage_of(rr_sets: Sequence[tuple[int, ...]], nodes) -> int:
    """Number of ``rr_sets`` intersecting ``nodes`` (reference counter)."""
    chosen = set(int(v) for v in nodes)
    return sum(1 for rr in rr_sets if any(v in chosen for v in rr))


# ----------------------------------------------------------------------
# Flat representation plumbing
# ----------------------------------------------------------------------
def _as_flat_arrays(rr_sets) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, nodes)`` int arrays for either storage format."""
    # Duck-typed so FlatRRCollection needn't be imported (avoids a cycle).
    ptr = getattr(rr_sets, "ptr_array", None)
    if ptr is not None:
        return np.asarray(ptr, dtype=np.int64), np.asarray(rr_sets.nodes_array, dtype=np.int64)
    num_sets = len(rr_sets)
    sizes = np.fromiter((len(rr) for rr in rr_sets), dtype=np.int64, count=num_sets)
    ptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    total = int(ptr[-1])
    nodes = np.fromiter(
        (int(v) for rr in rr_sets for v in rr), dtype=np.int64, count=total
    )
    return ptr, nodes


def _gather_members(ptr: np.ndarray, nodes: np.ndarray, set_ids: np.ndarray) -> np.ndarray:
    """Concatenated members of the given sets (CSR range-gather trick)."""
    counts = ptr[set_ids + 1] - ptr[set_ids]
    total = int(counts.sum())
    if total == 0:
        return nodes[:0]
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return nodes[np.repeat(ptr[set_ids], counts) + offsets]


def _decrement(counts: np.ndarray, members: np.ndarray, num_nodes: int) -> None:
    """``counts[v] -= multiplicity of v in members`` without a Python loop."""
    # subtract.at costs O(members), bincount O(num_nodes + members): the
    # dense pass only pays once the batch is about as large as the universe.
    if members.size > num_nodes:
        counts -= np.bincount(members, minlength=num_nodes)
    else:
        np.subtract.at(counts, members, 1)


def _inverted_index(
    ptr: np.ndarray, nodes: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR map node → ids of the sets containing it (ascending per node).

    One ``np.sort`` of int64 keys ``node·θ + set_id``, built in place: key
    order is (node, set id), exactly the order a stable argsort of ``nodes``
    gives, so ``key % θ`` is the postings' set-id column.
    """
    num_sets = ptr.size - 1
    require(int(num_nodes) * num_sets <= np.iinfo(np.int64).max,
            f"postings keys overflow int64: {num_nodes} nodes x {num_sets} sets")
    inv_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=inv_ptr[1:])
    if num_sets == 0:
        return inv_ptr, np.empty(0, dtype=np.int64)
    keys = nodes.astype(np.int64)  # a copy: the collection may be read-only
    keys *= num_sets
    keys += np.repeat(np.arange(num_sets, dtype=np.int64), np.diff(ptr))
    keys.sort()
    np.remainder(keys, num_sets, out=keys)
    return inv_ptr, keys


def _insert_before(base: np.ndarray, before: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``base`` with each ``values[i]`` inserted just before ``base[before[i]]``.

    ``before`` must be non-decreasing; equal positions keep ``values``'
    order.  One linear scatter — nothing in ``base`` is compared or sorted.
    """
    at = before + np.arange(values.size, dtype=np.int64)
    out = np.empty(base.size + values.size, dtype=np.int64)
    slot = np.ones(out.size, dtype=bool)
    slot[at] = False
    out[at] = values
    out[slot] = base
    return out


def _append_postings(
    inv_ptr: np.ndarray, inv_sets: np.ndarray, ptr: np.ndarray, nodes: np.ndarray,
    first_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Postings after appending the sets ``ptr``/``nodes`` as ids ``first_id, ...``.

    New ids exceed every stored one, so each node's new postings go after
    its old ones: the batch is indexed on its own and scattered into place.
    """
    add_ptr, add_sets = _inverted_index(ptr, nodes, inv_ptr.size - 1)
    add_sets += first_id
    before = np.repeat(inv_ptr[1:], np.diff(add_ptr))
    return inv_ptr + add_ptr, _insert_before(inv_sets, before, add_sets)


def _segment_rank(values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Per query ``i``: how many of the ascending run ``values[lo[i]:hi[i]]``
    are below ``targets[i]`` (one vectorised binary search over all runs)."""
    start = lo
    lo, hi = lo.copy(), hi.copy()
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        below = values[mid] < targets[live]
        lo[live[below]] = mid[below] + 1
        hi[live[~below]] = mid[~below]
        live = live[lo[live] < hi[live]]
    return lo - start


def _pair_keys(ptr: np.ndarray, nodes: np.ndarray, set_ids: np.ndarray,
               num_sets: int) -> np.ndarray:
    """Sorted keys ``node·num_sets + set_id`` of the member pairs of ``set_ids``."""
    keys = _gather_members(ptr, nodes, set_ids).astype(np.int64)
    keys *= num_sets
    keys += np.repeat(set_ids, ptr[set_ids + 1] - ptr[set_ids])
    keys.sort()
    return keys


def _patch_postings(
    inv_ptr: np.ndarray, inv_sets: np.ndarray, changed: np.ndarray,
    removed: np.ndarray, added: np.ndarray, num_sets: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Postings after the sets ``changed`` were rewritten.

    ``num_sets`` is the number of sets the postings cover; ``removed`` and
    ``added`` are the :func:`_pair_keys` of the changed sets' members as
    the postings hold them and as they are now.  Every (node, set) pair of
    a changed set is dropped, the new pairs are inserted in key order, and
    every other posting keeps its relative place.
    """
    num_nodes = inv_ptr.size - 1
    dropped = np.zeros(num_sets, dtype=bool)
    dropped[changed] = True
    kept = inv_sets[~dropped[inv_sets]]
    add_nodes, add_sets = np.divmod(added, num_sets)
    # Kept postings below key (v, s): v's postings below s, plus every
    # posting of a smaller node, minus the dropped pairs below the key.
    old_below = _segment_rank(inv_sets, inv_ptr[add_nodes], inv_ptr[add_nodes + 1], add_sets)
    before = inv_ptr[add_nodes] + old_below - np.searchsorted(removed, added)
    shift = (np.bincount(add_nodes, minlength=num_nodes)
             - np.bincount(removed // num_sets, minlength=num_nodes))
    new_ptr = inv_ptr.copy()
    np.cumsum(shift, out=shift)
    new_ptr[1:] += shift
    return new_ptr, _insert_before(kept, before, add_sets)


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
def _greedy_rounds(
    k: int, counts: np.ndarray, covered: np.ndarray,
    inv_ptr: np.ndarray, inv_sets: np.ndarray, ptr: np.ndarray, nodes: np.ndarray,
    seeds: list[int], gains: list[int], forced: Sequence[int] = (),
) -> None:
    """Grow ``seeds``/``gains`` to ``k`` picks: ``forced`` first, then argmax.

    ``counts`` holds each node's number of uncovered sets, and ``covered``
    flags the covered sets; both are updated in place, so a caller can keep
    them and resume with a larger ``k``.  A picked node's count becomes
    ``-1``, which keeps it out of later rounds; callers mark nodes that must
    never be picked the same way.  ``np.argmax`` resolves a tied maximum
    toward the smaller node id, so once no node covers a new set the
    remaining picks are the smallest unpicked ids, each with gain 0; that
    tail is taken in one pass.
    """
    pending = list(forced)
    while len(seeds) < k:
        if pending:
            node = pending.pop(0)
        else:
            node = int(np.argmax(counts))
            if counts[node] == 0:
                tail = np.flatnonzero(counts == 0)[: k - len(seeds)]
                counts[tail] = -1
                seeds.extend(tail.tolist())
                gains.extend([0] * tail.size)
                return
        seeds.append(node)
        gains.append(int(counts[node]))
        candidate_sets = inv_sets[inv_ptr[node] : inv_ptr[node + 1]]
        new_sets = candidate_sets[~covered[candidate_sets]]
        if new_sets.size:
            covered[new_sets] = True
            _decrement(counts, _gather_members(ptr, nodes, new_sets), counts.size)
        counts[node] = -1


def greedy_max_coverage(rr_sets, num_nodes: int, k: int) -> CoverageResult:
    """Exact greedy: k rounds of true argmax over live cover counts.

    ``rr_sets`` may be a sequence of node tuples or a
    :class:`~repro.rrset.flat_collection.FlatRRCollection`.  ``np.argmax``
    resolves ties toward the smaller node id, matching the historical
    pure-Python scan exactly.
    """
    require(k >= 1, "k must be >= 1")
    require(num_nodes >= k, "k cannot exceed the number of nodes")
    ptr, nodes = _as_flat_arrays(rr_sets)
    num_sets = ptr.size - 1
    inv_ptr, inv_sets = _inverted_index(ptr, nodes, num_nodes)
    seeds: list[int] = []
    gains: list[int] = []
    _greedy_rounds(k, np.diff(inv_ptr), np.zeros(num_sets, dtype=bool),
                   inv_ptr, inv_sets, ptr, nodes, seeds, gains)
    return CoverageResult(seeds, sum(gains), num_sets, tuple(gains))


def lazy_greedy_max_coverage(rr_sets, num_nodes: int, k: int) -> CoverageResult:
    """Lazy-heap greedy; identical seeds to the exact variant, lazier scans.

    Heap entries are ``(-count, node)``; a popped entry whose count is stale
    is re-pushed with the current count.  Because counts only decrease, a
    fresh popped entry is a true argmax, and the ``(-count, node)`` order
    resolves a tied maximum toward the smaller node id — the same
    tie-breaking rule as :func:`greedy_max_coverage`'s argmax, so the two
    produce identical seed lists even on ties.
    """
    require(k >= 1, "k must be >= 1")
    require(num_nodes >= k, "k cannot exceed the number of nodes")
    ptr, nodes = _as_flat_arrays(rr_sets)
    num_sets = ptr.size - 1
    inv_ptr, inv_sets = _inverted_index(ptr, nodes, num_nodes)
    counts = np.diff(inv_ptr)

    heap = list(zip((-counts).tolist(), range(num_nodes)))
    heapq.heapify(heap)
    covered = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    chosen = np.zeros(num_nodes, dtype=bool)
    gains: list[int] = []
    total_covered = 0
    while len(seeds) < k and heap:
        negative_count, node = heapq.heappop(heap)
        if chosen[node]:
            continue
        current = int(counts[node])
        if -negative_count != current:
            heapq.heappush(heap, (-current, node))
            continue
        seeds.append(node)
        chosen[node] = True
        gains.append(current)
        total_covered += current
        candidate_sets = inv_sets[inv_ptr[node] : inv_ptr[node + 1]]
        new_sets = candidate_sets[~covered[candidate_sets]]
        if new_sets.size:
            covered[new_sets] = True
            _decrement(counts, _gather_members(ptr, nodes, new_sets), num_nodes)
    if len(seeds) < k:
        # Degenerate inputs (heap exhausted early): one vectorised pass picks
        # the smallest-id unchosen nodes, replacing the old O(n·k) refill loop.
        fill = np.flatnonzero(~chosen)[: k - len(seeds)]
        seeds.extend(int(v) for v in fill)
        gains.extend(0 for _ in range(len(fill)))
    return CoverageResult(seeds, total_covered, num_sets, tuple(gains))


def greedy_max_coverage_python(
    rr_sets: Sequence[tuple[int, ...]], num_nodes: int, k: int
) -> CoverageResult:
    """The original pure-Python exact greedy (``engine="python"`` baseline).

    Semantically identical to :func:`greedy_max_coverage`; kept so the
    ablation bench can price the numpy rewrite and tests can cross-check the
    vectorised solver against an independent implementation.
    """
    require(k >= 1, "k must be >= 1")
    require(num_nodes >= k, "k cannot exceed the number of nodes")
    counts = [0] * num_nodes
    node_to_sets: list[list[int]] = [[] for _ in range(num_nodes)]
    for set_index, rr in enumerate(rr_sets):
        for node in rr:
            counts[node] += 1
            node_to_sets[node].append(set_index)

    covered = [False] * len(rr_sets)
    seeds: list[int] = []
    chosen: set[int] = set()
    total_covered = 0
    gains: list[int] = []
    for _ in range(k):
        best_node = -1
        best_count = -1
        for node in range(num_nodes):
            if node not in chosen and counts[node] > best_count:
                best_node = node
                best_count = counts[node]
        seeds.append(best_node)
        chosen.add(best_node)
        gains.append(best_count)
        total_covered += best_count
        for set_index in node_to_sets[best_node]:
            if covered[set_index]:
                continue
            covered[set_index] = True
            for member in rr_sets[set_index]:
                counts[member] -= 1
    return CoverageResult(seeds, total_covered, len(rr_sets), tuple(gains))


def brute_force_max_coverage(
    rr_sets: Sequence[tuple[int, ...]], num_nodes: int, k: int
) -> CoverageResult:
    """Optimal coverage by exhaustive search — test oracle only.

    Cost is ``C(num_nodes, k)`` coverage evaluations; callers keep inputs
    tiny.  Ties resolve to the lexicographically smallest seed tuple.
    """
    require(k >= 1, "k must be >= 1")
    require(num_nodes >= k, "k cannot exceed the number of nodes")
    best_seeds: tuple[int, ...] = tuple(range(k))
    best_covered = -1
    for candidate in combinations(range(num_nodes), k):
        covered = coverage_of(rr_sets, candidate)
        if covered > best_covered:
            best_covered = covered
            best_seeds = candidate
    return CoverageResult(list(best_seeds), best_covered, len(rr_sets), ())
