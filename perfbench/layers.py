"""The layer boundaries the traced run wraps, and the metrics they feed.

Each wrapped entry point opens a span named after a per-layer metric stem
(``rrset.sample`` feeds ``rrset.sample_s``).  Calls the benchmark does not
wrap are charged to the nearest wrapped caller, so a layer's self time
includes its unwrapped helpers.  The roots the benchmark opens itself (a
whole cold job, a set-up) are named :data:`OTHER`; their self time is the
time spent in no wrapped layer.

The traced run of ``serve-mixed`` covers one set-up and the request
stream, so its sampling, extend and cold-select figures include the IMM
sketch build as well as the repairs that follow updates.
"""

from __future__ import annotations

import weakref
from typing import Any

from perfbench.spans import Patches, SpanTree, spanned

#: Name of the root spans the benchmark opens around a job or a set-up.
OTHER = "core.other"

#: Every per-layer metric the traced run reports: ``(name, unit, better)``.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("rrset.sample_s", "s", "lower"),
    ("rrset.sets", "count", "lower"),
    ("rrset.entries", "count", "lower"),
    ("rrset.sets_per_s", "1/s", "higher"),
    ("rrset.greedy_s", "s", "lower"),
    ("rrset.coverage_s", "s", "lower"),
    ("core.estimate_kpt_s", "s", "lower"),
    ("core.refine_kpt_s", "s", "lower"),
    ("core.rr_sets_estimation", "count", "lower"),
    ("core.rr_sets_refinement", "count", "lower"),
    ("core.theta", "count", "lower"),
    ("core.lb_iterations", "count", "lower"),
    ("core.rr_useful_ratio", "ratio", "higher"),
    ("core.other_s", "s", "lower"),
    ("sketch.extend_s", "s", "lower"),
    ("sketch.select_cold_s", "s", "lower"),
    ("sketch.select_cold_calls", "count", "lower"),
    ("sketch.select_warm_s", "s", "lower"),
    ("sketch.select_warm_calls", "count", "higher"),
    ("sketch.spread_s", "s", "lower"),
    ("sketch.marginal_s", "s", "lower"),
    ("sketch.build_s", "s", "lower"),
    ("sketch.save_s", "s", "lower"),
    ("sketch.load_s", "s", "lower"),
    ("sketch.file_bytes", "bytes", "lower"),
    ("dynamic.repair_s", "s", "lower"),
    ("dynamic.preview_s", "s", "lower"),
    ("dynamic.commit_s", "s", "lower"),
    ("dynamic.sets_repaired", "count", "lower"),
    ("dynamic.affected_ratio", "ratio", "lower"),
    ("dynamic.update_ms_p50", "ms", "lower"),
    ("api.dispatch_s", "s", "lower"),
    ("api.retries", "count", "lower"),
    ("api.errors", "count", "lower"),
    ("graphs.generate_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("trace_closure_error", "ratio", "lower"),
)

#: Span names whose self time is reported as ``<name>_s``.
SPAN_NAMES = tuple(name[:-2] for name, unit, _ in PER_LAYER
                   if unit == "s" and name != "core.other_s") + (OTHER,)


def install(tree: SpanTree) -> Patches:
    """Wrap every layer's public entry points; ``undo()`` the result after."""
    from repro.core.kpt_estimation import estimate_kpt
    from repro.core.refine_kpt import refine_kpt
    from repro.dynamic.graph import DynamicDiGraph
    from repro.graphs import generators, weights
    from repro.rrset.base import RRSampler
    from repro.rrset.coverage import greedy_max_coverage
    from repro.rrset.flat_collection import FlatRRCollection
    from repro.rrset.ic_sampler import ICRRSampler
    from repro.sketch.index import SketchIndex
    from repro.sketch.service import InfluenceService

    # Indexes whose postings were dropped (or never built): the next select
    # on one of them rebuilds the postings and is counted as cold.
    stale: "weakref.WeakSet[Any]" = weakref.WeakSet()

    def mark_stale(fn: Any) -> Any:
        def invalidate(index: Any) -> Any:
            stale.add(index)
            return fn(index)

        return invalidate

    def select_kind(index: Any, *args: Any) -> str:
        kind = "cold" if index in stale else "warm"
        stale.discard(index)
        tree.count(f"sketch.select_{kind}_calls")
        return f"sketch.select_{kind}"

    def count_sets(tree: SpanTree, args: tuple[Any, ...], batch: Any) -> None:
        tree.count("rrset.sets", len(batch))
        tree.count("rrset.entries", int(batch.nodes_array.size))

    def loaded(tree: SpanTree, args: tuple[Any, ...], index: Any) -> None:
        stale.add(index)

    def repaired(tree: SpanTree, args: tuple[Any, ...], report: Any) -> None:
        tree.count("dynamic.sets_repaired", report.num_affected)
        tree.count("dynamic.sets_checked", report.num_sets)

    patches = Patches()
    patches.function(generators.gnm_random_digraph, spanned(tree, "graphs.generate"))
    patches.function(weights.weighted_cascade, spanned(tree, "graphs.generate"))
    patches.method(RRSampler, "sample_random_batch", spanned(tree, "rrset.sample"))
    patches.method(ICRRSampler, "sample_batch", spanned(tree, "rrset.sample", count_sets))
    patches.function(greedy_max_coverage, spanned(tree, "rrset.greedy"))
    patches.method(FlatRRCollection, "coverage_count", spanned(tree, "rrset.coverage"))
    patches.function(estimate_kpt, spanned(tree, "core.estimate_kpt"))
    patches.function(refine_kpt, spanned(tree, "core.refine_kpt"))
    patches.method(SketchIndex, "build", spanned(tree, "sketch.build"))
    patches.method(SketchIndex, "save", spanned(tree, "sketch.save"))
    patches.method(SketchIndex, "load", spanned(tree, "sketch.load", loaded))
    patches.method(SketchIndex, "extend_flat", spanned(tree, "sketch.extend"))
    patches.method(SketchIndex, "invalidate", mark_stale)
    patches.method(SketchIndex, "select", spanned(tree, select_kind))
    patches.method(SketchIndex, "spread", spanned(tree, "sketch.spread"))
    patches.method(SketchIndex, "coverage_fraction", spanned(tree, "sketch.spread"))
    patches.method(SketchIndex, "marginal_gain", spanned(tree, "sketch.marginal"))
    patches.method(SketchIndex, "apply_update", spanned(tree, "dynamic.repair", repaired))
    patches.method(DynamicDiGraph, "preview", spanned(tree, "dynamic.preview"))
    patches.method(DynamicDiGraph, "commit", spanned(tree, "dynamic.commit"))
    patches.method(InfluenceService, "execute", spanned(tree, "api.dispatch"))
    return patches


def closure_error(tree: SpanTree, roots: list[Any], wall_seconds: float) -> float:
    """``|Σ self time under roots − wall| / wall`` (0 means exact closure)."""
    total = sum(tree.self_seconds(roots).values())
    return abs(total - wall_seconds) / wall_seconds


def per_layer_metrics(tree: SpanTree, facts: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` value: span self times, counts, then ``facts``.

    ``facts`` carries what only the workload knows (θ, file sizes, the
    untraced wall-clock for the overhead ratio, ...); a metric neither the
    tree nor ``facts`` produced is 0 because the workload never entered
    that layer.
    """
    self_times = tree.self_seconds()
    unknown = set(self_times) - set(SPAN_NAMES)
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    values = {f"{name}_s": seconds for name, seconds in self_times.items()}
    for name in ("rrset.sets", "rrset.entries", "sketch.select_cold_calls",
                 "sketch.select_warm_calls", "dynamic.sets_repaired"):
        values[name] = tree.counts.get(name, 0.0)
    sampled = tree.counts.get("rrset.sets", 0.0)
    if sampled:
        values["rrset.sets_per_s"] = sampled / values["rrset.sample_s"]
        values["core.rr_useful_ratio"] = facts.get("core.theta", 0.0) / sampled
    checked = tree.counts.get("dynamic.sets_checked", 0.0)
    if checked:
        values["dynamic.affected_ratio"] = values["dynamic.sets_repaired"] / checked
    values.update(facts)
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
