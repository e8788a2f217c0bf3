"""The three workloads: two cold influence-maximization jobs and a serving stream.

All inputs derive from the workload seed.  The graph is
``weighted_cascade(gnm_random_digraph(n, m))`` under the IC model, and every
library call gets an explicit :class:`~repro.api.policy.ExecutionPolicy`
with the library defaults (vectorized engine, ``jobs=None``: one process).

* ``imm-cold`` — repeated cold ``imm(graph, k, ε=0.3)`` calls.  IMM's
  lower-bound search extends its sketch and re-selects on every step, so
  postings rebuilds are a large share of the job.
* ``timplus-cold`` — repeated cold ``tim_plus(graph, k, ε=0.5)`` calls, the
  paper's algorithm.  RR-set sampling dominates it, then one greedy cover.
* ``serve-mixed`` — the ``repro-im sketch`` + ``serve --sketch`` path: build
  an edge-traced IMM sketch, save and load it, and answer a closed-loop
  stream of select / spread / marginal_gain reads with an edge update every
  40th request.  Each update repairs the sketch, and the read after it
  rebuilds the postings; the other reads hit warm postings.

Every workload reports every end-to-end metric, so each is defined for all
three.  A *request* is one call the client waits for: a cold job on the
cold workloads (a run holds only a few, so their p99 is close to the
slowest call), one served op on ``serve-mixed``.  ``job_s`` is the cold
influence-maximization call: ``imm``/``tim_plus``, or the IMM sketch build
inside the ``serve-mixed`` set-up.  Update latency is reported by the
traced run as ``dynamic.update_ms_p50``, since only one workload updates.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import checks
from perfbench.layers import OTHER, closure_error, install, per_layer_metrics
from perfbench.spans import SpanTree

WORKLOADS = ("imm-cold", "timplus-cold", "serve-mixed")

#: End-to-end metric units; every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "judge_spread": "nodes",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}

#: Closure tolerance of the traced run: layer self times vs wall-clock.
CLOSURE_TOLERANCE = 0.01

#: Sub-seed tags: each input stream gets its own seed from the workload seed.
_TAGS = {"graph": 1, "algorithm": 2, "judge": 3, "requests": 4, "service": 5,
         "identity": 6, "sketch": 7}

clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`SMOKE` the tests'."""

    nodes: int = 20_000
    edges: int = 200_000
    k: int = 20
    imm_epsilon: float = 0.3
    timplus_epsilon: float = 0.5
    sketch_epsilon: float = 0.5
    ell: float = 1.0
    setup_repeats: int = 3
    setup_seconds: float = 2.0
    distinct_jobs: int = 3
    min_requests: int = 1000
    update_every: int = 40
    max_select_k: int = 50
    judge_sets: int = 100_000
    identity_nodes: int = 2_000
    identity_edges: int = 20_000


FULL = Scale()
SMOKE = Scale(nodes=1_500, edges=12_000, k=5, setup_repeats=2, setup_seconds=0.0,
              distinct_jobs=2,
              min_requests=120, max_select_k=10, judge_sets=5_000,
              identity_nodes=300, identity_edges=2_400)


@dataclass
class Outcome:
    """What one run measured and whether its outputs were correct."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)


def subseed(seed: int, tag: str, index: int = 0) -> int:
    state = np.random.SeedSequence([int(seed), _TAGS[tag], index]).generate_state(2, np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def make_graph(seed: int, nodes: int, edges: int) -> Any:
    # Called through the modules so the traced run's wrappers see the calls.
    from repro.graphs import generators, weights

    return weights.weighted_cascade(
        generators.gnm_random_digraph(nodes, edges, rng=subseed(seed, "graph")))


def policy(epsilon: float, ell: float, **fields: Any) -> Any:
    from repro.api.policy import ExecutionPolicy

    settings: dict[str, Any] = {"engine": "vectorized", "jobs": None, "metrics": False}
    settings.update(fields)
    return ExecutionPolicy(epsilon=epsilon, ell=ell, **settings)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def host_info() -> dict[str, Any]:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__}


def judge(graph: Any, answers: list[tuple[list[int], float]], k: int, epsilon: float,
          seed: int, scale: Scale) -> tuple[float, list[str]]:
    """Median spread of the answers on an independent judge sketch.

    ``answers`` holds ``(seeds, claimed spread)`` pairs; each is checked by
    :func:`perfbench.checks.judge_failures`.
    """
    from repro.rrset.base import make_rr_sampler
    from repro.rrset.coverage import greedy_max_coverage

    sketch = make_rr_sampler(graph, "IC").sample_random_batch(
        scale.judge_sets, subseed(seed, "judge"))
    greedy = graph.n * greedy_max_coverage(sketch, graph.n, k).fraction
    spreads, failures = [], []
    for seeds, claimed in answers:
        spreads.append(graph.n * sketch.coverage_fraction(seeds))
        failures += checks.judge_failures(spreads[-1], greedy, claimed, epsilon)
    return statistics.median(spreads), failures


def repeated(setup: Callable[[], Any], scale: Scale) -> tuple[Any, list[float]]:
    """Set up ``setup_repeats`` times and for ``setup_seconds``; keep the last.

    ``setup_s`` is the median of these times, so a short set-up such as
    graph generation is repeated more often than the serving set-up.
    """
    times: list[float] = []
    result = None
    began = clock()
    while len(times) < scale.setup_repeats or clock() - began < scale.setup_seconds:
        result = None  # free the previous set-up before building the next
        started = clock()
        result = setup()
        times.append(clock() - started)
    return result, times


def stop_workers() -> None:
    """Wait for pool workers, then stop and reap the shared-memory tracker."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Worker-count identity (the only place the parallel layer runs)
# ----------------------------------------------------------------------
def identity_check(workload: str, seed: int, scale: Scale) -> list[str]:
    """Run the workload's algorithm at jobs=1 and jobs=2 on a small graph."""
    from repro.core.imm import imm
    from repro.core.tim import tim_plus
    from repro.rrset.flat_collection import FlatRRCollection
    from repro.sketch.index import SketchIndex

    graph = make_graph(subseed(seed, "identity"), scale.identity_nodes, scale.identity_edges)
    rng = subseed(seed, "identity")
    runs = {}
    for jobs in (1, 2):
        if workload == "serve-mixed":
            build_policy = policy(scale.sketch_epsilon, scale.ell, jobs=jobs,
                                  trace_edges=True, algorithm="imm")
            index = SketchIndex.build(graph, "IC", k=scale.k, rng=rng, policy=build_policy)
            seeds, theta = index.select(scale.k).seeds, index.num_sets
        else:
            index = SketchIndex(FlatRRCollection(graph.n, graph.m), graph=graph,
                                model="IC", jobs=jobs)
            if workload == "imm-cold":
                result = imm(graph, scale.k, scale.imm_epsilon, scale.ell, rng=rng,
                             policy=policy(scale.imm_epsilon, scale.ell, jobs=jobs),
                             index=index)
            else:
                result = tim_plus(graph, scale.k, scale.timplus_epsilon, scale.ell,
                                  rng=rng, index=index,
                                  policy=policy(scale.timplus_epsilon, scale.ell, jobs=jobs))
            seeds, theta = list(result.seeds), result.theta
        runs[jobs] = (list(seeds), theta, checks.sketch_bytes(index.collection))
        index.close()
    stop_workers()
    return checks.identity_failures(runs)


# ----------------------------------------------------------------------
# Cold jobs
# ----------------------------------------------------------------------
def _cold_job(workload: str, graph: Any, rng: int, scale: Scale) -> Any:
    from repro.core.imm import imm
    from repro.core.tim import tim_plus

    if workload == "imm-cold":
        return imm(graph, scale.k, scale.imm_epsilon, scale.ell, rng=rng,
                   policy=policy(scale.imm_epsilon, scale.ell))
    return tim_plus(graph, scale.k, scale.timplus_epsilon, scale.ell, rng=rng,
                    policy=policy(scale.timplus_epsilon, scale.ell))


def _guarantee(result: Any) -> dict[str, Any]:
    return {"algorithm": result.algorithm, "k": result.k, "epsilon": result.epsilon,
            "ell": result.ell, "theta": result.theta, "theta_capped": result.theta_capped}


def _cold_checks(workload: str, graph: Any, calls: dict[int, list[Any]], seed: int,
                 scale: Scale) -> tuple[float, list[str]]:
    """``calls`` maps each algorithm seed to the results of its calls."""
    failures = []
    for results in calls.values():
        failures += checks.same_answer_failures(results)
        failures += checks.theta_failures(results[0], graph.n)
    first = [results[0] for results in calls.values()]
    spread, judged = judge(graph, [(list(r.seeds), r.estimated_spread) for r in first],
                           scale.k, first[0].epsilon, seed, scale)
    failures += judged
    failures += identity_check(workload, seed, scale)
    return spread, failures


def run_cold(workload: str, seed: int, seconds: float, scale: Scale) -> Outcome:
    """Cold calls back to back, cycling over ``distinct_jobs`` algorithm seeds.

    θ of TIM+ varies by about 20% between algorithm seeds, so the median
    over several seeds is steadier than one seed's time.  The loop runs at
    least one call more than there are seeds, so one seed is always called
    twice and its answers compared.
    """
    graph, setups = repeated(lambda: make_graph(seed, scale.nodes, scale.edges), scale)
    rngs = [subseed(seed, "algorithm", i) for i in range(scale.distinct_jobs)]
    calls: dict[int, list[Any]] = {}
    times = []
    began = clock()
    while len(times) <= len(rngs) or clock() - began < seconds:
        which = len(times) % len(rngs)
        started = clock()
        result = _cold_job(workload, graph, rngs[which], scale)
        times.append(clock() - started)
        calls.setdefault(which, []).append(result)
    wall = clock() - began
    peak = peak_rss_mb()
    spread, failures = _cold_checks(workload, graph, calls, seed, scale)
    latencies_ms = [1000.0 * t for t in times]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(times),
        "judge_spread": spread,
        "request_ms_p50": percentile(latencies_ms, 50),
        "request_ms_p99": percentile(latencies_ms, 99),
        "requests_per_s": len(times) / wall,
        "peak_rss_mb": peak,
        "ops_ok_ratio": 1.0,
    }
    return Outcome(metrics, len(times), 0, failures,
                   {"guarantees": [_guarantee(results[0]) for results in calls.values()],
                    "job_s": times})


def trace_cold(workload: str, seed: int, scale: Scale) -> Outcome:
    """One traced call between two untraced ones with the same seed.

    The untraced pair brackets the traced call so the first call's warm-up
    does not skew the overhead ratio; all three answers must agree.
    """
    rng = subseed(seed, "algorithm")

    def untraced() -> tuple[Any, float]:
        graph = make_graph(seed, scale.nodes, scale.edges)
        started = clock()
        result = _cold_job(workload, graph, rng, scale)
        return result, clock() - started

    before, before_s = untraced()
    tree = SpanTree()
    patches = install(tree)
    try:
        graph = make_graph(seed, scale.nodes, scale.edges)
        started = clock()
        with tree.span(OTHER) as job:
            result = _cold_job(workload, graph, rng, scale)
        traced = clock() - started
    finally:
        patches.undo()
    after, after_s = untraced()

    closure = closure_error(tree, [job], traced)
    failures = []
    if closure > CLOSURE_TOLERANCE:
        failures.append(f"layer self times miss job_s by {closure:.2%}")
    spread, judged = _cold_checks(workload, graph, {0: [before, result, after]}, seed, scale)
    failures += judged
    phases = result.rr_sets_per_phase
    facts = {
        "core.theta": result.theta,
        "core.lb_iterations": (result.lb_iterations if workload == "imm-cold"
                               else result.extras["kpt_iterations"]),
        "core.rr_sets_estimation": phases.get("parameter_estimation", 0),
        "core.rr_sets_refinement": phases.get("refinement", 0),
        "trace_overhead_ratio": 2.0 * traced / (before_s + after_s),
        "trace_closure_error": closure,
    }
    return Outcome(per_layer_metrics(tree, facts), 3, 0, failures,
                   {"guarantee": _guarantee(result), "job_s": traced,
                    "judge_spread": spread})


# ----------------------------------------------------------------------
# Serving stream
# ----------------------------------------------------------------------
class RequestStream:
    """Seeded request mix; tracks the edge set so every update is valid.

    Of the reads, 60% are ``select`` (k in 1..max_select_k), 25% ``spread``
    and 15% ``marginal_gain``; every ``update_every``-th request is an edge
    insert, delete or reweight.  The first read, and the read after every
    update, is a ``select``, so the postings rebuild an update forces is
    always paid by a select.  The first request is ``select(k)`` at the
    workload's budget: its answer, on the unmodified graph, is the one the
    judge scores.
    """

    def __init__(self, graph: Any, seed: int, scale: Scale) -> None:
        self._rng = np.random.default_rng(subseed(seed, "requests"))
        self._n = graph.n
        self._scale = scale
        self._edges = (graph.src * graph.n + graph.dst).tolist()
        self._where = {code: i for i, code in enumerate(self._edges)}
        self._in_degree = graph.in_degrees().astype(np.int64)
        self._issued = 0
        self._select_next = True

    def __next__(self) -> dict[str, Any]:
        self._issued += 1
        if self._issued % self._scale.update_every == 0:
            self._select_next = True
            return self._update()
        draw = self._rng.random()
        if self._issued == 1:
            self._select_next = False
            return {"op": "select", "k": self._scale.k}
        if self._select_next or draw < 0.60:
            self._select_next = False
            return {"op": "select", "k": int(self._rng.integers(1, self._scale.max_select_k + 1))}
        if draw < 0.85:
            return {"op": "spread", "seeds": self._nodes(20)}
        seeds = self._nodes(10)
        return {"op": "marginal_gain", "seeds": seeds,
                "candidate": int(self._rng.integers(self._n))}

    def _nodes(self, most: int) -> list[int]:
        size = int(self._rng.integers(1, most + 1))
        return np.unique(self._rng.integers(self._n, size=size)).tolist()

    def _update(self) -> dict[str, Any]:
        action = ("insert", "delete", "reweight")[int(self._rng.integers(3))]
        if action == "insert":
            while True:
                u, v = (int(x) for x in self._rng.integers(self._n, size=2))
                code = u * self._n + v
                if u != v and code not in self._where:
                    break
            self._where[code] = len(self._edges)
            self._edges.append(code)
            self._in_degree[v] += 1
            return {"op": "update", "action": action, "u": u, "v": v,
                    "p": 1.0 / float(self._in_degree[v])}
        position = int(self._rng.integers(len(self._edges)))
        code = self._edges[position]
        u, v = divmod(code, self._n)
        if action == "reweight":
            return {"op": "update", "action": action, "u": u, "v": v,
                    "p": float(self._rng.uniform(0.01, 0.5))}
        last = self._edges.pop()
        if last != code:
            self._edges[position] = last
            self._where[last] = position
        del self._where[code]
        self._in_degree[v] -= 1
        return {"op": "update", "action": action, "u": u, "v": v}


@dataclass
class Served:
    """The objects a serving set-up leaves: graph, service, dynamic overlay."""

    graph: Any
    service: Any
    dynamic: Any
    build_s: float
    theta: int
    file_bytes: int


def setup_serving(seed: int, scale: Scale, workdir: Path) -> Served:
    """``repro-im sketch`` then ``serve --sketch``: build, save, load, register."""
    from repro.dynamic.graph import DynamicDiGraph
    from repro.sketch.index import SketchIndex
    from repro.sketch.service import InfluenceService

    run_policy = policy(scale.sketch_epsilon, scale.ell, trace_edges=True, algorithm="imm")
    graph = make_graph(seed, scale.nodes, scale.edges)
    started = clock()
    built = SketchIndex.build(graph, "IC", k=scale.k, rng=subseed(seed, "sketch"),
                              policy=run_policy)
    build_s = clock() - started
    built.close()
    path = workdir / "sketch.npz"
    built.save(path)
    file_bytes = path.stat().st_size
    del built
    index = SketchIndex.load(path, graph=graph)
    service = InfluenceService(default_k=scale.k, epsilon=scale.sketch_epsilon,
                               ell=scale.ell, policy=run_policy,
                               rng=subseed(seed, "service"))
    service.add_index(index)
    return Served(graph, service, DynamicDiGraph(graph), build_s, index.num_sets, file_bytes)


def stream(served: Served, requests: RequestStream, minimum: int,
           seconds: float = 0.0) -> tuple[list[float], list[float], list[Any], float]:
    """Closed loop: send the next request when the last answer arrives.

    Runs for ``seconds`` and at least ``minimum`` requests.  Returns
    per-request latency (s), update latency (s), the responses and the
    loop's wall-clock.
    """
    latencies, updates, responses = [], [], []
    began = clock()
    while len(latencies) < minimum or clock() - began < seconds:
        request = next(requests)
        started = clock()
        response = served.service.execute(served.dynamic, request, model="IC")
        elapsed = clock() - started
        latencies.append(elapsed)
        if request["op"] == "update":
            updates.append(elapsed)
        responses.append(response)
    return latencies, updates, responses, clock() - began


def _serve_checks(served: Served, responses: list[Any], seed: int,
                  scale: Scale) -> tuple[float, list[str]]:
    from repro.rrset.coverage import greedy_max_coverage

    failures = []
    failed = [r for r in responses if not r.ok]
    if failed:
        failures.append(f"{len(failed)} requests failed, first: {failed[0].to_wire()}")
    select = {"op": "select", "k": scale.k}
    served.service.execute(served.dynamic, select, model="IC")
    final = served.service.execute(served.dynamic, select, model="IC")
    index, _ = served.service.get_index(served.dynamic, "IC")
    reference = greedy_max_coverage(index.collection, index.num_nodes, scale.k).seeds
    if not final.ok or list(final.seeds) != list(reference):
        failures.append("final warm select differs from greedy_max_coverage on the sketch")
    first = responses[0]
    answer = (list(first.seeds), first.estimated_spread) if first.ok else ([], 0.0)
    spread, judged = judge(served.graph, [answer], scale.k, scale.sketch_epsilon, seed, scale)
    failures += judged
    failures += identity_check("serve-mixed", seed, scale)
    return spread, failures


def run_serve(seed: int, seconds: float, scale: Scale, workdir: Path) -> Outcome:
    builds = []

    def setup() -> Served:
        served = setup_serving(seed, scale, workdir)
        builds.append(served.build_s)
        return served

    served, setups = repeated(setup, scale)
    requests = RequestStream(served.graph, seed, scale)
    latencies, updates, responses, wall = stream(served, requests, scale.min_requests,
                                                 seconds)
    peak = peak_rss_mb()
    spread, failures = _serve_checks(served, responses, seed, scale)
    failed = sum(1 for r in responses if not r.ok)
    latencies_ms = [1000.0 * t for t in latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(builds),
        "judge_spread": spread,
        "request_ms_p50": percentile(latencies_ms, 50),
        "request_ms_p99": percentile(latencies_ms, 99),
        "requests_per_s": len(latencies) / wall,
        "peak_rss_mb": peak,
        "ops_ok_ratio": 1.0 - failed / len(latencies),
    }
    served.service.close()
    return Outcome(metrics, len(latencies), failed, failures,
                   {"guarantee": _serve_guarantee(served, scale),
                    "updates": len(updates),
                    "update_ms_p50": percentile([1000.0 * t for t in updates], 50)})


def _serve_guarantee(served: Served, scale: Scale) -> dict[str, Any]:
    index, _ = served.service.get_index(served.dynamic, "IC")
    return {"algorithm": "IMM sketch", "k": scale.k, "epsilon": index.meta.get("epsilon"),
            "ell": index.meta.get("ell"), "theta": served.theta,
            "theta_capped": bool(index.meta.get("theta_capped", False))}


def trace_serve(seed: int, scale: Scale, workdir: Path) -> Outcome:
    """One traced set-up and stream between two untraced ones.

    All three streams send the same requests and must get the same answers.
    """

    def untraced() -> tuple[float, list[Any]]:
        served = setup_serving(seed, scale, workdir)
        requests = RequestStream(served.graph, seed, scale)
        latencies, _, responses, _ = stream(served, requests, scale.min_requests)
        served.service.close()
        return sum(latencies), [r.to_wire().get("result") for r in responses]

    before_s, expected = untraced()
    tree = SpanTree()
    patches = install(tree)
    try:
        with tree.span(OTHER):
            served = setup_serving(seed, scale, workdir)
        requests = RequestStream(served.graph, seed, scale)
        latencies, updates, responses, _ = stream(served, requests, scale.min_requests)
    finally:
        patches.undo()
    after_s, repeated = untraced()

    failures = []
    if not ([r.to_wire().get("result") for r in responses] == expected == repeated):
        failures.append("traced and untraced streams got different answers")
    closure = closure_error(tree, tree.roots("api.dispatch"), sum(latencies))
    if closure > CLOSURE_TOLERANCE:
        failures.append(f"layer self times miss the request latency by {closure:.2%}")
    stats = served.service.stats
    retries, errors = stats.retries, stats.errors
    spread, judged = _serve_checks(served, responses, seed, scale)
    failures += judged
    facts = {
        "core.theta": served.theta,
        "sketch.file_bytes": served.file_bytes,
        "dynamic.update_ms_p50": percentile([1000.0 * t for t in updates], 50),
        "api.retries": retries,
        "api.errors": errors,
        "trace_overhead_ratio": 2.0 * sum(latencies) / (before_s + after_s),
        "trace_closure_error": closure,
    }
    served.service.close()
    failed = sum(1 for r in responses if not r.ok)
    return Outcome(per_layer_metrics(tree, facts), len(latencies), failed, failures,
                   {"guarantee": _serve_guarantee(served, scale), "judge_spread": spread})


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL, root: Path | None = None) -> Outcome:
    """Run one workload, keeping every temporary file in a directory under ``root``.

    That directory also becomes the process's temporary directory while the
    workload runs, so files the library itself creates stay under ``root``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    previous = tempfile.tempdir
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        tempfile.tempdir = tmp
        try:
            if workload == "serve-mixed":
                outcome = (trace_serve(seed, scale, Path(tmp)) if trace
                           else run_serve(seed, seconds, scale, Path(tmp)))
            else:
                outcome = (trace_cold(workload, seed, scale) if trace
                           else run_cold(workload, seed, seconds, scale))
        finally:
            tempfile.tempdir = previous
    outcome.info["host"] = host_info()
    outcome.info["scale"] = scale.__dict__
    return outcome
