"""Output checks.  Each returns a list of failure messages (empty = correct)."""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def theta_failures(result: Any, n: int) -> list[str]:
    """θ must be the value the result's own certificate prices, uncapped.

    The certificate is recomputed from the library's parameter functions:
    TIM+ needs ⌈λ / KPT⁺⌉ fresh sets for node selection, IMM needs
    ⌈λ* / LB⌉ sets in the final sketch.
    """
    from repro.core import parameters as p

    failures = []
    if result.theta_capped:
        failures.append(f"{result.algorithm}: theta was capped, the guarantee is void")
    if result.algorithm == "IMM":
        ell = p.adjusted_ell_tim(result.ell, n)
        lam = p.imm_lambda_star(n, result.k, result.epsilon, ell)
        expected = max(1, math.ceil(lam / result.opt_lower_bound))
        used = sum(result.rr_sets_per_phase.values())
        enough = used >= expected
    else:
        ell = p.adjusted_ell_tim_plus(result.ell, n)
        expected = p.theta_from_kpt(
            p.lambda_param(n, result.k, result.epsilon, ell), result.kpt_plus)
        used = result.rr_sets_per_phase["node_selection"]
        enough = used == expected
    if result.theta != expected:
        failures.append(f"{result.algorithm}: theta {result.theta} != certified {expected}")
    if not enough:
        failures.append(f"{result.algorithm}: selection used {used} RR sets for theta {expected}")
    return failures


def same_answer_failures(results: list[Any]) -> list[str]:
    """Calls with the same seed must return the same seeds and θ."""
    first = results[0]
    failures = []
    for i, other in enumerate(results[1:], start=2):
        if list(other.seeds) != list(first.seeds) or other.theta != first.theta:
            failures.append(f"call {i} returned seeds/theta different from call 1")
    return failures


def judge_failures(judge_spread: float, greedy_spread: float, claimed: float,
                   epsilon: float) -> list[str]:
    """Score one answer on the judge sketch.

    It must be (1 − 1/e − ε)-approximate against greedy on the judge, and
    the spread the answer claims must lie within ε of what the judge
    measures for it.
    """
    failures = []
    floor = (1.0 - 1.0 / math.e - epsilon) * greedy_spread
    if judge_spread < floor:
        failures.append(f"judge spread {judge_spread:.1f} below (1-1/e-eps) x greedy "
                        f"= {floor:.1f}")
    if abs(claimed - judge_spread) > epsilon * judge_spread:
        failures.append(f"answer claims spread {claimed:.1f}, judge measures "
                        f"{judge_spread:.1f}")
    return failures


def identity_failures(runs: dict[int, tuple[list[int], int, list[bytes]]]) -> list[str]:
    """Seeds, θ and sketch bytes must not depend on the worker count."""
    (first_jobs, first), *rest = sorted(runs.items())
    failures = []
    for jobs, other in rest:
        if other[0] != first[0] or other[1] != first[1]:
            failures.append(f"jobs={jobs} seeds/theta differ from jobs={first_jobs}")
        if other[2] != first[2]:
            failures.append(f"jobs={jobs} sketch bytes differ from jobs={first_jobs}")
    return failures


def sketch_bytes(collection: Any) -> list[bytes]:
    arrays = [collection.ptr_array, collection.nodes_array, collection.roots_array,
              collection.widths_array, collection.costs_array]
    if collection.has_traces:
        arrays += [collection.trace_ptr_array, collection.trace_edges_array]
    return [np.ascontiguousarray(a).tobytes() for a in arrays]
