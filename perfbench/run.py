"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload imm-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off.
``--trace 1`` runs the workload once untraced and once with every layer's
public entry points wrapped in spans, and reports each layer's self time
and counts.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it records the host and the run's guarantee.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pin the environment before the library is imported: REPRO_* variables
# select engines, worker pools, metrics and fault injection.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.obs import runtime as obs

    from perfbench import workloads
    from perfbench.layers import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    obs.configure(enabled=False, memory=False)
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            root=ROOT)
    units = ({name: unit for name, unit, _ in PER_LAYER} if args.trace
             else workloads.END_TO_END)
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **outcome.info}))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
