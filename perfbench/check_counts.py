"""Self-check of the benchmark.

    python3 perfbench/check_counts.py

Runs every workload traced twice on seed 1, SECONDS each, and requires that
both runs pass every correctness check and that the exact counts (EXACT)
are identical across the two runs.  Exits 0 when both hold, 1 otherwise.
"""

import sys

from baseline import run
from run import load_spec

SECONDS = 6

# Counts that must repeat exactly from one traced run to the next on the
# same seed.
EXACT = (
    "kernel.extend.calls",
    "kernel.extend.children",
    "kernel.python.canonical_keys.calls",
    "topology.walk.full_keys",
    "topology.classes",
    "topology.save.mib",
    "circuits.normalize_layering.changed",
    "circuits.minimalize.changed",
)


def main():
    problems = []
    for workload in (entry["name"] for entry in load_spec()["workloads"]):
        first, second = (run(workload, 1, SECONDS, 1)[0] for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} "
                                f"repetitions failed a check")
        counts = {name: [r["metrics"][name]["value"] for r in (first, second)]
                  for name in EXACT}
        for name, (a, b) in counts.items():
            if a != b:
                problems.append(f"{workload}: {name} was {a}, then {b}")
        print(f"{workload}: " + ", ".join(f"{n} = {a}" for n, (a, _) in counts.items() if a))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
