"""Start-up figures of the mcbound CLI, for ``bench_kernels.py``.

    python -I -S benchmarks/startup.py STARTS SRC

Runs STARTS fresh interpreters of each command in COMMANDS, alternated,
with SRC first on PYTHONPATH and otherwise the caller's environment, and
prints one JSON object: per command, the median seconds from spawning the
child until it exits and the largest peak RSS in MB that ``wait4`` reports
for the children.  Linux counts in a child's peak RSS the memory of the
process that spawned it, so the children must be spawned by a process
smaller than they are: this one, started with ``-I -S`` and importing
little, rather than the benchmark itself.
"""

import json
import os
import subprocess
import sys
import time

PROVE_ARGV = ["prove", "--n", "7", "--k", "6", "--classes", "555709"]
COMMANDS = {
    "import_cli": "import mcbound.cli",
    # the paper's verdict from the published class count, run as the
    # installed ``mcbound`` script runs it
    "prove_classes": f"import sys; from mcbound.cli import main; sys.exit(main({PROVE_ARGV!r}))",
}


def child_run(code, env):
    """Seconds from spawning ``python -c code`` until it exits, and the
    child's peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
    if proc.returncode:
        raise SystemExit(f"{code!r} exited {proc.returncode}")
    return elapsed, usage.ru_maxrss / 1024


def main():
    starts, src = int(sys.argv[1]), sys.argv[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {name: [] for name in COMMANDS}
    for _ in range(starts):
        for name, code in COMMANDS.items():
            runs[name].append(child_run(code, env))
    print(json.dumps({name: {"median_s": sorted(s for s, _ in samples)[starts // 2],
                             "peak_rss_mb": max(mb for _, mb in samples)}
                      for name, samples in runs.items()}))


if __name__ == "__main__":
    main()
