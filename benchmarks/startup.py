"""Fresh-interpreter figures of the mcbound package, for ``bench_kernels.py``.

    python -I -S benchmarks/startup.py STARTS SRC
    python -I -S benchmarks/startup.py set K PATH RESPELT SRC

The first form runs STARTS fresh interpreters of each command in COMMANDS,
alternated, and prints one JSON object: per command, the median seconds
from spawning the child until it exits and the largest peak RSS in MB that
``wait4`` reports for the children.  The second runs each command in
SET_COMMANDS once for the topology set on K gates, saved to and loaded
from PATH, then loaded from RESPELT, the same set with one line spelt
otherwise, and prints, per command, its seconds and its child's peak RSS.
The children run with SRC first on PYTHONPATH and otherwise the caller's
environment.  Linux counts in a child's peak RSS the memory of the process
that spawned it, so the children must be spawned by a process smaller than
they are: this one, started with ``-I -S`` and importing little, rather
than the benchmark itself.
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
# generate alone, then the CLI's generate, which also saves the set to PATH,
# then a load of that file and one of RESPELT
SET_COMMANDS = {
    "generate": "from mcbound.topology import generate; generate({k})",
    "cli_generate": "import sys; from mcbound.cli import main; "
                    "sys.exit(main(['generate', '--k', '{k}', '--out', {path!r}, '--allow-long']))",
    "load": "from mcbound.topology import load_topology_set; load_topology_set({path!r})",
    "load_respelt": "from mcbound.topology import load_topology_set; "
                    "load_topology_set({respelt!r})",
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
    src = sys.argv[-1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if sys.argv[1] == "set":
        k, path, respelt = int(sys.argv[2]), sys.argv[3], sys.argv[4]
        figures = {}
        for name, code in SET_COMMANDS.items():
            seconds, mb = child_run(code.format(k=k, path=path, respelt=respelt), env)
            figures[name] = {"seconds": seconds, "peak_rss_mb": mb}
        print(json.dumps(figures))
        return
    starts = int(sys.argv[1])
    runs = {name: [] for name in COMMANDS}
    for _ in range(starts):
        for name, code in COMMANDS.items():
            runs[name].append(child_run(code, env))
    print(json.dumps({name: {"median_s": sorted(s for s, _ in samples)[starts // 2],
                             "peak_rss_mb": max(mb for _, mb in samples)}
                      for name, samples in runs.items()}))


if __name__ == "__main__":
    main()
