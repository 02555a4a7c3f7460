"""Fresh-interpreter figures of the mcbound package, for ``bench_kernels.py``.

    python -I -S benchmarks/startup.py STARTS SRC [SRC2]
    python -I -S benchmarks/startup.py set K PATH RESPELT SRC
    python -I -S benchmarks/startup.py kernel K BACKEND SRC
    python -I -S benchmarks/startup.py count K BACKEND SRC

The first form runs STARTS fresh interpreters of each command in COMMANDS,
alternated, and prints one JSON object: per command, the median seconds
from spawning the child until it exits and the largest peak RSS in MB that
``wait4`` reports for the children.  Given a second tree SRC2, it starts
each command in both trees one after the other, SRC first on even starts
and SRC2 first on odd ones, so that both see the same drift of the
machine's speed, and prints a JSON list of the two objects, SRC's first.
The second runs each command in
SET_COMMANDS once for the topology set on K gates, saved to and loaded
from PATH, then loaded from RESPELT, the same set with one line spelt
otherwise, and prints, per command, its seconds and its child's peak RSS.
The third runs each command in KERNEL_COMMANDS once for K gates with the
kernel BACKEND ("c" or "python") made the package's default in the child,
and prints the same figures.  The fourth runs its ``count_classes``
command alone, which also serves K=7, where ``generate`` refuses.  The
children run with SRC first on PYTHONPATH and otherwise the caller's
environment.  Linux counts in a child's peak RSS the memory of the process
that spawned it, so the children must be spawned by a process smaller than
they are: this one, started with ``-I -S`` and importing little, rather
than the benchmark itself.  The commands are spelt for the CLI of this
tree, whose ``generate --k 6`` takes no confirming flag, which older trees
asked for and this CLI refuses: fresh records of a tree older than that
must be taken with that tree's own copy of this script and
``bench_kernels.py``.
"""

import json
import os
import subprocess
import sys
import time

PROVE_ARGV = ["prove", "--n", "7", "--k", "6", "--classes", "555709"]
COMMANDS = {
    # perfbench's set-up, its SETUP_CODE (perfbench/run.py) as it is spelt there
    "setup": "import time, mcbound.cli, mcbound.kernel as k; k.BACKEND; "
             "print(repr(time.perf_counter()))",
    "import_cli": "import mcbound.cli",
    # the paper's verdict from the published class count, run as the
    # installed ``mcbound`` script runs it
    "prove_classes": f"import sys; from mcbound.cli import main; sys.exit(main({PROVE_ARGV!r}))",
    # a command that walks classes: the count for k=5, cold
    "prove_k5": "import sys; from mcbound.cli import main; "
                "sys.exit(main(['prove', '--n', '7', '--k', '5']))",
}
# generate alone, then the CLI's generate, which also saves the set to PATH,
# then a load of that file and one of RESPELT
SET_COMMANDS = {
    "generate": "from mcbound.topology import generate; generate({k})",
    "cli_generate": "import sys; from mcbound.cli import main; "
                    "sys.exit(main(['generate', '--k', '{k}', '--out', {path!r}]))",
    "load": "from mcbound.topology import load_topology_set; load_topology_set({path!r})",
    "load_respelt": "from mcbound.topology import load_topology_set; "
                    "load_topology_set({respelt!r})",
}
# the class walk alone, the walk and the sorted member rows, the CLI's
# generate, which also writes the set, here to the null device, and the two
# CLI commands that count classes: prove without --classes, and table2, whose
# status 1, where the published counts differ from the walk's (from k=4 on),
# is a finished run too
KERNEL_COMMANDS = {
    "count_classes": "from mcbound.topology import count_classes; count_classes({k})",
    "generate": "from mcbound.topology import generate; generate({k})",
    "cli_generate": "import os, sys; from mcbound.cli import main; "
                    "sys.exit(main(['generate', '--k', '{k}', '--out', os.devnull]))",
    "prove": "import sys; from mcbound.cli import main; "
             "sys.exit(main(['prove', '--n', '7', '--k', '{k}']))",
    "table2": "import sys; from mcbound.cli import main; "
              "sys.exit(main(['table2', '--max-k', '{k}']) not in (0, 1))",
}
PIN_KERNEL = "import mcbound.kernel as kernel; kernel._active = kernel.get_backend({backend!r}); "


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


def tree_env(src):
    """The caller's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def main():
    if sys.argv[1] in ("set", "kernel", "count"):
        env = tree_env(sys.argv[-1])
        if sys.argv[1] == "set":
            commands = SET_COMMANDS
            fields = {"k": int(sys.argv[2]), "path": sys.argv[3], "respelt": sys.argv[4]}
        else:
            names = ["count_classes"] if sys.argv[1] == "count" else KERNEL_COMMANDS
            commands = {name: PIN_KERNEL + KERNEL_COMMANDS[name] for name in names}
            fields = {"k": int(sys.argv[2]), "backend": sys.argv[3]}
        figures = {}
        for name, code in commands.items():
            seconds, mb = child_run(code.format(**fields), env)
            figures[name] = {"seconds": seconds, "peak_rss_mb": mb}
        print(json.dumps(figures))
        return
    starts = int(sys.argv[1])
    envs = [tree_env(src) for src in sys.argv[2:]]
    runs = [{name: [] for name in COMMANDS} for _ in envs]
    for start in range(starts):
        order = list(enumerate(envs))[::-1 if start % 2 else 1]
        for name, code in COMMANDS.items():
            for tree, env in order:
                runs[tree][name].append(child_run(code, env))
    figures = [{name: {"median_s": sorted(s for s, _ in samples)[starts // 2],
                       "peak_rss_mb": max(mb for _, mb in samples)}
                for name, samples in tree_runs.items()} for tree_runs in runs]
    print(json.dumps(figures if len(envs) > 1 else figures[0]))


if __name__ == "__main__":
    main()
