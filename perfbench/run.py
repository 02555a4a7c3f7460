"""mcbound benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload prove-k5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workloads and the names and
units of the metrics are read from BENCHMARK.json there.  With ``--trace 0``
it measures the set-up time over SETUP_STARTS fresh interpreters, then runs
the workload for the rest of ``--seconds`` in a fresh single-threaded
process without tracing and prints the end-to-end metrics.  With
``--trace 1`` it spends half of ``--seconds`` on an untraced process and
half on a traced one, and prints the per-layer metrics with the tracing
overhead.  Every process starts without MCBOUND_WORKERS and
MCBOUND_PURE_PYTHON and with a fixed hash seed, so the kernel is the one the
package selects on its own and the workers are 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
states the sample counts and the failed ratio, and the line before that the
environment: kernel backend, available backends, Python version, nproc and
git commit.  The full record is also written to perfbench/out/.  Exit status
is 0 when the workload ran, whether or not its checks passed, and 2 when it
could not run at all, as in a directory without the package sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import reference_seconds, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_STARTS = 41
SETUP_CODE = ("import time, mcbound.cli, mcbound.kernel as k; k.BACKEND; "
              "print(repr(time.perf_counter()))")
CHILD_GRACE_S = 60  # input drawing, checks and the last repetition's overrun


class CannotRun(Exception):
    pass


def load_spec():
    """BENCHMARK.json: the workloads and the metric names and units."""
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def units(spec, key):
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MCBOUND_WORKERS", "MCBOUND_PURE_PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env):
    """SETUP_STARTS times the time from starting an interpreter until
    ``mcbound.cli`` is imported and the kernel selected, each scaled by the
    reference loop run just before and just after it.  perf_counter reads
    CLOCK_MONOTONIC, which the child and this process share."""
    refs = [reference_seconds()]
    raw = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise CannotRun(f"cannot import mcbound:\n{done.stderr}")
        raw.append(float(done.stdout) - start)
        refs.append(reference_seconds())
    return [scaled(s, refs[i], refs[i + 1]) for i, s in enumerate(raw)]


def run_workload(env, workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise CannotRun(f"{workload} did not finish in {exc.timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise CannotRun(f"{workload} process exited {done.returncode}")
    return json.loads(lines[-1])


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(spec, workload, seed, seconds, trace):
    if not (ROOT / "src" / "mcbound" / "__init__.py").is_file():
        raise CannotRun(f"no package sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    if trace:
        plain = run_workload(env, workload, seed, seconds / 2, 0)
        traced = run_workload(env, workload, seed, seconds / 2, 1)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        names = units(spec, "per_layer")
        record = {"untraced": plain, "traced": traced}
    else:
        # Set-up is measured first, inside the run's seconds; the workload
        # gets the rest, and at least half of them.
        start = time.perf_counter()
        setups = setup_seconds(env)
        rest = max(seconds - (time.perf_counter() - start), seconds / 2)
        result = run_workload(env, workload, seed, rest, 0)
        runs = [result]
        metrics = {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
                   "setup_s": statistics.median(setups)}
        names = units(spec, "end_to_end")
        record = {"run": result, "setup_s_samples": setups}
    attempted = sum(r["reps"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env_record = dict(runs[0]["env"], git_commit=git_commit())
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  env=env_record, attempted=attempted, failed=failed, metrics=metrics)
    with open(OUT / f"{workload}-s{seed}-t{trace}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print("# env " + json.dumps(env_record))
    counts = ", ".join(f"{r['reps']} reps" + (" traced" if r["trace"] else "") for r in runs)
    sample_note = "" if trace else f", setup_s median of {SETUP_STARTS} starts"
    raw = ", ".join(f"{r['raw_wall_s']:.4g} s" + (" traced" if r["trace"] else "") for r in runs)
    print(f"# {workload} seed={seed}: wall_s is the median of {counts}{sample_note}; "
          f"unscaled median wall {raw}; "
          f"failed_ratio = {failed}/{attempted} = {failed / attempted:.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }))


def main():
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    try:
        measure(spec, args.workload, args.seed, args.seconds, args.trace)
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
