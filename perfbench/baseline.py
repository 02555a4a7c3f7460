"""Run every workload on ten seeds and compare with the committed baseline.

    python3 perfbench/baseline.py           # compare with perfbench/baseline.json
    python3 perfbench/baseline.py --write   # and then replace it

For each workload of BENCHMARK.json it makes RUNS untraced runs of
``run_seconds``, seeds 1 to RUNS, and one traced run on seed 1.  It prints
each end-to-end metric's median, its quartiles, and its spread: the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  Beside it stands the
change of the median against baseline.json as a share of the baseline's,
marked WORSE where it is worse by more than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, load_spec

RUNS = 10
BASELINE = HERE / "baseline.json"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-s{seed}-t{trace}.json", encoding="ascii") as fh:
        return result, json.load(fh)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def change(metric, median, old):
    """The median's change against the baseline's, and whether it is worse
    than the metric's bound allows."""
    if old is None:
        return ""
    share = median / old - 1
    worse = -share if metric["better"] == "higher" else share
    return f"  vs baseline {share:+.2%}" + (" WORSE" if worse > metric["bound"] else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="replace perfbench/baseline.json")
    args = parser.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    old = {}
    if BASELINE.is_file():
        with open(BASELINE, encoding="ascii") as fh:
            old = json.load(fh)["workloads"]

    summary = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in (entry["name"] for entry in spec["workloads"]):
        values = {metric["name"]: [] for metric in spec["end_to_end"]}
        attempted = failed = 0
        reps = []
        raw = []
        for seed in range(1, RUNS + 1):
            result, record = run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            reps.append(record["run"]["reps"])
            raw.append(record["run"]["raw_wall_s"])
            summary["env"] = record["env"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        entry = {"attempted": attempted, "failed": failed, "reps_per_run": reps,
                 "end_to_end": {name: spread(v) for name, v in values.items()},
                 "unscaled_wall_s": spread(raw)}
        print(f"{workload}: failed_ratio = {failed}/{attempted}, reps per run {reps}")
        before = old.get(workload, {}).get("end_to_end", {})
        for metric in spec["end_to_end"]:
            s = entry["end_to_end"][metric["name"]]
            base = before.get(metric["name"], {}).get("median")
            print(f"  {metric['name']:<12} median {s['median']:.6g} {metric['unit']:<3} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.2%}"
                  + change(metric, s["median"], base))
        s = entry["unscaled_wall_s"]
        print(f"  {'unscaled':<12} median {s['median']:.6g} s   spread {s['spread']:.2%}")
        result, record = run(workload, 1, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in result["metrics"].items()}
        entry["traced_failed"] = result["failed"]
        for name, value in entry["per_layer"].items():
            if value:
                print(f"  {name:<42} {value:.6g} {result['metrics'][name]['unit']}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.write:
        with open(BASELINE, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
