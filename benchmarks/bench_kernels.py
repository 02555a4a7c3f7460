"""Benchmark the compiled kernel against the pure-Python fallback, the
topology-set file format and the circuit layer.

Per backend, times the class walk alone (``count_classes``), the walk plus
the sorted member rows (``generate``), ``extend`` in microseconds per parent
over every parent that the walk for k expands, and the kernel's row builder
``images`` in microseconds per row over the candidate rows that the class
count for k reads, each the median of PASSES passes, and reports the
speedup of the compiled kernel on the first two.  These four figures are printed, and recorded as
``walk_s_scaled`` and the like, scaled to the reference speed by
``perfbench/calibrate.py``'s ``scaled`` with the reference loop run just
before and just after each one; the record keeps the raw figures beside
them under the old names.  ``extend_us`` covers only a parent's full
children, those that complete k gates: ``_gen_py.child_shapes`` derives the
partial ones, which an older package's ``extend`` also keyed.  Each pass
starts with the class count's cache
(``count_cache``) and the pure-Python kernel's settled classes per settle
input (``_gen_py._SETTLED``) and child shapes per parent shape
(``_gen_py._CHILDREN``) emptied, so that a count, a settle or a child
shape read back from an earlier pass is not taken for a faster kernel,
and ``generate_s`` times a walk that settles, not one that looks its
settles up; the figures then compare with those of packages from before
those caches.  Its relabel tables and candidate rows stay warm after the
first pass, as before.  Per k, also times ``save_topology_set`` and
``load_topology_set`` of the generated set, which use no kernel, and the
first read of ``members`` on the loaded set, which builds its ``Topology``
views, each the median of PASSES calls; ``Topology.from_encoding`` in
microseconds per member, and ``canonical_keys`` in microseconds per call
over every member's encoding: the pure-Python kernel cold, with its relabel
tables and candidate rows emptied so that the calls build them, then warm,
and the compiled kernel when it is built.  And, through ``startup.py``, the
seconds and peak RSS of four fresh interpreters per k: ``generate`` alone,
the CLI's ``generate``, which also saves the set, a load of the file it
saved, and a load of the file with one gate line in its middle respelt, as
``respell`` writes it; then, per k and backend, of five more with that
kernel as the default: ``count_classes``, ``generate``, ``mcbound generate
--k K`` writing to the null device, ``mcbound prove --n 7 --k K`` without
``--classes``, and ``mcbound table2 --max-k K``.
Each of these fresh figures is the median of PASSES runs, with their min
and max beside it (``seconds_min``, ``seconds_max`` and the like).

Then, over seeded ``random_circuit(max_n=7, max_k=7)`` circuits, the
microseconds per circuit of each stage of the rewrite pipeline, each stage
fed the previous one's results: ``truth_table``, ``negation_normalize``,
``normalize_circuit_layering``, ``minimalize_circuit``, ``format_circuit``
and ``parse_circuit``, the best of five passes.

Last, through ``startup.py``, the start-up of the package this script
imports: the median seconds of STARTS fresh interpreters that each run
``import mcbound.cli``, and of STARTS that each run ``mcbound prove --n 7
--k 6 --classes 555709``, with the children's peak RSS.  The children
inherit ``PYTHONDONTWRITEBYTECODE``, which decides whether they may reuse
cached bytecode; the record notes it.

With ``--counts-only`` it records, instead of all of the above, the class
count alone per k up to ``--max-k``, which may then be 7, and per backend:
the median seconds and peak RSS of PASSES fresh interpreters that run
``count_classes`` with that kernel as the default, and the number of count
steps of its walk, one ``topology.count_full`` call per distinct parent
shape (one kernel ``count_extend`` call in a package from before it),
counted cold through a wrapper in this process (``steps``).

Either way it also records, per backend, the median microseconds of
WARM_COUNTS repeated in-process ``count_classes(5)`` calls after a first
one, the class count that ``prove --n 7 --k 5`` runs again and again in
one process (``warm_count_k5_us``).

``--json PATH`` also appends the run, as one record, to the JSON list in
PATH (a new file holds just that record): every figure printed, the
backends, the ``git rev-parse HEAD`` of the checkout whose package is
measured, with the sha256 of its ``git diff HEAD`` when it has uncommitted
changes, and the seconds of ``perfbench/calibrate.py``'s reference loop just
before and just after the run, by which the times can be scaled to a fixed
machine speed.

    python benchmarks/bench_kernels.py --max-k 5
    python benchmarks/bench_kernels.py --max-k 6 --json BENCH_<date>.json
    python benchmarks/bench_kernels.py --counts-only --max-k 7 --json BENCH_<date>.json
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mcbound import _gen_py, circuits, kernel, topology
from mcbound.randgen import random_circuit
from mcbound.topology import (Topology, count_classes, generate, load_topology_set,
                              save_topology_set)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from calibrate import reference_seconds, scaled  # noqa: E402


CIRCUITS = 2000
STARTS = 21
PASSES = 5
WARM_COUNTS = 201


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def count_cache():
    """The class count's cache in the package measured: its subtree totals
    per parent shape and k (and kernel, in older packages), or in a package
    from before them, its
    full-children counts per kernel, parent shape and width, or those the
    pure-Python kernel kept per parent shape and width.  Raises SystemExit
    when the package has none of them, since a count's figures could then
    read a warm cache as a fast kernel."""
    for owner, name in ((topology, "_TOTALS"), (topology, "_FULL_COUNTS"), (_gen_py, "_COUNTS")):
        cache = getattr(owner, name, None)
        if cache is not None:
            return cache
    raise SystemExit("no class count cache found to empty: topology._TOTALS, "
                     "topology._FULL_COUNTS and _gen_py._COUNTS are all missing")


COUNTS = count_cache()
# the pure-Python kernel's settled classes per settle input and child shapes
# per parent shape; a package from before they were cached has none
SETTLED = getattr(_gen_py, "_SETTLED", {})
CHILDREN = getattr(_gen_py, "_CHILDREN", {})


def median_of(fn, *args, **kwargs):
    """The result of the first of PASSES calls ``fn(*args, **kwargs)`` and
    the median seconds of the calls; no other result is kept."""
    result, first = timed(fn, *args, **kwargs)
    return result, statistics.median(
        [first] + [timed(fn, *args, **kwargs)[1] for _ in range(PASSES - 1)])


def median_timed(fn, *args, **kwargs):
    """``median_of(fn, *args, **kwargs)`` with ``COUNTS``, ``SETTLED`` and
    ``CHILDREN`` emptied before each call, so that every pass counts,
    settles and derives child shapes cold."""
    def cold():
        COUNTS.clear()
        SETTLED.clear()
        CHILDREN.clear()
        return fn(*args, **kwargs)
    return median_of(cold)


def scaled_timed(fn, *args, **kwargs):
    """``median_timed(fn, *args, **kwargs)`` as ``(result, seconds,
    scaled_seconds)``: the seconds also scaled to the reference speed
    (``calibrate.scaled``) by the reference loop run just before and just
    after the passes."""
    before = reference_seconds()
    result, seconds = median_timed(fn, *args, **kwargs)
    return result, seconds, scaled(seconds, before, reference_seconds())


def first_members(ts):
    """The ``members`` of a copy of ``ts`` whose ``Topology`` views are not
    built yet, so that each call builds them."""
    return topology.TopologySet._from_rows(ts.k, ts.rows).members


def walk_parents(k):
    """Every parent that the class walk for k expands: the seeds of 1..k-1
    empty gates and every partial child with a key_min, the parent followed
    by one of the layers that ``_gen_py.child_shapes`` gives for its shape,
    or, from a package whose ``extend`` still keys partial children, one of
    their key_any."""
    keyed = len(_gen_py.extend(b"\0\0", 2)) == 3
    parents = []
    stack = [bytes(2 * q) for q in range(1, k)]
    while stack:
        enc = stack.pop()
        parents.append(enc)
        if keyed:
            stack += [key for key, key_min in _gen_py.extend(enc, k)[2] if key_min is not None]
            continue
        shape = _gen_py.parent_shape(enc)
        for width in range(1, k - len(enc) // 2):
            size = 2 * width
            stack += [enc + layers[at:at + size] for _, layers in
                      _gen_py.child_shapes(shape, width)[0] for at in range(0, len(layers), size)]
    return parents


def per_parent_us(fn, k, parents):
    """``fn(enc, k)`` microseconds per parent over the parents, the median
    of PASSES passes, raw and scaled (``scaled_timed``), or None twice when
    there are none."""
    if not parents:
        return None, None

    def one_pass():
        for enc in parents:
            fn(enc, k)
    _, seconds, scaled_s = scaled_timed(one_pass)
    return seconds / len(parents) * 1e6, scaled_s / len(parents) * 1e6


def row_us(k, backend):
    """The kernel ``backend``'s ``images`` in microseconds per row over the
    candidate rows that a cold ``count_classes(k)`` reads, the median of
    PASSES passes, raw and scaled (``scaled_timed``), or None twice when it
    reads none."""
    _gen_py._ROWS.clear()
    COUNTS.clear()
    CHILDREN.clear()
    count_classes(k, backend="python")
    calls = []
    for sizes, index in _gen_py._ROWS:
        q = sum(sizes)
        calls.append((_gen_py._TABLES[sizes][index][1],
                      *_gen_py._candidates(q, (1 << q) - (1 << (q - sizes[-1])))))
    if not calls:
        return None, None
    images = kernel.get_backend(backend).images

    def one_pass():
        for args in calls:
            images(*args)
    _, seconds, scaled_s = scaled_timed(one_pass)
    return seconds / len(calls) * 1e6, scaled_s / len(calls) * 1e6


def respell(path, out):
    """Write the set file at ``path`` to ``out`` with a space before the end
    of one ``gate 1`` line, the first at or past its middle, so that its
    block is no longer spelt as ``format_topology_set`` writes it."""
    data = Path(path).read_bytes()
    line = b"gate 1: L={} R={}\n"
    at = data.find(line, len(data) // 2)
    at = (data.rfind(line) if at < 0 else at) + len(line) - 1
    Path(out).write_bytes(data[:at] + b" " + data[at:])


def from_encoding_us(members):
    """``Topology.from_encoding`` microseconds per member, best of three."""
    encodings = [m.encode() for m in members]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for enc in encodings:
            Topology.from_encoding(enc)
        best = min(best, time.perf_counter() - start)
    return best / len(encodings) * 1e6


def canonical_keys_us(members, backends):
    """``canonical_keys`` microseconds per call over the members' encodings:
    the pure-Python kernel cold, then warm, then the compiled kernel, or
    None when it is not among ``backends``."""
    encodings = [m.encode() for m in members]

    def per_call(keys):
        start = time.perf_counter()
        for enc in encodings:
            keys(enc)
        return (time.perf_counter() - start) / len(encodings) * 1e6
    # a package from before the candidate rows were cached has no _ROWS
    for cache in (_gen_py._TABLES, getattr(_gen_py, "_ROWS", {})):
        cache.clear()
    cold_us = per_call(_gen_py.canonical_keys)
    warm_us = per_call(_gen_py.canonical_keys)
    c_us = per_call(kernel.get_backend("c").canonical_keys) if "c" in backends else None
    return cold_us, warm_us, c_us


def circuit_stages_us(count, seed=1):
    """Microseconds per circuit of each rewrite-pipeline stage, the best of
    five passes over ``count`` seeded random circuits."""
    rng = random.Random(seed)
    batch = [random_circuit(rng, max_n=7, max_k=7) for _ in range(count)]
    stages = [("truth_table", circuits.truth_table, False),
              ("negation_normalize", circuits.negation_normalize, True),
              ("normalize_circuit_layering", circuits.normalize_circuit_layering, True),
              ("minimalize_circuit", circuits.minimalize_circuit, True),
              ("format_circuit", circuits.format_circuit, True),
              ("parse_circuit", circuits.parse_circuit, True)]
    best = {}
    for _ in range(5):
        values = batch
        results = {}
        for name, fn, feeds in stages:
            start = time.perf_counter()
            results[name] = [fn(v) for v in values]
            elapsed = (time.perf_counter() - start) / count * 1e6
            best[name] = min(best.get(name, elapsed), elapsed)
            if feeds:
                values = results[name]
        if results["parse_circuit"] != results["minimalize_circuit"]:
            raise SystemExit("the circuit text round trip changed a circuit")
    return best


SRC = Path(kernel.__file__).resolve().parents[1]  # the package measured


def fresh(*args):
    """``startup.py``'s figures for ``args``, for the package this script
    imports."""
    done = subprocess.run([sys.executable, "-I", "-S", str(ROOT / "benchmarks" / "startup.py"),
                           *map(str, args), str(SRC)],
                          capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout)


def fresh_passes(*args):
    """``fresh(*args)`` over PASSES runs: per command and figure, the
    median, with the min and max beside it."""
    runs = [fresh(*args) for _ in range(PASSES)]
    return {name: {figure + suffix: pick([run[name][figure] for run in runs])
                   for figure in figures
                   for suffix, pick in (("", statistics.median), ("_min", min), ("_max", max))}
            for name, figures in runs[0].items()}


def count_steps(k, backend):
    """``count_classes(k)`` with the kernel ``backend``, cold, and the
    number of its count steps, one per distinct parent shape: the calls of
    ``topology.count_full``, or in a package from before it, of the
    kernel's ``count_extend``, counted through a wrapper put in its place."""
    owner, name = ((topology, "count_full") if hasattr(topology, "count_full")
                   else (kernel.get_backend(backend), "count_extend"))
    step = getattr(owner, name)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)
    COUNTS.clear()
    SETTLED.clear()
    CHILDREN.clear()
    setattr(owner, name, counted)
    try:
        classes = count_classes(k, backend=backend)
    finally:
        setattr(owner, name, step)
    return classes, calls


def warm_count_us(backends):
    """Per backend, the median microseconds of WARM_COUNTS in-process
    ``count_classes(5)`` calls, each timed alone, after one that fills the
    caches; printed as well."""
    figures = {}
    for backend in backends:
        count_classes(5, backend=backend)
        figures[backend] = statistics.median(
            timed(count_classes, 5, backend=backend)[1] for _ in range(WARM_COUNTS)) * 1e6
    print(f"\nwarm in-process count_classes(5), median of {WARM_COUNTS}: "
          + "  ".join(f"{b} {us:.1f}us" for b, us in figures.items()))
    return figures


def count_rows(max_k, backends):
    """Per k up to ``max_k`` and per backend, the class count, its kernel
    count steps (``count_steps``) and the figures of PASSES fresh
    interpreters that count with that kernel (``startup.py count``)."""
    rows = []
    for k in range(1, max_k + 1):
        for backend in backends:
            classes, steps = count_steps(k, backend)
            figures = fresh_passes("count", k, backend)["count_classes"]
            rows.append({"k": k, "backend": backend, "classes": classes, "steps": steps,
                         "fresh": figures})
            print(f"{k:>2} {backend:>6} {classes:>11} {steps:>9} "
                  f"{figures['seconds']:>8.3f}s ({figures['seconds_min']:.3f}-"
                  f"{figures['seconds_max']:.3f}) {figures['peak_rss_mb']:>6.1f}MB", flush=True)
    return rows


def git(*args):
    """The output of ``git args`` in the checkout of the package measured,
    or None outside git."""
    try:
        done = subprocess.run(["git", "-C", str(SRC.parent), *args],
                              capture_output=True, timeout=60)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def git_state():
    """The commit of the package's checkout, and the sha256 of its ``git
    diff HEAD`` when that is not empty, else None; both None outside git."""
    commit = git("rev-parse", "HEAD")
    if commit is None:
        return None, None
    diff = git("diff", "HEAD")
    return commit.decode().strip(), hashlib.sha256(diff).hexdigest() if diff else None


def append_record(path, record):
    """Append ``record`` to the JSON list in ``path``, creating it if absent."""
    try:
        with open(path) as f:
            records = json.load(f)
    except FileNotFoundError:
        records = []
    records.append(record)
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")


def record_head(args, backends, reference_before):
    """The fields that every JSON record starts with; the reference loop is
    timed again for its ``after``."""
    commit, diff_sha256 = git_state()
    return {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "commit": commit, "diff_sha256": diff_sha256,
            "backends": backends, "python": platform.python_version(),
            "cpus": os.cpu_count(), "max_k": args.max_k, "passes": PASSES,
            "reference_s": {"before": reference_before, "after": reference_seconds()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-k", type=int, default=5,
                        help="largest gate count to benchmark (default 5)")
    parser.add_argument("--json", metavar="PATH",
                        help="also append the run as a JSON record to PATH")
    parser.add_argument("--counts-only", action="store_true",
                        help="record only the class count per k and backend, in fresh "
                             "interpreters, with the count steps of its walk")
    args = parser.parse_args()
    if args.max_k > (7 if args.counts_only else 6):
        parser.error("--max-k is at most 6, or 7 with --counts-only")

    reference_before = reference_seconds()
    backends = kernel.available_backends()
    if "c" not in backends:
        print("note: compiled kernel not built, timing the fallback only")
    if args.counts_only:
        print(f"{'k':>2} {'kernel':>6} {'classes':>11} {'steps':>9} "
              f"fresh count_classes, median (min-max) of {PASSES}, peak RSS")
        counts = count_rows(args.max_k, backends)
        warm_counts = warm_count_us(backends)
        if args.json:
            append_record(args.json, dict(record_head(args, backends, reference_before),
                                          counts=counts, warm_count_k5_us=warm_counts))
        return
    columns = [(b, phase) for b in backends for phase in ("walk", "generate")]
    print(f"{'k':>2} {'classes':>9} " + " ".join(f"{b + ' ' + p:>16}" for b, p in columns)
          + "".join(f" {b + ' ' + f:>16}" for f in ("extend", "row") for b in backends)
          + f" {'save':>9} {'load':>9} {'members':>9} {'from_enc':>9}"
          + f" {'keys cold':>10} {'keys warm':>10} {'keys c':>10}"
          + f" {'fresh generate/cli/load/respelt MB':>36}"
          + ("   speedup walk/generate" if len(backends) > 1 else ""))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "set.txt")
        for k in range(1, args.max_k + 1):
            times, raw = {}, {}
            for backend in backends:
                count, raw[backend, "walk"], times[backend, "walk"] = scaled_timed(
                    count_classes, k, backend=backend)
                ts, raw[backend, "generate"], times[backend, "generate"] = scaled_timed(
                    generate, k, backend=backend, workers=1)
                if ts.count != count:
                    raise SystemExit(f"k={k} {backend}: the walk counted {count} classes, "
                                     f"generate built {ts.count}")
            _, save_s = median_of(save_topology_set, ts, path)
            back, load_s = median_of(load_topology_set, path)
            if back != ts:
                raise SystemExit(f"k={k}: the loaded set differs from the saved one")
            members, members_s = median_of(first_members, back)
            parents = walk_parents(k)
            extend_raw, extend = {}, {}
            rows_raw, rows_us = {}, {}
            for b in backends:
                extend_raw[b], extend[b] = per_parent_us(kernel.get_backend(b).extend, k, parents)
                rows_raw[b], rows_us[b] = row_us(k, b)
            cold_us, warm_us, keys_c_us = canonical_keys_us(members, backends)
            from_enc_us = from_encoding_us(members)
            respelt = os.path.join(tmp, "respelt.txt")
            respell(path, respelt)
            fresh_runs = fresh_passes("set", k, os.path.join(tmp, "fresh.txt"), respelt)
            fresh_mb = "/".join(f"{run['peak_rss_mb']:.1f}" for run in fresh_runs.values())
            fresh_kernel = {b: fresh_passes("kernel", k, b) for b in backends}
            rows.append({"k": k, "classes": count, "parents": len(parents),
                         "walk_s": {b: raw[b, "walk"] for b in backends},
                         "walk_s_scaled": {b: times[b, "walk"] for b in backends},
                         "generate_s": {b: raw[b, "generate"] for b in backends},
                         "generate_s_scaled": {b: times[b, "generate"] for b in backends},
                         "extend_us": extend_raw, "extend_us_scaled": extend,
                         "row_us": rows_raw, "row_us_scaled": rows_us,
                         "save_s": save_s, "load_s": load_s,
                         "members_s": members_s, "from_encoding_us": from_enc_us,
                         "canonical_keys_cold_us": cold_us, "canonical_keys_warm_us": warm_us,
                         "canonical_keys_c_us": keys_c_us,
                         "fresh": fresh_runs, "fresh_kernel": fresh_kernel})
            line = f"{k:>2} {count:>9} " + " ".join(f"{times[c]:>15.3f}s" for c in columns)
            for us in [*extend.values(), *rows_us.values()]:
                line += f" {'-' if us is None else f'{us:.1f}us':>16}"
            line += (f" {save_s:>8.3f}s {load_s:>8.3f}s {members_s:>8.3f}s"
                     f" {from_enc_us:>7.2f}us {cold_us:>8.1f}us {warm_us:>8.1f}us"
                     f" {'-' if keys_c_us is None else f'{keys_c_us:.2f}us':>10}"
                     f" {fresh_mb:>36}")
            if len(backends) > 1:
                line += "   " + "/".join(f"{times['python', p] / max(times['c', p], 1e-9):.1f}x"
                                      for p in ("walk", "generate"))
            print(line)
    print(f"\nfresh interpreters per kernel, seconds and peak RSS, median of {PASSES}:")
    for row in rows:
        for b, figures in row["fresh_kernel"].items():
            print(f"{row['k']:>2} {b:>6} " + "  ".join(
                f"{name} {run['seconds']:.3f}s {run['peak_rss_mb']:.1f}MB"
                for name, run in figures.items()))
    print(f"\ncircuit layer, us per circuit over {CIRCUITS} random circuits (n <= 7, k <= 7):")
    circuit_us = circuit_stages_us(CIRCUITS)
    for name, us in circuit_us.items():
        print(f"{name:>28} {us:>8.1f}us")
    print(f"\nstart-up, median of {STARTS} fresh interpreters, and peak RSS:")
    started = fresh(STARTS)
    for name, figures in started.items():
        print(f"{name:>28} {figures['median_s'] * 1e3:>8.1f}ms {figures['peak_rss_mb']:>6.1f}MB")
    warm_counts = warm_count_us(backends)
    if args.json:
        append_record(args.json, dict(
            record_head(args, backends, reference_before), rows=rows, circuit_us=circuit_us,
            warm_count_k5_us=warm_counts,
            startup=dict(started, starts=STARTS,
                         dont_write_bytecode=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))))


if __name__ == "__main__":
    main()
