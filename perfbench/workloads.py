"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload prove-k5 --seed 1 --seconds 10 \
        --trace 0 --out perfbench/out

The process makes its inputs from the seed, then repeats the workload's
operation until ``--seconds`` have passed, at least MIN_REPS times and at
least once per input (``turns``).
Each repetition is timed between two runs of the reference loop (see
calibrate.py) and its outputs are checked against pinned values outside
the timed part.  The process prints one JSON record as its last line of
standard output.  With ``--trace 1`` it first wraps the public functions of
each layer (see tracer.py), adds the per-layer figures to the record and
writes the spans to the output directory.

The workloads, and why each was chosen, are described in perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

from mcbound import bounds, circuits, cli, kernel, randgen, topology
from mcbound.circuits import format_circuit, parse_circuit, topology_of, truth_table
from mcbound.errors import ParseError
from mcbound.topology import (Topology, TopologySet, format_topology_set, generate,
                              is_minimal, is_well_layered, load_topology_set)

from calibrate import reference_seconds, scaled
from tracer import Tracer

MIN_REPS = 3

PROVE_K = 5
PROVE_CLASSES = 3282
PROVE_DIGEST = "acba33e1c4e9d6d1"  # sha256 of the sorted k=5 member encodings

TOPOLOGY_K = 6
TOPOLOGY_COUNT = 8_000

CIRCUIT_BATCHES = 10
CIRCUIT_BATCH = 1_000
CIRCUIT_MAX_N = 7
CIRCUIT_MAX_K = 7

_FACTORIAL = [math.factorial(i) for i in range(8)]


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().splitlines()


def _prove_problems(k, classes, rc, lines):
    problems = [] if rc == 0 else [f"prove exited {rc}"]
    for want in (f"topology_classes = {classes}", f"verdict: M(7) >= {k + 1}: true"):
        if want not in lines:
            problems.append(f"prove printed no {want!r}")
    return problems


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ProveK5:
    """``mcbound prove --n 7 --k 5`` through ``cli.main``, from nothing to
    the verdict: the class walk, materialization and bounds.  It has no
    input, so the seed changes nothing."""

    argv = ["prove", "--n", "7", "--k", str(PROVE_K)]
    turns = 1

    def __init__(self, rng, workdir):
        pass

    def rep(self):
        start = time.perf_counter()
        rc, lines = _run_cli(self.argv)
        elapsed = time.perf_counter() - start
        return elapsed, _prove_problems(PROVE_K, PROVE_CLASSES, rc, lines)

    def check_once(self):
        ts = generate(PROVE_K, workers=1)
        digest = hashlib.sha256(b"".join(t.encode() for t in ts.members)).hexdigest()
        if not digest.startswith(PROVE_DIGEST):
            return [f"k={PROVE_K} member digest {digest[:16]}, expected {PROVE_DIGEST}"]
        return []


def draw_topologies(rng, count, k):
    """``count`` distinct sorted encodings of well-layered minimal k-gate
    topologies.  Each gate's sides are drawn uniformly among the masks over
    earlier gates until the gates so far are minimal; a topology that is
    not well-layered is drawn again."""
    found = set()
    while len(found) < count:
        gates = ()
        for i in range(k):
            while True:
                gate = (rng.randrange(1 << i), rng.randrange(1 << i))
                t = Topology(i + 1, gates + (gate,))
                if is_minimal(t):
                    break
            gates = t.gates
        if is_well_layered(t):
            found.add(t.encode())
    return sorted(found)


def build_set(encodings):
    return TopologySet(TOPOLOGY_K, tuple(Topology.from_encoding(e) for e in encodings))


def prove_file(path):
    return _run_cli(["prove", "--n", "7", "--k", str(TOPOLOGY_K), "--topologies", path])


class RoundtripK6:
    """Topology-set text formats, written and read back at k=6: build a
    TopologySet with ``Topology.from_encoding``, save it, prove from the file
    and load it again.  Never calls the kernel."""

    turns = 1

    def __init__(self, rng, workdir):
        self.encodings = draw_topologies(rng, TOPOLOGY_COUNT, TOPOLOGY_K)
        self.path = os.path.join(workdir, f"roundtrip-{os.getpid()}.txt")
        self.bad_path = os.path.join(workdir, f"roundtrip-{os.getpid()}-bad.txt")
        # One gate of one member will reference a later gate.
        self.bad_member = rng.randrange(TOPOLOGY_COUNT)
        self.bad_gate = rng.randrange(1, TOPOLOGY_K)

    def rep(self):
        this = sys.modules[__name__]
        start = time.perf_counter()
        ts = this.build_set(self.encodings)
        topology.save_topology_set(ts, self.path)
        rc, lines = this.prove_file(self.path)
        back = topology.load_topology_set(self.path)
        elapsed = time.perf_counter() - start
        problems = _prove_problems(TOPOLOGY_K, TOPOLOGY_COUNT, rc, lines)
        if back.k != TOPOLOGY_K or [t.encode() for t in back.members] != self.encodings:
            problems.append("reloaded topology set differs from the saved one")
        return elapsed, problems

    def check_once(self):
        blocks = format_topology_set(build_set(self.encodings)).split("\n\n")
        lines = blocks[self.bad_member + 1].split("\n")
        later = self.bad_gate + 1
        lines[self.bad_gate] = lines[self.bad_gate].replace("L={", f"L={{{later},", 1) \
                                                   .replace(",}", "}")
        blocks[self.bad_member + 1] = "\n".join(lines)
        with open(self.bad_path, "w", encoding="ascii") as fh:
            fh.write("\n\n".join(blocks))
        try:
            load_topology_set(self.bad_path)
        except ParseError:
            return []
        return [f"gate {self.bad_gate} of member {self.bad_member} references gate "
                f"{later} and the set still loaded"]

    def close(self):
        for path in (self.path, self.bad_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def text_roundtrip(c):
    return parse_circuit(format_circuit(c))


class RewriteN7K7:
    """The function-preserving circuit rewrites and the circuit text format
    on seeded random circuits.  The repetitions take the batches in turn."""

    turns = CIRCUIT_BATCHES

    def __init__(self, rng, workdir):
        self.batches = [[randgen.random_circuit(rng, max_n=CIRCUIT_MAX_N, max_k=CIRCUIT_MAX_K)
                         for _ in range(CIRCUIT_BATCH)] for _ in range(CIRCUIT_BATCHES)]
        self.fingerprints = [None] * CIRCUIT_BATCHES
        self.turn = 0

    def rep(self):
        """Times the pipeline circuit by circuit, so that checking each
        result right away stays outside the timing.  A batch's first turn
        checks every result; later turns must reproduce it."""
        this = sys.modules[__name__]
        index = self.turn % CIRCUIT_BATCHES
        self.turn += 1
        first = self.fingerprints[index] is None
        fingerprints = []
        problems = []
        elapsed = 0.0
        for case, c in enumerate(self.batches[index]):
            start = time.perf_counter()
            table = circuits.truth_table(c)
            nn = circuits.negation_normalize(c)
            layered = circuits.normalize_circuit_layering(nn)
            mini = circuits.minimalize_circuit(layered)
            back = this.text_roundtrip(mini)
            elapsed += time.perf_counter() - start
            fingerprints.append(hash((table, back)))
            if first:
                problems += self.check(f"batch {index} case {case}",
                                       table, nn, layered, mini, back)
        if first:
            self.fingerprints[index] = fingerprints
        elif fingerprints != self.fingerprints[index]:
            problems.append(f"batch {index} gave other outputs than on its first turn")
        return elapsed, problems

    @staticmethod
    def check(case, table, nn, layered, mini, back):
        problems = []
        for stage, c in (("negation_normalize", nn),
                         ("normalize_circuit_layering", layered),
                         ("minimalize_circuit", mini)):
            if truth_table(c) != table:
                problems.append(f"{case}: {stage} changed the function")
        topo = topology_of(mini)
        if not (is_minimal(topo) and is_well_layered(topo)):
            problems.append(f"{case}: result topology is not minimal and well-layered")
        if back != mini:
            problems.append(f"{case}: text round trip changed the circuit")
        return problems

    def check_once(self):
        return []


WORKLOADS = {
    "prove-k5": ProveK5,
    "roundtrip-k6": RoundtripK6,
    "rewrite-n7k7": RewriteN7K7,
}


def install(tr, walk_rss):
    """Wrap the public functions of every layer, so that a layer a workload
    never calls reads a measured 0.  ``walk_rss`` receives the peak RSS in
    MB at the end of each class walk."""
    this = sys.modules[__name__]
    kern = kernel.get_backend(None)

    def on_extend(args, result):
        tr.count("kernel.extend.calls")
        tr.count("kernel.extend.children", len(result))
        tr.count("kernel.extend.children_no_min", sum(1 for _, m in result if m is None))

    tr.wrap(kern, "extend", "kernel.extend", on_extend)

    # Only the Python kernel's extend looks canonical_keys up where a wrap
    # can reach it; the compiled one keys inside C.  So these counts are
    # named for the Python kernel, and read a true 0 when it is not the
    # active one.
    def on_keys(args, result):
        tr.count("kernel.python.canonical_keys.calls")
        tr.count("kernel.python.canonical_keys.relabelings",
                 math.prod(_FACTORIAL[s] for s in args[1]))

    tr.wrap(kernel.get_backend("python"), "canonical_keys", "kernel.python.canonical_keys",
            on_keys)

    # The class walk is timed from generate's progress events: it ends at
    # the last "round" event, and materialization takes the rest.
    real_generate = cli.generate

    def traced_generate(k, *, workers=None, backend=None, progress=None):
        rounds = []

        def on_event(event):
            if event["phase"] == "round":
                rounds.append((time.perf_counter(), event, _maxrss_mb()))
            if progress is not None:
                progress(event)

        sid = tr.begin("topology.generate")
        try:
            ts = real_generate(k, workers=workers, backend=backend, progress=on_event)
        finally:
            tr.finish(sid)
        walk_end, last, rss = rounds[-1]
        tr.record("topology.walk", tr.start[sid], walk_end, sid)
        tr.record("topology.materialize", walk_end, tr.end[sid], sid)
        tr.count("topology.walk.full_keys", last["complete"])
        tr.count("topology.walk.partials",
                 (k - 1) + sum(event["partial"] for _, event, _ in rounds))
        tr.count("topology.classes", ts.count)
        walk_rss.append(rss)
        return ts

    tr.replace(cli, "generate", traced_generate)

    def on_save(args, result):
        tr.count("topology.save.bytes", os.path.getsize(args[1]))

    tr.wrap(this, "build_set", "topology.build_set")
    tr.wrap(topology, "format_topology_set", "topology.format")
    tr.wrap(topology, "save_topology_set", "topology.save", on_save)
    tr.wrap(topology, "parse_topology_set", "topology.parse")
    tr.wrap(topology, "load_topology_set", "topology.load")
    tr.wrap(cli, "load_topology_set", "topology.load")
    tr.wrap(this, "prove_file", "cli.prove_file")
    tr.wrap(bounds, "pigeonhole_report", "bounds.report")
    tr.wrap(bounds, "render_report", "bounds.report")

    def changed(name):
        def on_result(args, result):
            if result is not args[0]:
                tr.count(name)
        return on_result

    tr.wrap(circuits, "truth_table", "circuits.truth_table")
    tr.wrap(circuits, "negation_normalize", "circuits.negation_normalize")
    tr.wrap(circuits, "normalize_circuit_layering", "circuits.normalize_layering",
            changed("circuits.normalize_layering.changed"))
    tr.wrap(circuits, "minimalize_circuit", "circuits.minimalize",
            changed("circuits.minimalize.changed"))
    tr.wrap(this, "text_roundtrip", "circuits.text_roundtrip")


class LayerView:
    """Per-layer figures of a finished traced run: busy times are medians
    over repetitions, counts are summed over the first turn of each input."""

    def __init__(self, tracer, reps, turns):
        self.calls, self._busy, self._child = tracer.summary()
        self.reps = reps
        self.first_turn = tracer.rep_counts[:turns]

    def busy(self, span):
        per_rep = self._busy.get(span, {})
        return statistics.median(per_rep.get(r, 0.0) for r in range(self.reps))

    def self_time(self, span, inner=None):
        """Median over repetitions of the span's busy time minus that of its
        direct children, or minus that of the spans called ``inner``."""
        busy = self._busy.get(span, {})
        child = self._busy.get(inner, {}) if inner else self._child.get(span, {})
        return statistics.median(busy.get(r, 0.0) - child.get(r, 0.0) for r in range(self.reps))

    def call_percentile(self, span, q):
        durations = sorted(self.calls.get(span, ()))
        if not durations:
            return 0.0
        return durations[max(0, math.ceil(q / 100 * len(durations)) - 1)]

    def count(self, name):
        return sum(counts.get(name, 0) for counts in self.first_turn)


def layer_values(layer, walk_rss):
    """Every per-layer metric except the tracing overhead, which run.py adds."""
    children = layer.count("kernel.extend.children")
    keys = layer.count("kernel.python.canonical_keys.calls")
    values = {
        "kernel.extend.calls": layer.count("kernel.extend.calls"),
        "kernel.extend.children": children,
        "kernel.extend.children_no_min": layer.count("kernel.extend.children_no_min"),
        "kernel.extend.busy_s": layer.busy("kernel.extend"),
        "kernel.extend.self_s": layer.self_time("kernel.extend"),
        "kernel.extend.call_ms.p50": layer.call_percentile("kernel.extend", 50) * 1e3,
        "kernel.extend.call_ms.p99": layer.call_percentile("kernel.extend", 99) * 1e3,
        "kernel.python.extend.yield": children / keys if keys else 0.0,
        "kernel.python.canonical_keys.calls": keys,
        "kernel.python.canonical_keys.relabelings":
            layer.count("kernel.python.canonical_keys.relabelings"),
        "kernel.python.canonical_keys.busy_s": layer.busy("kernel.python.canonical_keys"),
        "topology.walk.busy_s": layer.busy("topology.walk"),
        "topology.walk.self_s": layer.self_time("topology.walk", "kernel.extend"),
        "topology.walk.full_keys": layer.count("topology.walk.full_keys"),
        "topology.walk.partials": layer.count("topology.walk.partials"),
        "topology.walk.peak_rss_mb": max(walk_rss, default=0.0),
        "topology.materialize.busy_s": layer.busy("topology.materialize"),
        "topology.classes": layer.count("topology.classes"),
        "topology.build_set.busy_s": layer.busy("topology.build_set"),
        "topology.format.busy_s": layer.busy("topology.format"),
        "topology.save.busy_s": layer.busy("topology.save"),
        "topology.save.mib": layer.count("topology.save.bytes") / 2 ** 20,
        "topology.parse.busy_s": layer.busy("topology.parse"),
        "topology.load.busy_s": layer.busy("topology.load"),
        "cli.prove_file.busy_s": layer.busy("cli.prove_file"),
        "bounds.report.busy_s": layer.busy("bounds.report"),
        "circuits.normalize_layering.changed": layer.count("circuits.normalize_layering.changed"),
        "circuits.minimalize.changed": layer.count("circuits.minimalize.changed"),
    }
    for span, quantiles in (("truth_table", (50, 99)), ("negation_normalize", (50,)),
                            ("normalize_layering", (50, 99)), ("minimalize", (50, 99)),
                            ("text_roundtrip", (50,))):
        for q in quantiles:
            values[f"circuits.{span}.call_us.p{q}"] = \
                layer.call_percentile(f"circuits.{span}", q) * 1e6
    return values


def run(name, seed, seconds, trace, outdir):
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](random.Random(seed), outdir)
    turns = workload.turns
    walk_rss = []
    if tracer is not None:
        install(tracer, walk_rss)
    walls = []
    refs = []
    failed = set()
    deadline = time.perf_counter() + seconds
    try:
        while len(walls) < max(MIN_REPS, turns) or time.perf_counter() < deadline:
            ref = reference_seconds()
            if tracer is not None:
                tracer.start_rep()
                sid = tracer.begin("rep")
            start = time.perf_counter()
            try:
                elapsed, problems = workload.rep()
            except Exception:
                elapsed = time.perf_counter() - start
                problems = [traceback.format_exc()]
            if tracer is not None:
                tracer.finish(sid)
                rep = len(walls)
                if rep >= turns and tracer.rep_counts[rep] != tracer.rep_counts[rep % turns]:
                    problems.append("layer counts differ from the same input's first turn")
            walls.append(elapsed)
            refs.append(ref)
            if problems:
                failed.add(len(walls))
                print(f"{name} repetition {len(walls)} failed:", *problems[:5],
                      sep="\n  ", file=sys.stderr)
        refs.append(reference_seconds())
        # The peak is read before the checks below, which build inputs of
        # their own.
        peak_rss_mb = _maxrss_mb()
        layers = None
        if tracer is not None:
            tracer.restore()
            layers = layer_values(LayerView(tracer, len(walls), turns), walk_rss)
            tracer.write(os.path.join(outdir, f"{name}-s{seed}.spans.json"))
        # Counted with the first repetition.
        once = workload.check_once()
        if once:
            print(f"{name} one-off check failed:", *once, sep="\n  ", file=sys.stderr)
            failed.add(1)
    finally:
        getattr(workload, "close", lambda: None)()

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "reps": len(walls),
        "failed": len(failed),
        "rep_wall_s": walls,
        "rep_reference_s": refs,
        "raw_wall_s": statistics.median(walls),
        "wall_s": statistics.median(scaled(w, refs[i], refs[i + 1])
                                    for i, w in enumerate(walls)),
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "backend": kernel.BACKEND,
            "available_backends": kernel.available_backends(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if layers is not None:
        record["layers"] = layers
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for work files and spans")
    args = parser.parse_args()
    record = run(args.workload, args.seed, args.seconds, args.trace, args.out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
