"""Command-line front end: generation, verification, bound reports, file I/O.

Results go to stdout, diagnostics and progress to stderr.  Exit status is 0
exactly when the command's success condition holds.

Only ``verify`` and ``eval`` load the circuit layer and the oracle, so the
other commands start without them.  ``generate``, ``table2``, ``verify``
and ``prove`` without ``--classes`` load ``topology`` and the kernel: the
first of them to run binds the names of _TOPOLOGY_NAMES from ``topology``,
and so does a read of one of those names from outside before that (PEP
562).  ``eval`` loads them through the circuit layer.  So ``prove
--classes``, ``--help`` and a usage error start with ``bounds`` and
``errors`` alone.
"""

import argparse
import sys
from functools import cache

from . import bounds
from .errors import (CapacityError, CircuitError, ContractError, ParseError, _ascii_number,
                     read_ascii)

EXPECTED_CLASS_COUNTS = {1: 1, 2: 2, 3: 8, 4: 88, 5: 3564, 6: 555709}

# The names this module takes from ``topology``, bound on first use.
_TOPOLOGY_NAMES = ("count_classes", "generate", "is_minimal", "is_well_layered",
                   "load_topology_set", "save_topology_set")
_topology_bound = False


def _bind_topology():
    """Bind _TOPOLOGY_NAMES into this module, once per process; a name that
    is already set, as by a patch made before the first command, is kept."""
    global _topology_bound
    from . import topology

    names = globals()
    for name in _TOPOLOGY_NAMES:
        names.setdefault(name, getattr(topology, name))
    _topology_bound = True


def __getattr__(name):
    """A name of _TOPOLOGY_NAMES read from outside before it is bound (PEP 562)."""
    if name not in _TOPOLOGY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_topology()
    return globals()[name]


def _integer(text):
    """The type of every integer flag: an optional '-' and 1 to 18 ASCII
    digits.  int() would also read other Unicode digits, and meets Python's
    limit on the length of an integer string past 4,300 digits.  A rejected
    value is echoed up to its first 20 characters."""
    value = _ascii_number(text.removeprefix("-"))
    if value is None:
        shown = repr(text) if len(text) <= 20 else \
            f"{text[:20] + '…'!r} ({len(text)} characters)"
        raise argparse.ArgumentTypeError(f"invalid integer: {shown}")
    return -value if text.startswith("-") else value


@cache
def build_parser():
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and a parser is a web of cycles that only the cyclic collector
    would free."""
    parser = argparse.ArgumentParser(
        prog="mcbound",
        description="Enumerate XOR-AND circuit topologies up to equivalence and "
                    "evaluate the counting bounds they imply.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="enumerate topology classes and write them to a file")
    p.add_argument("--k", type=_integer, required=True, help="gate count (1..6)")
    p.add_argument("--out", required=True, help="output topology-set file")
    _workers_flag(p)
    _verbose_flag(p)

    p = sub.add_parser("table2", help="recompute the class-count table and compare "
                                      "against the known values")
    p.add_argument("--max-k", type=_integer, default=5, help="largest gate count to check (<= 6)")
    _verbose_flag(p)

    p = sub.add_parser("prove", help="print the bound report and check the pigeonhole verdict")
    p.add_argument("--n", type=_integer, required=True, help="input arity")
    p.add_argument("--k", type=_integer, required=True, help="gate count")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--classes", type=_integer, help="topology class count to use")
    given.add_argument("--topologies", help="topology-set file to take the class count from")
    _verbose_flag(p)

    p = sub.add_parser("verify", help="run a brute-force cross-validation suite")
    p.add_argument("--suite", required=True,
                   choices=["oracle-topologies", "rewrites", "completeness", "m3"])
    p.add_argument("--max-k", type=_integer, default=4,
                   help="cap for oracle-topologies (at most the oracle's raw enumeration cap)")
    p.add_argument("--cases", type=_integer, default=1000, help="random cases for rewrites")
    p.add_argument("--seed", type=_integer, default=42, help="seed for random cases")
    _workers_flag(p)

    p = sub.add_parser("eval", help="print the truth table of a circuit file")
    p.add_argument("circuit", help="circuit file in the circuit text format")
    return parser


def _workers_flag(p):
    p.add_argument("--workers", type=_integer, default=1,
                   help="parallel worker processes (default 1); never changes output")


def _verbose_flag(p):
    """The flag of the commands that walk classes and report progress."""
    p.add_argument("-v", "--verbose", action="store_true", help="progress to stderr")


def _usage_error(message):
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _progress(args):
    if not args.verbose:
        return None

    def emit(event):
        if event["phase"] == "subtree":
            print(f"[walk k={event['k']}] subtree {event['done']}/{event['total']}",
                  file=sys.stderr)
        else:
            print(f"[walk k={event['k']}] depth {event['round']}: {event['complete']} "
                  f"complete, {event['partial']} partial, {event['pruned']} pruned",
                  file=sys.stderr)
    return emit


def _cmd_generate(args):
    if args.k < 1:
        return _usage_error("--k must be at least 1")
    if not _topology_bound:
        _bind_topology()
    ts = generate(args.k, workers=args.workers, progress=_progress(args))
    save_topology_set(ts, args.out)
    print(ts.count)
    return 0


def _cmd_table2(args):
    if args.max_k < 1:
        return _usage_error("--max-k must be at least 1")
    if args.max_k > max(EXPECTED_CLASS_COUNTS):
        return _usage_error(f"no expected value beyond k={max(EXPECTED_CLASS_COUNTS)}")
    if not _topology_bound:
        _bind_topology()
    progress = _progress(args)
    failures = []
    for k in range(1, args.max_k + 1):
        count = count_classes(k, progress=progress)
        print(f"{k} {count}")
        if count != EXPECTED_CLASS_COUNTS[k]:
            failures.append((k, count))
    for k, count in failures:
        print(f"error: k={k} produced {count}, expected {EXPECTED_CLASS_COUNTS[k]}",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_prove(args):
    if args.n < 1:
        return _usage_error("--n must be at least 1")
    if args.k < 0:
        return _usage_error("--k must be non-negative")
    if args.classes is not None and args.classes < 1:
        return _usage_error("class count must be at least 1")
    # More classes only lengthen the report, so a report that is too long
    # with one class is refused before any file is read or walk run.
    bounds.check_report_size(args.n, args.k, 1)
    if args.classes is None and not _topology_bound:
        _bind_topology()
    if args.classes is not None:
        classes = args.classes
    elif args.topologies:
        ts = load_topology_set(args.topologies)
        if ts.k != args.k:
            return _usage_error(f"{args.topologies} holds k={ts.k} topologies, not k={args.k}")
        classes = ts.count
    else:
        classes = count_classes(args.k, progress=_progress(args))
    if classes < 1:
        return _usage_error("class count must be at least 1")
    bounds.check_report_size(args.n, args.k, classes)
    report = bounds.pigeonhole_report(args.n, args.k, classes)
    print(bounds.render_report(report))
    return 0 if report.verdict else 1


def _suite_oracle_topologies(args):
    from . import oracle

    if not 1 <= args.max_k <= oracle.MAX_RAW_K:
        return _usage_error(f"--max-k must be in 1..{oracle.MAX_RAW_K}")
    ok = True
    for k in range(1, args.max_k + 1):
        # an ordered set: the classes keep their order, and lookups are O(1);
        # the raw topologies are counted as they pass, not held
        kept = {}
        raw = 0
        for raw, t in enumerate(oracle.enumerate_raw_topologies(k), 1):
            if is_well_layered(t) and is_minimal(t):
                kept[t] = None
        expected_raw = bounds.raw_topology_count(k)
        if raw != expected_raw:
            print(f"fail: k={k}: {raw} raw topologies, expected {expected_raw}",
                  file=sys.stderr)
            ok = False
            continue
        classes = oracle.brute_equiv_classes(kept)
        reps = generate(k, workers=args.workers)
        missing = next((m for m in reps.members if m not in kept), None)
        forms = {oracle.literal_form(m) for m in reps.members}
        if (missing is not None or len(forms) != reps.count
                or forms != {oracle.literal_form(cls[0]) for cls in classes}):
            print(f"fail: k={k}: {len(classes)} brute classes vs {reps.count} generated",
                  file=sys.stderr)
            if missing is not None:
                print(f"  generated member outside every class:\n{missing}", file=sys.stderr)
            ok = False
        else:
            print(f"ok: k={k}: {len(classes)} classes match generated representatives")
    return 0 if ok else 1


def _suite_rewrites(args):
    if args.cases < 1:
        return _usage_error("--cases must be at least 1")
    import random

    from .circuits import (is_negation_normal, minimalize_circuit, negation_normalize,
                           normalize_circuit_layering, topology_of, truth_table)
    from .randgen import random_circuit

    rng = random.Random(args.seed)
    for case in range(args.cases):
        c = random_circuit(rng)
        before = truth_table(c)

        nn = negation_normalize(c)
        if truth_table(nn) != before or not is_negation_normal(nn) \
                or negation_normalize(nn) != nn:
            _report_rewrite_failure("negation_normalize", case, c)
            return 1

        layered = normalize_circuit_layering(c)
        if truth_table(layered) != before:
            _report_rewrite_failure("normalize_circuit_layering", case, c)
            return 1
        mini = minimalize_circuit(layered)
        topo = topology_of(mini)
        if truth_table(mini) != before or not is_minimal(topo) \
                or not is_well_layered(topo) or minimalize_circuit(mini) != mini:
            _report_rewrite_failure("minimalize_circuit", case, c)
            return 1
    print(f"ok: {args.cases} random circuits, rewrites preserve the function")
    return 0


def _report_rewrite_failure(op, case, c):
    from .circuits import format_circuit
    print(f"fail: {op} broke on case {case}:", file=sys.stderr)
    print(format_circuit(c), file=sys.stderr, end="")


def _suite_completeness(args):
    from . import oracle

    ok = True
    for n, k in ((1, 1), (2, 0), (2, 2)):
        if oracle.verify_completeness_small(n, k):
            print(f"ok: n={n} k={k}: restricted and unrestricted function sets agree")
        else:
            print(f"fail: n={n} k={k}: function sets differ", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def _suite_m3(args):
    from . import oracle

    all_b3 = 1 << (1 << 3)
    two = oracle.exhaustive_function_set(3, 2, generate(2))
    one = oracle.exhaustive_function_set(3, 1, generate(1))
    ok = True
    if len(two) == all_b3:
        print(f"ok: k=2 covers all {all_b3} functions of B_3")
    else:
        print(f"fail: k=2 covers only {len(two)} of {all_b3} functions", file=sys.stderr)
        ok = False
    if len(one) < all_b3:
        print(f"ok: k=1 covers only {len(one)} functions, so M(3) = 2")
    else:
        print("fail: k=1 unexpectedly covers all of B_3", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def _cmd_verify(args):
    """Run one suite; each suite checks only the flags it reads."""
    if not _topology_bound:
        _bind_topology()
    suites = {
        "oracle-topologies": _suite_oracle_topologies,
        "rewrites": _suite_rewrites,
        "completeness": _suite_completeness,
        "m3": _suite_m3,
    }
    return suites[args.suite](args)


def _cmd_eval(args):
    from .circuits import format_truth_table, parse_circuit, truth_table

    circuit = parse_circuit(read_ascii(args.circuit))
    print(format_truth_table(truth_table(circuit)))
    return 0


_DISPATCH = {
    "generate": _cmd_generate,
    "table2": _cmd_table2,
    "prove": _cmd_prove,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if vars(args).get("workers", 1) < 1:
        return _usage_error("--workers must be at least 1")
    try:
        return _DISPATCH[args.command](args)
    except (CapacityError, CircuitError, ContractError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
