"""The pure-Python kernel against a brute-force reference, and the compiled
kernel against the pure-Python one, byte for byte."""

import importlib.util
import random
import shlex
import subprocess
import sysconfig
from itertools import combinations_with_replacement, count, permutations, product
from operator import countOf
from pathlib import Path

import pytest

from conftest import long_tier
from mcbound import _gen_py, kernel, topology
from mcbound.cli import main
from mcbound.oracle import enumerate_raw_topologies
from mcbound.topology import (Topology, canonical_form, count_classes, gate_fault, generate,
                              is_well_layered, layering)


@pytest.fixture(scope="session")
def gen_c(tmp_path_factory):
    """The compiled kernel, built from ``_gen_c.c`` next to ``_gen_py.py``
    into a temporary directory, so no built module lands beside the sources
    and changes which kernel ``mcbound.kernel`` picks.  Skips only when no
    compiler can be started: a build that fails, warnings included, fails
    the tests that use the kernel, with the compiler's messages."""
    source = Path(_gen_py.__file__).with_name("_gen_c.c")
    target = tmp_path_factory.mktemp("kernel") / ("_gen_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-O3", "-Wall", "-Werror", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
        str(source), "-o", str(target)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    except OSError as exc:
        pytest.skip(f"cannot start the C compiler: {exc}")
    assert done.returncode == 0, f"the C kernel does not build:\n{done.stderr}"
    spec = importlib.util.spec_from_file_location("mcbound._gen_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_canonical_keys_parity(gen_c, k):
    if k < 5:
        cases = [t for t in enumerate_raw_topologies(k) if is_well_layered(t)]
    else:
        cases = list(generate(5).members) + well_layered_k5_sample(2000)
    for t in cases:
        enc = t.encode()
        assert gen_c.canonical_keys(enc) == _gen_py.canonical_keys(enc), t


def test_extend_parity(gen_c):
    parents = [m.encode() for m in generate(3).members]
    parents += [m.encode() for m in generate(2).members]
    for enc in parents:
        assert gen_c.extend(enc, 5) == _gen_py.extend(enc, 5)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_extend_parity_on_k7_seeds(gen_c, q):
    # q = 6 leaves room for one new gate only, under 720 automorphisms
    enc = bytes(2 * q)
    full, keys = extended = _gen_py.extend(enc, 7)
    assert extended == gen_c.extend(enc, 7)
    assert _gen_py.count_extend(enc, 7) == gen_c.count_extend(enc, 7) == (full, len(keys))


def test_extend_parity_on_one_gate_parents_at_k6(gen_c):
    parents = [enc for enc, _ in walk_parents(gen_c, 6, full=False) if len(enc) == 10]
    assert len(parents) == 3282
    for enc in random.Random(6).sample(parents, 300):
        assert _gen_py.extend(enc, 6) == gen_c.extend(enc, 6), enc


@pytest.mark.parametrize("k", [3, 4, 5])
def test_generate_parity(gen_c, monkeypatch, k):
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    assert generate(k, workers=1, backend="c").members == generate(k, backend="python").members


EXTEND_GUARD_ARGS = [
    (b"", 3),
    (b"\0\0", 8),
    (b"\1\0", 3),  # gate 1 references itself
    (b"\0\0\0\2\0\0", 5),  # gate 2 references itself
    (b"\0\0\4\0\0\0", 5),  # gate 2 references gate 3
]

KEYS_GUARD_ARGS = [
    (bytes(16),),  # 8 gates
    (b"\1\0",),  # gate 1 references itself
    (b"\0\0\0\2\0\0",),  # gate 2 references itself
    (b"\0\0\4\0\0\0",),  # gate 2 references gate 3
]

GUARD_CASES = [(name, args) for name in ("extend", "count_extend")
               for args in EXTEND_GUARD_ARGS] + [
    ("canonical_keys", args) for args in KEYS_GUARD_ARGS]


def test_kernel_guards_match(gen_c):
    for name, args in GUARD_CASES:
        messages = []
        for mod in (gen_c, _gen_py):
            with pytest.raises(ValueError) as err:
                getattr(mod, name)(*args)
            messages.append(str(err.value))
        assert messages[0] == messages[1], (name, args)
    assert gen_c.canonical_keys(b"") == _gen_py.canonical_keys(b"") == (b"", b"")
    # a parent of k gates has no children, so no candidate gates are built
    # (seven gates would give more than 4,096 of them)
    assert gen_c.extend(bytes(14), 7) == _gen_py.extend(bytes(14), 7) == (0, [])
    assert gen_c.count_extend(bytes(14), 7) == _gen_py.count_extend(bytes(14), 7) == (0, 0)
    assert gen_c.count_extend(b"\0\0", -2 ** 80) == _gen_py.count_extend(b"\0\0", -2 ** 80) \
        == (0, 0)


def test_odd_length_parent_ignores_its_last_byte(gen_c):
    for enc, k in ((b"\0\0\0", 3), (b"\0\0\1", 3), (b"\0\0\0\1\3", 4)):
        for kern in (gen_c, _gen_py):
            assert kern.extend(enc, k) == kern.extend(enc[:-1], k), (kern.BACKEND, enc)
            assert kern.count_extend(enc, k) == kern.count_extend(enc[:-1], k), \
                (kern.BACKEND, enc)
            assert kern.canonical_keys(enc) == kern.canonical_keys(enc[:-1]), (kern.BACKEND, enc)
    assert gen_c.canonical_keys(b"\7") == _gen_py.canonical_keys(b"\7") == (b"", b"")


def unpruned_walk_parents(kern, k):
    """Each parent that a walk for k which prunes nothing expands: the seeds
    of 1..k-1 empty gates and every partial child, with or without a
    key_min, as ``reference_extend`` finds them, with the parent's
    ``kern.extend``."""
    found = []
    stack = [bytes(2 * q) for q in range(1, k)]
    while stack:
        enc = stack.pop()
        found.append((enc, kern.extend(enc, k)))
        stack += [key for key, _ in reference_extend(kern, enc, k, full=False)]
    return found


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_count_extend_matches_extend_on_unpruned_parents(k):
    found = unpruned_walk_parents(_gen_py, k)
    assert len(found) == {2: 1, 3: 3, 4: 11, 5: 106}[k]
    for enc, (full, keys) in found:
        assert _gen_py.count_extend(enc, k) == (full, len(keys)), enc


def test_count_cache_matches_cold_counts(gen_c, monkeypatch):
    def counted(k, backend="python"):
        events = []
        return count_classes(k, backend=backend, progress=events.append), rounds(events)
    cold = {}
    for k in range(1, 7):
        topology._TOTALS.clear()
        cold[k] = counted(k)
    # one warm cache for every k, filled in ascending k and read again in
    # descending k, as one process may count for several k in either order
    topology._TOTALS.clear()
    for k in [*range(1, 7), *range(6, 0, -1)]:
        assert counted(k) == cold[k], k
    topology._TOTALS.clear()
    for k in [*range(6, 0, -1), *range(1, 7)]:
        assert counted(k) == cold[k], k
    steps = []
    for kern in (gen_c, _gen_py):
        step = kern.count_extend
        monkeypatch.setattr(kern, "count_extend", lambda enc, k, name=kern.BACKEND, step=step:
                            steps.append(name) or step(enc, k))
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    assert counted(5) == cold[5] and steps == []  # a warm count asks no kernel
    # one kernel's counts never answer for the other's
    assert counted(5, "c") == cold[5] and steps == ["c"] * 28
    topology._TOTALS.clear()
    assert counted(5) == cold[5] and steps[28:] == ["python"] * 28
    # one entry per kernel call: per shape among the walk's 96 parents, at k=5
    assert [(backend, k) for backend, _, k in topology._TOTALS] == [("python", 5)] * 28
    # 0, 1, 3, 8, 28 and 126 per kernel for k = 1..6
    topology._TOTALS.clear()
    for k in range(1, 7):
        for backend in ("python", "c"):
            counted(k, backend)
    assert len(steps) - 56 == len(topology._TOTALS) == 2 * 166


def test_settle_cache_matches_cold_settles(monkeypatch):
    def cold(enc, k):
        warm = _gen_py._SETTLED
        _gen_py._SETTLED = {}
        try:
            return _gen_py.extend(enc, k)
        finally:
            _gen_py._SETTLED = warm
    walks = {k: [enc for enc, _ in unpruned_walk_parents(_gen_py, k)] for k in range(2, 7)}
    # one warm cache for every k, filled in ascending k and read again in
    # descending k, as one process may run walks for several k in either order
    _gen_py._SETTLED.clear()
    for order in (sorted(walks), sorted(walks, reverse=True)):
        for k in order:
            for enc in walks[k]:
                # compared first, so that a failure prints no diff of the results
                same = _gen_py.extend(enc, k) == cold(enc, k)
                assert same, (k, enc)
    settles = []
    layers = _gen_py._Parent.layers
    monkeypatch.setattr(_gen_py._Parent, "layers",
                        lambda parent, width: settles.append(width) or layers(parent, width))
    _gen_py._SETTLED.clear()
    assert len(generate(5, backend="python").members) == 3282
    # one settle per walk parent, of its full children, and the settle
    # inputs among them
    assert len(settles) == 96 and len(_gen_py._SETTLED) == 28


def test_compiled_count_extend_matches_extend_on_unpruned_parents_at_k6(gen_c):
    found = unpruned_walk_parents(gen_c, 6)
    assert len(found) == 5224
    # the unpruned class count, summed from the full children
    assert sum(extended[0] for _, extended in found) + 1 == 1353064
    for enc, (full, keys) in found:
        assert gen_c.count_extend(enc, 6) == (full, len(keys)), enc


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_extend_keys_are_the_sorted_full_key_mins(request, k):
    kern = request.getfixturevalue("gen_c") if k == 6 else _gen_py
    for enc, (full, keys) in unpruned_walk_parents(kern, k):
        full_counted, full_min = kern.count_extend(enc, k)
        assert full == full_counted, enc
        assert len(keys) == full_min <= full, enc
        # distinct classes have distinct key_min encodings, each its own key_min
        assert keys == sorted(set(keys)), enc
        for key in keys:
            assert len(key) == 2 * k and kern.canonical_keys(key)[1] == key, (enc, key)


@pytest.mark.parametrize("k", range(6))
def test_count_classes_equals_generate_count(gen_c, monkeypatch, k):
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    for backend in ("c", "python"):
        assert count_classes(k, backend=backend) == generate(k, backend=backend).count


def reference_extend(kern, enc, k, full=True):
    """Every child's ``(key_any, key_min)``, sorted, by one full
    ``kern.canonical_keys`` search per child: of every width of new layer up
    to k gates, or of fewer when not ``full``, the partial children alone."""
    q = len(enc) // 2
    last = _gen_py.layer_masks(zip(enc[::2], enc[1::2]))[-1]
    sides = (1 << q) - 1
    cands = [bytes((left, right)) for left in range(1, sides + 1) if left & last
             for right in range(sides + 1) if not (right & last and right < left)
             and left & ~right and not (right and (right & ~left) == 0)]
    out = {}
    for width in range(1, k - q + full):
        for combo in combinations_with_replacement(cands, width):
            key_any, key_min = kern.canonical_keys(enc + b"".join(combo))
            out[key_any] = key_min
    return sorted(out.items())


def reference_results(children, k):
    """``extend``'s ``(full, keys)`` and ``count_extend``'s ``(full,
    full_min)`` from every child's ``(key_any, key_min)``, as
    ``reference_extend`` lists them."""
    full = [key_min for key_any, key_min in children if len(key_any) == 2 * k]
    keys = sorted(key for key in full if key is not None)
    return (len(full), keys), (len(full), len(keys))


def walk_parents(kern, k, full=True):
    """Each parent the class walk for k expands, with its reference children
    (``reference_extend``, the partial ones alone when not ``full``): the
    seeds of 1..k-1 empty gates and every partial child with a key_min."""
    found = []
    stack = [bytes(2 * q) for q in range(1, k)]
    while stack:
        enc = stack.pop()
        children = reference_extend(kern, enc, k, full)
        found.append((enc, children))
        stack += [key for key, key_min in children if key_min is not None and len(key) < 2 * k]
    return found


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_extend_matches_reference_on_walk_parents(k):
    found = walk_parents(_gen_py, k)
    assert len(found) == {2: 1, 3: 3, 4: 11, 5: 96}[k]
    for enc, children in found:
        extended, counted = reference_results(children, k)
        assert _gen_py.extend(enc, k) == extended, enc
        assert _gen_py.count_extend(enc, k) == counted, enc


def test_extend_matches_reference_on_raw_and_member_parents():
    parents = [t.encode() for q in (1, 2, 3) for t in enumerate_raw_topologies(q)
               if is_well_layered(t)]
    # members are key_min encodings, which need not be the least encoding
    parents += [m.encode() for q in (1, 2, 3, 4) for m in generate(q).members]
    for enc in parents:
        for k in range(len(enc) // 2, 6):
            extended, counted = reference_results(reference_extend(_gen_py, enc, k), k)
            assert _gen_py.extend(enc, k) == extended, (enc, k)
            assert _gen_py.count_extend(enc, k) == counted, (enc, k)


def test_one_gate_count_matches_the_settled_classes():
    parents = {enc for enc, _ in unpruned_walk_parents(_gen_py, 5)}
    parents |= {t.encode() for q in (1, 2, 3) for t in enumerate_raw_topologies(q)
                if is_well_layered(t)}
    parents |= {m.encode() for q in (1, 2, 3, 4) for m in generate(q).members}
    no_group = one_flag_row = 0
    for enc in sorted(parents):
        parent = _gen_py._Parent(_gen_py.read_topology(enc))
        full, keys = _gen_py.extend(enc, len(enc) // 2 + 1)
        full_min = len(keys)
        assert _gen_py.count_extend(enc, len(enc) // 2 + 1) == (full, full_min), enc
        no_group += not parent.groups and full_min == 0 < full
        flags = {_gen_py._rows(parent.sizes, index)[2]
                 for _, indices in parent.groups for index in indices}
        one_flag_row += len(flags) == 1
    assert no_group and one_flag_row


def listed_full_counts(parent, width):
    """``count_full``'s ``(full, full_min)`` by listing the classes, one
    combination of candidates each (``_representatives``): a class has a
    key_min when some table that leaves the parent fault-free leaves each of
    its candidates fault-free."""
    flags = [_gen_py._rows(parent.sizes, index)[2]
             for index in _gen_py._selected(count(), parent.free)]
    full = full_min = 0
    for combo in _gen_py._representatives(parent.auto_rows, width):
        combo = (combo,) if width == 1 else combo
        full += 1
        full_min += any(all(map(row.__getitem__, combo)) for row in flags)
    return full, full_min


def count_walk_shapes(k):
    """A representative per shape whose full children the count walk for k
    counts: the seeds of 1..k-1 empty gates and every partial child that
    ``child_shapes`` derives below them."""
    found = {}
    stack = [bytes(2 * q) for q in range(1, k)]
    while stack:
        enc = stack.pop()
        shape = _gen_py.parent_shape(enc)
        if shape not in found:
            found[shape] = enc
            stack += [enc + layers[:2 * width] for width in range(1, k - len(enc) // 2)
                      for _, layers in _gen_py.child_shapes(shape, width)[0]]
    return found


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, pytest.param(7, marks=long_tier)])
def test_orbit_counts_match_the_listed_classes(k):
    found = count_walk_shapes(k)
    assert len(found) == {2: 1, 3: 3, 4: 8, 5: 28, 6: 126, 7: 749}[k]
    wide = 0
    for shape, enc in found.items():
        parent = _gen_py._Parent(_gen_py.read_topology(enc))
        width = k - len(enc) // 2
        assert parent.shape == shape, enc
        assert parent.count_full(width) == listed_full_counts(parent, width), (enc, width)
        wide += width > 1 and len(parent.autos) > 1
    assert wide or k < 4  # some count is one of Burnside's over a group


def test_compiled_extend_matches_reference_at_k6(gen_c, monkeypatch):
    found = walk_parents(gen_c, 6)
    assert len(found) == 3378
    for enc, children in found:
        extended, counted = reference_results(children, 6)
        assert gen_c.extend(enc, 6) == extended, enc
        assert gen_c.count_extend(enc, 6) == counted, enc
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    assert count_classes(6, backend="c") == 506935


K7_ROUNDS = [(2, 4700, 458, 22), (3, 1970651, 16735, 9563), (4, 38364056, 112434, 79628),
             (5, 208824425, 233800, 181278), (6, 498627041, 146880, 118800),
             (7, 659901281, 0, 0)]


def rounds(events):
    """``(round, complete, partial, pruned)`` of each round event."""
    return [(e["round"], e["complete"], e["partial"], e["pruned"])
            for e in events if e["phase"] == "round"]


def test_compiled_count_classes_k7(gen_c, monkeypatch):
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    topology._TOTALS.clear()  # so that the kernel counts each shape here
    steps = []
    count_extend = gen_c.count_extend
    monkeypatch.setattr(gen_c, "count_extend",
                        lambda enc, k: steps.append(enc) or count_extend(enc, k))
    events = []
    assert count_classes(7, backend="c", progress=events.append) == 312463157
    assert rounds(events) == K7_ROUNDS
    assert len(steps) == len(set(steps)) == 749  # one per shape, of 510,313 walk parents
    assert len(topology._TOTALS) == 749  # one entry per kernel call


@pytest.mark.parametrize("k", range(1, 7))
def test_count_walk_memo_keeps_the_rounds_of_generate(monkeypatch, k):
    # generate walks every parent with extend and keeps no subtree totals
    topology._TOTALS.clear()  # so that the kernel counts each shape here
    walked = []
    count_extend = _gen_py.count_extend
    monkeypatch.setattr(_gen_py, "count_extend",
                        lambda enc, k: walked.append(enc) or count_extend(enc, k))
    counted, generated = [], []
    assert count_classes(k, backend="python", progress=counted.append) \
        == generate(k, backend="python", progress=generated.append).count
    assert rounds(counted) == rounds(generated)
    # the kernel counts once per parent shape, against 96 and 3,378 walk parents
    assert len(walked) == {1: 0, 2: 1, 3: 3, 4: 8, 5: 28, 6: 126}[k]
    assert len(set(map(_gen_py.parent_shape, walked))) == len(walked)


# ``prove --n 7 --k 5 -v``'s stderr
K5_VERBOSE = [f"[walk k=5] subtree {i}/19" for i in range(1, 20)] + [
    "[walk k=5] depth 2: 62 complete, 19 partial, 0 pruned",
    "[walk k=5] depth 3: 827 complete, 43 partial, 4 pruned",
    "[walk k=5] depth 4: 2998 complete, 30 partial, 6 pruned",
    "[walk k=5] depth 5: 4618 complete, 0 partial, 0 pruned",
]


def test_prove_verbose_is_the_same_cold_and_warm_and_takes_no_workers(gen_c, capsys,
                                                                        monkeypatch):
    for kern in (_gen_py, gen_c):
        monkeypatch.setattr(kernel, "_active", kern)  # the kernel that prove counts with
        steps = []
        monkeypatch.setattr(kern, "count_extend", lambda enc, k, step=kern.count_extend:
                            steps.append(enc) or step(enc, k))
        topology._TOTALS.clear()
        for asked in (28, 0):  # cold, then warm: one kernel call per shape, then none
            assert main(["prove", "--n", "7", "--k", "5", "-v"]) == 0
            out, err = capsys.readouterr()
            assert "topology_classes = 3282" in out.splitlines()
            assert err.splitlines() == K5_VERBOSE, kern.BACKEND
            assert len(steps) == asked, kern.BACKEND
            steps.clear()
    # the count hands out no subtrees, so it takes no workers
    with pytest.raises(TypeError):
        count_classes(5, workers=1)
    for argv in (["prove", "--n", "7", "--k", "5"], ["table2", "--max-k", "5"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


def check_child_shapes(kern, k):
    """``child_shapes`` against every walk parent's partial children for k,
    as ``reference_extend`` finds them with ``kern.canonical_keys``: for
    each width, the parent followed by each layer of each kept shape is the
    key_any of exactly one class that has a key_min, of that shape, and
    ``pruned`` counts the classes that have none.  Returns the number of
    walk parents."""
    found = walk_parents(kern, k, full=False)
    for enc, partials in found:
        shape = _gen_py.parent_shape(enc)
        assert shape[1][0] == 0, enc  # a walk parent is its own least encoding
        for width in range(1, k - len(enc) // 2):
            size = 2 * width
            children = [(key, key_min) for key, key_min in partials
                        if len(key) == len(enc) + size]
            kept, pruned = _gen_py.child_shapes(shape, width)
            listed = []
            for child, layers in kept:
                assert layers and len(layers) % size == 0, (enc, width)
                reps = [enc + layers[at:at + size] for at in range(0, len(layers), size)]
                assert {_gen_py.parent_shape(rep) for rep in reps} == {child}, (enc, width)
                listed += reps
            assert len(kept) == len({child for child, _ in kept}), (enc, width)
            assert sorted(listed) == [key for key, key_min in children if key_min is not None], \
                (enc, width)
            assert pruned == countOf((key_min for _, key_min in children), None), (enc, width)
    return len(found)


def test_child_shapes_match_the_relabeled_children():
    _gen_py._CHILDREN.clear()
    assert [check_child_shapes(_gen_py, k) for k in range(2, 6)] == [1, 3, 11, 96]
    _gen_py._CHILDREN.clear()
    topology._TOTALS.clear()  # cached totals would spare the count its child shapes
    assert count_classes(5, backend="python") == 3282
    assert len(_gen_py._CHILDREN) == 12  # parent shapes and widths of the count walk


def test_compiled_child_shapes_match_the_relabeled_children_at_k6(gen_c):
    assert check_child_shapes(gen_c, 6) == 3378


def test_generate_extends_each_walk_parent_once_at_its_least_encoding(gen_c, monkeypatch):
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    counted = []
    assert count_classes(5, backend="python", progress=counted.append) == 3282
    for kern in (_gen_py, gen_c):
        reps = []
        monkeypatch.setattr(kern, "extend", lambda rep, k, step=kern.extend:
                            reps.append(rep) or step(rep, k))
        events = []
        assert generate(5, backend=kern.BACKEND, progress=events.append).count == 3282
        # one call per walk parent, each at its key_any, as child_shapes needs
        assert len(reps) == len(set(reps)) == 96, kern.BACKEND
        assert all(kern.canonical_keys(rep)[0] == rep for rep in reps), kern.BACKEND
        assert events == counted, kern.BACKEND


def test_backend_selection():
    assert kernel.BACKEND in ("c", "python")
    assert kernel.get_backend("python").BACKEND == "python"
    with pytest.raises(ValueError):
        kernel.get_backend("weird")


def reference_relabelings(pairs, sizes):
    """By brute force, per within-layer gate order, in the product order of
    the layers' permutations: the encoding of the gates with each mask
    relabeled bit by bit and sides put smaller first (that orientation gives
    the least bytes, and ``gate_fault`` is the same either way), and whether
    every relabeled gate is fault-free."""
    layer_orders = []
    start = 0
    for size in sizes:
        layer_orders.append(permutations(range(start, start + size)))
        start += size
    relabeled = []
    for combo in product(*layer_orders):
        pi = [target for order in combo for target in order]
        out = [None] * len(pairs)
        for i, sides in enumerate(pairs):
            out[pi[i]] = sorted(sum(1 << pi[j] for j in range(len(pairs)) if m >> j & 1)
                                for m in sides)
        minimal = all(gate_fault(a, b) is None for a, b in out)
        relabeled.append((bytes(v for pair in out for v in pair), minimal))
    return relabeled


def reference_keys(pairs, sizes):
    """``canonical_keys`` by brute force (``reference_relabelings``)."""
    keys = reference_relabelings(pairs, sizes)
    return min(key for key, _ in keys), min((key for key, ok in keys if ok), default=None)


def test_parent_shapes_match_reference():
    for enc, _ in unpruned_walk_parents(_gen_py, 5):
        t = Topology.from_encoding(enc)
        relabeled = reference_relabelings(t.gates, layering(t).sizes)
        key = min(encoding for encoding, _ in relabeled)
        autos = [index for index, (encoding, _) in enumerate(relabeled) if encoding == key]
        groups = {}
        for index, (encoding, minimal) in enumerate(relabeled):
            if minimal:
                groups.setdefault(encoding, []).append(index)
        free = sum(minimal << index for index, (_, minimal) in enumerate(relabeled))
        parent = _gen_py._Parent(_gen_py.read_topology(enc))
        encodings = [encoding.to_bytes(len(enc), "big") for encoding in parent.encodings]
        assert (parent.sizes, encodings, parent.autos, parent.groups, parent.free) \
            == (layering(t).sizes, [encoding for encoding, _ in relabeled], autos,
                sorted(groups.items()), free), enc
        assert _gen_py.parent_shape(enc) == parent.shape == (parent.sizes, tuple(autos), free)


def well_layered_k5_sample(count, seed=5):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        t = Topology(5, tuple((rng.randrange(1 << i), rng.randrange(1 << i)) for i in range(5)))
        if is_well_layered(t):
            found.append(t)
    return found


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_canonical_keys_match_reference(k):
    if k < 5:
        cases = [t for t in enumerate_raw_topologies(k) if is_well_layered(t)]
    else:
        cases = well_layered_k5_sample(2000)
    for t in cases:
        assert _gen_py.canonical_keys(t.encode()) == reference_keys(t.gates, layering(t).sizes), t


def test_canonical_keys_rejects_bad_input():
    tables = dict(_gen_py._TABLES)
    for enc, message in ((bytes(16), "kernel supports at most 7 gates, got 8"),
                         (b"\0\0\0\2", "gate 2 references a gate numbered 2 or later"),
                         (b"\0\0\4\0\0\0", "gate 2 references a gate numbered 2 or later")):
        with pytest.raises(ValueError) as err:
            _gen_py.canonical_keys(enc)
        assert str(err.value) == message
    assert _gen_py._TABLES == tables  # no table is built for a rejected encoding


@pytest.mark.parametrize("name", ["c", "python"])
def test_canonical_form_refuses_more_gates_than_the_kernel(request, monkeypatch, name):
    monkeypatch.setattr(kernel, "_active", request.getfixturevalue("gen_c") if name == "c"
                        else _gen_py)
    for k in (8, 10):  # the sides of gate 10 do not fit in an encoding's bytes
        chain = Topology(k, ((0, 0),) + tuple((1 << i, 0) for i in range(k - 1)))
        assert is_well_layered(chain)
        with pytest.raises(ValueError) as err:
            canonical_form(chain)
        assert str(err.value) == f"kernel supports at most 7 gates, got {k}"


def test_relabel_tables_are_bounded_by_compositions():
    _gen_py._TABLES.clear()
    generate(5, backend="python")
    assert _gen_py._TABLES
    for sizes in _gen_py._TABLES:
        assert min(sizes) >= 1 and sum(sizes) <= 5


def test_candidate_lists_are_cached_tuples_and_bounded():
    _gen_py._candidates.cache_clear()
    # cached rows, counts or child shapes would spare the walk its candidate lists
    for cache in (_gen_py._ROWS, topology._TOTALS, _gen_py._CHILDREN):
        cache.clear()
    count_classes(5, backend="python")
    # one entry per (q, last layer) met, q <= 4 at k=5
    assert 0 < _gen_py._candidates.cache_info().currsize <= 30
    lefts, rights = _gen_py._candidates(3, 4)
    assert type(lefts) is type(rights) is tuple
    assert all(left & 4 for left in lefts)
    # each unordered pair of sides that touches the last layer, neither nested, once
    assert sorted(map(sorted, zip(lefts, rights))) == [
        [a, b] for a in range(8) for b in range(a + 1, 8)
        if (a | b) & 4 and gate_fault(a, b) in (None, "shared")]


def test_candidate_rows_are_cached_images_of_their_tables():
    _gen_py._ROWS.clear()
    _gen_py._SETTLED.clear()  # cached settles would spare the walk its rows
    generate(5, backend="python")
    assert _gen_py._ROWS
    for (sizes, index), (row, free, flags) in _gen_py._ROWS.items():
        q = sum(sizes)
        lefts, rights = _gen_py._candidates(q, (1 << q) - (1 << (q - sizes[-1])))
        assert row.typecode == free.typecode == "H"
        assert list(row) == _gen_py._images(_gen_py._TABLES[sizes][index][1], lefts, rights)
        assert list(free) == [code if gate_fault(code >> 8, code & 0xFF) is None
                              else _gen_py._FAULT for code in row]
        assert type(flags) is bytes
        assert list(flags) == [code != _gen_py._FAULT for code in free]


def test_candidate_rows_are_bounded_by_tables():
    # cached counts or child shapes would spare the walk its rows
    for cache in (_gen_py._ROWS, topology._TOTALS, _gen_py._CHILDREN):
        cache.clear()
    count_classes(5, backend="python")
    assert _gen_py._ROWS
    for sizes, index in _gen_py._ROWS:
        assert min(sizes) >= 1 and sum(sizes) <= 4  # parents of at most 4 gates at k=5
        assert 0 <= index < len(_gen_py._TABLES[sizes])


def test_candidate_rows_are_built_only_for_the_tables_a_parent_uses():
    fewer = 0
    for enc, _ in unpruned_walk_parents(_gen_py, 5):
        gates = _gen_py.read_topology(enc)
        parent = _gen_py._Parent(gates)
        used = {(parent.sizes, index)
                for index in parent.autos + [i for _, group in parent.groups for i in group]}
        for run in (_gen_py.count_extend, _gen_py.extend):
            _gen_py._ROWS.clear()
            run(enc, 5)
            assert set(_gen_py._ROWS) <= used, enc
        fewer += len(used) < len(_gen_py._TABLES[parent.sizes])
    assert fewer  # some parent uses only some of its tables, so no table list is built whole


def test_one_minimality_predicate():
    assert gate_fault is _gen_py.gate_fault  # as topology re-exports it
