"""The pure-Python kernel against a brute-force reference, and the compiled
kernel against the pure-Python one, byte for byte."""

import importlib.util
import random
import shlex
import subprocess
import sysconfig
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest

from mcbound import _gen_py, kernel
from mcbound.oracle import enumerate_raw_topologies
from mcbound.topology import (Topology, count_classes, gate_fault, generate, is_well_layered,
                              layering)


@pytest.fixture(scope="session")
def gen_c(tmp_path_factory):
    """The compiled kernel, built from ``_gen_c.c`` next to ``_gen_py.py``
    into a temporary directory, so no built module lands beside the sources
    and changes which kernel ``mcbound.kernel`` picks."""
    source = Path(_gen_py.__file__).with_name("_gen_c.c")
    target = tmp_path_factory.mktemp("kernel") / ("_gen_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-O3", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
        str(source), "-o", str(target)]
    try:
        subprocess.run(command, check=True, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"cannot compile the C kernel: {exc}")
    spec = importlib.util.spec_from_file_location("mcbound._gen_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k", [2, 3, 4])
def test_canonical_keys_parity(gen_c, k):
    for t in enumerate_raw_topologies(k):
        if not is_well_layered(t):
            continue
        sizes = layering(t).sizes
        assert gen_c.canonical_keys(t.gates, sizes) == _gen_py.canonical_keys(t.gates, sizes)


def test_extend_parity(gen_c):
    parents = [m.encode() for m in generate(3).members]
    parents += [m.encode() for m in generate(2).members]
    for enc in parents:
        assert gen_c.extend(enc, 5) == _gen_py.extend(enc, 5)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_extend_parity_on_k7_seeds(gen_c, q):
    # q = 6 leaves room for one new gate only, under 720 automorphisms
    enc = bytes(2 * q)
    assert _gen_py.extend(enc, 7) == gen_c.extend(enc, 7)


def test_extend_parity_on_one_gate_parents_at_k6(gen_c):
    parents = []
    stack = [bytes(2 * q) for q in range(1, 6)]
    while stack:
        enc = stack.pop()
        if len(enc) == 10:
            parents.append(enc)
        else:
            stack += [key for key, key_min in gen_c.extend(enc, 6) if key_min is not None]
    assert len(parents) == 3282
    for enc in random.Random(6).sample(parents, 300):
        assert _gen_py.extend(enc, 6) == gen_c.extend(enc, 6), enc


@pytest.mark.parametrize("k", [3, 4, 5])
def test_generate_parity(gen_c, monkeypatch, k):
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    assert generate(k, workers=1, backend="c").members == generate(k, backend="python").members


GUARD_CASES = [
    ("extend", (b"", 3)),
    ("extend", (b"\0\0", 8)),
    ("extend", (b"\1\0", 3)),  # gate 1 references itself
    ("extend", (b"\0\0\0\2\0\0", 5)),  # gate 2 references itself
    ("extend", (b"\0\0\4\0\0\0", 5)),  # gate 2 references gate 3
    ("canonical_keys", (((0, 0),) * 9, [9])),
    ("canonical_keys", (((0, 0), (-1, 1)), (2,))),
    ("canonical_keys", (((0, 0), (4, 1)), (2,))),
    ("canonical_keys", (((0, 0), (1, 2 ** 80)), (2,))),
    ("canonical_keys", (((0, 0), (0, 0)), (3, -1))),
    ("canonical_keys", (((0, 0),), (2,))),
]


def test_kernel_guards_match(gen_c):
    for name, args in GUARD_CASES:
        messages = []
        for mod in (gen_c, _gen_py):
            with pytest.raises(ValueError) as err:
                getattr(mod, name)(*args)
            messages.append(str(err.value))
        assert messages[0] == messages[1], (name, args)
    assert gen_c.canonical_keys((), ()) == _gen_py.canonical_keys((), ()) == (b"", b"")
    # a parent of k gates has no children, so no candidate gates are built
    # (seven gates would give more than 4,096 of them)
    assert gen_c.extend(bytes(14), 7) == _gen_py.extend(bytes(14), 7) == []


def reference_extend(kern, enc, k):
    """``extend`` by one full ``kern.canonical_keys`` search per child."""
    pairs = [(enc[i], enc[i + 1]) for i in range(0, len(enc), 2)]
    layers = _gen_py.layer_masks(pairs)
    full = (1 << len(pairs)) - 1
    cands = [(left, right) for left in range(1, full + 1) if left & layers[-1]
             for right in range(full + 1) if not (right & layers[-1] and right < left)
             and left & ~right and not (right and (right & ~left) == 0)]
    out = {}
    for width in range(1, k - len(pairs) + 1):
        sizes = [m.bit_count() for m in layers] + [width]
        for combo in combinations_with_replacement(cands, width):
            key_any, key_min = kern.canonical_keys(pairs + list(combo), sizes)
            out[key_any] = key_min
    return sorted(out.items())


def walk_parents(kern, k):
    """Each parent the class walk for k expands, with its reference children:
    the seeds of 1..k-1 empty gates and every partial child with a key_min."""
    found = []
    stack = [bytes(2 * q) for q in range(1, k)]
    while stack:
        enc = stack.pop()
        children = reference_extend(kern, enc, k)
        found.append((enc, children))
        stack += [key for key, key_min in children if key_min is not None and len(key) < 2 * k]
    return found


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_extend_matches_reference_on_walk_parents(k):
    found = walk_parents(_gen_py, k)
    assert len(found) == {2: 1, 3: 3, 4: 11, 5: 96}[k]
    for enc, children in found:
        assert _gen_py.extend(enc, k) == children, enc


def test_extend_matches_reference_on_raw_and_member_parents():
    parents = [t.encode() for q in (1, 2, 3) for t in enumerate_raw_topologies(q)
               if is_well_layered(t)]
    # members are key_min encodings, which need not be the least encoding
    parents += [m.encode() for q in (1, 2, 3, 4) for m in generate(q).members]
    for enc in parents:
        for k in range(len(enc) // 2, 6):
            assert _gen_py.extend(enc, k) == reference_extend(_gen_py, enc, k), (enc, k)


def test_compiled_extend_matches_reference_at_k6(gen_c, monkeypatch):
    found = walk_parents(gen_c, 6)
    assert len(found) == 3378
    for enc, children in found:
        assert gen_c.extend(enc, 6) == children, enc
    monkeypatch.setattr(kernel, "_gen_c", gen_c)
    assert count_classes(6, backend="c") == 506935


def test_backend_selection():
    assert kernel.BACKEND in ("c", "python")
    assert kernel.get_backend("python").BACKEND == "python"
    with pytest.raises(ValueError):
        kernel.get_backend("weird")


def reference_keys(pairs, sizes):
    """``canonical_keys`` by brute force: every within-layer gate order, each
    mask relabeled bit by bit, sides put smaller first (that orientation
    gives the least bytes, and ``gate_fault`` is the same either way)."""
    layer_orders = []
    start = 0
    for size in sizes:
        layer_orders.append(permutations(range(start, start + size)))
        start += size
    keys = []
    for combo in product(*layer_orders):
        pi = [target for order in combo for target in order]
        out = [None] * len(pairs)
        for i, sides in enumerate(pairs):
            out[pi[i]] = sorted(sum(1 << pi[j] for j in range(len(pairs)) if m >> j & 1)
                                for m in sides)
        minimal = all(gate_fault(a, b) is None for a, b in out)
        keys.append((bytes(v for pair in out for v in pair), minimal))
    return min(key for key, _ in keys), min((key for key, ok in keys if ok), default=None)


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
        sizes = layering(t).sizes
        assert _gen_py.canonical_keys(t.gates, sizes) == reference_keys(t.gates, sizes), t


def test_canonical_keys_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 1"):
        _gen_py.canonical_keys(((0, 0), (0, 0)), (3, -1))
    assert (3, -1) not in _gen_py._TABLES
    with pytest.raises(ValueError, match="below 4"):
        _gen_py.canonical_keys(((0, 0), (4, 1)), (2,))
    with pytest.raises(ValueError, match="negative"):
        _gen_py.canonical_keys(((0, 0), (-1, 1)), (2,))


def test_relabel_tables_are_bounded_by_compositions():
    _gen_py._TABLES.clear()
    generate(5, backend="python")
    assert _gen_py._TABLES
    for sizes in _gen_py._TABLES:
        assert min(sizes) >= 1 and sum(sizes) <= 5


def test_candidate_lists_are_cached_tuples_and_bounded():
    _gen_py._candidates.cache_clear()
    count_classes(5, backend="python")
    # one entry per (q, last layer) met, q <= 4 at k=5
    assert 0 < _gen_py._candidates.cache_info().currsize <= 30
    cands, lefts, rights = _gen_py._candidates(3, 4)
    assert type(cands) is type(lefts) is type(rights) is tuple
    assert lefts == tuple(left for left, _ in cands)
    assert rights == tuple(right for _, right in cands)


def test_one_minimality_predicate():
    assert gate_fault is _gen_py.gate_fault  # as topology re-exports it
