import gc
import hashlib
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcbound import kernel, topology
from mcbound.circuits import (Circuit, g, normalize_circuit_layering, parse_circuit,
                              parse_truth_table, topology_of)
from mcbound.errors import CapacityError, CircuitError, ContractError, ParseError
from mcbound.oracle import literal_equivalent
from mcbound.topology import (Topology, TopologySet, canonical_form, count_classes,
                              format_topology, format_topology_set, gate_fault, generate,
                              is_minimal, is_well_layered, layering, load_topology_set,
                              mask_indices, parse_topology, parse_topology_set,
                              save_topology_set, well_layer_move)

from conftest import mutated

MAJ4_TOPOLOGY = Topology(4, ((0, 0), (0, 0), (0, 2), (1, 2)))
# the same wiring listed in a different gate order; not well-layered
REORDERED_MAJ4 = Topology(4, ((0, 0), (0, 1), (0, 0), (4, 1)))


def all_raw(k):
    from mcbound.oracle import enumerate_raw_topologies
    return list(enumerate_raw_topologies(k))


def gate_circuit(t):
    """A circuit whose gate sides are exactly the topology's gate references."""
    def side(mask):
        return frozenset(g(i) for i in mask_indices(mask))
    return Circuit(1, tuple((side(l), side(r)) for l, r in t.gates), frozenset())


def well_layer_normalize(t):
    """The topology of the layering rewrite of t's gate circuit."""
    return topology_of(normalize_circuit_layering(gate_circuit(t)))


def min_key(t):
    """The kernel's least minimal relabeling of a well-layered topology."""
    return kernel.get_backend().canonical_keys(t.gates, layering(t).sizes)[1]


# --- type invariants ----------------------------------------------------------

def test_topology_validation():
    with pytest.raises(CircuitError):
        Topology(2, ((0, 0),))
    with pytest.raises(CircuitError):
        Topology(2, ((0, 0), (2, 0)))  # gate 2 referencing itself
    with pytest.raises(CircuitError):
        Topology(1, ((1, 0),))


@pytest.mark.parametrize("k, gates", [(2.0, ((0, 0),) * 2), (True, ((0, 0),))])
def test_topology_rejects_k_that_is_not_an_int(k, gates):
    with pytest.raises(CircuitError, match="k must be an int"):
        Topology(k, gates)
    with pytest.raises(CircuitError, match="k must be an int"):
        TopologySet(k, (Topology(len(gates), gates),))


def test_topology_normalizes_gates():
    t = Topology(2, [[0, 0], [True, 0]])
    assert t == Topology(2, ((0, 0), (1, 0)))
    assert hash(t) == hash(Topology(2, ((0, 0), (1, 0))))
    assert t.gates == ((0, 0), (1, 0))
    assert all(type(side) is int for gate in t.gates for side in gate)
    with pytest.raises(CircuitError):
        Topology(2, ((0, 0), (-1, 0)))
    with pytest.raises(CircuitError):
        Topology(3, ((0, 0), (0, 0), (0, 4)))


@pytest.mark.parametrize("side", [1.5, -0.5, 1 + 1j, "0", "1", None, math.nan, math.inf])
def test_topology_rejects_sides_that_are_not_ints(side):
    with pytest.raises(CircuitError, match="gate 2 is not a pair of integer sides"):
        Topology(2, ((0, 0), (side, 0)))
    with pytest.raises(CircuitError, match="gate 9 is not a pair of integer sides"):
        Topology(9, ((0, 0),) * 8 + ((side, 0),))


def test_topology_stores_sides_equal_to_ints_as_ints():
    for side in (True, 1.0, 1 + 0j):
        for k in (2, 9):
            t = Topology(k, ((0, 0),) * (k - 1) + ((0, side),))
            assert t.gates[-1] == (0, 1) and type(t.gates[-1][1]) is int


# Sides of every kind a caller may pass; only those equal to an int are valid.
mixed_sides = st.one_of(st.integers(-1, 8), st.booleans(),
                        st.sampled_from([0.0, 1.0, 2.0, 1.5, math.nan, 1 + 0j, 1 + 1j,
                                         "0", "1", None]))
mixed_gates = st.lists(st.tuples(mixed_sides, mixed_sides).flatmap(
    lambda pair: st.sampled_from([pair, list(pair)])), max_size=4)


@given(st.integers(0, 4), mixed_gates)
@example(2, [(0, 0), (True, 0.0)])
@example(2, [(0, 0), ("1", 0)])
@settings(max_examples=300)
def test_topology_table_path_agrees_with_checked_path(k, gates):
    def outcome(make):
        try:
            return make()
        except CircuitError as exc:
            return str(exc)
    expected = outcome(lambda: topology._checked_gates(k, gates))
    got = outcome(lambda: Topology(k, gates).gates)
    assert got == expected
    if not isinstance(got, str):
        assert all(type(side) is int for gate in got for side in gate)


def test_encoding_roundtrip():
    t = MAJ4_TOPOLOGY
    assert Topology.from_encoding(t.encode()) == t
    wide = Topology(9, ((0, 0),) * 8 + ((255, 1),))
    assert Topology.from_encoding(wide.encode()) == wide


@pytest.mark.parametrize("data, message", [
    (b"\x00\x00\x00", "even length, not 3"),
    (b"\x00", "even length, not 1"),
    (b"\x01\x00", "gate 1 may only reference"),
    (b"\x00\x00\x40\x00", "gate 2 may only reference"),
])
def test_from_encoding_rejects_bad_encodings(data, message):
    with pytest.raises(CircuitError, match=message):
        Topology.from_encoding(data)


def test_mask_helpers():
    assert mask_indices(0b1011) == (1, 2, 4)
    assert mask_indices(0) == ()


# --- layering -------------------------------------------------------------

def test_layering_majority():
    assert layering(MAJ4_TOPOLOGY).layers == (0b0011, 0b1100)
    assert layering(MAJ4_TOPOLOGY).sizes == (2, 2)


def test_layering_reordered():
    assert layering(REORDERED_MAJ4).layers == (0b0001, 0b0110, 0b1000)


def test_layering_independent_gates():
    t = Topology(4, ((0, 0),) * 4)
    assert layering(t).layers == (0b1111,)


def test_layering_maximality():
    # the gate that opens each layer is blocked by the previous one
    for t in all_raw(4):
        lay = layering(t).layers
        for prev, cur in zip(lay, lay[1:]):
            opener = cur & -cur
            left, right = t.gates[opener.bit_length() - 1]
            assert (left | right) & prev


# --- well-layering ----------------------------------------------------------

def test_is_well_layered_examples():
    assert is_well_layered(MAJ4_TOPOLOGY)
    assert not is_well_layered(REORDERED_MAJ4)
    assert is_well_layered(Topology(1, ((0, 0),)))
    # gate 3 uses no gate: it moves to the front
    assert well_layer_move(REORDERED_MAJ4.gates) == (3, [0, 2, 3, 1, 4], False)
    # gate 4 sits in layer 3 but uses only gate 1, on its right: it moves
    # to just after gate 1 and its sides swap
    t = Topology(4, ((0, 0), (0, 1), (0, 2), (0, 1)))
    assert well_layer_move(t.gates) == (4, [0, 1, 3, 4, 2], True)


def test_well_layer_normalize_reordered():
    norm = well_layer_normalize(REORDERED_MAJ4)
    assert is_well_layered(norm)
    assert literal_equivalent(norm, REORDERED_MAJ4)
    assert literal_equivalent(norm, MAJ4_TOPOLOGY)


def test_well_layer_normalize_no_op():
    c = gate_circuit(MAJ4_TOPOLOGY)
    assert normalize_circuit_layering(c) is c


@pytest.mark.parametrize("k", [2, 3, 4])
def test_well_layer_normalize_exhaustive(k):
    for t in all_raw(k):
        norm = well_layer_normalize(t)
        assert is_well_layered(norm)
        assert literal_equivalent(norm, t)


def test_well_layer_normalize_sampled_k5():
    rng = random.Random(23)
    for _ in range(200):
        gates = tuple((rng.randrange(1 << i), rng.randrange(1 << i)) for i in range(5))
        t = Topology(5, gates)
        norm = well_layer_normalize(t)
        assert is_well_layered(norm)
        assert literal_equivalent(norm, t)


def test_equivalent_relation_on_related_k5_triples():
    # random topologies and their layering rewrites must stay in one class
    rng = random.Random(9)
    for _ in range(40):
        gates = tuple((rng.randrange(1 << i), rng.randrange(1 << i)) for i in range(5))
        a = Topology(5, gates)
        b = well_layer_normalize(a)
        c = well_layer_normalize(b)
        assert literal_equivalent(a, b) and literal_equivalent(b, c) \
            and literal_equivalent(a, c)


# --- minimality -----------------------------------------------------------

def test_is_minimal_examples():
    assert is_minimal(MAJ4_TOPOLOGY)
    assert not is_minimal(Topology(3, ((0, 0), (0, 0), (1, 3))))  # {1} inside {1,2}
    # shared {3} must be below both {2} and {1} in mask order; 4 > 2
    assert not is_minimal(Topology(4, ((0, 0), (0, 0), (0, 0), (6, 5))))


@pytest.mark.parametrize("left,right,fault", [
    (0, 0, None),
    (1, 2, None),               # gate 4 of the majority topology
    (5, 3, None),               # shared {1} below both {3} and {2}
    (1, 3, "left-nested"),      # {1} inside {1,2}
    (3, 1, "right-nested"),
    (6, 5, "shared"),           # shared {3} above the remainder {2}
])
def test_gate_fault(left, right, fault):
    assert gate_fault(left, right) == fault
    assert is_minimal(Topology(4, ((0, 0), (0, 0), (0, 0), (left, right)))) == (fault is None)


# --- canonical forms ---------------------------------------------------------

def test_canonical_form_idempotent():
    for t in all_raw(3):
        if is_well_layered(t):
            c = canonical_form(t)
            assert canonical_form(c) == c


def test_canonical_form_fixes_independent_gates():
    t = Topology(3, ((0, 0),) * 3)
    assert canonical_form(t) == t


def test_canonical_form_requires_well_layered():
    with pytest.raises(ContractError):
        canonical_form(REORDERED_MAJ4)


@pytest.mark.parametrize("k", [2, 3])
def test_canonical_form_matches_equivalence(k):
    wl = [t for t in all_raw(k) if is_well_layered(t)]
    by_key = {}
    for t in wl:
        by_key.setdefault(canonical_form(t).encode(), []).append(t)
    keys = list(by_key)
    for members in by_key.values():
        for m in members[1:]:
            assert literal_equivalent(members[0], m)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not literal_equivalent(by_key[keys[i]][0], by_key[keys[j]][0])


def test_representative_form_is_minimal_when_possible():
    # the kernel's key_min, found through gate_fault, is a minimal member
    for t in all_raw(4):
        if not (is_well_layered(t) and is_minimal(t)):
            continue
        key = min_key(t)
        assert key is not None
        rep = Topology.from_encoding(key)
        assert is_minimal(rep)
        assert literal_equivalent(rep, t)


# --- generation ---------------------------------------------------------------

def test_generate_counts_match_definitional_quotient():
    # exact class counts of well-layered minimal topologies; cross-checked
    # against brute-force classing in the oracle tests and acceptance suite
    assert [generate(k).count for k in range(5)] == [0, 1, 2, 8, 85]


def test_generate_members_are_valid():
    for k in (1, 2, 3, 4):
        ts = generate(k)
        assert ts.k == k
        for m in ts.members:
            assert m.k == k
            assert is_well_layered(m)
            assert is_minimal(m)
            assert min_key(m) == m.encode()
        for i in range(ts.count):
            for j in range(i + 1, ts.count):
                assert not literal_equivalent(ts.members[i], ts.members[j])


def test_generate_deterministic_across_runs_and_workers():
    base = generate(5, workers=1)
    assert generate(5, workers=1).members == base.members
    assert generate(5, workers=2).members == base.members


# sha256 of the concatenated member encodings, in member order
MEMBER_DIGESTS = {
    4: "4a4549074a516df93598c1a5e9426513aa86fc787a1f83112743c88c1dc07382",
    5: "acba33e1c4e9d6d1410450553e6fc50695ef34b344d544639003a887a1313ada",
    6: "bf2de176bf4b15288877979af84b009440f00d4b63f362ed021e5539ab6d5f29",
}
long_tier = pytest.mark.skipif(
    not (kernel.BACKEND == "c" or os.environ.get("MCBOUND_LONG")),
    reason="k=6 needs the compiled kernel or MCBOUND_LONG=1")


@pytest.mark.parametrize("k", [4, 5, pytest.param(6, marks=long_tier)])
def test_generate_member_digests(k):
    members = generate(k).members
    assert hashlib.sha256(b"".join(m.encode() for m in members)).hexdigest() == MEMBER_DIGESTS[k]


def test_count_classes_matches_generate():
    for k in range(6):
        assert count_classes(k) == generate(k).count
    with pytest.raises(CapacityError):
        count_classes(8)
    with pytest.raises(ValueError):
        count_classes(-1)


def test_count_classes_leaves_no_cyclic_garbage():
    count_classes(5)  # the kernel's tables are built once, on first use
    gc.collect()
    gc.disable()
    try:
        count_classes(5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_worker_count_rejects_non_positive():
    with pytest.raises(ValueError):
        generate(3, workers=0)


def test_generate_caps():
    assert generate(0).count == 0
    with pytest.raises(CapacityError):
        generate(8)
    with pytest.raises(ValueError):
        generate(-1)


# --- text formats ----------------------------------------------------------

def test_topology_text_roundtrip():
    text = format_topology(MAJ4_TOPOLOGY)
    assert text.splitlines()[0] == "topology k=4"
    assert "gate 4: L={1} R={2}" in text
    assert parse_topology(text) == MAJ4_TOPOLOGY


def test_parse_topology_errors():
    with pytest.raises(ParseError):
        parse_topology("topology k=1\ngate 1: L={1} R={}")
    with pytest.raises(ParseError):
        parse_topology("topology k=2\ngate 1: L={} R={}")
    with pytest.raises(ParseError):
        parse_topology("gate 1: L={} R={}")


def test_topology_set_roundtrip(tmp_path):
    ts = generate(3)
    text = format_topology_set(ts)
    assert text.startswith("topologyset k=3 count=8")
    assert parse_topology_set(text) == ts
    path = tmp_path / "t3.txt"
    save_topology_set(ts, path)
    assert load_topology_set(path) == ts


def test_parse_topology_set_errors():
    with pytest.raises(ParseError):
        parse_topology_set("topologyset k=2 count=3\n\ntopology k=2\ngate 1: L={} R={}\ngate 2: L={} R={}\n")
    with pytest.raises(ParseError):
        parse_topology_set("not a header\n")


# sha256 of format_topology_set(generate(5)): pins the file format byte for byte
FORMAT_DIGEST_K5 = "70b8c948fae4873e26efe7b7193c5d71a8a688b54ef37326b2d521b845a67a73"


def test_topology_set_format_digest():
    text = format_topology_set(generate(5))
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_DIGEST_K5


# sha256 of format_topology_set(generate(6)), the 67 MiB k=6 file
FORMAT_DIGEST_K6 = "1885cdf531ece842c04e1308969d4079d5b4e85b8c4609bae3dac1dab3322753"


@long_tier
def test_topology_set_format_digest_k6():
    text = format_topology_set(generate(6))
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_DIGEST_K6


@st.composite
def topology_sets(draw, max_k=10):
    """Valid topology sets; past k=9 gate sides reach masks of 256 and more."""
    k = draw(st.integers(0, max_k))
    side = [st.integers(0, (1 << i) - 1) for i in range(k)]
    members = draw(st.lists(st.tuples(*(st.tuples(s, s) for s in side)), max_size=4))
    return TopologySet(k, tuple(Topology(k, gates) for gates in members))


@given(topology_sets())
@example(TopologySet(10, (Topology(10, ((0, 0),) * 9 + ((256, 511),)),)))
@settings(max_examples=150)
def test_topology_set_text_roundtrip_random(ts):
    assert parse_topology_set(format_topology_set(ts)) == ts


@given(st.integers(0, 3), st.data())
@settings(max_examples=150)
def test_parse_topology_set_mutated_text(k, data):
    text = data.draw(mutated(format_topology_set(generate(k))))
    try:
        ts = parse_topology_set(text)
    except ParseError:
        return
    assert parse_topology_set(format_topology_set(ts)) == ts


def test_parse_topology_set_respelt_blocks():
    text = format_topology_set(generate(4))
    blocks = text.split("\n\n")
    respelt_blocks = set()
    for old, new in (("{1,2}", "{2, 1}"), ("{1}", "{ 1 }"), ("{2}", "{02}")):
        b = next(b for b in range(1, len(blocks)) if old in blocks[b] and b not in respelt_blocks)
        respelt_blocks.add(b)
        blocks[b] = blocks[b].replace(old, new)
    blocks[5] = blocks[5].replace("\n", "  \n") + "  "
    respelt = "\n\n".join(blocks).replace("\n", "\r\n")
    assert respelt.replace("\r\n", "\n") != text
    ts = parse_topology_set(respelt)
    assert ts == parse_topology_set(text)
    assert ts.members == parse_topology_set(text).members
    assert ts != TopologySet(4, ts.members[::-1])


def _edit_line(text, old, new, after):
    """``text`` with the first line ``old`` past line ``after`` replaced by
    the lines ``new``."""
    lines = text.split("\n")
    at = lines.index(old, after)
    lines[at:at + 1] = new
    return "\n".join(lines)


K4_TEXT = format_topology_set(generate(4))


@pytest.mark.parametrize("variant, column, respelt", [
    (lambda t: t, True, 0),
    (lambda t: t.replace("\n", "\r\n"), True, 0),
    (lambda t: t.replace("\n\n", "\n\n\n", 7), False, 0),
    (lambda t: _edit_line(t, "gate 3: L={} R={1,2}", ["gate 3: L={} R={1,2} "], 200), False, 1),
], ids=["canonical", "crlf", "extra-blank-line", "trailing-space"])
def test_parse_paths_agree_on_equivalent_texts(variant, column, respelt, monkeypatch):
    read_by_columns = []
    parsed_blocks = []
    column_rows = topology._column_rows
    block_parser = topology._parse_topology_lines

    def recording(*args):
        rows = column_rows(*args)
        read_by_columns.append(rows is not None)
        return rows

    def counting(lines, start_lineno):
        parsed_blocks.append(start_lineno)
        return block_parser(lines, start_lineno)

    monkeypatch.setattr(topology, "_column_rows", recording)
    monkeypatch.setattr(topology, "_parse_topology_lines", counting)
    ts = parse_topology_set(variant(K4_TEXT))
    assert ts == generate(4)
    assert ts.members == generate(4).members
    # The column path reads only text laid out as format_topology_set
    # writes it; the block parser reads the rest, and parses line by line
    # only the blocks that are not spelt canonically.
    assert read_by_columns == [column]
    assert len(parsed_blocks) == respelt


@pytest.mark.parametrize("variant, message, line", [
    (lambda t: _edit_line(t, "gate 2: L={} R={}", ["gate 2: L={2} R={}"], 100),
     "gate 2 may only reference gates 1..1", 101),
    (lambda t: t.replace("count=85", "count=86", 1), "header says count=86 but 85 blocks", 1),
    (lambda t: t.replace("count=85", "count=84", 1), "more than count=84 blocks", 507),
    (lambda t: _edit_line(t, "gate 3: L={} R={1,2}", [], 200), "expected 4 gate lines", 375),
], ids=["later-gate", "count-over", "count-under", "missing-gate-line"])
def test_parse_errors_keep_their_message_and_line(variant, message, line):
    with pytest.raises(ParseError) as err:
        parse_topology_set(variant(K4_TEXT))
    assert message in str(err.value)
    assert err.value.line == line


def test_set_rejects_member_with_other_gate_count():
    # a load of the first would fail on its gate lines; the second would
    # save only gate 1 of its member
    two = Topology(2, ((0, 0), (1, 0)))
    for k in (3, 1):
        with pytest.raises(CircuitError, match=f"member with k=2 in a k={k} set"):
            TopologySet(k, (two,))


def test_gate_line_table_has_a_fixed_size():
    parse_topology_set(format_topology_set(generate(4)))
    parse_topology_set(format_topology_set(
        TopologySet(10, (Topology(10, ((0, 0),) * 9 + ((256, 511),)),))))
    assert sum(map(len, topology._gate_lines())) == 5461


def test_sets_build_members_on_first_read(tmp_path, monkeypatch):
    text = format_topology_set(generate(4))
    eager = TopologySet(4, tuple(parse_topology(block) for block in text.split("\n\n")[1:]))
    path = tmp_path / "t4.txt"
    path.write_text(text)
    built = []
    post_init = Topology.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Topology, "__post_init__", counting)
    for make in (lambda: generate(4), lambda: parse_topology_set(text),
                 lambda: load_topology_set(path)):
        ts = make()
        assert ts.count == 85 and not built
        members = ts.members
        assert len(built) == 85 and ts.members is members
        built.clear()
        assert members == eager.members
        assert ts == eager


@pytest.mark.parametrize("body, mask", [
    ("2,1", 3), ("2, 1", 3), (" 1 ", 1), ("1 , 2", 3), ("1,1", 1), ("01", 1), (" ", 0),
])
def test_parse_non_canonical_side_sets(body, mask):
    text = f"topology k=3\ngate 1: L={{}} R={{}}\ngate 2: L={{}} R={{}}\ngate 3: L={{{body}}} R={{}}"
    assert parse_topology(text).gates[2] == (mask, 0)


def test_parse_rejects_non_ascii_digits():
    with pytest.raises(ParseError) as err:
        parse_topology_set("topologyset k=1 count=1\n\ntopology k=1\ngate 1: L={²} R={}\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_topology("topology k=1\ngate ١: L={} R={}")
    with pytest.raises(ParseError):
        parse_topology("topology k=١\ngate 1: L={} R={}")


@pytest.mark.parametrize("text, line", [
    ("topology k=1\ngate 1: L={1,100000000000} R={}", 2),
    ("topology k=2\ngate 1: L={} R={}\ngate 2: L={1,100000000000} R={}", 3),
    ("topology k=2\ngate 1: L={} R={}\ngate 2: L={2, 1} R={}", 3),
])
def test_parse_rejects_later_side_index_before_building_it(text, line):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="may only reference") as err:
            parse_topology(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == line
    assert peak < 1 << 20


SET_HEAD = "topologyset k=2 count=1\n\n"
BLOCK = "topology k=2\ngate 1: L={} R={}\ngate 2: L={} R={1}\n"


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty topology set"),
    ("\n\nnot a header\n", 3, "expected 'topologyset"),
    (SET_HEAD + "topology\ngate 1: L={} R={}\ngate 2: L={} R={1}\n", 3,
     "expected 'topology k="),
    (SET_HEAD + "topology k=2\ngate 1: L={} R={}\ngate 3: L={} R={1}\n", 5, "gate numbered 3"),
    (SET_HEAD + "topology k=2\ngate 1: L={} R={}\ngate 2: L={1}\n", 5, "expected 'gate"),
    (SET_HEAD + "topology k=2\ngate 1: L={} R={}\n", 3, "expected 2 gate lines"),
    (SET_HEAD + "topology k=2\ngate 1: L={1} R={}\ngate 2: L={} R={1}\n", 4,
     "gate 1 may only reference"),
    (SET_HEAD + "topology k=2\ngate 1: L={} R={}\ngate 2: L={0} R={1}\n", 5, "bad gate index '0'"),
    (SET_HEAD + "topology k=2\ngate 1: L={} R={}\ngate 2: L={} R={1,}\n", 5, "bad gate index ''"),
    ("topologyset k=2 count=3\n\n" + BLOCK, 1, "header says count=3 but 1 blocks"),
    # the block past the count fails before it is parsed
    (SET_HEAD + BLOCK + "\n\nnot a block\n", 8, "more than count=1"),
    ("topologyset k=2 count=2\n\n" + BLOCK + "\ntopology k=1\ngate 1: L={} R={}\n", 7,
     "member with k=1 in a k=2 set"),
], ids=["empty", "bad-header", "bad-block-header", "gate-number", "bad-gate-line",
        "gate-line-count", "later-gate", "index-zero", "trailing-comma", "too-few-blocks",
        "too-many-blocks", "member-k"])
def test_parse_topology_set_error_lines(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_topology_set(text)
    assert err.value.line == line
    assert message in str(err.value)


def test_parse_topology_set_block_with_extra_gate_line():
    # the first k+1 lines are canonical; the block as a whole is not
    text = SET_HEAD + BLOCK + "gate 3: L={} R={}\n"
    with pytest.raises(ParseError, match="expected 2 gate lines") as err:
        parse_topology_set(text)
    assert err.value.line == 3


LONG = "9" * 5000  # past Python's limit on the length of an integer string


@pytest.mark.parametrize("parse, text, line", [
    (parse_circuit, f"circuit n=2 k=0\nout: {{x{LONG}}}\n", 2),
    (parse_circuit, f"circuit n={LONG} k=0\nout: {{}}\n", 1),
    (parse_circuit, f"circuit n=2 k=1\ngate {LONG}: L={{}} R={{}}\nout: {{}}\n", 2),
    (parse_truth_table, f"tt n={LONG} 01", 1),
    (parse_topology, f"topology k={LONG}\ngate 1: L={{}} R={{}}", 1),
    (parse_topology, f"topology k=2\ngate 1: L={{}} R={{}}\ngate 2: L={{{LONG}}} R={{}}", 3),
    (parse_topology_set, f"topologyset k=1 count={LONG}\n\ntopology k=1\ngate 1: L={{}} R={{}}\n", 1),
], ids=["circuit-term", "circuit-n", "circuit-gate", "truth-table-n", "topology-k",
        "side-index", "set-count"])
def test_parse_rejects_long_numbers_at_their_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert "digits" not in str(err.value)
