import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcbound
from mcbound.circuits import (_TERMS, MAX_ARITY, TOP, Circuit, Term, TruthTable,
                              evaluate, format_circuit, format_truth_table, g,
                              is_negation_normal, minimalize_circuit, negation_normalize,
                              normalize_circuit_layering, parse_circuit,
                              parse_truth_table, topology_of, truth_table, x)
from mcbound.errors import CapacityError, CircuitError, ContractError, ParseError
from mcbound.randgen import random_circuit
from mcbound.topology import (MAX_GENERATE_K, Topology, format_topology_set, generate, is_minimal,
                              is_well_layered, layering, parse_topology_set)

from conftest import MAJ4_TEXT, mutated, naive_eval


def fs(*terms):
    return frozenset(terms)


# --- evaluation --------------------------------------------------------------

def test_eval_majority_example(maj4_circuit):
    assert evaluate(maj4_circuit, (1, 1, 1, 0)) == 1
    assert evaluate(maj4_circuit, (1, 0, 1, 0)) == 0
    assert evaluate(maj4_circuit, 0b0111) == 1


def test_eval_empty_output_is_zero():
    c = Circuit(2, (), fs())
    assert all(evaluate(c, v) == 0 for v in range(4))


def test_eval_constant_top():
    c = Circuit(3, (), fs(TOP))
    assert all(evaluate(c, v) == 1 for v in range(8))


def test_eval_rejects_bad_assignments():
    c = Circuit(2, (), fs(TOP))
    with pytest.raises(ValueError):
        evaluate(c, (1,))
    with pytest.raises(ValueError):
        evaluate(c, 4)


@st.composite
def circuits(draw, max_n=4, max_k=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_k))
    gates = []
    for i in range(1, k + 1):
        pool = [x(j) for j in range(1, n + 1)] + [TOP] + [g(j) for j in range(1, i)]
        gates.append((frozenset(draw(st.sets(st.sampled_from(pool)))),
                      frozenset(draw(st.sets(st.sampled_from(pool))))))
    pool = [x(j) for j in range(1, n + 1)] + [TOP] + [g(j) for j in range(1, k + 1)]
    return Circuit(n, tuple(gates), frozenset(draw(st.sets(st.sampled_from(pool)))))


@given(circuits(), st.data())
def test_eval_matches_naive_recursive_evaluator(c, data):
    v = data.draw(st.integers(0, (1 << c.n) - 1))
    bits = tuple((v >> j) & 1 for j in range(c.n))
    assert evaluate(c, v) == naive_eval(c, bits)


# --- truth tables ------------------------------------------------------------

def test_truth_table_majority(maj4_circuit):
    # independent oracle: brute-force the defining XOR-AND formula per point
    expected = 0
    for v in range(16):
        x1, x2, x3, x4 = ((v >> j) & 1 for j in range(4))
        f = ((x1 ^ x2) & (x3 & x4)) ^ ((x1 & x2) & (x3 ^ x4 ^ (x3 & x4)))
        assert f == (1 if bin(v).count("1") >= 3 else 0)
        expected |= f << v
    tt = truth_table(maj4_circuit)
    assert tt.bits == expected
    assert tt.to_string() == "0000000100010111"


def test_truth_table_single_and_gate():
    c = Circuit(2, ((fs(x(1)), fs(x(2))),), fs(g(1)))
    assert truth_table(c).to_string() == "0001"


def test_truth_table_empty_output():
    c = Circuit(3, ((fs(x(1)), fs(x(2))),), fs())
    assert truth_table(c).bits == 0


@given(circuits(max_n=3, max_k=3))
@settings(max_examples=60)
def test_truth_table_agrees_with_pointwise_eval(c):
    tt = truth_table(c)
    for v in range(1 << c.n):
        assert tt.bit(v) == evaluate(c, v)


def test_truth_table_type_validation():
    with pytest.raises(CircuitError):
        TruthTable(2, 1 << 4)
    with pytest.raises(CircuitError):
        TruthTable(0, 0)
    with pytest.raises(CapacityError):
        TruthTable(17, 0)
    tt = TruthTable.from_string(2, "0110")
    assert tt.bit(1) == 1 and tt.bit(3) == 0
    assert TruthTable.from_string(2, tt.to_string()) == tt


def test_arity_cap_on_circuits():
    with pytest.raises(CapacityError):
        Circuit(17, (), fs())


# --- construction invariants --------------------------------------------------

def test_forward_gate_reference_rejected():
    with pytest.raises(CircuitError):
        Circuit(2, ((fs(g(1)), fs(x(1))),), fs())
    with pytest.raises(CircuitError):
        Circuit(2, ((fs(x(1)), fs(g(2))), (fs(x(1)), fs(x(2)))), fs())


def test_out_of_range_terms_rejected():
    with pytest.raises(CircuitError):
        Circuit(2, ((fs(x(3)), fs()),), fs())
    with pytest.raises(CircuitError):
        Circuit(2, (), fs(g(1)))


@pytest.mark.parametrize("gates, output, message", [
    (((fs(("x", 1)), fs()),), fs(), "gate 1: not a circuit term: ('x', 1)"),
    (((fs(), fs(x(1))), (fs(x(2)), fs(("x", 1)))), fs(),
     "gate 2: not a circuit term: ('x', 1)"),
    ((), fs(("x", 1)), "output: not a circuit term: ('x', 1)"),
    (((fs(Term("y", 1)), fs()),), fs(), "gate 1: not a circuit term: Term(kind='y', idx=1)"),
    (((fs(x(0)), fs()),), fs(), "input x0 out of range 1..2"),
    (((fs(), fs(x(3))),), fs(), "input x3 out of range 1..2"),
    ((), fs(x(3)), "input x3 out of range 1..2"),
    (((fs(x(1)), fs()), (fs(g(2)), fs())), fs(), "gate g2 referenced before it is defined"),
    (((fs(x(1)), fs(g(1))),), fs(), "gate g1 referenced before it is defined"),
    (((fs(x(1)), fs()),), fs(g(2)), "gate g2 referenced before it is defined"),
    ((), fs(g(1)), "gate g1 referenced before it is defined"),
    (((fs(Term("T", 5)), fs()),), fs(), "constant T with index 5, expected 0"),
    ((), fs(x(1), Term("T", 1)), "constant T with index 1, expected 0"),
])
def test_constructor_error_messages(gates, output, message):
    with pytest.raises(CircuitError) as err:
        Circuit(2, gates, output)
    assert str(err.value) == message


@pytest.mark.parametrize("term", [Term("x", 1.0), Term("g", 1.0), Term("x", True),
                                  Term("T", 0.0)])
def test_term_index_must_be_an_int(term):
    # Each term equals a valid one.  Up to seven gates the constructor's
    # fast path sees the circuit first, at n=2 and n=9; past seven only the
    # full checks do.
    short = ((fs(x(1)), fs()), (fs(TOP), fs(term)))
    long = ((fs(x(1)), fs()),) * 8 + ((fs(TOP), fs(term)),)
    for n, gates in ((2, short), (9, short), (2, long)):
        with pytest.raises(CircuitError) as err:
            Circuit(n, gates, fs())
        assert str(err.value) == f"gate {len(gates)}: not a circuit term: {term!r}"
    with pytest.raises(CircuitError, match="output: not a circuit term"):
        Circuit(2, (), fs(term))


def test_terms_built_by_hand_give_the_same_circuit():
    by_hand = Circuit(2, ((fs(Term("x", 1)), fs(Term("T", 0))),), fs(Term("g", 1), Term("x", 2)))
    shared = Circuit(2, ((fs(x(1)), fs(TOP)),), fs(g(1), x(2)))
    assert by_hand == shared and hash(by_hand) == hash(shared)
    assert x(1) is x(1) and g(7) is g(7) and x(17) == Term("x", 17) and g(8) == Term("g", 8)


def test_constructor_stores_frozensets():
    built = Circuit(2, [[[x(1), TOP], {x(2)}], ({g(1)}, [x(1), x(1)])], {g(2), x(2)})
    want = Circuit(2, ((fs(x(1), TOP), fs(x(2))), (fs(g(1)), fs(x(1)))), fs(g(2), x(2)))
    assert type(built.gates) is tuple
    assert all(type(gate) is tuple and len(gate) == 2 for gate in built.gates)
    assert all(type(side) is frozenset for gate in built.gates for side in gate)
    assert type(built.output) is frozenset
    assert built == want and hash(built) == hash(want)


# --- topology projection ------------------------------------------------------

def test_topology_of_majority(maj4_circuit):
    assert topology_of(maj4_circuit) == Topology(4, ((0, 0), (0, 0), (0, 2), (1, 2)))


def test_topology_of_linear_only_gates():
    c = Circuit(2, ((fs(x(1)), fs(TOP)), (fs(x(2)), fs(x(1), TOP))), fs(g(2)))
    assert topology_of(c) == Topology(2, ((0, 0), (0, 0)))


def test_topology_of_gateless_circuit():
    assert topology_of(Circuit(2, (), fs(x(1)))) == Topology(0, ())


# --- negation normalization ---------------------------------------------------

def test_is_negation_normal(maj4_circuit):
    assert is_negation_normal(maj4_circuit)
    both = Circuit(2, ((fs(TOP), fs(TOP, x(1))),), fs(g(1)))
    assert not is_negation_normal(both)
    one = Circuit(2, ((fs(TOP), fs(x(1))),), fs(g(1)))
    assert is_negation_normal(one)


def test_negation_normalize_single_gate_example():
    c = Circuit(2, ((fs(x(1), TOP), fs(x(2), TOP)),), fs(g(1)))
    nn = negation_normalize(c)
    assert nn.gates == ((fs(x(1)), fs(x(2))),)
    assert nn.output == fs(g(1), x(1), x(2), TOP)
    assert truth_table(nn) == truth_table(c)


def test_negation_normalize_no_op(maj4_circuit):
    assert negation_normalize(maj4_circuit) is maj4_circuit


def test_negation_normalize_handles_introduced_constants():
    # the correction for gate 1 pushes T into gate 2, which the same pass fixes
    c = Circuit(2, (
        (fs(x(1), TOP), fs(x(2), TOP)),
        (fs(g(1), TOP), fs(x(1))),
        (fs(g(2)), fs(g(1), TOP)),
    ), fs(g(3), x(2)))
    nn = negation_normalize(c)
    assert is_negation_normal(nn)
    assert truth_table(nn) == truth_table(c)
    assert nn.k == c.k and nn.n == c.n


@pytest.mark.parametrize("seed", [7, 42])
def test_negation_normalize_random(seed):
    rng = random.Random(seed)
    for _ in range(200):
        c = random_circuit(rng)
        nn = negation_normalize(c)
        assert truth_table(nn) == truth_table(c)
        assert is_negation_normal(nn)
        assert negation_normalize(nn) == nn


# --- minimalization -----------------------------------------------------------

def test_minimalize_nested_side_example():
    # gate 3 has topology sides {1} and {1,2}: the repeated part is stripped
    # and T joins the right side
    c = Circuit(2, (
        (fs(x(1)), fs(x(2))),
        (fs(x(1), x(2)), fs(x(1))),
        (fs(g(1)), fs(g(1), g(2))),
    ), fs(g(3)))
    m = minimalize_circuit(c)
    assert m.gates[2] == (fs(g(1)), fs(g(2), TOP))
    assert truth_table(m) == truth_table(c)
    topo = topology_of(m)
    assert is_minimal(topo) and is_well_layered(topo)


def test_minimalize_no_op(maj4_circuit):
    assert minimalize_circuit(maj4_circuit) is maj4_circuit


def test_minimalize_requires_well_layered():
    c = Circuit(2, (
        (fs(x(1)), fs(x(2))),
        (fs(g(1)), fs(x(1))),
        (fs(x(2)), fs(x(1))),   # isolated gate stuck in layer 2
    ), fs(g(3)))
    assert not is_well_layered(topology_of(c))
    with pytest.raises(ContractError):
        minimalize_circuit(c)


@pytest.mark.parametrize("seed", [3, 99])
def test_minimalize_random(seed):
    rng = random.Random(seed)
    for _ in range(200):
        c = normalize_circuit_layering(random_circuit(rng))
        m = minimalize_circuit(c)
        assert truth_table(m) == truth_table(c)
        topo = topology_of(m)
        assert is_minimal(topo)
        assert is_well_layered(topo)
        assert m.k == c.k
        assert minimalize_circuit(m) == m


def test_normalize_circuit_layering_random():
    rng = random.Random(11)
    for _ in range(200):
        c = random_circuit(rng)
        lc = normalize_circuit_layering(c)
        assert truth_table(lc) == truth_table(c)
        assert is_well_layered(topology_of(lc))


# --- text formats ---------------------------------------------------------

def test_circuit_roundtrip(maj4_circuit):
    assert parse_circuit(MAJ4_TEXT) == maj4_circuit
    assert parse_circuit(format_circuit(maj4_circuit)) == maj4_circuit


def test_circuit_format_is_stable(maj4_circuit):
    assert format_circuit(maj4_circuit) == MAJ4_TEXT


def test_circuit_past_the_shared_gate_terms_formats_and_parses_back():
    # g8 and g9 are past the shared terms, so their sets take the general path
    assert MAX_GENERATE_K < 8
    gates = [(fs(x(1)), fs(x(2)))] + [(fs(g(i - 1)), fs(x(1))) for i in range(2, 9)]
    gates.append((fs(g(8), x(1), TOP, g(2)), fs(g(7))))
    c = Circuit(2, tuple(gates), fs(g(9), g(8), x(2), TOP))
    text = format_circuit(c)
    assert text.splitlines()[-2:] == ["gate 9: L={x1,T,g2,g8} R={g7}", "out: {x2,T,g8,g9}"]
    assert parse_circuit(text) == c


def test_parse_circuit_errors():
    with pytest.raises(ParseError, match="circuit n="):
        parse_circuit("nonsense\n")
    with pytest.raises(ParseError) as err:
        parse_circuit("circuit n=2 k=1\ngate 1: L={y1} R={}\nout: {}\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_circuit("circuit n=2 k=2\ngate 1: L={} R={}\nout: {}\n")
    with pytest.raises(ParseError):  # forward reference caught via validation
        parse_circuit("circuit n=2 k=1\ngate 1: L={g1} R={}\nout: {}\n")


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_circuit_lines_end_at_newline_only(sep):
    # as in a topology set: the text is one line, so its header is bad
    with pytest.raises(ParseError) as err:
        parse_circuit(f"circuit n=2 k=0{sep}out: {{x1}}\n")
    assert str(err.value) == "line 1: expected 'circuit n=<n> k=<k>'"


def test_circuit_white_space_is_ascii():
    c = parse_circuit("circuit n=2 k=0\nout: {x1}\n")
    assert parse_circuit("\v\f \t\r\ncircuit\vn=2\fk=0\r\nout:\v{x1}\f\n") == c
    with pytest.raises(ParseError) as err:  # a line of \x1c is not blank
        parse_circuit("circuit n=2 k=0\n\x1c\nout: {x1}\n")
    assert str(err.value) == "line 1: expected 0 gate lines and one 'out:' line"


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_circuit_terms_keep_separator_characters(sep):
    # str.strip() would strip them, reading {} or {x1}
    for text, term, col in (("circuit n=1 k=0\nout: {x1%s}\n", "x1" + sep, 7),
                            ("circuit n=1 k=1\ngate 1: L={%s} R={x1}\nout: {g1}\n", sep, 12)):
        with pytest.raises(ParseError) as err:
            parse_circuit(text % sep)
        assert str(err.value) == f"line 2, col {col}: unknown term {term!r}"


def test_parse_circuit_range_error_lines():
    cases = [
        ("circuit n=2 k=1\ngate 1: L={x1,x3,x8,x9,x10} R={}\nout: {}\n",
         "line 2: input x3 out of range 1..2"),
        ("circuit n=2 k=2\ngate 1: L={x1} R={x2}\ngate 2: L={x1} R={x2}\nout: {g5}\n",
         "line 4: gate g5 referenced before it is defined"),
        ("circuit n=2 k=2\n\ngate 1: L={x1} R={x2}\n\ngate 2: L={g2} R={x2}\nout: {g1}\n",
         "line 5: gate g2 referenced before it is defined"),
        ("circuit n=0 k=1\ngate 1: L={x1} R={}\nout: {g1}\n",
         "line 1: arity must be at least 1"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert str(err.value) == message


def test_first_circuit_error_ignores_hash_seed():
    script = ("from mcbound.circuits import Circuit, parse_circuit\n"
              "try:\n"
              "    parse_circuit('circuit n=2 k=1\\ngate 1: L={x1,x3,x8,x9,x10} R={}\\nout: {}\\n')\n"
              "except ValueError as exc:\n"
              "    print(exc)\n"
              "try:\n"
              "    Circuit(2, (({('x', 1), ('x', 2), ('y', 1), ('x', 3)}, ()),), ())\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    src = str(Path(mcbound.__file__).parents[1])
    outputs = set()
    for seed in ("1", "2"):  # each gave a different first error when sets were checked unsorted
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        outputs.add(done.stdout)
    assert outputs == {"line 2: input x3 out of range 1..2\n"
                       "gate 1: not a circuit term: ('x', 1)\n"}


def test_parse_circuit_error_column():
    with pytest.raises(ParseError) as err:
        parse_circuit("circuit n=2 k=1\ngate 1: L={x1, y1} R={}\nout: {}\n")
    assert (str(err.value), err.value.line, err.value.col) == \
        ("line 2, col 16: unknown term 'y1'", 2, 16)
    with pytest.raises(ParseError) as err:
        parse_circuit("circuit n=2 k=0\nout: {x1,}\n")
    assert str(err.value) == "line 2: unknown term ''"


@pytest.mark.parametrize("text, line, col, token", [
    ("circuit n=2 k=1\ngate 1: L={g} R={}\nout: {}\n", 2, 12, "g"),
    ("circuit n=2 k=1\ngate 1: L={x1} R={x1,e}\nout: {}\n", 2, 22, "e"),
    ("circuit n=2 k=0\nout: {x1, 1}\n", 2, 11, "1"),
], ids=["term-in-keyword", "term-after-same-side", "term-in-earlier-term"])
def test_parse_circuit_term_error_column(text, line, col, token):
    # the column is the token's own, not that of the first equal text on its line
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert (str(err.value), err.value.line, err.value.col) == \
        (f"line {line}, col {col}: unknown term {token!r}", line, col)


@st.composite
def respelt_circuits(draw):
    """A circuit, past the 7 gates and up to the 16 inputs the format
    allows, and its text with every term re-spelt: spaces around it,
    leading zeros, repeated, in any order."""
    c = draw(circuits(max_n=16, max_k=9))

    def spell(terms):
        tokens = []
        for t in terms:
            zeros, copies, before, after = draw(st.tuples(*[st.integers(0, 2)] * 4))
            text = "T" if t.kind == "T" else f"{t.kind}{'0' * zeros}{t.idx}"
            tokens += [" " * before + text + " " * after] * (1 + copies % 2)
        return ",".join(draw(st.permutations(tokens)))

    lines = [f"circuit n={c.n} k={c.k}"]
    for i, (left, right) in enumerate(c.gates, 1):
        lines.append(f"gate {i}: L={{{spell(left)}}} R={{{spell(right)}}}")
    lines.append(f"out: {{{spell(c.output)}}}")
    return c, "\n".join(lines) + "\n"


@given(respelt_circuits())
@settings(max_examples=60)
def test_respelt_circuit_text_parses_like_canonical(case):
    c, text = case
    assert parse_circuit(format_circuit(c)) == c
    assert parse_circuit(text) == c
    assert len(_TERMS) == MAX_ARITY + 1 + MAX_GENERATE_K


def test_rewrite_pipeline_digest():
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(2000):
        c = random_circuit(rng, max_n=7, max_k=7)
        rewritten = minimalize_circuit(normalize_circuit_layering(negation_normalize(c)))
        h.update(format_circuit(rewritten).encode())
    assert h.hexdigest() == "df8b30c8ef1b56786d2ba54b463e0dea34a1315ddd17e43d679795a8d788cbef"


@given(circuits(), st.data())
@settings(max_examples=150)
def test_parse_circuit_mutated_text(c, data):
    text = data.draw(mutated(format_circuit(c)))
    try:
        parsed = parse_circuit(text)
    except ParseError:
        return
    assert parse_circuit(format_circuit(parsed)) == parsed


# the text formats' own characters, white space a line may hold, and
# characters outside ASCII, among them digits and a line separator of str
FUZZ_CHARS = "0123456789{},=:- \nxgTLRkoutpylsec\t\r\v\f\x1c\xa0\xe9\u0661\u00b2\u2028"


def seeded_mutation(rng, text):
    """``text`` with one to three characters deleted, inserted or replaced,
    drawn from ``rng``."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        op = rng.choice(("delete", "insert", "replace"))
        cut = pos + (op != "insert")
        text = text[:pos] + ("" if op == "delete" else rng.choice(FUZZ_CHARS)) + text[cut:]
    return text


def fuzz_batch(seed, size):
    """``size`` seeded mutated circuit texts, then as many mutated
    topology-set texts for k <= 3, as ``(kind, text)`` pairs."""
    rng = random.Random(seed)
    sets = [format_topology_set(generate(k)) for k in range(4)]
    texts = [format_circuit(random_circuit(rng, max_n=7, max_k=7)) for _ in range(size)]
    return [("circuit", seeded_mutation(rng, text)) for text in texts] + \
        [("set", seeded_mutation(rng, rng.choice(sets))) for _ in range(size)]


FUZZ_SCRIPT = """\
import json, sys
from mcbound.circuits import format_circuit, parse_circuit
from mcbound.errors import ParseError
from mcbound.topology import format_topology_set, parse_topology_set
readers = {"circuit": (parse_circuit, format_circuit),
           "set": (parse_topology_set, format_topology_set)}
for kind, text in json.load(sys.stdin):
    parse, fmt = readers[kind]
    try:
        print(json.dumps(["parsed", fmt(parse(text))]))
    except ParseError as exc:
        print(json.dumps(["error", str(exc)]))
"""


def test_mutated_texts_parse_alike_under_every_hash_seed():
    batch = fuzz_batch(seed=20, size=300)
    src = str(Path(mcbound.__file__).parents[1])
    outcomes = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", FUZZ_SCRIPT], env=env, check=True,
                              input=json.dumps(batch), capture_output=True, text=True,
                              timeout=120)
        outcomes.append(done.stdout.splitlines())
    assert len(outcomes[0]) == len(batch)
    assert outcomes[0] == outcomes[1]
    # both readers meet parsed texts and errors alike
    kinds = {(kind, json.loads(out)[0]) for (kind, _), out in zip(batch, outcomes[0])}
    assert kinds == {(kind, result) for kind in ("circuit", "set") for result in ("parsed", "error")}


def test_mutated_texts_parse_in_memory_bounded_by_their_length():
    batch = fuzz_batch(seed=21, size=150)
    readers = {"circuit": parse_circuit, "set": parse_topology_set}

    def attempt(kind, text):
        try:
            readers[kind](text)
        except ParseError:
            pass

    for kind, text in batch:  # build every table the readers keep, first
        attempt(kind, text)
        attempt(kind, text.replace("\n", "\r\n"))
    for kind, text in batch:
        tracemalloc.start()
        try:
            attempt(kind, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * len(text), (kind, text)


def test_parse_circuit_rejects_non_ascii_digits():
    with pytest.raises(ParseError):
        parse_circuit("circuit n=\u0662 k=0\nout: {x\u0661}\n")
    with pytest.raises(ParseError):
        parse_circuit("circuit n=2 k=0\nout: {x\u0661}\n")
    with pytest.raises(ParseError):
        parse_truth_table("tt n=\u0661 01")


def test_truth_table_text_roundtrip(maj4_circuit):
    tt = truth_table(maj4_circuit)
    line = format_truth_table(tt)
    assert line == "tt n=4 0000000100010111"
    assert parse_truth_table(line) == tt
    with pytest.raises(ParseError):
        parse_truth_table("tt n=2 01")


def test_parse_truth_table_checks_arity_cap_first():
    for n in ("17", "40", "999999999999999999"):
        with pytest.raises(ParseError, match=f"arity {n} exceeds"):
            parse_truth_table(f"tt n={n} 01")
