import pytest
from hypothesis import strategies as st

from mcbound.circuits import Circuit, g, x

# Four-input majority example: ((x1^x2)&(x3&x4)) ^ ((x1&x2)&(x3^x4^(x3&x4)))
MAJ4_TEXT = """\
circuit n=4 k=4
gate 1: L={x1} R={x2}
gate 2: L={x3} R={x4}
gate 3: L={x1,x2} R={g2}
gate 4: L={g1} R={x3,x4,g2}
out: {g3,g4}
"""


def maj4():
    return Circuit(4, (
        (frozenset({x(1)}), frozenset({x(2)})),
        (frozenset({x(3)}), frozenset({x(4)})),
        (frozenset({x(1), x(2)}), frozenset({g(2)})),
        (frozenset({g(1)}), frozenset({x(3), x(4), g(2)})),
    ), frozenset({g(3), g(4)}))


@pytest.fixture
def maj4_circuit():
    return maj4()


def naive_eval(c, bits):
    """Recursive reference evaluator, independent of the package's
    index-order loop."""
    def term_value(t):
        if t.kind == "x":
            return bits[t.idx - 1]
        if t.kind == "T":
            return 1
        return gate_value(t.idx)

    def gate_value(i):
        left, right = c.gates[i - 1]
        lv = 0
        for t in left:
            lv ^= term_value(t)
        rv = 0
        for t in right:
            rv ^= term_value(t)
        return lv & rv

    out = 0
    for t in c.output:
        out ^= term_value(t)
    return out


# the text formats' own characters, so that edits often reach the parsers'
# later checks, and any other character
_EDIT_CHARS = st.one_of(st.sampled_from("0123456789{},=:- \nxgTLRkoutpylsec"), st.characters())


@st.composite
def mutated(draw, text):
    """``text`` with one to three characters deleted, inserted or replaced."""
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        cut = pos + (op != "insert")
        text = text[:pos] + ("" if op == "delete" else draw(_EDIT_CHARS)) + text[cut:]
    return text
