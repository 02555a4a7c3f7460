"""XOR-AND circuit values: evaluation, truth tables, and the
function-preserving gate rewrites.

A circuit has n inputs and an ordered list of AND gates; each gate side is
the XOR of a set of terms (inputs, the constant T, outputs of earlier
gates), and one final XOR set produces the output.  All values here are
immutable; every operation returns a new circuit.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache
from typing import NamedTuple

from . import topology as _topo
from .errors import SPACE, CapacityError, CircuitError, ContractError, ParseError, ascii_lines

MAX_ARITY = 16


class Term(NamedTuple):
    """One XOR-set member: kind is "x" (input), "g" (gate) or "T" (constant)."""

    kind: str
    idx: int

    def __str__(self):
        return "T" if self.kind == "T" else f"{self.kind}{self.idx}"

    def __reduce__(self):
        return _term, tuple(self)


TOP = Term("T", 0)


def _term(kind, idx):
    """``Term(kind, idx)``, shared when the table holds it, as a copy or an
    unpickling of a term gives it: a copied circuit keeps the fast path."""
    term = Term(kind, idx)
    shared = _TERM_BY_TEXT.get(str(term))
    return shared if type(idx) is int and shared == term else term


def x(j):
    """Input term x<j>, the shared one when the table holds it."""
    return _TERMS[j - 1] if type(j) is int and 1 <= j <= MAX_ARITY else Term("x", j)


def g(i):
    """Earlier-gate term g<i>, the shared one when the table holds it."""
    return _g_term(i) if type(i) is int and i >= 1 else Term("g", i)


_KIND_ORDER = {"x": 0, "T": 1, "g": 2}


def term_sort_key(t):
    return (_KIND_ORDER[t.kind], t.idx)


# The shared terms: x1..x<MAX_ARITY>, T and g1..g<MAX_GENERATE_K>, in sort
# order, so a term's rank is its position.  ``x``, ``g``, the parsers and the
# rewrites hand out these objects.  Terms outside them, such as the gates of
# a circuit past MAX_GENERATE_K gates or a Term built by hand, take the
# general code paths, with the same results.
_TERMS = (*(Term("x", j) for j in range(1, MAX_ARITY + 1)), TOP,
          *(Term("g", i) for i in range(1, _topo.MAX_GENERATE_K + 1)))
_G_TERMS = _TERMS[MAX_ARITY + 1:]
_TERM_BY_TEXT = {str(t): t for t in _TERMS}
_TERM_RANK = {t: rank for rank, t in enumerate(_TERMS)}
_RANK_TEXT = tuple(map(str, _TERMS))


@cache
def _allowed_ids(n):
    """Item i: the ids of the shared terms gate i + 1 of an n-input circuit
    may use, which are also those the output of an i-gate circuit may use.
    _TERMS keeps these ids theirs."""
    return tuple(frozenset(map(id, _TERMS[:n] + (TOP,) + _G_TERMS[:i]))
                 for i in range(_topo.MAX_GENERATE_K + 1))


def _g_term(i):
    """The term g<i>, shared when the table holds it."""
    return _G_TERMS[i - 1] if i <= _topo.MAX_GENERATE_K else Term("g", i)


def _check_types(terms, where):
    for t in sorted(terms, key=repr):  # set order follows the string hash
        if not isinstance(t, Term) or t.kind not in _KIND_ORDER or type(t.idx) is not int:
            raise CircuitError(f"{where}: not a circuit term: {t!r}")


def _check_arity(n):
    if type(n) is not int:
        raise CircuitError(f"arity must be an int, not {n!r}")
    if n < 1:
        raise CircuitError("arity must be at least 1")
    if n > MAX_ARITY:
        raise CapacityError(f"arity {n} exceeds the supported cap of {MAX_ARITY}")


def _check_header_arity(n, lineno):
    """Refuse a text header's arity past MAX_ARITY, before any other work, as
    a ParseError at the header's line; an arity below 1 is left to the
    constructor."""
    if n > MAX_ARITY:
        try:
            _check_arity(n)
        except CapacityError as exc:
            raise ParseError(str(exc), line=lineno) from exc


class TruthTable(namedtuple("TruthTable", "n bits")):
    """Output bits of an n-ary Boolean function: bit v is the value at the
    assignment encoded by v, with x1 as the least-significant bit.  A named
    tuple, equal to the plain tuple ``(n, bits)``; every construction, a
    ``_replace``, a copy and an unpickling too, goes through the checks."""

    __slots__ = ()

    def __new__(cls, n, bits):
        _check_arity(n)
        if not 0 <= bits < (1 << (1 << n)):
            raise CircuitError(f"truth table needs exactly {1 << n} bits")
        return tuple.__new__(cls, (n, bits))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def size(self):
        return 1 << self.n

    def bit(self, v):
        return (self.bits >> v) & 1

    def to_string(self):
        return "".join(str(self.bit(v)) for v in range(self.size))

    @classmethod
    def from_string(cls, n, bits):
        _check_arity(n)
        if len(bits) != (1 << n) or set(bits) - {"0", "1"}:
            raise CircuitError(f"need exactly {1 << n} characters of 0/1")
        value = 0
        for v, ch in enumerate(bits):
            if ch == "1":
                value |= 1 << v
        return cls(n, value)


class Circuit(namedtuple("Circuit", "n gates output")):
    """n inputs, ordered AND gates of XOR-set side pairs, and an output XOR
    set.  Gate references must point at strictly earlier gates.  A named
    tuple, equal to the plain tuple ``(n, gates, output)`` of frozenset
    sides and output; every construction, a ``_replace``, a copy and an
    unpickling too, goes through the checks."""

    __slots__ = ()

    def __new__(cls, n, gates, output):
        _check_arity(n)
        gates = tuple((frozenset(left), frozenset(right)) for left, right in gates)
        output = frozenset(output)
        if not _terms_allowed(n, gates, output):
            for i, (left, right) in enumerate(gates, 1):
                _check_types(left, f"gate {i}")
                _check_types(right, f"gate {i}")
            _check_types(output, "output")
            fault = _first_fault(n, gates, output)
            if fault:
                raise CircuitError(fault[1])
        return tuple.__new__(cls, (n, gates, output))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def k(self):
        return len(self.gates)


def _first_fault(n, gates, output):
    """``(position, message)`` for the first term that may not stand where it
    does, or None: gate i is position i and the output is the last, and
    each is checked in ``term_sort_key`` order, since set order follows the
    string hash."""
    for pos, terms in enumerate([*(left | right for left, right in gates), output], 1):
        for t in sorted(terms, key=term_sort_key):
            if t.kind == "T" and t.idx != 0:
                return pos, f"constant T with index {t.idx!r}, expected 0"
            if t.kind == "x" and not 1 <= t.idx <= n:
                return pos, f"input x{t.idx} out of range 1..{n}"
            if t.kind == "g" and not 1 <= t.idx < pos:
                return pos, f"gate g{t.idx} referenced before it is defined"
    return None


def _terms_allowed(n, gates, output):
    """True when every term of an n-input circuit, n checked, is a shared
    one allowed where it stands: one subset test of the terms' ids per
    side.  A plain tuple or ``Term("x", 1.0)`` equals the Term it spells,
    so only the ids tell them apart.  False leaves the circuit to the full
    checks, which accept the terms built by hand and give the error."""
    if len(gates) > _topo.MAX_GENERATE_K:
        return False
    ids = _allowed_ids(n)
    for i, (left, right) in enumerate(gates):
        if not (ids[i].issuperset(map(id, left)) and ids[i].issuperset(map(id, right))):
            return False
    return ids[len(gates)].issuperset(map(id, output))


def _coerce_assignment(n, assignment):
    if isinstance(assignment, int):
        if not 0 <= assignment < (1 << n):
            raise ValueError(f"assignment must be in 0..{(1 << n) - 1}")
        return assignment
    bits = tuple(assignment)
    if len(bits) != n:
        raise ValueError(f"assignment must provide exactly {n} bits")
    value = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("assignment bits must be 0 or 1")
        value |= b << j
    return value


def _fold_bit(terms, assignment, values):
    acc = 0
    for t in terms:
        if t.kind == "x":
            acc ^= (assignment >> (t.idx - 1)) & 1
        elif t.kind == "T":
            acc ^= 1
        else:
            acc ^= values[t.idx - 1]
    return acc


def evaluate(c, assignment):
    """Single output bit of the circuit at one assignment; gate values are
    computed in index order.  Accepts an integer code or a bit sequence
    (x1 first)."""
    a = _coerce_assignment(c.n, assignment)
    values = []
    for left, right in c.gates:
        values.append(_fold_bit(left, a, values) & _fold_bit(right, a, values))
    return _fold_bit(c.output, a, values)


@cache
def _input_columns(n):
    """The tables of x1..xn over all 2^n assignments, bit v of x<j>'s being
    bit j-1 of v (a periodic 0-run/1-run pattern), and the table of T."""
    full = (1 << (1 << n)) - 1
    return tuple((((1 << p) - 1) << p) * (full // ((1 << 2 * p) - 1))
                 for p in (1 << j for j in range(n))), full


def _fold_table(terms, xtabs, full, values):
    acc = 0
    for t in terms:
        if t.kind == "x":
            acc ^= xtabs[t.idx - 1]
        elif t.kind == "T":
            acc ^= full
        else:
            acc ^= values[t.idx - 1]
    return acc


def truth_table(c):
    """Tables for all 2^n assignments at once, one bit-parallel sweep over
    the gates."""
    _check_arity(c.n)
    xtabs, full = _input_columns(c.n)
    values = []
    for left, right in c.gates:
        values.append(_fold_table(left, xtabs, full, values)
                      & _fold_table(right, xtabs, full, values))
    return TruthTable(c.n, _fold_table(c.output, xtabs, full, values))


def _gate_mask(terms):
    mask = 0
    for t in terms:
        if t.kind == "g":
            mask |= 1 << (t.idx - 1)
    return mask


def topology_of(c):
    """The circuit's gate-to-gate wiring only: inputs, T and the output set
    are discarded."""
    return _topo.Topology(c.k, tuple((_gate_mask(l), _gate_mask(r)) for l, r in c.gates))


def is_negation_normal(c):
    """True iff no gate XORs the constant into both of its sides."""
    return all(not (TOP in left and TOP in right) for left, right in c.gates)


_TOP_SET = frozenset({TOP})


def negation_normalize(c):
    """Remove every gate that has T on both sides, preserving the function.

    One pass in index order: a violating gate drops T from both sides, and
    every later set that uses the gate absorbs the correction terms by
    symmetric difference (XOR contributions cancel pairwise).  The pass also
    covers violations the corrections introduce downstream.
    """
    gates = list(c.gates)
    output = c.output
    changed = False
    for i in range(len(gates)):
        left, right = gates[i]
        if TOP not in left or TOP not in right:
            continue
        changed = True
        left = left - _TOP_SET
        right = right - _TOP_SET
        gates[i] = (left, right)
        fix = left ^ right ^ _TOP_SET
        ref = _g_term(i + 1)
        for j in range(i + 1, len(gates)):
            lj, rj = gates[j]
            if ref in lj:
                lj = lj ^ fix
            if ref in rj:
                rj = rj ^ fix
            gates[j] = (lj, rj)
        if ref in output:
            output = output ^ fix
    if not changed:
        return c
    return Circuit(c.n, tuple(gates), output)


def minimalize_circuit(c):
    """Rewrite gates whose topology sides are nested or whose shared part is
    not order-minimal, until the topology is minimal.

    Each rewrite replaces one gate by an equivalent gate (the two sides trade
    XOR terms and possibly T) and never changes the union of the gate's
    sides, so the function, the gate count, the layering and well-layering
    are all unchanged.  The input circuit's topology must be well-layered.
    """
    gates = list(c.gates)
    masks = [(_gate_mask(l), _gate_mask(r)) for l, r in gates]
    if _topo.well_layer_move(masks) is not None:
        raise ContractError("minimalize_circuit requires a well-layered topology")
    changed = False
    i = 1
    for _ in range(3 * len(gates) + 1):
        # A rewrite changes its own gate only, so the gates before gate i
        # stay without a fault.
        i = next((z for z, (lg, rg) in enumerate(masks[i - 1:], i)
                  if _topo.gate_fault(lg, rg)), None)
        if i is None:
            break
        changed = True
        left, right = gates[i - 1]
        lg, rg = masks[i - 1]
        # a & b == a & (a ^ b ^ T), so either side may become the XOR of both
        # sides and T.  Keep the side that leaves the shared part
        # order-minimal, which is the inner side of a nested gate.
        merged = left ^ right ^ _TOP_SET
        if min(lg & rg, lg & ~rg, rg & ~lg) == lg & ~rg:
            gates[i - 1] = (left, merged)
            masks[i - 1] = (lg, lg ^ rg)
        else:
            gates[i - 1] = (merged, right)
            masks[i - 1] = (lg ^ rg, rg)
    else:
        raise AssertionError("minimalization did not converge")
    if not changed:
        return c
    return Circuit(c.n, tuple(gates), c.output)


def _rename_terms(terms, pi):
    return frozenset(_g_term(pi[t.idx]) if t.kind == "g" else t for t in terms)


def normalize_circuit_layering(c):
    """Reorder gates (renaming references accordingly) until the circuit's
    topology is well-layered; the computed function is unchanged.  Each step
    applies ``well_layer_move`` to the gates and the output set."""
    gates = list(c.gates)
    output = c.output
    for step in range(c.k + 2):
        move = _topo.well_layer_move([(_gate_mask(l), _gate_mask(r)) for l, r in gates])
        if move is None:
            return c if step == 0 else Circuit(c.n, tuple(gates), output)
        i, pi, swap = move
        new = [None] * len(gates)
        for z, (left, right) in enumerate(gates, 1):
            left = _rename_terms(left, pi)
            right = _rename_terms(right, pi)
            if z == i and swap:
                left, right = right, left
            new[pi[z] - 1] = (left, right)
        gates = new
        output = _rename_terms(output, pi)
    raise AssertionError("layering normalization did not converge")


# --- text formats -----------------------------------------------------------

# Numbers have at most 18 digits, so each fits in 63 bits and int() never
# meets Python's limit on the length of an integer string.
_CIRCUIT_HEADER = re.compile(r"^circuit\s+n=(\d{1,18})\s+k=(\d{1,18})\s*$", re.ASCII)
_CIRCUIT_OUT = re.compile(r"^out:\s*\{([^}]*)\}\s*$", re.ASCII)
_TT_LINE = re.compile(r"^tt\s+n=(\d{1,18})\s+([01]+)\s*$", re.ASCII)
_TERM_TOKEN = re.compile(r"^(?:x(\d{1,18})|g(\d{1,18})|T)$", re.ASCII)


def _fmt_terms(terms):
    try:
        ranks = sorted(map(_TERM_RANK.__getitem__, terms))
    except KeyError:
        return "{" + ",".join(str(t) for t in sorted(terms, key=term_sort_key)) + "}"
    return "{" + ",".join(map(_RANK_TEXT.__getitem__, ranks)) + "}"


def format_circuit(c):
    lines = [f"circuit n={c.n} k={c.k}"]
    for i, (left, right) in enumerate(c.gates, 1):
        lines.append(f"gate {i}: L={_fmt_terms(left)} R={_fmt_terms(right)}")
    lines.append(f"out: {_fmt_terms(c.output)}")
    return "\n".join(lines) + "\n"


def _parse_terms(m, group, lineno):
    body = m.group(group)
    terms = frozenset(map(_TERM_BY_TEXT.get, body.split(",")))
    if None not in terms:
        return terms
    # Empty, re-spelt, out-of-table or unknown terms.
    if not body.strip(SPACE):
        return frozenset()
    terms = []
    col = m.start(group) + 1
    for piece in body.split(","):
        token = piece.strip(SPACE)
        t = _TERM_TOKEN.match(token)
        if not t:
            raise ParseError(f"unknown term {token!r}", line=lineno,
                             col=col + piece.find(token) if token else None)
        if t.group(1) is not None:
            terms.append(x(int(t.group(1))))
        elif t.group(2) is not None:
            terms.append(g(int(t.group(2))))
        else:
            terms.append(TOP)
        col += len(piece) + 1
    return frozenset(terms)


def parse_circuit(text):
    numbered = list(ascii_lines(text))
    if not numbered:
        raise ParseError("empty circuit", line=1)
    lineno, line = numbered[0]
    header = _CIRCUIT_HEADER.match(line)
    if not header:
        raise ParseError("expected 'circuit n=<n> k=<k>'", line=lineno)
    n = int(header.group(1))
    _check_header_arity(n, lineno)
    k = int(header.group(2))
    if len(numbered) != k + 2:
        raise ParseError(f"expected {k} gate lines and one 'out:' line", line=lineno)
    gates = [(_parse_terms(m, 2, lineno), _parse_terms(m, 3, lineno))
             for lineno, m in _topo._gate_matches(numbered[1:k + 1])]
    lineno, line = numbered[k + 1]
    m = _CIRCUIT_OUT.match(line)
    if not m:
        raise ParseError("expected 'out: {...}'", line=lineno)
    output = _parse_terms(m, 1, lineno)
    try:
        return Circuit(n, tuple(gates), output)
    except CircuitError as exc:
        # A bad arity is the header's; a bad term is its gate's or the output's.
        pos = _first_fault(n, gates, output)[0] if n >= 1 else 0
        raise ParseError(str(exc), line=numbered[pos][0]) from exc


def format_truth_table(tt):
    return f"tt n={tt.n} {tt.to_string()}"


def parse_truth_table(text):
    numbered = list(ascii_lines(text)) or [(1, "")]
    lineno, line = numbered[0]
    m = _TT_LINE.match(line)
    if not m or len(numbered) > 1:
        raise ParseError("expected one line 'tt n=<n> <bits>'", line=lineno)
    n = int(m.group(1))
    _check_header_arity(n, lineno)
    try:
        return TruthTable.from_string(n, m.group(2))
    except CircuitError as exc:
        raise ParseError(str(exc), line=lineno) from exc
