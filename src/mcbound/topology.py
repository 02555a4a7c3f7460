"""Topology representation, layering, canonical forms, and the
isomorph-pruned generation of all minimal well-layered gate topologies."""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice, product
from operator import countOf

from . import kernel
from ._gen_py import gate_fault, layer_masks
from .errors import CapacityError, CircuitError, ContractError, ParseError, read_ascii

MAX_GENERATE_K = 7


def mask_indices(mask):
    """Gate indices (1-based) of a gate-set bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _checked_gates(k, gates):
    """``gates`` as a tuple of int pairs, each side a mask over the gates
    before its own; raises CircuitError on the first gate that is not one.
    A side equal to an int, such as ``True``, ``1.0`` or ``1+0j``, becomes
    that int."""
    gates = tuple(gates)
    if k != len(gates):
        raise CircuitError(f"topology k={k} but {len(gates)} gates given")
    out = []
    for i, gate in enumerate(gates, 1):
        try:
            left, right = gate
            pair = int(getattr(left, "real", left)), int(getattr(right, "real", right))
        except (TypeError, ValueError, OverflowError):
            pair = None
        if pair is None or pair != (left, right):
            raise CircuitError(f"gate {i} is not a pair of integer sides: {gate!r}")
        left, right = pair
        if left < 0 or right < 0 or (left | right) >> (i - 1):
            raise CircuitError(f"gate {i} may only reference gates 1..{i - 1}")
        out.append(pair)
    return tuple(out)


@dataclass(frozen=True)
class Topology:
    """AND-gate wiring only: gate i's sides are masks over gates 1..i-1."""

    k: int
    gates: tuple

    def __post_init__(self):
        if type(self.k) is not int:
            raise CircuitError(f"topology k must be an int, not {self.k!r}")
        gates = self.gates
        checked = None
        try:
            if len(gates) == self.k <= MAX_GENERATE_K:
                # One lookup per gate both checks it and gives its shared
                # int pair; on a miss the full checks judge the gates.
                checked = tuple(map(dict.__getitem__, _gate_pairs(), gates))
        except (KeyError, TypeError):
            pass
        if checked is None:
            checked = _checked_gates(self.k, gates)
        object.__setattr__(self, "gates", checked)

    def encode(self):
        out = bytearray()
        for left, right in self.gates:
            out.append(left)
            out.append(right)
        return bytes(out)

    @classmethod
    def from_encoding(cls, data):
        """The topology whose encoding is ``data``: a left then a right
        side byte per gate."""
        k, odd = divmod(len(data), 2)
        if odd:
            raise CircuitError(f"a topology encoding has an even length, not {len(data)}")
        return cls(k, tuple(zip(data[::2], data[1::2])))


@dataclass(frozen=True)
class Layering:
    """Ordered partition of a topology's gates into layers, as bit masks."""

    layers: tuple

    @property
    def sizes(self):
        return tuple(m.bit_count() for m in self.layers)


class TopologySet:
    """Deduplicated representatives of the topology classes on k gates.

    Each member is held as its row, its validated gates as a tuple of int
    pairs; sets are equal when their k and rows are.  ``members`` builds
    the ``Topology`` views on its first read and keeps them."""

    __slots__ = ("k", "rows", "_members")

    def __init__(self, k, members):
        if type(k) is not int:
            raise CircuitError(f"topology set k must be an int, not {k!r}")
        self.k = k
        self._members = tuple(members)
        for t in self._members:
            if t.k != k:
                raise CircuitError(f"member with k={t.k} in a k={k} set")
        self.rows = tuple(t.gates for t in self._members)

    @classmethod
    def _from_rows(cls, k, rows):
        """The set of the rows, which must be valid gates of k-gate
        topologies; no ``Topology`` is built until ``members`` is read."""
        ts = cls.__new__(cls)
        ts.k = k
        ts.rows = rows
        ts._members = None
        return ts

    @property
    def count(self):
        return len(self.rows)

    @property
    def members(self):
        if self._members is None:
            k = self.k
            self._members = tuple(Topology(k, gates) for gates in self.rows)
        return self._members

    def __eq__(self, other):
        if not isinstance(other, TopologySet):
            return NotImplemented
        return self.k == other.k and self.rows == other.rows

    def __hash__(self):
        return hash((self.k, self.rows))

    def __repr__(self):
        return f"TopologySet(k={self.k}, count={self.count})"


def layering(t):
    """Maximal layering: scan gates in index order, a gate joins the current
    layer unless one of its sides already meets it."""
    return Layering(tuple(layer_masks(t.gates)))


def well_layer_move(pairs):
    """The first fix toward well-layering of a gate list, or None when every
    gate beyond the first layer uses a gate of the layer just before it.

    The fix moves the first violating gate i down to just after j, the
    highest gate it references (to the front when it references none).
    Returns ``(i, pi, swap)``: the 1-based i, the 1-based index permutation
    list ``pi`` that performs the move (gate z goes to position ``pi[z]``),
    and whether gate i's sides swap so that gate j ends up on its left."""
    prev = 0
    for mask in layer_masks(pairs):
        if prev:
            m = mask
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length()
                left, right = pairs[i - 1]
                if not (left | right) & prev:
                    j = (left | right).bit_length()
                    pi = list(range(len(pairs) + 1))
                    pi[i] = j + 1
                    for z in range(j + 1, i):
                        pi[z] = z + 1
                    return i, pi, bool(j and (right >> (j - 1)) & 1)
        prev = mask
    return None


def is_well_layered(t):
    """True iff every gate beyond the first layer uses (on either side) some
    gate of the immediately preceding layer."""
    return well_layer_move(t.gates) is None


def is_minimal(t):
    """True iff no gate has a fault under ``gate_fault``."""
    return all(gate_fault(left, right) is None for left, right in t.gates)


def canonical_form(t, backend=None):
    """Least-encoding equivalent of a well-layered topology, searched over
    within-layer index permutations and per-gate side swaps (swaps never
    disturb the layering, which only sees the union of a gate's sides).
    Two well-layered topologies are equivalent iff their canonical forms are
    equal; validated exhaustively against permutation search for k <= 4."""
    if not is_well_layered(t):
        raise ContractError("canonical_form requires a well-layered topology")
    if t.k == 0:
        return t
    kern = kernel.get_backend(backend)
    key, _ = kern.canonical_keys(t.gates, layering(t).sizes)
    return Topology.from_encoding(key)


def _walk(roots, depth, k, backend, collect, split=False):
    """Depth-first class walk below the partial topologies ``roots``, which
    all have ``depth`` layers.

    Each parent is extended by one layer and every child is walked at once.
    No state is shared between parents: removing a child's last layer gives
    back its parent, so different parent classes never yield equivalent
    children.  A child without a minimal relabeling is dropped, full or
    partial, because any minimal relabeling of a descendant restricts to one
    of its prefix.  With ``split`` the roots' partial children are returned
    instead of walked.

    Returns ``(count, kept, tally, frontier)``: the number of full
    descendants that have a minimal relabeling; their key_min encodings in
    walk order, with ``collect`` (else empty); per layer count d,
    ``tally[d]`` holds the full keys, the kept partials and the pruned
    partials among the children with d layers; and the partial children not
    walked.
    """
    kern = kernel.get_backend(backend)
    full_len = 2 * k
    tally = [[0, 0, 0] for _ in range(k + 1)]
    kept = []
    count = 0
    frontier = []
    for enc in roots:
        # The children of each parent on the current path, as an iterator;
        # a kept partial child is walked before its next sibling.
        path = [iter(kern.extend(enc, k))]
        while path:
            row = tally[depth + len(path)]
            for key_any, key_min in path[-1]:
                if len(key_any) == full_len:
                    row[0] += 1
                    if key_min is not None:
                        count += 1
                        if collect:
                            kept.append(key_min)
                elif key_min is None:
                    row[2] += 1
                else:
                    row[1] += 1
                    if split:
                        frontier.append(key_any)
                    else:
                        path.append(iter(kern.extend(key_any, k)))
                        break
            else:
                path.pop()
    return count, kept, tally, frontier


def _classes(k, workers, backend, progress, collect):
    """``(count, kept)`` of ``_walk`` over every class on k gates, from the
    single-layer seeds of 1..k-1 empty gates.  The seeds are expanded here;
    the subtrees below their partial children are walked one by one, or
    shared out among spawned processes with several workers, and
    ``progress`` hears of each finished subtree."""
    if k < 0:
        raise ValueError("gate count must be non-negative")
    if k > MAX_GENERATE_K:
        raise CapacityError(f"generation is capped at k <= {MAX_GENERATE_K}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if k == 0:
        return 0, []
    kern = kernel.get_backend(backend)
    roots = [bytes(2 * length) for length in range(1, k)]
    count, kept, tally, frontier = _walk(roots, 1, k, kern.BACKEND, collect, split=True)

    def merge(results):
        nonlocal count
        for done, (sub_count, sub_kept, sub_tally, _) in enumerate(results, 1):
            count += sub_count
            kept.extend(sub_kept)
            for row, sub_row in zip(tally, sub_tally):
                row[:] = [a + b for a, b in zip(row, sub_row)]
            if progress:
                progress({"phase": "subtree", "k": k, "done": done, "total": len(frontier)})

    subtree = partial(_walk, depth=2, k=k, backend=kern.BACKEND, collect=collect)
    jobs = ([enc] for enc in frontier)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            merge(pool.map(subtree, jobs))
    else:
        merge(map(subtree, jobs))
    # The k empty gates form a full single-layer seed, its own minimal form.
    tally[1][0] += 1
    count += 1
    kept.append(bytes(2 * k))
    if progress:
        complete = tally[1][0]
        for depth in range(2, k + 1):
            full, partials, pruned = tally[depth]
            complete += full
            progress({"phase": "round", "k": k, "round": depth, "complete": complete,
                      "partial": partials, "pruned": pruned})
    return count, kept


def count_classes(k, *, workers=1, backend=None, progress=None):
    """Number of classes of minimal well-layered topologies on exactly k
    gates: ``generate(k).count`` without building any member."""
    return _classes(k, workers, backend, progress, collect=False)[0]


def generate(k, *, workers=1, backend=None, progress=None):
    """Representatives of every class of minimal well-layered topologies on
    exactly k gates.

    A depth-first walk (``_walk``) grows the single-layer seeds one layer at
    a time: every new gate must use the current last layer and may not have
    one side nested in the other, each parent's children are deduplicated
    by canonical key, and a class is kept exactly when some relabeling
    satisfies the minimality conditions.  The least minimal relabeling is
    the stored representative, and members are sorted by encoding, so the
    result is a function of k alone, independent of worker count and
    backend.  ``progress`` receives a ``"subtree"`` event as each subtree
    below the seeds' partial children is walked, and one ``"round"`` event
    per layer count when the walk ends, before the rows are built.  Workers
    are spawned processes, so a script that asks for more than one must call
    this under ``if __name__ == "__main__":``.
    """
    _, kept = _classes(k, workers, backend, progress, collect=True)
    kept.sort()
    pairs = _shared_pairs()
    unpack = struct.Struct(f">{k}H").unpack  # one (left << 8 | right) per gate
    return TopologySet._from_rows(k, tuple(tuple(map(pairs.__getitem__, unpack(enc)))
                                           for enc in kept))


@cache
def _gate_pairs():
    """Per gate i <= MAX_GENERATE_K (index i - 1), each valid ``(left,
    right)`` pair of gate i mapped to itself.  A pair is one tuple shared by
    every table, and a lookup by an equal pair, such as ``(True, 0)``, gives
    the shared int pair."""
    every = {pair: pair for pair in product(range(1 << (MAX_GENERATE_K - 1)), repeat=2)}
    shared = every.__getitem__
    return tuple({pair: pair for pair in map(shared, product(range(1 << (i - 1)), repeat=2))}
                 for i in range(1, MAX_GENERATE_K)) + (every,)


@cache
def _shared_pairs():
    """The shared pair of each gate of a topology on at most MAX_GENERATE_K
    gates, keyed by ``left << 8 | right``."""
    return {pair[0] << 8 | pair[1]: pair for pair in _gate_pairs()[-1]}


# --- text formats -----------------------------------------------------------

# Numbers have at most 18 digits, so each fits in 63 bits and int() never
# meets Python's limit on the length of an integer string.
_TOPOLOGY_HEADER = re.compile(r"^topology\s+k=(\d{1,18})\s*$", re.ASCII)
_GATE_LINE = re.compile(r"^gate\s+(\d{1,18}):\s*L=\{([^}]*)\}\s*R=\{([^}]*)\}\s*$", re.ASCII)
_SET_HEADER = re.compile(r"^topologyset\s+k=(\d{1,18})\s+count=(\d{1,18})\s*$", re.ASCII)


def _ascii_number(text):
    """The value of ``text`` when it is 1 to 18 ASCII digits, else None."""
    if text.isascii() and text.isdecimal() and len(text) <= 18:
        return int(text)
    return None


# Canonical text of every side mask below 256 (every side of a topology on
# at most 9 gates), fixed at import.
_MASK_TEXT = tuple(",".join(map(str, mask_indices(mask))) for mask in range(256))


def _fmt_mask(mask):
    if mask < len(_MASK_TEXT):
        return _MASK_TEXT[mask]
    return ",".join(map(str, mask_indices(mask)))


def _gate_line(i, left, right):
    return f"gate {i}: L={{{_fmt_mask(left)}}} R={{{_fmt_mask(right)}}}"


def _topology_text(k, gates):
    return "\n".join([f"topology k={k}"]
                     + [_gate_line(i, left, right) for i, (left, right) in enumerate(gates, 1)])


def format_topology(t):
    return _topology_text(t.k, t.gates)


@cache
def _gate_lines():
    """Per gate i <= MAX_GENERATE_K (index i - 1), the canonical line of each
    valid pair of gate i mapped to its shared pair: 5,461 lines in all,
    built on first use."""
    return tuple({_gate_line(i, *pair): pair for pair in pairs}
                 for i, pairs in enumerate(_gate_pairs(), 1))


@cache
def _gate_texts():
    """The inverse of ``_gate_lines``: per gate i (index i - 1), the
    canonical line of each of its pairs."""
    return tuple({pair: line for line, pair in lines.items()} for lines in _gate_lines())


def _parse_index_set(text, gate):
    """Mask of a side-set body such as ``"1,3"`` of gate number ``gate``;
    raises ValueError on a token that is not an ASCII gate index of 1 to 18
    digits and at least 1, and on an index of ``gate`` or more."""
    mask = 0
    body = text.strip()
    for token in body.split(",") if body else ():
        token = token.strip()
        index = _ascii_number(token)
        if not index:
            raise ValueError(f"bad gate index {token!r}")
        # An index past the gate sets only bit gate-1, so the mask stays small.
        mask |= 1 << (min(index, gate) - 1)
    if mask >> (gate - 1):
        raise ValueError(f"gate {gate} may only reference gates 1..{gate - 1}")
    return mask


def _parse_topology_lines(lines, start_lineno):
    """The gates of the topology block ``lines``, a tuple of int pairs, each
    checked as its line is read."""
    header = _TOPOLOGY_HEADER.match(lines[0])
    if not header:
        raise ParseError("expected 'topology k=<k>'", line=start_lineno)
    k = int(header.group(1))
    if len(lines) != k + 1:
        raise ParseError(f"expected {k} gate lines", line=start_lineno)
    match = _GATE_LINE.match
    gates = []
    for i in range(1, k + 1):
        m = match(lines[i])
        if not m:
            raise ParseError("expected 'gate <i>: L={...} R={...}'", line=start_lineno + i)
        number, left, right = m.groups()
        if int(number) != i:
            raise ParseError(f"gate numbered {number}, expected {i}", line=start_lineno + i)
        try:
            gates.append((_parse_index_set(left, i), _parse_index_set(right, i)))
        except ValueError as exc:
            raise ParseError(str(exc), line=start_lineno + i) from None
    return tuple(gates)


def parse_topology(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty topology", line=1)
    gates = _parse_topology_lines(lines, 1)
    return Topology(len(gates), gates)


def format_topology_set(ts):
    k = ts.k
    blocks = [f"topologyset k={k} count={ts.count}"]
    if k <= MAX_GENERATE_K:
        # Rows are valid gates, so every gate's line is in the table.
        head = f"topology k={k}"
        texts = _gate_texts()[:k]
        blocks += ["\n".join([head, *map(dict.__getitem__, texts, gates)]) for gates in ts.rows]
    else:
        blocks += [_topology_text(k, gates) for gates in ts.rows]
    return "\n\n".join(blocks) + "\n"


def _column_rows(lines, start, k, count):
    """The rows of the set when ``lines[start:]`` are exactly ``count``
    blocks of k <= MAX_GENERATE_K gates, each after one empty line, spelt
    as ``format_topology_set`` writes them; else None.  The lines of each
    gate number form one column, read by one ``_gate_lines`` lookup a line."""
    step = k + 2
    if len(lines) - start != count * step \
            or countOf(islice(lines, start, None, step), "") != count \
            or countOf(islice(lines, start + 1, None, step), f"topology k={k}") != count:
        return None
    columns = [map(table.__getitem__, islice(lines, start + 1 + i, None, step))
               for i, table in enumerate(_gate_lines()[:k], 1)]
    try:
        return tuple(zip(*columns))
    except KeyError:
        return None


def parse_topology_set(text):
    """The topology set in ``text``.  Text laid out exactly as
    ``format_topology_set`` writes it, with k <= MAX_GENERATE_K, is read a
    gate number at a time by ``_column_rows``.  Any other text, including
    every text with an error, goes through the block parser: it checks each
    member against the header as its block ends, and fails on a block past
    the header's count before parsing it.  There a block spelt as
    ``format_topology_set`` writes it costs one ``_gate_lines`` lookup per
    gate; any other goes through ``_parse_topology_lines``."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise ParseError("empty topology set", line=1)
    header = _SET_HEADER.match(lines[idx])
    if not header:
        raise ParseError("expected 'topologyset k=<k> count=<c>'", line=idx + 1)
    k = int(header.group(1))
    count = int(header.group(2))
    if 0 < k <= MAX_GENERATE_K:
        rows = _column_rows(lines, idx + 1, k, count)
        if rows is not None:
            return TopologySet._from_rows(k, rows)
    rows = []
    head = f"topology k={k}"
    tables = _gate_lines()[:k] if k <= MAX_GENERATE_K else ()
    lines.append("")  # closes the last block
    pos = idx + 1
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        if len(rows) == count:
            raise ParseError(f"more than count={count} blocks", line=pos + 1)
        end = pos + k + 1
        if tables and lines[pos] == head and end < len(lines) and not lines[end].strip():
            # A block of k canonical gate lines: one lookup a gate.
            try:
                rows.append(tuple(map(dict.__getitem__, tables, lines[pos + 1:end])))
                pos = end + 1
                continue
            except KeyError:
                pass
        end = pos + 1
        while lines[end].strip():
            end += 1
        gates = _parse_topology_lines(lines[pos:end], pos + 1)
        if len(gates) != k:
            raise ParseError(f"member with k={len(gates)} in a k={k} set", line=pos + 1)
        rows.append(gates)
        pos = end + 1
    if len(rows) != count:
        raise ParseError(f"header says count={count} but {len(rows)} blocks found", line=idx + 1)
    return TopologySet._from_rows(k, tuple(rows))


def save_topology_set(ts, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_topology_set(ts))


def load_topology_set(path):
    return parse_topology_set(read_ascii(path))
