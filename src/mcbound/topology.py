"""Topology representation, layering, canonical forms, and the
isomorph-pruned generation of all minimal well-layered gate topologies."""

from __future__ import annotations

import io
import re
import struct
from collections import namedtuple
from functools import cache, partial
from itertools import chain, islice, product, repeat
from operator import add, countOf

from . import kernel
from ._gen_py import child_shapes, gate_fault, layer_masks, parent_shape
from .errors import (SPACE, CapacityError, CircuitError, ContractError, ParseError,
                     _ascii_number, ascii_line, ascii_lines)

MAX_GENERATE_K = 7
# generate keeps every class key, about 56 bytes each: some 28 MB for the
# 506,935 classes on 6 gates, but some 17 GB for the 312,463,157 on 7.
_MAX_KEPT_K = 6


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


class Topology(namedtuple("Topology", "k gates")):
    """AND-gate wiring only: gate i's sides are masks over gates 1..i-1.

    An immutable named tuple: equal to, and unpacked like, the plain tuple
    ``(k, gates)``.  Every construction, including ``_make``, ``_replace``,
    a copy and an unpickling, goes through ``__new__`` and its checks, with
    two exceptions that build the tuple from gates already checked:
    ``from_encoding``, whose table lookups (``_DECODERS``) check a ``bytes``
    encoding of at most MAX_GENERATE_K gates, and ``TopologySet.members``,
    whose rows were checked when the set was built."""

    __slots__ = ()

    def __new__(cls, k, gates):
        if type(k) is not int:
            raise CircuitError(f"topology k must be an int, not {k!r}")
        checked = None
        try:
            if len(gates) == k <= MAX_GENERATE_K:
                # One lookup per gate both checks it and gives its shared
                # int pair; on a miss the full checks judge the gates.
                checked = tuple(map(dict.__getitem__, _gate_pairs(), gates))
        except (KeyError, TypeError):
            pass
        if checked is None:
            checked = _checked_gates(k, gates)
        return tuple.__new__(cls, (k, checked))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    def encode(self):
        out = bytearray()
        for left, right in self.gates:
            out.append(left)
            out.append(right)
        return bytes(out)

    @classmethod
    def from_encoding(cls, data):
        """The topology whose encoding is ``data``: a left then a right
        side byte per gate.  ``bytes`` of at most MAX_GENERATE_K gates reach
        their decoder by one lookup of their length in ``_DECODERS`` and
        are decoded with one table lookup per gate; anything else, and an
        encoding with a gate that misses its table, goes through the checks
        of ``__new__``, which name an odd length or the first bad gate."""
        if type(data) is bytes:
            try:
                k, decode = _DECODERS[len(data)]
                return tuple.__new__(cls, (k, decode(data)))
            except KeyError:
                pass
        k, odd = divmod(len(data), 2)
        if odd:
            raise CircuitError(f"a topology encoding has an even length, not {len(data)}")
        return cls(k, tuple(zip(data[::2], data[1::2])))


class Layering(namedtuple("Layering", "layers")):
    """Ordered partition of a topology's gates into layers, as bit masks."""

    __slots__ = ()

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
        if k < 0:
            raise CircuitError(f"topology set k must be non-negative, not {k}")
        self.k = k
        self._members = tuple(members)
        for t in self._members:
            if t.k != k:
                raise CircuitError(f"member with k={t.k} in a k={k} set")
        self.rows = tuple(t.gates for t in self._members)

    @classmethod
    def _from_rows(cls, k, rows):
        """The set of the rows, which must be valid gates of k-gate
        topologies, each a tuple of int pairs: ``members`` builds its views
        from them without checking them again, and not until it is read."""
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
            new, k = tuple.__new__, self.k
            self._members = tuple([new(Topology, (k, gates)) for gates in self.rows])
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


def canonical_form(t):
    """Least-encoding equivalent of a well-layered topology, searched over
    within-layer index permutations and per-gate side swaps (swaps never
    disturb the layering, which only sees the union of a gate's sides).
    Two well-layered topologies are equivalent iff their canonical forms are
    equal; validated exhaustively against permutation search for k <= 4."""
    if not is_well_layered(t):
        raise ContractError("canonical_form requires a well-layered topology")
    kern = kernel.get_backend()
    if t.k > kern.MAX_GATES:  # before its sides may overflow the encoding's bytes
        raise ValueError(f"kernel supports at most {kern.MAX_GATES} gates, got {t.k}")
    key, _ = kern.canonical_keys(t.encode())
    return Topology.from_encoding(key)


def _descend(extend, rep, shape, k, tally, found, split=False):
    """Add the key_min encodings of the full children at and below the
    parent ``rep`` of ``shape`` (``extend(rep, k)``) to the list ``found``,
    and its children at every depth to ``tally``; recursive, at most k deep.
    Its partial children that have a key_min are ``rep`` followed by each of
    the layers that ``child_shapes`` gives, with their shapes; with
    ``split`` they are returned as ``(rep, shape)`` pairs instead of
    walked."""
    full, keys = extend(rep, k)
    found += keys
    at = 3 * len(shape[0]) + 3
    tally[at] += full
    children = []
    for width in range(1, k - len(rep) // 2):
        kept, pruned = child_shapes(shape, width)
        tally[at + 2] += pruned
        size = 2 * width
        for child, layers in kept:
            children += [(rep + layers[i:i + size], child) for i in range(0, len(layers), size)]
    tally[at + 1] += len(children)
    if split:
        return children
    for child in children:
        _descend(extend, *child, k, tally, found)


def _walk(roots, k, backend, split=False):
    """``generate``'s depth-first class walk below the partial topologies
    ``roots``, as ``(rep, shape)`` pairs: with ``split`` the single-layer
    seeds, whose partial children are returned instead of walked, else such
    children, of two layers.

    Each parent's full children come from the kernel's ``extend``, and its
    partial children from ``child_shapes``, which derives them from its
    shape; every child is walked at once.  No key seen is kept for later
    parents: removing a child's last layer gives back its parent, so
    different parent classes never yield equivalent children.  A child
    without a minimal relabeling is dropped, full or partial, because any
    minimal relabeling of a descendant restricts to one of its prefix.
    Returns ``(found, tally, frontier)``: the key_min encodings of the full
    children; per layer count d, ``tally[3 * d:3 * d + 3]`` holds the full
    keys, the kept partials and the pruned partials among the children with
    d layers; and the partial children not walked.
    """
    extend = kernel.get_backend(backend).extend
    tally = [0] * (3 * k + 3)
    found, frontier = [], []
    for rep, shape in roots:
        if split:
            frontier += _descend(extend, rep, shape, k, tally, found, split)
        else:
            _descend(extend, rep, shape, k, tally, found)
    return found, tally, frontier


# Each parent shape's subtree total, ``_shape_total``'s ``(found, tally)``,
# per ``(kernel name, parent shape, k)``, filled on first use and kept for
# the process, so that a count that runs again only adds its seeds' totals.
# k is part of the key because it fixes the width of the shape's last layer
# and the tally's length; the kernel's name is too, so that one kernel's
# count never answers for the other's.  A key is fixed by its parent's
# class, of at most 6 gates, and an entry is made by the one kernel call
# for its key, so the cache is bounded whatever the input: a cold count for
# k=5, 6 or 7 fills 28, 126 or 749 entries per kernel, and the counts for
# k = 1..7 together 915.
_TOTALS: dict[tuple, tuple[int, tuple[int, ...]]] = {}


@cache
def _seed_shape(length):
    """The shape of the seed of ``length`` empty gates, made once per
    length, which ``_check_gate_count`` bounds by MAX_GENERATE_K."""
    return parent_shape(bytes(2 * length))


def _shape_total(kern, rep, shape, k):
    """``(found, tally)`` at and below the parent ``rep`` of ``shape``, as
    ``_walk`` finds and tallies them, found being a count: its full
    children that have a key_min, counted by the kernel ``kern``'s
    ``count_extend(rep, k)``, and below its partial children that have a
    key_min, one ``(shape, layers)`` per distinct shape
    (``_gen_py.child_shapes``), each child shape's total weighted by its
    number of classes, one per layer.  Made once per kernel, shape and k in
    a process (``_TOTALS``): 0, 1, 3, 8, 28, 126 and 749 kernel calls for
    k = 1..7 in a cold process, and none when the same count runs again.

    No partial child is keyed: the ``rep`` of a child is ``rep`` followed
    by the first of the ``layers`` that ``child_shapes`` gives, the child's
    key_any.  That is exact.  The seeds are their own least encodings, and so, by
    ``child_shapes``, is every ``rep`` below them, as ``child_shapes``
    needs.  The kernel's count reads only the parent's shape and the width
    (``_gen_py._Parent.count_full``), and so does ``child_shapes``, so by
    induction on k minus the parent's gate count all that is found and
    tallied below a parent follows from its shape and k, which fixes every
    width."""
    key = kern.BACKEND, shape, k
    total = _TOTALS.get(key)
    if total is None:
        full, found = kern.count_extend(rep, k)
        tally = [0] * (3 * k + 3)
        at = 3 * len(shape[0]) + 3
        tally[at] = full
        for width in range(1, k - len(rep) // 2):
            kept, pruned = child_shapes(shape, width)
            tally[at + 2] += pruned
            for child, layers in kept:
                times = len(layers) // (2 * width)
                tally[at + 1] += times
                child_found, child_tally = _shape_total(kern, rep + layers[:2 * width], child, k)
                found += times * child_found
                tally = [mine + times * theirs for mine, theirs in zip(tally, child_tally)]
        total = _TOTALS[key] = found, tuple(tally)
    return total


def _check_gate_count(k):
    """Raise before any work on a gate count that no walk takes."""
    if k < 0:
        raise ValueError("gate count must be non-negative")
    if k > MAX_GENERATE_K:
        raise CapacityError(f"generation is capped at k <= {MAX_GENERATE_K}")


def _report_rounds(progress, k, tally):
    """Send ``progress`` one ``"round"`` event per layer count of 2..k, from
    a walk's ``tally``."""
    complete = tally[3] + 1  # and the full seed
    for depth in range(2, k + 1):
        full, partials, pruned = tally[3 * depth:3 * depth + 3]
        complete += full
        progress({"phase": "round", "k": k, "round": depth, "complete": complete,
                  "partial": partials, "pruned": pruned})


def _classes(k, workers, backend, progress):
    """``generate``'s key_min encodings of every class on k gates, from the
    single-layer seeds of 1..k-1 empty gates (``_walk``).  The caller adds
    the full seed of k empty gates, its own minimal form.  The seeds are
    expanded here; the subtrees below their partial children are walked one
    by one, or shared out among spawned processes with several workers, and
    ``progress`` hears of each finished subtree."""
    _check_gate_count(k)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    backend = kernel.get_backend(backend).BACKEND
    roots = [(bytes(2 * length), _seed_shape(length)) for length in range(1, k)]
    found, tally, frontier = _walk(roots, k, backend, split=True)

    def merge(results):
        for done, (sub_found, sub_tally, _) in enumerate(results, 1):
            found.extend(sub_found)
            tally[:] = map(add, tally, sub_tally)
            if progress:
                progress({"phase": "subtree", "k": k, "done": done, "total": len(frontier)})

    subtree = partial(_walk, k=k, backend=backend)
    jobs = ([entry] for entry in frontier)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            merge(pool.map(subtree, jobs))
    else:
        merge(map(subtree, jobs))
    if progress and k:  # no gates, no rounds
        _report_rounds(progress, k, tally)
    return found


def count_classes(k, *, backend=None, progress=None):
    """Number of classes of minimal well-layered topologies on exactly k
    gates: ``generate(k).count``, as the sum of the seeds' subtree totals
    over parent shapes (``_shape_total``), so no class is keyed and a count
    that runs again in a process is k - 1 lookups.  ``progress`` receives
    ``generate``'s events: a ``"subtree"`` event per kept partial class of
    the seeds, then a ``"round"`` event per layer count, once every total
    is known."""
    _check_gate_count(k)
    kern = kernel.get_backend(backend)
    found, tally = 0, [0] * (3 * k + 3)
    for length in range(1, k):
        seed_found, seed_tally = _shape_total(kern, bytes(2 * length), _seed_shape(length), k)
        found += seed_found
        tally[:] = map(add, tally, seed_tally)
    if progress and k > 1:  # one gate, no subtrees and no rounds
        # the seeds' kept partial children, each the root of one of
        # generate's subtrees, are the kept partials of two layers
        subtrees = tally[7]
        for done in range(1, subtrees + 1):
            progress({"phase": "subtree", "k": k, "done": done, "total": subtrees})
        _report_rounds(progress, k, tally)
    # The k empty gates form a full single-layer seed, its own minimal form.
    return found + (k > 0)


def generate(k, *, workers=1, backend=None, progress=None):
    """Representatives of every class of minimal well-layered topologies on
    exactly k gates.

    A depth-first walk (``_walk``) grows the single-layer seeds one layer at
    a time: every new gate must use the current last layer and may not have
    one side nested in the other, and a class is kept exactly when some
    relabeling satisfies the minimality conditions.  Each parent is walked
    at its least encoding with its shape, as ``count_classes`` walks shapes:
    the kernel's ``extend`` hands over the least minimal relabeling, the
    stored representative, of each of its full children, and
    ``_gen_py.child_shapes`` gives the least encodings and shapes of its
    partial children, one per class.  Members are sorted by encoding, so the
    result is a function of k alone, independent of worker count and
    backend.  ``progress`` receives a ``"subtree"`` event as each subtree
    below the seeds' partial children is walked, and one ``"round"`` event
    per layer count when the walk ends, before the rows are built.  Workers
    are spawned processes, so a script that asks for more than one must call
    this under ``if __name__ == "__main__":``; ``count_classes``, which
    keys no class and keeps what it counts for the process, takes none.
    Past k = 6 it raises
    CapacityError before it walks, as the keys would not fit in memory.
    """
    if k > _MAX_KEPT_K:
        raise CapacityError(f"generate is capped at k <= {_MAX_KEPT_K}: the classes on more "
                            f"gates would not fit in memory; count_classes counts them")
    kept = _classes(k, workers, backend, progress)
    if k:
        kept.append(bytes(2 * k))  # the full seed, as in count_classes
    kept.sort()
    return TopologySet._from_rows(k, tuple(map(_decoder(k), kept)))


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
def _gate_codes():
    """Per gate i <= MAX_GENERATE_K (index i - 1), the code ``left << 8 |
    right`` of each valid pair of gate i mapped to its shared pair."""
    return tuple({pair[0] << 8 | pair[1]: pair for pair in pairs.values()}
                 for pairs in _gate_pairs())


@cache
def _decoder(k):
    """The function from a ``bytes`` encoding of k <= MAX_GENERATE_K gates to
    its gates as shared pairs: one ``struct`` unpack into the gates' codes,
    then one ``_gate_codes`` lookup per gate, which raises KeyError on a gate
    that is not valid."""
    unpack = struct.Struct(f">{k}H").unpack
    codes = _gate_codes()
    return lambda data: tuple(map(dict.__getitem__, codes, unpack(data)))


class _DecoderTable(dict):
    """The length of a ``bytes`` encoding of k <= MAX_GENERATE_K gates
    mapped to ``(k, _decoder(k))``, each entry added on its first lookup;
    any other length raises KeyError."""

    __slots__ = ()

    def __missing__(self, length):
        k, odd = divmod(length, 2)
        if odd or k > MAX_GENERATE_K:
            raise KeyError(length)
        self[length] = entry = (k, _decoder(k))
        return entry


_DECODERS = _DecoderTable()


# --- text formats -----------------------------------------------------------

# Numbers have at most 18 digits, so each fits in 63 bits and int() never
# meets Python's limit on the length of an integer string.
_TOPOLOGY_HEADER = re.compile(r"^topology\s+k=(\d{1,18})\s*$", re.ASCII)
_GATE_LINE = re.compile(r"^gate\s+(\d{1,18}):\s*L=\{([^}]*)\}\s*R=\{([^}]*)\}\s*$", re.ASCII)
_SET_HEADER = re.compile(r"^topologyset\s+k=(\d{1,18})\s+count=(\d{1,18})\s*$", re.ASCII)


@cache
def _mask_texts():
    """Canonical text of every side mask below 256 (every side of a
    topology on at most 9 gates), built on first use."""
    return tuple(",".join(map(str, mask_indices(mask))) for mask in range(256))


def _fmt_mask(mask):
    texts = _mask_texts()
    if mask < len(texts):
        return texts[mask]
    return ",".join(map(str, mask_indices(mask)))


def _gate_line(i, left, right):
    return f"gate {i}: L={{{_fmt_mask(left)}}} R={{{_fmt_mask(right)}}}"


def _topology_text(k, gates):
    return "\n".join([f"topology k={k}"]
                     + [_gate_line(i, left, right) for i, (left, right) in enumerate(gates, 1)])


def format_topology(t):
    return _topology_text(t.k, t.gates)


@cache
def _gate_texts():
    """Per gate i <= MAX_GENERATE_K (index i - 1), each valid pair of gate i
    mapped to its canonical line: 5,461 lines in all, built on first use."""
    return tuple({pair: _gate_line(i, *pair) for pair in pairs}
                 for i, pairs in enumerate(_gate_pairs(), 1))


def _parse_index_set(text, gate):
    """Mask of a side-set body such as ``"1,3"`` of gate number ``gate``;
    raises ValueError on a token that is not an ASCII gate index of 1 to 18
    digits and at least 1, and on an index of ``gate`` or more."""
    mask = 0
    body = text.strip(SPACE)
    for token in body.split(",") if body else ():
        token = token.strip(SPACE)
        index = _ascii_number(token)
        if not index:
            raise ValueError(f"bad gate index {token!r}")
        # An index past the gate sets only bit gate-1, so the mask stays small.
        mask |= 1 << (min(index, gate) - 1)
    if mask >> (gate - 1):
        raise ValueError(f"gate {gate} may only reference gates 1..{gate - 1}")
    return mask


def _gate_matches(numbered):
    """The ``(lineno, match)`` of each ``(lineno, line)`` pair of ``numbered``
    as it is read; a line must match _GATE_LINE, numbered by its place."""
    for i, (lineno, line) in enumerate(numbered, 1):
        m = _GATE_LINE.match(line)
        if not m:
            raise ParseError("expected 'gate <i>: L={...} R={...}'", line=lineno)
        if int(m.group(1)) != i:
            raise ParseError(f"gate numbered {m.group(1)}, expected {i}", line=lineno)
        yield lineno, m


def _parse_topology_lines(numbered):
    """The gates, as int pairs, of the block read from ``numbered``, an iterator
    over its ``(lineno, line)`` pairs: the header, then at most k + 1 lines."""
    start, line = next(numbered, (1, ""))  # an empty text lacks its header at line 1
    header = _TOPOLOGY_HEADER.match(line)
    if not header:
        raise ParseError("expected 'topology k=<k>'", line=start)
    k = int(header.group(1))
    lines = list(islice(numbered, k + 1))
    if len(lines) != k:
        raise ParseError(f"expected {k} gate lines", line=start)
    gates = []
    for i, (lineno, m) in enumerate(_gate_matches(lines), 1):
        try:
            gates.append((_parse_index_set(m.group(2), i), _parse_index_set(m.group(3), i)))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return tuple(gates)


def parse_topology(text):
    gates = _parse_topology_lines(ascii_lines(text))
    return Topology(len(gates), gates)


# Bytes read from a file at a time, and blocks read or written at a time.
_CHUNK_BYTES = 1 << 16
_CHUNK_BLOCKS = 256


def _set_chunks(ts):
    """The text of ``ts`` as ``format_topology_set`` writes it, in pieces
    that a newline joins: its header line, then the blocks of each run of
    _CHUNK_BLOCKS members, each block after a blank line.

    Up to MAX_GENERATE_K gates, a chunk's rows are read a column at a time:
    each gate's column is looked up in its ``_gate_texts()`` table, and the
    chunk's lines are joined once."""
    k, rows = ts.k, ts.rows
    yield f"topologyset k={k} count={len(rows)}"
    if k <= MAX_GENERATE_K:
        # Rows are valid gates, so every gate's line is in the table.
        head = f"topology k={k}"
        lookups = [texts.__getitem__ for texts in _gate_texts()[:k]]
    for start in range(0, len(rows), _CHUNK_BLOCKS):
        chunk = rows[start:start + _CHUNK_BLOCKS]
        n = len(chunk)  # bounds the zip below, which has no gate column at k=0
        if k <= MAX_GENERATE_K:
            lines = (repeat(head, n), *map(map, lookups, zip(*chunk)))
        else:
            lines = (map(_topology_text, repeat(k, n), chunk),)
        yield "\n".join(chain.from_iterable(zip(repeat("", n), *lines)))


def format_topology_set(ts):
    """The text of ``ts``: its header line, then one block per member as
    ``format_topology`` writes it, a blank line before each, and a newline
    at the end; built a chunk of _CHUNK_BLOCKS members at a time.  The join
    writes the last newline, before an empty last piece, so the text is
    copied once."""
    return "\n".join(chain(_set_chunks(ts), ("",)))


@cache
def _line_tables(eol):
    """Per gate i <= MAX_GENERATE_K (index i - 1), the canonical line of
    each valid pair of gate i as ASCII bytes ended by ``eol`` (``b"\\n"`` or
    ``b"\\r\\n"``), the line as read, mapped to its shared pair: 5,461 lines
    in all, built on first use."""
    return tuple({line.encode() + eol: pair for pair, line in texts.items()}
                 for texts in _gate_texts())


def _block_row(lines, start, k, head, tables):
    """The gates of the block ``lines``, which starts at line ``start`` with
    the header of a k-gate topology and has at most k gate lines, all ASCII.
    A block spelt as ``format_topology_set`` writes it costs one lookup per
    gate in ``tables``; any other goes through ``_parse_topology_lines``."""
    if tables is not None and len(lines) == k + 1 and lines[0] == head:
        try:
            return tuple(map(dict.__getitem__, tables, lines[1:]))
        except KeyError:
            pass
    return _parse_topology_lines(enumerate(map(bytes.decode, lines), start))


def _set_rows(lines, k, count, header_line, eol):
    """The rows of the set whose header, at line ``header_line`` and ended
    by ``eol``, gave k and count, in tuples of rows, read from ``lines``, an
    iterator over the lines after the header, as bytes each ended by
    ``b"\\n"`` but perhaps the last.

    While the layout is the one ``format_topology_set`` writes, the lines
    are read in chunks of _CHUNK_BLOCKS blocks, each block with the blank
    line after it, and the lines of each gate number are looked up as one
    column in ``_line_tables(eol)``.  A chunk laid out in any other way,
    including every chunk with an error, is read a line at a time, and so
    are the lines after it up to the next blank line.  A block fails at its
    first line when it is past the header's count or names another k, and
    at its (k + 2)-th line when it has too many."""
    head = f"topology k={k}".encode() + eol
    tables = _line_tables(eol)[:k] if 0 < k <= MAX_GENERATE_K else None
    size = k + 2  # a block as written, with the blank line after it
    lineno, found = header_line, 0
    block, start = [], 0  # the block being read a line at a time, and its first line
    pending = []  # a chunk read but not laid out as written
    while True:
        spare = len(pending)
        for line in chain(pending, lines):
            spare -= 1
            lineno += 1
            if line.strip():
                if not block:
                    if found == count:
                        raise ParseError(f"more than count={count} blocks", line=lineno)
                    if line != head:
                        header = _TOPOLOGY_HEADER.match(ascii_line(line, lineno))
                        if not header:
                            raise ParseError("expected 'topology k=<k>'", line=lineno)
                        if int(header.group(1)) != k:
                            raise ParseError(f"member with k={int(header.group(1))} in a k={k} "
                                             f"set", line=lineno)
                    start = lineno
                else:
                    ascii_line(line, lineno)  # checked as it is read, as parse_topology does
                    if len(block) > k:
                        raise ParseError(f"expected {k} gate lines", line=start)
                block.append(line)
            elif block:
                yield (_block_row(block, start, k, head, tables),)
                found += 1
                block = []
            if spare <= 0 and tables is not None and not block:
                break  # past the chunk and between blocks: read by chunks again
        else:
            break  # the end of the text
        pending = []
        while chunk := list(islice(lines, size * min(_CHUNK_BLOCKS, count - found))):
            if len(chunk) % size == size - 1:
                chunk.append(eol)  # the text ends with the last gate line of a block
            blocks = len(chunk) // size
            if len(chunk) % size == 0 \
                    and countOf(chunk[::size], head) == blocks \
                    and countOf(chunk[size - 1::size], eol) == blocks:
                columns = [map(table.__getitem__, chunk[i::size])
                           for i, table in enumerate(tables, 1)]
                try:
                    rows = tuple(zip(*columns))
                except KeyError:
                    pass
                else:
                    yield rows
                    found += blocks
                    lineno += len(chunk)
                    continue
            pending = chunk
            break
    if block:
        yield (_block_row(block, start, k, head, tables),)
        found += 1
    if found != count:
        raise ParseError(f"header says count={count} but {found} blocks found", line=header_line)


def _read_topology_set(lines):
    """The topology set read from ``lines``, an iterator over the lines of
    its text as bytes, each ended by ``b"\\n"`` but perhaps the last.  Only
    ``b"\\n"`` ends a line: a ``b"\\r"`` before it is white space, as are
    ``\\v`` and ``\\f`` anywhere, and ``\\x1c``-``\\x1e`` are neither."""
    lineno = 0
    for line in lines:
        lineno += 1
        if line.strip():
            break
    else:
        raise ParseError("empty topology set", line=1)
    header = _SET_HEADER.match(ascii_line(line, lineno))
    if not header:
        raise ParseError("expected 'topologyset k=<k> count=<c>'", line=lineno)
    k = int(header.group(1))
    count = int(header.group(2))
    eol = b"\r\n" if line.endswith(b"\r\n") else b"\n"
    rows = tuple(chain.from_iterable(_set_rows(lines, k, count, lineno, eol)))
    return TopologySet._from_rows(k, rows)


def _utf8_pieces(text):
    """``text`` as UTF-8, in pieces of about _CHUNK_BYTES characters, each
    ended by a newline but the last."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_BYTES) + 1 or len(text)
        yield text[start:end].encode("utf-8", "surrogatepass")
        start = end


def parse_topology_set(text):
    """The topology set in ``text``, read as its UTF-8 bytes by the reader
    of ``load_topology_set``, a piece at a time, so that a character
    outside ASCII fails as its first byte does in a file."""
    return _read_topology_set(chain.from_iterable(map(io.BytesIO, _utf8_pieces(text))))


def save_topology_set(ts, path):
    """Write ``format_topology_set(ts)`` to ``path`` from the same chunks,
    one chunk of _CHUNK_BLOCKS members at a time: the whole text is never
    held."""
    with open(path, "w", encoding="ascii") as fh:
        for piece in _set_chunks(ts):
            fh.write(piece)
            fh.write("\n")


def load_topology_set(path):
    """The topology set in the file at ``path``, read _CHUNK_BYTES at a
    time; a byte outside ASCII raises ParseError with its line and column."""
    with open(path, "rb", buffering=_CHUNK_BYTES) as fh:
        return _read_topology_set(fh)
