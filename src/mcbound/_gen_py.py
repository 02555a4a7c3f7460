"""Pure-Python kernel for topology canonicalization and layer extension.

Mirrors the compiled kernel in ``mcbound._gen_c``: both backends must
produce byte-identical keys and raise the same ValueErrors.  Gate sides are
bit masks (bit i-1 set means gate i is wired in) and a topology is encoded
as the bytes ``L1 R1 L2 R2 ...`` in gate order.  ``gate_fault`` is the
minimality predicate.  Every entry point takes an encoding, which
``read_topology`` checks and layers.  Masks are relabeled through tables
built once per tuple of layer sizes and then cached, and each gate's
relabelings under them, a column of shifted codes and a mask of the tables
that make it faulty, are cached beside them (``_column``).
``_relabelings`` is the one pass that encodes a topology under each table,
as the sum of its gates' columns, and tells which tables leave it
fault-free: ``canonical_keys`` takes its two minima, and ``extend`` and
``count_extend`` run it once on the parent (``_Parent``) for all of the
parent's full children, those that complete k gates.  Candidate new gates
are listed once per parent shape, and each relabel table maps the list to a
row of gate codes, built on the table's first use and cached (``_rows``).
The classes of the full children, one combination of candidates for each
(``_representatives``), are keyed all at once by element-wise minima of the
layers that those rows give (``_layers``), and one pass, ``_Parent.layers``,
settles each class's key_min group by group.  ``extend`` keys every full
child; ``count_extend`` only counts them, and settles no class, since the
cached fault-free flags of the parent's rows tell which have a key_min.
Past one new gate it lists no class either: it counts the orbits of the new
layers under the parent's automorphisms by Burnside's lemma, from the
cycles of each automorphism on the candidates (``_orbit_counts``).  That
count reads only the parent's shape (``parent_shape``): its layer sizes,
its automorphisms and its fault-free tables, so the class count asks for it
once per shape, width and kernel in a process (``topology._shape_total``).
A child's shape follows from its parent's shape and its new gates, so
``child_shapes`` derives a walk parent's partial children, their shapes and
the layers that end their key_any, with no key built.  It is the one place
where partial children are derived, and both class walks,
``topology.count_classes`` and ``topology.generate``, walk shapes through
it.  A settle reads only the layer sizes, the automorphism indices, the
groups' table indices in key order and the width; the group keys are only
prefixes of the key_mins.  So ``_Parent.layers`` settles each such input
once and caches each class's group position and packed layer
(``_SETTLED``), from which ``full_keys`` builds the keys by concatenation,
already in key order.  The 3,378 settles of ``generate(6)``, one per walk
parent, have 151 inputs, which the cache then holds in 0.24 MB
(tracemalloc).
"""

from __future__ import annotations

import struct
from array import array
from functools import cache, cached_property, reduce
from itertools import (chain, combinations_with_replacement, compress, count, islice, permutations,
                       product)
from math import comb
from operator import and_, eq, or_

BACKEND = "python"

MAX_GATES = 7

class _Tables(tuple):
    """The relabel tables of one tuple of layer sizes, and in ``columns``
    the gate columns that ``_column`` builds from them."""


# Relabel tables per layer-size tuple, built on first use, each with the
# gate columns built from them.  Keys are the layer sizes of some q <=
# MAX_GATES gates, compositions of q, so the cache holds at most 128 entries
# whatever the input, and each entry at most one column per gate position
# and pair of sides.
_TABLES: dict[tuple[int, ...], _Tables] = {}


def _relabel_tables(sizes):
    """Build and cache one ``(positions, tab)`` per within-layer permutation
    ``pi`` of gates laid out in layers of ``sizes``: ``positions[i]`` is
    ``2 * pi[i]``, the byte offset of gate i's relabeled pair, and ``tab[m]``
    is mask m with each bit j moved to bit ``pi[j]``, for every m below
    ``2 ** q``."""
    q = sum(sizes)
    layer_orders = []
    start = 0
    for size in sizes:
        layer_orders.append(permutations(range(start, start + size)))
        start += size
    tables = []
    for combo in product(*layer_orders):
        pi = [target for order in combo for target in order]
        tab = [0] * (1 << q)
        for m in range(1, 1 << q):
            low = m & -m
            tab[m] = tab[m ^ low] | (1 << pi[low.bit_length() - 1])
        tables.append((tuple(2 * p for p in pi), tuple(tab)))
    tables = _TABLES[sizes] = _Tables(tables)
    tables.columns = {}
    return tables


@cache
def _fault_table(q):
    """The bytes whose entry ``a << 8 | b`` is 1 when sides a <= b < 2 ** q
    make a faulty gate, else 0."""
    table = bytearray((1 << q) << 8)
    for a in range(1 << q):
        for b in range(a, 1 << q):
            table[a << 8 | b] = gate_fault(a, b) is not None
    return bytes(table)


def _column(tables, q, gate):
    """The column of gate ``(i, left, right)``, gate i of q with those
    sides, over ``tables``, the relabel tables of its layer sizes, built on
    first use and cached in ``tables.columns``: per table, the code ``a << 8
    | b`` of the relabeled gate, sides smaller first, shifted to the gate's
    relabeled place in a big-endian encoding of q gates; and the int mask
    of the tables under which the relabeled gate is faulty."""
    i, left, right = gate
    faults = _fault_table(q)
    codes = []
    faulty = 0
    for index, (positions, tab) in enumerate(tables):
        a = tab[left]
        b = tab[right]
        if b < a:
            a, b = b, a
        codes.append((a << 8 | b) << 8 * (2 * q - 2 - positions[i]))
        if faults[a << 8 | b]:
            faulty |= 1 << index
    column = tables.columns[gate] = codes, faulty
    return column


def _relabelings(lefts, rights, layers):
    """``(encodings, free)`` over the cached relabelings of gates
    ``(lefts[i], rights[i])`` within their layers, the masks ``layers``:
    per relabel table of their layer sizes, in order, the relabeled gates
    encoded with each gate's sides smaller first, as a big-endian int; and
    the int mask of the tables that leave every gate fault-free.

    Each gate's column (``_column``) holds its relabeled code at its
    relabeled place, so an encoding is the sum of the gates' entries: the
    codes never overlap, and at a fixed length int order is byte order."""
    q = len(lefts)
    sizes = tuple(m.bit_count() for m in layers)
    tables = _TABLES.get(sizes) or _relabel_tables(sizes)
    columns = tables.columns
    codes = []
    faulty = 0
    for gate in zip(range(q), lefts, rights):
        column = columns.get(gate) or _column(tables, q, gate)
        codes.append(column[0])
        faulty |= column[1]
    encodings = list(map(sum, zip(*codes))) if codes else [0] * len(tables)
    return encodings, ((1 << len(tables)) - 1) & ~faulty


def _selected(values, mask):
    """The values at the set bits of the int ``mask``, bit 0 first."""
    return compress(values, map("1".__eq__, bin(mask)[:1:-1]))


# Above every gate code ``a << 8 | b``, at most 63 << 8 | 63: stands for a
# relabeled candidate gate that is faulty, so that an element-wise min
# passes over it.  _FAULTY does so for a sorted layer of more gates.
_FAULT = 0xFFFF
_FAULTY = [_FAULT]

# Candidate rows per ``(layer sizes, table index)``, built on first use by
# ``_rows``.  Keys are tables of at most 6 gates, so the cache is bounded as
# _TABLES is, and each holds two unsigned 16-bit arrays and one bytes.
_ROWS: dict[tuple, tuple] = {}


# ``_Parent.layers``' classes per settle input, ``(layer sizes, automorphism
# indices, group indices, width)``, filled on first use.  An entry holds the
# number of the classes and the group positions and packed layers of those
# that have a key_min, not their keys, so that it serves every parent with
# that input.  A key is fixed by its parent's class, of at most 6 gates, so
# the cache is bounded whatever the input.
_SETTLED: dict[tuple, tuple] = {}

# ``child_shapes``' result per parent shape and width, ``(kept, pruned)``
# with a ``(shape, layers)`` per kept child shape, filled on first use and
# shared by both class walks.  A key is fixed by its parent's class, of at
# most 6 gates, so the cache is bounded whatever the input: the walks for
# k=5, 6 and 7 fill 12, 40 and 166 entries, the last with 79,100 bytes of
# layers.
_CHILDREN: dict[tuple, tuple] = {}


def _least(rows):
    """The element-wise min of equal-length rows, read from an iterable 16
    at a time so that no more are held at once; None when there are none."""
    rows = iter(rows)
    best = None
    while chunk := list(islice(rows, 16)):
        if best is not None:
            chunk.append(best)
        best = chunk[0] if len(chunk) == 1 else list(map(min, *chunk))
    return best


def gate_fault(left, right):
    """Why one gate's side masks break the minimality conditions:
    ``"left-nested"`` (a nonempty left side inside the right),
    ``"right-nested"`` (the reverse), ``"shared"`` (the shared part is not
    below both side remainders, masks compared as integers), or None."""
    if left and (left & ~right) == 0:
        return "left-nested"
    if right and (right & ~left) == 0:
        return "right-nested"
    shared = left & right
    if shared and not (shared < (left & ~right) and shared < (right & ~left)):
        return "shared"
    return None


def layer_masks(pairs):
    """Greedy maximal layering: a gate joins the current layer unless one of
    its sides already meets it.  Returns the layers as bit masks."""
    layers = []
    cur = 0
    for i, (left, right) in enumerate(pairs):
        if cur & (left | right):
            layers.append(cur)
            cur = 0
        cur |= 1 << i
    if cur:
        layers.append(cur)
    return layers


@cache
def _candidates(q, last):
    """The candidate new gates after q gates whose last layer is the mask
    ``last``, as two tuples: their left sides and their right sides.  The
    left side touches the last layer, neither side nests inside the other,
    and keys ignore side order, so a pair whose sides both touch the last
    layer is listed once, smaller first."""
    full = (1 << q) - 1
    cands = tuple((left, right) for left in range(1, full + 1) if left & last
                  for right in range(full + 1)
                  if not (right & last and right < left)
                  and gate_fault(left, right) in (None, "shared"))
    return tuple(left for left, _ in cands), tuple(right for _, right in cands)


def read_topology(enc):
    """The gates of the encoding ``enc``, the last byte of an odd length
    ignored, as ``(lefts, rights, layers)``: the left and the right side
    masks and the greedy maximal layering (``layer_masks``).  A gate that
    references itself or a later gate raises ValueError."""
    q = len(enc) // 2
    for i in range(q):
        if (enc[2 * i] | enc[2 * i + 1]) >> i:
            raise ValueError(f"gate {i + 1} references a gate numbered {i + 1} or later")
    lefts = enc[:2 * q:2]
    rights = enc[1:2 * q:2]
    return lefts, rights, layer_masks(zip(lefts, rights))


def canonical_keys(enc):
    """Least encodings of the well-layered topology ``enc`` over gate
    relabelings.

    The search permutes gate positions within each layer and orients each
    gate's sides both ways (side swaps never disturb the layering, which
    only sees the union of a gate's sides).  Each permutation comes from
    the cached relabel table of the layer sizes, so ``_relabelings``
    relabels a side by one lookup.  Returns ``(key_any, key_min)``: the
    least encoding overall, and the least encoding among variants whose
    gates all satisfy the minimality conditions (None when no variant does).
    """
    if len(enc) // 2 > MAX_GATES:
        raise ValueError(f"kernel supports at most {MAX_GATES} gates, got {len(enc) // 2}")
    encodings, free = _relabelings(*read_topology(enc))
    key_min = min(_selected(encodings, free), default=None)
    size = len(enc) // 2 * 2
    return (min(encodings).to_bytes(size, "big"),
            None if key_min is None else key_min.to_bytes(size, "big"))


def _images(tab, lefts, rights):
    """Each candidate ``(lefts[i], rights[i])`` relabeled by tab, sides
    smaller first, as the integer ``a << 8 | b`` (integer order is byte
    order)."""
    return [a << 8 | b if a <= b else b << 8 | a
            for a, b in zip(map(tab.__getitem__, lefts), map(tab.__getitem__, rights))]


def _rows(sizes, index):
    """The row of candidate codes that table ``index`` of the layer sizes
    gives (``_images`` over ``_candidates``, whose last layer is the top
    ``sizes[-1]`` gates), its fault-free twin, with ``_FAULT`` in place of
    each faulty gate's code, and the twin's flags, the bytes whose entry is
    1 where the twin has a code; built once per table and cached."""
    rows = _ROWS.get((sizes, index))
    if rows is None:
        q = sum(sizes)
        lefts, rights = _candidates(q, (1 << q) - (1 << (q - sizes[-1])))
        faults = _fault_table(q)
        row = array("H", _images((_TABLES.get(sizes) or _relabel_tables(sizes))[index][1],
                                 lefts, rights))
        flags = bytes(1 - faults[code] for code in row)
        rows = _ROWS[sizes, index] = row, array("H", [code if ok else _FAULT
                                                       for code, ok in zip(row, flags)]), flags
    return rows


def _layers(row, reps, width):
    """The new layer that ``row``, a row of candidate codes, gives each class
    in ``reps`` (``_representatives``): one gate's code, or the
    sorted codes of more gates, or ``_FAULTY`` when one of them is
    ``_FAULT``, which is looked for before sorting."""
    if width == 1:
        return list(map(row.__getitem__, reps))
    codes = map(row.__getitem__, chain.from_iterable(reps))
    return [_FAULTY if _FAULT in layer else sorted(layer) for layer in zip(*[codes] * width)]


@cache
def _layer_format(width):
    """``(fault, pack)`` for new layers of ``width`` gates as ``_layers``
    gives them: the stand-in for a layer with a faulty gate, and the
    function that gives a layer's bytes."""
    pack = struct.Struct(f">{width}H").pack
    return (_FAULT, pack) if width == 1 else (_FAULTY, lambda layer: pack(*layer))


def _representatives(rows, width):
    """The classes of the children with ``width`` new gates of a parent
    whose automorphisms give ``rows``, their rows of candidate codes: one
    combination of that many candidate indices, with repetition, for each,
    the one that the first automorphism maps to the least new layer over
    the class, a bare index for one gate.  A relabeling maps distinct
    multisets of candidates to distinct multisets of codes, so each class
    has exactly one, and no table of the keys seen is needed."""
    first, *rest = rows
    if width == 1:
        return compress(count(), map(eq, first, _least(rows))) if rest else range(len(first))
    combos = combinations_with_replacement(range(len(first)), width)
    if not rest:
        return combos

    def least_under_first(combo):
        layer = sorted(map(first.__getitem__, combo))
        return all(layer <= sorted(map(row.__getitem__, combo)) for row in rest)
    return filter(least_under_first, combos)


def _orbit_counts(rows, masks, width):
    """``(full, full_min)`` over the multisets of ``width`` candidates whose
    relabelings under automorphisms give ``rows``: the number of their
    orbits, ``_representatives``' classes, and of the orbits whose
    candidates' ``masks`` have a common bit, counted by Burnside's lemma.

    Row t maps candidate i to the candidate whose code in the first row is
    ``row_t[i]``, so each row is a permutation of the candidates, and the
    orbits number the mean, over the rows, of the multisets that a row
    fixes.  Those are the multisets of its cycles, a cycle c used j times
    giving j * |c| candidates, so they number ``[x^width]`` of the product
    over the cycles of ``1 / (1 - x^|c|)``.  The sum runs over the degree
    and the AND of the used cycles' masks at once, cycles of one length and
    one mask as a group: m of them used j times in all give ``C(m + j - 1,
    j)`` multisets.  Whether the candidates share a bit is the same across
    an orbit, so the orbits that do are counted the same way."""
    index = {code: at for at, code in enumerate(rows[0])}
    full = full_min = 0
    for row in rows:
        images = list(map(index.__getitem__, row))
        seen = bytearray(len(images))
        groups = {}
        for start in range(len(images)):
            if seen[start]:
                continue
            length, mask, at = 0, -1, start
            while not seen[at]:
                seen[at] = 1
                length += 1
                mask &= masks[at]
                at = images[at]
            if length <= width:
                groups[length, mask] = groups.get((length, mask), 0) + 1
        # per degree, the fixed multisets so far by the AND of their masks
        fixed = [{-1: 1}] + [{} for _ in range(width)]
        for (length, mask), cycles in groups.items():
            # higher degrees first, so that no group is used twice
            for degree in range(width - length, -1, -1):
                states = fixed[degree]
                for used in range(1, (width - degree) // length + 1):
                    ways = comb(cycles + used - 1, used)
                    target = fixed[degree + used * length]
                    for state, times in states.items():
                        state &= mask
                        target[state] = target.get(state, 0) + times * ways
        full += sum(fixed[width].values())
        full_min += sum(times for state, times in fixed[width].items() if state)
    return full // len(rows), full_min // len(rows)


class _Parent:
    """A parent of q gates with its relabelings searched once for all of its
    full children (canonical augmentation): ``encodings`` holds each relabel
    table's encoding of it as an int (``_relabelings``), ``autos`` the
    indices of the tables that give the least, its key, and ``free`` the
    int mask of the tables that leave every gate fault-free.  Its layer
    sizes ``sizes`` fix its candidate new gates and each table's rows of
    their codes (``_rows``).  ``layers`` settles the key_min of every class
    of full children group by group, from ``group_indices``, once per settle
    input; ``full_keys`` puts the keys of ``groups``, built as bytes only
    then, in front of its layers; ``count_full`` reads the flags alone."""

    def __init__(self, gates):
        self.sizes = tuple(m.bit_count() for m in gates[2])
        self.encodings, self.free = _relabelings(*gates)
        self.length = 2 * len(gates[0])
        least = min(self.encodings)
        self.autos = list(compress(count(), map(least.__eq__, self.encodings)))
        self.shape = self.sizes, tuple(self.autos), self.free

    @cached_property
    def groups(self):
        """The indices of the tables that leave every gate fault-free,
        grouped by the encoding they give, as bytes, ascending."""
        groups = {}
        for index, encoding in _selected(enumerate(self.encodings), self.free):
            groups.setdefault(encoding, []).append(index)
        return [(encoding.to_bytes(self.length, "big"), indices)
                for encoding, indices in sorted(groups.items())]

    @property
    def auto_rows(self):
        """Each automorphism's row of candidate codes."""
        return [_rows(self.sizes, index)[0] for index in self.autos]

    @cached_property
    def group_indices(self):
        """The table indices of each group, in key order, as a tuple of
        tuples: with the layer sizes, the automorphisms and the width, all
        that ``layers`` reads."""
        return tuple(tuple(indices) for _, indices in self.groups)

    def layers(self, width):
        """The full children with ``width`` new gates, all at once, as
        ``(full, positions, mins)``: the number of their classes
        (``_representatives``); and for each class that has a key_min, in
        key_min order, the position in ``groups`` of the group whose key
        begins it, and the new layer that ends it, packed into the bytes
        ``mins``.

        A key_min is the key of the first group, in key order, one of whose
        tables leaves every new gate fault-free, followed by the least new
        layer that the group's tables give, the element-wise min of their
        rows' ``_layers``.  Each group reads only the classes that no group
        before it settled.

        So the settle reads only the layer sizes, which fix the candidates
        and every row; the automorphisms, which fix the classes; the groups'
        table indices in key order, ``group_indices``; and the width.  The
        group keys are only prefixes, which ``full_keys`` puts in front.  So
        each such input is settled once and cached (``_SETTLED``)."""
        settle = self.shape[:2], self.group_indices, width
        entry = _SETTLED.get(settle)
        if entry is not None:
            return entry
        reps = list(_representatives(self.auto_rows, width))
        fault, pack = _layer_format(width)
        settled = [None] * len(reps)
        todo = range(len(reps))
        open_reps = reps
        for position, indices in enumerate(self.group_indices):
            least = _least(_layers(_rows(self.sizes, index)[1], open_reps, width)
                           for index in indices)
            left_over = []
            for i, layer in zip(todo, least):
                if layer == fault:
                    left_over.append(i)
                else:
                    settled[i] = position, pack(layer)
            todo = left_over
            if not todo:
                break
            open_reps = list(map(reps.__getitem__, todo))
        done = sorted(filter(None, settled))
        entry = _SETTLED[settle] = (len(reps), array("H", [position for position, _ in done]),
                                    b"".join(layer for _, layer in done))
        return entry

    def count_full(self, width):
        """``(full, full_min)`` over the children with ``width`` new gates,
        with no key built and no class settled.  A child has a key_min
        exactly when some table that leaves the parent fault-free leaves
        each new gate fault-free too, as the tables' cached flags tell.  One
        new gate's class has a key_min when the OR of the flags is 1 at its
        candidate.  Wider, byte r of a candidate's integer is 1 when the
        r-th distinct flags are, so a combination has one when the AND of
        its integers is not 0, and the classes are counted by Burnside's
        lemma, not listed (``_orbit_counts``).

        So the count reads only the layer sizes, which fix the candidates
        and every row; the automorphisms, which fix the classes
        (``_representatives``); and the tables that leave the parent
        fault-free, ``free``, the union of the groups, which fix the flags.
        The groups' keys and order decide which key_min a class gets, not
        whether it gets one, so ``shape`` holds no more."""
        flags = {_rows(self.sizes, index)[2] for index in _selected(count(), self.free)}
        rows = self.auto_rows
        size = len(rows[0])
        if width == 1:
            reps = list(_representatives(rows, 1))
            free = reduce(or_, (int.from_bytes(row, "big") for row in flags), 0)
            return len(reps), sum(map(free.to_bytes(size, "big").__getitem__, reps))
        masks = [int.from_bytes(bytes(column), "little") for column in zip(*flags)] or [0] * size
        return _orbit_counts(rows, masks, width)

    def full_keys(self, width):
        """``(full, keys)`` over the children with ``width`` new gates: their
        number and the key_min encodings of those that have one, in key
        order, each a group's key followed by a layer (``layers``)."""
        full, positions, mins = self.layers(width)
        groups = self.groups
        size = 2 * width
        return full, [groups[position][0] + mins[at:at + size]
                      for position, at in zip(positions, count(0, size))]


def parent_shape(enc):
    """The shape of the parent ``enc`` (``_Parent.shape``): its layer
    sizes, the indices of its automorphisms, and the int mask of the
    relabel tables that leave it fault-free."""
    return _Parent(read_topology(enc)).shape


def child_shapes(shape, width):
    """The children with ``width`` new gates of a parent of ``shape`` that
    is its own least encoding, as ``(kept, pruned)``: per distinct shape of
    the children that have a key_min, ``(shape, layers)``, with the packed
    new layers that end their classes' key_any, joined; and the number of
    classes without a key_min.  It is the one place where a walk parent's
    partial children are derived: the parent followed by one of its
    ``layers`` is a child's key_any, and both walks
    (``topology._shape_total`` and ``topology._descend``) take the children
    from here.  No key is built, and each result is cached per shape and
    width (``_CHILDREN``).

    A parent P that is its own least encoding has the identity, table 0, as
    its first automorphism, so the class C of candidates
    (``_representatives``) has the key_any P + L, where L, the sorted
    layer that the first row gives C, is C itself in gate order.  That
    child, P with C appended in that order, has the layer sizes ``sizes +
    (width,)``, and its tables are the pairs (t, s) of a table t of P and a
    permutation s of the new layer, indexed ``t * width! + s`` in
    ``_relabel_tables``' product order.  (t, s) gives the least encoding,
    P + L, exactly when t is an automorphism of P and s puts ``row_t[C]``
    in the order of L, since no encoding of P is below P and, t being one,
    no new layer below L (C is its class's representative).  (t, s) leaves
    every gate fault-free exactly when t is in ``free`` and the flags of t
    (``_rows``) are 1 on all of C, whatever s.  So the child's shape, and
    whether it has a key_min, follow from P's shape and C, and the child is
    again its own least encoding."""
    known = _CHILDREN.get((shape, width))
    if known is not None:
        return known
    sizes, autos, free = shape
    rows = [_rows(sizes, index)[0] for index in autos]
    orders = list(permutations(range(width)))
    block = len(orders)  # child tables per parent table
    # per candidate, the child tables whose parent table leaves it fault-free
    frees = [0] * len(rows[0])
    for index in _selected(count(), free):
        for candidate in compress(count(), _rows(sizes, index)[2]):
            frees[candidate] |= ((1 << block) - 1) << index * block
    pack = struct.Struct(f">{width}H").pack
    kept = {}
    pruned = 0
    for combo in _representatives(rows, width):
        gates = sorted(combo, key=rows[0].__getitem__) if width > 1 else [combo]
        child_free = reduce(and_, map(frees.__getitem__, gates))
        if not child_free:
            pruned += 1
            continue
        layer = list(map(rows[0].__getitem__, gates))
        child_autos = []
        for index, row in zip(autos, rows):
            image = list(map(row.__getitem__, gates))
            if sorted(image) == layer:
                child_autos += [index * block + at for at, order in enumerate(orders)
                                if all(map(eq, map(layer.__getitem__, order), image))]
        child = sizes + (width,), tuple(child_autos), child_free
        kept.setdefault(child, []).append(pack(*layer))
    known = _CHILDREN[shape, width] = (
        tuple((child, b"".join(layers)) for child, layers in kept.items()), pruned)
    return known


def _parent(enc, k):
    """The ``_Parent`` of ``enc`` for an extension to k gates, None when it
    has k gates or more, after the checks that ``extend`` and
    ``count_extend`` share."""
    if len(enc) < 2:
        raise ValueError("cannot extend an empty topology")
    if k > MAX_GATES:
        raise ValueError(f"kernel supports at most {MAX_GATES} gates, got k={k}")
    gates = read_topology(enc)
    return None if len(enc) // 2 >= k else _Parent(gates)


def extend(enc, k):
    """The full children of a partial topology of q gates, by canonical key.

    A full child appends a layer of k-q new gates; every new gate must touch
    the current last layer and neither side may nest inside the other.
    Returns ``(full, keys)`` over the deduplicated full children: their
    number, and the sorted key_min encodings of those that have one, the
    least encodings whose gates all satisfy the minimality conditions.  No
    key_any is built.  The partial children, of fewer new gates, are
    ``child_shapes``' alone.

    The keys equal ``canonical_keys`` of each child, but the relabelings are
    searched once per parent (``_Parent``): new gates reference only old
    gates, so a child's relabeling is a relabeling of the parent followed by
    a permutation of the new layer, which can only sort it, and a new gate's
    fault does not depend on that permutation.  The children are keyed all
    at once by element-wise minima over rows of relabeled candidate codes
    (``_Parent.layers``).  A row depends only on the layer sizes and the
    table, so each is built once, when a parent first uses its table, and
    kept as a 16-bit array.
    """
    parent = _parent(enc, k)
    return (0, []) if parent is None else parent.full_keys(k - len(enc) // 2)


def count_extend(enc, k):
    """``(full, full_min)``: of ``extend(enc, k)``, the number of full
    children and the number of their keys.  It raises the same ValueErrors,
    and builds no key (``_Parent.count_full``)."""
    parent = _parent(enc, k)
    return (0, 0) if parent is None else parent.count_full(k - len(enc) // 2)
