"""Pure-Python kernel for topology canonicalization and layer extension.

Mirrors the compiled kernel in ``mcbound._gen_c``: both backends must
produce byte-identical keys and raise the same ValueErrors.  Gate sides are
bit masks (bit i-1 set means gate i is wired in) and a topology is encoded
as the bytes ``L1 R1 L2 R2 ...`` in gate order.  ``gate_fault`` is the
minimality predicate.  Masks are relabeled through tables built once per
tuple of layer sizes and then cached, and ``_relabelings`` is the one pass
that encodes a topology under each of them and tells which encodings are
minimal: ``canonical_keys`` takes its two minima, and ``extend`` runs it
once on the parent for all of the parent's children.  ``extend`` keys every
child with a one-gate new layer in one pass over the cached list of
candidate gates: each relabeling maps the list to a row of gate codes, and
element-wise minima of those rows give every child's keys at once.
"""

from __future__ import annotations

import struct
from functools import cache
from itertools import combinations_with_replacement, islice, permutations, product

BACKEND = "python"

MAX_GATES = 7

# Relabel tables per layer-size tuple, built on first use.  Keys are
# compositions of some q <= MAX_GATES (sizes are checked before a table is
# built), so the cache holds at most 127 entries whatever the input.
_TABLES: dict[tuple[int, ...], tuple] = {}


def _relabel_tables(sizes):
    """Build and cache one ``(positions, tab)`` per within-layer permutation
    ``pi`` of gates laid out in layers of ``sizes``: ``positions[i]`` is
    ``2 * pi[i]``, the byte offset of gate i's relabeled pair, and ``tab[m]``
    is mask m with each bit j moved to bit ``pi[j]``, for every m below
    ``2 ** q``."""
    if min(sizes) < 1:
        raise ValueError(f"layer sizes must be at least 1, got {sizes}")
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
    tables = _TABLES[sizes] = tuple(tables)
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


def _relabelings(lefts, rights, sizes):
    """For each cached relabeling of gates laid out in layers of ``sizes``,
    ``(encoding, minimal, tab)``: the gates ``(lefts[i], rights[i])``
    relabeled by ``tab`` and encoded with each gate's sides smaller first,
    and whether every relabeled gate is fault-free.  A side mask at or above
    ``2 ** len(lefts)`` raises IndexError."""
    faults = _fault_table(len(lefts))
    out = []
    for positions, tab in _TABLES.get(sizes) or _relabel_tables(sizes):
        enc = bytearray(2 * len(lefts))
        minimal = True
        for p2, left, right in zip(positions, lefts, rights):
            a = tab[left]
            b = tab[right]
            if b < a:
                a, b = b, a
            enc[p2] = a
            enc[p2 + 1] = b
            if faults[a << 8 | b]:
                minimal = False
        out.append((bytes(enc), minimal, tab))
    return out


# Above every gate code ``a << 8 | b``: stands for a relabeled candidate
# gate that is faulty, so that an element-wise min passes over it.
_FAULT = 1 << 16


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
    ``last``, as three tuples: the ``(left, right)`` pairs, their left
    sides and their right sides.  The left side touches the last layer,
    neither side nests inside the other, and keys ignore side order, so a
    pair whose sides both touch the last layer is listed once, smaller
    first."""
    full = (1 << q) - 1
    cands = tuple((left, right) for left in range(1, full + 1) if left & last
                  for right in range(full + 1)
                  if not (right & last and right < left)
                  and gate_fault(left, right) in (None, "shared"))
    return cands, tuple(left for left, _ in cands), tuple(right for _, right in cands)


def canonical_keys(pairs, layer_sizes):
    """Least encodings of a well-layered topology over gate relabelings.

    The search permutes gate positions within each layer and orients each
    gate's sides both ways (side swaps never disturb the layering, which
    only sees the union of a gate's sides).  Each permutation comes from
    the cached relabel table of ``layer_sizes``, so ``_relabelings``
    relabels a side by one lookup.  Returns ``(key_any, key_min)``: the
    least encoding overall, and the least encoding among variants whose
    gates all satisfy the minimality conditions (None when no variant does).
    """
    q = len(pairs)
    if q == 0:
        return b"", b""
    if q > MAX_GATES:
        raise ValueError(f"kernel supports at most {MAX_GATES} gates, got {q}")
    sizes = tuple(layer_sizes)
    if sum(sizes) != q:
        raise ValueError("layer sizes do not cover the gate list")
    lefts = [p[0] for p in pairs]
    rights = [p[1] for p in pairs]
    if min(lefts) < 0 or min(rights) < 0:
        raise ValueError("side masks must not be negative")
    try:
        relabeled = _relabelings(lefts, rights, sizes)
    except IndexError:
        raise ValueError(f"side masks of {q} gates must be below {1 << q}") from None
    return (min(key for key, _, _ in relabeled),
            min((key for key, minimal, _ in relabeled if minimal), default=None))


def extend(enc, k):
    """All one-new-layer extensions of a partial topology, as canonical keys.

    Appends a layer of 1..k-q new gates; every new gate must touch the
    current last layer and neither side may nest inside the other.  Returns
    the deduplicated extensions as sorted ``(key_any, key_min)`` pairs:
    key_any identifies the class, key_min is the least encoding whose gates
    all satisfy the minimality conditions (None when the class has none).

    The keys equal ``canonical_keys`` of each child, but the relabelings are
    searched once per parent (canonical augmentation): new gates reference
    only old gates, so a child's relabeling is a relabeling of the parent
    followed by a permutation of the new layer, which can only sort it, and
    a new gate's fault does not depend on that permutation.

    Children with one new gate, the most of them, are keyed all at once.
    Each relabeling maps the candidate gates to a row of codes.  A child's
    key_any ends in its candidate's least code over the parent's
    automorphisms, the element-wise min of their rows.  Its key_min ends in
    the least fault-free code within the first group of minimal relabelings,
    by ascending old-gate encoding, that leaves the gate fault-free.  Rows
    are made as a group is reduced and dropped after, so a parent with
    hundreds of relabelings holds only a few rows at a time.  Wider layers
    go through the candidate combinations one at a time.
    """
    q = len(enc) // 2
    if q == 0:
        raise ValueError("cannot extend an empty topology")
    if k > MAX_GATES:
        raise ValueError(f"kernel supports at most {MAX_GATES} gates, got k={k}")
    lefts = enc[::2]
    rights = enc[1::2]
    pairs = list(zip(lefts, rights))
    for i, (left, right) in enumerate(pairs):
        if (left | right) >> i:
            raise ValueError(f"gate {i + 1} references a gate numbered {i + 1} or later")
    if q >= k:
        return []
    layers = layer_masks(pairs)
    cands, cand_lefts, cand_rights = _candidates(q, layers[-1])
    faults = _fault_table(q)
    relabeled = _relabelings(lefts, rights, tuple(m.bit_count() for m in layers))
    parent_key = min(key for key, _, _ in relabeled)

    def images(tab, lefts, rights):
        """Each candidate ``(lefts[i], rights[i])`` relabeled by tab, sides
        smaller first, as the integer ``a << 8 | b`` (integer order is byte
        order)."""
        return [a << 8 | b if a <= b else b << 8 | a
                for a, b in zip(map(tab.__getitem__, lefts), map(tab.__getitem__, rights))]

    def fault_free(codes):
        """The codes with ``_FAULT`` in place of each faulty gate's."""
        return [_FAULT if faults[code] else code for code in codes]

    autos = [tab for key, _, tab in relabeled if key == parent_key]
    groups = {}
    for key, minimal, tab in relabeled:
        if minimal:
            groups.setdefault(key, []).append(tab)
    groups = sorted(groups.items())

    # Width 1, every candidate at once; one candidate per key_any code
    # stands for its class, and a class is settled by the first group whose
    # least fault-free row has a code, not _FAULT, for it.
    classes = dict(zip(_least(images(tab, cand_lefts, cand_rights) for tab in autos), cands))
    codes = sorted(classes)
    reps = list(map(classes.__getitem__, codes))
    rep_lefts = [left for left, _ in reps]
    rep_rights = [right for _, right in reps]
    key_mins = [None] * len(codes)
    todo = range(len(codes))
    for key, tabs in groups:
        if key == parent_key and len(tabs) == 1:
            least = fault_free(codes)  # the lone automorphism's own row
        else:
            least = _least(fault_free(images(tab, rep_lefts, rep_rights)) for tab in tabs)
        left_over = []
        for i in todo:
            if least[i] == _FAULT:
                left_over.append(i)
            else:
                key_mins[i] = key + least[i].to_bytes(2, "big")
        todo = left_over
        if not todo:
            break
    children = [(parent_key + code.to_bytes(2, "big"), key_min)
                for code, key_min in zip(codes, key_mins)]
    if q + 1 == k:
        return children

    # Widths 2 and up, one combination of candidates at a time.
    out = dict(children)
    auto_rows = [images(tab, cand_lefts, cand_rights) for tab in autos]
    group_rows = [(key, [fault_free(images(tab, cand_lefts, cand_rights)) for tab in tabs])
                  for key, tabs in groups]
    for width in range(2, k - q + 1):
        pack = struct.Struct(f">{width}H").pack
        for combo in combinations_with_replacement(range(len(cands)), width):
            if len(auto_rows) == 1:
                layer = sorted(map(auto_rows[0].__getitem__, combo))
            else:
                layer = min(sorted(map(row.__getitem__, combo)) for row in auto_rows)
            key_any = parent_key + pack(*layer)
            if key_any in out:
                continue
            key_min = None
            for key, rows in group_rows:
                best = None
                for row in rows:
                    layer = list(map(row.__getitem__, combo))
                    if _FAULT not in layer:
                        layer.sort()
                        if best is None or layer < best:
                            best = layer
                if best is not None:
                    key_min = key + pack(*best)
                    break
            out[key_any] = key_min
    return sorted(out.items())
