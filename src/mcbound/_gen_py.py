"""Pure-Python kernel for topology canonicalization and layer extension.

Mirrors the compiled kernel in ``mcbound._gen_c``: both backends must
produce byte-identical keys.  Only this one skips a candidate gate whose
side-swapped twin is already listed (see ``extend``); the compiled kernel
keys both orientations, which give the same class.  Gate sides are bit masks
(bit i-1 set means gate i is wired in) and a topology is encoded as the
bytes ``L1 R1 L2 R2 ...`` in gate order.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product

BACKEND = "python"

MAX_GATES = 7

_PERM_TABLES: dict[int, tuple[tuple[int, ...], ...]] = {}


def _perm_table(size):
    table = _PERM_TABLES.get(size)
    if table is None:
        table = tuple(permutations(range(size)))
        _PERM_TABLES[size] = table
    return table


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


def canonical_keys(pairs, layer_sizes):
    """Least encodings of a well-layered topology over gate relabelings.

    The search permutes gate positions within each layer and orients each
    gate's sides both ways (side swaps never disturb the layering, which
    only sees the union of a gate's sides).  Returns ``(key_any, key_min)``:
    the least encoding overall, and the least encoding among variants whose
    gates all satisfy the minimality conditions (None when no variant does).
    """
    q = len(pairs)
    if q == 0:
        return b"", b""
    if q > MAX_GATES:
        raise ValueError(f"kernel supports at most {MAX_GATES} gates, got {q}")
    if sum(layer_sizes) != q:
        raise ValueError("layer sizes do not cover the gate list")

    starts = []
    pos = 0
    for size in layer_sizes:
        starts.append(pos)
        pos += size
    lefts = [p[0] for p in pairs]
    rights = [p[1] for p in pairs]
    perm_sets = [_perm_table(s) for s in layer_sizes]

    best_any = None
    best_min = None
    enc = bytearray(2 * q)
    pi = [0] * q
    for combo in product(*perm_sets):
        for start, sigma in zip(starts, combo):
            for offset, target in enumerate(sigma):
                pi[start + offset] = start + target
        minimal = True
        # Mask relabel and topology.gate_fault inlined: hot loop, must match _gen_c byte for byte.
        for i in range(q):
            a = 0
            m = lefts[i]
            while m:
                low = m & -m
                a |= 1 << pi[low.bit_length() - 1]
                m ^= low
            b = 0
            m = rights[i]
            while m:
                low = m & -m
                b |= 1 << pi[low.bit_length() - 1]
                m ^= low
            if b < a:
                a, b = b, a
            if minimal:
                if a and (a & ~b) == 0:
                    minimal = False
                elif b and (b & ~a) == 0:
                    minimal = False
                else:
                    shared = a & b
                    if shared and not (shared < (a & ~b) and shared < (b & ~a)):
                        minimal = False
            p2 = 2 * pi[i]
            enc[p2] = a
            enc[p2 + 1] = b
        key = bytes(enc)
        if best_any is None or key < best_any:
            best_any = key
        if minimal and (best_min is None or key < best_min):
            best_min = key
    return best_any, best_min


def extend(enc, k):
    """All one-new-layer extensions of a partial topology, as canonical keys.

    Appends a layer of 1..k-q new gates; every new gate must touch the
    current last layer and neither side may nest inside the other.  Returns
    the deduplicated extensions as sorted ``(key_any, key_min)`` pairs:
    key_any identifies the class, key_min is the least encoding whose gates
    all satisfy the minimality conditions (None when the class has none).
    """
    q = len(enc) // 2
    if q == 0:
        raise ValueError("cannot extend an empty topology")
    pairs = [(enc[2 * i], enc[2 * i + 1]) for i in range(q)]
    layers = layer_masks(pairs)
    sizes = [m.bit_count() for m in layers]
    last = layers[-1]
    full = (1 << q) - 1

    cands = []
    for left in range(1, full + 1):
        if not left & last:
            continue
        for right in range(full + 1):
            if right & last and right < left:
                continue  # (right, left) is listed, and keys ignore side order
            if (left & ~right) == 0:
                continue
            if right and (right & ~left) == 0:
                continue
            cands.append((left, right))

    out = {}
    for i in range(1, k - q + 1):
        child_sizes = sizes + [i]
        for combo in combinations_with_replacement(cands, i):
            key_any, key_min = canonical_keys(pairs + list(combo), child_sizes)
            out[key_any] = key_min
    return sorted(out.items())
