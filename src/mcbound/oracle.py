"""Brute-force baselines that validate the fast paths at tiny scale.

Nothing here shares equivalence or canonicalization code with the engine:
the checks below spell out the defining conditions literally (all gate
permutations, all circuits) and exist only to cross-check the engine's
answers.  Budgets are explicit; exceeding one raises instead of truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import CapacityError
from .topology import Topology, generate
from .circuits import _input_columns

MAX_RAW_K = 5
DEFAULT_BUDGET = 1 << 28
_MAX_DENSE_ARITY = 4


def enumerate_raw_topologies(k):
    """Every valid topology on k gates, exactly once (2^(k^2-k) in total)."""
    if k > MAX_RAW_K:
        raise CapacityError(f"raw enumeration is capped at k <= {MAX_RAW_K}")
    per_gate = [tuple(product(range(1 << i), repeat=2)) for i in range(k)]
    for combo in product(*per_gate):
        yield Topology(k, combo)


def _relabeled(mask, pi):
    """The mask with each set bit i moved to bit pi[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << pi[low.bit_length() - 1]
        mask ^= low
    return out


def _matches_under(t1, t2, pi):
    # pi maps 0-based old positions to new positions
    for i, (left, right) in enumerate(t1.gates):
        lm, rm = _relabeled(left, pi), _relabeled(right, pi)
        target = t2.gates[pi[i]]
        if (lm, rm) != target and (rm, lm) != target:
            return False
    return True


def literal_equivalent(t1, t2):
    """The equivalence definition verbatim: try every permutation of the k
    gate indices, allowing a per-gate swap of the two sides."""
    if t1.k != t2.k:
        return False
    for pi in permutations(range(t1.k)):
        if _matches_under(t1, t2, pi):
            return True
    return False


def literal_form(t):
    """The least tuple of gate pairs over all k! permutations of the gate
    indices, each relabeled pair written smaller side first, which covers
    the per-gate side swap.  Two topologies have the same form exactly when
    they are literally equivalent: the orbit representative of Harary and
    Palmer, *Graphical Enumeration* (1973), ch. 2."""
    forms = []
    for pi in permutations(range(t.k)):
        gates = [None] * t.k
        for i, (left, right) in enumerate(t.gates):
            lm, rm = _relabeled(left, pi), _relabeled(right, pi)
            gates[pi[i]] = (lm, rm) if lm <= rm else (rm, lm)
        forms.append(tuple(gates))
    return min(forms)


def brute_equiv_classes(topologies):
    """Partition a collection of topologies into equivalence classes by
    their literal least form: classes in the order of their first member,
    members in input order."""
    classes = {}
    for t in topologies:
        classes.setdefault(literal_form(t), []).append(t)
    return list(classes.values())


@dataclass(frozen=True)
class FunctionSet:
    """Set of n-ary truth tables, stored densely: bit f of mask is set iff
    the function with table code f is a member."""

    n: int
    mask: int

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, table):
        return bool((self.mask >> int(table)) & 1)


def _members_of(topologies):
    members = getattr(topologies, "members", None)
    return list(members) if members is not None else list(topologies)


def _xor_at(values, mask):
    """The XOR of values[i] over the set bits i of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= values[low.bit_length() - 1]
        mask ^= low
    return acc


def exhaustive_function_set(n, k, topologies, negation_normal_only=False):
    """Every function computable by some circuit over the given topologies.

    Enumerates each gate's side sets literally (any input subset per side,
    plus T on one side only when negation_normal_only is set, on either or
    both otherwise); the output XOR is folded in algebraically, since the
    achievable outputs of a fixed gate assignment are exactly the XORs of
    gate-output subsets shifted by every affine input combination.

    With k=0 the single zero-gate circuit needs no wiring, so the topology
    collection may be empty; the result is the affine functions.
    """
    if n > _MAX_DENSE_ARITY:
        raise CapacityError(f"dense function sets are capped at n <= {_MAX_DENSE_ARITY}")
    topos = _members_of(topologies)
    for t in topos:
        if t.k != k:
            raise ValueError(f"topology with {t.k} gates in a k={k} search")
    placements = ((0, 0), (1, 0), (0, 1)) if negation_normal_only else \
        ((0, 0), (1, 0), (0, 1), (1, 1))
    per_gate = len(placements) * (1 << (2 * n))
    per_topology = per_gate ** k * (1 << (n + k + 1))
    total = per_topology * max(len(topos), 1)
    if total > DEFAULT_BUDGET:
        raise CapacityError(
            f"search requires {total} circuits, budget is {DEFAULT_BUDGET}")

    xtabs, full = _input_columns(n)
    lin_tables = [_xor_at(xtabs, sub) for sub in range(1 << n)]

    spans = 0  # dense bitset over XOR-combinations of gate outputs

    def walk(topo, idx, values):
        nonlocal spans
        if idx == k:
            combo = 0
            for sub in range(1 << k):
                combo |= 1 << _xor_at(values, sub)
            spans |= combo
            return
        lmask, rmask = topo.gates[idx]
        lbase = _xor_at(values, lmask)
        rbase = _xor_at(values, rmask)
        for ltop, rtop in placements:
            lfix = lbase ^ (full if ltop else 0)
            rfix = rbase ^ (full if rtop else 0)
            for llin in lin_tables:
                left = lfix ^ llin
                for rlin in lin_tables:
                    values.append(left & (rfix ^ rlin))
                    walk(topo, idx + 1, values)
                    values.pop()

    if k == 0:
        spans = 1  # only the empty XOR of gate outputs
    else:
        for topo in topos:
            walk(topo, 0, [])

    result = 0
    span_codes = []
    m = spans
    while m:
        low = m & -m
        span_codes.append(low.bit_length() - 1)
        m ^= low
    for s in span_codes:
        for lin in lin_tables:
            a = s ^ lin
            result |= (1 << a) | (1 << (a ^ full))
    return FunctionSet(n, result)


def verify_completeness_small(n, k):
    """True iff unrestricted circuits over all raw topologies and
    negation-normal circuits over the generated representatives compute the
    same function set."""
    raw = list(enumerate_raw_topologies(k))
    unrestricted = exhaustive_function_set(n, k, raw, negation_normal_only=False)
    reps = generate(k)
    restricted = exhaustive_function_set(n, k, reps.members, negation_normal_only=True)
    return unrestricted == restricted
