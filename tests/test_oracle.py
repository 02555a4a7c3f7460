import pytest

from mcbound.errors import CapacityError
from mcbound.oracle import (FunctionSet, brute_equiv_classes,
                            enumerate_raw_topologies, exhaustive_function_set,
                            literal_equivalent, literal_form, verify_completeness_small)
from mcbound.topology import Topology, generate, is_minimal, is_well_layered

B3 = 1 << (1 << 3)


@pytest.mark.parametrize("k,count", [(0, 1), (1, 1), (2, 4), (3, 64), (4, 4096)])
def test_raw_enumeration_counts(k, count):
    seen = set()
    for t in enumerate_raw_topologies(k):
        seen.add(t.encode())
    assert len(seen) == count


def test_raw_enumeration_count_k5():
    assert sum(1 for _ in enumerate_raw_topologies(5)) == 1 << 20


def test_raw_enumeration_cap():
    with pytest.raises(CapacityError):
        next(enumerate_raw_topologies(6))


def test_literal_equivalent_swap_and_relabel():
    t1 = Topology(3, ((0, 0), (0, 0), (1, 2)))
    t2 = Topology(3, ((0, 0), (0, 0), (2, 1)))
    assert literal_equivalent(t1, t2)
    assert not literal_equivalent(t1, Topology(3, ((0, 0), (0, 0), (3, 0))))


MAJ4_TOPOLOGY = Topology(4, ((0, 0), (0, 0), (0, 2), (1, 2)))


@pytest.mark.parametrize("t1,t2,expected", [
    # gates 1 and 2 swapped
    (MAJ4_TOPOLOGY, Topology(4, ((0, 0), (0, 0), (0, 1), (2, 1))), True),
    # the same wiring in another gate order, not well-layered
    (MAJ4_TOPOLOGY, Topology(4, ((0, 0), (0, 1), (0, 0), (4, 1))), True),
    (Topology(2, ((0, 0), (1, 0))), Topology(2, ((0, 0), (0, 0))), False),
    (Topology(2, ((0, 0), (1, 0))), Topology(1, ((0, 0),)), False),
], ids=["relabeled-majority", "reordered-majority", "different-wiring", "different-k"])
def test_literal_equivalent_cases(t1, t2, expected):
    assert literal_equivalent(t1, t2) == expected
    assert literal_equivalent(t2, t1) == expected


def test_literal_form_agrees_with_the_permutation_search():
    # every pair of raw topologies with k <= 3, pairs of different k included
    raw = [t for k in range(4) for t in enumerate_raw_topologies(k)]
    forms = [literal_form(t) for t in raw]
    for a, fa in zip(raw, forms):
        for b, fb in zip(raw, forms):
            assert (fa == fb) == literal_equivalent(a, b), (a, b)


def test_brute_classes_k4_have_distinct_forms():
    kept = [t for t in enumerate_raw_topologies(4)
            if is_well_layered(t) and is_minimal(t)]
    classes = brute_equiv_classes(kept)
    assert len(classes) == 85
    assert len({literal_form(cls[0]) for cls in classes}) == 85
    assert all(literal_equivalent(cls[0], t) for cls in classes for t in cls)


def test_brute_classes_k3():
    kept = [t for t in enumerate_raw_topologies(3)
            if is_well_layered(t) and is_minimal(t)]
    classes = brute_equiv_classes(kept)
    assert len(classes) == 8
    assert sum(len(c) for c in classes) == len(kept)


def test_brute_classes_singleton():
    t = Topology(2, ((0, 0), (1, 0)))
    assert brute_equiv_classes([t]) == [[t]]


def test_function_set_type():
    s = FunctionSet(2, 0b1010)
    assert len(s) == 2
    assert 1 in s and 3 in s and 0 not in s


def test_all_of_b2_with_one_gate():
    s = exhaustive_function_set(2, 1, generate(1))
    assert len(s) == 16


def test_all_of_b3_with_two_gates():
    s = exhaustive_function_set(3, 2, generate(2))
    assert len(s) == B3


def test_b3_gap_with_one_gate():
    s = exhaustive_function_set(3, 1, generate(1))
    assert len(s) < B3


def test_function_set_budget_error():
    # 8 k=3 classes, each with (4 * 2^8)^3 gate wirings and 2^8 outputs
    with pytest.raises(CapacityError,
                       match="requires 2199023255552 circuits, budget is 268435456"):
        exhaustive_function_set(4, 3, generate(3))


def test_function_set_rejects_mismatched_gate_count():
    with pytest.raises(ValueError):
        exhaustive_function_set(2, 2, generate(1))


def test_negation_normal_restriction_loses_nothing_small():
    # over every raw topology, restricted and unrestricted circuits reach the
    # same functions at this scale
    for n, k in ((1, 1), (2, 1), (2, 2)):
        raw = list(enumerate_raw_topologies(k))
        a = exhaustive_function_set(n, k, raw, negation_normal_only=True)
        b = exhaustive_function_set(n, k, raw, negation_normal_only=False)
        assert a == b


def test_function_sets_grow_with_gate_count():
    one = exhaustive_function_set(2, 1, generate(1))
    two = exhaustive_function_set(2, 2, generate(2))
    assert one.mask | two.mask == two.mask


@pytest.mark.parametrize("n,k", [(1, 1), (2, 0), (2, 2)])
def test_verify_completeness_small(n, k):
    assert verify_completeness_small(n, k)
