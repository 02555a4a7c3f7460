"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 1 and 2 assert the published class-count anchors for k >= 4; this
implementation computes the exact definitional quotient instead (85, 3282,
506935 for k = 4, 5, 6), so those two asserts fail; see the README's
Known-discrepancy section.  Everything else must pass.
"""

import random
import time

import pytest

from mcbound.bounds import (all_circuits_bound, b_n_size, circuits_per_topology,
                            negnormal_circuit_bound, negnormal_circuits_per_topology,
                            raw_topology_count, refined_bound)
from mcbound.circuits import (is_negation_normal, minimalize_circuit,
                              negation_normalize, normalize_circuit_layering,
                              parse_circuit, topology_of, truth_table)
from mcbound.cli import main as cli_main
from mcbound.oracle import (brute_equiv_classes, enumerate_raw_topologies,
                            exhaustive_function_set, literal_equivalent,
                            verify_completeness_small)
from mcbound.randgen import random_circuit
from mcbound.topology import (canonical_form, generate, is_minimal,
                              is_well_layered, layering)

from conftest import MAJ4_TEXT, long_tier

PUBLISHED_COUNTS = {1: 1, 2: 2, 3: 8, 4: 88, 5: 3564, 6: 555709}


@pytest.fixture(scope="module")
def canonicalization_gate():
    """Criterion 10's soundness gate; generation tiers depend on it."""
    for k in range(1, 5):
        groups = {}
        for t in enumerate_raw_topologies(k):
            if is_well_layered(t):
                groups.setdefault(canonical_form(t).encode(), []).append(t)
        for members in groups.values():
            rep = members[0]
            for other in members[1:]:
                assert literal_equivalent(rep, other), \
                    "canonical collision between inequivalent topologies"
        reps = [members[0] for members in groups.values()]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not literal_equivalent(reps[i], reps[j]), \
                    "equivalent topologies received distinct canonical forms"
    return True


def test_criterion_01_class_counts_fast_tier(canonicalization_gate):
    start = time.time()
    counts = {k: generate(k).count for k in range(1, 6)}
    elapsed = time.time() - start
    assert elapsed < 60, f"fast tier took {elapsed:.1f}s"
    expected = {k: PUBLISHED_COUNTS[k] for k in range(1, 6)}
    assert counts == expected, (
        f"computed {counts}, expected {expected}: the k>=4 anchors are not "
        f"reproducible from the stated definitions (see README, Known discrepancy)")
    print("criterion 1: PASS")


@long_tier
def test_criterion_02_class_count_long_tier(canonicalization_gate):
    single = generate(6, workers=1)
    parallel = generate(6, workers=2)
    assert single.members == parallel.members, "worker count changed the result"
    assert single.count == PUBLISHED_COUNTS[6], (
        f"computed {single.count}, expected {PUBLISHED_COUNTS[6]}: the anchor is "
        f"not reproducible from the stated definitions (see README, Known discrepancy)")
    print("criterion 2: PASS")


def test_criterion_03_oracle_cross_validation():
    start = time.time()
    for k in range(1, 5):
        raw = list(enumerate_raw_topologies(k))
        assert len(raw) == raw_topology_count(k)
        kept = [t for t in raw if is_well_layered(t) and is_minimal(t)]
        classes = brute_equiv_classes(kept)
        generated = generate(k)
        assert len(classes) == generated.count, \
            f"k={k}: {len(classes)} brute classes vs {generated.count} generated"
        by_encoding = {}
        for ci, cls in enumerate(classes):
            for t in cls:
                by_encoding[t.encode()] = ci
        hits = [0] * len(classes)
        for member in generated.members:
            ci = by_encoding.get(member.encode())
            assert ci is not None, f"k={k}: generated member outside every class"
            hits[ci] += 1
        assert all(h == 1 for h in hits), f"k={k}: classes not hit exactly once"
    elapsed = time.time() - start
    assert elapsed < 120, f"cross-validation took {elapsed:.1f}s"
    print("criterion 3: PASS")


def test_criterion_04_bound_chain_bit_exact():
    assert all_circuits_bound(7, 6) == 2 ** 140
    assert negnormal_circuit_bound(7, 6) == 3 ** 6 * 2 ** 128
    assert negnormal_circuit_bound(7, 6) > 2 ** 137
    assert refined_bound(7, 6, 555709) < 2 ** 128
    assert b_n_size(7) == 2 ** 128
    assert cli_main(["prove", "--n", "7", "--k", "6", "--classes", "555709"]) == 0
    print("criterion 4: PASS")


def test_criterion_05_bound_identities():
    for n in range(1, 11):
        for k in range(1, 11):
            assert raw_topology_count(k) * circuits_per_topology(n, k) \
                == all_circuits_bound(n, k)
            assert raw_topology_count(k) * negnormal_circuits_per_topology(n, k) \
                == negnormal_circuit_bound(n, k)
    print("criterion 5: PASS")


def test_criterion_06_rewrite_preservation():
    rng = random.Random(42)
    for case in range(1000):
        c = random_circuit(rng, max_n=4, max_k=4)
        reference = truth_table(c)

        nn = negation_normalize(c)
        assert truth_table(nn) == reference, f"case {case}: table changed"
        assert is_negation_normal(nn), f"case {case}: constant not eliminated"
        assert negation_normalize(nn) == nn, f"case {case}: not idempotent"

        layered = normalize_circuit_layering(c)
        assert truth_table(layered) == reference, f"case {case}: layering broke table"
        mini = minimalize_circuit(layered)
        topo = topology_of(mini)
        assert truth_table(mini) == reference, f"case {case}: minimalize broke table"
        assert is_minimal(topo), f"case {case}: not minimal"
        assert is_well_layered(topo), f"case {case}: layering lost"
        assert minimalize_circuit(mini) == mini, f"case {case}: not idempotent"
    print("criterion 6: PASS")


def test_criterion_07_majority_end_to_end():
    c = parse_circuit(MAJ4_TEXT)
    tt = truth_table(c)
    for v in range(16):
        assert tt.bit(v) == (1 if bin(v).count("1") >= 3 else 0)
    topo = topology_of(c)
    assert topo.gates == ((0, 0), (0, 0), (0, 2), (1, 2))
    assert layering(topo).layers == (0b0011, 0b1100)
    print("criterion 7: PASS")


def test_criterion_08_three_input_functions():
    start = time.time()
    covered = exhaustive_function_set(3, 2, generate(2))
    assert len(covered) == 2 ** 8
    partial = exhaustive_function_set(3, 1, generate(1))
    assert len(partial) < 2 ** 8
    elapsed = time.time() - start
    assert elapsed < 60, f"search took {elapsed:.1f}s"
    print("criterion 8: PASS")


def test_criterion_09_completeness_micro_check():
    assert verify_completeness_small(2, 2)
    print("criterion 9: PASS")


def test_criterion_10_canonicalization_gate(canonicalization_gate):
    assert canonicalization_gate
    print("criterion 10: PASS")
