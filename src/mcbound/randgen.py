"""Seeded random circuit sampling for the rewrite verification suites."""

from .circuits import TOP, Circuit, g, x


def random_circuit(rng, max_n=4, max_k=4):
    """One random circuit with n <= max_n inputs and k <= max_k gates, drawn
    from the given random.Random instance (reproducible by seed)."""
    n = rng.randint(1, max_n)
    k = rng.randint(0, max_k)
    gates = []
    for i in range(1, k + 1):
        pool = _term_pool(n, i)
        gates.append((_pick(rng, pool), _pick(rng, pool)))
    return Circuit(n, tuple(gates), _pick(rng, _term_pool(n, k + 1)))


def _term_pool(n, gate_limit):
    pool = [x(j) for j in range(1, n + 1)]
    pool.append(TOP)
    pool.extend(g(j) for j in range(1, gate_limit))
    return pool


def _pick(rng, pool):
    return frozenset(t for t in pool if rng.random() < 0.4)
