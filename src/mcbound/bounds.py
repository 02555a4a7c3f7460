"""Exact integer counting bounds and the pigeonhole comparison.

Everything here is plain arbitrary-precision integer arithmetic; the final
verdicts hinge on strict comparisons with margins as small as a factor of 4,
so no value is ever approximated.
"""

from collections import namedtuple

from .errors import CapacityError

_BN_MAX_ARITY = 30  # |B_n| for n=30 is a 2^30-bit integer; beyond that, refuse

# Python writes an int of at most 4,300 digits as text by default; every
# value up to 2^_REPORT_MAX_LOG2 has at most that many.
_REPORT_MAX_DIGITS = 4300
_REPORT_MAX_LOG2 = (10 ** _REPORT_MAX_DIGITS).bit_length() - 1


def _check(n, k):
    if n < 1:
        raise ValueError("arity must be at least 1")
    if k < 0:
        raise ValueError("gate count must be non-negative")


def all_circuits_bound(n, k):
    """Count of circuit descriptions with k AND gates on n inputs:
    2^(k^2 + 2k + 2kn + n + 1)."""
    _check(n, k)
    return 1 << (k * k + 2 * k + 2 * k * n + n + 1)


def raw_topology_count(k):
    """Number of distinct gate topologies on k gates: 2^(k^2 - k)."""
    if k < 0:
        raise ValueError("gate count must be non-negative")
    return 1 << (k * k - k)


def circuits_per_topology(n, k):
    """Circuits sharing one fixed topology: (2^(n+1))^(2k) * 2^(k+n+1)."""
    _check(n, k)
    return (1 << ((n + 1) * 2 * k)) * (1 << (k + n + 1))


def negnormal_circuits_per_topology(n, k):
    """Negation-normal circuits sharing one fixed topology:
    (3 * 2^(2n))^k * 2^(n+k+1)."""
    _check(n, k)
    return (3 ** k) * (1 << (2 * n * k)) * (1 << (n + k + 1))


def negnormal_circuit_bound(n, k):
    """Computable-function bound via negation-normal circuits over all
    topologies: 3^k * 2^(k^2 + 2kn + n + 1)."""
    _check(n, k)
    return (3 ** k) * (1 << (k * k + 2 * k * n + n + 1))


def refined_bound(n, k, classes):
    """Computable-function bound using the exact topology class count:
    3^k * 2^(2kn + n + k + 1) * classes."""
    _check(n, k)
    if classes < 1:
        raise ValueError("class count must be at least 1")
    return (3 ** k) * (1 << (2 * k * n + n + k + 1)) * classes


def b_n_size(n):
    """Number of n-input Boolean functions: 2^(2^n)."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > _BN_MAX_ARITY:
        raise CapacityError(
            f"exact |B_n| needs a 2^{n}-bit integer; capped at n <= {_BN_MAX_ARITY}")
    return 1 << (1 << n)


class BoundReport(namedtuple("BoundReport", "n k topology_classes all_circuits raw_topologies "
                                            "per_topology negnormal_per_topology "
                                            "negnormal_circuits refined b_n verdict")):
    """All bound values for one (n, k, class count) instance.  The verdict is
    true iff the refined bound is strictly below |B_n|, i.e. some n-input
    function needs more than k AND gates.  An immutable named tuple."""

    __slots__ = ()


def check_report_size(n, k, classes):
    """Raise CapacityError unless every value of the report for (n, k,
    classes) is at most 2^_REPORT_MAX_LOG2, and so prints.  Judged from the
    exponents, before any value is computed: only the refined bound (with
    3^k below 4^k) and |B_n| can exceed the all-circuits bound."""
    _check(n, k)
    log2 = max(k * k + 2 * k + 2 * k * n + n + 1,
               2 * k * n + n + 3 * k + 1 + classes.bit_length(),
               1 << min(n, _REPORT_MAX_LOG2.bit_length()))
    if log2 > _REPORT_MAX_LOG2:
        raise CapacityError(f"the report for n={n} k={k} has values of more than "
                            f"{_REPORT_MAX_DIGITS} digits")


def pigeonhole_report(n, k, classes):
    """Assemble every bound for (n, k) with the given topology class count."""
    refined = refined_bound(n, k, classes)
    b_n = b_n_size(n)
    return BoundReport(
        n=n,
        k=k,
        topology_classes=classes,
        all_circuits=all_circuits_bound(n, k),
        raw_topologies=raw_topology_count(k),
        per_topology=circuits_per_topology(n, k),
        negnormal_per_topology=negnormal_circuits_per_topology(n, k),
        negnormal_circuits=negnormal_circuit_bound(n, k),
        refined=refined,
        b_n=b_n,
        verdict=refined < b_n,
    )


def render_report(report):
    """Plain-text rendering: one 'name = <decimal>' line per value, then the
    verdict line."""
    lines = [
        f"n = {report.n}",
        f"k = {report.k}",
        f"topology_classes = {report.topology_classes}",
        f"all_circuits_bound = {report.all_circuits}",
        f"raw_topology_count = {report.raw_topologies}",
        f"circuits_per_topology = {report.per_topology}",
        f"negnormal_circuits_per_topology = {report.negnormal_per_topology}",
        f"negnormal_circuit_bound = {report.negnormal_circuits}",
        f"refined_bound = {report.refined}",
        f"|B_n| = {report.b_n}",
        f"verdict: M({report.n}) >= {report.k + 1}: {'true' if report.verdict else 'false'}",
    ]
    return "\n".join(lines)
