"""Scaling measured times to a fixed machine speed.

The reference box is a shared 2-core VM whose speed drifts.  The same
``prove --n 7 --k 5`` repetition measured anywhere from 0.12 s to 0.25 s
within one minute, the guest showed next to no steal time, and slow phases
can outlast a whole run, so a median over one run cannot average them out.
Every timed measurement is therefore taken between two runs of
``reference``, a fixed pure-Python loop that shares no code with the
package, and reported as ``seconds * REFERENCE_S / mean loop seconds``:
the time it would take on a machine where the loop takes REFERENCE_S.  A
slower program moves that figure as much as its raw time; a slower
machine slows the loop too, and cancels out.  The raw times stay in the
run record.  README.md gives the spreads measured with and without it.
"""

import time

REFERENCE_S = 0.03  # about the loop's time on the reference box


def reference():
    table = {}
    acc = 0
    words = []
    for i in range(80_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= key << (i & 7)
        if not i & 31:
            words.append(f"{key:x}.{acc & 255}")
    words.sort()
    return acc, len(table), len(",".join(words))


def reference_seconds():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scaled(seconds, before_s, after_s):
    """``seconds`` at the reference speed, from the loop times just before
    and just after the measurement."""
    return seconds * REFERENCE_S * 2 / (before_s + after_s)
