"""A fixed pure-Python computation that measures how fast the machine runs now.

On shared cores the same srlcomb operation can take 50% longer from one
minute to the next.  Each run times this reference between its operations
and scales its time metrics to the speed at which the reference takes
NOMINAL_S, so that figures from different runs compare the program rather
than the machine's momentary speed.  The reference uses the interpreter
paths srlcomb spends its time in (string splitting, number parsing, tuple
keys in dicts, sorting with a key function, frozenset intersections) over a
working set of some megabytes, like one shard's objects: a reference that
fits in cache follows the machine's speed less closely.  It does not touch
srlcomb, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.085   # about its time on a quiet core of a 2.1 GHz Xeon


def reference(n: int = 20_000) -> int:
    rows = [f"{i} {i % 7} A{i % 5} {i % 13} {i % 13 + 3} {i * 0.37!r}" for i in range(n)]
    table = {}
    for row in rows:
        f = row.split()
        table[(int(f[0]), int(f[1]), f[2], int(f[3]))] = (float(f[5]), f)
    keys = sorted(table, key=lambda k: (k[2], -k[3], k[0]))
    sets = [frozenset(range(k[0] % 50, k[0] % 50 + 30)) for k in keys[:5000]]
    return sum(len(a & b) for a, b in zip(sets, sets[1:]))


def sample(times: list) -> None:
    """Append the duration of one reference computation to `times`."""
    t0 = time.perf_counter()
    reference()
    times.append(time.perf_counter() - t0)


def slowdown(times: list) -> float:
    """How much slower than nominal the machine ran, from reference samples."""
    return statistics.median(times) / NOMINAL_S
