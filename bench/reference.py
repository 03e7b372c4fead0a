"""How fast the machine running the benchmark executes plain Python now.

The benchmark shares its machine, whose speed drifts by tens of percent
within minutes. A run therefore interleaves its timed work with runs of a
fixed pure-Python kernel (one before each command, set-up, or block of
stream queries) and reports every time scaled to a machine on which that
kernel takes NOMINAL_S seconds:

    reported = measured * NOMINAL_S / median kernel time of the run

The kernel is benchmark code and never changes with mwlab, so the scale
cancels the machine's drift between runs but not a change in mwlab's speed.
The raw seconds are kept in the result file next to the scaled ones.
"""

from __future__ import annotations

import time

# The kernel's median time on the 2-core machine the bounds were set on.
NOMINAL_S = 0.06


def kernel() -> int:
    """Modular powers, small-int arithmetic and dict updates, the mix that
    mwlab's scans are made of."""
    table: dict[int, int] = {}
    acc = 0
    for n in range(3, 120_001, 2):
        r = pow(2, n - 1, n)
        acc = (acc + r * n) % 1_000_003
        table[r % 4099] = n
    return acc + len(table)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
