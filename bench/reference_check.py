"""Check that the reference kernel's time does not follow the program's speed.

    python3 bench/reference_check.py

Runs synthetic operations of four lengths, each streaming through 16 MB of
memory so that a long operation leaves the caches colder than a short one,
with the reference kernel on its schedule (reference.py). Lengths take
turns in short blocks, so that each sees the same mix of machine speed.
Prints, per length, the mean time of the scheduled kernels, which scale
the measured times, and of one cold kernel run right after an operation,
which the schedule leaves out. The scheduled means should agree across
lengths; a spread of a few percent is the machine's own.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import QUANTUM_NS, Reference, kernel  # noqa: E402
from run import Every  # noqa: E402

LENGTHS_US = (50, 500, 5_000, 50_000)
BLOCK_S = 0.5
ROUNDS = 6


def main() -> int:
    memory = np.zeros(2 << 20)
    chunk = 8192
    where = [0]
    clock = time.perf_counter_ns

    def operation(length_ns):
        end = clock() + length_ns
        while clock() < end:
            i = where[0]
            memory[i:i + chunk] += 1.0
            where[0] = (i + chunk) % len(memory)

    scheduled = {n: [] for n in LENGTHS_US}
    cold = {n: [] for n in LENGTHS_US}
    for _ in range(ROUNDS):
        for length in LENGTHS_US:
            reference, firsts = Reference(), []

            def burst():
                t0 = clock()
                kernel()
                firsts.append(clock() - t0)
                reference.burst()

            schedule = Every(QUANTUM_NS, burst)
            timed = 0
            while timed < BLOCK_S * 1e9:
                t0 = clock()
                operation(length * 1000)
                elapsed = clock() - t0
                timed += elapsed
                schedule.after(elapsed)
            scheduled[length].append(reference.ns / reference.count / 1e3)
            cold[length].append(statistics.mean(firsts) / 1e3)

    print(f"{'operation':>12s} {'scheduled kernel':>18s} {'cold kernel':>13s}   (median of {ROUNDS} blocks)")
    for length in LENGTHS_US:
        print(f"{length:>9d} us {statistics.median(scheduled[length]):>15.2f} us "
              f"{statistics.median(cold[length]):>10.2f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
