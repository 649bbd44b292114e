"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine a CPU can run the same code 1.8x slower for seconds or
minutes at a time, with no steal time to show for it. A run therefore
interleaves this kernel with the measured work, about one part in ten, and
rescales its times to the speed at which one kernel takes ``REF_US``:

    time at reference speed = measured time * REF_US / measured kernel time

The kernel mixes what sgcvapor spends its time on: element-by-element
filling of a small matrix, a 16x16 LU solve and scalar complex arithmetic
in the interpreter. It does not call sgcvapor, so a faster program still
shows as a smaller rescaled time.

The kernel runs on a schedule that does not depend on the program: one
burst of ``BURST`` timed kernels per ``QUANTUM_NS`` of measured work, each
burst after one untimed kernel that takes the cold start left by whatever
ran before. A program whose operations get shorter or longer therefore
leaves the kernel's mean time, and the rescaling, as they were
(``reference_check.py`` checks this).

Do not change the kernel, ``REF_US``, ``BURST`` or ``QUANTUM_NS``: every
earlier result is expressed in their units.
"""

from __future__ import annotations

import time

import numpy as np

# the unit of rescaled time: about one kernel in the fast state of a shared
# Intel Xeon (Python 3.11, numpy 2.4)
REF_US = 24.0
# one burst of BURST timed kernels per QUANTUM_NS of measured work: about
# 80 * 24 us per 20 ms, a tenth of the measured time
BURST = 80
QUANTUM_NS = 20_000_000

_A = np.random.default_rng(0).standard_normal((16, 16)) + 16.0 * np.eye(16)
_B = np.ones(16)


def kernel() -> float:
    L = np.zeros((16, 16))
    for i in range(16):
        L[i, (i * 7) % 16] = 0.5 * i + 1.0
        L[i, i] = -3.0 - i
    x = np.linalg.solve(_A + L, _B)
    z = complex(x[0], x[1])
    acc = 0.0
    for k in range(40):
        acc += (z * k).real / (1.0 + k)
    return acc


class Reference:
    """Runs the kernel in bursts between measured operations and keeps its
    mean time."""

    def __init__(self):
        self.ns = 0
        self.count = 0

    def burst(self) -> None:
        kernel()
        clock = time.perf_counter_ns
        start = clock()
        for _ in range(BURST):
            kernel()
        self.ns += clock() - start
        self.count += BURST

    def scale(self) -> float:
        """Factor that turns a measured time into one at reference speed."""
        if not self.count:
            self.burst()
        return REF_US * 1e3 * self.count / self.ns
