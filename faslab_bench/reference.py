"""A fixed reference kernel that measures the host's speed between samples.

The benchmark runs on small VMs shared with other tenants, where the speed
one process sees swings by up to 1.5x within minutes: every time measured in
a run moves with it, whatever the program does.  The harness therefore runs
this kernel before and after every timed unit (a set-up or a pass) and
reports each time measured inside the unit scaled by

    REFERENCE_S / mean(kernel time before, kernel time after)

that is, in seconds of a host on which the kernel takes ``REFERENCE_S``.
The kernel calls no faslab code, so a change to faslab moves the scaled
times and leaves the kernel alone.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one run of the kernel takes on a quiet 2-vCPU Xeon VM (2.0 GHz,
# numpy 2.4.6, OpenBLAS 0.3.31 on one thread).  It fixes the unit of the
# reported times; changing it rescales every figure, so it must stay the same
# on both sides of a comparison.
REFERENCE_S = 0.015


class ReferenceKernel:
    """numpy and Python work in roughly the proportions of a faslab pass.

    Dense products (training), elementwise updates of a 100k-element vector
    (Adam), generator construction and small complex vector operations
    (dataset generation and OMP), and an interpreter loop.  The inputs are
    made once, so every run does the same work.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 128))
        self.w1 = rng.standard_normal((128, 256))
        self.w2 = rng.standard_normal((256, 256))
        self.g = rng.standard_normal(100_000)
        self.m = np.zeros(100_000)
        self.v = np.zeros(100_000)
        self.p = np.zeros(100_000)
        self.ports = np.arange(64.0)
        self.angles = rng.uniform(0.0, np.pi, 20)

    def run(self) -> float:
        """Seconds one run of the kernel took."""
        start = time.perf_counter()
        for _ in range(8):
            np.maximum(self.x @ self.w1, 0.0) @ self.w2
        for _ in range(4):
            self.m *= 0.9
            self.m += 0.1 * self.g
            self.v *= 0.999
            self.v += 0.001 * self.g * self.g
            self.p -= 1e-3 * self.m / (np.sqrt(self.v) + 1e-8)
        for i in range(40):
            rng = np.random.default_rng((7, i))
            angles = self.angles + 0.01 * rng.standard_normal(20)
            atoms = np.exp(1j * np.pi * np.outer(self.ports, np.cos(angles)))
            atoms @ (rng.standard_normal(20) + 1j * rng.standard_normal(20))
        total = 0
        for i in range(15_000):
            total += i * i
        return time.perf_counter() - start
