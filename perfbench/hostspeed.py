"""Host-speed probe: a fixed piece of work, timed between trajectories.

The benchmark runs on shared hosts whose speed moves between states up to
1.8x apart, each lasting from seconds to minutes, so a run's median wall
time says as much about the host as about the program.  The probe does the
same kinds of work as the program (interpreter loops, numpy calls on
16-element arrays, 32x32 complex matrix products, a pass over a 1 MiB
array) and uses no ``oqite`` code, so a change to the program cannot move
it.  A sample's wall time times :data:`REFERENCE_S` over the probe time
taken next to it is the sample's time at one fixed host speed.
"""

from __future__ import annotations

import time

import numpy as np

# Sets the scale of the normalized times.  On a shared 2-vCPU x86-64 host
# (Python 3.11, numpy 2.4, OpenBLAS) the probe took 12 to 24 ms, moving
# with the host's speed; 20 ms is its usual time there.
REFERENCE_S = 0.020

_SMALL = np.arange(16.0) + 0.5j
_MATRIX = np.eye(32, dtype=np.complex128) * (1.0 + 1e-9j)
_STREAM = np.ones(1 << 16, dtype=np.complex128)


def probe() -> float:
    """Wall time of one pass of the fixed probe work, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(60_000):
        acc += k * k % 7
    a = _SMALL
    for _ in range(3_000):
        a = np.conj(a * (1.0 + 0j))
    m = _MATRIX
    for _ in range(300):
        m = m @ _MATRIX
    b = _STREAM
    for _ in range(10):
        b = b * (1.0 + 1e-9j)
    return time.perf_counter() - t0
