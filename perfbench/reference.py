"""Fixed reference kernel that measures how fast the host runs right now.

The benchmark runs the kernel between invocations of the program. The
kernel never changes with the program, so the ratio of its fastest time in a
run to ``REFERENCE_HOST_S`` says how much slower the host was during that run
than the reference host, and the time metrics are divided by that factor.
The kernel mixes the operations the workloads spend their time on: distance
and soft-assignment arithmetic over a few thousand rows, small matrix
products in a Python loop, and one seeded generator per simulated trial.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest time of ``kernel`` on the reference host (2-vCPU Intel Xeon KVM
# guest, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread).
REFERENCE_HOST_S = 0.0035

# Bound now: the benchmark may wrap numpy.random.default_rng later.
_default_rng = np.random.default_rng
_RNG = _default_rng(20250520)
_POINTS = _RNG.normal(size=(1024, 8))
_CENTRES = _RNG.normal(size=(9, 8))
_INPUTS = _RNG.normal(size=(64, 16))
_WEIGHTS = _RNG.normal(size=(16, 10)) * 0.1


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(2):
        d2 = ((_POINTS[:, None, :] - _CENTRES[None, :, :]) ** 2).sum(axis=2)
        logits = -d2 - (-d2).max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        _ = (p[:, :, None] * (_POINTS[:, None, :] - _CENTRES[None])).sum(axis=0)
    w = _WEIGHTS.copy()
    for _ in range(20):
        z = np.tanh(_INPUTS @ w)
        z = z - z.max(axis=1, keepdims=True)
        q = np.exp(z)
        q /= q.sum(axis=1, keepdims=True)
        w -= 0.01 * (_INPUTS.T @ (q - 0.1))
    for trial in range(40):
        _default_rng((7, trial)).normal(0.0, 1.0, size=(100, 1))
    return time.perf_counter() - start
