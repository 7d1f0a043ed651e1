"""Host-speed calibration: a fixed kernel sampled all through a measurement.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of the cores in phases of a few to 60 seconds, by up
to 2.5x.  Process CPU time drifts with wall time there, so the slow-down is
in the cores, not in time stolen from them.  A fixed kernel that does not
depend on gentorus is therefore timed from a timer signal every
``INTERVAL_S`` of wall time, and every measured piece is scaled by the
kernel's speed against its reference time during that piece.  The kernel
mixes what gentorus spends its time on: interpreter-bound dictionary
arithmetic on tuple keys, and numpy (small matrix products, one SVD, one
Hermitian eigendecomposition).

The reference times are the kernel's medians on a 2-vCPU Intel Xeon
(2.0 GHz) KVM guest with one OpenBLAS thread, so reported times stay close
to seconds on that host at its usual speed.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable, List, Tuple

PY_REF_S = 0.00095
NP_REF_S = 0.00050
INTERVAL_S = 0.1


def _python_kernel() -> None:
    acc = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0.0) + i * 0.5


def _numpy_kernel_factory() -> Callable[[], None]:
    """The numpy kernel.  It calls the unwrapped ``numpy.linalg`` functions,
    so a span recorder that patches them does not count the kernel's calls."""
    import inspect

    import numpy as np

    svd, eigh = inspect.unwrap(np.linalg.svd), inspect.unwrap(np.linalg.eigh)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    h = a + a.conj().T
    small = a[:6, :6].copy()

    def kernel() -> None:
        for _ in range(20):
            x = small @ small
            x = x + x.conj().T
        svd(a)
        eigh(h)

    return kernel


class Sampler:
    """Samples the host's slow-down (1.0 = reference speed) on a timer while
    pieces of work are measured, and scales each piece by it.

    ``measure(kind, fn)`` runs ``fn`` and adds its time, less the time the
    sampler itself took inside it, to ``raw[kind]``; ``normalized[kind]``
    gets that time multiplied by the mean of 1/slow-down over the samples
    taken during the piece and the last one before it.  Until
    ``numpy_ready`` is called only the interpreter part of the kernel runs,
    so that set-up still pays for importing numpy.
    """

    def __init__(self) -> None:
        self._numpy: Callable[[], None] | None = None
        self._speeds: List[float] = []  # 1 / slow-down of each sample
        self._overhead = 0.0
        self.raw = {"setup": 0.0, "run": 0.0}
        self.normalized = {"setup": 0.0, "run": 0.0}
        self._saved: Tuple | None = None

    def numpy_ready(self) -> None:
        self._numpy = _numpy_kernel_factory()

    def _sample(self, *_: object) -> None:
        t0 = perf_counter()
        _python_kernel()
        t1 = perf_counter()
        slow = (t1 - t0) / PY_REF_S
        if self._numpy is not None:
            self._numpy()
            slow = 0.5 * (slow + (perf_counter() - t1) / NP_REF_S)
        self._speeds.append(1.0 / slow)
        self._overhead += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._sample()
        self._saved = (signal.signal(signal.SIGALRM, self._sample),)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved[0])

    def measure(self, kind: str, fn: Callable[[], object]) -> object:
        first = len(self._speeds) - 1
        overhead = self._overhead
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0 - (self._overhead - overhead)
        speeds = self._speeds[first:]
        self.raw[kind] += elapsed
        self.normalized[kind] += elapsed * sum(speeds) / len(speeds)
        return result

    def slowdowns(self) -> List[float]:
        return [1.0 / s for s in self._speeds]
