"""Host-speed kernels: fixed pieces of work, independent of ``lsv_shortmat``,
timed right before and right after every command to scale its time.

The shared 2-vCPU host the benchmark was tuned on switches between speed
states a factor of about 1.5 apart, every few seconds to minutes, and a 30 s
run can sit in either.  Raw command times follow that state, so medians of
raw times spread by 20-35% between runs of identical code.  A command's time
divided by the time of a kernel that does the same kind of work, next to it
in time, spread by 2-6% between the same 30 s windows.

Two kernels, because the two kinds of work react differently to the host's
state:

* ``solver``: scipy Nelder-Mead over an objective that calls ``quad``, as a
  rate solve does.  Scales ``table1`` and ``smile`` commands.
* ``paths``: Philox normals and vector arithmetic over a block of paths, as
  a simulation step does.  Scales ``mc`` and ``compare`` commands.

A scaled time is ``raw * REFERENCE_S[kind] / kernel_s``, with ``kernel_s``
the mean of the kernel runs just before and just after the command: the time
the command would take on a host where the kernel takes ``REFERENCE_S[kind]``,
its median on the tuning host.  The raw times are kept in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

# median kernel seconds on the 2-vCPU host the benchmark was tuned on, over
# about 1200 kernel runs in ten 32 s runs
REFERENCE_S = {"solver": 0.036, "paths": 0.029}

_PATHS = 16384
_STEPS = 30


def _objective(p) -> float:
    x, y = p
    val, _ = quad(lambda t: math.exp(-x * x * t * t) * math.cos(y * t), 0.0, 1.0)
    return (x - 1.0) ** 2 + (y - 2.0) ** 2 + val


def _solver() -> float:
    total = 0.0
    for _ in range(5):
        res = minimize(_objective, [0.3, 0.4], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 400})
        total += res.fun
    return total


def _paths() -> float:
    rng = np.random.Generator(np.random.Philox(7))
    x = np.zeros(_PATHS)
    v = np.ones(_PATHS)
    for _ in range(_STEPS):
        z = rng.standard_normal((2, _PATHS))
        v = v * np.exp(0.1 * z[0] - 0.005)
        x = x + np.sqrt(v) * z[1] * 0.01
    return float(x.sum())


KERNELS = {"solver": _solver, "paths": _paths}


def kernel_seconds(kind: str) -> float:
    """Seconds one run of the ``kind`` kernel takes now."""
    fn = KERNELS[kind]
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def warm_up() -> None:
    """Run every kernel once, so that lazy imports and caches are not timed."""
    for fn in KERNELS.values():
        fn()


class Bracket:
    """Kernel runs around a sequence of commands.  The run after one command
    serves as the run before the next when both use the same kernel, which
    halves the kernel time a pass spends."""

    def __init__(self) -> None:
        self._last: tuple[str, float] | None = None

    def before(self, kind: str) -> float:
        if self._last is not None and self._last[0] == kind:
            return self._last[1]
        return kernel_seconds(kind)

    def after(self, kind: str) -> float:
        seconds = kernel_seconds(kind)
        self._last = (kind, seconds)
        return seconds


def scale(kind: str, before_s: float, after_s: float) -> float:
    """Factor turning a raw time, bracketed by two kernel runs, into a
    scaled time."""
    return REFERENCE_S[kind] / (0.5 * (before_s + after_s))
