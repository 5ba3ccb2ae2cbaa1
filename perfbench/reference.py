"""A fixed reference task that gauges how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-35 % over tens of seconds, while the process's own CPU time drifts with it.
So every timed op is followed by one run of this task, which never touches
``beyondcp``, and the op's wall time is rescaled by how long the task took
right then:

    corrected time = wall time * NOMINAL_NS / reference time

A slowdown of the host stretches both the op and the task and cancels out; a
change to ``beyondcp`` moves only the op.  ``NOMINAL_NS`` is a constant (the
task's typical time on a 2-vCPU x86-64 host with one BLAS thread), so the
corrected times read as wall times on a host of that speed.

The task mixes the three kinds of work the workloads do: a pure-Python loop,
small numpy array operations in a Python loop, and one BLAS-backed SVD.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_NS = 6_000_000

_SMALL = np.random.default_rng(0).standard_normal((4, 4))
_EYE = np.eye(2)
_LARGE = np.random.default_rng(1).standard_normal((120, 120))
_svd = np.linalg.svd  # bound now, so that a traced numpy.linalg.svd is not used


def _task() -> float:
    s = 0
    for i in range(20_000):
        s += i * i
    x = _SMALL
    for _ in range(100):
        x = np.kron(_SMALL, _EYE)[:4, :4] @ _SMALL + x.T
        x = x / np.linalg.norm(x)
    return s + float(x[0, 0]) + float(_svd(_LARGE, compute_uv=False)[0])


def measure() -> int:
    """Wall time of one run of the reference task, in ns."""
    start = time.perf_counter_ns()
    _task()
    return time.perf_counter_ns() - start
