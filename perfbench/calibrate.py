"""Machine-speed probe that divides the host's drift out of the timings.

The benchmark's host is shared with other tenants, and its speed moves by up
to 1.8x within a minute; raw per-run medians spread by 4-11 % across runs.
A fixed computation, timed after every pass, tracks that drift.  It mixes
the three kinds of work harmclass spends its time on: scalar Python
arithmetic (quadrature integrands), numpy calls on 0-d arrays (the Bloch
polynomial's bisection) and complex Horner on a 64 x 128 grid (series
evaluation).  Each unit's time is scaled by ``REFERENCE_S`` over the median
probe of the five passes around its own (``worker.run_units``).  The probe never touches harmclass, so a faster program still reads
as faster; only the machine's speed is divided out.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Median probe time on the machine where the benchmark was defined (Intel
#: Xeon, 2 shared vCPUs).  Normalized timings are in that machine's seconds.
REFERENCE_S = 1.65e-3

_RADII = 0.4975 * (1.0 - np.cos(np.pi * np.arange(1, 65) / 64))
_GRID = _RADII[:, None] * np.exp(2j * np.pi * np.arange(128) / 128)[None, :]
_SERIES = np.exp(1j * np.arange(65)) * 0.9 ** np.arange(65)
_QUARTIC = np.array([1.0, -2.0, 0.5, 0.1, -0.3])


def probe() -> float:
    """Seconds taken by the fixed probe computation."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1000):
        x = i * 5e-4
        acc += (0.3 + x) / (1.0 + 0.3 * x) * (1.0 + 0.5 * x)
    for i in range(50):
        x = np.asarray(0.3 + i * 1e-3, dtype=float)
        val = np.full(x.shape, _QUARTIC[-1])
        for c in _QUARTIC[-2::-1]:
            val = val * x + c
        acc += float(val)
    val = np.full(_GRID.shape, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        val = val * _GRID + c
    acc += float(np.abs(val).min())
    return perf_counter() - t0
