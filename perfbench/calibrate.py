"""A fixed reference job that measures how fast the host runs right now.

On a shared host the same code can run up to 1.6x slower for seconds or minutes
at a time while another tenant loads the core. ``reference_s`` times a fixed job that uses the
same kinds of work as the solver: Gram-matrix regression on tall feature
arrays, elementwise ufuncs over path arrays, and a Python loop of small numpy
calls. The job never changes with the seed or with the package under test, so
its time moves only with the host. The run scales each solve by
``NOMINAL_S / reference time`` measured around it, which reports the solve in
seconds at one fixed host speed.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed constant near the reference job's time on a 2-core x86-64 KVM guest
# with one BLAS thread, so that scaled times stay in seconds.
NOMINAL_S = 0.05

_rng = np.random.default_rng(20261017)
_FEATURES = _rng.standard_normal((20_000, 6))
_TARGETS = _rng.standard_normal((20_000, 3))
_PATHS = _rng.standard_normal((20_000, 4))
_SMALL = _rng.standard_normal(8)


def _job() -> float:
    total = 0.0
    for _ in range(9):
        gram = _FEATURES.T @ _FEATURES
        coef = np.linalg.solve(gram, _FEATURES.T @ _TARGETS)
        total += float((_FEATURES @ coef)[0, 0])
    for _ in range(18):
        z = _PATHS * 1.5 + np.sin(_PATHS)
        total += float(np.maximum(z, 0.0).sum(axis=0)[0])
    for i in range(4500):
        total += float(np.dot(_SMALL, _SMALL) + i)
    return total


def reference_s() -> float:
    """Wall seconds of one reference job."""
    t0 = time.perf_counter()
    _job()
    return time.perf_counter() - t0
