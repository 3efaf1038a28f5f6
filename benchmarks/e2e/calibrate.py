"""A fixed kernel that measures how fast the machine is right now.

The box this benchmark is sized for is a 2-core shared VM whose effective
speed moves by a third for minutes at a time (same code, same inputs, CPU
time and wall-clock rising together).  Raw wall-clock therefore cannot hold
any regression bound tighter than that swing.  Every invocation interleaves
this kernel -- NumPy and pure-Python work of the program's own flavour, none
of the program's code -- with its units and scales the timings it reports by
``REFERENCE_S / (mean kernel time)``.  A slow phase slows kernel and workload
alike and cancels; a change to the program cannot touch the kernel and shows
in full.  The raw, unscaled timings travel in the detail line and the traced
pass reports the machine speed it saw (``machine.speed``).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Kernel time on the reference box in its fast phase; a pure scale factor
#: that makes normalized seconds read like that box's seconds.
REFERENCE_S = 0.100

_RNG = np.random.default_rng(1234)
_A = _RNG.standard_normal((64, 192))
_B = _RNG.standard_normal((192, 96))
_V = _RNG.standard_normal((16, 12, 16, 16))


def kernel() -> float:
    """One pass of the fixed instruction mix; returns its wall-clock seconds."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(600):
        y = np.maximum(_A @ _B, 0.0)  # small BLAS call + elementwise
        z = (_V * 1.01 + 0.5).sum(axis=(2, 3))  # allocation + streaming + reduction
        total += float(y[0, 0]) + float(z[0, 0])
        table = {}
        for i in range(200):  # interpreter-bound object churn
            table[i] = (i, total)
    return time.perf_counter() - start


def sample(count: int = 4) -> List[float]:
    return [kernel() for _ in range(count)]
