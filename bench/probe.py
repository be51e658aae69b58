"""A fixed piece of work that measures how fast the machine runs right now.

On the 2-core VM this benchmark was built on, identical work runs up to 1.8
times slower in phases that last from seconds to minutes, with the load on
the host.  Process CPU time tracks wall time through these phases, so the
process is not descheduled: the core itself runs slower.  Raw medians of
35-second runs then spread by 25-30% between runs.

The worker therefore times this probe between operations, at most once a
second, and scales each operation's wall time to the machine speed at
which the probe takes REFERENCE_S seconds.  The probe mixes the kinds of
work lossywave does and uses no lossywave code, so a change to the program
cannot move it:

- numpy complex arithmetic on 20k-sample arrays and, through many calls,
  on 64-sample arrays (the per-call cost of solver loops);
- passes over a 4 MB buffer, twice the size of a core's L2 cache, as the
  spectra and signals on large grids are (the buffer stays allocated, so
  it adds a constant 4 MB to the worker's peak memory);
- scalar math in a Python loop and 17-digit float formatting.

Over two minutes of alternating probes and commands, scaling cut the
spread (quartile distance over median) of a `bounds` command from 0.16 to
0.12, and that of a 2**18-sample `pulse` from 0.15 to 0.13.  A probe with
only the 20k-sample arrays, the loop and the formatting did worse (0.19 and
0.16 against 0.23 and 0.26 unscaled, in another two minutes).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.025  # about the probe time in this VM's fast phases
_MEDIUM = np.linspace(0.1, 1e3, 20_000)
_SMALL = np.linspace(0.1, 1e3, 64)
_BUFFER = np.full(1 << 19, 0.5)


def _attenuation(w):
    return np.exp(-np.real(w / np.sqrt(1.0 + (-1j * 1e-6 * w) ** 0.66)))


def probe_s():
    """Best of two timings of the fixed work, in seconds."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        for _ in range(5):
            _attenuation(_MEDIUM)
        for _ in range(300):
            _attenuation(_SMALL)
        for _ in range(5):
            np.negative(_BUFFER, out=_BUFFER)
            _BUFFER.sum()
        total = 0.0
        for i in range(15_000):
            total += math.exp(-i * 1e-4)
        ",".join(f"{x:.17g}" for x in _MEDIUM[:4000])
        best = min(best, perf_counter() - start)
    return best


def speed_factor(before, after):
    """Factor that scales a timing taken between two probes to the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
