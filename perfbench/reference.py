"""Fixed reference work that measures how fast the host is right now.

The benchmark host is a shared virtual machine whose speed drifts by up to
2x in stretches that last minutes.  The benchmark times reference work next
to what it measures and divides by it, so a slow stretch that slows both
cancels out.  Neither reference uses ckdv code, so no change to ckdv changes
their time.

- `timed`: a loop that mixes the kinds of work the workloads do:
  interpreter arithmetic, many small numpy calls, 1-D FFTs of mid size and a
  2-D FFT over a field that does not fit in the L1/L2 caches.  It is the
  yardstick for operations and for the computing part of set-up.
- `process_timed`: a fresh interpreter that imports numpy and scipy and
  exits.  It is the yardstick for the start of a set-up process, which is
  mostly interpreter start and imports.

The numpy.fft functions are bound here at import, before the tracer wraps
numpy.fft, so the loop costs the same in traced and untraced passes.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from numpy.fft import fft2, ifft2, irfft, rfft

REPS = 8
# Duration of one call of `timed` at the host's fast speed (the fastest time
# seen over several minutes on a 2-vCPU Xeon guest).  Operation times divided
# by the reference time are multiplied by this, so they read as seconds at
# that speed.
NOMINAL_S = 0.035
# The same for one call of `process_timed`.
PROCESS_NOMINAL_S = 0.65
_BARE_IMPORTS = "import numpy, scipy.integrate, scipy.optimize"

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal(2048)
_SMALL = _rng.standard_normal((4, 64))
_FIELD = _rng.standard_normal((128, 512))
_DAMP = 1.0 / (1.0 + np.arange(1025))


def _loop() -> float:
    acc = 0.0
    for _ in range(REPS):
        t = 0.0
        for j in range(3000):
            t += (j % 7) * 0.5 - t * 1e-6
        acc += t
        for row in _SMALL:
            for _k in range(25):
                acc += float(irfft(rfft(row) * 0.5, n=row.size)[0])
        for n in (256, 512, 2048):
            h = rfft(_X[:n])
            acc += float(irfft(h * _DAMP[: h.size], n=n)[1])
        acc += float(np.abs(ifft2(fft2(_FIELD) * 0.5)).sum())
    return acc


def timed() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def process_timed() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and scipy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _BARE_IMPORTS], check=True)
    return time.perf_counter() - t0
