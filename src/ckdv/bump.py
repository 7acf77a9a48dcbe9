"""Smooth time cutoff of the space-time norm machinery.

psi is the classic mollifier-based bump: identically 1 on |t| <= 1,
identically 0 on |t| >= 2, smooth and monotone on the transition.  The
profile is fixed once so any constant that depends on it is
reproducible run to run.
"""

from __future__ import annotations

import numpy as np


def _mollifier(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    pos = y > 0.0
    out[pos] = np.exp(-1.0 / y[pos])
    return out


def psi(t):
    """exp(-1/x)-mollifier bump: 1 on |t| <= 1, 0 on |t| >= 2.

    psi(t) = m(2 - |t|) / (m(2 - |t|) + m(|t| - 1)) with m(y) = exp(-1/y)
    for y > 0 and 0 otherwise; the denominator never vanishes.
    """
    ta = np.abs(np.asarray(t, dtype=np.float64))
    a = _mollifier(2.0 - ta)
    b = _mollifier(ta - 1.0)
    out = a / (a + b)
    if np.ndim(t) == 0:
        return float(out)
    return out


def psi_T(t, T: float):
    """Rescaled cutoff psi(t / T)."""
    if not (T > 0.0):
        raise ValueError("cutoff scale T must be positive")
    return psi(np.asarray(t, dtype=np.float64) / T)
