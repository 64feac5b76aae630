"""Coupled-inductance matrices for transformers with split sub-windings.

Each physical winding is split into two sub-windings at the fault fraction:
leakage divides linearly with the turns fraction, magnetizing inductance
scales with the fraction squared, and every mutual term is the geometric
mean of the two magnetizing components. Voltages are in kV, currents in kA,
inductances in henries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FaultFractionOutOfRange, NonPositiveParameter


@dataclass(frozen=True)
class TwoWindingParams:
    """Electrical ratings plus the shorted percentage of each winding."""

    mva: float
    v1: float
    v2: float
    f: float = 60.0
    xl: float = 0.1
    im: float = 0.01
    fault1: float = 50.0
    fault2: float = 50.0

    def __post_init__(self):
        for name in ("mva", "v1", "v2", "f", "xl", "im"):
            if getattr(self, name) <= 0:
                raise NonPositiveParameter(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("fault1", "fault2"):
            pct = getattr(self, name)
            if not 0.0 <= pct <= 100.0:
                raise FaultFractionOutOfRange(f"{name} must be in [0, 100], got {pct}")


@dataclass(frozen=True)
class InductanceMatrix:
    """Symmetric sub-winding inductance matrix, in henries."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.float64)
        if ent.shape != (self.order, self.order):
            raise ValueError("entries shape must match order")
        object.__setattr__(self, "entries", ent)


def _sub_winding_parts(v, base_i, w, xl, im, frac):
    """(leakage, magnetizing) henries for one sub-winding of turns fraction frac."""
    z = v / base_i
    lk = xl * z / w
    lmag_full = v / (w * im * base_i)
    return lk / 2.0 * frac, lmag_full * frac * frac


def build_coupled_L(windings, mva, f, xl, im) -> np.ndarray:
    """Generic N-winding builder; ``windings`` is a list of (v_kV, fault_pct).

    Returns the (2N x 2N) matrix over sub-windings ordered
    (w1 shorted part, w1 rest, w2 shorted part, w2 rest, ...).
    """
    w = 2.0 * math.pi * f
    leak = []
    mag = []
    for v, pct in windings:
        base_i = mva / v
        fa = pct * 0.01
        for frac in (fa, 1.0 - fa):
            ll, lm = _sub_winding_parts(v, base_i, w, xl, im, frac)
            leak.append(ll)
            mag.append(lm)
    n = len(leak)
    out = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        out[i, i] = leak[i] + mag[i]
        for j in range(i + 1, n):
            m = math.sqrt(mag[i] * mag[j])
            out[i, j] = m
            out[j, i] = m
    return out


def build_two_winding_L(p: TwoWindingParams) -> InductanceMatrix:
    """4x4 matrix over sub-windings (x, y, z, w).

    x is the shorted fraction of winding 1 and y its remainder; z and w are
    the same split of winding 2. Symmetric by construction, with the
    geometric-mean rule on every mutual.
    """
    entries = build_coupled_L(
        [(p.v1, p.fault1), (p.v2, p.fault2)], p.mva, p.f, p.xl, p.im
    )
    return InductanceMatrix(order=4, entries=entries)
