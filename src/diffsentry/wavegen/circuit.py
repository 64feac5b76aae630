"""Mesh-reduced lumped circuit for the split-winding transformer bank.

The three phases are magnetically independent single-phase units, each
described by the 4x4 sub-winding matrix. Mesh currents are the state:
one source mesh and one load mesh per phase, plus fault meshes switched in
at the inception sample. Integration is the trapezoidal rule,

    (L + h/2 R) i[n+1] = (L - h/2 R) i[n] + h/2 (v[n] + v[n+1]),

and the pre-fault state is initialized on the exact periodic orbit of the
discrete recurrence, so the pre-inception record is periodic to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingularMatrix

_COND_LIMIT = 1e14


@dataclass
class MeshSystem:
    """Constant-coefficient mesh equations L di/dt = v(t) - R i."""

    L: np.ndarray          # (m, m) mesh inductance, henries
    R: np.ndarray          # (m, m) mesh resistance, ohms
    source_cols: np.ndarray  # (m, 3) maps 3-phase source voltages onto meshes

    @property
    def size(self) -> int:
        return self.L.shape[0]


def reduce_meshes(l_windings, r_windings, incidence, extra_r, source_cols) -> MeshSystem:
    """Project winding-level L and R onto mesh coordinates.

    ``incidence`` is (n_windings, n_meshes): winding currents = incidence @
    mesh currents. ``extra_r`` adds lumped per-mesh resistances (source,
    load, fault).
    """
    c = np.asarray(incidence, dtype=np.float64)
    lm = c.T @ l_windings @ c
    rm = c.T @ np.diag(r_windings) @ c + np.diag(extra_r)
    return MeshSystem(L=lm, R=rm, source_cols=np.asarray(source_cols, dtype=np.float64))


def _step_matrices(sys: MeshSystem, h: float):
    lhs = sys.L + 0.5 * h * sys.R
    cond = np.linalg.cond(lhs)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrix(
            f"mesh matrix is numerically singular (cond={cond:.3g}); "
            "check the configured fault fractions"
        )
    lhs_inv = np.linalg.inv(lhs)
    a_d = lhs_inv @ (sys.L - 0.5 * h * sys.R)
    b_d = lhs_inv * (0.5 * h)
    return a_d, b_d


def periodic_state(sys: MeshSystem, h: float, theta_step: float, phasors: np.ndarray) -> np.ndarray:
    """State at n=0 of the exact periodic orbit of the trapezoidal recurrence.

    ``phasors`` holds complex per-phase source amplitudes V such that
    v_phase[n] = Re(V * exp(1j * theta_step * n)).
    """
    a_d, b_d = _step_matrices(sys, h)
    v_mesh = sys.source_cols @ phasors  # complex per-mesh amplitude
    z = np.exp(1j * theta_step)
    lhs = z * np.eye(sys.size) - a_d
    rhs = b_d @ v_mesh * (1.0 + z)
    i_ph = np.linalg.solve(lhs, rhs)
    return np.real(i_ph)


def run_piecewise(
    segments,
    h: float,
    v_samples: np.ndarray,
    i0: np.ndarray,
) -> np.ndarray:
    """Integrate a sequence of LTI segments over a shared 3-phase source.

    ``segments`` is a list of (start_index, MeshSystem); each segment runs
    until the next one begins, from the previous segment's final state with
    its new fault meshes at zero.
    Returns the full mesh-state trajectory, padded with NaN for meshes that
    do not exist yet in earlier segments.
    """
    n = v_samples.shape[0]
    widths = [seg.size for _, seg in segments]
    out = np.full((n, max(widths)), np.nan)
    state = np.asarray(i0, dtype=np.float64)
    for k, (start, sys) in enumerate(segments):
        # integrate up to the next segment's start sample; its dynamics take
        # over from there with the new meshes starting at zero current
        stop = segments[k + 1][0] if k + 1 < len(segments) else n - 1
        if k > 0:
            grown = np.zeros(sys.size)
            grown[: state.shape[0]] = state
            state = grown
        a_d, b_d = _step_matrices(sys, h)
        bs = b_d @ sys.source_cols  # (m, 3)
        out[start, : sys.size] = state
        for idx in range(start, stop):
            state = a_d @ state + bs @ (v_samples[idx] + v_samples[idx + 1])
            out[idx + 1, : sys.size] = state
    return out


def step_lti(L, R, v_fn, i0, h, n_steps) -> np.ndarray:
    """Plain trapezoidal integration of L di/dt = v(t) - R i; returns states.

    Small generic entry point used for conservation checks and one-off
    circuits; v_fn maps a time in seconds to the forcing vector.
    """
    L = np.asarray(L, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    sys = MeshSystem(L=L, R=R, source_cols=np.zeros((L.shape[0], 3)))
    a_d, b_d = _step_matrices(sys, h)
    out = np.empty((n_steps + 1, L.shape[0]))
    out[0] = i0
    state = np.asarray(i0, dtype=np.float64)
    for k in range(n_steps):
        v_sum = np.asarray(v_fn(k * h)) + np.asarray(v_fn((k + 1) * h))
        state = a_d @ state + b_d @ v_sum
        out[k + 1] = state
    return out


def magnetic_energy(L, i) -> float:
    """0.5 i^T L i for a state vector."""
    i = np.asarray(i, dtype=np.float64)
    return 0.5 * float(i @ (np.asarray(L) @ i))
