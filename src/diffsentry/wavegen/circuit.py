"""Mesh-reduced lumped circuit for the split-winding transformer bank.

The three phases are magnetically independent single-phase units, each
described by the 4x4 sub-winding matrix. Mesh currents are the state:
one source mesh and one load mesh per phase, plus fault meshes switched in
at the inception sample. The discretisation is the trapezoidal rule,

    (L + h/2 R) i[n+1] = (L - h/2 R) i[n] + h/2 (v[n] + v[n+1]),

written i[n+1] = A i[n] + B (v[n] + v[n+1]). Every source is a sinusoid on
the sample grid, v[n] = Re(V z^n) with z = exp(j theta), so each segment of
the recurrence is solved in closed form instead of stepped:

    i[n] = Re(P z^n) + A^(n-s) (i[s] - Re(P z^s)),   (z I - A) P = B V (1 + z),

the exact periodic orbit plus the free response from the segment's first
sample s, with A^k taken through the eigendecomposition of A. For symmetric
positive definite L and R, A is diagonalizable with a real spectrum; a
segment whose eigenvector matrix has a condition number above 1e6 (a
defective or nearly defective A) raises SingularMatrix. The pre-fault state
starts on the periodic orbit, so the pre-inception record is periodic to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingularMatrix

_COND_LIMIT = 1e14
# roundoff in A^k d grows with the eigenvector condition number
_EIG_COND_LIMIT = 1e6


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


def _orbit_amplitude(sys: MeshSystem, a_d, b_d, theta_step: float, phasors) -> np.ndarray:
    """Complex P of the periodic orbit Re(P z^n) of the trapezoidal recurrence."""
    v_mesh = sys.source_cols @ phasors  # complex per-mesh amplitude
    z = np.exp(1j * theta_step)
    lhs = z * np.eye(sys.size) - a_d
    rhs = b_d @ v_mesh * (1.0 + z)
    return np.linalg.solve(lhs, rhs)


def _free_response(a_d: np.ndarray, offset: np.ndarray, n_steps: int) -> np.ndarray:
    """Rows A^k @ offset for k = 0..n_steps, through the eigenvectors of A."""
    lam, vecs = np.linalg.eig(a_d)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > _EIG_COND_LIMIT:
        raise SingularMatrix(
            "step matrix is not diagonalizable to working precision "
            f"(eigenvector cond={cond:.3g}); the mesh L and R must be "
            "symmetric positive definite"
        )
    coef = np.linalg.solve(vecs, offset)
    powers = lam[None, :] ** np.arange(n_steps + 1)[:, None]
    return np.real((powers * coef) @ vecs.T)


def run_piecewise(
    segments,
    h: float,
    phasors: np.ndarray,
    theta_step: float,
    n_samples: int,
) -> np.ndarray:
    """Mesh-state trajectory of a sequence of LTI segments over one 3-phase source.

    ``segments`` is a list of (start_index, MeshSystem); the first starts
    on its periodic orbit, and each later one runs from the previous
    segment's final state with its new fault meshes at zero, until the next
    one begins. ``phasors`` holds the complex per-phase source amplitudes V
    of v_phase[n] = Re(V * exp(1j * theta_step * n)).
    Returns ``n_samples`` rows, padded with NaN for meshes that do not
    exist yet in earlier segments.
    """
    widths = [seg.size for _, seg in segments]
    out = np.full((n_samples, max(widths)), np.nan)
    for k, (start, sys) in enumerate(segments):
        # solve up to the next segment's start sample; its dynamics take
        # over from there with the new meshes starting at zero current
        stop = segments[k + 1][0] if k + 1 < len(segments) else n_samples - 1
        a_d, b_d = _step_matrices(sys, h)
        amp = _orbit_amplitude(sys, a_d, b_d, theta_step, phasors)
        phase = np.exp(1j * theta_step * np.arange(start, stop + 1))
        orbit = np.real(phase[:, None] * amp[None, :])
        if k == 0:
            state = orbit[0]  # the first segment starts on its periodic orbit
        else:
            grown = np.zeros(sys.size)
            grown[: state.shape[0]] = state
            state = grown
        rows = orbit + _free_response(a_d, state - orbit[0], stop - start)
        rows[0] = state  # the carried state itself, not orbit + offset rounded
        out[start : stop + 1, : sys.size] = rows
        state = rows[-1]
    return out
