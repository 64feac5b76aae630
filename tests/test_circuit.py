"""Circuit sanity: conservation, singularity reporting, and the closed-form
segment solution checked against plain trapezoidal stepping."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

from diffsentry.errors import SingularMatrix
from diffsentry import wavegen
from diffsentry.wavegen import circuit
from diffsentry.wavegen.circuit import MeshSystem, reduce_meshes, run_piecewise
from diffsentry.wavegen.transformer import TwoWindingParams, build_two_winding_L


def step_lti(L, R, v_fn, i0, h, n_steps) -> np.ndarray:
    """Oracle: plain trapezoidal stepping of L di/dt = v(t) - R i, one
    sample at a time; returns the states. v_fn maps a time in seconds to
    the forcing vector."""
    L = np.asarray(L, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    lhs_inv = np.linalg.inv(L + 0.5 * h * R)
    a_d = lhs_inv @ (L - 0.5 * h * R)
    b_d = lhs_inv * (0.5 * h)
    out = np.empty((n_steps + 1, L.shape[0]))
    out[0] = i0
    state = np.asarray(i0, dtype=np.float64)
    for k in range(n_steps):
        v_sum = np.asarray(v_fn(k * h)) + np.asarray(v_fn((k + 1) * h))
        state = a_d @ state + b_d @ v_sum
        out[k + 1] = state
    return out


def magnetic_energy(L, i) -> float:
    """Oracle: 0.5 i^T L i for a state vector."""
    i = np.asarray(i, dtype=np.float64)
    return 0.5 * float(i @ (np.asarray(L) @ i))


def _spd(rng, m, scale):
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T + m * np.eye(m))


def test_energy_conserved_without_dissipation():
    # a driven segment leaves the coupled inductors carrying current, then
    # zero resistance and zero source: stored energy 0.5 i^T L i of the
    # carried state must hold over a full simulated cycle
    p = TwoWindingParams(mva=500, v1=230, v2=230, fault1=30, fault2=60)
    L = build_two_winding_L(p).entries
    h, switch = 1e-4, 40
    driven = MeshSystem(L=L, R=np.eye(4), source_cols=np.eye(4, 3))
    free = MeshSystem(L=L, R=np.zeros((4, 4)), source_cols=np.zeros((4, 3)))
    phasors = np.array([1.0, -0.5 + 0.8j, -0.5 - 0.8j])
    states = run_piecewise([(0, driven), (switch, free)], h, phasors,
                           2 * np.pi * 60 * h, switch + 168)
    e0 = magnetic_energy(L, states[switch])
    assert e0 > 0.0
    energies = [magnetic_energy(L, s) for s in states[switch:]]
    assert max(abs(e - e0) for e in energies) <= 1e-6 * abs(e0)


def test_singular_matrix_reported():
    sys = MeshSystem(L=np.zeros((2, 2)), R=np.zeros((2, 2)),
                     source_cols=np.zeros((2, 3)))
    with pytest.raises(SingularMatrix):
        run_piecewise([(0, sys)], 1e-4, np.zeros(3, dtype=complex), 0.1, 2)


def test_piecewise_segments_carry_state_and_grow():
    # one driven segment, then the same dynamics with an extra decoupled,
    # undriven mesh: original coordinates must continue unchanged, new mesh
    # starts at zero
    sys1 = MeshSystem(L=np.eye(2) * 0.5, R=np.eye(2) * 0.1,
                      source_cols=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    sys2 = MeshSystem(L=np.eye(3) * 0.5, R=np.eye(3) * 0.1,
                      source_cols=np.vstack([sys1.source_cols, np.zeros(3)]))
    v = np.array([1.0, 0.5j, 0.0])
    traj = run_piecewise([(0, sys1), (10, sys2)], 1e-3, v, 0.1, 21)
    direct = run_piecewise([(0, sys1)], 1e-3, v, 0.1, 21)
    # identical decoupled dynamics: the original coordinates never diverge
    peak = np.abs(direct).max()
    assert peak > 0.0
    assert np.allclose(traj[:, :2], direct[:, :2], rtol=0, atol=1e-12 * peak)
    assert np.array_equal(traj[:11, :2], direct[:11, :2])
    assert traj[10, 2] == 0.0
    assert np.isnan(traj[5, 2])


def test_closed_form_matches_stepping_oracle():
    # random SPD meshes, a 3-phase sinusoid, and a switch that adds a mesh
    # mid-record: from the first segment's periodic orbit, the closed form
    # must track plain stepping to 1e-10 of peak
    rng = np.random.default_rng(2024)
    h, theta, n, switch = 1e-4, 2.0 * np.pi / 167, 700, 250
    sys1 = MeshSystem(L=_spd(rng, 3, 1e-2), R=_spd(rng, 3, 1.0),
                      source_cols=rng.standard_normal((3, 3)))
    sys2 = MeshSystem(L=_spd(rng, 4, 1e-2), R=_spd(rng, 4, 1.0),
                      source_cols=rng.standard_normal((4, 3)))
    phasors = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    traj = run_piecewise([(0, sys1), (switch, sys2)], h, phasors, theta, n)

    def source(sys, first):
        # forcing vector at time t of a segment that starts at sample `first`
        return lambda t: sys.source_cols @ np.real(
            phasors * np.exp(1j * theta * (first + round(t / h))))

    head = step_lti(sys1.L, sys1.R, source(sys1, 0), traj[0, :3], h, switch)
    tail = step_lti(sys2.L, sys2.R, source(sys2, switch),
                    np.append(head[-1], 0.0), h, n - 1 - switch)
    peak = np.abs(tail).max()
    assert np.abs(traj[: switch + 1, :3] - head).max() <= 1e-10 * peak
    assert np.abs(traj[switch:] - tail).max() <= 1e-10 * peak
    assert np.isnan(traj[: switch, 3]).all()
    # the start is on the orbit: the first segment repeats every cycle
    cycle = 167
    assert np.abs(traj[cycle: switch + 1, :3]
                  - traj[: switch + 1 - cycle, :3]).max() <= 1e-10 * peak


def test_defective_step_matrix_raises():
    # a Jordan-block R makes A = (L + h/2 R)^-1 (L - h/2 R) defective: no
    # eigenbasis, so the closed form must refuse rather than drift, even
    # where the segment starts on its orbit and carries no free response
    sys = MeshSystem(L=np.eye(2), R=np.array([[1.0, 1.0], [0.0, 1.0]]),
                     source_cols=np.zeros((2, 3)))
    with pytest.raises(SingularMatrix):
        run_piecewise([(0, sys)], 1e-4, np.zeros(3, dtype=complex), 0.1, 50)
    # and as a later segment, from a carried state
    good = MeshSystem(L=np.eye(2), R=np.eye(2), source_cols=np.eye(2, 3))
    with pytest.raises(SingularMatrix):
        run_piecewise([(0, good), (10, sys)], 1e-4,
                      np.array([1.0, 1j, 0.0]), 0.1, 50)


def test_reduce_meshes_projects_winding_quantities():
    L = np.diag([1.0, 2.0, 3.0, 4.0])
    inc = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    sys = reduce_meshes(L, np.array([0.1, 0.2, 0.3, 0.4]), inc,
                        np.array([1.0, 2.0]), np.zeros((2, 3)))
    assert np.allclose(sys.L, np.diag([3.0, 7.0]))
    assert np.allclose(sys.R, np.diag([0.3 + 1.0, 0.7 + 2.0]))


def test_every_public_circuit_name_has_a_caller_in_the_package():
    # test-only helpers live in the tests: a public function or class of
    # any diffsentry.wavegen module (circuit among them) that nothing under
    # src/ calls is dead code in the package
    src = pathlib.Path(circuit.__file__).parents[1]
    text = "".join(p.read_text() for p in src.rglob("*.py"))
    modules = [importlib.import_module(f"diffsentry.wavegen.{m.name}")
               for m in pkgutil.iter_modules(wavegen.__path__)]
    names = [name for module in modules for name, obj in vars(module).items()
             if not name.startswith("_")
             and (inspect.isfunction(obj) or inspect.isclass(obj))
             and obj.__module__ == module.__name__]
    assert {"MeshSystem", "reduce_meshes", "run_piecewise",
            "generate_disturbance", "reference_plan"} <= set(names)
    called = r"(?<!def )(?<!class )\b{}\("
    assert [n for n in names if not re.search(called.format(n), text)] == []
