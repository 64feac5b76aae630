"""Inductance-matrix builder checks against hand-evaluated sizing values."""

import numpy as np
import pytest

from diffsentry.errors import FaultFractionOutOfRange, NonPositiveParameter
from diffsentry.wavegen.transformer import (
    TwoWindingParams,
    build_coupled_L,
    build_two_winding_L,
)

# Frozen line-by-line evaluation of the sizing recipe for
# (500 MVA, 230/230 kV, 60 Hz, Xl 0.1, Im 0.01, 20%/20%), evaluated by
# hand before the implementation existed.
HAND_MATRIX = {
    "Lx": 1.1253792974380223,
    "Ly": 17.97239157305011,
    "Lz": 1.1253792974380223,
    "Lw": 17.97239157305011,
    "Mxy": 4.490291461099341,
    "Mxz": 1.1225728652748352,
    "Mxw": 4.490291461099341,
    "Myz": 4.490291461099341,
    "Myw": 17.961165844397364,
    "Mzw": 4.490291461099341,
}


def test_hand_evaluated_matrix():
    p = TwoWindingParams(mva=500, v1=230, v2=230, f=60, xl=0.1, im=0.01,
                         fault1=20, fault2=20)
    m = build_two_winding_L(p).entries
    expected = np.array([
        [HAND_MATRIX["Lx"], HAND_MATRIX["Mxy"], HAND_MATRIX["Mxz"], HAND_MATRIX["Mxw"]],
        [HAND_MATRIX["Mxy"], HAND_MATRIX["Ly"], HAND_MATRIX["Myz"], HAND_MATRIX["Myw"]],
        [HAND_MATRIX["Mxz"], HAND_MATRIX["Myz"], HAND_MATRIX["Lz"], HAND_MATRIX["Mzw"]],
        [HAND_MATRIX["Mxw"], HAND_MATRIX["Myw"], HAND_MATRIX["Mzw"], HAND_MATRIX["Lw"]],
    ])
    assert np.allclose(m, expected, rtol=1e-12, atol=0)


def test_full_first_fraction_zeroes_the_remainder_row():
    # fault1 = 100 leaves nothing in sub-winding y: its leakage and
    # magnetizing parts vanish, so the whole y row and column are zero
    p = TwoWindingParams(mva=500, v1=230, v2=230, fault1=100, fault2=50)
    m = build_two_winding_L(p).entries
    assert m[1, 1] == 0.0
    assert np.all(m[1, :] == 0.0)
    assert np.all(m[:, 1] == 0.0)


def test_symmetry_any_params():
    p = TwoWindingParams(mva=120, v1=500, v2=230, fault1=37.5, fault2=81.25)
    m = build_two_winding_L(p).entries
    assert np.array_equal(m, m.T)


def test_symmetry_and_geometric_mean_rule_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = TwoWindingParams(
            mva=float(rng.uniform(1, 1000)),
            v1=float(rng.uniform(1, 765)),
            v2=float(rng.uniform(1, 765)),
            f=float(rng.uniform(10, 400)),
            xl=float(rng.uniform(0.01, 0.5)),
            im=float(rng.uniform(0.001, 0.2)),
            fault1=float(rng.uniform(0, 100)),
            fault2=float(rng.uniform(0, 100)),
        )
        mat = build_two_winding_L(p).entries
        assert np.array_equal(mat, mat.T)
        # reconstruct the magnetizing parts and check every mutual exactly
        mags = _magnetizing_parts(p)
        for i in range(4):
            assert mat[i, i] >= 0.0
            for j in range(i + 1, 4):
                assert mat[i, j] == pytest.approx(
                    np.sqrt(mags[i] * mags[j]), rel=1e-15, abs=0.0
                )


def _magnetizing_parts(p):
    w = 2 * np.pi * p.f
    out = []
    for v, pct in ((p.v1, p.fault1), (p.v2, p.fault2)):
        base_i = p.mva / v
        lm = v / (w * p.im * base_i)
        fa = pct * 0.01
        out.extend([lm * fa * fa, lm * (1 - fa) * (1 - fa)])
    return out


@pytest.mark.parametrize("field,value", [
    ("mva", 0.0), ("mva", -3.0), ("v1", 0.0), ("v2", -1.0),
    ("f", 0.0), ("xl", -0.1), ("im", 0.0),
])
def test_nonpositive_parameters_rejected(field, value):
    kwargs = dict(mva=500.0, v1=230.0, v2=230.0, f=60.0, xl=0.1, im=0.01)
    kwargs[field] = value
    with pytest.raises(NonPositiveParameter):
        TwoWindingParams(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("fault1", -0.1), ("fault1", 100.1), ("fault2", 101.0),
])
def test_fault_fraction_bounds(field, value):
    kwargs = dict(mva=500.0, v1=230.0, v2=230.0)
    kwargs[field] = value
    with pytest.raises(FaultFractionOutOfRange):
        TwoWindingParams(**kwargs)


def test_three_winding_matrix_same_pattern():
    p = TwoWindingParams(mva=500, v1=230, v2=230, fault1=20, fault2=20)
    mat = build_coupled_L(
        [(p.v1, p.fault1), (p.v2, p.fault2), (138.0, 40.0)], p.mva, p.f, p.xl, p.im
    )
    assert mat.shape == (6, 6)
    assert np.array_equal(mat, mat.T)
    # the 2-winding block must be identical to the 4x4 build
    m4 = build_two_winding_L(p).entries
    assert np.allclose(mat[:4, :4], m4, rtol=0, atol=0)
