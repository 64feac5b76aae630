"""Core value types: sampling grid, event labels, and 3-phase waveform records."""

from __future__ import annotations

import enum
import io
import numbers
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IoFailure, ParameterOutOfRange

PHASES = ("a", "b", "c")


class EventKind(enum.Enum):
    INTERNAL_FAULT = "InternalFault"
    DISTURBANCE = "Disturbance"


class Unit(enum.Enum):
    PT = "PT"
    SERIES = "SeriesUnit"
    EXCITING = "ExcitingUnit"


class FaultType(enum.Enum):
    WA_G = "wa-g"
    WB_G = "wb-g"
    WC_G = "wc-g"
    WA_WB_G = "wa-wb-g"
    WA_WC_G = "wa-wc-g"
    WB_WC_G = "wb-wc-g"
    WA_WB = "wa-wb"
    WA_WC = "wa-wc"
    WB_WC = "wb-wc"
    WA_WB_WC = "wa-wb-wc"
    WA_WB_WC_G = "wa-wb-wc-g"
    TURN_TO_TURN = "TurnToTurn"
    WINDING_TO_WINDING = "WindingToWinding"


class DisturbanceType(enum.Enum):
    MAGNETIZING_INRUSH = "MagnetizingInrush"
    SYMPATHETIC_INRUSH = "SympatheticInrush"
    EXTERNAL_FAULT_CT_SAT = "ExternalFaultCTSat"
    CAPACITOR_SWITCHING = "CapacitorSwitching"
    NONLINEAR_LOAD_SWITCHING = "NonlinearLoadSwitching"
    FERRORESONANCE = "Ferroresonance"


@dataclass(frozen=True)
class SamplingSpec:
    """The one sampling grid: 10 kHz tied to a 60 Hz fundamental.

    One electrical cycle is pinned to exactly ``samples_per_cycle`` = 167
    samples (the generator's effective fundamental is 10 kHz / 167), so
    periodic steady state is periodic in an integer number of samples.
    """

    @property
    def samples_per_cycle(self) -> int:
        return 167

    @property
    def dt(self) -> float:
        return 1e-4


@dataclass(frozen=True)
class EventLabel:
    """Hierarchical label: fault vs disturbance, then unit and type."""

    kind: EventKind
    unit: Optional[Unit] = None
    fault_type: Optional[FaultType] = None
    disturbance_type: Optional[DisturbanceType] = None

    def __post_init__(self):
        if self.kind is EventKind.INTERNAL_FAULT:
            if self.unit is None or self.fault_type is None:
                raise ValueError("internal fault labels need unit and fault_type")
            if self.disturbance_type is not None:
                raise ValueError("internal fault labels cannot carry a disturbance_type")
        else:
            if self.disturbance_type is None:
                raise ValueError("disturbance labels need disturbance_type")
            if self.unit is not None or self.fault_type is not None:
                raise ValueError("disturbance labels cannot carry unit or fault_type")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "unit": self.unit.value if self.unit else None,
            "fault_type": self.fault_type.value if self.fault_type else None,
            "disturbance_type": (
                self.disturbance_type.value if self.disturbance_type else None
            ),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EventLabel":
        return cls(
            kind=EventKind(d["kind"]),
            unit=Unit(d["unit"]) if d.get("unit") else None,
            fault_type=FaultType(d["fault_type"]) if d.get("fault_type") else None,
            disturbance_type=(
                DisturbanceType(d["disturbance_type"])
                if d.get("disturbance_type")
                else None
            ),
        )


@dataclass
class Waveform:
    """A labeled, uniformly sampled 3-phase differential-current record.

    ``samples`` has shape (N, 3) holding (ia, ib, ic) in per-unit of rated
    peak current. ``inception_index`` is the sample at which the event is
    switched in; everything before it is periodic steady state.
    """

    spec: SamplingSpec
    samples: np.ndarray
    label: EventLabel
    inception_index: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[1] != 3:
            raise ValueError("samples must have shape (N, 3)")
        spc = self.spec.samples_per_cycle
        if self.samples.shape[0] < 5 * spc:
            raise ValueError("waveform must span at least 5 cycles")
        check_inception(self.inception_index, self.samples.shape[0], self.spec)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def check_inception(inception_index, n_samples: int, spec: SamplingSpec) -> None:
    """Raise ParameterOutOfRange unless ``inception_index`` is an integer
    (not a bool) sample of an ``n_samples`` record with at least 3 cycles
    after it."""
    if (not isinstance(inception_index, numbers.Integral)
            or isinstance(inception_index, bool)
            or not 0 <= inception_index <= n_samples - 3 * spec.samples_per_cycle):
        raise ParameterOutOfRange(
            f"inception_index must be an integer sample that leaves 3 post-event "
            f"cycles of a {n_samples}-sample record, not {inception_index!r}")


_ROW = "%.10g,%.10g,%.10g,%.10g\n"
# numpy's loadtxt counts data rows from 0 in a conversion error and from 1
# in a short-row error; blank lines are not counted
_ROW_IN_ERROR = re.compile(r"^(could not convert|invalid column index).* at row (\d+)")


def write_waveform_csv(wave: Waveform, path) -> None:
    """Write `t_s,ia_pu,ib_pu,ic_pu` rows, LF endings, 10 significant digits.

    The whole table is formatted by one ``%`` call, so each value gets the
    same bytes as ``f"{value:.10g}"``.
    """
    n = wave.n_samples
    table = np.column_stack((np.arange(n) * wave.spec.dt, wave.samples))
    body = (_ROW * n) % tuple(table.ravel().tolist())
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("t_s,ia_pu,ib_pu,ic_pu\n" + body)
    except OSError as exc:
        raise IoFailure(f"cannot write waveform to {path}: {exc}") from exc


def read_waveform_csv(path) -> np.ndarray:
    """Read a waveform CSV back as an (N, 3) per-unit sample array."""
    try:
        with open(path, "r", newline="") as fh:
            return _parse_waveform_rows(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read waveform from {path}: {exc}") from exc


def _parse_waveform_rows(fh) -> np.ndarray:
    """Skip the header line, then parse columns 1..3 of every non-blank row.

    Extra columns are ignored. A file without a header or without sample
    rows, a short row or a non-numeric value raises ``IoFailure``; a bad
    row is named by its 1-based line in the file.
    """
    try:
        header = fh.readline()
        body = fh.read()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"waveform CSV is not text: {exc}") from exc
    if not header:
        raise IoFailure("empty waveform CSV")
    if not body.strip("\r\n"):
        raise IoFailure("waveform CSV has a header but no sample rows")
    try:
        return np.loadtxt(io.StringIO(body, newline=""), delimiter=",",
                          usecols=(1, 2, 3), ndmin=2, comments=None)
    except ValueError as exc:
        raise IoFailure(
            f"malformed waveform row{_error_line(body, exc)}: {exc}"
        ) from exc


def _error_line(body: str, exc: ValueError) -> str:
    """' at line L' for the data row a loadtxt error names (the header is
    line 1), or '' when the error names no row."""
    m = _ROW_IN_ERROR.match(str(exc))
    if m is None:
        return ""
    row = int(m.group(2)) - (m.group(1) == "invalid column index")
    lines = io.StringIO(body, newline="")
    data = [i for i, line in enumerate(lines) if line.strip("\r\n")]
    return f" at line {data[row] + 2}" if 0 <= row < len(data) else ""
