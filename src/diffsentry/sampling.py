"""Core value types: sampling grid, event labels, and 3-phase waveform records."""

from __future__ import annotations

import enum
import io
import itertools
import numbers
import re
import warnings
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
_DT = SamplingSpec().dt
# A time step may miss dt by 1% of dt: a 60 Hz cycle of 167 +- 2 samples.
# The writer's %.10g keeps 4 decimals below 1e6 s (11.6 days of samples), so
# its steps miss dt there by float rounding alone: under 1e-9 s, not 1e-6 s.
_STEP_TOL = 0.01 * _DT


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
    """The (N, 3) per-unit samples of a waveform CSV: the one block of
    ``iter_waveform_csv``."""
    try:
        with open(path, "r", newline="") as fh:
            for samples in iter_waveform_csv(fh):
                return samples
    except OSError as exc:
        raise IoFailure(f"cannot read waveform from {path}: {exc}") from exc
    raise IoFailure(f"waveform CSV {path} has no sample rows")


def iter_waveform_csv(fh, block_lines=None):
    """Yield the samples of the waveform CSV text ``fh`` as C-contiguous
    (n, 3) float64 blocks, one per ``block_lines`` lines read (lines without
    a sample row yield none), or one for the whole text if None.

    The one row rule: blank lines are skipped, and the first other line is a
    header exactly when its first field is not a number. Every other line is
    ``t,ia,ib,ic`` (extra columns ignored) whose t steps by dt from the row
    before, within ``_STEP_TOL``. The first short row, non-numeric value or
    wrong step raises ``IoFailure`` naming its 1-based line."""
    first_line, t, header_seen = 1, np.empty(0), False
    while True:
        try:
            text = (fh.read() if block_lines is None
                    else "".join(itertools.islice(fh, block_lines)))
        except UnicodeDecodeError as exc:
            raise IoFailure(f"waveform CSV is not text: {exc}") from exc
        if not header_seen and (line := re.search(r"[^\r\n]+", text)):
            header_seen = True
            try:
                float(line.group().split(",", 1)[0])
            except ValueError:   # a header: empty it, keeping its line end
                text = text[:line.start()] + text[line.end():]
        if text.strip("\r\n"):
            table = _parse_rows(text, first_line, t[-1:])
            t = table[:, 0]
            yield np.ascontiguousarray(table[:, 1:])
        if not text or block_lines is None:
            return
        first_line += block_lines


def _parse_rows(text: str, first_line: int, t0: np.ndarray) -> np.ndarray:
    """The (n, 4) rows of ``text``, whose first line is line ``first_line``
    of the CSV; ``t0`` holds the time of the row before them, if any."""
    def load(max_rows=None):
        return np.loadtxt(io.StringIO(text, newline=""), delimiter=",", ndmin=2,
                          usecols=(0, 1, 2, 3), max_rows=max_rows, comments=None)

    def at_line(row):   # ' at line L' for data row ``row`` (from 0), if it is one
        data = [i for i, line in enumerate(io.StringIO(text, newline=""))
                if line.strip("\r\n")]
        return (f" at line {first_line + data[row]}"
                if row is not None and 0 <= row < len(data) else "")
    try:
        table, error = load(), None
    except ValueError as exc:
        error, m = exc, _ROW_IN_ERROR.match(str(exc))
        row = m and int(m.group(2)) - (m.group(1) == "invalid column index")
        with warnings.catch_warnings():   # of the blank lines max_rows skips
            warnings.simplefilter("ignore", UserWarning)
            table = load(row or 0)   # the rows before it, whose steps come first
    step = np.diff(np.concatenate((t0, table[:, 0])))
    off = np.flatnonzero(~(np.abs(step - _DT) <= _STEP_TOL))
    if off.size:
        k = int(off[0])
        raise IoFailure(f"waveform time{at_line(k + 1 - len(t0))} steps "
                        f"{step[k]:.6g} s, not dt = {_DT:g} s")
    if error is not None:
        raise IoFailure(f"malformed waveform row{at_line(row)}: {error}") from error
    return table
