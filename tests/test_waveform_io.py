"""The one-call waveform CSV writer and parser against the per-row code they
replaced.

``write_waveform_csv`` formats the whole (N, 4) table with one ``%`` call
and ``read_waveform_csv`` parses the body with one ``np.loadtxt`` call. The
oracles below are the earlier per-row writer (an f-string per sample) and
parser (``csv.reader`` plus ``float()``); the new code must give the same
bytes and the same arrays bit for bit.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from diffsentry.cli import main
from diffsentry.ensembles import CartConfig, GbcConfig
from diffsentry.ensembles import cart_fit, gbc_fit
from diffsentry.errors import IoFailure, NonFiniteFeature
from diffsentry.sampling import (
    DisturbanceType,
    EventKind,
    EventLabel,
    SamplingSpec,
    Waveform,
    iter_waveform_csv,
    read_waveform_csv,
    write_waveform_csv,
)

_LABEL = EventLabel(kind=EventKind.DISTURBANCE,
                    disturbance_type=DisturbanceType.FERRORESONANCE)
_HEADER = "t_s,ia_pu,ib_pu,ic_pu\n"

# -0.0, subnormals, the extremes of the exponent range and values whose 11th
# significant digit is a 5, where 10-digit rounding must round half to even
# on the exact binary value
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, 0.12345678905, 1.00000000005,
    9.9999999995, 99999999995.0, 0.99999999995, 123456789.05, 1e-5, 1e16,
    float("nan"), float("inf"), float("-inf"),
]


# -- oracles: the per-row writer and parser ----------------------------------

def _oracle_write(wave, path):
    dt = wave.spec.dt
    with open(path, "w", newline="\n") as fh:
        fh.write(_HEADER)
        for n in range(wave.n_samples):
            ia, ib, ic = wave.samples[n]
            fh.write(f"{n * dt:.10g},{ia:.10g},{ib:.10g},{ic:.10g}\n")


def _oracle_read(path):
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(r[1]), float(r[2]), float(r[3])) for r in reader if r]
    return np.array(rows, dtype=np.float64)


# -- writer ------------------------------------------------------------------

_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from(_EDGES))


@settings(deadline=None, max_examples=150)
@given(
    samples=hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.just(3)),
                       elements=_values),
)
def test_writer_bytes_equal_the_per_row_writer(tmp_path_factory, samples):
    spec = SamplingSpec()
    n = 5 * spec.samples_per_cycle + samples.shape[0]
    full = np.resize(samples, (n, 3)) if samples.size else np.zeros((n, 3))
    wave = Waveform(spec=spec, samples=full, label=_LABEL, inception_index=0)
    d = tmp_path_factory.mktemp("w")
    write_waveform_csv(wave, d / "new.csv")
    _oracle_write(wave, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_writer_wraps_os_errors(tmp_path):
    spec = SamplingSpec()
    wave = Waveform(spec=spec, samples=np.zeros((5 * spec.samples_per_cycle, 3)),
                    label=_LABEL, inception_index=0)
    with pytest.raises(IoFailure, match="cannot write waveform"):
        write_waveform_csv(wave, tmp_path / "missing" / "w.csv")


# -- parser ------------------------------------------------------------------

_FORMATS = [repr, "{:.10g}".format, "{:.17e}".format, "{:.3f}".format,
            "{:E}".format, lambda v: f" {v!r} "]


def _time(i):
    """The writer's time field of sample ``i``."""
    return f"{i * SamplingSpec().dt:.10g}"


@st.composite
def _csv_texts(draw):
    """A header and 1..25 rows of the writer's time and 3..5 numeric fields,
    each written in one of several float formats, with optional blank lines
    and CRLF endings."""
    n = draw(st.integers(1, 25))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["t_s,ia_pu,ib_pu,ic_pu"]
    for i in range(n):
        width = draw(st.integers(3, 5))
        cells = [draw(st.sampled_from(_FORMATS))(draw(_values)) for _ in range(width)]
        if draw(st.booleans()):
            lines.append("")
        lines.append(",".join([_time(i)] + cells))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(deadline=None, max_examples=150)
@given(text=_csv_texts())
def test_parsed_arrays_equal_the_per_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("r") / "w.csv"
    path.write_bytes(text.encode())
    new = read_waveform_csv(path)
    old = _oracle_read(path)
    assert new.shape == old.shape
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("text", [
    _HEADER + "0,1,2,3\n\n0.0001,4,5,6\n\n\n0.0002,-7,8.5,nan\n",
    "t_s,ia_pu,ib_pu,ic_pu\r\n0,1,2,3\r\n\r\n0.0001,4,5,6\r\n",
    _HEADER + "0,1,2,3,99\n0.0001,4,5,6,x,y\n0.0002,7,8,9\n",
    _HEADER + "0,1,2,3",
], ids=["blank_lines", "crlf", "extra_columns", "no_final_newline"])
def test_fixed_files_parse_as_before(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    new = read_waveform_csv(path)
    assert new.shape[1] == 3
    assert new.tobytes() == _oracle_read(path).tobytes()


@pytest.mark.parametrize("text", [
    _HEADER + "0,0,0,0\n0,1,2\n",
    _HEADER + "0,0,0,0\n0,1,x,2\n",
    _HEADER + "\n0,1,x,2\n0,0,0,0\n",
    "t_s,ia_pu,ib_pu,ic_pu\r\n\r\n0,1,2\r\n",
], ids=["short_row", "non_numeric", "after_blank_line", "crlf_short_row"])
def test_malformed_row_names_its_line(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(IoFailure, match=r"malformed waveform row at line 3\b"):
        read_waveform_csv(path)


# -- one row rule for the whole file and for blocks of lines -------------------

_ROWS = ["ok"] * 6 + ["blank", "extra", "step", "x_time", "short", "junk"]


@st.composite
def _ragged_texts(draw):
    """1..30 lines under an optional header, each a row of the writer's
    time or one of: a blank line, extra columns, a 20 kHz step, an ``x``
    time, a short row, a non-numeric sample; LF or CRLF endings."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["t_s,ia_pu,ib_pu,ic_pu"] if draw(st.booleans()) else []
    i = 0
    for kind in draw(st.lists(st.sampled_from(_ROWS), min_size=1, max_size=30)):
        cells = [draw(st.sampled_from(_FORMATS))(draw(_values)) for _ in range(3)]
        time = {"step": f"{(i - 0.5) * SamplingSpec().dt:.10g}",
                "x_time": "x"}.get(kind, _time(i))
        cells = {"extra": cells + ["99", "y"], "short": cells[:2],
                 "junk": cells[:2] + ["z"]}.get(kind, cells)
        lines.append("" if kind == "blank" else ",".join([time] + cells))
        i += kind != "blank"
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _blocks(text, block_lines):
    """(the sample bytes, None) of ``iter_waveform_csv`` over ``text``, or
    (None, its IoFailure up to the parser's own words)."""
    blocks = []
    try:
        for block in iter_waveform_csv(io.StringIO(text, newline=""), block_lines):
            assert block.dtype == np.float64 and block.flags.c_contiguous
            assert block.ndim == 2 and block.shape[1] == 3 and len(block)
            blocks.append(block)
    except IoFailure as exc:
        return None, str(exc).split(": ")[0]
    return np.concatenate(blocks).tobytes() if blocks else b"", None


@settings(deadline=None, max_examples=300)
@given(text=_ragged_texts(), data=st.data())
def test_blocks_of_any_size_read_as_the_whole_text(text, data):
    whole = _blocks(text, None)
    n_lines = len(io.StringIO(text, newline="").readlines())
    block_lines = data.draw(st.integers(1, max(n_lines, 1)))
    assert _blocks(text, block_lines) == whole


def test_headerless_file_keeps_its_first_sample(tmp_path):
    spec = SamplingSpec()
    samples = np.random.default_rng(3).normal(size=(5 * spec.samples_per_cycle, 3))
    write_waveform_csv(Waveform(spec=spec, samples=samples, label=_LABEL,
                                inception_index=0), tmp_path / "w.csv")
    text = (tmp_path / "w.csv").read_text()
    (tmp_path / "bare.csv").write_text(text[len(_HEADER):])
    full = read_waveform_csv(tmp_path / "w.csv")
    assert full.shape == samples.shape
    assert read_waveform_csv(tmp_path / "bare.csv").tobytes() == full.tobytes()


@pytest.mark.parametrize("time, match", [
    (lambda i: f"{i * 5e-5:.10g}", r"waveform time at line 3 steps 5e-05 s"),
    (lambda i: "x", r"malformed waveform row at line 2\b"),
    (lambda i: f"{i * 1e-4:.10g}" if i != 200 else "nan",
     r"waveform time at line 202 steps nan s"),
], ids=["20kHz", "x", "nan"])
@pytest.mark.parametrize("block_lines", [None, 167])
def test_wrong_time_column_names_its_line(time, match, block_lines):
    text = _HEADER + "".join(f"{time(i)},0.5,-0.25,-0.25\n" for i in range(400))
    with pytest.raises(IoFailure, match=match):
        list(iter_waveform_csv(io.StringIO(text), block_lines))


def test_writer_times_pass_up_to_a_million_seconds():
    # %.10g writes every time on the 1e-4 s grid below 1e6 s exactly
    text = "".join(f"{i * 1e-4:.10g},0,0,0\n" for i in range(10**10 - 5, 10**10))
    [block] = iter_waveform_csv(io.StringIO(text))
    assert block.shape == (5, 3)


@pytest.mark.parametrize("text", ["", _HEADER, _HEADER + "\n\r\n"],
                         ids=["empty", "header_only", "header_and_blank_lines"])
def test_file_without_samples_is_a_data_error(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    with pytest.raises(IoFailure):
        read_waveform_csv(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(IoFailure, match="cannot read waveform"):
        read_waveform_csv(tmp_path / "absent.csv")


# -- classify FILE -----------------------------------------------------------

def _steady_rows_with(bad_row):
    spec = SamplingSpec()
    spc = spec.samples_per_cycle
    theta = 2 * np.pi * np.arange(8 * spc) / spc
    samples = 0.8 * np.sin(theta[:, None] - np.array([0.0, 2.0, -2.0]) * np.pi / 3)
    samples[bad_row, 1] = np.nan
    return _HEADER + "".join(
        f"{i * spec.dt:.10g},{a:.10g},{b:.10g},{c:.10g}\n"
        for i, (a, b, c) in enumerate(samples)
    )


@pytest.mark.parametrize("text", [_HEADER, _steady_rows_with(300)],
                         ids=["header_only", "nan_row"])
def test_classify_csv_without_usable_samples_is_a_data_error(tmp_path, saved_model,
                                                             capsys, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    code = main(["classify", "--model", str(saved_model), str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [classify]: ")
    assert "Traceback" not in err


def test_classify_nan_row_names_sample_and_phase(tmp_path, saved_model, capsys):
    path = tmp_path / "w.csv"
    path.write_text(_steady_rows_with(300))
    assert main(["classify", "--model", str(saved_model), str(path)]) == 1
    assert "sample 300 phase b" in capsys.readouterr().err


# -- non-finite training features ----------------------------------------------

_FITS = {
    "cart": lambda X, y: cart_fit(X, y, CartConfig(max_depth=2)),
    "gbc": lambda X, y: gbc_fit(X, y, GbcConfig(n_estimators=2, max_depth=2)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("kind", sorted(_FITS))
def test_non_finite_training_feature_is_rejected(kind, value):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = np.arange(30) % 2
    X[7, 2] = value
    with pytest.raises(NonFiniteFeature, match="feature 2 of training row 7"):
        _FITS[kind](X, y)
    X[7, 2] = 0.0
    assert _FITS[kind](X, y).trees
