import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrauth.signal import (CsvFormatError, EcgRecord, SubjectProfile, Wave,
                           _moving_median, beat_template, load_csv, preprocess,
                           save_csv, slice_seconds, synth_ecg)

from conftest import quiet_profile


class TestEcgRecord:
    def test_basic_fields(self):
        r = EcgRecord("a", 360.0, [0.0, 0.1, 0.2])
        assert r.duration_s == pytest.approx(3 / 360)
        assert len(r) == 3

    @pytest.mark.parametrize("fs", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_bad_fs(self, fs):
        with pytest.raises(ValueError):
            EcgRecord("a", fs, [0.0, 0.1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            EcgRecord("a", 360.0, [0.0])

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            EcgRecord("a", 360.0, [0.0, np.nan])

    def test_samples_are_immutable(self):
        r = EcgRecord("a", 360.0, [0.0, 0.1])
        with pytest.raises(ValueError):
            r.samples[0] = 5.0


class TestCsv:
    def test_parse_simple(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("fs=360\n0.0\n0.1\n0.2\n")
        r = load_csv(p)
        assert r.fs == 360.0
        assert np.array_equal(r.samples, [0.0, 0.1, 0.2])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        r = EcgRecord("rt", 257.31, rng.normal(size=100))
        path = tmp_path / "rt.csv"
        save_csv(r, path)
        r2 = load_csv(path)
        assert r2.fs == r.fs
        assert np.array_equal(r2.samples, r.samples)  # bit-for-bit

    def test_bad_token_names_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("fs=360\n0.0\n0.1\n0.2\nabc\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            load_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("0.0\n0.1\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv(p)

    def test_bad_fs_value(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("fs=abc\n0.0\n0.1\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv(p)

    @pytest.mark.parametrize("fs", ["inf", "-inf", "nan", "1e999", "0"])
    def test_nonfinite_or_nonpositive_fs(self, tmp_path, fs):
        p = tmp_path / "x.csv"
        p.write_text(f"fs={fs}\n0.0\n0.1\n")
        with pytest.raises(CsvFormatError, match="line 1: fs must be finite"):
            load_csv(p)

    def test_too_few_samples(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("fs=360\n0.0\n")
        with pytest.raises(CsvFormatError, match="fewer than 2"):
            load_csv(p)

    def test_time_value_pairs(self, tmp_path):
        p = tmp_path / "x.csv"
        fs = 100.0
        lines = ["fs=100"] + [f"{i / fs},{0.1 * i}" for i in range(5)]
        p.write_text("\n".join(lines) + "\n")
        r = load_csv(p)
        assert r.fs == 100.0
        assert np.allclose(r.samples, [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_nonuniform_time_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("fs=100\n0.0,0.0\n0.01,0.1\n0.03,0.2\n")
        with pytest.raises(CsvFormatError, match="not uniformly spaced"):
            load_csv(p)

    def test_subject_id_defaults_to_stem(self, tmp_path):
        p = tmp_path / "alice.csv"
        p.write_text("fs=360\n0.0\n0.1\n")
        assert load_csv(p).subject_id == "alice"

    def test_not_utf8_names_path(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"fs=360\n0.0\n\xff\xfe\n0.1\n")
        with pytest.raises(CsvFormatError, match=re.escape(f"{p}: not UTF-8")):
            load_csv(p)

    @pytest.mark.parametrize("body, line", [("0.0\nnan\n0.1\n", 3),
                                            ("0.0\n0.1\n-inf\n1e999\n", 4),
                                            ("1e999\n0.1\n", 2),
                                            ("0.0,0.1\n0.01,inf\n", 3),
                                            ("0.0,0.1\nnan,0.2\n", 3)])
    def test_nonfinite_sample_names_line(self, tmp_path, body, line):
        p = tmp_path / "x.csv"
        p.write_text("fs=360\n" + body)
        with pytest.raises(CsvFormatError, match=re.escape(f"{p}: line {line}: non-finite")):
            load_csv(p)


def load_outcome(path):
    """What load_csv makes of a file: its fs and sample bytes, or its error."""
    try:
        record = load_csv(path)
    except CsvFormatError as exc:
        return "error", str(exc)
    return record.fs, record.samples.tobytes()


def load_outcome_line_parser(path):
    """load_outcome with the one-pass parse failing, so every body goes
    through the line-by-line parser."""
    with mock.patch("rrauth.signal.np.fromiter", side_effect=ValueError):
        return load_outcome(path)


PAD = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-10**6, 10**6).map(str),
                   st.sampled_from(["1_0", "-0.0", ".5", "5.", "+1", "1E3", "1e-320", "\u0661"]))
ODD = st.sampled_from(["", "nan", "inf", "-inf", "1e999", "\ufeff1.0", "1__0", "abc",
                       "0x1", "1,2", "1,2,3", ",", "1.0;2.0"])


@st.composite
def csv_texts(draw):
    """ECG CSV text: a header, then lines of single values or of t,mv pairs
    with surrounding whitespace; in a third of the bodies, blank lines and
    odd tokens are mixed in. Lines are joined by LF, CRLF or CR, and the
    header sometimes starts with a byte-order mark."""
    style = draw(st.sampled_from(["values", "pairs", "mixed"]))
    lines = []
    for k in range(draw(st.integers(0, 25))):
        kind = "value" if style != "mixed" else draw(st.sampled_from(["value", "blank", "odd"]))
        if kind == "blank":
            token = ""
        elif kind == "odd":
            token = draw(ODD)
        elif style == "pairs":
            token = f"{k * 0.01!r},{draw(NUMBER)}"
        else:
            token = draw(NUMBER)
        lines.append(draw(PAD) + token + draw(PAD))
    header = draw(st.sampled_from(["fs=360", " fs=250.5 ", "fs=1e3", "\ufefffs=360"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))


class TestCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts())
    @example(text="fs=360\r\n0.0\r\n0.1\r\n")
    @example(text="fs=360\n 1.5 \n\t-2\n1_0\n")
    @example(text="fs=360\n0.0\n\n0.1\n")
    @example(text="fs=360\n0.0\n\ufeff0.1\n")
    @example(text="fs=360\n0,0.1\n0.01,0.2\n")
    def test_same_as_line_parser(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fast_path.csv"
        p.write_text(text, encoding="utf-8", newline="")
        assert load_outcome(p) == load_outcome_line_parser(p)


class TestCsvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(csv_texts().map(lambda t: t.encode("utf-8")),
                          st.text().map(lambda t: ("fs=360\n" + t).encode("utf-8", "surrogatepass")),
                          st.binary(max_size=200).map(lambda b: b"fs=360\n0.0\n" + b)))
    def test_loads_or_raises_csv_format_error(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(data)
        try:
            record = load_csv(p)
        except CsvFormatError:
            return
        assert record.samples.size >= 2 and np.all(np.isfinite(record.samples))
        assert 0 < record.fs < np.inf


class TestSynth:
    def test_zero_jitter_peak_spacing(self):
        prof = quiet_profile()
        rec, peaks = synth_ecg(prof, 10.0, 360.0)
        assert len(peaks) in (10, 11)
        gaps = np.diff(peaks)
        assert np.all(np.abs(gaps - 360) <= 1)

    def test_r_amplitude_dominates(self):
        # narrow widths keep wave overlap at the R apex tiny
        rec, _ = synth_ecg(quiet_profile(), 10.0, 360.0)
        assert 0.95 <= rec.samples.max() <= 1.05

    def test_deterministic(self):
        prof = quiet_profile(seed=7, rr_jitter=0.05, noise_sd=0.02)
        r1, p1 = synth_ecg(prof, 12.0, 360.0)
        r2, p2 = synth_ecg(prof, 12.0, 360.0)
        assert np.array_equal(r1.samples, r2.samples)
        assert np.array_equal(p1, p2)

    def test_exact_periodicity_without_jitter_or_noise(self):
        rec, _ = synth_ecg(quiet_profile(), 6.0, 360.0)
        period = 360  # RR * fs at 60 bpm
        x = rec.samples
        assert np.max(np.abs(x[:-period] - x[period:])) < 1e-9

    def test_duration_too_short(self):
        with pytest.raises(ValueError, match="2 beats"):
            synth_ecg(quiet_profile(), 1.5, 360.0)

    def test_fs_too_low(self):
        with pytest.raises(ValueError, match="fs"):
            synth_ecg(quiet_profile(), 10.0, 50.0)

    def test_true_peaks_in_bounds(self):
        rec, peaks = synth_ecg(quiet_profile(seed=3, rr_jitter=0.08), 20.0, 360.0)
        assert peaks[0] >= 0 and peaks[-1] < len(rec)
        assert np.all(np.diff(peaks) > 0)


class TestSubjectProfile:
    def test_bad_heart_rate(self):
        with pytest.raises(ValueError):
            quiet_profile(heart_rate_bpm=20.0)

    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            quiet_profile(rr_jitter=0.5)

    def test_nonpositive_r_amplitude(self):
        p = quiet_profile()
        waves = dict(p.waves)
        waves["R"] = Wave(phase=0.35, width=0.018, amplitude=0.0)
        with pytest.raises(ValueError, match="R wave"):
            SubjectProfile(60.0, 0.0, waves, 0.0, 0)

    def test_zero_width(self):
        p = quiet_profile()
        waves = dict(p.waves)
        waves["T"] = Wave(phase=0.65, width=0.0, amplitude=0.3)
        with pytest.raises(ValueError, match="width"):
            SubjectProfile(60.0, 0.0, waves, 0.0, 0)


class TestPreprocess:
    def test_constant_becomes_zero(self):
        r = EcgRecord("c", 100.0, np.full(500, 3.7))
        out = preprocess(r, 0.5)
        assert np.array_equal(out.samples, np.zeros(500))

    def test_linear_drift_mostly_removed(self):
        clean, _ = synth_ecg(quiet_profile(), 10.0, 360.0)
        drift = np.linspace(0.0, 2.0, len(clean))
        drifted = EcgRecord("d", clean.fs, clean.samples + drift)
        residual = preprocess(drifted).samples - preprocess(clean).samples
        assert np.max(np.abs(residual)) <= 0.2

    def test_window_longer_than_record(self):
        r = EcgRecord("s", 360.0, np.zeros(360))  # 1 s record
        with pytest.raises(ValueError, match="exceeds record"):
            preprocess(r, 5.0)

    def test_window_too_few_samples(self):
        r = EcgRecord("s", 360.0, np.zeros(360))
        with pytest.raises(ValueError, match="too short"):
            preprocess(r, 0.001)

    def test_keeps_length_and_fs(self):
        rec, _ = synth_ecg(quiet_profile(seed=2, noise_sd=0.02), 5.0, 360.0)
        out = preprocess(rec)
        assert len(out) == len(rec) and out.fs == rec.fs

    def test_idempotent_on_sparse_beats(self):
        # amplitude only in a narrow QRS cluster: most of every window sits on
        # a numerically-zero baseline, so the median moves < 1e-9
        waves = {
            "P": Wave(phase=0.30, width=0.008, amplitude=0.0),
            "Q": Wave(phase=0.33, width=0.008, amplitude=-0.1),
            "R": Wave(phase=0.35, width=0.010, amplitude=1.0),
            "S": Wave(phase=0.38, width=0.008, amplitude=-0.2),
            "T": Wave(phase=0.40, width=0.010, amplitude=0.0),
        }
        prof = SubjectProfile(60.0, 0.0, waves, 0.0, 0)
        rec, _ = synth_ecg(prof, 10.0, 360.0)
        once = preprocess(rec)
        twice = preprocess(once)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-9


def median_reference(x, win):
    """np.median of every centred window, clipped to the record at the edges."""
    half = win // 2
    return np.array([np.median(x[max(0, i - half) : i - half + win])
                     for i in range(x.size)])


class TestMovingMedian:
    @settings(max_examples=120, deadline=None)
    @given(win=st.sampled_from([3, 4, 53, 54, 215, 216]),
           extra=st.one_of(st.just(0), st.integers(1, 400)),
           levels=st.sampled_from([1.0, 8.0, 1000.0, None]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_np_median_at_every_position(self, win, extra, levels, seed):
        # extra == 0 makes the window as long as the record; coarse levels
        # fill each window with many equal values
        x = np.random.default_rng(seed).normal(size=win + extra)
        if levels is not None:
            x = np.round(x * levels) / levels
        assert np.array_equal(_moving_median(x, win), median_reference(x, win))


class TestSlice:
    def test_slice_window(self):
        rec, _ = synth_ecg(quiet_profile(), 10.0, 360.0)
        part = slice_seconds(rec, 2.0, 3.0)
        assert len(part) == 3 * 360
        assert np.array_equal(part.samples, rec.samples[720 : 720 + 1080])

    def test_slice_too_far(self):
        rec, _ = synth_ecg(quiet_profile(), 4.0, 360.0)
        with pytest.raises(ValueError):
            slice_seconds(rec, 4.0)


def test_beat_template_peaks_at_anchor():
    t = beat_template(quiet_profile(), 220)
    # frame is R-anchored: both ends sit on the R apex
    assert t[0] == pytest.approx(1.0, abs=0.05)
    assert t[-1] == pytest.approx(1.0, abs=0.05)
    assert t.argmax() in (0, 219)
