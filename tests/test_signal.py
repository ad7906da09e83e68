import math
import re
from dataclasses import replace
from decimal import Context, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrauth.signal import (_BLOCK, CsvFormatError, EcgRecord, SubjectProfile, Wave,
                           _moving_median, _repr_rows, beat_template, cohort_profiles,
                           load_csv, preprocess, random_profile, save_csv, slice_seconds,
                           synth_ecg)

from conftest import (quiet_profile, reference_cohort_profiles, reference_load_csv,
                      reference_moving_median, reference_random_profile)


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

    def test_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            EcgRecord("a", 360.0, [[0.0, 0.1], [0.2, 0.3]])


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


def outcome(load, path):
    """What a reader makes of a file: its fs and sample bytes, or its error."""
    try:
        record = load(path)
    except CsvFormatError as exc:
        return "error", str(exc)
    return record.fs, record.samples.tobytes()


def load_outcome_line_parser(path):
    """load_csv's outcome with ``np.fromiter`` failing, so every body goes
    through the line-by-line parser."""
    with mock.patch("rrauth.signal.np.fromiter", side_effect=ValueError):
        return outcome(load_csv, path)


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


FUZZ_BYTES = st.one_of(csv_texts().map(lambda t: t.encode("utf-8")),
                       st.text().map(lambda t: ("fs=360\n" + t).encode("utf-8", "surrogatepass")),
                       st.binary(max_size=200).map(lambda b: b"fs=360\n0.0\n" + b))


@st.composite
def near_midpoints(draw):
    """Plain decimals of 17-20 significant digits on, or one unit in the
    last digit either side of, the exact midpoint of two adjacent doubles:
    the inputs whose long double quotient can land on a float64 midpoint."""
    x = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-100, 12)))
    mid = Context(prec=1100).divide(Decimal(x) + Decimal(math.nextafter(x, math.inf)), 2)
    rounded = Context(prec=draw(st.integers(17, 20)))
    d = rounded.plus(mid)
    d = draw(st.sampled_from([d, rounded.next_plus(d), rounded.next_minus(d)]))
    return draw(st.sampled_from(["", "-"])) + format(d, "f")


@st.composite
def plain_decimals(draw):
    """``[-]digits[.digits]`` with up to 25 integer and 35 fraction digits:
    mantissas past 2**64 and more than 27 fraction digits included."""
    whole = draw(st.text("0123456789", max_size=25))
    frac = draw(st.text("0123456789", max_size=35))
    if not (whole or frac):
        whole = "0"
    return draw(st.sampled_from(["", "-"])) + whole + draw(st.sampled_from([".", ""])) + frac


DECIMAL_LINE = st.one_of(near_midpoints(), plain_decimals(),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.sampled_from(["-0.0", "0.0", "-0", "5.", ".5", "-.5", "1e-05",
                                          "-1.5e-07", "1.2345678901234567e+16",
                                          "18446744073709551615.5", "0.18446744073709551616",
                                          "-0.000000000000000000000000000123"]))


def assert_read_as_float(tmp_path_factory, lines, newline, exact_scaling):
    p = tmp_path_factory.getbasetemp() / "decimals.csv"
    p.write_text(newline.join(["fs=360", *lines]), encoding="utf-8", newline="")
    with mock.patch("rrauth.signal._LONGDOUBLE_64", exact_scaling):
        samples = load_csv(p).samples
    assert samples.tobytes() == np.array([float(s) for s in lines]).tobytes()


class TestCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts())
    @example(text="fs=360\r\n0.0\r\n0.1\r\n")
    @example(text="fs=360\n 1.5 \n\t-2\n1_0\n")
    @example(text="fs=360\n0.0\n\n0.1\n")
    @example(text="fs=360\n0.0\n\ufeff0.1\n")
    @example(text="fs=360\n0,0.1\n0.01,0.2\n")
    @example(text="fs=360\x0c\n0.5\n0.1\x0c\n\x0b0.2\n")
    @example(text="fs=360\x0c0.5\n0.1\n")
    @example(text="fs=360\r0.5\r0.1\r")
    @example(text="fs=360\n0.1\u20280.2\n0.3\x850.4\n")
    def test_same_as_line_parser(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fast_path.csv"
        p.write_text(text, encoding="utf-8", newline="")
        loaded = outcome(load_csv, p)
        assert loaded == outcome(reference_load_csv, p)
        assert loaded == load_outcome_line_parser(p)

    @settings(max_examples=200, deadline=None)
    @given(data=FUZZ_BYTES)
    @example(data=b"fs=360\n0.1\n-0.0\n")
    def test_same_without_exact_scaling(self, tmp_path_factory, data):
        """Where long double has no 64-bit significand, every line goes
        through float(), with the same outcome."""
        p = tmp_path_factory.getbasetemp() / "no_exact_scaling.csv"
        p.write_bytes(data)
        with mock.patch("rrauth.signal._LONGDOUBLE_64", False):
            assert outcome(load_csv, p) == outcome(reference_load_csv, p)

    @pytest.mark.parametrize("exact_scaling", [True, False])
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(DECIMAL_LINE, min_size=2, max_size=40),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_decimal_lines_bit_equal_to_float(self, tmp_path_factory, exact_scaling,
                                              lines, newline):
        assert_read_as_float(tmp_path_factory, lines, newline, exact_scaling)

    @pytest.mark.parametrize("exact_scaling", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(near_midpoints(), min_size=2, max_size=60))
    @example(lines=["1.6830850267032698708", "-0.7788593988420766112", "1.789919793192934816"])
    def test_near_midpoints_bit_equal_to_float(self, tmp_path_factory, exact_scaling, lines):
        assert_read_as_float(tmp_path_factory, lines, "\n", exact_scaling)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                           max_size=40))
    @example(values=[5e-324, -2.2250738585072014e-308, 1.7976931348623157e+308, -0.0])
    def test_repr_round_trip_at_every_magnitude(self, tmp_path_factory, values):
        p = tmp_path_factory.getbasetemp() / "magnitudes.csv"
        save_csv(EcgRecord("m", 360.0, values), p)
        assert load_csv(p).samples.tobytes() == np.array(values).tobytes()


def repr_join(matrix) -> str:
    """The text the CSV writers reproduce: each row's ``repr`` joined by
    ``,``, every row ended by ``\\n``."""
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(matrix).tolist())


def around(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# The edges of the path that formats without repr: zero, the smallest
# subnormal, both ends of [1e-4, 2**53), powers of two and of ten one ulp
# either side, and 2**53 + 1, which reads as 2**53.
EDGES = [0.0, 5e-324, *around(1e-4), *around(2.0**53), 9007199254740993.0,
         *(v for e in (-14, -1, 0, 1, 49, 52) for v in around(2.0**e)),
         *(v for e in (-4, -3, -1, 0, 1, 15) for v in around(10.0**e))]
EDGES += [-v for v in EDGES]


@st.composite
def short_decimals(draw):
    """Doubles read from decimals of 1-17 significant digits scaled by
    1e-21 to 1: values whose repr drops many digits."""
    digits = draw(st.integers(1, 10**draw(st.integers(1, 17)) - 1))
    return draw(st.sampled_from([1.0, -1.0])) * float(f"{digits}e{draw(st.integers(-21, 0))}")


@st.composite
def large_fractions(draw):
    """Doubles in [2**49, 2**53) with 0-3 fraction bits, where the nearest
    candidate with one fraction digit can sit exactly halfway."""
    return draw(st.integers(2**49, 2**53 - 1)) + draw(st.integers(0, 7)) / 8


WRITER_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), short_decimals(),
                         large_fractions(), st.integers(-2**53, 2**53).map(float))


class TestCsvWriter:
    @settings(max_examples=600, deadline=None)
    @given(values=st.lists(WRITER_VALUE, min_size=2, max_size=60))
    @example(values=EDGES)
    @example(values=[0.1, 0.3, 2.5, 0.375, 1e15 + 0.25, 2.0**50 + 0.25, 123456.789])
    def test_save_csv_bytes_are_repr(self, tmp_path_factory, values):
        p = tmp_path_factory.getbasetemp() / "written.csv"
        save_csv(EcgRecord("w", 257.31, values), p)
        want = "fs=257.31\n" + "\n".join(map(repr, values)) + "\n"
        assert p.read_bytes() == want.encode("ascii")

    @pytest.mark.parametrize("offset", [-0.4, 0.4])
    def test_log10_one_off_changes_no_byte(self, offset):
        """The decimal exponent comes from ``np.log10``, which may round
        to the wrong side of an integer; an estimate one too low or one
        too high still gives repr's text."""
        rng = np.random.default_rng(19)
        values = np.concatenate([EDGES, rng.normal(size=2000), np.round(rng.normal(size=500), 3),
                                 10.0 ** rng.uniform(-4, 15.9, 2000)])
        log10 = np.log10
        with mock.patch("rrauth.signal.np.log10", lambda a: log10(a) + offset):
            assert _repr_rows(values[:, None]) == repr_join(values[:, None])

    def test_record_longer_than_one_block(self, tmp_path):
        record, _ = synth_ecg(cohort_profiles(1, seed=42)[0], 65.0, 360.0)
        assert len(record) > 2 * _BLOCK
        p = tmp_path / "long.csv"
        save_csv(record, p)
        assert p.read_text(encoding="utf-8") == "fs=360.0\n" + repr_join(record.samples[:, None])

    @pytest.mark.parametrize("shape", [(0, 220), (1, 1), (3, 220), (_BLOCK // 220 + 5, 220),
                                       (2, _BLOCK + 3), (40, 7)])
    def test_rows_are_the_repr_join(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        kinds = [rng.normal(size=shape), np.round(rng.normal(size=shape), 3),
                 rng.integers(-500, 500, shape) * 0.005, rng.integers(-9, 9, shape) * 1e-5]
        matrix = np.choose(rng.integers(0, len(kinds), shape), kinds)
        assert _repr_rows(matrix) == repr_join(matrix)


class TestCohortProfiles:
    @pytest.mark.parametrize("count, seed, separation", [
        (1, 0, 0.010), (12, 42, 0.010), (12, 7, 0.0), (8, 3, 0.015), (40, 11, 0.005),
        (125, 1, 0.005)])
    def test_same_profiles_as_pairwise_loop(self, count, seed, separation):
        assert (cohort_profiles(count, seed, min_separation_mse=separation)
                == reference_cohort_profiles(count, seed, separation))

    def test_same_profiles_at_another_frame_length(self):
        assert (cohort_profiles(12, 5, frame_len=64)
                == reference_cohort_profiles(12, 5, frame_len=64))

    def test_separation_too_large_to_meet(self):
        with pytest.raises(RuntimeError, match="lower the separation"):
            cohort_profiles(3, seed=0, min_separation_mse=10.0)

    @pytest.mark.parametrize("frame_len", [1, 0, -5])
    def test_short_frame_refused(self, frame_len):
        with pytest.raises(ValueError, match="frame_len must be >= 2"):
            cohort_profiles(2, seed=0, frame_len=frame_len)

    def test_empty_cohort_refused(self):
        with pytest.raises(ValueError, match="cohort size must be >= 1, got 0"):
            cohort_profiles(0, seed=0)

    def test_random_profile_is_the_scalar_draws(self):
        # one vector draw over the range table gives each scalar draw's bits
        for seed in range(20000):
            assert random_profile(seed) == reference_random_profile(seed)


class TestCsvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=FUZZ_BYTES)
    def test_loads_or_raises_csv_format_error(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(data)
        assert outcome(load_csv, p) == outcome(reference_load_csv, p)
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

    @pytest.mark.parametrize("duration_s,fs", [(10.0, math.inf), (10.0, math.nan),
                                               (math.inf, 360.0), (math.nan, 360.0)])
    def test_non_finite_duration_or_fs(self, duration_s, fs):
        with pytest.raises(ValueError, match="must be finite"):
            synth_ecg(quiet_profile(), duration_s, fs)

    def test_nan_separation(self):
        with pytest.raises(ValueError, match="NaN"):
            cohort_profiles(2, seed=0, min_separation_mse=math.nan)

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

    @pytest.mark.parametrize("wave,field,value,message", [
        ("P", "width", math.nan, "P wave width must be > 0"),
        ("R", "amplitude", math.nan, "R wave amplitude must be > 0"),
        ("S", "phase", 1.0, r"S wave phase must be in \[0, 1\)"),
    ], ids=["nan P width", "nan R amplitude", "S phase 1"])
    def test_nan_or_out_of_range_wave_refused(self, wave, field, value, message):
        waves = dict(quiet_profile().waves)
        waves[wave] = replace(waves[wave], **{field: value})
        with pytest.raises(ValueError, match=message):
            SubjectProfile(60.0, 0.0, waves, 0.0, 0)

    @pytest.mark.parametrize("noise_sd", [-0.01, math.nan, math.inf])
    def test_noise_sd_must_be_finite_and_nonnegative(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be >= 0"):
            quiet_profile(noise_sd=noise_sd)

    def test_waves_must_be_the_five_names(self):
        waves = dict(quiet_profile().waves)
        del waves["T"]
        with pytest.raises(ValueError, match="waves must be exactly"):
            SubjectProfile(60.0, 0.0, waves, 0.0, 0)


class TestPreprocess:
    @pytest.mark.parametrize("fs", [250.0, 360.0, 500.0, 1000.0])
    def test_bytes_equal_to_sorted_row_oracle(self, fs):
        rec, _ = synth_ecg(quiet_profile(seed=3, rr_jitter=0.05, noise_sd=0.02), 20.0, fs)
        win = int(round(0.6 * fs))
        expected = rec.samples - reference_moving_median(rec.samples, win)
        assert preprocess(rec).samples.tobytes() == expected.tobytes()

    def test_constant_becomes_zero(self):
        r = EcgRecord("c", 100.0, np.full(500, 3.7))
        out = preprocess(r)
        assert np.array_equal(out.samples, np.zeros(500))

    def test_linear_drift_mostly_removed(self):
        clean, _ = synth_ecg(quiet_profile(), 10.0, 360.0)
        drift = np.linspace(0.0, 2.0, len(clean))
        drifted = EcgRecord("d", clean.fs, clean.samples + drift)
        residual = preprocess(drifted).samples - preprocess(clean).samples
        assert np.max(np.abs(residual)) <= 0.2

    def test_window_longer_than_record(self):
        r = EcgRecord("s", 360.0, np.zeros(180))  # 0.5 s record, 216-sample window
        with pytest.raises(ValueError, match="exceeds record"):
            preprocess(r)

    def test_window_too_few_samples(self):
        r = EcgRecord("s", 3.0, np.zeros(360))  # round(0.6 s * 3 Hz) = 2 samples
        with pytest.raises(ValueError, match="too short"):
            preprocess(r)

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


# the baseline windows at 250, 360, 500 and 1000 Hz, and odd ones
WINDOWS = [3, 4, 5, 53, 54, 150, 215, 216, 300, 600]


class TestMovingMedian:
    @settings(max_examples=120, deadline=None)
    @given(win=st.sampled_from(WINDOWS),
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

    @settings(max_examples=300, deadline=None)
    @given(win=st.sampled_from(WINDOWS) | st.integers(3, 700),
           extra=st.one_of(st.just(0), st.integers(1, 700)),
           levels=st.sampled_from([1.0, 8.0, None]),
           signed_zeros=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_to_sorted_row_oracle(self, win, extra, levels, signed_zeros, seed):
        # the same argsort ranks the record, so even a zero median keeps its sign
        rng = np.random.default_rng(seed)
        x = rng.normal(size=win + extra)
        if levels is not None:
            x = np.round(x * levels) / levels
        if signed_zeros:
            x[rng.random(x.size) < 0.4] = 0.0
            x[rng.random(x.size) < 0.3] = -0.0
        assert _moving_median(x, win).tobytes() == reference_moving_median(x, win).tobytes()

    @pytest.mark.parametrize("win", WINDOWS)
    def test_every_length_past_the_window(self, win):
        # the windows come in groups of about sqrt(win), at most 24 here, so
        # 64 lengths leave every remainder of the last group
        rng = np.random.default_rng(win)
        for n in range(win, win + 64):
            x = np.round(rng.normal(size=n) * 4) / 4
            assert _moving_median(x, win).tobytes() == reference_moving_median(x, win).tobytes()

    @pytest.mark.parametrize("n", [65_535, 66_000])
    def test_record_past_uint16_ranks(self, n):
        # the high sentinel n + 1 needs 32-bit ranks from 65,535 samples on
        x = np.round(np.random.default_rng(n).normal(size=n) * 50) / 50
        assert _moving_median(x, 150).tobytes() == reference_moving_median(x, 150).tobytes()


class TestSlice:
    def test_slice_window(self):
        rec, _ = synth_ecg(quiet_profile(), 10.0, 360.0)
        part = slice_seconds(rec, 2.0, 3.0)
        assert len(part) == 3 * 360
        assert np.array_equal(part.samples, rec.samples[720 : 720 + 1080])

    def test_slice_too_far(self):
        rec, _ = synth_ecg(quiet_profile(), 4.0, 360.0)
        with pytest.raises(ValueError, match="fewer than 2 samples"):
            slice_seconds(rec, 4.0)

    @pytest.mark.parametrize("start_s", [math.inf, -math.inf, math.nan, -1.0, -1e-9])
    def test_bad_start_refused(self, start_s):
        rec, _ = synth_ecg(quiet_profile(), 4.0, 360.0)
        with pytest.raises(ValueError, match=f"slice start must be finite and >= 0 s, got {start_s}"):
            slice_seconds(rec, start_s)

    @pytest.mark.parametrize("duration_s", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_bad_duration_refused(self, duration_s):
        rec, _ = synth_ecg(quiet_profile(), 4.0, 360.0)
        with pytest.raises(ValueError,
                           match=f"slice duration must be finite and > 0 s, got {duration_s}"):
            slice_seconds(rec, 1.0, duration_s)

    def test_huge_bounds(self):
        # capped at the record's length: no overflow, the same slices as any
        # bound past the end
        rec, _ = synth_ecg(quiet_profile(), 4.0, 360.0)
        with pytest.raises(ValueError, match="fewer than 2 samples"):
            slice_seconds(rec, 1e308)
        assert np.array_equal(slice_seconds(rec, 1.0, 1e308).samples, rec.samples[360:])
        assert np.array_equal(slice_seconds(rec, 1.0, 3.0).samples, rec.samples[360:])


def test_beat_template_needs_two_samples():
    with pytest.raises(ValueError, match="frame_len must be >= 2"):
        beat_template(quiet_profile(), 1)


def test_beat_template_peaks_at_anchor():
    t = beat_template(quiet_profile(), 220)
    # frame is R-anchored: both ends sit on the R apex
    assert t[0] == pytest.approx(1.0, abs=0.05)
    assert t[-1] == pytest.approx(1.0, abs=0.05)
    assert t.argmax() in (0, 219)
