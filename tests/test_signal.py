import math
import re
import tracemalloc
from dataclasses import replace
from decimal import Context, Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrauth import signal
from rrauth.signal import (_BLOCK, _PROFILE_RANGES, CsvFormatError, EcgRecord, SubjectProfile,
                           Wave, _bump_sum, _moving_median, _repr_rows,
                           cohort_profiles, load_csv, preprocess, random_profile, save_csv,
                           slice_seconds, synth_ecg)

from conftest import (quiet_profile, reference_beat_template, reference_bump_sum,
                      reference_cohort_profiles, reference_load_csv, reference_moving_median,
                      reference_random_profile)


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

    def test_spacing_off_by_the_tolerance_accepted(self, tmp_path):
        # steps deviate from the mean step by 1e-6 of it, exactly (1e-6 * 1e6
        # rounds to 1.0), the most a uniform column may; one ulp more is refused
        p = tmp_path / "x.csv"
        p.write_text("fs=100\n0,0.0\n1000001,0.1\n2000000,0.2\n")
        assert load_csv(p).samples.tolist() == [0.0, 0.1, 0.2]
        p.write_text(f"fs=100\n0,0.0\n{math.nextafter(1000001.0, 2e6)!r},0.1\n2000000,0.2\n")
        with pytest.raises(CsvFormatError, match="not uniformly spaced"):
            load_csv(p)

    @pytest.mark.parametrize("second", ["0.0", "-0.01"])
    def test_two_rows_need_increasing_times(self, tmp_path, second):
        # two rows are the fewest whose spacing is checked, and an equal or
        # decreasing step is no spacing at all
        p = tmp_path / "x.csv"
        p.write_text(f"fs=100\n0.0,0.0\n{second},0.1\n")
        with pytest.raises(CsvFormatError, match="not uniformly spaced"):
            load_csv(p)
        p.write_text("fs=100\n0.0,0.0\n0.01,0.1\n")
        assert load_csv(p).samples.tolist() == [0.0, 0.1]

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
    the inputs whose float64 scaling lands nearest a rounding boundary."""
    x = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-100, 12)))
    mid = Context(prec=1100).divide(Decimal(x) + Decimal(math.nextafter(x, math.inf)), 2)
    rounded = Context(prec=draw(st.integers(17, 20)))
    d = rounded.plus(mid)
    d = draw(st.sampled_from([d, rounded.next_plus(d), rounded.next_minus(d)]))
    return draw(st.sampled_from(["", "-"])) + format(d, "f")


@st.composite
def plain_decimals(draw):
    """``[-]digits[.digits]`` with up to 25 integer and 35 fraction digits:
    mantissas past 2**62 and 2**64 and more than 22 fraction digits included."""
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


def flip_sign(line: str) -> str:
    """The line with its leading ``-`` dropped, or one put in front of it."""
    return line[1:] if line.startswith("-") else "-" + line


def assert_read_as_float(tmp_path_factory, lines, newline):
    p = tmp_path_factory.getbasetemp() / "decimals.csv"
    p.write_text(newline.join(["fs=360", *lines]), encoding="utf-8", newline="")
    samples = load_csv(p).samples
    assert samples.tobytes() == np.array([float(s) for s in lines]).tobytes()


def midpoint_lines(x: float) -> list[str]:
    """The exact decimal midpoints below and above x, each with the decimals
    one unit in its last digit either side of it."""
    exact = Context(prec=1100)
    lines = []
    for y in (math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
        mid = exact.divide(exact.add(Decimal(x), Decimal(y)), 2)
        unit = Decimal(1).scaleb(mid.as_tuple().exponent)
        lines += [format(d, "f") for d in (exact.subtract(mid, unit), mid, exact.add(mid, unit))]
    return lines


# plain lines at the scaling's limits: mantissas around 2**53 and 2**62,
# k = 22 (scaled) and k = 23 (read by float), zero and powers of two
LIMIT_LINES = [str(2**53 - 1), str(2**53), str(2**53 + 1), str(2**62 - 1), str(2**62),
               "9007199254740993", "9007199254740991.5", "0.9007199254740993",
               "-4.611686018427387903", "0.0000000000000000012345", "0.00000000000000000012345",
               "-0.0000000000000000000001", "0.00000000000000000000001", "0", "-0.000",
               "0.5", "-1.0", "2", "0.0009765625"]


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

    @pytest.mark.parametrize("negated", [True, False])
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(DECIMAL_LINE, min_size=2, max_size=40),
           newline=st.sampled_from(["\n", "\r\n"]))
    @example(lines=LIMIT_LINES, newline="\n")
    @example(lines=[*midpoint_lines(0.5), *midpoint_lines(1.0), *midpoint_lines(2.0)],
             newline="\n")
    def test_decimal_lines_bit_equal_to_float(self, tmp_path_factory, negated, lines,
                                              newline):
        """Each line, and with ``negated`` each line of the opposite sign,
        reads as ``float`` on it."""
        assert_read_as_float(tmp_path_factory,
                             [flip_sign(s) for s in lines] if negated else lines, newline)

    @pytest.mark.parametrize("negated", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(near_midpoints(), min_size=2, max_size=60))
    @example(lines=["1.6830850267032698708", "-0.7788593988420766112", "1.789919793192934816"])
    def test_near_midpoints_bit_equal_to_float(self, tmp_path_factory, negated, lines):
        assert_read_as_float(tmp_path_factory,
                             [flip_sign(s) for s in lines] if negated else lines, "\n")

    @pytest.mark.parametrize("line", ["0.0000000027052343540099", "0.0000154855596132053508"])
    def test_decimal_next_to_a_midpoint_is_left_to_float(self, line):
        """A plain decimal ~2**-52 ulp from the midpoint of two doubles lies
        inside the scaling's 2**-40 margin, so ``float`` reads it."""
        x, v = Fraction(line), float(line)
        ulp = Fraction(math.nextafter(v, math.inf)) - Fraction(v)
        assert abs(abs(x - Fraction(v)) - ulp / 2) < ulp * 2**-40
        m, k = np.array([line.replace(".", "")], np.uint64), np.array([22])
        assert signal._scale(m, k)[1].tolist() == [True]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=40),
           spec=st.sampled_from([".16e", "e", ".3E"]), block=st.integers(1, 200))
    @example(values=[1e-05, -1.5e-07, 1.2345678901234567e+16, -0.0], spec=".16e", block=1 << 17)
    def test_exponent_lines_read_by_the_block_reader(self, tmp_path_factory, values, spec,
                                                     block):
        """A body without a plain line is read by the block reader, with
        ``float`` on each line."""
        p = tmp_path_factory.getbasetemp() / "exponents.csv"
        p.write_text("fs=360\n" + "".join(f"{v:{spec}}\n" for v in values), encoding="utf-8")
        with mock.patch("rrauth.signal._READ_BLOCK", block), \
                mock.patch("rrauth.signal._parse_body", side_effect=AssertionError):
            loaded = outcome(load_csv, p)
        assert loaded == outcome(reference_load_csv, p)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                           max_size=40))
    @example(values=[5e-324, -2.2250738585072014e-308, 1.7976931348623157e+308, -0.0])
    def test_repr_round_trip_at_every_magnitude(self, tmp_path_factory, values):
        p = tmp_path_factory.getbasetemp() / "magnitudes.csv"
        save_csv(EcgRecord("m", 360.0, values), p)
        assert load_csv(p).samples.tobytes() == np.array(values).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts(), block=st.integers(1, 40))
    @example(text="fs=360\n0.1\n1e-3\n0.2\n", block=1)
    @example(text="fs=360\n0.1\n0.2", block=5)
    def test_blocks_of_lines_same_as_line_parser(self, tmp_path_factory, text, block):
        """Bodies read a few lines a block, lines longer than a block and
        blocks without a plain line included, give the plain reading."""
        p = tmp_path_factory.getbasetemp() / "blocks.csv"
        p.write_text(text, encoding="utf-8", newline="")
        with mock.patch("rrauth.signal._READ_BLOCK", block):
            assert outcome(load_csv, p) == outcome(reference_load_csv, p)

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(DECIMAL_LINE, min_size=2, max_size=60), block=st.integers(1, 200),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_blocks_of_decimal_lines_bit_equal_to_float(self, tmp_path_factory, lines, block,
                                                          newline):
        with mock.patch("rrauth.signal._READ_BLOCK", block):
            assert_read_as_float(tmp_path_factory, lines, newline)

    def test_temporaries_stay_small(self, tmp_path):
        """A 65 s record (~478 kB) is read with ~1.2 MB of memory at its
        peak, the file's bytes and the samples included; the whole-body scan
        held ~4.2 MB."""
        rec, _ = synth_ecg(quiet_profile(seed=4, noise_sd=0.02), 65.0, 360.0)
        p = tmp_path / "r.csv"
        save_csv(rec, p)
        tracemalloc.start()
        try:
            loaded = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.samples.tobytes() == rec.samples.tobytes()
        assert peak < 3 * p.stat().st_size


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


def assert_same_cohort_as_one_at_a_time(count, seed, separation):
    """`cohort_profiles` keeps the profiles, or raises the error, of the loop
    that builds and checks one candidate at a time, and each kept profile's
    template on its own is the batch row it was accepted with."""
    rows, build = [], signal._beat_templates

    def recorded(batch, length):
        templates = build(batch, length)
        rows.extend(templates)
        return templates

    try:
        kept = reference_cohort_profiles(count, seed, separation)
    except RuntimeError as exc:
        with mock.patch.object(signal, "_beat_templates", recorded):
            with pytest.raises(RuntimeError) as caught:
                cohort_profiles(count, seed, separation)
        assert str(caught.value) == str(exc)
        return
    with mock.patch.object(signal, "_beat_templates", recorded):
        profiles = cohort_profiles(count, seed, separation)
    assert profiles == [profile for _, profile, _ in kept]
    for index, profile, template in kept:
        assert signal._beat_templates([profile], 220)[0].tobytes() == rows[index].tobytes()
        assert rows[index].tobytes() == template.tobytes()


class TestCohortProfiles:
    @pytest.mark.parametrize("count, seed, separation", [
        (1, 0, 0.010), (12, 42, 0.010), (12, 7, 0.0), (8, 3, 0.015), (40, 11, 0.005),
        (125, 1, 0.005)])
    def test_same_profiles_as_pairwise_loop(self, count, seed, separation):
        assert_same_cohort_as_one_at_a_time(count, seed, separation)

    @pytest.mark.parametrize("count, seed, separation", [
        (30, 1, 0.0), (1, 2, 0.005), (9, 2, 0.02), (3, 4, 0.010), (40, 3, 0.0), (9, 4, 0.014),
        (9, 5, 0.02), (70, 6, 0.0), (130, 7, 0.005), (20, 8, 0.010), (30, 9, 0.010),
        (40, 10, 0.0), (70, 11, 0.005), (9, 12, 0.010), (25, 13, 0.010), (3, 14, 10.0),
    ])
    def test_same_outcome_as_one_at_a_time(self, count, seed, separation):
        # 9 profiles at 0.02 mV^2 end in the RuntimeError when a full batch
        # ends on the last attempt, 3 at 10.0 when a cut one does; 9 at 0.014
        # draw 1,352 candidates of the 1,800 allowed
        assert_same_cohort_as_one_at_a_time(count, seed, separation)

    def test_second_profile_on_the_last_attempt(self):
        # of seed 5's first 400 candidates the 400th lies farthest from the
        # first: at its MSE the second profile is the last of the 200 * 2
        # attempts, and at the next larger double the cohort cannot be drawn
        master = np.random.default_rng(5)
        first, *rest = (reference_beat_template(random_profile(int(master.integers(2**31))), 220)
                        for _ in range(400))
        mses = [float(np.mean((t - first) ** 2)) for t in rest]
        assert mses[-1] > max(mses[:-1])
        assert [index for index, _, _ in reference_cohort_profiles(2, 5, mses[-1])] == [0, 399]
        assert_same_cohort_as_one_at_a_time(2, 5, mses[-1])
        assert_same_cohort_as_one_at_a_time(2, 5, math.nextafter(mses[-1], 1.0))

    def test_separation_too_large_to_meet(self):
        with pytest.raises(RuntimeError, match="lower the separation"):
            cohort_profiles(3, seed=0, min_separation_mse=10.0)

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


@st.composite
def bump_sum_cases(draw):
    """A phase grid and wave parameters for `_bump_sum`: one record's beat
    phases with a (5, 3) table, or a (batch, frame_len) template grid with a
    (5, 3, batch, 1) stack of tables. Each value lies inside its
    `_PROFILE_RANGES` row or up to `stretch` of the row's width beyond it.
    With `lone`, one wave alone has an amplitude, so far from it a sample is
    only its subnormal exp values. A `tiny` width makes 2 * width**2
    underflow to 0; its wave's phase is a grid point, where d == 0 gives exp
    a NaN argument."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stretch = draw(st.sampled_from([0.0, 0.5, 4.0]))
    batch = draw(st.sampled_from([0, 1, 3, 17]))  # 0: one record's beat phases
    tiny = draw(st.sampled_from([None, 5e-324, 1e-200, 1e-162]))
    lo, hi = _PROFILE_RANGES[:15].T
    values = rng.uniform(lo - stretch * (hi - lo), hi + stretch * (hi - lo), (max(batch, 1), 15))
    waves = values.T.reshape(5, 3, -1)
    if batch == 0:
        rr = draw(st.floats(0.25, 2.0))
        u = (np.arange(draw(st.integers(2, 4000))) / 360.0 % rr) / rr
        waves = waves[..., 0]
    else:
        frame_len = draw(st.sampled_from([2, 3, 220, 600]))
        u = (waves[2, 0][:, None] + np.arange(frame_len) / (frame_len - 1)) % 1.0
        waves = waves[..., None]
    if draw(st.booleans()):  # lone
        waves[np.arange(5) != draw(st.integers(0, 4)), 2] = 0.0
    if tiny is not None:
        k, j = draw(st.integers(0, 4)), draw(st.integers(0, u.shape[-1] - 1))
        waves[k, 0] = u[j] if batch == 0 else u[:, j:j + 1]
        waves[k, 1] = tiny
    return u, waves, tiny is not None


class TestBumpSum:
    @settings(max_examples=150, deadline=None)
    @given(case=bump_sum_cases())
    def test_same_bytes_as_exp_everywhere(self, case):
        # exp is skipped only where it would give exactly +0.0
        u, waves, nan_argument = case
        with np.errstate(all="ignore"):
            out = _bump_sum(u, waves)
            expected = reference_bump_sum(u, waves)
        assert out.tobytes() == expected.tobytes()
        if nan_argument:
            assert np.isnan(out).any()

    def test_exp_at_the_cut(self):
        # arguments from -747 to -744 for P alone: exp is +0.0 below about
        # -745.13 and the smallest subnormal above it
        width = 0.01
        u = np.sqrt(np.linspace(747.0, 744.0, 3001) * (2.0 * width * width))
        waves = np.array([[0.0, width, 1.0]] + [[0.5, 0.02, 0.0]] * 4)
        expected = reference_bump_sum(u, waves)
        assert (expected == 0.0).any() and (expected > 0.0).any()
        assert _bump_sum(u, waves).tobytes() == expected.tobytes()


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

    def test_lowest_fs_accepted(self):
        rec, peaks = synth_ecg(quiet_profile(), 10.0, 100.0)
        assert len(rec) == 1000 and len(peaks) in (10, 11)
        with pytest.raises(ValueError, match="fs must be finite and >= 100 Hz"):
            synth_ecg(quiet_profile(), 10.0, math.nextafter(100.0, 0.0))

    @pytest.mark.parametrize("duration_s,fs", [(10.0, math.inf), (10.0, math.nan),
                                               (math.inf, 360.0), (math.nan, 360.0)])
    def test_non_finite_duration_or_fs(self, duration_s, fs):
        with pytest.raises(ValueError, match="must be finite"):
            synth_ecg(quiet_profile(), duration_s, fs)

    @pytest.mark.parametrize("duration_s,fs", [(10.0, 1e308), (1e308, 360.0),
                                               (1.7e308, 360.0)])
    def test_count_overflow_is_value_error(self, duration_s, fs):
        # finite values whose sample or beat count is not: refused before any draw
        with pytest.raises(ValueError, match="non-finite sample or beat count"):
            synth_ecg(quiet_profile(), duration_s, fs)

    def test_nan_separation(self):
        with pytest.raises(ValueError, match="NaN"):
            cohort_profiles(2, seed=0, min_separation_mse=math.nan)

    def test_true_peaks_in_bounds(self):
        rec, peaks = synth_ecg(quiet_profile(seed=3, rr_jitter=0.08), 20.0, 360.0)
        assert peaks[0] >= 0 and peaks[-1] < len(rec)
        assert np.all(np.diff(peaks) > 0)

    @pytest.mark.parametrize("r_phase, first, last", [(0.0, 0, 1000), (0.5, 50, 950)])
    def test_peaks_on_the_first_and_past_the_last_sample(self, r_phase, first, last):
        # 1 s beats at 100 Hz: an R at phase 0.0 falls on sample 0, which is
        # kept; at phase 0.5 the eleventh R of a 10.5 s record falls on
        # sample 1050, one past the last, which is dropped
        waves = dict(quiet_profile().waves)
        waves["R"] = Wave(phase=r_phase, width=0.018, amplitude=1.0)
        rec, peaks = synth_ecg(SubjectProfile(60.0, 0.0, waves, 0.0, 0), 10.5, 100.0)
        assert len(rec) == 1050
        assert peaks.tolist() == list(range(first, last + 1, 100))


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

    def test_phase_zero_accepted(self):
        # a phase is a fraction of the RR interval in [0, 1): 0.0 is the beat's start
        waves = dict(quiet_profile().waves)
        waves["P"] = Wave(phase=0.0, width=0.03, amplitude=0.15)
        assert SubjectProfile(60.0, 0.0, waves, 0.0, 0).waves["P"].phase == 0.0

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

    @pytest.mark.parametrize("n", [3, 4, 50])
    def test_shortest_window_and_record(self, n):
        # at 5 Hz the window is round(0.6 s * 5 Hz) = 3 samples, the fewest
        # accepted (one window per sorted group), and a record of exactly 3
        # samples is as long as it
        x = np.random.default_rng(n).normal(size=n)
        expected = x - reference_moving_median(x, 3)
        assert preprocess(EcgRecord("s", 5.0, x)).samples.tobytes() == expected.tobytes()

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

    @settings(max_examples=150, deadline=None)
    @given(win=st.sampled_from(WINDOWS) | st.integers(3, 300),
           extra=st.integers(0, 900), block=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_of_windows_bytes_equal(self, win, extra, block, seed):
        # blocks of one group up to several, with a short last block
        x = np.round(np.random.default_rng(seed).normal(size=win + extra) * 8) / 8
        with mock.patch("rrauth.signal._MEDIAN_BLOCK", block):
            assert _moving_median(x, win).tobytes() == reference_moving_median(x, win).tobytes()

    def test_temporaries_stay_small(self):
        # 50 s at 360 Hz, the enrolment window: ~7x the record with the
        # sorts of one block at a time, where sorting every group at once
        # held ~15x
        x = np.random.default_rng(6).normal(size=18_000)
        tracemalloc.start()
        try:
            _moving_median(x, 216)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes

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

    def test_last_two_samples(self):
        rec, _ = synth_ecg(quiet_profile(), 4.0, 360.0)
        assert slice_seconds(rec, 1438 / 360).samples.tolist() == rec.samples[1438:].tolist()
        with pytest.raises(ValueError, match="fewer than 2 samples"):
            slice_seconds(rec, 1439 / 360)

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


def test_beat_template_peaks_at_anchor():
    t = signal._beat_templates([quiet_profile()], 220)[0]
    # frame is R-anchored: both ends sit on the R apex
    assert t[0] == pytest.approx(1.0, abs=0.05)
    assert t[-1] == pytest.approx(1.0, abs=0.05)
    assert t.argmax() in (0, 219)
