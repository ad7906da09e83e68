"""ECG acquisition and conditioning.

CSV import/export, a seeded synthetic generator for desk-scale experiments,
and moving-median baseline removal. Amplitudes are millivolts throughout;
sampling frequencies are Hz.

A random profile draws its 18 values in one call over `_PROFILE_RANGES`, one
table of (lo, hi) ranges in draw order: the bits of one scalar draw per row.

The moving median sorts small integer ranks instead of doubles: the record
is ranked once by numpy's default (unstable, SIMD) argsort. Low and high
sentinel ranks, alternating in the edge pads, make every window, edge
windows included, hold the same number of entries with its middle ones at
fixed sorted indices. Neighbouring windows share most of their entries,
so those are sorted once for many windows: a core once per group of about
sqrt(win) windows, of which only a band of entries around the middle can
hold a window's median, then that band with the group's other entries
once per pair of windows, and one min and one max add each window's last
entry. The sorts hold O(n * sqrt(win)) entries, not the n * win of a
sorted row per window. Ranks order as their values do, equal values in
any order among themselves, so each median is the value ``np.median``
gives for its window; only the sign of a zero median may differ, where
the argsort may order ``-0.0`` and ``+0.0`` other than ``np.sort`` would.

A CSV body is read without calling ``float`` on most lines. A line of the
plain form ``[-]digits[.digits]`` is exactly the decimal +-m / 10**k, m its
digits read as one integer and k its fraction digits. Where
``np.longdouble`` is the x87 extended format, its 64-bit significand holds
every m below 2**64 and every 10**k up to k = 27 (5**27 < 2**63) exactly,
so the long double quotient m / 10**k is correctly rounded to 64 bits.
Rounding that to float64 then gives the correctly rounded double, which is
what ``float`` returns, unless the quotient lies exactly halfway between
two doubles, the one case where rounding twice can differ from rounding
once (Clinger, PLDI 1990; Lemire, Softw. Pract. Exp. 51(8), 2021). The
sign is taken from the text, so ``-0.0`` stays negative. Every other line
goes through ``float`` one at a time: a halfway quotient, a mantissa of 2**64
or more, k > 27 and any line not of the plain form (an exponent, a space).
A body with no plain line, and every body where ``np.longdouble`` has no
64-bit significand, skips the scaling and is read with ``float`` on each
line of its text.

A CSV file is written without calling ``repr`` on most values, and with
the same bytes. ``repr`` writes the shortest decimal that reads back as
the double x, the nearest to x of those (Steele & White, PLDI 1990; Gay,
1990), in positional form with at least one fraction digit when 1e-4 <=
|x| < 2**53. A decimal reads back as x when it lies within half an ulp of
x. Unless x is a power of two, that interval is symmetric about x, so a
decimal with k fraction digits reads back as x if any does exactly when
the nearest one does: ``repr``'s digits are the nearest decimal at the
fewest k that has one. Ryu (Adams, PLDI 2018) finds them with fixed-width
integers; here float64 arithmetic does. E = |x| * 10**k, k for 17
significant digits (which always read back), is the exact sum of two
doubles (Dekker's product; 10**k is exact up to k = 22), which give
n = floor(E) as an int64 and d = E - n to within 2**-46. With m trailing
digits of n dropped, the nearest candidate lies min(u + d, 10**m - u - d)
from E, u = n mod 10**m, and that is compared with half an ulp times
10**k, which is exact. A value whose distance lies within the rounding
error of half an ulp, or whose two nearest candidates are equally near
within it, gets ``repr``, as do zero, values outside that range and powers
of two (the interval below them is half as wide). Unlike the reader's
scaling this needs no long double, so every platform takes the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WAVE_NAMES = ("P", "Q", "R", "S", "T")
BASELINE_WINDOW_S = 0.6  # moving-median window of the baseline removal
DEFAULT_FRAME_LEN = 220  # samples per RR frame

# (lo, hi) of each value a random profile draws, in draw order
_PROFILE_RANGES = np.array([
    (0.10, 0.18), (0.025, 0.045), (0.05, 0.25),  # P phase, width, amplitude
    (0.28, 0.315), (0.008, 0.016), (-0.30, -0.05),  # Q
    (0.34, 0.36), (0.012, 0.022), (1.0, 1.6),  # R
    (0.385, 0.43), (0.010, 0.020), (-0.45, -0.10),  # S
    (0.55, 0.72), (0.045, 0.09), (0.10, 0.50),  # T
    (55.0, 95.0), (0.02, 0.08), (0.008, 0.020),  # heart rate (bpm), RR jitter, noise sd
])

# Exact decimal scaling of plain CSV lines (see the module docstring).
_LONGDOUBLE_64 = np.finfo(np.longdouble).nmant == 63  # x87 extended precision
_MAX_EXACT_K = 27  # the largest k with 10**k exact in a 64-bit significand
_POW10 = np.cumprod(np.r_[1, np.full(_MAX_EXACT_K, 10)].astype(np.longdouble))
_NOT_DIGIT_OR_LF = bytes(c for c in range(256) if c not in b"0123456789\n")

# Shortest-digit CSV writing (see the module docstring).
_POW10_F64 = _POW10[:23].astype(np.float64)  # 10**k is exact in float64 up to k = 22
_SPLIT = 2.0**27 + 1  # Veltkamp's split of a double into two 26-bit halves
_POW10_HI = _POW10_F64 * _SPLIT - (_POW10_F64 * _SPLIT - _POW10_F64)
_POW10_LO = _POW10_F64 - _POW10_HI
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_MANTISSA = np.int64(2**52 - 1)
_EXPONENT = np.int64(0x7FF << 52)
_DIGITS4 = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_DIGITS4 = (_DIGITS4 % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]  # "0000".."9999"
_BLOCK = 8192  # values per block: its (block, _ROW) byte arrays stay in cache
# One value's bytes: its text right-aligned before a separator byte. The
# 20-digit text of 100 * digits ends the row, so the digits end at byte
# _ROW - 3, leaving room for the point, a sign and any repr; 32-byte rows
# gather faster than narrower ones.
_ROW = 32
_K, _FIRST, _NEGATIVE, _COL = np.indices((22, _ROW, 2, _ROW), sparse=True)
_POINT_AT = _ROW - 2 - _K  # k fraction digits, at most 21
_ON, _OFF = np.uint8(0xFF), np.uint8(0)
_FRACTION = np.where((_COL > _POINT_AT) & (_COL < _ROW - 1), _ON, _OFF)[:, 0, 0]
# Rows by (k * _ROW + first) * 2 + negative: the integer part from its
# first byte (the same for either sign), and the point and the sign.
_INTEGER = np.where((_COL >= _FIRST) & (_COL < _POINT_AT) & (_NEGATIVE >= 0), _ON, _OFF)
_INTEGER = _INTEGER.reshape(-1, _ROW)
_MARKS = np.where(_COL == _POINT_AT, np.uint8(ord(".")),
                  np.where((_COL == _FIRST - 1) & (_NEGATIVE == 1), np.uint8(ord("-")), _OFF))
_MARKS = _MARKS.reshape(-1, _ROW)

__all__ = [
    "DEFAULT_FRAME_LEN",
    "CsvFormatError",
    "EcgRecord",
    "Wave",
    "SubjectProfile",
    "load_csv",
    "save_csv",
    "slice_seconds",
    "synth_ecg",
    "beat_template",
    "preprocess",
    "random_profile",
    "cohort_profiles",
    "profile_to_dict",
]


class CsvFormatError(ValueError):
    """Malformed ECG CSV file."""


@dataclass(frozen=True, eq=False)
class EcgRecord:
    """A uniformly sampled single-lead ECG trace in mV."""

    subject_id: str
    fs: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.fs < math.inf:
            raise ValueError(f"fs must be finite and > 0, got {self.fs}")
        samples = np.array(self.samples, dtype=float)  # copy; records are immutable
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size < 2:
            raise ValueError(f"need at least 2 samples, got {samples.size}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or infinity")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fs", float(self.fs))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.fs

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Wave:
    """One beat component: a Gaussian bump inside the beat.

    ``phase`` and ``width`` are fractions of the RR interval (width acts as
    the Gaussian sigma); ``amplitude`` is mV.
    """

    phase: float
    width: float
    amplitude: float


@dataclass(frozen=True)
class SubjectProfile:
    """Rhythm and morphology parameters for one synthetic subject."""

    heart_rate_bpm: float
    rr_jitter: float
    waves: dict[str, Wave]
    noise_sd: float
    seed: int

    def __post_init__(self) -> None:
        if not 30.0 <= self.heart_rate_bpm <= 240.0:
            raise ValueError(f"heart_rate_bpm must be in [30, 240], got {self.heart_rate_bpm}")
        if not 0.0 <= self.rr_jitter < 0.5:
            raise ValueError(f"rr_jitter must be in [0, 0.5), got {self.rr_jitter}")
        if set(self.waves) != set(WAVE_NAMES):
            raise ValueError(f"waves must be exactly {WAVE_NAMES}")
        for name in WAVE_NAMES:
            if not self.waves[name].width > 0:
                raise ValueError(f"{name} wave width must be > 0")
            if not 0.0 <= self.waves[name].phase < 1.0:
                raise ValueError(f"{name} wave phase must be in [0, 1)")
        if not self.waves["R"].amplitude > 0:
            raise ValueError("R wave amplitude must be > 0")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError("noise_sd must be >= 0 and finite")


def load_csv(path, subject_id: str | None = None) -> EcgRecord:
    """Read an ECG CSV: line 1 ``fs=<Hz>``, then one mV value per line or
    uniform ``t,mv`` pairs (t in seconds).

    The header is authoritative for fs; a time column is only checked for
    uniform spacing, never used to re-derive fs. Lines are what
    ``str.splitlines`` makes of the UTF-8 text. A body of one finite value
    per line is read from the bytes, with CRLF and CR read as LF: plain
    decimal lines are scaled exactly, bit-equal to ``float`` on the line,
    and every other line goes through ``float`` (the module docstring gives
    the argument and the cases). A body with no plain line, or another line
    break inside line 1, is read with ``float`` on each line. Any other
    body (blank lines, ``t,mv`` pairs, a bad or non-finite value) goes
    through the line-by-line parser, which accepts the same values and
    names the line of the first error.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if b"\r" in data:  # CRLF and a lone CR each end a line, as in str.splitlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = data.partition(b"\n")
    first = head.decode("utf-8").splitlines()  # more than line 1 if head holds a break
    header = first[0].strip() if first else ""
    if not header.startswith("fs="):
        raise CsvFormatError(f"{path}: line 1: expected 'fs=<Hz>' header")
    try:
        fs = float(header[3:])
    except ValueError:
        raise CsvFormatError(f"{path}: line 1: invalid fs value {header[3:]!r}") from None
    if not 0 < fs < math.inf:
        raise CsvFormatError(f"{path}: line 1: fs must be finite and > 0, got {fs}")

    samples = _parse_decimal_lines(body) if _LONGDOUBLE_64 and len(first) == 1 else None
    if samples is None:  # no line to scale, or a line float() rejects: float on each line
        lines = text.splitlines()[1:]
        try:
            samples = np.fromiter(map(float, lines), float, count=len(lines))
        except ValueError:  # a blank line, a t,mv pair or a malformed value
            samples = _parse_body(path, lines)
    if not np.all(np.isfinite(samples)):
        samples = _parse_body(path, text.splitlines()[1:])
    if samples.size < 2:
        raise CsvFormatError(f"{path}: fewer than 2 samples")
    if subject_id is None:
        stem = path.rsplit("/", 1)[-1]
        subject_id = stem[:-4] if stem.endswith(".csv") else stem
    return EcgRecord(subject_id=subject_id, fs=fs, samples=samples)


def _parse_decimal_lines(body: bytes) -> np.ndarray | None:
    """The value of each LF-ended line, bit-equal to ``float`` on the line,
    where ``np.longdouble`` has a 64-bit significand; None when no line is
    plain or ``float`` rejects a line.

    A line break other than LF stays inside its line: a line that ``float``
    accepts has it only around its number, where ``str.splitlines`` would
    make a blank line of it, which the line-by-line parser skips, so both
    readings give the same values. One scan finds every byte but a digit. A
    line is plain when those are at most a leading ``-`` and a ``.`` that
    follows every other one. The digits of each line, the only bytes kept,
    give its mantissa as one uint64 (strtoull saturates at 2**64 - 1).
    """
    if body and not body.endswith(b"\n"):
        body += b"\n"
    a = np.frombuffer(body, np.uint8)
    odd = np.flatnonzero(a - np.uint8(48) > 9)  # every byte but a digit
    kind = a[odd]
    lf = np.flatnonzero(kind == 10)  # the line ends, as indices into odd
    ends = odd[lf]
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    n_odd = np.diff(lf, prepend=-1) - 1  # each line's non-digits, its LF aside
    if np.any(n_odd == ends - starts):
        return None  # a line without a digit: float() rejects it
    last = lf - 1  # each line's last non-digit, where n_odd > 0
    has_dot = (n_odd > 0) & (kind[last] == 46)
    k = np.where(has_dot, ends - odd[last] - 1, 0)
    negative = a[starts] == 45
    exact = (n_odd - has_dot - negative == 0) & (k <= _MAX_EXACT_K)
    if not exact.any():
        return None
    mantissa = np.fromstring(body.translate(None, _NOT_DIGIT_OR_LF), dtype=np.uint64, sep="\n")
    quotient = mantissa.astype(np.longdouble) / _POW10[np.minimum(k, _MAX_EXACT_K)]
    values = quotient.astype(np.float64)
    np.negative(values, out=values, where=negative)
    # x87 stores the significand first, little-endian, so the first 32-bit
    # word of each element holds its low bits; 0x400 in the low 11 bits
    # marks a quotient exactly halfway between two doubles
    low = quotient.view(np.uint32)[:: quotient.itemsize // 4]
    exact &= (mantissa < np.iinfo(np.uint64).max) & ((low & 0x7FF) != 0x400)
    rest = np.flatnonzero(~exact)
    lines = map(body.__getitem__, map(slice, starts[rest].tolist(), ends[rest].tolist()))
    try:
        values[rest] = np.fromiter(map(float, lines), float, count=rest.size)
    except ValueError:
        return None
    return values


def _parse_body(path: str, body: list[str]) -> np.ndarray:
    """Parse the lines after the header one at a time.

    Blank lines are skipped, the first non-blank line fixes one value or a
    ``t,mv`` pair per line, and the first malformed or non-finite value
    raises `CsvFormatError` with its line number.
    """
    values: list[float] = []
    times: list[float] = []
    has_time: bool | None = None
    for lineno, raw in enumerate(body, start=2):
        text = raw.strip()
        if not text:
            continue
        parts = text.split(",")
        if has_time is None:
            has_time = len(parts) == 2
        if len(parts) != (2 if has_time else 1):
            raise CsvFormatError(f"{path}: line {lineno}: expected "
                                 f"{'t,mv pair' if has_time else 'one value'}, got {text!r}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric value {text!r}") from None
        if not all(map(math.isfinite, row)):
            raise CsvFormatError(f"{path}: line {lineno}: non-finite value {text!r}")
        if has_time:
            times.append(row[0])
        values.append(row[-1])

    if has_time and len(times) >= 2:
        t = np.asarray(times)
        dt = np.diff(t)
        mean_dt = (t[-1] - t[0]) / (t.size - 1)
        if mean_dt <= 0 or np.max(np.abs(dt - mean_dt)) > 1e-6 * mean_dt:
            raise CsvFormatError(f"{path}: time column is not uniformly spaced")
    return np.asarray(values, dtype=float)


def save_csv(record: EcgRecord, path) -> None:
    """Write a record in the single-column CSV format: ``fs=<repr(fs)>``,
    then ``repr`` of each sample on its own line. It round-trips exactly.

    The text is what ``repr`` writes, byte for byte; most values are
    formatted without it (`_repr_rows`, and the module docstring).
    """
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(f"fs={record.fs!r}\n" + _repr_rows(record.samples[:, None]))


def _repr_rows(matrix: np.ndarray) -> str:
    """Each row of a float64 matrix as its values' ``repr`` joined by ``,``,
    each row ended by ``\\n``; the same text as the per-value ``repr`` join.

    Works through blocks of at most `_BLOCK` values (whole rows, or one
    row if a row is longer), so its temporaries stay small.
    """
    values = np.ascontiguousarray(matrix, dtype=np.float64)
    rows, cols = values.shape
    per = max(1, _BLOCK // cols)
    sep = np.tile(np.r_[np.full(cols - 1, ord(",")), ord("\n")].astype(np.uint8), per)
    blocks = (values[r : r + per].ravel() for r in range(0, rows, per))
    return b"".join(_repr_block(b, sep[: b.size]) for b in blocks).decode("ascii")


def _repr_block(x: np.ndarray, sep: np.ndarray) -> bytes:
    """``repr`` of each value followed by its separator byte.

    A value's row of `_ROW` bytes holds 100 times its digits as text, the
    integer part masked from its first digit (one ``0`` when it has none),
    the fraction shifted one byte right, the point and sign between, and
    every other byte zero; dropping the zero bytes joins the rows. A value
    `_shortest_digits` cannot settle gets ``repr``'s text in its row.
    """
    bits = x.view(np.int64)
    ax = np.abs(x)
    slow = ~((ax >= 1e-4) & (ax < 2.0**53) & ((bits & _MANTISSA) != 0))
    fast = np.flatnonzero(~slow)
    k = np.ones(x.size, np.intp)
    digits = np.zeros(x.size, np.int64)
    e10 = np.zeros(x.size, np.intp)
    k[fast], digits[fast], e10[fast], slow[fast] = _shortest_digits(ax[fast])
    slow = np.flatnonzero(slow)
    k[slow], digits[slow], e10[slow] = 1, 0, 0  # "0.0" until repr's text replaces it

    groups = np.empty((5, x.size), np.intp)  # the 4-digit groups of 100 * digits
    rest = digits // 100
    groups[4] = (digits - rest * 100) * 100
    for j in (3, 2, 1):
        quot = rest // 10000
        groups[j] = rest - quot * 10000
        rest = quot
    groups[0] = rest
    text = np.empty((x.size, _ROW // 4), np.uint32)
    text[:, :-5] = _DIGITS4[0]
    text[:, -5:] = _DIGITS4[groups.T]
    text = text.view(np.uint8)
    shifted = np.empty_like(text)
    shifted.reshape(-1)[1:] = text.reshape(-1)[:-1]
    first = _ROW - 3 - k - np.maximum(e10, 0)  # the integer part's first byte
    layout = (k * _ROW + first) * 2 + (bits < 0)
    text &= np.take(_INTEGER, layout, axis=0)
    shifted &= np.take(_FRACTION, k, axis=0)
    text |= shifted
    text |= np.take(_MARKS, layout, axis=0)
    text[:, -1] = sep
    if slow.size:
        reprs = np.array([repr(v) for v in x[slow].tolist()], f"S{_ROW - 1}")
        text[slow, :-1] = reprs.view(np.uint8).reshape(slow.size, _ROW - 1)
    return text[text != 0].tobytes()


def _shortest_digits(ax: np.ndarray):
    """``repr``'s digits of positive doubles in [1e-4, 2**53) that are not
    powers of two.

    Returns, per value: its fraction digits k (at least 1), the digits as
    one integer (the decimal is digits / 10**k), its decimal exponent
    floor(log10(value)), and whether the answer is in doubt, so that
    ``repr`` must give the text. See the module docstring for the method.
    """
    e10 = np.floor(np.log10(ax)).astype(np.intp)  # may be one off near a power of ten
    k = np.maximum(16 - e10, 1)  # 17 significant digits
    # E = ax * 10**k exactly, as hi + lo (Dekker's product of split halves)
    hi = ax * _POW10_F64[k]
    t = ax * _SPLIT
    ax_hi = t - (t - ax)
    ax_lo = ax - ax_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((ax_hi * p_hi - hi) + ax_hi * p_lo + ax_lo * p_hi) + ax_lo * p_lo
    # n = floor(E) and d = E - n in [0, 1), to within 2**-46
    whole = np.floor(hi)
    r = (hi - whole) + lo
    r_whole = np.floor(r)
    n = whole.astype(np.int64) + r_whole.astype(np.int64)
    d = r - r_whole
    e10 = 16 - k + (n >= 10**17)  # exact where E >= 1e16
    half_ulp = (ax.view(np.int64) & _EXPONENT).view(np.float64) * 2.0**-53 * _POW10_F64[k]
    err = 2.0**-40  # above the error of n + d and of the sums below
    doubt = n < 10**16  # e10 one too high: 16 digits, which may not read back

    # Drop trailing digits of n while the nearest multiple of 10**m to E is
    # surely within half an ulp; rows still open shrink into `work`, whose
    # last array counts the digits each row dropped.
    drop = np.zeros(ax.size, np.intp)
    work = np.arange(ax.size), n, d, half_ulp - err, half_ulp + err, k, drop.copy()
    open_ = ~doubt & (k > 1)
    for m in range(1, 18):
        if np.count_nonzero(open_) * 4 < open_.size:
            drop[work[0]] = work[-1]
            keep = np.flatnonzero(open_)
            work = [a[keep] for a in work]
            open_ = open_[keep]
        rows, wn, wd, surely_in, surely_out, wk, wdrop = work
        step = 10**m
        u = wn - wn // step * step
        dist = np.minimum(u + wd, (step - u) - wd)
        inside = dist < surely_in
        doubt[rows[open_ & ~inside & (dist <= surely_out)]] = True
        inside &= open_
        wdrop += inside
        open_ = inside & (wk > m + 1)
        if not open_.any():
            break
    drop[work[0]] = work[-1]

    step = _POW10_INT[drop]
    quot = n // step
    u = n - quot * step
    below, above = u + d, (step - u) - d  # E's distances to the multiples either side
    doubt |= np.abs(above - below) <= 2 * err  # the two equally near
    return k - drop, quot + (above < below), e10, doubt


def slice_seconds(record: EcgRecord, start_s: float, duration_s: float | None = None) -> EcgRecord:
    """Cut a time window out of a record (used to split train/test segments).

    The start must be finite and >= 0 and a duration finite and > 0. Both
    are capped at the record's length before they become sample counts, so
    a huge finite value cannot overflow the conversion.
    """
    if not 0 <= start_s < math.inf:
        raise ValueError(f"slice start must be finite and >= 0 s, got {start_s}")
    if duration_s is not None and not 0 < duration_s < math.inf:
        raise ValueError(f"slice duration must be finite and > 0 s, got {duration_s}")
    length_s = record.duration_s
    i0 = int(round(min(start_s, length_s) * record.fs))
    i1 = (record.samples.size if duration_s is None
          else i0 + int(round(min(duration_s, length_s) * record.fs)))
    i1 = min(i1, record.samples.size)
    if i0 > i1 - 2:
        raise ValueError(f"slice [{start_s}s, ...) leaves fewer than 2 samples")
    return EcgRecord(record.subject_id, record.fs, record.samples[i0:i1])


def _bump_sum(u: np.ndarray, waves: dict[str, Wave]) -> np.ndarray:
    """Sum of per-wave Gaussians at beat phase u, wrapped across beat edges."""
    out = np.zeros_like(u)
    for name in WAVE_NAMES:
        w = waves[name]
        for shift in (-1.0, 0.0, 1.0):
            d = u - w.phase + shift
            out += w.amplitude * np.exp(-(d * d) / (2.0 * w.width * w.width))
    return out


def synth_ecg(profile: SubjectProfile, duration_s: float, fs: float) -> tuple[EcgRecord, np.ndarray]:
    """Generate a synthetic ECG record plus its ground-truth R-peak indices.

    Each beat is a sum of five Gaussian bumps positioned by beat phase; RR
    intervals are jittered via clipped standard normals drawn from the
    profile seed, so identical seeds give identical output.
    """
    rr_mean = 60.0 / profile.heart_rate_bpm
    if not 2.0 * rr_mean <= duration_s < math.inf:
        raise ValueError(f"duration must be finite and at least 2 beats at "
                         f"{profile.heart_rate_bpm} bpm, got {duration_s}s")
    if not 100.0 <= fs < math.inf:
        raise ValueError(f"fs must be finite and >= 100 Hz, got {fs}")

    rng = np.random.default_rng(profile.seed)
    # enough beats to cover the window even at maximal negative jitter
    min_factor = max(0.05, 1.0 - 3.0 * profile.rr_jitter)
    max_beats = int(math.ceil(duration_s / (rr_mean * min_factor))) + 2
    g = np.clip(rng.standard_normal(max_beats), -3.0, 3.0)
    rr = rr_mean * (1.0 + profile.rr_jitter * g)
    rr = np.maximum(rr, 0.05 * rr_mean)  # keep intervals positive at extreme jitter
    starts = np.concatenate([[0.0], np.cumsum(rr)])

    n = int(round(duration_s * fs))
    times = np.arange(n) / fs
    beat = np.searchsorted(starts, times, side="right") - 1
    u = (times - starts[beat]) / rr[beat]
    samples = _bump_sum(u, profile.waves)
    samples += rng.normal(0.0, profile.noise_sd, size=n) if profile.noise_sd > 0 else 0.0

    n_beats = int(np.searchsorted(starts, duration_s, side="left"))
    r_phase = profile.waves["R"].phase
    r_times = starts[:n_beats] + r_phase * rr[:n_beats]
    peaks = np.rint(r_times * fs).astype(int)
    peaks = peaks[(peaks >= 0) & (peaks < n)]
    record = EcgRecord(subject_id=f"synth-{profile.seed}", fs=fs, samples=samples)
    return record, peaks


def beat_template(profile: SubjectProfile, frame_len: int = DEFAULT_FRAME_LEN) -> np.ndarray:
    """Noise-free expected frame (R-peak anchored) for a profile.

    Useful as a ground-truth reference curve in tests and for checking
    morphological separation between subjects.
    """
    if frame_len < 2:
        raise ValueError("frame_len must be >= 2")
    r_phase = profile.waves["R"].phase
    u = (r_phase + np.arange(frame_len) / (frame_len - 1)) % 1.0
    return _bump_sum(u, profile.waves)


def _moving_median(x: np.ndarray, win: int) -> np.ndarray:
    """Centered moving median; windows shrink at the edges. Needs
    ``3 <= win <= x.size``, as `preprocess` checks.

    The record is replaced by its ranks 1..n under numpy's default argsort,
    in the smallest unsigned type that holds n + 1, and padded at both ends
    with sentinel ranks: 0 (low) and n + 1 (high). The p-th pad entry out
    from either end of the record is low when ``win - p`` is odd, so a
    window of c real samples holds ``k - c // 2`` low sentinels, k =
    ``win // 2``. Every window then holds ``win`` entries with its middle
    sample at sorted index k and, for an even c, the other middle one at
    k - 1. Those two order statistics come from two levels of shared
    sorting (after Suomela, arXiv:1406.1717, 2014):

    - The windows fall into groups of g. The g windows of a group share a
      core of ``win - g + 1`` entries, sorted once per group; each window
      adds ``g - 1`` of the ``2g - 2`` entries beside the core, its
      fringe. The t-th smallest of a sorted core and m other entries lies
      in ``core[t - m : t + 1]`` or among the others: at least t + 1
      entries are at or below ``core[t]``, and at most t below
      ``core[t - m]``. So one band ``core[k - g : k + 1]`` serves every
      window of the group, whose entries k - 1 and k are the ``g - 1``-th
      and g-th smallest of band and fringe.
    - Windows 2r and 2r + 1 of a group share all of their fringe but one
      entry f each: the entry before the pair's span and the one after
      it. Band and shared fringe (``2g - 1`` entries) are sorted once per
      pair into c, and adding f gives the two order statistics as
      ``max(c[g - 2], min(f, c[g - 1]))`` and ``max(c[g - 1], min(f,
      c[g]))``. Each pair's entries are one window of a per-group row that
      puts the band between the fringe on either side of it.

    g is even and about sqrt(win) (at win = 3 it is 1, and the band is
    already the two entries), so the sorts hold O(n * win / g + n * g)
    entries, where a sorted row per window held n * win. Each rank maps
    back to its value; an even count gives ``(a + b) / 2.0``.

    The argsort need not be stable (a stable one is ~5x slower here): tied
    values may take their ranks in any order, but the ranks still sort as
    the values do, so a window's k-th smallest rank always maps to its k-th
    smallest value. On finite input every value therefore equals
    ``np.median`` of the same window. Only the sign of a zero median can
    differ: the argsort may order ``-0.0`` and ``+0.0`` other than
    ``np.sort`` does, and the two compare equal.
    """
    n = x.size
    k = win // 2
    g = min(2 * round(math.sqrt(win) / 2), k)  # even from win = 4 on
    groups = -(-n // g)  # the windows past the record's end are dropped
    order = np.argsort(x)
    rank_type = np.min_scalar_type(n + 1)
    ranks = np.full(groups * g + win - 1, n + 1, dtype=rank_type)
    ranks[k + order] = np.arange(1, n + 1, dtype=rank_type)
    p = np.arange(1, k + 1)
    p = p[(win - p) % 2 == 1]  # the pad entries that are low sentinels
    ranks[k - p] = 0
    ranks[k + n - 1 + p[p < win - k]] = 0

    view = np.lib.stride_tricks.sliding_window_view
    # a C-order copy sorts its rows faster than np.sort sorts the strided view
    core = view(ranks, win - g + 1)[g - 1 :: g].copy()
    core.sort(axis=1)
    band = core[:, k - g : k + 1]
    if g == 1:
        lower, upper = band.T
    else:
        # pair r of group q: ranks[qg + 2r + 1 : qg + g - 1], the band and
        # ranks[qg + win : qg + win + 2r]
        rows = np.concatenate([view(ranks[1:], g - 2)[: groups * g : g], band,
                               view(ranks[win:], g - 2)[::g]], axis=1)
        c = view(rows, 2 * g - 1, axis=1)[:, ::2].copy().reshape(-1, 2 * g - 1)
        c.sort(axis=1)
        own = np.stack([ranks[0 : groups * g : 2], ranks[win : win + groups * g : 2]])
        lower = np.empty((c.shape[0], 2), rank_type)
        upper = np.empty_like(lower)
        np.maximum(c[:, g - 2], np.minimum(own, c[:, g - 1]), out=lower.T)
        np.maximum(c[:, g - 1], np.minimum(own, c[:, g]), out=upper.T)
        lower, upper = lower.ravel(), upper.ravel()

    values = np.zeros(n + 2)
    values[1:-1] = x[order]
    a, b = values[lower[:n]], values[upper[:n]]
    # window i holds win samples, win - k + i near the start, n - i + k near the end
    even = np.full(n, win % 2 == 0)
    even[:k] = np.arange(win - k, win) % 2 == 0
    even[n - (win - 1 - k) :] = np.arange(win - 1, k, -1) % 2 == 0
    return np.where(even, (a + b) / 2.0, b)


def preprocess(record: EcgRecord) -> EcgRecord:
    """Remove baseline wander: subtract a moving median of ``BASELINE_WINDOW_S``.

    Keeps length, fs and the mV scale; the only conditioning step applied
    before peak detection and framing. The median of each centred window
    (shrinking at the record's edges, padded with alternating low and high
    sentinels so that its middle sits at a fixed sorted index) is read from
    sorts of the record's ranks shared by groups and pairs of windows; the
    ranks order exactly as the samples do, so it equals ``np.median`` of
    that window up to the sign of a zero median. Working memory is
    O(n * g + n * win / g) ranks with g ~ sqrt(win): ~41 MB at most for a
    10-minute record at 360 Hz, where a sorted row per window took ~201 MB
    (see `_moving_median`).
    """
    win = int(round(BASELINE_WINDOW_S * record.fs))
    if win < 3:
        raise ValueError(f"baseline window of {win} samples is too short (need >= 3)")
    if win > record.samples.size:
        raise ValueError(f"baseline window of {win} samples exceeds record "
                         f"length {record.samples.size}")
    detrended = record.samples - _moving_median(record.samples, win)
    return EcgRecord(record.subject_id, record.fs, detrended)


def random_profile(seed) -> SubjectProfile:
    """Draw a plausible subject morphology from a seed.

    Wave positions/widths/amplitudes vary inside physiological-looking
    ranges, so different seeds give distinct beat shapes.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(_PROFILE_RANGES[:, 0], _PROFILE_RANGES[:, 1]).tolist()
    waves = {name: Wave(*values[3 * k: 3 * k + 3]) for k, name in enumerate(WAVE_NAMES)}
    heart_rate_bpm, rr_jitter, noise_sd = values[15:]
    return SubjectProfile(heart_rate_bpm=heart_rate_bpm, rr_jitter=rr_jitter, waves=waves,
                          noise_sd=noise_sd, seed=int(rng.integers(2**31)))


def cohort_profiles(count: int, seed: int, min_separation_mse: float = 0.010,
                    frame_len: int = DEFAULT_FRAME_LEN) -> list[SubjectProfile]:
    """Draw `count` profiles whose noise-free templates are pairwise separated
    by at least `min_separation_mse` (mean squared difference, mV^2).

    Separation uses the same statistic the authentication decision scores
    with, so cohorts stay distinguishable at desk scale. A candidate is
    checked against every accepted template at once; each row's mean runs
    along its contiguous axis, as the mean of one difference would, so
    every MSE is the same double.
    """
    if count < 1:
        raise ValueError(f"cohort size must be >= 1, got {count}")
    if math.isnan(min_separation_mse):
        raise ValueError("separation must be a number, got NaN")
    if frame_len < 2:
        raise ValueError(f"frame_len must be >= 2, got {frame_len}")
    master = np.random.default_rng(seed)
    profiles: list[SubjectProfile] = []
    templates = np.empty((count, frame_len))
    attempts = 0
    while len(profiles) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError(f"could not draw {count} profiles separated by "
                               f"{min_separation_mse} mV^2; lower the separation")
        candidate = random_profile(int(master.integers(2**31)))
        template = beat_template(candidate, frame_len)
        accepted = templates[: len(profiles)]
        if np.all(np.mean((accepted - template) ** 2, axis=1) >= min_separation_mse):
            templates[len(profiles)] = template
            profiles.append(candidate)
    return profiles


def profile_to_dict(profile: SubjectProfile) -> dict:
    return {
        "heart_rate_bpm": profile.heart_rate_bpm,
        "rr_jitter": profile.rr_jitter,
        "noise_sd": profile.noise_sd,
        "seed": profile.seed,
        "waves": {
            name: {"phase": w.phase, "width": w.width, "amplitude": w.amplitude}
            for name, w in sorted(profile.waves.items())
        },
    }
