"""ECG acquisition and conditioning.

CSV import/export, a seeded synthetic generator for desk-scale experiments,
and moving-median baseline removal. Amplitudes are millivolts throughout;
sampling frequencies are Hz.

A random profile draws its 18 values in one call over `_PROFILE_RANGES`, one
table of (lo, hi) ranges in draw order: the bits of one scalar draw per row.

The generator sums, at each sample's beat phase u, one Gaussian per wave and
shift, ``amplitude * exp(-(d * d) / (2 * width * width))`` with
d = u - phase + shift. It calls exp only where the argument is not below
-746 and leaves +0.0 elsewhere. e**-746 is below 2**-1075, half the smallest
subnormal, so exp rounds to exactly +0.0 there on every correct path; a NaN
argument is not below -746 and still reaches exp. About 40 % of a record's
arguments lie below -746, and numpy 2.4's AVX-512 exp spends ~15 ns on
each of them against ~2 ns on an ordinary one; arguments whose exp is
subnormal are still computed. Every operation is elementwise, so a
sample's double depends only on its own phase and its profile's
parameters: the templates of a batch of candidates, built on one
(batch, frame_len) grid with each profile's parameters broadcast along its
row, are the doubles one call per profile gives.

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
digits read as one integer and k its fraction digits. For m < 2**62 and
k <= 22 it is scaled in float64 on every host (after Clinger, PLDI 1990):
10**k is exact, and so is m - mh, mh = float(m). q = mh / 10**k is correctly
rounded, so the remainder mh - q * 10**k is a double (Boldo & Daumas, ARITH
2003), found exactly as (mh - P) - E from Dekker's product P + E = q * 10**k
(the writer's, below). v = q + (remainder + m - mh) / 10**k, and (q - v)
plus that correction is m / 10**k - v to within 2**-50 of an ulp. v is what
``float`` returns unless that distance comes within 2**-40 of half an ulp
(of the narrower side at a power of two); such a line goes through
``float``, as do those with m >= 2**62 or k > 22 and those not of the plain
form (an exponent, a space). The sign comes from the text, so ``-0.0``
stays negative. The body is scanned in place after line 1, in blocks of
whole lines (`_READ_BLOCK`), so the reader holds the file's bytes, the
samples and one block's temporaries: ~1.2 MB at its peak for a 65 s record
at 360 Hz (478 kB).

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
of two (the interval below them is half as wide). Reader and writer use
float64 arithmetic only, so every platform takes the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WAVE_NAMES = ("P", "Q", "R", "S", "T")
BASELINE_WINDOW_S = 0.6  # moving-median window of the baseline removal
_MEDIAN_BLOCK = 8192  # windows per block of the moving median: its sorts stay small
DEFAULT_FRAME_LEN = 220  # samples per RR frame
# the most float64 values one array can hold: a larger count of points is
# refused up front. It guards the np.linspace grids of `evalx.auto_grid`,
# the CLI's --grid and `infotheory`'s bin edges, which fail on a count near
# 2**63 with an IndexError, and the framing grid's np.arange, which returns
# an empty array for one
MAX_POINTS = np.iinfo(np.intp).max // 8
_EXP_ZERO_BELOW = -746.0  # e**-746 < 2**-1075, so exp is exactly +0.0 below it
_TEMPLATE_BATCH = 64  # most candidate templates `cohort_profiles` builds per `_bump_sum` call

# (lo, hi) of each value a random profile draws, in draw order
_PROFILE_RANGES = np.array([
    (0.10, 0.18), (0.025, 0.045), (0.05, 0.25),  # P phase, width, amplitude
    (0.28, 0.315), (0.008, 0.016), (-0.30, -0.05),  # Q
    (0.34, 0.36), (0.012, 0.022), (1.0, 1.6),  # R
    (0.385, 0.43), (0.010, 0.020), (-0.45, -0.10),  # S
    (0.55, 0.72), (0.045, 0.09), (0.10, 0.50),  # T
    (55.0, 95.0), (0.02, 0.08), (0.008, 0.020),  # heart rate (bpm), RR jitter, noise sd
])

# CSV reading and writing in float64 (see the module docstring).
_MAX_EXACT_K = 22  # the largest k with 10**k exact in float64
_POW10_F64 = np.cumprod(np.r_[1.0, np.full(_MAX_EXACT_K, 10.0)])
_NOT_DIGIT_OR_LF = bytes(c for c in range(256) if c not in b"0123456789\n")
_READ_BLOCK = 1 << 17  # body bytes per block of the reader: its temporaries stay small
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
    "MAX_POINTS",
    "CsvFormatError",
    "EcgRecord",
    "Wave",
    "SubjectProfile",
    "load_csv",
    "save_csv",
    "slice_seconds",
    "synth_ecg",
    "preprocess",
    "random_profile",
    "cohort_profiles",
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
    per line is read from the bytes, with CRLF and CR read as LF, on one
    path on every host: each value bit-equal to ``float`` on its line, most
    scaled in float64 (see the module docstring). Any other body (blank
    lines, ``t,mv`` pairs, a bad or non-finite value, another line break
    inside line 1) goes through the line-by-line parser, which accepts the
    same values and names the line of the first error.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():  # ASCII is UTF-8; other bytes are decoded to be checked
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text "
                                 f"({exc.reason} at byte {exc.start})") from None
    if b"\r" in data:  # each CRLF or lone CR becomes one LF: the same str.splitlines lines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    cut = data.find(b"\n")  # the end of line 1; the body is read in place after it
    if cut < 0:
        cut = len(data)
    first = data[:cut].decode("utf-8").splitlines()  # more than line 1 if it holds a break
    header = first[0].strip() if first else ""
    if not header.startswith("fs="):
        raise CsvFormatError(f"{path}: line 1: expected 'fs=<Hz>' header")
    try:
        fs = float(header[3:])
    except ValueError:
        raise CsvFormatError(f"{path}: line 1: invalid fs value {header[3:]!r}") from None
    if not 0 < fs < math.inf:
        raise CsvFormatError(f"{path}: line 1: fs must be finite and > 0, got {fs}")

    samples = _parse_decimal_lines(data, cut + 1) if len(first) == 1 else None
    if samples is None or not np.all(np.isfinite(samples)):
        samples = _parse_body(path, data.decode("utf-8").splitlines()[1:])
    if samples.size < 2:
        raise CsvFormatError(f"{path}: fewer than 2 samples")
    if subject_id is None:
        stem = path.rsplit("/", 1)[-1]
        subject_id = stem[:-4] if stem.endswith(".csv") else stem
    return EcgRecord(subject_id=subject_id, fs=fs, samples=samples)


def _parse_decimal_lines(data: bytes, start: int) -> np.ndarray | None:
    """The value of each LF-ended line of ``data[start:]`` (a last line
    without LF included), bit-equal to ``float`` on the line; None when the
    body is empty or `_parse_decimal_block` refuses a block of it.

    Blocks of whole lines of about `_READ_BLOCK` bytes keep the temporaries
    small whatever the file's size; a line's value depends only on its own
    bytes, so the blocks, joined, give the values of one pass over the body.
    """
    blocks = []
    view = memoryview(data)
    while start < len(data):
        end = data.find(b"\n", start + _READ_BLOCK - 1) + 1 or len(data)
        block = _parse_decimal_block(view[start:end])
        if block is None:
            return None
        blocks.append(block)
        start = end
    return np.concatenate(blocks) if len(blocks) > 1 else next(iter(blocks), None)


def _parse_decimal_block(body: memoryview) -> np.ndarray | None:
    """The value of each LF-ended line of one block, bit-equal to ``float``
    on the line; None when a line has no digit or ``float`` rejects a line.

    A line break other than LF stays inside its line: a line that ``float``
    accepts has it only around its number, where ``str.splitlines`` would
    make a blank line of it, which the line-by-line parser skips, so both
    readings give the same values. One scan finds every byte but a digit. A
    line is plain when those are at most a leading ``-`` and a ``.`` that
    follows every other one. The digits of each line, the only bytes kept,
    give its mantissa as one uint64 (strtoull saturates at 2**64 - 1); any
    other line, or one `_scale` leaves in doubt, goes through ``float``.
    """
    if body[-1:] != b"\n":
        body = bytes(body) + b"\n"
    a = np.frombuffer(body, np.uint8)
    odd = np.flatnonzero(a - np.uint8(48) > 9)  # every byte but a digit
    kind = a[odd]
    lf = np.flatnonzero(kind == 10)  # the line ends, as indices into odd
    ends = np.r_[-1, odd[lf]]  # -1, then each line's LF
    starts = ends[:-1] + 1
    n_odd = np.diff(lf, prepend=-1) - 1  # each line's non-digits, its LF aside
    if np.any(n_odd == ends[1:] - starts):
        return None  # a line without a digit: float() rejects it
    last = lf - 1  # each line's last non-digit, where n_odd > 0
    has_dot = (n_odd > 0) & (kind[last] == 46)
    k = np.where(has_dot, ends[1:] - odd[last] - 1, 0)
    negative = a[starts] == 45
    plain = n_odd - has_dot - negative == 0
    del a, odd, kind, lf, n_odd, last, has_dot, starts  # the scan's arrays, before the scaling's
    mantissa = np.fromstring(bytes(body).translate(None, _NOT_DIGIT_OR_LF), np.uint64, sep="\n")
    values, doubt = _scale(mantissa, k)
    np.negative(values, out=values, where=negative)
    rest = np.flatnonzero(doubt | ~plain)
    lines = map(body.__getitem__, map(slice, (ends[rest] + 1).tolist(), ends[rest + 1].tolist()))
    try:
        values[rest] = np.fromiter(map(float, lines), float, count=rest.size)
    except ValueError:
        return None
    return values


def _scale(m: np.ndarray, k: np.ndarray):
    """m / 10**k for uint64 m and int k >= 0, overwriting both, and whether each
    value may not be the correctly rounded one (see the module docstring)."""
    doubt = (m >= 2**62) | (k > _MAX_EXACT_K)
    m = np.minimum(m, 2**62, out=m).view(np.int64)  # m - float(m) is then an exact int64
    p = _POW10_F64[np.minimum(k, _MAX_EXACT_K, out=k)]
    mh = m.astype(np.float64)
    q = mh / p
    r, lo = _times_pow10(q, k)
    np.subtract(mh, r, out=r)  # exact (Sterbenz): the product is within a factor 2 of mh
    r -= lo  # exact: mh - q * 10**k, the remainder of a correctly rounded quotient
    r += m - mh.astype(np.int64)  # m - mh, an exact int64
    r /= p
    values = np.add(q, r, out=mh)
    q -= values  # exact (Sterbenz): values is within two ulps of q
    q += r  # m / 10**k - values, to within 2**-50 of an ulp
    # half an ulp of the double below values (+inf at zero), less 2**-40 of it
    bound = ((values.view(np.int64) - 1) & _EXPONENT).view(np.float64)
    bound *= 2.0**-53 - 2.0**-93
    return values, doubt | (np.abs(q, out=q) > bound)


def _times_pow10(x: np.ndarray, k: np.ndarray):
    """x * 10**k as hi + lo exactly, hi the rounded product (Dekker's product
    of Veltkamp's split halves; 10**k is exact up to k = 22)."""
    hi = x * _POW10_F64[k]
    x_hi = x * _SPLIT
    x_hi -= x_hi - x
    x_lo = x - x_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = x_hi * p_hi - hi
    for a, b in ((x_hi, p_lo), (x_lo, p_hi), (x_lo, p_lo)):  # in this order, each sum exact
        lo += a * b
    return hi, lo


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
    hi, lo = _times_pow10(ax, k)
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


def _wave_table(profile: SubjectProfile) -> np.ndarray:
    """The (phase, width, amplitude) of each wave of a profile, a (5, 3) array
    in WAVE_NAMES order."""
    return np.array([[w.phase, w.width, w.amplitude] for w in map(profile.waves.get, WAVE_NAMES)])


def _bump_sum(u: np.ndarray, waves: np.ndarray) -> np.ndarray:
    """Sum of per-wave Gaussians at beat phase u, wrapped across beat edges.

    ``waves[k]`` is the (phase, width, amplitude) of wave k of WAVE_NAMES,
    each of which broadcasts against u: a (5, 3) table for one profile's
    phases, or a (5, 3, batch, 1) stack of tables for a (batch, frame_len)
    grid, one profile a row. Each sample is the double that
    ``amplitude * exp(-(d * d) / (2 * width * width))``, summed over waves and
    shifts in order, gives; exp is skipped only where its argument is below
    `_EXP_ZERO_BELOW`, where it is exactly +0.0 (see the module docstring).
    Temporaries stay full-length: gathering the kept arguments and scattering
    their exp back gives the same doubles but allocates arrays of a
    different size on every term.
    """
    out = np.zeros_like(u)
    d = np.empty_like(u)
    e = np.empty_like(u)
    keep = np.empty(u.shape, dtype=bool)
    for phase, width, amplitude in waves:
        denominator = 2.0 * width * width
        for shift in (-1.0, 0.0, 1.0):
            np.subtract(u, phase, out=d)
            d += shift
            np.multiply(d, d, out=d)
            np.negative(d, out=d)
            d /= denominator
            np.less(d, _EXP_ZERO_BELOW, out=keep)
            np.logical_not(keep, out=keep)  # a NaN argument still reaches exp
            e.fill(0.0)
            np.exp(d, out=e, where=keep)
            e *= amplitude
            out += e
    return out


def _beat_templates(profiles: list[SubjectProfile], frame_len: int) -> np.ndarray:
    """The noise-free, R-anchored frame of each profile, one row each, built
    in one `_bump_sum` call on a (len(profiles), frame_len >= 2) phase grid."""
    waves = np.stack([_wave_table(p) for p in profiles], axis=-1)[..., None]
    r_phase = waves[WAVE_NAMES.index("R"), 0]
    u = (r_phase + np.arange(frame_len) / (frame_len - 1)) % 1.0
    return _bump_sum(u, waves)


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

    # enough beats to cover the window even at maximal negative jitter
    min_factor = max(0.05, 1.0 - 3.0 * profile.rr_jitter)
    beats, samples = duration_s / (rr_mean * min_factor), duration_s * fs
    if not (beats < math.inf and samples < math.inf):
        raise ValueError(f"{duration_s}s at {fs} Hz gives a non-finite sample or beat count")

    rng = np.random.default_rng(profile.seed)
    max_beats = int(math.ceil(beats)) + 2
    g = np.clip(rng.standard_normal(max_beats), -3.0, 3.0)
    rr = rr_mean * (1.0 + profile.rr_jitter * g)
    rr = np.maximum(rr, 0.05 * rr_mean)  # keep intervals positive at extreme jitter
    starts = np.concatenate([[0.0], np.cumsum(rr)])

    n = int(round(samples))
    times = np.arange(n) / fs
    beat = np.searchsorted(starts, times, side="right") - 1
    u = (times - starts[beat]) / rr[beat]
    samples = _bump_sum(u, _wave_table(profile))
    samples += rng.normal(0.0, profile.noise_sd, size=n) if profile.noise_sd > 0 else 0.0

    n_beats = int(np.searchsorted(starts, duration_s, side="left"))
    r_phase = profile.waves["R"].phase
    r_times = starts[:n_beats] + r_phase * rr[:n_beats]
    peaks = np.rint(r_times * fs).astype(int)
    peaks = peaks[(peaks >= 0) & (peaks < n)]
    record = EcgRecord(subject_id=f"synth-{profile.seed}", fs=fs, samples=samples)
    return record, peaks


def _strided(x: np.ndarray, start: int, shape: tuple[int, ...],
             steps: tuple[int, ...]) -> np.ndarray:
    """A read-only view of the C-contiguous array x, read as flat: entry
    (i, j, ...) is ``x.flat[start + i * steps[0] + j * steps[1] + ...]``.

    The ``np.ndarray`` constructor builds it on x's buffer without the
    argument handling of ``as_strided`` or ``sliding_window_view`` (0.4 µs
    against 4.7 and 13.7 µs a call, numpy 2.4 on a Xeon), and refuses a view
    that reaches past the buffer's end.
    """
    view = np.ndarray(shape, x.dtype, x, start * x.itemsize,
                      tuple(s * x.itemsize for s in steps))
    view.flags.writeable = False
    return view


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

    Each set of windows is one read-only `_strided` view, built directly:
    the cores and both fringes step g ranks from one group to the next, the
    pairs' windows step 2 entries along each per-group row, and the pairs'
    own entries f step 2 ranks, the entries after each span lying win ranks
    past those before it. The per-group rows are one preallocated array
    that the fringes and the band are written into.

    g is even and about sqrt(win) (at win = 3 it is 1, and the band is
    already the two entries), so the sorts hold O(n * win / g + n * g)
    entries, where a sorted row per window held n * win. They are done in
    blocks of whole groups, about `_MEDIAN_BLOCK` windows each, so only one
    block's entries are held at a time; every group is sorted on its own,
    so the blocks give the order statistics one pass gives. Each rank maps
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
    p = 1 + win % 2  # the pad entries p, p + 2, ... out from the record are low
    ranks[(k - p) % 2 : k : 2] = 0
    ranks[k + n - 1 + p : n + win - 1 : 2] = 0

    lower = np.empty(groups * g, rank_type)
    upper = np.empty_like(lower)
    step = max(1, _MEDIAN_BLOCK // g)  # groups a block
    for q0 in range(0, groups, step):
        q1 = min(q0 + step, groups)
        m = q1 - q0
        # group q's core is ranks[qg + g - 1 : qg + win]; a C-order copy
        # sorts its rows faster than np.sort sorts the strided view
        core = _strided(ranks, q0 * g + g - 1, (m, win - g + 1), (g, 1)).copy()
        core.sort(axis=1)
        band = core[:, k - g : k + 1]
        if g == 1:
            lower[q0:q1], upper[q0:q1] = band.T
            continue
        # pair r of group q: ranks[qg + 2r + 1 : qg + g - 1], the band and
        # ranks[qg + win : qg + win + 2r]
        rows = np.empty((m, 3 * g - 3), rank_type)
        rows[:, : g - 2] = _strided(ranks, q0 * g + 1, (m, g - 2), (g, 1))
        rows[:, g - 2 : 2 * g - 1] = band
        rows[:, 2 * g - 1 :] = _strided(ranks, q0 * g + win, (m, g - 2), (g, 1))
        c = _strided(rows, 0, (m, g // 2, 2 * g - 1), (3 * g - 3, 2, 1)).copy()
        c = c.reshape(-1, 2 * g - 1)
        c.sort(axis=1)
        # each pair's own entries: row 0 the one before its span, row 1 the one after
        own = _strided(ranks, q0 * g, (2, m * g // 2), (win, 2))
        pairs = slice(q0 * g // 2, q1 * g // 2)  # this block's rows of the (pair, 2) views
        np.maximum(c[:, g - 2], np.minimum(own, c[:, g - 1]), out=lower.reshape(-1, 2)[pairs].T)
        np.maximum(c[:, g - 1], np.minimum(own, c[:, g]), out=upper.reshape(-1, 2)[pairs].T)

    values = np.zeros(n + 2)
    np.take(x, order, out=values[1:-1])
    a, b = values[lower[:n]], values[upper[:n]]
    # window i holds win samples, win - k + i near the start, n - i + k near the end
    end = n - (win - 1 - k)
    even = np.full(n, win % 2 == 0)
    even[:k] = even[end:] = False
    even[(win - k) % 2 : k : 2] = True
    even[end + (win - 1) % 2 :: 2] = True
    a += b
    a /= 2.0
    np.copyto(b, a, where=even)
    return b


def preprocess(record: EcgRecord) -> EcgRecord:
    """Remove baseline wander: subtract a moving median of ``BASELINE_WINDOW_S``.

    Keeps length, fs and the mV scale; the only conditioning step applied
    before peak detection and framing. The median of each centred window
    (shrinking at the record's edges, padded with alternating low and high
    sentinels so that its middle sits at a fixed sorted index) is read from
    sorts of the record's ranks shared by groups and pairs of windows; the
    ranks order exactly as the samples do, so it equals ``np.median`` of
    that window up to the sign of a zero median. Working memory is a few
    arrays of n values plus the sorts of one block of `_MEDIAN_BLOCK`
    windows: ~10 MB at most for a 10-minute record at 360 Hz (see
    `_moving_median`).
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


def cohort_profiles(count: int, seed: int,
                    min_separation_mse: float = 0.010) -> list[SubjectProfile]:
    """Draw `count` profiles whose noise-free templates are pairwise separated
    by at least `min_separation_mse` (mean squared difference, mV^2).

    Separation uses the same statistic the authentication decision scores
    with, so cohorts stay distinguishable at desk scale. Candidates are drawn
    and their templates built in batches of up to `_TEMPLATE_BATCH`, one
    `_bump_sum` call each, then checked one at a time in draw order, so the
    profiles, the attempt count and the error are those of drawing one
    candidate at a time. A candidate is checked against every accepted
    template at once; each row's mean runs along its contiguous axis, as the
    mean of one difference would, so every MSE is the same double.
    """
    if count < 1:
        raise ValueError(f"cohort size must be >= 1, got {count}")
    if math.isnan(min_separation_mse):
        raise ValueError("separation must be a number, got NaN")
    master = np.random.default_rng(seed)
    profiles: list[SubjectProfile] = []
    templates = np.empty((count, DEFAULT_FRAME_LEN))  # up front: a count too large fails here
    max_attempts = 200 * count
    attempts = 0
    while len(profiles) < count:
        if attempts == max_attempts:
            raise RuntimeError(f"could not draw {count} profiles separated by "
                               f"{min_separation_mse} mV^2; lower the separation")
        # the missing count, or as many as were drawn so far if more: a cohort
        # that keeps every candidate draws no extra one, and a final batch at
        # most doubles the draws
        size = min(_TEMPLATE_BATCH, max(count - len(profiles), attempts), max_attempts - attempts)
        batch = [random_profile(int(master.integers(2**31))) for _ in range(size)]
        for candidate, template in zip(batch, _beat_templates(batch, DEFAULT_FRAME_LEN)):
            attempts += 1
            accepted = templates[: len(profiles)]
            if np.all(np.mean((accepted - template) ** 2, axis=1) >= min_separation_mse):
                templates[len(profiles)] = template
                profiles.append(candidate)
                if len(profiles) == count:
                    break
    return profiles

