"""ECG acquisition and conditioning.

CSV import/export, a seeded synthetic generator for desk-scale experiments,
and moving-median baseline removal. Amplitudes are millivolts throughout;
sampling frequencies are Hz.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WAVE_NAMES = ("P", "Q", "R", "S", "T")
BASELINE_WINDOW_S = 0.6  # moving-median window of the baseline removal
DEFAULT_FRAME_LEN = 220  # samples per RR frame

# Exact decimal scaling of plain CSV lines (see the module docstring).
_LONGDOUBLE_64 = np.finfo(np.longdouble).nmant == 63  # x87 extended precision
_MAX_EXACT_K = 27  # the largest k with 10**k exact in a 64-bit significand
_POW10 = np.cumprod(np.r_[1, np.full(_MAX_EXACT_K, 10)].astype(np.longdouble))
_NOT_DIGIT_OR_LF = bytes(c for c in range(256) if c not in b"0123456789\n")

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
            if self.waves[name].width <= 0:
                raise ValueError(f"{name} wave width must be > 0")
            if not 0.0 <= self.waves[name].phase < 1.0:
                raise ValueError(f"{name} wave phase must be in [0, 1)")
        if self.waves["R"].amplitude <= 0:
            raise ValueError("R wave amplitude must be > 0")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")


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
    """Write a record in the single-column CSV format; round-trips exactly."""
    lines = [f"fs={record.fs!r}"]
    lines.extend(repr(v) for v in record.samples.tolist())
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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

    def u(lo: float, hi: float) -> float:
        return float(rng.uniform(lo, hi))

    waves = {
        "P": Wave(phase=u(0.10, 0.18), width=u(0.025, 0.045), amplitude=u(0.05, 0.25)),
        "Q": Wave(phase=u(0.28, 0.315), width=u(0.008, 0.016), amplitude=u(-0.30, -0.05)),
        "R": Wave(phase=u(0.34, 0.36), width=u(0.012, 0.022), amplitude=u(1.0, 1.6)),
        "S": Wave(phase=u(0.385, 0.43), width=u(0.010, 0.020), amplitude=u(-0.45, -0.10)),
        "T": Wave(phase=u(0.55, 0.72), width=u(0.045, 0.09), amplitude=u(0.10, 0.50)),
    }
    return SubjectProfile(
        heart_rate_bpm=u(55.0, 95.0),
        rr_jitter=u(0.02, 0.08),
        waves=waves,
        noise_sd=u(0.008, 0.020),
        seed=int(rng.integers(2**31)),
    )


def cohort_profiles(count: int, seed: int, min_separation_mse: float = 0.010,
                    frame_len: int = DEFAULT_FRAME_LEN) -> list[SubjectProfile]:
    """Draw `count` profiles whose noise-free templates are pairwise separated
    by at least `min_separation_mse` (mean squared difference, mV^2).

    Separation uses the same statistic the authentication decision scores
    with, so cohorts stay distinguishable at desk scale.
    """
    if count < 1:
        raise ValueError(f"cohort size must be >= 1, got {count}")
    if math.isnan(min_separation_mse):
        raise ValueError("separation must be a number, got NaN")
    master = np.random.default_rng(seed)
    profiles: list[SubjectProfile] = []
    templates: list[np.ndarray] = []
    attempts = 0
    while len(profiles) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError(f"could not draw {count} profiles separated by "
                               f"{min_separation_mse} mV^2; lower the separation")
        candidate = random_profile(int(master.integers(2**31)))
        template = beat_template(candidate, frame_len)
        if all(float(np.mean((template - t) ** 2)) >= min_separation_mse
               for t in templates):
            profiles.append(candidate)
            templates.append(template)
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
