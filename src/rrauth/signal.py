"""ECG acquisition and conditioning.

CSV import/export, a seeded synthetic generator for desk-scale experiments,
and moving-median baseline removal. Amplitudes are millivolts throughout;
sampling frequencies are Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WAVE_NAMES = ("P", "Q", "R", "S", "T")

__all__ = [
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
    "profile_from_dict",
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
        if not self.fs > 0:
            raise ValueError(f"fs must be > 0, got {self.fs}")
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
    uniform spacing, never used to re-derive fs.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip().startswith("fs="):
        raise CsvFormatError(f"{path}: line 1: expected 'fs=<Hz>' header")
    header = lines[0].strip()
    try:
        fs = float(header[3:])
    except ValueError:
        raise CsvFormatError(f"{path}: line 1: invalid fs value {header[3:]!r}") from None
    if not fs > 0:
        raise CsvFormatError(f"{path}: line 1: fs must be > 0, got {fs}")

    values: list[float] = []
    times: list[float] = []
    has_time: bool | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
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
            if has_time:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            else:
                values.append(float(parts[0]))
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric value {text!r}") from None

    if len(values) < 2:
        raise CsvFormatError(f"{path}: fewer than 2 samples")
    if has_time:
        t = np.asarray(times)
        dt = np.diff(t)
        mean_dt = (t[-1] - t[0]) / (t.size - 1)
        if mean_dt <= 0 or np.max(np.abs(dt - mean_dt)) > 1e-6 * mean_dt:
            raise CsvFormatError(f"{path}: time column is not uniformly spaced")
    if subject_id is None:
        stem = path.rsplit("/", 1)[-1]
        subject_id = stem[:-4] if stem.endswith(".csv") else stem
    return EcgRecord(subject_id=subject_id, fs=fs, samples=np.asarray(values))


def save_csv(record: EcgRecord, path) -> None:
    """Write a record in the single-column CSV format; round-trips exactly."""
    lines = [f"fs={record.fs!r}"]
    lines.extend(repr(v) for v in record.samples.tolist())
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def slice_seconds(record: EcgRecord, start_s: float, duration_s: float | None = None) -> EcgRecord:
    """Cut a time window out of a record (used to split train/test segments)."""
    i0 = int(round(start_s * record.fs))
    i1 = record.samples.size if duration_s is None else i0 + int(round(duration_s * record.fs))
    i1 = min(i1, record.samples.size)
    if not 0 <= i0 <= i1 - 2:
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
    if duration_s < 2.0 * rr_mean:
        raise ValueError(f"duration {duration_s}s is shorter than 2 beats at "
                         f"{profile.heart_rate_bpm} bpm")
    if fs < 100.0:
        raise ValueError(f"fs must be >= 100 Hz, got {fs}")

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


def beat_template(profile: SubjectProfile, frame_len: int = 220) -> np.ndarray:
    """Noise-free expected frame (R-peak anchored) for a profile.

    Useful as a ground-truth reference curve in tests and for checking
    morphological separation between subjects.
    """
    if frame_len < 2:
        raise ValueError("frame_len must be >= 2")
    r_phase = profile.waves["R"].phase
    u = (r_phase + np.arange(frame_len) / (frame_len - 1)) % 1.0
    return _bump_sum(u, profile.waves)


def _sorted_middle(rows: np.ndarray) -> np.ndarray:
    """Median along the last axis of rows that are already sorted.

    The middle element, or ``(a + b) / 2.0`` of the two middle ones for an
    even count: on finite input this is the value ``np.median`` returns,
    bit for bit.
    """
    k = rows.shape[-1]
    h = k // 2
    if k % 2:
        return rows[..., h]
    return (rows[..., h - 1] + rows[..., h]) / 2.0


def _moving_median(x: np.ndarray, win: int) -> np.ndarray:
    """Centered moving median; windows shrink at the edges.

    Each window is sorted (the full ones as rows of one sliding-window view)
    and its middle taken, which is several times faster than ``np.median``
    over the same view and gives identical values.
    """
    n = x.size
    half = win // 2
    med = np.empty(n)
    view = np.lib.stride_tricks.sliding_window_view(x, win)
    med[half : half + n - win + 1] = _sorted_middle(np.sort(view, axis=1))
    for i in range(half):
        med[i] = _sorted_middle(np.sort(x[: i - half + win]))
    for i in range(half + n - win + 1, n):
        med[i] = _sorted_middle(np.sort(x[i - half :]))
    return med


def preprocess(record: EcgRecord, baseline_window_s: float = 0.6) -> EcgRecord:
    """Remove baseline wander by subtracting a moving median.

    Keeps length, fs and the mV scale; the only conditioning step applied
    before peak detection and framing.
    """
    win = int(round(baseline_window_s * record.fs))
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
                    frame_len: int = 220) -> list[SubjectProfile]:
    """Draw `count` profiles whose noise-free templates are pairwise separated
    by at least `min_separation_mse` (mean squared difference, mV^2).

    Separation uses the same statistic the authentication decision scores
    with, so cohorts stay distinguishable at desk scale.
    """
    if count < 1:
        raise ValueError(f"cohort size must be >= 1, got {count}")
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


def profile_from_dict(doc: dict) -> SubjectProfile:
    waves = {name: Wave(**spec) for name, spec in doc["waves"].items()}
    return SubjectProfile(
        heart_rate_bpm=doc["heart_rate_bpm"],
        rr_jitter=doc["rr_jitter"],
        waves=waves,
        noise_sd=doc["noise_sd"],
        seed=doc["seed"],
    )
