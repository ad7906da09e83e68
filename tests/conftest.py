import bisect
import math

import numpy as np
import pytest

from rrauth.authcore import ReferenceDb, enroll
from rrauth.beat import REFRACTORY_S, THRESH_FRAC, _rolling_max
from rrauth.learners import DtLeaf
from rrauth.signal import (CsvFormatError, EcgRecord, SubjectProfile, Wave, _parse_body,
                           cohort_profiles, random_profile, slice_seconds, synth_ecg)

FS = 360.0
COHORT_SEED = 42
EPOCH = "1970-01-01T00:00:00+00:00"

# A version-1 DB, the retired tree-per-entity layout: each entity stored a
# regression tree under "model" instead of its curve.
V1_DOC = {
    "format": "rrauth-reference-db", "version": "1", "frame_len": 220,
    "entities": {"e01": {
        "enrolled_at": EPOCH,
        "model": {"root": {"mean": 0.0, "count": 220}, "n_features": 1,
                  "min_leaf_size": 4, "max_depth": 32, "y_min": 0.0, "y_max": 0.0},
        "stats": {"mses": [0.0, 0.0], "mean": 0.0, "std": 0.0, "ucl": 0.0},
    }},
}


def quiet_profile(seed: int = 0, heart_rate_bpm: float = 60.0,
                  rr_jitter: float = 0.0, noise_sd: float = 0.0) -> SubjectProfile:
    """Narrow, well-separated waves; handy when exact alignment matters."""
    waves = {
        "P": Wave(phase=0.14, width=0.030, amplitude=0.15),
        "Q": Wave(phase=0.31, width=0.010, amplitude=-0.12),
        "R": Wave(phase=0.35, width=0.018, amplitude=1.0),
        "S": Wave(phase=0.40, width=0.012, amplitude=-0.25),
        "T": Wave(phase=0.65, width=0.060, amplitude=0.30),
    }
    return SubjectProfile(heart_rate_bpm=heart_rate_bpm, rr_jitter=rr_jitter,
                          waves=waves, noise_sd=noise_sd, seed=seed)


def brute_force_best_split(X, y, min_leaf):
    """Independent exhaustive search: every feature, every unique midpoint.

    Returns (score, feature, threshold) of the first strictly lowest
    summed child SSE, or None when no cut is legal.
    """
    n = y.size
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            yl, yr = y[mask], y[~mask]
            score = float(np.sum((yl - yl.mean()) ** 2)
                          + np.sum((yr - yr.mean()) ** 2))
            if best is None or score < best[0]:
                best = (score, f, thr)
    return best


def strongest_first(strength, candidates, refractory) -> list[int]:
    """The plain refractory rule, one candidate at a time: strongest first,
    lowest index on ties, each kept unless a kept one is closer than
    `refractory`. Returns the kept candidates in index order."""
    order = np.lexsort((candidates, -strength[candidates]))
    kept: list[int] = []
    for c in candidates[order].tolist():
        pos = bisect.bisect_left(kept, c)
        if pos > 0 and c - kept[pos - 1] < refractory:
            continue
        if pos < len(kept) and kept[pos] - c < refractory:
            continue
        kept.insert(pos, c)
    return kept


def reference_moving_median(x, win):
    """The moving median as one sorted row per window: ranks under the same
    default argsort, padded at both ends with the rank ``x.size`` (above
    every sample), one row sort of every sliding window, and the middle
    rank, or the two middle ones for an even count, read at each window's
    real sample count. Same ranks, so same medians, as bytes."""
    n = x.size
    half = win // 2
    order = np.argsort(x)
    rank_type = np.min_scalar_type(n)
    ranks = np.full(n + win - 1, n, dtype=rank_type)
    ranks[half + order] = np.arange(n, dtype=rank_type)
    rows = np.lib.stride_tricks.sliding_window_view(ranks, win).copy()
    rows.sort(axis=1)
    starts = np.arange(n) - half
    count = np.minimum(starts + win, n) - np.maximum(starts, 0)
    values = x[order]
    med = values[rows[np.arange(n), count // 2]]
    even = np.flatnonzero(count % 2 == 0)
    med[even] = (values[rows[even, count[even] // 2 - 1]] + med[even]) / 2.0
    return med


def reference_detect_rpeaks(record) -> np.ndarray:
    """The detector with its window counts convolved, suppression by the
    plain rule and each event refined alone: the box-sum divisor is
    ``np.convolve`` of ones with the kernel, `strongest_first` picks the
    events, and every kept event takes the first ``argmax`` of the record
    clipped to +/-(ma_win // 2 + 50 ms) around it. Returns the peak
    indices."""
    x, fs = record.samples, record.fs
    n = x.size
    ma_win = int(round(0.150 * fs))
    diff = np.diff(x)
    energy = diff * diff
    kernel = np.ones(ma_win)
    smooth = np.convolve(energy, kernel, mode="same")
    smooth /= np.convolve(np.ones(energy.size), kernel, mode="same")
    ceiling = _rolling_max(smooth, int(round(2.0 * fs)))
    candidates = np.nonzero(smooth > THRESH_FRAC * ceiling)[0]
    if candidates.size == 0:
        return np.empty(0, dtype=int)
    refractory = REFRACTORY_S * fs
    w = ma_win // 2 + int(round(0.050 * fs))
    refined = []
    for c in strongest_first(smooth, candidates, refractory):
        lo = max(0, c - w)
        hi = min(n, c + w + 1)
        refined.append(lo + int(np.argmax(x[lo:hi])))
    final: list[int] = []
    for p in sorted(set(refined)):
        if final and p - final[-1] < refractory:
            if x[p] > x[final[-1]]:
                final[-1] = p
        else:
            final.append(p)
    return np.asarray(final, dtype=int)


def reference_load_csv(path) -> EcgRecord:
    """The plain reading of an ECG CSV that `load_csv` must match: the UTF-8
    text split by ``str.splitlines``, ``float`` on each line after the
    header, and the line-by-line parser for a body that ``float`` rejects
    or that holds a non-finite value. Raises `CsvFormatError` with
    `load_csv`'s message."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not lines or not lines[0].strip().startswith("fs="):
        raise CsvFormatError(f"{path}: line 1: expected 'fs=<Hz>' header")
    header = lines[0].strip()
    try:
        fs = float(header[3:])
    except ValueError:
        raise CsvFormatError(f"{path}: line 1: invalid fs value {header[3:]!r}") from None
    if not 0 < fs < math.inf:
        raise CsvFormatError(f"{path}: line 1: fs must be finite and > 0, got {fs}")
    body = lines[1:]
    try:
        samples = np.array([float(line) for line in body], dtype=float)
    except ValueError:
        samples = None
    if samples is None or not np.all(np.isfinite(samples)):
        samples = _parse_body(path, body)
    if samples.size < 2:
        raise CsvFormatError(f"{path}: fewer than 2 samples")
    return EcgRecord("reference", fs, samples)


def reference_random_profile(seed) -> SubjectProfile:
    """`random_profile` as one scalar ``rng.uniform`` per value, in the
    table's order: phase, width and amplitude of P, Q, R, S and T, then heart
    rate, RR jitter and noise, then the record seed."""
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


def reference_bump_sum(u, waves):
    """The generator's formula with exp evaluated at every argument: each
    wave's (phase, width, amplitude) and shift in order."""
    out = np.zeros_like(u)
    for phase, width, amplitude in waves:
        for shift in (-1.0, 0.0, 1.0):
            d = u - phase + shift
            out += amplitude * np.exp(-(d * d) / (2.0 * width * width))
    return out


def reference_beat_template(profile, frame_len):
    """One profile's template from `reference_bump_sum` on its own phase grid."""
    u = (profile.waves["R"].phase + np.arange(frame_len) / (frame_len - 1)) % 1.0
    waves = [(w.phase, w.width, w.amplitude) for w in map(profile.waves.get, "PQRST")]
    return reference_bump_sum(u, waves)


def reference_cohort_profiles(count, seed, min_separation_mse=0.010, frame_len=220):
    """`cohort_profiles` one candidate at a time: a candidate, its template
    from `reference_beat_template`, is kept when its MSE against each kept
    template, one at a time, is at least the separation. Returns the kept
    (draw index, profile, template) triples."""
    master = np.random.default_rng(seed)
    kept = []
    for attempt in range(200 * count):
        candidate = random_profile(int(master.integers(2**31)))
        template = reference_beat_template(candidate, frame_len)
        if all(float(np.mean((template - t) ** 2)) >= min_separation_mse for _, _, t in kept):
            kept.append((attempt, candidate, template))
            if len(kept) == count:
                return kept
    raise RuntimeError(f"could not draw {count} profiles separated by "
                       f"{min_separation_mse} mV^2; lower the separation")


def count_leaves(model) -> int:
    """Leaves of a tree: an upper bound on its distinct predictions."""
    def walk(node) -> int:
        if isinstance(node, DtLeaf):
            return 1
        return walk(node.left) + walk(node.right)

    return walk(model.root)


def gaussian_kernel(a, b, scale: float) -> float:
    """k(a, b) = exp(-||a - b||^2 / (2 scale^2)), one pair at a time."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    d = a - b
    return float(np.exp(-np.dot(d, d) / (2.0 * scale * scale)))


def kernel_predict(model, x) -> float:
    """The kernel expansion f(x) at one point, summed over every training row."""
    x = np.asarray(x, dtype=float).ravel()
    d = model.X - x
    k = np.exp(-np.sum(d * d, axis=1) / (2.0 * model.kernel_scale ** 2))
    return float(model.coef @ k + model.b)


# The histogram pipeline that `infotheory.mutual_information` replaced, kept
# as its oracle: histograms as (counts, n) pairs, the marginal entropy, the
# conditional entropy and the direct double-sum form.

def oracle_bin_edges(values, bins):
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return np.array([lo - 0.5, lo + 0.5])
    return np.linspace(lo, hi, bins + 1)


def oracle_histogram(values, bins=16):
    values = np.asarray(values, dtype=float)
    counts, _ = np.histogram(values, bins=oracle_bin_edges(values, bins))
    return counts, int(values.size)


def oracle_joint_histogram(xs, ys, bins_x=16, bins_y=16):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    counts, _, _ = np.histogram2d(xs, ys, bins=[oracle_bin_edges(xs, bins_x),
                                                oracle_bin_edges(ys, bins_y)])
    return counts, int(xs.size)


def oracle_entropy(hist):
    """H(x) = -sum p log2 p, with 0 log 0 = 0."""
    counts, n = hist
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log2(p))) + 0.0  # normalize -0.0


def oracle_conditional_entropy(joint):
    """E[H(x|Y)] = sum_y p(y) H(x | Y=y)."""
    counts, n = joint
    total = 0.0
    for col in counts.T:
        ny = float(col.sum())
        if ny == 0:
            continue
        p = col[col > 0] / ny
        total += (ny / n) * float(-np.sum(p * np.log2(p)))
    return total


def oracle_mi_from_joint(joint):
    """Direct double-sum form: sum p(x,y) log2[p(x,y) / (p(x) p(y))]."""
    counts, n = joint
    pxy = counts / n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    ratio = pxy[mask] / (px @ py)[mask]
    return float(np.sum(pxy[mask] * np.log2(ratio)))


def oracle_mutual_information(xs, ys, bins_x=16, bins_y=16):
    """H(y) - E[H(y|X)] over the joint, clamped at zero from below."""
    counts, n = oracle_joint_histogram(xs, ys, bins_x, bins_y)
    return max(0.0, oracle_entropy((counts.sum(axis=0), n))
               - oracle_conditional_entropy((counts.T, n)))


@pytest.fixture(scope="session")
def small_cohort():
    """3 enrolled + 1 unknown, 65 s each: enough for auth and trial tests."""
    profiles = cohort_profiles(4, seed=COHORT_SEED)
    records = []
    for k, prof in enumerate(profiles):
        sid = f"e{k + 1:02d}" if k < 3 else "u01"
        rec, _ = synth_ecg(prof, 65.0, FS)
        records.append((sid, k < 3, EcgRecord(sid, rec.fs, rec.samples)))
    return records


@pytest.fixture(scope="session")
def small_db(small_cohort):
    db = ReferenceDb(frame_len=220)
    for sid, enrolled, rec in small_cohort:
        if enrolled:
            enroll(db, sid, rec, enrolled_at=EPOCH)
    return db


@pytest.fixture(scope="session")
def small_pool(small_cohort):
    """Probe slices disjoint from the 50 s training windows."""
    return [(slice_seconds(rec, 50.0), sid if enrolled else None)
            for sid, enrolled, rec in small_cohort]
