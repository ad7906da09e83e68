import numpy as np
import pytest

from rrauth.authcore import ReferenceDb, enroll
from rrauth.learners import DtLeaf
from rrauth.signal import (EcgRecord, SubjectProfile, Wave, cohort_profiles,
                           slice_seconds, synth_ecg)

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
