"""Enrollment, quality gating and the known/unknown authentication decision.

Each enrolled entity gets a reference curve (the per-position frame mean)
plus per-frame training MSE statistics; the mean+3-sigma upper control limit
of those MSEs drives both quality gating and unknown rejection. Enrolment,
scoring and the CLI's frame analyses all cut their frames through
`extract_frames`, so they share one order and one set of detector and
baseline parameters (the `beat` detector constants and the `preprocess`
default).

The reference database persists as compact JSON (sorted keys, full-precision
numbers, one line; indented files also load). Format version 2 stores what
scoring reads: per entity the reference curve (its values at positions
0..frame_len-1), the quality stats and the enrolment time, with one
`frame_len` in the header. It is the only version read: a version-1 file,
which stored each entity's regression tree instead of its curve, is refused,
and its entities are re-enrolled from their records.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field

import numpy as np

from rrauth.beat import DEFAULT_FRAME_LEN, FrameSet, detect_rpeaks, frame_rr
# Unused here; benchmarks/spans.py patches `authcore.predict_curve` and `.train_dt`.
from rrauth.learners import predict_curve, train_dt  # noqa: F401
from rrauth.signal import EcgRecord, preprocess

DB_VERSION = "2"
DB_FORMAT = "rrauth-reference-db"

DEFAULT_TRAIN_WINDOW_S = 50.0
DEFAULT_TEST_WINDOW_S = 15.0
DEFAULT_APR_MIN = 0.5
DEFAULT_ID_MARGIN = 1.0

REJECTED = "rejected"
KNOWN = "known"
UNKNOWN = "unknown"

__all__ = [
    "DbFormatError",
    "QualityStats",
    "ReferenceEntry",
    "ReferenceDb",
    "AuthDecision",
    "FrameScores",
    "compute_ucl",
    "extract_frames",
    "enroll",
    "score_frames",
    "decide",
    "authenticate",
    "save_db",
    "load_db",
    "db_to_json",
    "REJECTED",
    "KNOWN",
    "UNKNOWN",
]


class DbFormatError(ValueError):
    """Reference database file is missing, corrupted, or wrong version."""


def compute_ucl(mses) -> float:
    """Upper control limit: mean + 3 sample standard deviations (n-1)."""
    return QualityStats.from_mses(mses).ucl


@dataclass(frozen=True, eq=False)
class QualityStats:
    """Per-frame training MSEs with their mean, spread and control limit (mV^2)."""

    mses: np.ndarray
    mean: float
    std: float
    ucl: float

    @classmethod
    def from_mses(cls, mses) -> "QualityStats":
        mses = np.array(mses, dtype=float)  # a copy, made read-only
        if mses.size < 2:
            raise ValueError(f"need >= 2 MSE values, got {mses.size}")
        if np.any(mses < 0):
            raise ValueError("MSE values must be >= 0")
        mses.flags.writeable = False
        mean, std = float(mses.mean()), float(mses.std(ddof=1))
        return cls(mses=mses, mean=mean, std=std, ucl=mean + 3.0 * std)


@dataclass(frozen=True, eq=False)
class ReferenceEntry:
    """One enrolled entity: reference curve, quality stats, metadata.

    `curve` holds the reference predictions at positions 0..frame_len-1.
    """

    entity_id: str
    curve: np.ndarray
    stats: QualityStats
    enrolled_at: str

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ValueError("entity_id must be non-empty")

    @property
    def frame_len(self) -> int:
        return self.curve.size


@dataclass(eq=False)
class ReferenceDb:
    """Enrollment database; all entries share one frame length."""

    frame_len: int = DEFAULT_FRAME_LEN
    entries: dict[str, ReferenceEntry] = field(default_factory=dict)

    def entity_ids(self) -> list[str]:
        return sorted(self.entries)

    def median_ucl(self) -> float:
        """Median of the enrolled training UCLs: the default quality gate."""
        if not self.entries:
            raise ValueError("reference database is empty")
        return float(np.median([e.stats.ucl for e in self.entries.values()]))


def extract_frames(record: EcgRecord, window_s: float, frame_len: int) -> FrameSet:
    """The one frame-extraction path: keep the first `window_s` seconds,
    remove the baseline, detect R-peaks and cut RR frames of `frame_len`.

    Truncating before the baseline removal means a frame depends only on the
    samples inside the window. Neither `preprocess` nor the detector has
    parameters, so every caller uses the same ones.
    """
    if not 0 < window_s < math.inf:
        raise ValueError(f"window_s must be finite and > 0, got {window_s}")
    # capped at the record's length, so a huge window cannot overflow the count
    n_keep = min(record.samples.size, int(round(min(window_s, record.duration_s) * record.fs)))
    clean = preprocess(EcgRecord(record.subject_id, record.fs, record.samples[:n_keep]))
    return frame_rr(clean, detect_rpeaks(clean), frame_len)


def enroll(db: ReferenceDb, entity_id: str, record: EcgRecord, *,
           train_window_s: float = DEFAULT_TRAIN_WINDOW_S,
           allow_short: bool = False,
           enrolled_at: str | None = None) -> ReferenceEntry:
    """Store one entity's reference curve and quality stats.

    The curve is the per-position mean of the `extract_frames` frames over
    the training window; every training frame is then scored against it.
    It is what the paper's fine regression tree (minimum leaf 4) on the
    (position, amplitude) pairs predicts: with >= 4 frames the tree splits
    to one position per leaf, whose `y.mean()` sums that position's values
    in frame order, as the contiguous transpose does here, bit for bit. The
    tree pooled positions only where its caps bound: 2-3 frames, or its
    depth limit of 32 on a few long frames.
    """
    if entity_id in db.entries:
        raise ValueError(f"entity {entity_id!r} is already enrolled")
    if record.duration_s < train_window_s and not allow_short:
        raise ValueError(f"record of {record.duration_s:.1f}s is shorter than the "
                         f"{train_window_s}s training window (allow_short=True to override)")
    frames = extract_frames(record, train_window_s, db.frame_len)
    if len(frames) < 2:
        raise ValueError(f"found {len(frames)} RR frames in {entity_id!r}; need >= 2")

    curve = np.ascontiguousarray(frames.values.T).mean(axis=1)
    mses = np.mean((frames.values - curve) ** 2, axis=1)
    stats = QualityStats.from_mses(mses)
    if enrolled_at is None:
        enrolled_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    entry = ReferenceEntry(entity_id=entity_id, curve=curve, stats=stats,
                           enrolled_at=enrolled_at)
    db.entries[entity_id] = entry
    return entry


@dataclass(frozen=True, eq=False)
class FrameScores:
    """Per-frame, per-entity MSE table for one probe record."""

    entity_ids: tuple[str, ...]
    mse: np.ndarray  # shape (n_frames, n_entities)


def score_frames(db: ReferenceDb, record: EcgRecord, *,
                 test_window_s: float = DEFAULT_TEST_WINDOW_S) -> FrameScores:
    """Frame a probe record and score every frame against every entity.

    One broadcast (n_frames, n_entities, frame_len) difference; each
    frame-entity row is reduced along its contiguous last axis, exactly as
    a per-entity ``np.mean(..., axis=1)`` reduces it, so the table is the
    same bytes.
    """
    if not db.entries:
        raise ValueError("reference database is empty")
    frames = extract_frames(record, test_window_s, db.frame_len).values
    if frames.shape[0] == 0:
        raise ValueError("probe record produced no frames")
    ids = tuple(db.entity_ids())
    curves = np.stack([db.entries[e].curve for e in ids])
    mse = ((frames[:, None, :] - curves[None, :, :]) ** 2).mean(axis=2)
    return FrameScores(entity_ids=ids, mse=mse)


@dataclass(frozen=True, eq=False)
class AuthDecision:
    """Outcome of one authentication attempt.

    kind is one of REJECTED (quality gate failed), KNOWN (entity_id/score
    set) or UNKNOWN (score holds the best-but-insufficient match). `scores`
    maps every enrolled entity to its mean MSE over quality-passing frames;
    it is empty for rejected attempts.
    """

    kind: str
    apr: float
    entity_id: str | None = None
    score: float | None = None
    scores: dict[str, float] = field(default_factory=dict)


def decide(db: ReferenceDb, scored: FrameScores, gate_ucl: float, *,
           apr_min: float = DEFAULT_APR_MIN,
           id_margin: float = DEFAULT_ID_MARGIN) -> AuthDecision:
    """Apply the quality gate and identify, given precomputed frame scores.

    A frame passes quality iff its best (minimum) MSE over entities is
    within gate_ucl; the accepted-frame fraction is the APR. The best-scoring
    entity wins identification only if its score stays within id_margin
    times its own training UCL, otherwise the probe is declared unknown.

    All entity scores come from one call: the passing rows are transposed
    into a contiguous (entity, frame) array and averaged along each row.
    A contiguous row is summed by the same pairwise reduction as the strided
    column it came from, so each score equals that column's `mean()` exactly.
    A NaN threshold, which no comparison satisfies, or an empty table is a ValueError.
    """
    if math.isnan(gate_ucl) or math.isnan(apr_min) or math.isnan(id_margin):
        raise ValueError(f"NaN threshold: gate_ucl={gate_ucl} apr_min={apr_min} "
                         f"id_margin={id_margin}")
    n_frames = scored.mse.shape[0]
    if n_frames == 0:
        raise ValueError("no frames to decide on")
    passing = scored.mse.min(axis=1) <= gate_ucl
    apr = float(passing.sum() / n_frames)
    if apr < apr_min or not passing.any():
        return AuthDecision(kind=REJECTED, apr=apr)
    means = np.ascontiguousarray(scored.mse[passing].T).mean(axis=1)
    scores = dict(zip(scored.entity_ids, means.tolist()))
    best_id = min(scores, key=lambda e: (scores[e], e))
    best = scores[best_id]
    if best <= id_margin * db.entries[best_id].stats.ucl:
        return AuthDecision(kind=KNOWN, apr=apr, entity_id=best_id,
                            score=best, scores=scores)
    return AuthDecision(kind=UNKNOWN, apr=apr, score=best, scores=scores)


def authenticate(db: ReferenceDb, record: EcgRecord, gate_ucl: float, *,
                 test_window_s: float = DEFAULT_TEST_WINDOW_S,
                 apr_min: float = DEFAULT_APR_MIN,
                 id_margin: float = DEFAULT_ID_MARGIN) -> AuthDecision:
    """Full authentication of a probe record against the database."""
    scored = score_frames(db, record, test_window_s=test_window_s)
    return decide(db, scored, gate_ucl, apr_min=apr_min, id_margin=id_margin)


# ---------------------------------------------------------------------------
# persistence


def db_to_json(db: ReferenceDb) -> str:
    """Canonical version-2 JSON (sorted keys, full float precision).

    Written without indentation, so CPython's C encoder does the work; the
    text is one line plus a trailing newline.
    """
    doc = {
        "format": DB_FORMAT,
        "version": DB_VERSION,
        "frame_len": db.frame_len,
        "entities": {
            e.entity_id: {
                "curve": e.curve.tolist(),
                "enrolled_at": e.enrolled_at,
                "stats": {
                    "mses": e.stats.mses.tolist(),
                    "mean": e.stats.mean,
                    "std": e.stats.std,
                    "ucl": e.stats.ucl,
                },
            }
            for e in db.entries.values()
        },
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def save_db(db: ReferenceDb, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(db_to_json(db))


def _finite_array(value, what: str) -> np.ndarray:
    """A flat JSON list of finite numbers as a read-only float array."""
    arr = np.asarray(value)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise DbFormatError(f"{what} must be a flat list of finite numbers")
    arr = arr.astype(float)
    arr.flags.writeable = False
    return arr


def _stat(value, what: str) -> float:
    """A finite, non-negative JSON number (every stored statistic is one)."""
    if type(value) not in (int, float) or not 0.0 <= value < math.inf:
        raise DbFormatError(f"{what} must be a finite number >= 0, got {value!r}")
    return float(value)


def _entry_from_doc(entity_id: str, e: dict, frame_len: int) -> ReferenceEntry:
    what = f"entity {entity_id!r}"
    curve = _finite_array(e["curve"], f"{what} curve")
    if curve.shape != (frame_len,):
        raise DbFormatError(f"{what} curve has {curve.size} values; "
                            f"frame_len is {frame_len}")
    s = e["stats"]
    mses = _finite_array(s["mses"], f"{what} mses")
    if mses.size < 2 or np.any(mses < 0):
        raise DbFormatError(f"{what} needs >= 2 stored MSE values, all >= 0")
    stats = QualityStats(mses=mses, mean=_stat(s["mean"], f"{what} mean"),
                         std=_stat(s["std"], f"{what} std"),
                         ucl=_stat(s["ucl"], f"{what} ucl"))
    if not isinstance(e["enrolled_at"], str):
        raise DbFormatError(f"{what} enrolled_at must be a string")
    return ReferenceEntry(entity_id=entity_id, curve=curve, stats=stats,
                          enrolled_at=e["enrolled_at"])


def load_db(path) -> ReferenceDb:
    """Read a version-2 database; any defect is a DbFormatError.

    Any other version, version 1 included, is refused: re-enrol from the
    records.
    """
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DbFormatError(f"no database at {path}") from None
    except json.JSONDecodeError as exc:
        raise DbFormatError(f"{path}: not valid JSON ({exc})") from None
    try:
        if doc.get("format") != DB_FORMAT:
            raise DbFormatError("not a reference database file")
        version = doc["version"]
        if version != DB_VERSION:
            raise DbFormatError(f"version {version!r} unsupported "
                                f"(expected {DB_VERSION!r}); re-enrol from the records")
        frame_len = doc["frame_len"]
        if type(frame_len) is not int or frame_len < 2:
            raise DbFormatError(f"frame_len must be an integer >= 2, got {frame_len!r}")
        db = ReferenceDb(frame_len=frame_len)
        for entity_id, e in doc["entities"].items():
            db.entries[entity_id] = _entry_from_doc(entity_id, e, frame_len)
    except DbFormatError as exc:
        raise DbFormatError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise DbFormatError(f"{path}: corrupted database structure ({exc!r})") from None
    return db
