"""Enrollment, quality gating and the known/unknown authentication decision.

Each enrolled entity gets a position->amplitude regression reference plus
per-frame training MSE statistics; the mean+3-sigma upper control limit of
those MSEs drives both quality gating and unknown rejection. The reference
database persists as versioned, compact JSON (sorted keys, full-precision
numbers, one line); files written in the older indented layout still load.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field

import numpy as np

from rrauth.beat import DEFAULT_FRAME_LEN, RrFrame, detect_rpeaks, frame_rr
from rrauth.learners import (DtLeaf, DtModel, DtParams, DtSplit, predict_curve,
                             train_dt)
from rrauth.signal import EcgRecord, preprocess

DB_VERSION = "1"
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
    "frame_mse",
    "compute_ucl",
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
    mses = np.asarray(mses, dtype=float)
    if mses.size < 2:
        raise ValueError(f"need >= 2 MSE values, got {mses.size}")
    if np.any(mses < 0):
        raise ValueError("MSE values must be >= 0")
    return float(mses.mean() + 3.0 * mses.std(ddof=1))


@dataclass(frozen=True, eq=False)
class QualityStats:
    """Per-frame training MSEs with their mean, spread and control limit (mV^2)."""

    mses: np.ndarray
    mean: float
    std: float
    ucl: float

    @classmethod
    def from_mses(cls, mses) -> "QualityStats":
        mses = np.asarray(mses, dtype=float)
        ucl = compute_ucl(mses)
        mses = mses.copy()
        mses.flags.writeable = False
        return cls(mses=mses, mean=float(mses.mean()),
                   std=float(mses.std(ddof=1)), ucl=ucl)


@dataclass(frozen=True, eq=False)
class ReferenceEntry:
    """One enrolled entity: reference model, quality stats, metadata."""

    entity_id: str
    model: DtModel
    stats: QualityStats
    enrolled_at: str
    frame_len: int
    curve: np.ndarray = None  # reference predictions at positions 0..L-1

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ValueError("entity_id must be non-empty")
        if self.curve is None:
            object.__setattr__(self, "curve", predict_curve(self.model, self.frame_len))


@dataclass(eq=False)
class ReferenceDb:
    """Enrollment database; all entries share one frame length."""

    frame_len: int = DEFAULT_FRAME_LEN
    version: str = DB_VERSION
    entries: dict[str, ReferenceEntry] = field(default_factory=dict)

    def entity_ids(self) -> list[str]:
        return sorted(self.entries)


def frame_mse(frame: RrFrame, model: DtModel, expected_length: int | None = None) -> float:
    """Mean squared deviation of a frame from the model's reference curve."""
    values = frame.values
    if expected_length is not None and values.size != expected_length:
        raise ValueError(f"frame length {values.size} != expected {expected_length}")
    curve = predict_curve(model, values.size)
    return float(np.mean((values - curve) ** 2))


def enroll(db: ReferenceDb, entity_id: str, record: EcgRecord, *,
           train_window_s: float = DEFAULT_TRAIN_WINDOW_S,
           allow_short: bool = False,
           min_leaf_size: int = 4, max_depth: int = 32,
           baseline_window_s: float = 0.6,
           refractory_s: float = 0.25, thresh_frac: float = 0.4,
           enrolled_at: str | None = None) -> ReferenceEntry:
    """Train and store one entity's reference function and quality stats.

    Pipeline: truncate to the training window, remove baseline, detect
    R-peaks, cut frames, fit the tree on pooled (position, amplitude) pairs,
    then score every training frame against the new model.
    """
    if not entity_id:
        raise ValueError("entity_id must be non-empty")
    if entity_id in db.entries:
        raise ValueError(f"entity {entity_id!r} is already enrolled")
    if record.duration_s < train_window_s and not allow_short:
        raise ValueError(f"record of {record.duration_s:.1f}s is shorter than the "
                         f"{train_window_s}s training window (allow_short=True to override)")
    n_keep = min(record.samples.size, int(round(train_window_s * record.fs)))
    trimmed = EcgRecord(record.subject_id, record.fs, record.samples[:n_keep])

    clean = preprocess(trimmed, baseline_window_s)
    peaks = detect_rpeaks(clean, refractory_s=refractory_s, thresh_frac=thresh_frac)
    if len(peaks) < 2:
        raise ValueError(f"found {len(peaks)} R-peaks in {entity_id!r}; need >= 2")
    frames = frame_rr(clean, peaks, db.frame_len)
    matrix = frames.matrix()
    if matrix.shape[0] < 2:
        raise ValueError(f"framing produced {matrix.shape[0]} frames; need >= 2")

    positions = np.tile(np.arange(db.frame_len, dtype=float), matrix.shape[0])
    model = train_dt(positions.reshape(-1, 1), matrix.ravel(),
                     DtParams(min_leaf_size=min_leaf_size, max_depth=max_depth))
    curve = predict_curve(model, db.frame_len)
    mses = np.mean((matrix - curve) ** 2, axis=1)
    stats = QualityStats.from_mses(mses)
    if enrolled_at is None:
        enrolled_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    entry = ReferenceEntry(entity_id=entity_id, model=model, stats=stats,
                           enrolled_at=enrolled_at, frame_len=db.frame_len,
                           curve=curve)
    db.entries[entity_id] = entry
    return entry


@dataclass(frozen=True, eq=False)
class FrameScores:
    """Per-frame, per-entity MSE table for one probe record."""

    entity_ids: tuple[str, ...]
    mse: np.ndarray  # shape (n_frames, n_entities)


def score_frames(db: ReferenceDb, record: EcgRecord, *,
                 test_window_s: float = DEFAULT_TEST_WINDOW_S,
                 baseline_window_s: float = 0.6,
                 refractory_s: float = 0.25, thresh_frac: float = 0.4) -> FrameScores:
    """Frame a probe record and score every frame against every entity."""
    if not db.entries:
        raise ValueError("reference database is empty")
    n_keep = min(record.samples.size, int(round(test_window_s * record.fs)))
    trimmed = EcgRecord(record.subject_id, record.fs, record.samples[:n_keep])
    clean = preprocess(trimmed, baseline_window_s)
    peaks = detect_rpeaks(clean, refractory_s=refractory_s, thresh_frac=thresh_frac)
    frames = frame_rr(clean, peaks, db.frame_len)
    matrix = frames.matrix()
    if matrix.shape[0] == 0:
        raise ValueError("probe record produced no frames")
    ids = tuple(db.entity_ids())
    mse = np.column_stack([np.mean((matrix - db.entries[e].curve) ** 2, axis=1)
                           for e in ids])
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

    @property
    def is_known(self) -> bool:
        return self.kind == KNOWN


def decide(db: ReferenceDb, scored: FrameScores, gate_ucl: float, *,
           apr_min: float = DEFAULT_APR_MIN,
           id_margin: float = DEFAULT_ID_MARGIN) -> AuthDecision:
    """Apply the quality gate and identify, given precomputed frame scores.

    A frame passes quality iff its best (minimum) MSE over entities is
    within gate_ucl; the accepted-frame fraction is the APR. The best-scoring
    entity wins identification only if its score stays within id_margin
    times its own training UCL, otherwise the probe is declared unknown.
    """
    n_frames = scored.mse.shape[0]
    passing = scored.mse.min(axis=1) <= gate_ucl
    apr = float(passing.sum() / n_frames)
    if apr < apr_min or not passing.any():
        return AuthDecision(kind=REJECTED, apr=apr)
    sub = scored.mse[passing]
    scores = {e: float(sub[:, k].mean()) for k, e in enumerate(scored.entity_ids)}
    best_id = min(scores, key=lambda e: (scores[e], e))
    best = scores[best_id]
    if best <= id_margin * db.entries[best_id].stats.ucl:
        return AuthDecision(kind=KNOWN, apr=apr, entity_id=best_id,
                            score=best, scores=scores)
    return AuthDecision(kind=UNKNOWN, apr=apr, score=best, scores=scores)


def authenticate(db: ReferenceDb, record: EcgRecord, gate_ucl: float, *,
                 test_window_s: float = DEFAULT_TEST_WINDOW_S,
                 apr_min: float = DEFAULT_APR_MIN,
                 id_margin: float = DEFAULT_ID_MARGIN,
                 baseline_window_s: float = 0.6,
                 refractory_s: float = 0.25, thresh_frac: float = 0.4) -> AuthDecision:
    """Full authentication of a probe record against the database."""
    scored = score_frames(db, record, test_window_s=test_window_s,
                          baseline_window_s=baseline_window_s,
                          refractory_s=refractory_s, thresh_frac=thresh_frac)
    return decide(db, scored, gate_ucl, apr_min=apr_min, id_margin=id_margin)


# ---------------------------------------------------------------------------
# persistence


def _node_to_dict(node) -> dict:
    if isinstance(node, DtLeaf):
        return {"mean": node.mean, "count": node.count}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}


def _node_from_dict(doc: dict):
    if "mean" in doc:
        return DtLeaf(mean=float(doc["mean"]), count=int(doc["count"]))
    return DtSplit(feature=int(doc["feature"]), threshold=float(doc["threshold"]),
                   left=_node_from_dict(doc["left"]),
                   right=_node_from_dict(doc["right"]))


def _model_to_dict(model: DtModel) -> dict:
    return {
        "n_features": model.n_features,
        "min_leaf_size": model.params.min_leaf_size,
        "max_depth": model.params.max_depth,
        "y_min": model.y_min,
        "y_max": model.y_max,
        "root": _node_to_dict(model.root),
    }


def _model_from_dict(doc: dict) -> DtModel:
    return DtModel(root=_node_from_dict(doc["root"]),
                   n_features=int(doc["n_features"]),
                   params=DtParams(min_leaf_size=int(doc["min_leaf_size"]),
                                   max_depth=int(doc["max_depth"])),
                   y_min=float(doc["y_min"]), y_max=float(doc["y_max"]))


def db_to_json(db: ReferenceDb) -> str:
    """Canonical JSON serialization (sorted keys, full float precision).

    Written without indentation, so CPython's C encoder does the work; the
    text is one line plus a trailing newline.
    """
    doc = {
        "format": DB_FORMAT,
        "version": db.version,
        "frame_len": db.frame_len,
        "entities": {
            e.entity_id: {
                "enrolled_at": e.enrolled_at,
                "frame_len": e.frame_len,
                "stats": {
                    "mses": e.stats.mses.tolist(),
                    "mean": e.stats.mean,
                    "std": e.stats.std,
                    "ucl": e.stats.ucl,
                },
                "model": _model_to_dict(e.model),
            }
            for e in db.entries.values()
        },
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def save_db(db: ReferenceDb, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(db_to_json(db))


def load_db(path) -> ReferenceDb:
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DbFormatError(f"no database at {path}") from None
    except json.JSONDecodeError as exc:
        raise DbFormatError(f"{path}: not valid JSON ({exc})") from None
    try:
        if doc.get("format") != DB_FORMAT:
            raise DbFormatError(f"{path}: not a reference database file")
        version = doc["version"]
        if version != DB_VERSION:
            raise DbFormatError(f"{path}: version {version!r} unsupported "
                                f"(expected {DB_VERSION!r})")
        db = ReferenceDb(frame_len=int(doc["frame_len"]), version=version)
        for entity_id, e in doc["entities"].items():
            if int(e["frame_len"]) != db.frame_len:
                raise DbFormatError(f"{path}: entity {entity_id!r} frame length "
                                    f"{e['frame_len']} != database {db.frame_len}")
            mses = np.asarray(e["stats"]["mses"], dtype=float)
            if mses.size < 2:
                raise DbFormatError(f"{path}: entity {entity_id!r} has fewer than "
                                    f"2 stored MSE values")
            mses.flags.writeable = False
            stats = QualityStats(mses=mses, mean=float(e["stats"]["mean"]),
                                 std=float(e["stats"]["std"]),
                                 ucl=float(e["stats"]["ucl"]))
            entry = ReferenceEntry(entity_id=entity_id,
                                   model=_model_from_dict(e["model"]),
                                   stats=stats,
                                   enrolled_at=str(e["enrolled_at"]),
                                   frame_len=int(e["frame_len"]))
            db.entries[entity_id] = entry
    except (KeyError, TypeError, AttributeError) as exc:
        raise DbFormatError(f"{path}: corrupted database structure ({exc!r})") from None
    return db
