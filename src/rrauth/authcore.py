"""Enrollment, quality gating and the known/unknown authentication decision.

Each enrolled entity gets a reference curve (the per-position frame mean)
plus per-frame training MSE statistics; the mean+3-sigma upper control limit
of those MSEs drives both quality gating and unknown rejection. Enrolment,
scoring and the CLI's frame analyses all cut their frames through
`extract_frames`, so they share one order and one set of detector and
baseline parameters (the `beat` detector constants and the `preprocess`
default).

The reference database persists as compact JSON (sorted keys, one line;
indented files also load). Format version 4 stores what enrolment computed
and nothing derived from it: per entity the reference curve (its values at
positions 0..DEFAULT_FRAME_LEN-1), the training MSEs and the enrolment time,
with `frame_len` and the `frontend` id in the header. The two arrays, `curve`
and `mses`, are base64 text of their little-endian float64 bytes; `enrolled_at`
stays a JSON string. Binary arrays round-trip exactly, in half the bytes of
decimal text. The mean, spread and control limit are not stored: loading
derives them from the MSEs with `QualityStats.from_mses`, as enrolment did,
so they are the same doubles, and no edit of the file can set a limit that
its MSEs do not give.
The `frontend` id names the baseline removal, detector and framing that cut
the enrolment frames; a file from another front end is refused, because its
curves would be compared with frames cut another way. A file of any other
version or frame length (the front end cuts `DEFAULT_FRAME_LEN` points) is
refused too, and its entities are re-enrolled from their records.
"""

from __future__ import annotations

import binascii
import datetime
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from rrauth.beat import DEFAULT_FRAME_LEN, FrameSet, detect_rpeaks, frame_rr
# Unused here; benchmarks/spans.py patches `authcore.predict_curve` and `.train_dt`.
from rrauth.learners import predict_curve, train_dt  # noqa: F401
from rrauth.signal import EcgRecord, preprocess, slice_seconds

DB_VERSION = "4"
DB_FORMAT = "rrauth-reference-db"
# Names the front end that cuts frames (`extract_frames`); change it whenever
# peaks or frames can change, so that older DBs are re-enrolled.
FRONTEND = "rrauth-frontend-1"

# One scoring block's (frames, entities, frame_len) difference buffer, in
# bytes: half a 2 MiB per-core L2, the fastest of the budgets from 64 KiB to
# 1 MiB timed on such a Xeon.
_SCORE_BLOCK_BYTES = 1 << 20

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


@dataclass(frozen=True, eq=False)
class QualityStats:
    """Per-frame training MSEs with their mean, spread and control limit (mV^2):
    the upper control limit is the mean plus 3 sample standard deviations (n-1).
    `from_mses` computes the three from the MSEs, at enrolment and at load."""

    mses: np.ndarray
    mean: float
    std: float
    ucl: float

    @classmethod
    def from_mses(cls, mses) -> "QualityStats":
        mses = np.array(mses, dtype=float)  # a copy, made read-only
        if mses.size < 2:
            raise ValueError(f"need >= 2 MSE values, got {mses.size}")
        if not np.all(mses >= 0):
            raise ValueError("MSE values must be >= 0")
        if not np.isfinite(mses).all():
            raise ValueError("MSE values must be finite")
        mses.flags.writeable = False
        with np.errstate(over="ignore"):  # an overflow is refused below
            mean, std = float(mses.mean()), float(mses.std(ddof=1))
        ucl = mean + 3.0 * std
        if not math.isfinite(ucl):
            raise ValueError(f"MSE values overflow the control limit ({ucl})")
        return cls(mses=mses, mean=mean, std=std, ucl=ucl)


@dataclass(frozen=True, eq=False)
class ReferenceEntry:
    """One enrolled entity: reference curve, quality stats, metadata.

    `curve` holds the reference predictions at positions 0..DEFAULT_FRAME_LEN-1.
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
    """Enrollment database; every curve has `DEFAULT_FRAME_LEN` points."""

    frame_len: ClassVar[int] = DEFAULT_FRAME_LEN
    entries: dict[str, ReferenceEntry] = field(default_factory=dict)

    def median_ucl(self) -> float:
        """Median of the enrolled training UCLs: the default quality gate.

        The middle of the sorted UCLs, or ``(a + b) / 2.0`` of the two middle
        ones: the double ``np.median`` gives, whose first call would import
        ``numpy.ma`` (8-17 ms in a fresh process).
        """
        if not self.entries:
            raise ValueError("reference database is empty")
        ucls = sorted(e.stats.ucl for e in self.entries.values())
        mid = len(ucls) // 2
        if len(ucls) % 2:
            return float(ucls[mid])
        return float((ucls[mid - 1] + ucls[mid]) / 2.0)


def extract_frames(record: EcgRecord, window_s: float) -> FrameSet:
    """The one frame-extraction path: keep the first `window_s` seconds
    (`slice_seconds`, which checks the window and caps it at the record's
    length), remove the baseline, detect R-peaks and cut `frame_rr` frames.

    Truncating before the baseline removal means a frame depends only on the
    samples inside the window. Neither `preprocess` nor the detector has
    parameters, so every caller uses the same ones.
    """
    clean = preprocess(slice_seconds(record, 0.0, window_s))
    return frame_rr(clean, detect_rpeaks(clean))


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
    frames = extract_frames(record, train_window_s)
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

    The frames go in blocks whose (frames, entities, frame_len) squared
    difference fits `_SCORE_BLOCK_BYTES`, written into one reused buffer
    (one frame per block when a single frame's rows exceed it). The block's
    frames are copied into the buffer and the curves subtracted in place,
    which numpy does in one pass over contiguous (entities, frame_len)
    rows, faster than subtracting from the broadcast frames. Each
    frame-entity row is summed along its contiguous last axis, and the sums
    are divided by DEFAULT_FRAME_LEN once: exactly what a per-entity
    ``np.mean(..., axis=1)`` computes, so the table is the same bytes.
    """
    if not db.entries:
        raise ValueError("reference database is empty")
    frames = extract_frames(record, test_window_s).values
    n_frames = frames.shape[0]
    if n_frames == 0:
        raise ValueError("probe record produced no frames")
    ids = tuple(sorted(db.entries))
    curves = np.array([db.entries[e].curve for e in ids])
    block = max(1, _SCORE_BLOCK_BYTES // curves.nbytes)
    diff = np.empty((min(block, n_frames), *curves.shape))
    mse = np.empty((n_frames, len(ids)))
    for start in range(0, n_frames, block):
        rows = frames[start:start + block, None, :]
        out = diff[:rows.shape[0]]
        np.copyto(out, rows)
        np.subtract(out, curves, out=out)
        np.square(out, out=out)
        np.add.reduce(out, axis=2, out=mse[start:start + block])
    mse /= DEFAULT_FRAME_LEN
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
    into a contiguous (entity, frame) array, each row is summed, and the
    sums are divided by the passing count, which is what `mean()` does. A
    contiguous row is summed by the same pairwise reduction as the strided
    column it came from, so each score equals that column's `mean()` exactly.
    The winner is the lowest id among the entities at the exact minimum
    score, whatever the order of `entity_ids`.
    A NaN threshold, which no comparison satisfies, or an empty table is a ValueError.
    """
    if math.isnan(gate_ucl) or math.isnan(apr_min) or math.isnan(id_margin):
        raise ValueError(f"NaN threshold: gate_ucl={gate_ucl} apr_min={apr_min} "
                         f"id_margin={id_margin}")
    n_frames = scored.mse.shape[0]
    if n_frames == 0:
        raise ValueError("no frames to decide on")
    passing = scored.mse.min(axis=1) <= gate_ucl
    n_pass = int(np.count_nonzero(passing))
    apr = n_pass / n_frames
    if apr < apr_min or n_pass == 0:
        return AuthDecision(kind=REJECTED, apr=apr)
    sums = np.add.reduce(np.ascontiguousarray(scored.mse[passing].T), axis=1)
    scores = dict(zip(scored.entity_ids, (sums / n_pass).tolist()))
    least = min(scores.values())
    best_id = min(e for e, score in scores.items() if score == least)
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


def _b64(values: np.ndarray) -> str:
    """An array's values as base64 text of their little-endian float64 bytes."""
    raw = np.ascontiguousarray(values, dtype="<f8")
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def db_to_json(db: ReferenceDb) -> str:
    """Canonical version-4 JSON: sorted keys, one line plus a newline.

    Each entity holds `curve` and `mses`, base64 of little-endian float64, so
    every value round-trips exactly, and its `enrolled_at` string. The MSEs'
    mean, spread and limit are not written: `load_db` derives them. Written
    without indentation, so CPython's C encoder does the work.
    """
    doc = {
        "format": DB_FORMAT,
        "version": DB_VERSION,
        "frontend": FRONTEND,
        "frame_len": DEFAULT_FRAME_LEN,
        "entities": {
            e.entity_id: {
                "curve": _b64(e.curve),
                "mses": _b64(e.stats.mses),
                "enrolled_at": e.enrolled_at,
            }
            for e in db.entries.values()
        },
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def save_db(db: ReferenceDb, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(db_to_json(db))


def _b64_array(value, what: str) -> np.ndarray:
    """A stored array: base64 of little-endian float64 values, returned as
    a read-only view of the decoded bytes.

    `a2b_base64` skips characters outside the alphabet, so the text must be
    exactly what `_b64` writes for the bytes it decodes to.
    """
    try:
        raw = binascii.a2b_base64(value)
        exact = binascii.b2a_base64(raw, newline=False).decode("ascii") == value
    except (TypeError, ValueError):
        exact = False
    if not exact or len(raw) % 8:
        raise DbFormatError(f"{what} must be base64 of little-endian float64 values")
    return np.frombuffer(raw, dtype="<f8")


def _entry_from_doc(entity_id: str, e: dict) -> ReferenceEntry:
    what = f"entity {entity_id!r}"
    if e.keys() != {"curve", "mses", "enrolled_at"}:
        raise DbFormatError(f"{what} must hold curve, enrolled_at and mses, "
                            f"got {sorted(e)}")
    curve = _b64_array(e["curve"], f"{what} curve")
    if curve.shape != (DEFAULT_FRAME_LEN,) or not np.isfinite(curve).all():
        raise DbFormatError(f"{what} curve must hold {DEFAULT_FRAME_LEN} finite values, "
                            f"got {curve.size}")
    mses = _b64_array(e["mses"], f"{what} mses")
    try:
        stats = QualityStats.from_mses(mses)
    except ValueError as exc:
        raise DbFormatError(f"{what} mses: {exc}") from None
    if not isinstance(e["enrolled_at"], str):
        raise DbFormatError(f"{what} enrolled_at must be a string")
    return ReferenceEntry(entity_id=entity_id, curve=curve, stats=stats,
                          enrolled_at=e["enrolled_at"])


def load_db(path) -> ReferenceDb:
    """Read a version-4 database; any defect is a DbFormatError.

    The file (what `save_db` writes) names its front end, which must be
    `FRONTEND`, and its `frame_len`, which must be the integer
    `DEFAULT_FRAME_LEN`. For each entity it holds exactly its `curve`
    (`DEFAULT_FRAME_LEN` finite values) and `mses`, base64 of little-endian
    float64, and its `enrolled_at`. Each entity's stats are
    `QualityStats.from_mses` of its MSEs, as at enrolment, so they are the
    same doubles; MSEs it refuses (fewer than 2, negative, not finite, or a
    limit that overflows) are a DbFormatError that names the entity. Any
    other version, front end or frame length is refused: re-enrol.
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
        frontend = doc.get("frontend")
        if frontend != FRONTEND:
            raise DbFormatError(f"front end {frontend!r} unsupported "
                                f"(expected {FRONTEND!r}); re-enrol from the records")
        frame_len = doc["frame_len"]
        if type(frame_len) is not int or frame_len != DEFAULT_FRAME_LEN:
            raise DbFormatError(f"frame_len {frame_len!r} unsupported "
                                f"(expected {DEFAULT_FRAME_LEN}); re-enrol from the records")
        db = ReferenceDb()
        for entity_id, e in doc["entities"].items():
            db.entries[entity_id] = _entry_from_doc(entity_id, e)
    except DbFormatError as exc:
        raise DbFormatError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise DbFormatError(f"{path}: corrupted database structure ({exc!r})") from None
    return db
