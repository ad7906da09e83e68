"""Experiment engine: randomized authentication trials, the confusion
matrix, accuracy, overall performance and the control-limit sweep.

Trials draw probe records from a labeled pool with replacement using a
seed, so every run is replayable. The sweep reuses one seed per grid point,
making it a paired comparison that isolates the gate threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rrauth.authcore import (DEFAULT_APR_MIN, DEFAULT_ID_MARGIN,
                             DEFAULT_TEST_WINDOW_S, KNOWN, REJECTED, UNKNOWN,
                             AuthDecision, ReferenceDb, decide, score_frames)
from rrauth.signal import EcgRecord

__all__ = [
    "ConfusionMatrix",
    "TrialOutcome",
    "SweepPoint",
    "run_trials",
    "accuracy",
    "overall_performance",
    "sweep_ucl",
    "auto_grid",
    "format_confusion",
    "confusion_csv",
    "sweep_csv",
]


@dataclass
class ConfusionMatrix:
    """Trial tallies split by prediction, truth and id-correctness.

    Rejected trials fall outside the predicted-known/unknown cells; the five
    cells plus `rejected` always sum to the trial count.
    """

    kk_correct: int = 0  # predicted known, actually known, right identity
    kk_wrong: int = 0    # predicted known, actually known, wrong identity
    ku: int = 0          # predicted known, actually unknown
    uk: int = 0          # predicted unknown, actually known
    uu: int = 0          # predicted unknown, actually unknown
    rejected: int = 0    # quality-gated out before any prediction

    def __post_init__(self) -> None:
        for name in ("kk_correct", "kk_wrong", "ku", "uk", "uu", "rejected"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def accepted(self) -> int:
        return self.kk_correct + self.kk_wrong + self.ku + self.uk + self.uu

    @property
    def total(self) -> int:
        return self.accepted + self.rejected


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    index: int
    pool_index: int
    truth: str | None  # enrolled entity id, or None for an unknown subject
    decision: AuthDecision


@dataclass(frozen=True)
class SweepPoint:
    ucl: float
    accepted: int
    n_trials: int
    accuracy: float
    op: float


def accuracy(cm: ConfusionMatrix) -> tuple[float, bool]:
    """(correct decisions / accepted trials, degenerate-denominator flag).

    Correct means an exact identity match or a true unknown rejection; with
    nothing accepted the value is 0.0 and the flag is set.
    """
    phi = cm.accepted
    if phi == 0:
        return 0.0, True
    return (cm.kk_correct + cm.uu) / phi, False


def overall_performance(accepted: int, total: int, chi: float) -> float:
    """Combined metric: accepted fraction times accuracy."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= accepted <= total:
        raise ValueError(f"accepted must be in [0, {total}], got {accepted}")
    if not 0.0 <= chi <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {chi}")
    return (accepted / total) * chi


def _validate_pool(db: ReferenceDb, pool) -> list[tuple[EcgRecord, str | None]]:
    pool = list(pool)
    if not pool:
        raise ValueError("pool must be non-empty")
    if not db.entries:
        raise ValueError("reference database is empty")
    for record, truth in pool:
        if truth is not None and truth not in db.entries:
            raise ValueError(f"pool label {truth!r} is not an enrolled entity")
    return pool


def _tally(db, scored_pool, pool, draws, gate_ucl, apr_min, id_margin):
    """Confusion counts and per-trial outcomes for one gate.

    A decision depends only on the pool record and the gate, so each
    distinct drawn pool record is decided once and its frozen
    `AuthDecision` is shared by every trial that draws it.
    """
    cm = ConfusionMatrix()
    outcomes = []
    decided: dict[int, AuthDecision] = {}
    for t, pi in enumerate(draws.tolist()):
        truth = pool[pi][1]
        dec = decided.get(pi)
        if dec is None:
            dec = decided[pi] = decide(db, scored_pool[pi], gate_ucl,
                                       apr_min=apr_min, id_margin=id_margin)
        if dec.kind == REJECTED:
            cm.rejected += 1
        elif dec.kind == KNOWN:
            if truth is None:
                cm.ku += 1
            elif dec.entity_id == truth:
                cm.kk_correct += 1
            else:
                cm.kk_wrong += 1
        else:
            if truth is None:
                cm.uu += 1
            else:
                cm.uk += 1
        outcomes.append(TrialOutcome(index=t, pool_index=pi, truth=truth,
                                     decision=dec))
    return cm, outcomes


def run_trials(db: ReferenceDb, pool, n: int = 100, gate_ucl: float = 0.0,
               seed: int = 0, *,
               test_window_s: float = DEFAULT_TEST_WINDOW_S,
               apr_min: float = DEFAULT_APR_MIN,
               id_margin: float = DEFAULT_ID_MARGIN) -> tuple[ConfusionMatrix, list[TrialOutcome]]:
    """Run n authentication trials on records drawn from the pool.

    The pool is a sequence of (record, truth) pairs where truth is an
    enrolled entity id or None for subjects outside the database. Draws are
    uniform with replacement from `seed`; identical inputs replay exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pool = _validate_pool(db, pool)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, len(pool), size=n)
    scored = [score_frames(db, record, test_window_s=test_window_s)
              for record, _ in pool]
    return _tally(db, scored, pool, draws, gate_ucl, apr_min, id_margin)


def sweep_ucl(db: ReferenceDb, pool, grid, n: int = 100, seed: int = 0, *,
              test_window_s: float = DEFAULT_TEST_WINDOW_S,
              apr_min: float = DEFAULT_APR_MIN,
              id_margin: float = DEFAULT_ID_MARGIN) -> tuple[list[SweepPoint], SweepPoint]:
    """Evaluate trials across a grid of gate thresholds; returns all points
    plus the best-overall-performance point (ties toward the smaller UCL).

    Every probe record is framed and scored once; at each gate, each distinct
    drawn pool record is decided once (see `_tally`)."""
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pool = _validate_pool(db, pool)
    scored = [score_frames(db, record, test_window_s=test_window_s)
              for record, _ in pool]
    points: list[SweepPoint] = []
    best: SweepPoint | None = None
    for ucl in grid.tolist():
        draws = np.random.default_rng(seed).integers(0, len(pool), size=n)
        cm, _ = _tally(db, scored, pool, draws, ucl, apr_min, id_margin)
        chi, _ = accuracy(cm)
        op = overall_performance(cm.accepted, cm.total, chi)
        point = SweepPoint(ucl=ucl, accepted=cm.accepted, n_trials=cm.total,
                           accuracy=chi, op=op)
        points.append(point)
        if best is None or point.op > best.op:
            best = point
    return points, best


def auto_grid(db: ReferenceDb, points: int = 40) -> np.ndarray:
    """Default sweep grid: `points` gates evenly spaced from 0.5x to 3x the
    median training UCL."""
    median_ucl = db.median_ucl()
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    return np.linspace(0.5 * median_ucl, 3.0 * median_ucl, points)


def format_confusion(cm: ConfusionMatrix) -> str:
    """Aligned 2x2 predicted-vs-actual table plus the rejected count."""
    kk = cm.kk_correct + cm.kk_wrong
    rows = [
        f"{cm.total:<10}{'actual known':>16}{'actual unknown':>16}",
        f"{'pred known':<10}{kk:>16}{cm.ku:>16}",
        f"{'pred unknown':<10}{cm.uk:>14}{cm.uu:>16}",
        f"rejected: {cm.rejected}",
        f"(misidentified within pred/actual known: {cm.kk_wrong})",
    ]
    return "\n".join(rows)


def confusion_csv(cm: ConfusionMatrix) -> str:
    header = "kk_correct,kk_wrong,ku,uk,uu,rejected,N"
    row = f"{cm.kk_correct},{cm.kk_wrong},{cm.ku},{cm.uk},{cm.uu},{cm.rejected},{cm.total}"
    return header + "\n" + row + "\n"


def sweep_csv(points) -> str:
    lines = ["ucl,phi,N,accuracy,op"]
    for p in points:
        lines.append(f"{p.ucl!r},{p.accepted},{p.n_trials},{p.accuracy!r},{p.op!r}")
    return "\n".join(lines) + "\n"
