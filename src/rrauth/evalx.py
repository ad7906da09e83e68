"""Experiment engine: randomized authentication trials, the confusion
matrix, accuracy, overall performance and the control-limit sweep.

Trials draw probe records from a labeled pool with replacement using a
seed, so every run is replayable. A call draws once, so a sweep is a paired
comparison that isolates the gate threshold. Each distinct drawn record is
decided once per distinct set of frames passing the gate, and its decision
counts once per draw: a sweep's next gate re-decides only the records whose
passing set it changes. No per-trial list is built: `run_trials` returns the
matrix and the {pool index: decision} map of the drawn records, one entry
per distinct record, and the draws themselves are counted in fixed-size
blocks, so memory does not grow with the number of trials.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from rrauth.authcore import (DEFAULT_APR_MIN, DEFAULT_ID_MARGIN,
                             DEFAULT_TEST_WINDOW_S, KNOWN, REJECTED,
                             AuthDecision, ReferenceDb, decide, score_frames)
from rrauth.signal import MAX_POINTS

_DRAW_BLOCK = 1 << 16  # trials drawn and counted per block: 512 KiB of draws
_GATE_BLOCK = 1 << 8  # sweep gates whose passing-frame counts are found at once
# the most trials a call may draw: 2**47 bytes of int64 draws, which no
# machine could have held as the one array they were once drawn into
_MAX_TRIALS = 2**44

__all__ = [
    "ConfusionMatrix",
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


def _cell(decision: AuthDecision, truth: str | None) -> str:
    """The confusion-matrix field a trial with this decision counts in."""
    if decision.kind == REJECTED:
        return "rejected"
    if decision.kind == KNOWN:
        if truth is None:
            return "ku"
        return "kk_correct" if decision.entity_id == truth else "kk_wrong"
    return "uu" if truth is None else "uk"


def _trials(db, pool, grid, n, seed, test_window_s, apr_min, id_margin):
    """The trial engine of `run_trials` and `sweep_ucl`.

    Validates `n` and the pool, scores every pool record once and draws the
    `n` trials once, in blocks of `_DRAW_BLOCK` whose draws are counted per
    pool record and dropped. The bit generator keeps the unused half of a
    64-bit word between calls, so consecutive blocks draw the very stream
    of one ``integers(0, len(pool), size=n)`` call. Returns an iterator
    that judges one gate of `grid` per step, yielding its matrix and the
    {pool index: decision} map of the drawn records; each drawn record's
    decision counts once per draw in its confusion cell.

    A decision depends on the gate only through the frames that pass it:
    those whose best MSE is <= the gate. Each drawn record's best MSEs are
    sorted once, and one ``searchsorted(..., side="right")`` over a block of
    up to `_GATE_BLOCK` gates counts its passing frames at each of them; an
    equal count means the very same passing set. A record whose count is
    the one it had at the previous gate keeps that gate's `AuthDecision`
    object; only a changed count calls `decide`. Only the last (count,
    decision) per record and one block's counts are held, so memory does
    not grow with the grid. A NaN gate counts as if every frame passed, so
    only a record's first gate, which always reaches `decide`, may be NaN;
    `sweep_ucl` refuses one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_TRIALS:
        raise ValueError(f"n must be <= {_MAX_TRIALS}, got {n}")
    pool = list(pool)
    if not pool:
        raise ValueError("pool must be non-empty")
    if not db.entries:
        raise ValueError("reference database is empty")
    for record, truth in pool:
        if truth is not None and truth not in db.entries:
            raise ValueError(f"pool label {truth!r} is not an enrolled entity")
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(pool), dtype=np.int64)
    for start in range(0, n, _DRAW_BLOCK):
        block = rng.integers(0, len(pool), size=min(_DRAW_BLOCK, n - start))
        counts += np.bincount(block, minlength=len(pool))
    scored = [score_frames(db, record, test_window_s=test_window_s)
              for record, _ in pool]
    # Python ints: an np.int64 cell would make `accuracy` an np.float64
    drawn, counts = np.flatnonzero(counts).tolist(), counts.tolist()
    best_mse = [np.sort(scored[pi].mse.min(axis=1)) for pi in drawn]
    last: dict[int, tuple[int, AuthDecision]] = {}

    def judge(gates):
        per_record = np.array([np.searchsorted(b, gates, side="right") for b in best_mse])
        for ucl, passing in zip(gates, per_record.T.tolist()):
            decided: dict[int, AuthDecision] = {}
            tally: Counter[str] = Counter()
            for pi, n_pass in zip(drawn, passing):
                if pi not in last or last[pi][0] != n_pass:
                    last[pi] = (n_pass, decide(db, scored[pi], ucl,
                                               apr_min=apr_min, id_margin=id_margin))
                dec = decided[pi] = last[pi][1]
                tally[_cell(dec, pool[pi][1])] += counts[pi]
            yield ConfusionMatrix(**tally), decided

    return chain.from_iterable(judge(grid[start : start + _GATE_BLOCK])
                               for start in range(0, len(grid), _GATE_BLOCK))


def run_trials(db: ReferenceDb, pool, n: int = 100, gate_ucl: float = 0.0,
               seed: int = 0, *,
               test_window_s: float = DEFAULT_TEST_WINDOW_S,
               apr_min: float = DEFAULT_APR_MIN,
               id_margin: float = DEFAULT_ID_MARGIN) -> tuple[ConfusionMatrix, dict[int, AuthDecision]]:
    """Run n authentication trials on records drawn from the pool.

    The pool is a sequence of (record, truth) pairs where truth is an
    enrolled entity id or None for subjects outside the database. Draws are
    uniform with replacement from `seed`; identical inputs replay exactly.
    The draws are made once, in fixed-size blocks that are counted and
    dropped, so memory stays flat in n (at most 2**44), and each distinct
    drawn record is decided once. Returns the confusion matrix and the
    {pool index: decision} map of the drawn records: one `AuthDecision` per
    distinct record, shared by every trial that draws it, so the map never
    outgrows the pool. Trial t drew
    ``np.random.default_rng(seed).integers(0, len(pool), size=n)[t]``, as
    the blocks draw that stream.
    """
    return next(_trials(db, pool, [gate_ucl], n, seed, test_window_s, apr_min,
                        id_margin))


def sweep_ucl(db: ReferenceDb, pool, grid, n: int = 100, seed: int = 0, *,
              test_window_s: float = DEFAULT_TEST_WINDOW_S,
              apr_min: float = DEFAULT_APR_MIN,
              id_margin: float = DEFAULT_ID_MARGIN) -> tuple[list[SweepPoint], SweepPoint]:
    """Evaluate trials across a grid of gate thresholds; returns all points
    plus the best-overall-performance point (ties toward the smaller UCL).

    Every probe record is framed and scored once and the trials are drawn
    once; a drawn record is decided again only at a gate that changes the
    set of its frames passing, so every point equals `run_trials` at that
    gate. A NaN gate is a ValueError before any record is scored."""
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if np.isnan(grid).any():
        raise ValueError("grid holds a NaN gate")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    grid = grid.tolist()
    per_gate = _trials(db, pool, grid, n, seed, test_window_s, apr_min, id_margin)
    points = []
    for ucl, (cm, _) in zip(grid, per_gate):
        chi, _ = accuracy(cm)
        op = overall_performance(cm.accepted, cm.total, chi)
        points.append(SweepPoint(ucl=ucl, accepted=cm.accepted, n_trials=cm.total,
                                 accuracy=chi, op=op))
    return points, max(points, key=lambda p: p.op)  # first maximum: smaller UCL


def auto_grid(db: ReferenceDb, points: int = 40) -> np.ndarray:
    """Default sweep grid: `points` gates evenly spaced from 0.5x to 3x the
    median training UCL."""
    median_ucl = db.median_ucl()
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if points > MAX_POINTS:
        raise ValueError(f"points must be <= {MAX_POINTS}, got {points}")
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
