"""Experiment engine: randomized authentication trials, the confusion
matrix, accuracy, overall performance and the control-limit sweep.

Trials draw probe records from a labeled pool with replacement using a
seed, so every run is replayable. A call draws once, so a sweep is a paired
comparison that isolates the gate threshold. The draws are counted per pool
record in fixed-size blocks, so no per-trial list is built and memory does
not grow with the number of trials. A drawn record is kept as its draw
count and its runs of consecutive gates that pass the same frames, each
decided once, at its first gate; a confusion matrix is the recount of those
runs, each run's draws counting in its decision's cell at its gates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from rrauth.authcore import (DEFAULT_APR_MIN, DEFAULT_ID_MARGIN,
                             DEFAULT_TEST_WINDOW_S, KNOWN, REJECTED,
                             AuthDecision, ReferenceDb, decide, score_frames)
from rrauth.signal import MAX_POINTS

_DRAW_BLOCK = 1 << 16  # trials drawn and counted per block: 512 KiB of draws
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
    of one ``integers(0, len(pool), size=n)`` call. Yields, for each drawn
    record in pool order, its pool index, truth, draw count and runs: a
    (start, end, decision) triple for each run of gates ``grid[start:end]``
    that pass the same frames, whose decision is each of these gates' own.

    A decision depends on the gate only through the frames that pass it:
    those whose best MSE is <= the gate. On an ascending grid a frame passes
    from the first gate >= its best MSE on, which one ``searchsorted`` finds
    for all of a record's frames. Those first gates split the grid into the
    runs, at most one per frame and never more than the grid's gates, and
    `decide` is called once per run, at its first gate.
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
    gates = np.asarray(grid, dtype=float)
    for pi, draws in enumerate(counts.tolist()):
        if draws:
            first_pass = np.searchsorted(gates, scored[pi].mse.min(axis=1))
            edges = np.unique(np.append(first_pass, [0, len(grid)])).tolist()
            yield pi, pool[pi][1], draws, [
                (start, end, decide(db, scored[pi], grid[start], apr_min=apr_min,
                                    id_margin=id_margin))
                for start, end in zip(edges, edges[1:])]


def _tally(records, n_gates):
    """The confusion matrix at each of `n_gates` gates, from `_trials`'
    records: each run's draws are added to its cell at its first gate and
    taken off at the gate after its last, and the steps are summed along the
    grid, so one row of steps per cell is held and none per record."""
    steps = {f.name: np.zeros(n_gates + 1, dtype=np.int64) for f in fields(ConfusionMatrix)}
    for _, truth, draws, runs in records:
        for start, end, decision in runs:
            step = steps[_cell(decision, truth)]
            step[start] += draws
            step[end] -= draws
    # Python ints: an np.int64 cell would make `accuracy` an np.float64
    sums = {cell: np.cumsum(step[:-1]).tolist() for cell, step in steps.items()}
    return [ConfusionMatrix(**dict(zip(sums, row))) for row in zip(*sums.values())]


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
    records = list(_trials(db, pool, [gate_ucl], n, seed, test_window_s, apr_min,
                           id_margin))
    return _tally(records, 1)[0], {pi: runs[0][2] for pi, _, _, runs in records}


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
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    grid = grid.tolist()
    records = _trials(db, pool, grid, n, seed, test_window_s, apr_min, id_margin)
    points = []
    for ucl, cm in zip(grid, _tally(records, len(grid))):
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
