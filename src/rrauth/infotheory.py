"""Mutual information between a variable and a label, in bits, and the
ranking of frame positions by their mutual information with the entity.

Both variables are binned equal-width over their observed range; a
degenerate range collapses to one bin.
"""

from __future__ import annotations

import math

import numpy as np

from rrauth.beat import FrameSet
from rrauth.signal import MAX_POINTS

__all__ = ["mutual_information", "rank_features"]


def _bin_edges(values: np.ndarray, bins: int) -> np.ndarray:
    if bins >= MAX_POINTS:
        raise ValueError(f"bins must be < {MAX_POINTS}, got {bins}")
    lo = float(values.min())
    hi = float(values.max())
    if not math.isfinite(hi - lo):  # a NaN, an infinity or a width that overflows
        raise ValueError(f"values must be finite with a finite range width, got [{lo}, {hi}]")
    if lo == hi:
        return np.array([lo - 0.5, lo + 0.5])
    return np.linspace(lo, hi, bins + 1)


def _entropy(counts: np.ndarray) -> float:
    """-sum p log2 p over the nonzero counts, p = count / total count."""
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p))) + 0.0  # normalize -0.0


def mutual_information(xs, ys, bins_x: int = 16, bins_y: int = 16) -> float:
    """I(x;y) estimated as H(x) - E[H(x|Y)] from the joint histogram.

    Clamped at zero from below; negative values can only arise from float
    rounding.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    if xs.size == 0:
        raise ValueError("cannot histogram empty input")
    if bins_x < 1 or bins_y < 1:
        raise ValueError(f"bins must be >= 1, got {bins_x} x {bins_y}")
    joint, _, _ = np.histogram2d(xs, ys, bins=[_bin_edges(xs, bins_x), _bin_edges(ys, bins_y)])
    conditional = 0.0  # sum_y p(y) H(x | Y=y); an empty column adds 0.0
    for col in joint.T:
        conditional += float(col.sum()) / xs.size * _entropy(col)
    return max(0.0, _entropy(joint.sum(axis=1)) - conditional)


def rank_features(frame_sets, bins: int = 16, top_k: int = 32) -> tuple[tuple[int, float], ...]:
    """The `top_k` frame positions by MI between amplitude-at-position and
    the entity label, as (position, mi_bits) pairs, descending; equal
    computed values go to the lower position first. Positions whose exact
    MI is equal can still differ by rounding, and are then ordered by it.

    Ranking is purely per-position; no subset search is attempted.
    """
    sets: list[FrameSet] = list(frame_sets)
    if not sets:
        raise ValueError("need at least one frame set")
    frame_len = sets[0].frame_len
    if any(s.frame_len != frame_len for s in sets):
        raise ValueError("all frame sets must share the frame length")
    entities = sorted({s.entity_id for s in sets})
    if len(entities) < 2:
        raise ValueError(f"need >= 2 distinct entities, got {len(entities)}")
    if not 1 <= top_k <= frame_len:
        raise ValueError(f"top_k must be in [1, {frame_len}], got {top_k}")

    code = {e: i for i, e in enumerate(entities)}
    pooled = np.vstack([s.values for s in sets])
    labels = np.concatenate([np.full(len(s), code[s.entity_id]) for s in sets])
    if pooled.shape[0] == 0:
        raise ValueError("frame sets contain no frames")

    # integer label codes with one bin per entity: each label gets its own bin
    mi = [mutual_information(pooled[:, j], labels, bins, len(entities))
          for j in range(frame_len)]
    order = sorted(range(frame_len), key=lambda j: (-mi[j], j))
    return tuple((j, mi[j]) for j in order[:top_k])
