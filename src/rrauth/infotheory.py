"""Histogram-based entropy, conditional entropy and mutual information,
plus MI ranking of frame positions against entity labels.

All quantities are in bits (log base 2). Binning is equal-width over the
observed range of each variable; a degenerate range collapses to one bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rrauth.beat import FrameSet

__all__ = [
    "Histogram",
    "JointHistogram",
    "MiRanking",
    "histogram",
    "joint_histogram",
    "entropy",
    "x_marginal",
    "conditional_entropy",
    "mi_from_joint",
    "mutual_information",
    "rank_features",
]


@dataclass(frozen=True, eq=False)
class Histogram:
    counts: np.ndarray
    edges: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class JointHistogram:
    counts: np.ndarray  # shape (bins_x, bins_y)
    x_edges: np.ndarray
    y_edges: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class MiRanking:
    """Frame positions ranked by MI with the entity label, best first."""

    entries: tuple[tuple[int, float], ...]  # (position, mi_bits)


def _bin_edges(values: np.ndarray, bins: int) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return np.array([lo - 0.5, lo + 0.5])
    return np.linspace(lo, hi, bins + 1)


def histogram(values, bins: int = 16) -> Histogram:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot histogram empty input")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = _bin_edges(values, bins)
    counts, _ = np.histogram(values, bins=edges)
    return Histogram(counts=counts, edges=edges, n=int(values.size))


def joint_histogram(xs, ys, bins_x: int = 16, bins_y: int = 16) -> JointHistogram:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    if xs.size == 0:
        raise ValueError("cannot histogram empty input")
    if bins_x < 1 or bins_y < 1:
        raise ValueError(f"bins must be >= 1, got {bins_x} x {bins_y}")
    x_edges = _bin_edges(xs, bins_x)
    y_edges = _bin_edges(ys, bins_y)
    counts, _, _ = np.histogram2d(xs, ys, bins=[x_edges, y_edges])
    return JointHistogram(counts=counts, x_edges=x_edges, y_edges=y_edges, n=int(xs.size))


def entropy(hist: Histogram) -> float:
    """H(x) = -sum p log2 p, with 0 log 0 = 0."""
    if hist.n < 1:
        raise ValueError("empty histogram")
    p = hist.counts[hist.counts > 0] / hist.n
    return float(-np.sum(p * np.log2(p))) + 0.0  # normalize -0.0


def x_marginal(joint: JointHistogram) -> Histogram:
    return Histogram(counts=joint.counts.sum(axis=1), edges=joint.x_edges, n=joint.n)


def conditional_entropy(joint: JointHistogram) -> float:
    """E[H(x|Y)] = sum_y p(y) H(x | Y=y)."""
    if joint.n < 1:
        raise ValueError("empty joint histogram")
    total = 0.0
    for col in joint.counts.T:
        ny = float(col.sum())
        if ny == 0:
            continue
        p = col[col > 0] / ny
        total += (ny / joint.n) * float(-np.sum(p * np.log2(p)))
    return total


def mi_from_joint(joint: JointHistogram) -> float:
    """Direct double-sum form: sum p(x,y) log2[p(x,y) / (p(x) p(y))]."""
    if joint.n < 1:
        raise ValueError("empty joint histogram")
    pxy = joint.counts / joint.n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    ratio = pxy[mask] / (px @ py)[mask]
    return float(np.sum(pxy[mask] * np.log2(ratio)))


def mutual_information(xs, ys, bins_x: int = 16, bins_y: int = 16) -> float:
    """I(x;y) estimated as H(x) - E[H(x|Y)] from the joint histogram.

    Clamped at zero from below; negative values can only arise from float
    rounding. Agrees with :func:`mi_from_joint` on the same joint.
    """
    joint = joint_histogram(xs, ys, bins_x, bins_y)
    value = entropy(x_marginal(joint)) - conditional_entropy(joint)
    return max(0.0, value)


def rank_features(frame_sets, bins: int = 16, top_k: int = 32) -> MiRanking:
    """Rank frame positions by MI between amplitude-at-position and the
    entity label, descending; ties resolve toward the lower position.

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
    pooled = np.vstack([s.matrix() for s in sets])
    labels = np.concatenate([np.full(len(s), code[s.entity_id]) for s in sets])
    if pooled.shape[0] == 0:
        raise ValueError("frame sets contain no frames")

    # integer label codes with one bin per entity: each label gets its own bin
    mi = [mutual_information(pooled[:, j], labels, bins, len(entities))
          for j in range(frame_len)]
    order = sorted(range(frame_len), key=lambda j: (-mi[j], j))
    return MiRanking(entries=tuple((j, mi[j]) for j in order[:top_k]))
