"""R-peak detection and RR-interval framing.

The detector is a derivative-energy detector: difference, square, smooth,
threshold against a rolling energy maximum, suppress within a refractory
window, then refine each event to the local signal maximum within half the
smoothing window plus 50 ms. The smoothing is a box sum divided by the
number of energy samples under the box, which has a closed form, so only
the sum is a convolution; inside the record every box holds the full
window, so only the edges divide by a count of their own. Every refinement
is one row of a single ``argmax`` over a read-only strided view of windows
of the record padded with -inf, so each lands on the first maximum of its
search range, as a per-event ``argmax`` would.

The rolling maximum doubles: floor(log2(win)) ``np.maximum`` passes give
the maximum of every run of the largest power of two <= win samples, and
each window is the maximum of two such runs, one at each end. A maximum
only selects among its inputs, so each value is exactly its window's
``max``.

Suppression takes candidates strongest first, lowest index on ties, and
keeps each one that no kept candidate lies closer to than the refractory
distance. Neighbours at least that distance apart split the candidates
into clusters that never interact, and a cluster that lies closer than
that distance to its strongest member keeps that member alone: on an ECG
nearly every cluster is one QRS, and one vectorised pass settles them
all. The candidates of the other clusters take one pass over a byte mask
of blocked samples, so each costs one lookup and each kept one sets its
block. A record of pure noise is one cluster: all of it takes the byte
mask, after the vectorised pass.

Frames resample each R-to-R segment onto a fixed-length grid anchored at
both peaks. The grid is the arithmetic ``np.linspace`` performs, written
out: point j of the segment a -> b is ``j * step + a``, step = (b - a) /
(frame_len - 1), and the last point is b itself. The peaks are integers
below 2**53, so a, b and b - a are exact in float64 and every point is the
same double ``np.linspace(a, b, frame_len)`` gives; the peaks strictly
increase, so no step is zero, the case in which ``np.linspace`` computes
otherwise. A record's frames form one `FrameSet`: the peaks they came from
plus one read-only (n_frames, frame_len) array whose row k spans peaks
k -> k + 1, so a set of n peaks holds max(n - 1, 0) frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rrauth.signal import DEFAULT_FRAME_LEN, MAX_POINTS, EcgRecord, _strided

REFRACTORY_S = 0.25  # minimum R-to-R gap
THRESH_FRAC = 0.4  # candidate threshold, as a fraction of the rolling energy maximum

__all__ = ["PeakList", "FrameSet", "detect_rpeaks", "frame_rr", "DEFAULT_FRAME_LEN"]


@dataclass(frozen=True, eq=False)
class PeakList:
    """Strictly increasing sample indices of detected R-peaks."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=int)  # a copy, made read-only
        if idx.ndim != 1:
            raise ValueError("peak indices must be one-dimensional")
        if idx.size and ((idx[1:] <= idx[:-1]).any() or idx[0] < 0):
            raise ValueError("peak indices must be strictly increasing and non-negative")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.size


@dataclass(frozen=True, eq=False)
class FrameSet:
    """All frames cut from one record, labeled with the source entity.

    `values` is one read-only (n_frames, frame_len) array: row k resamples
    the record from `peaks[k]` to `peaks[k + 1]`, so there is one frame per
    pair of consecutive peaks, n_frames == max(len(peaks) - 1, 0).
    """

    entity_id: str
    peaks: PeakList
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)  # copy; frame sets are immutable
        if values.ndim != 2 or values.shape[1] < 2:
            raise ValueError(f"values must be 2-D with frame_len >= 2, got {values.shape}")
        if values.shape[0] != max(len(self.peaks) - 1, 0):
            raise ValueError(f"{len(self.peaks)} peaks cannot bound {values.shape[0]} frames")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def frame_len(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def matrix(self) -> np.ndarray:
        """`.values` itself; only `benchmarks/` calls this, until its upkeep."""
        return self.values


def _rolling_max(x: np.ndarray, win: int) -> np.ndarray:
    """Centered rolling maximum; windows shrink at the edges.

    x is padded with -inf by half a window in front and the rest of a
    window behind, so every window, the shrinking edge ones included, spans
    `win` padded samples. Doubling builds the maximum of every run of
    `span` padded samples, span = 1, 2, 4, ... up to the largest power of
    two <= win, one ``np.maximum`` of two shifted copies per step; a
    window's maximum is then that of the two runs of `span` samples at its
    two ends, which overlap and together cover it. A maximum only ever
    selects one of its inputs, so every value is exactly the window's
    ``max``.
    """
    n = x.size
    half = win // 2
    runs = np.full(n + win - 1, -np.inf)
    runs[half : half + n] = x
    span = 1
    for _ in range(win.bit_length() - 1):  # floor(log2(win)) doublings
        runs = np.maximum(runs[:-span], runs[span:])
        span *= 2
    return np.maximum(runs[:n], runs[win - span : win - span + n])


def _lone_winners(strength: np.ndarray, candidates: np.ndarray,
                  reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Settle in one vectorised pass the clusters that keep one candidate.

    Neighbours among the ascending `candidates` more than `reach` apart
    split them into clusters, which never block each other. A cluster whose
    members all lie within `reach` of its strongest member, the first
    maximum, keeps that member alone. Returns those members, ascending, and
    the candidates of every other cluster, ascending, for the byte mask.
    """
    gaps = np.flatnonzero(candidates[1:] - candidates[:-1] > reach)
    bounds = np.empty(gaps.size + 2, dtype=np.intp)  # each cluster's start, then the end
    bounds[0], bounds[-1] = 0, candidates.size
    np.add(gaps, 1, out=bounds[1:-1])
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    s = strength[candidates]
    top = np.repeat(np.maximum.reduceat(s, starts), sizes)
    at = np.arange(candidates.size)
    strongest = candidates[np.minimum.reduceat(np.where(s == top, at, at.size), starts)]
    alone = ((strongest - candidates[starts] <= reach)
             & (candidates[bounds[1:] - 1] - strongest <= reach))
    return strongest[alone], candidates[np.repeat(~alone, sizes)]


def _suppress(strength: np.ndarray, candidates: np.ndarray,
              refractory: float) -> list[int]:
    """Refractory suppression of ascending candidates; returns the kept
    candidates in index order.

    Candidates are taken strongest first, lowest index on ties, and each is
    kept unless a kept one lies closer than `refractory` samples. For an
    integer distance d, d < refractory exactly when d <= reach =
    ceil(refractory) - 1. `_lone_winners` settles every cluster that keeps
    one candidate; the rest go through one strongest-first pass over a byte
    mask of blocked samples: a kept c blocks samples c - reach .. c + reach,
    so each candidate costs one lookup and each kept one sets its block.
    The mask holds sample i at byte i + reach, so every block fits: it is
    exactly n + 2 * reach bytes, since a slice assignment past the end of a
    bytearray would grow it instead of failing.
    """
    if candidates.size == 0:
        return []
    reach = math.ceil(refractory) - 1
    kept, rest = _lone_winners(strength, candidates, reach)
    kept = kept.tolist()
    order = rest[np.lexsort((rest, -strength[rest]))]
    block = b"\x01" * (2 * reach + 1)
    blocked = bytearray(strength.size + 2 * reach)
    for c in order.tolist():
        if not blocked[c + reach]:
            kept.append(c)
            blocked[c : c + 2 * reach + 1] = block
    kept.sort()
    return kept


def detect_rpeaks(record: EcgRecord) -> PeakList:
    """Locate R-peaks in a baseline-centered record.

    The squared first difference is averaged over 150 ms (``ma_win``
    samples): a box sum over the samples that exist, divided by their
    count, so the edges are not damped. Candidates are smoothed samples
    above ``THRESH_FRAC`` of the rolling 2 s maximum; the strongest
    candidate wins within each ``REFRACTORY_S`` window, and every
    kept event is refined to the raw local maximum within +/-(half the
    smoothing window + 50 ms), clipped to the record, the first one on a
    tie. The smoothed-energy peak can lie anywhere on a plateau up to
    ``ma_win // 2`` samples from R, so a bare +/-50 ms search can miss R
    and settle on the T wave. Events that refine closer than the
    refractory distance are merged into the higher one, the earlier on a tie.
    """
    x = record.samples
    fs = record.fs
    n = x.size
    if n < fs * 1.0:
        raise ValueError(f"record of {n / fs:.3f}s is shorter than 1 s")
    ma_win = int(round(0.150 * fs))
    if ma_win < 3:
        raise ValueError(f"fs={fs} Hz is too low: 150 ms smoothing window "
                         f"spans {ma_win} samples (need >= 3)")

    diff = x[1:] - x[:-1]
    energy = diff * diff
    smooth = np.convolve(energy, np.ones(ma_win), mode="same")
    # ma_win samples under every box but the first `behind`, which hold
    # ahead + 1 .. ma_win - 1, and the last `ahead`, ma_win - 1 .. behind + 1
    ahead = (ma_win - 1) // 2
    behind = ma_win - 1 - ahead
    smooth[:behind] /= np.arange(ahead + 1, ma_win)
    smooth[behind : smooth.size - ahead] /= ma_win
    smooth[smooth.size - ahead :] /= np.arange(ma_win - 1, behind, -1)

    ceiling = _rolling_max(smooth, int(round(2.0 * fs)))
    candidates = np.flatnonzero(smooth > THRESH_FRAC * ceiling)

    refractory = REFRACTORY_S * fs
    kept = _suppress(smooth, candidates, refractory)

    # refine to raw local maxima over the whole energy event plus a margin;
    # the -inf pads clip each search to the record
    w = ma_win // 2 + int(round(0.050 * fs))
    padded = np.full(n + 2 * w, -np.inf)
    padded[w : w + n] = x
    starts = np.array(kept, dtype=np.intp)  # event c searches padded[c : c + 2w + 1]
    search = _strided(padded, 0, (n, 2 * w + 1), (1, 1))[starts]
    refined = starts - w + np.argmax(search, axis=1)

    # refinement can merge or reorder events; re-enforce the refractory gap
    # (a repeat of the last event is a gap of 0 that changes nothing)
    final: list[int] = []
    for p in sorted(refined.tolist()):
        if final and p - final[-1] < refractory:
            if x[p] > x[final[-1]]:
                final[-1] = p
        else:
            final.append(p)
    return PeakList(np.asarray(final, dtype=int))


def frame_rr(record: EcgRecord, peaks: PeakList,
             frame_len: int = DEFAULT_FRAME_LEN) -> FrameSet:
    """Resample each consecutive R-to-R segment onto `frame_len` points.

    The grid spans both endpoints, so frame[0] and frame[-1] sit exactly on
    the anchoring R-peaks; interior values come from linear interpolation.
    One (n_frames, frame_len) grid is interpolated over the whole record at
    once; the knots are integers, so each value equals its segment's own.
    Row k is ``np.linspace(a_k, b_k, frame_len)``'s arithmetic written out,
    without its argument handling (see the module docstring).
    """
    if frame_len < 2:
        raise ValueError(f"frame_len must be >= 2, got {frame_len}")
    if frame_len > MAX_POINTS:
        raise ValueError(f"frame_len must be <= {MAX_POINTS}, got {frame_len}")
    idx = peaks.indices
    x = record.samples
    if idx.size and idx[-1] >= x.size:
        raise ValueError(f"peak index {int(idx[-1])} out of bounds for {x.size} samples")
    a, b = idx[:-1], idx[1:]
    step = (b - a) / (frame_len - 1)
    grid = step[:, None] * np.arange(frame_len, dtype=float)
    grid += a[:, None]
    grid[:, -1] = b
    return FrameSet(entity_id=record.subject_id, peaks=peaks,
                    values=np.interp(grid, np.arange(x.size, dtype=float), x))
