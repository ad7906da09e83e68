"""R-peak detection and RR-interval framing.

The detector is a derivative-energy detector: difference, square, smooth,
threshold against a rolling energy maximum, suppress within a refractory
window, then refine each event to the local signal maximum within half the
smoothing window plus 50 ms. The smoothing is a box sum divided by the
number of energy samples under the box, which has a closed form, so only
the sum is a convolution. Every refinement is one row of a single
``argmax`` over windows of the record padded with -inf, so each lands on
the first maximum of its search range, as a per-event ``argmax`` would.

The rolling maximum is the van Herk / Gil-Werman block maximum (Pattern
Recognit. Lett. 13(7), 1992; IEEE TPAMI 15(5), 1993): block-wise prefix
and suffix maxima combined by one ``np.maximum``, O(1) per sample. A
maximum only selects among its inputs, so each value is exactly its
window's ``max``.

Suppression takes candidates strongest first, lowest index on ties, and
keeps each one that no kept candidate lies closer to than the refractory
distance. One pass does it: a byte mask marks every sample that a kept
candidate blocks, so each candidate costs one lookup, and each kept one
sets its block.

Frames resample each R-to-R segment onto a fixed-length grid anchored at
both peaks. A record's frames form one `FrameSet`: the peaks they came from
plus one read-only (n_frames, frame_len) array whose row k spans peaks
k -> k + 1, so a set of n peaks holds max(n - 1, 0) frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rrauth.signal import DEFAULT_FRAME_LEN, MAX_POINTS, EcgRecord

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
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
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

    The van Herk / Gil-Werman block maximum: x is padded with -inf by half
    a window in front and the rest of a window behind, so every window, the
    shrinking edge ones included, spans `win` padded samples. Cut into
    blocks of `win`, any such window is a suffix of one block followed by a
    prefix of the next, so its maximum is one ``np.maximum`` of a block-wise
    suffix maximum and a block-wise prefix maximum: O(1) per sample for any
    window. A maximum only ever selects one of its inputs, so every value
    is exactly the window's ``max``. A window as long as the record or
    longer needs at most two blocks; the padding still fits.
    """
    n = x.size
    half = win // 2
    blocks = -(-(n + win - 1) // win)
    padded = np.full(blocks * win, -np.inf)
    padded[half : half + n] = x
    padded = padded.reshape(blocks, win)
    prefix = np.maximum.accumulate(padded, axis=1).ravel()
    suffix = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n], prefix[win - 1 : win - 1 + n])


def _suppress(strength: np.ndarray, candidates: np.ndarray,
              refractory: float) -> list[int]:
    """Refractory suppression; returns the kept candidates in index order.

    Candidates are taken strongest first, lowest index on ties, and each is
    kept unless a kept one lies closer than `refractory` samples. For an
    integer distance d, d < refractory exactly when d <= reach =
    ceil(refractory) - 1, so a kept c blocks samples c - reach .. c + reach.
    The mask holds sample i at byte i + reach, so every block fits: it is
    exactly n + 2 * reach bytes, since a slice assignment past the end of a
    bytearray would grow it instead of failing.
    """
    order = candidates[np.lexsort((candidates, -strength[candidates]))]
    reach = math.ceil(refractory) - 1
    block = b"\x01" * (2 * reach + 1)
    blocked = bytearray(strength.size + 2 * reach)
    kept = []
    for c in order.tolist():
        if not blocked[c + reach]:
            kept.append(c)
            blocked[c : c + 2 * reach + 1] = block
    kept.sort()
    return kept


def _window_counts(n: int, m: int) -> np.ndarray:
    """How many of n samples each output of ``np.convolve(., ones(m),
    "same")`` sums, for n >= m: its window reaches ``(m - 1) // 2`` samples
    ahead and the rest behind, clipped to the record. Exact integers, equal
    to ``np.convolve(np.ones(n), np.ones(m), "same")``; an even m makes
    the window one sample longer behind than ahead.
    """
    ahead = (m - 1) // 2
    i = np.arange(n)
    return np.minimum(i + ahead + 1, n) - np.maximum(i - (m - 1 - ahead), 0)


def detect_rpeaks(record: EcgRecord) -> PeakList:
    """Locate R-peaks in a baseline-centered record.

    The squared first difference is averaged over 150 ms (``ma_win``
    samples): a box sum over the samples that exist, divided by their
    count, `_window_counts`, so the edges are not damped. Candidates are
    smoothed samples above ``THRESH_FRAC`` of the rolling 2 s maximum; the
    strongest candidate wins within each ``REFRACTORY_S`` window, and every
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

    diff = np.diff(x)
    energy = diff * diff
    smooth = np.convolve(energy, np.ones(ma_win), mode="same")
    smooth /= _window_counts(energy.size, ma_win)

    ceiling = _rolling_max(smooth, int(round(2.0 * fs)))
    candidates = np.nonzero(smooth > THRESH_FRAC * ceiling)[0]

    refractory = REFRACTORY_S * fs
    kept = _suppress(smooth, candidates, refractory)

    # refine to raw local maxima over the whole energy event plus a margin;
    # the -inf pads clip each search to the record
    w = ma_win // 2 + int(round(0.050 * fs))
    padded = np.concatenate([np.full(w, -np.inf), x, np.full(w, -np.inf)])
    search = np.lib.stride_tricks.sliding_window_view(padded, 2 * w + 1)[kept]
    refined = np.asarray(kept) - w + np.argmax(search, axis=1)

    # refinement can merge or reorder events; re-enforce the refractory gap
    final: list[int] = []
    for p in np.unique(refined).tolist():
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
    """
    if frame_len < 2:
        raise ValueError(f"frame_len must be >= 2, got {frame_len}")
    if frame_len > MAX_POINTS:
        raise ValueError(f"frame_len must be <= {MAX_POINTS}, got {frame_len}")
    idx = peaks.indices
    x = record.samples
    if idx.size and idx[-1] >= x.size:
        raise ValueError(f"peak index {int(idx[-1])} out of bounds for {x.size} samples")
    grid = np.linspace(idx[:-1], idx[1:], frame_len, axis=1)
    return FrameSet(entity_id=record.subject_id, peaks=peaks,
                    values=np.interp(grid, np.arange(x.size), x))
