import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth import beat
from rrauth.beat import (FrameSet, PeakList, _lone_winners, _rolling_max, _suppress,
                         detect_rpeaks, frame_rr)
from rrauth.signal import EcgRecord, preprocess, random_profile, synth_ecg

from conftest import quiet_profile, reference_detect_rpeaks, strongest_first

FS = 360.0


def detect_on(profile, duration_s=60.0, fs=FS):
    rec, truth = synth_ecg(profile, duration_s, fs)
    return preprocess(rec), truth


class TestDetect:
    def test_matches_ground_truth(self):
        clean, truth = detect_on(quiet_profile(seed=1, noise_sd=0.02))
        peaks = detect_rpeaks(clean)
        assert abs(len(peaks) - len(truth)) <= 1
        tol = int(round(0.010 * FS))
        for t in truth:
            assert np.min(np.abs(peaks.indices - t)) <= tol

    def test_all_zero_signal(self):
        rec = EcgRecord("z", FS, np.zeros(int(2 * FS)))
        assert len(detect_rpeaks(rec)) == 0

    def test_two_beats(self):
        rec, truth = synth_ecg(quiet_profile(), 2.0, FS)
        peaks = detect_rpeaks(preprocess(rec))
        assert len(peaks) == 2
        assert abs(int(np.diff(peaks.indices)[0]) - 360) <= 1

    def test_refractory_gap_enforced(self):
        clean, _ = detect_on(quiet_profile(seed=5, rr_jitter=0.06, noise_sd=0.02,
                                           heart_rate_bpm=90.0), 30.0)
        peaks = detect_rpeaks(clean)
        assert np.all(np.diff(peaks.indices) >= 0.25 * FS)

    @pytest.mark.parametrize("hr", [150.0, 170.0])
    def test_refinement_reaches_r_at_high_rate(self, hr):
        # the smoothed-energy peak can sit up to ma_win // 2 samples from R;
        # a refinement window narrower than that settles on the T wave
        tol = int(round(0.010 * FS))
        for seed in range(5):
            clean, truth = detect_on(quiet_profile(seed=seed, heart_rate_bpm=hr,
                                                   rr_jitter=0.05, noise_sd=0.02))
            peaks = detect_rpeaks(clean)
            hits = sum(1 for t in truth if np.min(np.abs(peaks.indices - t)) <= tol)
            assert hits / len(truth) >= 0.99, f"seed={seed}: {hits}/{len(truth)}"

    def test_record_too_short(self):
        rec = EcgRecord("s", FS, np.zeros(100))
        with pytest.raises(ValueError, match="shorter than 1 s"):
            detect_rpeaks(rec)

    def test_fs_too_low_for_smoothing(self):
        rec = EcgRecord("s", 10.0, np.zeros(20))
        with pytest.raises(ValueError, match="150 ms"):
            detect_rpeaks(rec)

    def test_lowest_fs_for_smoothing(self):
        # at 20 Hz the 150 ms window spans exactly 3 samples, the fewest accepted
        x = np.zeros(200)
        x[10::20] = 1.0
        rec = EcgRecord("s", 20.0, x)
        peaks = detect_rpeaks(rec)
        assert peaks.indices.tolist() == list(range(10, 200, 20))
        assert peaks.indices.tobytes() == reference_detect_rpeaks(rec).tobytes()


class TestPeakList:
    def test_not_increasing(self):
        with pytest.raises(ValueError):
            PeakList(np.array([5, 5, 9]))

    def test_negative(self):
        with pytest.raises(ValueError):
            PeakList(np.array([-1, 5]))

    def test_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            PeakList(np.array([[1, 5]]))

    def test_copies_the_callers_array(self):
        a = np.array([1, 5, 9])
        p = PeakList(a)
        assert a.flags.writeable and p.indices is not a
        assert not p.indices.flags.writeable
        a[0] = 7
        assert p.indices.tolist() == [1, 5, 9]


class TestFrameRr:
    def test_count_and_length(self):
        rec = EcgRecord("x", FS, np.random.default_rng(0).normal(size=4000))
        peaks = PeakList(np.array([100, 800, 1500, 2200, 2900]))
        fs = frame_rr(rec, peaks, 220)
        assert len(fs) == 4
        assert fs.frame_len == 220
        assert fs.values.shape == (4, 220)

    def test_linear_ramp_closed_form(self):
        n = 1001
        rec = EcgRecord("r", FS, np.linspace(0.0, 1.0, n))
        fs = frame_rr(rec, PeakList(np.array([0, n - 1])), 220)
        frame = fs.values[0]
        assert frame[0] == 0.0
        assert frame[-1] == 1.0
        expect = np.arange(220) / 219
        assert np.max(np.abs(frame - expect)) < 1e-12

    @pytest.mark.parametrize("npeaks", [0, 1])
    def test_too_few_peaks_empty(self, npeaks):
        rec = EcgRecord("x", FS, np.zeros(1000))
        fs = frame_rr(rec, PeakList(np.arange(npeaks) * 100), 220)
        assert len(fs) == 0

    def test_frame_len_too_small(self):
        rec = EcgRecord("x", FS, np.zeros(1000))
        with pytest.raises(ValueError, match="frame_len"):
            frame_rr(rec, PeakList(np.array([0, 500])), 1)

    def test_peak_out_of_bounds(self):
        rec = EcgRecord("x", FS, np.zeros(1000))
        with pytest.raises(ValueError, match="out of bounds"):
            frame_rr(rec, PeakList(np.array([0, 1000])), 220)

    def test_endpoints_anchored_exactly(self):
        rng = np.random.default_rng(1)
        rec = EcgRecord("x", FS, rng.normal(size=2000))
        peaks = PeakList(np.array([13, 641, 1388]))
        fs = frame_rr(rec, peaks, 220)
        assert fs.peaks is peaks
        for frame, (a, b) in zip(fs.values, [(13, 641), (641, 1388)]):
            assert frame[0] == rec.samples[a]
            assert frame[-1] == rec.samples[b]

    def test_interpolation_stays_in_segment_range(self):
        rng = np.random.default_rng(2)
        rec = EcgRecord("x", FS, rng.normal(size=3000))
        peaks = PeakList(np.sort(rng.choice(3000, size=6, replace=False)))
        fs = frame_rr(rec, peaks, 220)
        for frame, a, b in zip(fs.values, peaks.indices[:-1], peaks.indices[1:]):
            seg = rec.samples[a : b + 1]
            assert frame.min() >= seg.min() - 1e-12
            assert frame.max() <= seg.max() + 1e-12

    def test_offset_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=2000)
        peaks = PeakList(np.array([50, 700, 1300, 1900]))
        f0 = frame_rr(EcgRecord("x", FS, base), peaks, 220).values
        f1 = frame_rr(EcgRecord("x", FS, base + 2.5), peaks, 220).values
        assert np.max(np.abs((f1 - f0) - 2.5)) < 1e-12

    def test_periodic_signal_gives_identical_frames(self):
        rec, _ = synth_ecg(quiet_profile(), 20.0, FS)
        clean = preprocess(rec)
        frames = frame_rr(clean, detect_rpeaks(clean), 220).values
        diffs = np.abs(np.diff(frames, axis=0))
        assert diffs.max() <= 1e-6

    def test_values_are_read_only(self):
        rec = EcgRecord("x", FS, np.random.default_rng(4).normal(size=1000))
        fs = frame_rr(rec, PeakList(np.array([10, 400, 900])), 16)
        assert fs.matrix() is fs.values
        with pytest.raises(ValueError):
            fs.values[0, 0] = 1.0


def rolling_max_reference(x, win):
    """The max of every centred window, clipped to the record at the edges."""
    half = win // 2
    return np.array([x[max(0, i - half) : i - half + win].max() for i in range(x.size)])


class TestRollingMax:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 1500), data=st.data(), levels=st.sampled_from([None, 1.0, 4.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_max_of_every_window(self, n, data, levels, seed):
        # coarse levels put many equal values, and runs of them, in a window
        x = np.random.default_rng(seed).normal(size=n)
        if levels is not None:
            x = np.round(x * levels) / levels
        win = data.draw(st.integers(1, n + 5), label="win")
        got = _rolling_max(x, win)
        assert got.shape == (n,)
        assert np.array_equal(got, rolling_max_reference(x, win))


@st.composite
def suppression_inputs(draw):
    """Energies shaped to stress the strongest-first order (ties, plateaus,
    monotone ramps) or shaped like a detector's candidates (bursts), the
    candidates and a refractory distance, fractional ones included (0.25 s
    at 250 Hz is 62.5 samples)."""
    n = draw(st.integers(1, 800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["levels", "plateaus", "ramp_up", "ramp_down", "noise",
                                  "bursts"]))
    refractory = draw(st.sampled_from([62.5, 90.0]) | st.floats(0.5, 200.0),
                      label="refractory")
    if shape == "levels":  # a few distinct energies: ties everywhere
        strength = rng.integers(0, 4, n).astype(float)
    elif shape == "plateaus":  # runs of equal energy
        strength = np.repeat(rng.random(n), rng.integers(1, 60, n))[:n]
    elif shape == "ramp_up":  # each candidate outranked by its right neighbour
        strength = np.arange(n, dtype=float)
    elif shape == "ramp_down":
        strength = np.arange(n, 0, -1, dtype=float)
    elif shape == "noise":
        strength = rng.random(n)
    else:
        return (*bursts(n, rng, math.ceil(refractory) - 1), refractory)
    density = draw(st.sampled_from([1.0, 0.5, 0.05]), label="density")
    candidates = np.flatnonzero(rng.random(n) < density)
    return strength, candidates, refractory


def bursts(n, rng, reach):
    """(strength, candidates) shaped like the detector's: runs of candidates
    (humps), most narrower than `reach` and most more than `reach` apart,
    so most clusters keep their strongest member alone; a few humps are
    wider, or closer, so that their clusters reach the byte mask. Heights
    rounded to one or two decimals tie within a hump."""
    strength = rng.random(n)
    candidates = []
    pos = int(rng.integers(0, min(reach + 2, n)))
    while pos < n:
        width = int(rng.integers(1, reach + 2) if rng.random() < 0.8
                    else rng.integers(reach + 2, 3 * reach + 4))
        hump = np.arange(pos, min(pos + width, n))
        fall = np.abs(np.arange(hump.size) - rng.integers(hump.size)) / (1 + hump.size)
        strength[hump] = np.round(rng.random() * (1 - fall), rng.integers(1, 3))
        candidates.append(hump)
        gap = rng.integers(reach, 3 * reach + 2) if rng.random() < 0.9 else rng.integers(reach + 1)
        pos += width + int(gap)
    return strength, np.concatenate(candidates)


class TestSuppress:
    """The lone-cluster pass and the masked pass must keep exactly what the
    plain strongest-first rule, one bisect per candidate, keeps."""

    @settings(max_examples=400, deadline=None)
    @given(suppression_inputs())
    def test_equals_strongest_first_rule(self, case):
        strength, candidates, refractory = case
        assert (_suppress(strength, candidates, refractory)
                == strongest_first(strength, candidates, refractory))

    def test_refractory_longer_than_record(self):
        # kept blocks reach past both ends of the record, from either end
        for first, last, winner in ((2.0, 1.0, 0), (1.0, 2.0, 4), (1.0, 1.0, 0)):
            strength = np.array([first, 0.0, 0.0, 0.0, last])
            candidates = np.array([0, 4])
            for refractory in (4.5, 62.5, 1000.0):
                assert _suppress(strength, candidates, refractory) == [winner]
            for refractory in (3.5, 4.0):  # distance 4 is not closer than 4
                assert _suppress(strength, candidates, refractory) == [0, 4]

    @pytest.mark.parametrize("refractory", [4.0, 62.5, 90.0])
    def test_runs_reach_apart_form_one_cluster(self, refractory):
        # run A's last and strongest sample is `gap` from run B's first and
        # strongest: at gap == reach the two block each other and B's next
        # sample keeps instead, at reach + 1 they are two lone clusters
        reach = math.ceil(refractory) - 1
        for gap in (reach, reach + 1):
            candidates = np.array([10, 11, 12, 12 + gap, 13 + gap, 14 + gap])
            strength = np.zeros(20 + gap)
            strength[candidates] = [1.0, 2.0, 5.0, 4.0, 3.0, 2.0]
            winners, rest = _lone_winners(strength, candidates, reach)
            if gap == reach:
                assert (winners.tolist(), rest.tolist()) == ([], candidates.tolist())
                expected = [12, 13 + gap]
            else:
                assert (winners.tolist(), rest.tolist()) == ([12, 12 + gap], [])
                expected = [12, 12 + gap]
            assert _suppress(strength, candidates, refractory) == expected
            assert strongest_first(strength, candidates, refractory) == expected

    @pytest.mark.parametrize("refractory", [4.0, 62.5, 90.0])
    @pytest.mark.parametrize("strongest_first_member", [True, False])
    def test_strongest_reach_from_the_far_end(self, refractory, strongest_first_member):
        # one run of candidates 5 .. 5 + span: its strongest member at one end
        # blocks the far end at span == reach, a lone cluster, and not at
        # reach + 1, which leaves the run to the byte mask
        reach = math.ceil(refractory) - 1
        for span in (reach, reach + 1):
            candidates = np.arange(5, 6 + span)
            strength = np.zeros(span + 20)
            ramp = np.arange(span + 1, 0, -1) if strongest_first_member else np.arange(1, span + 2)
            strength[candidates] = ramp
            top = int(candidates[np.argmax(ramp)])
            winners, rest = _lone_winners(strength, candidates, reach)
            if span == reach:
                assert (winners.tolist(), rest.tolist()) == ([top], [])
                expected = [top]
            else:
                assert (winners.tolist(), rest.tolist()) == ([], candidates.tolist())
                expected = [5, 5 + span]
            assert _suppress(strength, candidates, refractory) == expected
            assert strongest_first(strength, candidates, refractory) == expected

    @settings(max_examples=40, deadline=None)
    @given(hr=st.floats(30.0, 240.0), fs=st.sampled_from([250.0, 360.0]),
           seed=st.integers(0, 2**31 - 1))
    def test_detector_unchanged_at_30_to_240_bpm(self, hr, fs, seed):
        profile = replace(random_profile(seed), heart_rate_bpm=hr)
        rec, _ = synth_ecg(profile, 20.0, fs)
        clean = preprocess(rec)
        got = detect_rpeaks(clean).indices.tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(beat, "_suppress", strongest_first)
            assert detect_rpeaks(clean).indices.tolist() == got


class TestDetectAgainstOracle:
    """Peaks equal, as bytes, those of the detector that convolved its
    window counts and refined each event alone."""

    @settings(max_examples=80, deadline=None)
    @given(hr=st.floats(30.0, 240.0), fs=st.sampled_from([250.0, 360.0, 500.0, 1000.0]),
           jitter=st.floats(0.0, 0.1), noise=st.floats(0.0, 0.05),
           baseline_removed=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_ecg_at_four_rates(self, hr, fs, jitter, noise, baseline_removed, seed):
        profile = replace(random_profile(seed), heart_rate_bpm=hr, rr_jitter=jitter,
                          noise_sd=noise)
        rec, _ = synth_ecg(profile, 12.0, fs)
        if baseline_removed:
            rec = preprocess(rec)
        assert detect_rpeaks(rec).indices.tobytes() == reference_detect_rpeaks(rec).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(fs=st.sampled_from([250.0, 360.0, 500.0, 1000.0]), levels=st.sampled_from([1.0, 4.0]),
           shift=st.sampled_from([0.0, -10.0]), seconds=st.floats(1.0, 6.0),
           seed=st.integers(0, 2**31 - 1))
    def test_quantised_noise(self, fs, levels, shift, seconds, seed):
        # coarse levels put ties in every refinement range, where the first
        # maximum must win; below zero, a search that reached past the record's
        # ends would find a pad that is not -inf
        x = np.round(np.random.default_rng(seed).normal(size=int(seconds * fs)) * levels)
        rec = EcgRecord("q", fs, x / levels + shift)
        assert detect_rpeaks(rec).indices.tobytes() == reference_detect_rpeaks(rec).tobytes()


def reference_frames(x, peaks, frame_len):
    """The per-segment framing loop: each R-to-R segment interpolated alone."""
    rows = [np.interp(np.linspace(a, b, frame_len), np.arange(a, b + 1), x[a : b + 1])
            for a, b in zip(peaks[:-1], peaks[1:])]
    return np.array(rows).reshape(len(rows), frame_len)


@st.composite
def framing_inputs(draw):
    n = draw(st.integers(2, 2000))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    x *= draw(st.floats(1e-3, 1e3))
    inner = draw(st.lists(st.integers(1, max(n - 2, 1)), max_size=10, unique=True))
    ends = draw(st.sampled_from([(), (0,), (n - 1,), (0, n - 1)]))
    peaks = sorted(set(inner) | set(ends))
    return x, np.asarray(peaks, dtype=int), draw(st.integers(2, 300))


class TestFrameRrMatchesSegmentLoop:
    @settings(max_examples=300, deadline=None)
    @given(framing_inputs())
    def test_bit_identical_to_per_segment_loop(self, case):
        x, peaks, frame_len = case
        fs = frame_rr(EcgRecord("x", FS, x), PeakList(peaks), frame_len)
        want = reference_frames(x, peaks, frame_len)
        assert fs.values.shape == want.shape
        assert fs.values.tobytes() == want.tobytes()
        assert fs.peaks.indices.tolist() == peaks.tolist()


class TestFrameSet:
    @pytest.mark.parametrize("npeaks,nframes", [(0, 1), (1, 1), (3, 1), (3, 3)])
    def test_frame_count_must_match_peaks(self, npeaks, nframes):
        with pytest.raises(ValueError, match="peaks"):
            FrameSet("x", PeakList(np.arange(npeaks) * 10), np.zeros((nframes, 8)))

    @pytest.mark.parametrize("npeaks,nframes", [(0, 0), (1, 0), (2, 1), (5, 4)])
    def test_one_frame_per_pair_of_peaks(self, npeaks, nframes):
        fs = FrameSet("x", PeakList(np.arange(npeaks) * 10), np.zeros((nframes, 8)))
        assert len(fs) == nframes and fs.frame_len == 8

    @pytest.mark.parametrize("shape", [(2,), (1, 1), (1, 0), (1, 2, 2)])
    def test_values_must_be_2d_with_frame_len_at_least_2(self, shape):
        with pytest.raises(ValueError, match="frame_len"):
            FrameSet("x", PeakList(np.array([0, 10])), np.zeros(shape))
