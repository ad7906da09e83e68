import base64
import itertools
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rrauth import authcore
from rrauth.authcore import (DbFormatError, KNOWN, REJECTED, UNKNOWN,
                             FrameScores, QualityStats, ReferenceDb,
                             ReferenceEntry, authenticate,
                             db_to_json, decide, enroll, extract_frames,
                             load_db, save_db, score_frames)
from rrauth.beat import DEFAULT_FRAME_LEN, FrameSet, PeakList
from rrauth.learners import DtParams, predict_curve, train_dt
from rrauth.signal import EcgRecord, synth_ecg

from conftest import EPOCH, FS, V1_DOC, quiet_profile, retired_doc


class TestComputeUcl:
    def test_constant_list(self):
        assert QualityStats.from_mses([4.2, 4.2, 4.2]).ucl == pytest.approx(4.2)

    def test_hand_computed(self):
        assert QualityStats.from_mses([1.0, 2.0, 3.0]).ucl == 5.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mses = rng.uniform(0.0, 2.0, size=20)
            c = float(rng.uniform(0.1, 10.0))
            assert QualityStats.from_mses(c * mses).ucl == pytest.approx(
                c * QualityStats.from_mses(mses).ucl, rel=1e-12)

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            QualityStats.from_mses([1.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QualityStats.from_mses([1.0, -0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="MSE values must be >= 0"):
            QualityStats.from_mses([math.nan, 1.0])

    def test_inf_rejected(self):
        # load_db refuses non-finite MSEs, so enrolment does too, before any arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="MSE values must be finite"):
                QualityStats.from_mses([math.inf, 1.0])

    @pytest.mark.parametrize("mses", [[0.0, 1.7e308], [1e308, 1e308], [1e160, 0.0, 0.0]],
                             ids=["deviations overflow", "sum overflows", "squares overflow"])
    def test_overflowing_limit_rejected(self, mses):
        # finite MSEs whose mean or spread overflows give no finite limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"MSE values overflow the control limit"):
                QualityStats.from_mses(mses)

    def test_huge_finite_limit_accepted(self):
        qs = QualityStats.from_mses([1e150, 0.0])
        assert math.isfinite(qs.ucl) and qs.ucl > 1e150

    def test_zero_mse_accepted(self):
        # a frame the curve reproduces exactly scores 0.0, which is >= 0
        qs = QualityStats.from_mses([0.0, 1.0])
        assert (qs.mean, qs.std) == (0.5, math.sqrt(0.5))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(2, 300), elements=st.floats(0.0, 1.0)),
           st.integers(-323, 150))
    def test_same_doubles_as_numpy(self, unit, exponent):
        # MSEs at scales from subnormal to 1e150, against numpy's own mean and
        # n-1 spread
        mses = unit * 10.0 ** exponent
        qs = QualityStats.from_mses(mses)
        mean, std = float(np.mean(mses)), float(np.std(mses, ddof=1))
        assert (np.array([qs.mean, qs.std, qs.ucl]).tobytes()
                == np.array([mean, std, mean + 3.0 * std]).tobytes())

    def test_quality_stats_fields(self):
        qs = QualityStats.from_mses([1.0, 2.0, 3.0])
        assert qs.mean == 2.0
        assert qs.std == 1.0
        assert qs.ucl == 5.0


class TestEnroll:
    def test_mean_mse_is_definitional(self, small_db):
        entry = next(iter(small_db.entries.values()))
        assert entry.stats.mean == pytest.approx(entry.stats.mses.mean(), abs=1e-12)
        assert entry.stats.ucl >= entry.stats.mean

    def test_entry_frame_len_is_the_db_frame_len(self, small_db):
        assert {e.frame_len for e in small_db.entries.values()} == {small_db.frame_len} == \
            {DEFAULT_FRAME_LEN}

    def test_duplicate_id_rejected(self, small_db, small_cohort):
        sid, _, rec = small_cohort[0]
        with pytest.raises(ValueError, match="already enrolled"):
            enroll(small_db, sid, rec)

    def test_noiseless_subject_memorized(self):
        rec, _ = synth_ecg(quiet_profile(), 55.0, 360.0)
        db = ReferenceDb()
        entry = enroll(db, "clean", EcgRecord("clean", rec.fs, rec.samples),
                       enrolled_at=EPOCH)
        assert entry.stats.mean <= 1e-4

    def test_short_record_rejected_unless_allowed(self):
        rec, _ = synth_ecg(quiet_profile(seed=1), 20.0, 360.0)
        db = ReferenceDb()
        with pytest.raises(ValueError, match="shorter"):
            enroll(db, "s", rec)
        entry = enroll(db, "s", rec, allow_short=True, enrolled_at=EPOCH)
        assert entry.stats.mses.size >= 2

    def test_record_of_exactly_the_window_enrols(self):
        # the window is a floor: a record of exactly its length is long enough
        rec, _ = synth_ecg(quiet_profile(seed=1), 20.0, 360.0)
        entry = enroll(ReferenceDb(), "s", rec, train_window_s=rec.duration_s,
                       enrolled_at=EPOCH)
        assert entry.stats.mses.size >= 2
        with pytest.raises(ValueError, match="shorter"):
            enroll(ReferenceDb(), "s", rec,
                   train_window_s=math.nextafter(rec.duration_s, math.inf))

    def test_fewer_than_two_frames_rejected(self):
        rec, _ = synth_ecg(quiet_profile(seed=3), 2.0, 360.0)
        assert len(extract_frames(rec, 50.0)) == 1
        db = ReferenceDb()
        with pytest.raises(ValueError, match="need >= 2"):
            enroll(db, "s", rec, allow_short=True)
        assert db.entries == {}

    def test_empty_id_rejected(self, small_cohort):
        db = ReferenceDb()
        with pytest.raises(ValueError, match="non-empty"):
            enroll(db, "", small_cohort[0][2])
        assert db.entries == {}

    def test_two_frame_curve_is_position_mean(self):
        # Below the tree's minimum leaf of 4, which pooled positions here.
        rec, _ = synth_ecg(quiet_profile(seed=3, noise_sd=0.01), 3.0, 360.0)
        frames = extract_frames(rec, 50.0)
        assert len(frames) == 2
        entry = enroll(ReferenceDb(), "s", rec, allow_short=True, enrolled_at=EPOCH)
        assert entry.curve.tobytes() == frames.values.mean(axis=0).tobytes()
        assert entry.stats.mses.tobytes() == \
            np.mean((frames.values - entry.curve) ** 2, axis=1).tobytes()


class TestExtractFrames:
    @pytest.mark.parametrize("window_s", [0.0, -5.0, np.nan, np.inf])
    def test_window_must_be_finite_and_positive(self, window_s):
        # `slice_seconds` checks the window
        rec, _ = synth_ecg(quiet_profile(seed=3), 3.0, 360.0)
        with pytest.raises(ValueError, match="slice duration must be finite and > 0 s"):
            extract_frames(rec, window_s)

    def test_window_too_short_for_two_samples(self):
        rec, _ = synth_ecg(quiet_profile(seed=3), 3.0, 360.0)
        with pytest.raises(ValueError):
            extract_frames(rec, 1.0 / 720.0)

    def test_huge_window_is_the_whole_record(self):
        rec, _ = synth_ecg(quiet_profile(seed=3), 10.0, 360.0)
        whole = extract_frames(rec, rec.duration_s)
        huge = extract_frames(rec, 1e308)
        assert len(whole) > 0
        assert huge.peaks.indices.tobytes() == whole.peaks.indices.tobytes()
        assert huge.values.tobytes() == whole.values.tobytes()


class TestCurveIsTreePrediction:
    """With >= 4 frames the fine tree (minimum leaf 4, no depth cap) on the
    (position, amplitude) pairs predicts exactly the curve `enroll` stores."""

    @settings(max_examples=60, deadline=None)
    @given(n_frames=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_unbounded_tree(self, n_frames, seed):
        # Continuous values: equal samples across positions stop a node early.
        values = np.random.default_rng(seed).normal(size=(n_frames, DEFAULT_FRAME_LEN))
        frames = FrameSet("x", PeakList(np.arange(n_frames + 1)), values)
        X = np.tile(np.arange(DEFAULT_FRAME_LEN, dtype=float), n_frames).reshape(-1, 1)
        tree = train_dt(X, values.ravel(), DtParams(max_depth=10**6))
        record = EcgRecord("x", FS, np.zeros(2))
        with mock.patch.object(authcore, "extract_frames", return_value=frames):
            entry = enroll(ReferenceDb(), "x", record, allow_short=True, enrolled_at=EPOCH)
        assert entry.curve.tobytes() == predict_curve(tree, DEFAULT_FRAME_LEN).tobytes()


class TestAuthenticate:
    def test_self_match_is_known(self, small_db, small_cohort):
        sid, _, rec = small_cohort[0]
        gate = float(small_db.entries[sid].stats.mses.max())
        decision = authenticate(small_db, rec, gate)
        assert decision.kind == KNOWN
        assert decision.entity_id == sid
        assert decision.score <= min(v for k, v in decision.scores.items() if k != sid)

    def test_zero_gate_rejects(self, small_db, small_cohort):
        _, _, rec = small_cohort[0]
        decision = authenticate(small_db, rec, 0.0)
        assert decision.kind == REJECTED
        assert decision.apr == 0.0
        assert decision.scores == {}

    def test_foreign_morphology_unknown(self, small_db):
        # markedly different beat shape: huge wide R, inverted T
        from rrauth.signal import SubjectProfile, Wave
        waves = {
            "P": Wave(phase=0.10, width=0.05, amplitude=-0.2),
            "Q": Wave(phase=0.25, width=0.04, amplitude=0.4),
            "R": Wave(phase=0.35, width=0.06, amplitude=2.5),
            "S": Wave(phase=0.50, width=0.05, amplitude=0.5),
            "T": Wave(phase=0.75, width=0.08, amplitude=-0.6),
        }
        prof = SubjectProfile(72.0, 0.03, waves, 0.01, 99)
        rec, _ = synth_ecg(prof, 20.0, 360.0)
        decision = authenticate(small_db, rec, gate_ucl=1e9, apr_min=0.0)
        assert decision.kind == UNKNOWN
        best = small_db.entries[min(decision.scores, key=decision.scores.get)]
        assert decision.score > best.stats.ucl

    def test_gate_monotone_apr(self, small_db, small_pool):
        rec, _ = small_pool[0]
        scored = score_frames(small_db, rec)
        lo = float(np.quantile(scored.mse.min(axis=1), 0.3))
        hi = 2.0 * lo
        apr_lo = decide(small_db, scored, lo, apr_min=0.0).apr
        apr_hi = decide(small_db, scored, hi, apr_min=0.0).apr
        assert apr_lo <= apr_hi

    def test_decision_totality_and_score_table(self, small_db, small_pool):
        for rec, _ in small_pool:
            d = authenticate(small_db, rec, 1e9, apr_min=0.0)
            assert d.kind in (KNOWN, UNKNOWN, REJECTED)
            assert d.kind != REJECTED
            assert set(d.scores) == set(small_db.entries)
            assert all(np.isfinite(v) for v in d.scores.values())
            assert d.score == min(d.scores.values())

    def test_median_ucl_of_empty_db(self):
        with pytest.raises(ValueError, match="reference database is empty"):
            ReferenceDb().median_ucl()

    def test_empty_db(self, small_pool):
        rec, _ = small_pool[0]
        with pytest.raises(ValueError, match="empty"):
            authenticate(ReferenceDb(), rec, 1.0)

    def test_frameless_probe_rejected(self, small_db):
        flat = EcgRecord("flat", FS, np.full(20 * int(FS), 0.5))
        with pytest.raises(ValueError, match="no frames"):
            score_frames(small_db, flat)

    def test_decide_on_no_frames_is_value_error(self):
        scored = FrameScores(("a",), np.empty((0, 1)))
        with pytest.raises(ValueError, match="no frames"):
            decide(ReferenceDb(), scored, 1.0)

    @pytest.mark.parametrize("kwargs", [{"gate_ucl": math.nan},
                                        {"apr_min": math.nan},
                                        {"id_margin": math.nan}])
    def test_nan_threshold_is_value_error(self, small_db, small_pool, kwargs):
        scored = score_frames(small_db, small_pool[0][0])
        args = {"gate_ucl": 1e9, **kwargs}
        with pytest.raises(ValueError, match="NaN"):
            decide(small_db, scored, **args)


def stub_db(ids, ucl, rng=None):
    """Entries with the given training UCL and a flat reference curve, or
    normal draws from `rng`."""
    stats = QualityStats(mses=np.zeros(2), mean=0.0, std=0.0, ucl=ucl)
    db = ReferenceDb()
    for e in ids:
        curve = (np.zeros(DEFAULT_FRAME_LEN) if rng is None
                 else rng.normal(0.0, 0.5, DEFAULT_FRAME_LEN))
        db.entries[e] = ReferenceEntry(entity_id=e, curve=curve, stats=stats,
                                       enrolled_at=EPOCH)
    return db


def column_mean_scores(mse, passing, ids):
    """Reference: one `np.mean` per entity column of the passing rows."""
    sub = mse[passing]
    return {e: float(np.mean(sub[:, k])) for k, e in enumerate(ids)}


class TestScoreFrames:
    @settings(max_examples=40, deadline=None)
    @given(n_entities=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_per_entity_loop(self, small_pool, n_entities, seed):
        rng = np.random.default_rng(seed)
        stats = QualityStats(mses=np.zeros(2), mean=0.0, std=0.0, ucl=1.0)
        db = ReferenceDb()
        for k in rng.permutation(n_entities):
            db.entries[f"e{k:03d}"] = ReferenceEntry(
                entity_id=f"e{k:03d}", curve=rng.normal(0.0, 0.5, DEFAULT_FRAME_LEN),
                stats=stats, enrolled_at=EPOCH)
        rec, _ = small_pool[seed % len(small_pool)]
        scored = score_frames(db, rec)
        matrix = extract_frames(rec, authcore.DEFAULT_TEST_WINDOW_S).values
        ids = tuple(sorted(db.entries))
        loop = np.column_stack([np.mean((matrix - db.entries[e].curve) ** 2, axis=1)
                                for e in ids])
        assert scored.entity_ids == ids
        assert scored.mse.shape == loop.shape
        assert scored.mse.tobytes() == loop.tobytes()

    @staticmethod
    def broadcast_table(db, values):
        """Reference: the whole (frames, entities, frame_len) broadcast at once."""
        curves = np.stack([db.entries[e].curve for e in sorted(db.entries)])
        return ((values[:, None, :] - curves[None, :, :]) ** 2).mean(axis=2)

    @staticmethod
    def scored_in_blocks(db, values, budget):
        frames = FrameSet("p", PeakList(np.arange(values.shape[0] + 1)), values)
        with mock.patch.object(authcore, "extract_frames", return_value=frames), \
                mock.patch.object(authcore, "_SCORE_BLOCK_BYTES", budget):
            return score_frames(db, EcgRecord("p", FS, np.zeros(2)))

    @settings(max_examples=80, deadline=None)
    @given(n_frames=st.integers(1, 40), n_entities=st.integers(1, 60),
           rows_per_block=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_blocks_bytes_equal_one_broadcast(self, n_frames, n_entities, rows_per_block,
                                              seed):
        # rows_per_block 0: one frame's rows exceed the budget, one frame per block
        rng = np.random.default_rng(seed)
        db = stub_db([f"e{k:03d}" for k in range(n_entities)], 1.0, rng)
        values = rng.normal(0.0, 0.5, (n_frames, DEFAULT_FRAME_LEN))
        frame_bytes = n_entities * DEFAULT_FRAME_LEN * 8
        budget = max(1, rows_per_block * frame_bytes + int(rng.integers(frame_bytes)) - 1)
        scored = self.scored_in_blocks(db, values, budget)
        assert scored.mse.tobytes() == self.broadcast_table(db, values).tobytes()

    def test_frame_over_the_real_budget(self):
        # 600 x 220 x 8 bytes is over 1 MiB: each of the 5 frames is its own block
        rng = np.random.default_rng(7)
        db = stub_db([f"e{k:03d}" for k in range(600)], 1.0, rng)
        assert 600 * 220 * 8 > authcore._SCORE_BLOCK_BYTES
        values = rng.normal(0.0, 0.5, (5, 220))
        scored = self.scored_in_blocks(db, values, authcore._SCORE_BLOCK_BYTES)
        assert scored.mse.tobytes() == self.broadcast_table(db, values).tobytes()


class TestDecideScores:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_scores_equal_per_column_means(self, n_frames, n_entities, seed):
        rng = np.random.default_rng(seed)
        mse = rng.exponential(0.003, size=(n_frames, n_entities))
        ids = tuple(f"e{k:03d}" for k in range(n_entities))
        gate = float(np.quantile(mse.min(axis=1), rng.uniform(0.3, 1.0)))
        d = decide(stub_db(ids, 1.0), FrameScores(ids, mse), gate, apr_min=0.0)
        passing = mse.min(axis=1) <= gate
        assert d.kind == KNOWN
        assert d.scores == column_mean_scores(mse, passing, ids)
        assert all(type(v) is float for v in d.scores.values())

    def test_apr_at_apr_min_is_not_rejected(self):
        # two of four frames pass: an APR of exactly apr_min is enough
        mse = np.array([[0.1], [0.1], [5.0], [5.0]])
        scored, db = FrameScores(("e1",), mse), stub_db(("e1",), 1.0)
        d = decide(db, scored, 1.0, apr_min=0.5)
        assert (d.kind, d.apr) == (KNOWN, 0.5)
        assert decide(db, scored, 1.0, apr_min=math.nextafter(0.5, 1.0)).kind == REJECTED

    def test_score_at_margin_times_ucl_is_known(self):
        # 2.0 * 0.25 and the mean of three 0.5s are both exactly 0.5
        mse = np.full((3, 1), 0.5)
        scored, db = FrameScores(("e1",), mse), stub_db(("e1",), 0.25)
        d = decide(db, scored, 1.0, id_margin=2.0)
        assert (d.kind, d.entity_id, d.score) == (KNOWN, "e1", 0.5)
        assert decide(db, scored, 1.0, id_margin=math.nextafter(2.0, 0.0)).kind == UNKNOWN

    def test_tie_goes_to_lower_id(self):
        rng = np.random.default_rng(3)
        col = rng.exponential(0.003, size=17)
        mse = np.column_stack([col + 0.001, col, col])
        ids = ("e3", "e2", "e1")
        d = decide(stub_db(ids, 1.0), FrameScores(ids, mse), 1.0)
        assert d.scores == column_mean_scores(mse, np.ones(17, bool), ids)
        assert d.scores["e2"] == d.scores["e1"] < d.scores["e3"]
        assert (d.kind, d.entity_id, d.score) == (KNOWN, "e1", d.scores["e1"])

    @settings(max_examples=60, deadline=None)
    @given(n_entities=st.integers(1, 5), n_frames=st.integers(1, 9),
           copies=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4),
           margin=st.sampled_from([0.0, 0.5, 1.0, 4.0]), seed=st.integers(0, 2**32 - 1))
    def test_choice_under_every_order_is_the_score_id_oracle(self, n_entities, n_frames,
                                                             copies, margin, seed):
        # copied columns tie exactly; the entities' own UCLs differ, so a
        # wrong pick among the tied ones can change the kind as well as the id
        rng = np.random.default_rng(seed)
        mse = rng.exponential(0.003, size=(n_frames, n_entities))
        for src, dst in copies:
            mse[:, dst % n_entities] = mse[:, src % n_entities]
        ids = [f"e{k}" for k in range(n_entities)]
        db = ReferenceDb()
        for e in ids:
            stats = QualityStats(mses=np.zeros(2), mean=0.0, std=0.0,
                                 ucl=float(rng.uniform(0.0, 0.006)))
            db.entries[e] = ReferenceEntry(entity_id=e, curve=np.zeros(DEFAULT_FRAME_LEN),
                                           stats=stats, enrolled_at=EPOCH)
        gate = float(np.quantile(mse.min(axis=1), rng.uniform(0.0, 1.0)))
        scores = column_mean_scores(mse, mse.min(axis=1) <= gate, ids)
        best_id = min(ids, key=lambda e: (scores[e], e))
        kind = KNOWN if scores[best_id] <= margin * db.entries[best_id].stats.ucl else UNKNOWN
        want = (kind, best_id if kind == KNOWN else None, scores[best_id])
        for order in itertools.permutations(range(n_entities)):
            scored = FrameScores(tuple(ids[k] for k in order), mse[:, list(order)])
            d = decide(db, scored, gate, apr_min=0.0, id_margin=margin)
            assert (d.kind, d.entity_id, d.score) == want, order
            assert d.scores == scores


class TestMedianUcl:
    EDGES = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-3,
             1e308, 1.7976931348623157e308, math.inf]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1e-2),
                              st.floats(0.0, allow_nan=False)), min_size=1, max_size=12))
    def test_equals_np_median(self, ucls):
        # odd and even counts, ties (the edge values repeat), zeros,
        # subnormals, sums of the middle pair that overflow, and infinity
        db = ReferenceDb()
        for k, ucl in enumerate(ucls):
            stats = QualityStats(mses=np.zeros(2), mean=0.0, std=0.0, ucl=ucl)
            db.entries[f"e{k}"] = ReferenceEntry(entity_id=f"e{k}",
                                                 curve=np.zeros(DEFAULT_FRAME_LEN),
                                                 stats=stats, enrolled_at=EPOCH)
        with np.errstate(over="ignore"):
            want = float(np.median(ucls))
        got = db.median_ucl()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def assert_same_entries(got: ReferenceDb, want: ReferenceDb) -> None:
    assert sorted(got.entries) == sorted(want.entries)
    for eid, w in want.entries.items():
        g = got.entries[eid]
        assert g.curve.tobytes() == w.curve.tobytes()
        assert g.stats.mses.tobytes() == w.stats.mses.tobytes()
        assert (g.stats.mean, g.stats.std, g.stats.ucl) == \
            (w.stats.mean, w.stats.std, w.stats.ucl)
        assert g.enrolled_at == w.enrolled_at


class TestPersistence:
    def test_round_trip_predictions(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        save_db(small_db, path)
        loaded = load_db(path)
        assert set(loaded.entries) == set(small_db.entries)
        for eid in small_db.entries:
            a = small_db.entries[eid].curve
            b = loaded.entries[eid].curve
            assert np.max(np.abs(a - b)) <= 1e-12
            assert loaded.entries[eid].stats.ucl == small_db.entries[eid].stats.ucl

    def test_reserialization_byte_identical(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        save_db(small_db, path)
        assert db_to_json(load_db(path)) == path.read_text(encoding="utf-8")

    def test_compact_one_line(self, small_db):
        text = db_to_json(small_db)
        assert text.count("\n") == 1 and text.endswith("\n")

    def test_indented_layout_still_loads(self, small_db, tmp_path):
        # the layout written before the DB went compact: same document, indent=2
        path = tmp_path / "old.json"
        doc = json.loads(db_to_json(small_db))
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        loaded = load_db(path)
        assert_same_entries(loaded, small_db)
        assert db_to_json(loaded) == db_to_json(small_db)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DbFormatError, match="no database"):
            load_db(tmp_path / "nope.json")

    def test_version_mismatch(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(db_to_json(small_db).replace('"version": "4"', '"version": "0"'),
                        encoding="utf-8")
        with pytest.raises(DbFormatError, match=r"version '0' unsupported"):
            load_db(path)

    def test_v1_tree_db_refused(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(V1_DOC), encoding="utf-8")
        with pytest.raises(DbFormatError, match=r"version '1' unsupported "
                                                r"\(expected '4'\); re-enrol"):
            load_db(path)

    def test_v2_db_refused(self, small_db, tmp_path):
        # the retired layout: arrays as JSON lists and no front end
        path = tmp_path / "v2.json"
        _write_doc(path, retired_doc(_saved_doc(small_db), "2"))
        with pytest.raises(DbFormatError, match=r"version '2' unsupported "
                                                r"\(expected '4'\); re-enrol from the records$"):
            load_db(path)

    def test_v3_db_refused(self, small_db, tmp_path):
        # the retired layout that stored each entity's mean, std and UCL
        path = tmp_path / "v3.json"
        _write_doc(path, retired_doc(_saved_doc(small_db), "3"))
        with pytest.raises(DbFormatError, match=r"version '3' unsupported "
                                                r"\(expected '4'\); re-enrol from the records$"):
            load_db(path)

    def test_v4_layout(self, small_db):
        doc = _saved_doc(small_db)
        assert sorted(doc) == ["entities", "format", "frame_len", "frontend", "version"]
        assert (doc["format"], doc["version"], doc["frontend"], doc["frame_len"]) == \
            ("rrauth-reference-db", "4", authcore.FRONTEND, DEFAULT_FRAME_LEN)
        assert sorted(doc["entities"]) == sorted(small_db.entries)
        for eid, e in doc["entities"].items():
            entry = small_db.entries[eid]
            assert sorted(e) == ["curve", "enrolled_at", "mses"]
            assert base64.b64decode(e["curve"], validate=True) == \
                entry.curve.astype("<f8").tobytes()
            assert base64.b64decode(e["mses"], validate=True) == \
                entry.stats.mses.astype("<f8").tobytes()
            assert e["enrolled_at"] == entry.enrolled_at

    def test_edited_mses_set_the_limit(self, small_db, tmp_path):
        """The limit is read from the stored MSEs: edit them and the loaded
        stats are `from_mses` of the edit, bit for bit."""
        doc = _saved_doc(small_db)
        edited = small_db.entries["e01"].stats.mses * 50.0
        edited[0] = 0.0
        doc["entities"]["e01"]["mses"] = _b64(edited)
        _write_doc(tmp_path / "db.json", doc)
        got = load_db(tmp_path / "db.json").entries["e01"].stats
        want = QualityStats.from_mses(edited)
        assert got.mses.tobytes() == edited.tobytes()
        assert np.array([got.mean, got.std, got.ucl]).tobytes() == \
            np.array([want.mean, want.std, want.ucl]).tobytes()
        assert got.ucl != small_db.entries["e01"].stats.ucl

    @pytest.mark.parametrize("frontend", ["missing", None, "", "rrauth-frontend-0"])
    def test_other_frontend_refused(self, small_db, tmp_path, frontend):
        doc = _saved_doc(small_db)
        if frontend == "missing":
            del doc["frontend"]
        else:
            doc["frontend"] = frontend
        _write_doc(tmp_path / "db.json", doc)
        shown = None if frontend == "missing" else frontend
        with pytest.raises(DbFormatError, match=rf"front end {shown!r} unsupported "
                                                r".*; re-enrol from the records"):
            load_db(tmp_path / "db.json")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_mses=st.integers(2, 40))
    def test_round_trip_is_exact(self, tmp_path_factory, data, n_mses):
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308])
        value = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        curve = data.draw(arrays(np.float64, DEFAULT_FRAME_LEN, elements=value))
        # up to 1e150, so no squared deviation overflows the limit
        mses = data.draw(arrays(np.float64, n_mses, elements=st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, 1e150]), st.floats(0.0, 1e150))))
        stats = QualityStats.from_mses(mses)
        db = ReferenceDb(entries={"x": ReferenceEntry(
            entity_id="x", curve=curve, stats=stats, enrolled_at=EPOCH)})
        path = tmp_path_factory.mktemp("round") / "db.json"
        save_db(db, path)
        loaded = load_db(path)
        assert_same_entries(loaded, db)
        assert not loaded.entries["x"].curve.flags.writeable
        assert not loaded.entries["x"].stats.mses.flags.writeable

    def test_corrupted_structure(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"format": "rrauth-reference-db", "version": "4", '
                        '"frontend": "rrauth-frontend-1"}', encoding="utf-8")
        with pytest.raises(DbFormatError, match="corrupted database structure"):
            load_db(path)

    def test_other_format_refused(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"format": "something-else", "version": "4"}', encoding="utf-8")
        with pytest.raises(DbFormatError, match="not a reference database file"):
            load_db(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("not json at all")
        with pytest.raises(DbFormatError, match="JSON"):
            load_db(path)


def _saved_doc(db) -> dict:
    return json.loads(db_to_json(db))


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


def _negative(value):
    return -abs(value) - 1 if type(value) in (int, float) else -1


MUTATIONS = {
    "string": lambda v: "x",
    "numeric string": lambda v: str(v),
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "nested": lambda v: [v],
    "negative": _negative,
    "null": lambda v: None,
    "bool": lambda v: True,
    "huge int": lambda v: 10 ** 400,
}


def _write_doc(path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestLoadValidation:
    """A damaged DB fails with DbFormatError and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_mutated_leaf_loads_or_raises_db_error(self, small_db, tmp_path_factory,
                                                       data):
        doc = _saved_doc(small_db)
        path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = data.draw(st.sampled_from(["missing", *MUTATIONS]))
        if kind == "missing":
            del parent[path[-1]]
        else:
            parent[path[-1]] = MUTATIONS[kind](parent[path[-1]])
        target = tmp_path_factory.mktemp("fuzz") / "db.json"
        _write_doc(target, doc)
        try:
            loaded = load_db(target)
        except DbFormatError:
            return
        for entry in loaded.entries.values():
            assert entry.curve.shape == (DEFAULT_FRAME_LEN,)
            assert np.all(np.isfinite(entry.curve))
            assert np.all(np.isfinite(entry.stats.mses)) and entry.stats.mses.size >= 2
            assert all(math.isfinite(v) for v in
                       (entry.stats.mean, entry.stats.std, entry.stats.ucl))

    @pytest.mark.parametrize("mutate", [
        lambda e: e.update(mses=["a", "b"]),
        lambda e: e.update(ucl="0.001"),
        lambda e: e.update(ucl=math.nan),
        lambda e: e.update(curve=_b64(np.r_[math.nan, np.frombuffer(
            base64.b64decode(e["curve"]), dtype="<f8")[1:]])),
        lambda e: e.update(curve=[[0.0]] * 220),
        lambda e: e.update(enrolled_at=0),
        lambda e: e.update(stats={"ucl": 1.0}),
    ], ids=["string mses", "string ucl", "nan ucl", "nan curve", "nested curve",
            "number enrolled_at", "v3 stats object"])
    def test_bad_entity_field(self, small_db, tmp_path, mutate):
        doc = _saved_doc(small_db)
        mutate(doc["entities"]["e01"])
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError, match="entity 'e01'"):
            load_db(tmp_path / "db.json")

    @pytest.mark.parametrize("mutate", [
        lambda e: e.update(curve="!" + e["curve"]),
        lambda e: e.update(curve=e["curve"][:8] + "*" + e["curve"][8:]),
        lambda e: e.update(curve=e["curve"][:8] + "\n" + e["curve"][8:]),
        lambda e: e.update(curve=e["curve"] + "="),
        lambda e: e.update(curve=e["curve"].rstrip("=")),
        lambda e: e.update(curve=e["curve"][:-4]),
        lambda e: e.update(curve=base64.b64encode(base64.b64decode(e["curve"])[:-1])
                           .decode("ascii")),
        lambda e: e.update(curve=_b64(np.r_[np.zeros(219), math.nan])),
        lambda e: e.update(curve=_b64(np.r_[math.inf, np.zeros(219)])),
        lambda e: e.update(curve=_b64(np.zeros(219))),
        lambda e: e.update(curve=[0.0] * 220),
        lambda e: e.update(curve=None),
        lambda e: e.update(mses=_b64([0.1, -math.inf])),
        lambda e: e.update(mses=_b64([0.1, -0.2])),
        lambda e: e.update(mses=_b64([0.1])),
        lambda e: e.update(mses="é" + e["mses"]),
        lambda e: e.update(mses=_b64([0.1, math.inf])),
        lambda e: e.update(mses=_b64([0.0, 1.7e308])),
    ], ids=["leading bang", "stray star", "newline", "extra padding", "no padding",
            "truncated text", "7-byte tail", "nan bits", "inf bits", "219 values",
            "v2 list in v3", "null curve", "-inf mse bits", "negative mse",
            "one mse", "non-ascii mses", "inf mse bits", "mse limit overflows"])
    def test_bad_base64_field(self, small_db, tmp_path, mutate):
        doc = _saved_doc(small_db)
        mutate(doc["entities"]["e01"])
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError, match="entity 'e01'"):
            load_db(tmp_path / "db.json")

    def test_zero_std_loads(self, small_db, tmp_path):
        """Equal MSEs give a spread of exactly 0.0, so the limit is their value."""
        doc = _saved_doc(small_db)
        doc["entities"]["e01"]["mses"] = _b64([2e-3] * 5)
        _write_doc(tmp_path / "db.json", doc)
        stats = load_db(tmp_path / "db.json").entries["e01"].stats
        assert (stats.mean, stats.std, stats.ucl) == (2e-3, 0.0, 2e-3)

    @pytest.mark.parametrize("frame_len", ["220", "x", 1, -220, 64, 219, 221, 220.0])
    def test_bad_frame_len(self, small_db, tmp_path, frame_len):
        # the front end cuts 220-point frames only; any other header is re-enrolled
        doc = _saved_doc(small_db)
        doc["frame_len"] = frame_len
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError, match=re.escape(
                f"frame_len {frame_len!r} unsupported (expected 220); re-enrol from the records")):
            load_db(tmp_path / "db.json")

    def test_inner_error_not_rewrapped(self, small_db, tmp_path):
        doc = _saved_doc(small_db)
        doc["entities"]["e02"]["mses"] = _b64([0.1, -1.0])
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError) as info:
            load_db(tmp_path / "db.json")
        message = str(info.value)
        assert "corrupted" not in message and "DbFormatError" not in message
        assert message.startswith(str(tmp_path / "db.json") + ": entity 'e02' mses: ")
