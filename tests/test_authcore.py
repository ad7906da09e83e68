import json

import numpy as np
import pytest

from rrauth.authcore import (DbFormatError, KNOWN, REJECTED, UNKNOWN,
                             QualityStats, ReferenceDb, authenticate,
                             compute_ucl, db_to_json, enroll, frame_mse,
                             load_db, save_db, score_frames)
from rrauth.beat import RrFrame
from rrauth.learners import DtParams, predict_curve, train_dt
from rrauth.signal import EcgRecord, synth_ecg

from conftest import EPOCH, quiet_profile


def position_model(targets):
    targets = np.asarray(targets, dtype=float)
    X = np.arange(targets.size, dtype=float).reshape(-1, 1)
    return train_dt(X, targets, DtParams(min_leaf_size=1))


class TestFrameMse:
    def test_exact_match_is_zero(self):
        model = position_model([0.1, 0.5, -0.2, 0.9])
        frame = RrFrame(predict_curve(model, 4), (0, 3))
        assert frame_mse(frame, model) == 0.0

    def test_constant_offset(self):
        model = position_model([0.1, 0.5, -0.2, 0.9])
        frame = RrFrame(predict_curve(model, 4) + 0.3, (0, 3))
        assert frame_mse(frame, model) == pytest.approx(0.09, abs=1e-12)

    def test_hand_computed(self):
        model = position_model([0.0, 0.0])
        frame = RrFrame(np.array([1.0, 3.0]), (0, 1))
        assert frame_mse(frame, model) == pytest.approx(5.0)

    def test_length_mismatch(self):
        model = position_model([0.0, 0.0])
        frame = RrFrame(np.array([1.0, 3.0, 5.0]), (0, 2))
        with pytest.raises(ValueError, match="length"):
            frame_mse(frame, model, expected_length=2)


class TestComputeUcl:
    def test_constant_list(self):
        assert compute_ucl([4.2, 4.2, 4.2]) == pytest.approx(4.2)

    def test_hand_computed(self):
        assert compute_ucl([1.0, 2.0, 3.0]) == 5.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mses = rng.uniform(0.0, 2.0, size=20)
            c = float(rng.uniform(0.1, 10.0))
            assert compute_ucl(c * mses) == pytest.approx(c * compute_ucl(mses),
                                                          rel=1e-12)

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            compute_ucl([1.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_ucl([1.0, -0.1])

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

    def test_entry_curve_matches_model(self, small_db):
        entry = next(iter(small_db.entries.values()))
        assert np.array_equal(entry.curve, predict_curve(entry.model, entry.frame_len))


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
        from rrauth.authcore import decide
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

    def test_empty_db(self, small_pool):
        rec, _ = small_pool[0]
        with pytest.raises(ValueError, match="empty"):
            authenticate(ReferenceDb(), rec, 1.0)


class TestPersistence:
    def test_round_trip_predictions(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        save_db(small_db, path)
        loaded = load_db(path)
        assert loaded.frame_len == small_db.frame_len
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
        assert set(loaded.entries) == set(small_db.entries)
        for eid, want in small_db.entries.items():
            got = loaded.entries[eid]
            assert got.curve.tobytes() == want.curve.tobytes()
            assert got.stats.mses.tobytes() == want.stats.mses.tobytes()
            assert (got.stats.mean, got.stats.std, got.stats.ucl) == \
                (want.stats.mean, want.stats.std, want.stats.ucl)
        assert db_to_json(loaded) == db_to_json(small_db)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DbFormatError, match="no database"):
            load_db(tmp_path / "nope.json")

    def test_version_mismatch(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(db_to_json(small_db).replace('"version": "1"', '"version": "0"'),
                        encoding="utf-8")
        with pytest.raises(DbFormatError, match="version"):
            load_db(path)

    def test_corrupted_structure(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"format": "rrauth-reference-db", "version": "1"}',
                        encoding="utf-8")
        with pytest.raises(DbFormatError, match="corrupted"):
            load_db(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("not json at all")
        with pytest.raises(DbFormatError, match="JSON"):
            load_db(path)
