import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth import authcore
from rrauth.authcore import (DbFormatError, KNOWN, REJECTED, UNKNOWN,
                             FrameScores, QualityStats, ReferenceDb,
                             ReferenceEntry, authenticate, compute_ucl,
                             db_to_json, decide, enroll, extract_frames,
                             load_db, save_db, score_frames)
from rrauth.beat import FrameSet, PeakList
from rrauth.learners import DtParams, predict_curve, train_dt
from rrauth.signal import EcgRecord, synth_ecg

from conftest import EPOCH, FS, V1_DOC, quiet_profile


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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="MSE values must be >= 0"):
            QualityStats.from_mses([math.nan, 1.0])

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
        assert {e.frame_len for e in small_db.entries.values()} == {small_db.frame_len}

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

    def test_fewer_than_two_frames_rejected(self):
        rec, _ = synth_ecg(quiet_profile(seed=3), 2.0, 360.0)
        assert len(extract_frames(rec, 50.0, 220)) == 1
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
        frames = extract_frames(rec, 50.0, 220)
        assert len(frames) == 2
        entry = enroll(ReferenceDb(), "s", rec, allow_short=True, enrolled_at=EPOCH)
        assert entry.curve.tobytes() == frames.values.mean(axis=0).tobytes()
        assert entry.stats.mses.tobytes() == \
            np.mean((frames.values - entry.curve) ** 2, axis=1).tobytes()


class TestExtractFrames:
    @pytest.mark.parametrize("window_s", [0.0, -5.0, np.nan, np.inf])
    def test_window_must_be_finite_and_positive(self, window_s):
        rec, _ = synth_ecg(quiet_profile(seed=3), 3.0, 360.0)
        with pytest.raises(ValueError, match="window_s must be finite and > 0"):
            extract_frames(rec, window_s, 220)

    def test_window_too_short_for_two_samples(self):
        rec, _ = synth_ecg(quiet_profile(seed=3), 3.0, 360.0)
        with pytest.raises(ValueError):
            extract_frames(rec, 1.0 / 720.0, 220)

    def test_huge_window_is_the_whole_record(self):
        rec, _ = synth_ecg(quiet_profile(seed=3), 10.0, 360.0)
        whole = extract_frames(rec, rec.duration_s, 220)
        huge = extract_frames(rec, 1e308, 220)
        assert len(whole) > 0
        assert huge.peaks.indices.tobytes() == whole.peaks.indices.tobytes()
        assert huge.values.tobytes() == whole.values.tobytes()


class TestCurveIsTreePrediction:
    """With >= 4 frames the fine tree (minimum leaf 4, no depth cap) on the
    (position, amplitude) pairs predicts exactly the curve `enroll` stores."""

    @settings(max_examples=60, deadline=None)
    @given(n_frames=st.integers(4, 40), frame_len=st.integers(2, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_unbounded_tree(self, n_frames, frame_len, seed):
        # Continuous values: equal samples across positions stop a node early.
        values = np.random.default_rng(seed).normal(size=(n_frames, frame_len))
        frames = FrameSet("x", PeakList(np.arange(n_frames + 1)), values)
        X = np.tile(np.arange(frame_len, dtype=float), n_frames).reshape(-1, 1)
        tree = train_dt(X, values.ravel(), DtParams(max_depth=10**6))
        record = EcgRecord("x", FS, np.zeros(2))
        with mock.patch.object(authcore, "extract_frames", return_value=frames):
            entry = enroll(ReferenceDb(frame_len=frame_len), "x", record,
                           allow_short=True, enrolled_at=EPOCH)
        assert entry.curve.tobytes() == predict_curve(tree, frame_len).tobytes()


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


def stub_db(ids, ucl):
    """Entries with a flat reference curve and the given training UCL."""
    stats = QualityStats(mses=np.zeros(2), mean=0.0, std=0.0, ucl=ucl)
    db = ReferenceDb(frame_len=2)
    for e in ids:
        db.entries[e] = ReferenceEntry(entity_id=e, curve=np.zeros(2), stats=stats,
                                       enrolled_at=EPOCH)
    return db


def column_mean_scores(mse, passing, ids):
    """Reference: one `np.mean` per entity column of the passing rows."""
    sub = mse[passing]
    return {e: float(np.mean(sub[:, k])) for k, e in enumerate(ids)}


class TestScoreFrames:
    @settings(max_examples=40, deadline=None)
    @given(n_entities=st.integers(1, 120), frame_len=st.sampled_from([2, 7, 220, 301]),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_per_entity_loop(self, small_pool, n_entities, frame_len, seed):
        rng = np.random.default_rng(seed)
        stats = QualityStats(mses=np.zeros(2), mean=0.0, std=0.0, ucl=1.0)
        db = ReferenceDb(frame_len=frame_len)
        for k in rng.permutation(n_entities):
            db.entries[f"e{k:03d}"] = ReferenceEntry(
                entity_id=f"e{k:03d}", curve=rng.normal(0.0, 0.5, frame_len),
                stats=stats, enrolled_at=EPOCH)
        rec, _ = small_pool[seed % len(small_pool)]
        scored = score_frames(db, rec)
        matrix = extract_frames(rec, authcore.DEFAULT_TEST_WINDOW_S, frame_len).values
        ids = tuple(db.entity_ids())
        loop = np.column_stack([np.mean((matrix - db.entries[e].curve) ** 2, axis=1)
                                for e in ids])
        assert scored.entity_ids == ids
        assert scored.mse.shape == loop.shape
        assert scored.mse.tobytes() == loop.tobytes()


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

    def test_tie_goes_to_lower_id(self):
        rng = np.random.default_rng(3)
        col = rng.exponential(0.003, size=17)
        mse = np.column_stack([col + 0.001, col, col])
        ids = ("e3", "e2", "e1")
        d = decide(stub_db(ids, 1.0), FrameScores(ids, mse), 1.0)
        assert d.scores == column_mean_scores(mse, np.ones(17, bool), ids)
        assert d.scores["e2"] == d.scores["e1"] < d.scores["e3"]
        assert (d.kind, d.entity_id, d.score) == (KNOWN, "e1", d.scores["e1"])


def assert_same_entries(got: ReferenceDb, want: ReferenceDb) -> None:
    assert got.frame_len == want.frame_len
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
        assert_same_entries(loaded, small_db)
        assert db_to_json(loaded) == db_to_json(small_db)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DbFormatError, match="no database"):
            load_db(tmp_path / "nope.json")

    def test_version_mismatch(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(db_to_json(small_db).replace('"version": "2"', '"version": "0"'),
                        encoding="utf-8")
        with pytest.raises(DbFormatError, match=r"version '0' unsupported"):
            load_db(path)

    def test_v1_tree_db_refused(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps(V1_DOC), encoding="utf-8")
        with pytest.raises(DbFormatError,
                           match=r"version '1' unsupported \(expected '2'\); re-enrol"):
            load_db(path)

    def test_corrupted_structure(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"format": "rrauth-reference-db", "version": "2"}',
                        encoding="utf-8")
        with pytest.raises(DbFormatError, match="corrupted database structure"):
            load_db(path)

    def test_other_format_refused(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"format": "something-else", "version": "2"}', encoding="utf-8")
        with pytest.raises(DbFormatError, match="not a reference database file"):
            load_db(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("not json at all")
        with pytest.raises(DbFormatError, match="JSON"):
            load_db(path)


def _saved_doc(db) -> dict:
    return json.loads(db_to_json(db))


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
        assert loaded.frame_len >= 2
        for entry in loaded.entries.values():
            assert entry.curve.shape == (loaded.frame_len,)
            assert np.all(np.isfinite(entry.curve))
            assert np.all(np.isfinite(entry.stats.mses)) and entry.stats.mses.size >= 2
            assert all(math.isfinite(v) for v in
                       (entry.stats.mean, entry.stats.std, entry.stats.ucl))

    @pytest.mark.parametrize("mutate", [
        lambda e: e["stats"].update(mses=["a", "b"]),
        lambda e: e["stats"].update(ucl="0.001"),
        lambda e: e["stats"].update(ucl=math.nan),
        lambda e: e.update(curve=[math.nan] + e["curve"][1:]),
        lambda e: e.update(curve=[[v] for v in e["curve"]]),
        lambda e: e.update(enrolled_at=0),
    ], ids=["string mses", "string ucl", "nan ucl", "nan curve", "nested curve",
            "number enrolled_at"])
    def test_bad_entity_field(self, small_db, tmp_path, mutate):
        doc = _saved_doc(small_db)
        mutate(doc["entities"]["e01"])
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError, match="entity 'e01'"):
            load_db(tmp_path / "db.json")

    @pytest.mark.parametrize("frame_len", ["220", "x", 1, -220, 219, 220.0])
    def test_bad_frame_len(self, small_db, tmp_path, frame_len):
        doc = _saved_doc(small_db)
        doc["frame_len"] = frame_len
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError):
            load_db(tmp_path / "db.json")

    def test_inner_error_not_rewrapped(self, small_db, tmp_path):
        doc = _saved_doc(small_db)
        doc["entities"]["e02"]["stats"]["ucl"] = -1.0
        _write_doc(tmp_path / "db.json", doc)
        with pytest.raises(DbFormatError) as info:
            load_db(tmp_path / "db.json")
        message = str(info.value)
        assert "corrupted" not in message and "DbFormatError" not in message
        assert message.startswith(str(tmp_path / "db.json") + ": entity 'e02' ucl")
