"""Metamorphic relations of the whole pipeline.

A seeded cohort is enrolled and every subject's held-out probe is scored and
decided; then the input is changed in a way whose effect on every output is
known exactly, and the two runs, on the same host, are compared bit for bit.
No pinned value enters, so the relations hold whichever SIMD kernels numpy
runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth.authcore import DEFAULT_TRAIN_WINDOW_S, ReferenceDb, decide, enroll, score_frames
from rrauth.signal import EcgRecord, cohort_profiles, slice_seconds, synth_ecg

from conftest import EPOCH, FS

ENROLLED = 3
DURATION_S = 65.0

seeds = st.integers(0, 2**32 - 1)


def cohort(seed):
    """ENROLLED enrolled subjects and one unknown, as (id, record) pairs."""
    profiles = cohort_profiles(ENROLLED + 1, seed)
    ids = [f"e{k + 1:02d}" for k in range(ENROLLED)] + ["u01"]
    return [(sid, synth_ecg(p, DURATION_S, FS)[0]) for sid, p in zip(ids, profiles)]


def run(subjects, rename=lambda sid: sid):
    """Enrol the enrolled subjects under their renamed ids, then score and
    decide every subject's probe at the median gate."""
    db = ReferenceDb()
    for sid, record in subjects[:ENROLLED]:
        enroll(db, rename(sid), record, enrolled_at=EPOCH)
    gate = db.median_ucl()
    scored = [score_frames(db, slice_seconds(record, DEFAULT_TRAIN_WINDOW_S))
              for _, record in subjects]
    return db, gate, scored, [decide(db, s, gate) for s in scored]


def scaled(subjects, factor):
    return [(sid, EcgRecord(r.subject_id, r.fs, r.samples * factor)) for sid, r in subjects]


@settings(max_examples=15, deadline=None)
@given(seeds, st.sampled_from([-1, 1]))
def test_power_of_two_scale(seed, k):
    # medians, the detector's relative threshold, linear resampling, means,
    # squares and sqrt all commute exactly with a power-of-two scale
    subjects = cohort(seed)
    f = 2.0**k
    db, gate, scored, decisions = run(subjects)
    db2, gate2, scored2, decisions2 = run(scaled(subjects, f))
    assert sorted(db2.entries) == sorted(db.entries)
    for sid, entry in db.entries.items():
        other = db2.entries[sid]
        assert other.curve.tobytes() == (entry.curve * f).tobytes()
        assert other.stats.mses.tobytes() == (entry.stats.mses * f * f).tobytes()
        assert (other.stats.mean, other.stats.std, other.stats.ucl) == \
            (entry.stats.mean * f * f, entry.stats.std * f * f, entry.stats.ucl * f * f)
    assert gate2 == gate * f * f
    for s, s2, d, d2 in zip(scored, scored2, decisions, decisions2):
        assert s2.entity_ids == s.entity_ids
        assert s2.mse.tobytes() == (s.mse * f * f).tobytes()
        assert (d2.kind, d2.apr, d2.entity_id) == (d.kind, d.apr, d.entity_id)
        assert d2.score == (None if d.score is None else d.score * f * f)
        assert d2.scores == {e: v * f * f for e, v in d.scores.items()}


@settings(max_examples=15, deadline=None)
@given(seeds, st.lists(st.text(min_size=1, max_size=6), min_size=ENROLLED,
                       max_size=ENROLLED, unique=True).map(sorted))
def test_order_preserving_rename(seed, names):
    subjects = cohort(seed)
    new = dict(zip(sorted(sid for sid, _ in subjects[:ENROLLED]), names))
    db, gate, scored, decisions = run(subjects)
    db2, gate2, scored2, decisions2 = run(subjects, rename=new.__getitem__)
    assert sorted(db2.entries) == names
    for sid, entry in db.entries.items():
        other = db2.entries[new[sid]]
        assert other.curve.tobytes() == entry.curve.tobytes()
        assert other.stats.mses.tobytes() == entry.stats.mses.tobytes()
        assert other.stats.ucl == entry.stats.ucl
    assert gate2 == gate
    for s, s2, d, d2 in zip(scored, scored2, decisions, decisions2):
        assert s2.entity_ids == tuple(new[e] for e in s.entity_ids)
        assert s2.mse.tobytes() == s.mse.tobytes()
        assert (d2.kind, d2.apr, d2.score) == (d.kind, d.apr, d.score)
        assert d2.entity_id == (None if d.entity_id is None else new[d.entity_id])
        assert d2.scores == {new[e]: v for e, v in d.scores.items()}
