"""Metamorphic relations of the whole pipeline.

A seeded cohort is enrolled and every subject's held-out probe is scored and
decided; then the input is changed in a way whose effect on every output is
known exactly, and the two runs, on the same host, are compared bit for bit.
No pinned value enters, so the relations hold whichever SIMD kernels numpy
runs. The last relation, a baseline shift of the probe, holds on decisions
only, and is checked on fixed cohorts.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth.authcore import (DEFAULT_TRAIN_WINDOW_S, ReferenceDb, decide, enroll, save_db,
                             score_frames)
from rrauth.cli import main
from rrauth.signal import EcgRecord, cohort_profiles, load_csv, save_csv, slice_seconds, synth_ecg

from conftest import COHORT_SEED, EPOCH, FS

ENROLLED = 3
DURATION_S = 65.0
# an open gate passes every frame, and at this margin the unknown probe and
# some enrolled ones are Unknown: each probe is decided there too
NARROW_MARGIN = 0.35

seeds = st.integers(0, 2**32 - 1)


def cohort(seed):
    """ENROLLED enrolled subjects and one unknown, as (id, record) pairs."""
    profiles = cohort_profiles(ENROLLED + 1, seed)
    ids = [f"e{k + 1:02d}" for k in range(ENROLLED)] + ["u01"]
    return [(sid, synth_ecg(p, DURATION_S, FS)[0]) for sid, p in zip(ids, profiles)]


def run(subjects, rename=lambda sid: sid, extra=(), gate=None):
    """Enrol the enrolled subjects under their renamed ids, and the `extra`
    (id, record) pairs, then score every subject's probe. Each probe is
    decided at `gate`, by default the median gate, and then at an open gate
    and NARROW_MARGIN: the decisions list holds both, in that order."""
    db = ReferenceDb()
    for sid, record in [*subjects[:ENROLLED], *extra]:
        enroll(db, rename(sid), record, enrolled_at=EPOCH)
    gate = db.median_ucl() if gate is None else gate
    scored = [score_frames(db, slice_seconds(record, DEFAULT_TRAIN_WINDOW_S))
              for _, record in subjects]
    decisions = [decide(db, s, gate) for s in scored]
    decisions += [decide(db, s, math.inf, id_margin=NARROW_MARGIN) for s in scored]
    return db, gate, scored, decisions


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
    for s, s2 in zip(scored, scored2):
        assert s2.entity_ids == s.entity_ids
        assert s2.mse.tobytes() == (s.mse * f * f).tobytes()
    for d, d2 in zip(decisions, decisions2):
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
    for s, s2 in zip(scored, scored2):
        assert s2.entity_ids == tuple(new[e] for e in s.entity_ids)
        assert s2.mse.tobytes() == s.mse.tobytes()
    for d, d2 in zip(decisions, decisions2):
        assert (d2.kind, d2.apr, d2.score) == (d.kind, d.apr, d.score)
        assert d2.entity_id == (None if d.entity_id is None else new[d.entity_id])
        assert d2.scores == {new[e]: v for e, v in d.scores.items()}


@settings(max_examples=10, deadline=None)
@given(seeds, st.text(min_size=1, max_size=6), st.sampled_from([16.0, 64.0, 256.0]))
def test_far_entity(seed, far_id, factor):
    # an entity whose curve is far from every probe frame is never a frame's
    # best match, so the gate, the APR and the other entities' scores keep
    # their bits; the median gate would move, so the gate is held fixed
    subjects = cohort(seed)
    if far_id in {sid for sid, _ in subjects}:
        far_id += "+"
    far = EcgRecord(far_id, FS, subjects[-1][1].samples * factor)
    db, gate, scored, decisions = run(subjects)
    db2, gate2, scored2, decisions2 = run(subjects, extra=[(far_id, far)], gate=gate)
    assert sorted(db2.entries) == sorted([*db.entries, far_id])
    column = scored2[0].entity_ids.index(far_id)
    for s, s2 in zip(scored, scored2):
        assert s2.mse[:, column].min() > s.mse.max()  # far from every probe frame
        assert s2.entity_ids == tuple(sorted([*s.entity_ids, far_id]))
        kept = [s2.entity_ids.index(e) for e in s.entity_ids]
        assert s2.mse[:, kept].tobytes() == s.mse.tobytes()
    for d, d2 in zip(decisions, decisions2):
        assert (d2.kind, d2.apr, d2.entity_id, d2.score) == (d.kind, d.apr, d.entity_id, d.score)
        assert {e: v for e, v in d2.scores.items() if e != far_id} == d.scores


def auth_lines(*argv):
    """The exit status, stdout after the two header lines, and stderr of
    `rrauth auth`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["auth", *argv])
    return rc, out.getvalue().splitlines()[2:], err.getvalue()


@settings(max_examples=10, deadline=None)
@given(seeds, st.floats(0.0, 60.0))
def test_offset_is_a_cut_record(seed, offset_s):
    # `auth --offset-s` on a record decides as `auth` on that record cut by
    # `slice_seconds`, written by `save_csv` and read back, which is exact
    subjects = cohort(seed)
    db = run(subjects)[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_db(db, tmp / "db.json")
        for sid, record in subjects:
            whole, cut = tmp / f"{sid}.csv", tmp / f"{sid}_cut.csv"
            save_csv(record, whole)
            sliced = slice_seconds(load_csv(whole), offset_s)
            save_csv(sliced, cut)
            assert load_csv(cut).samples.tobytes() == sliced.samples.tobytes()
            assert auth_lines("--db", str(tmp / "db.json"), "--input", str(whole),
                              f"--offset-s={offset_s!r}") == \
                auth_lines("--db", str(tmp / "db.json"), "--input", str(cut))


@pytest.mark.parametrize("seed", [COHORT_SEED, 0, 1, 2])  # COHORT_SEED: small_pool's cohort
def test_baseline_shift_keeps_the_decision(seed):
    # preprocessing removes a DC offset and a slow drift, so each probe keeps
    # its decision's kind and entity. Not bit for bit: the 0.6 s median window
    # is even, so each median is the mean of two samples
    subjects = cohort(seed)
    db, gate, _, decisions = run(subjects)
    at_gate = decisions[:len(subjects)]  # the median gate's; the open gate's follow
    for offset_mv, drift_mv_per_s in [(5.0, 0.0), (-2.5, 0.0), (0.0, 0.1)]:
        for (sid, record), d in zip(subjects, at_gate):
            probe = slice_seconds(record, DEFAULT_TRAIN_WINDOW_S)
            t = np.arange(probe.samples.size) / probe.fs
            shifted = EcgRecord(sid, probe.fs, probe.samples + offset_mv + drift_mv_per_s * t)
            d2 = decide(db, score_frames(db, shifted), gate)
            assert (d2.kind, d2.entity_id) == (d.kind, d.entity_id), \
                (sid, offset_mv, drift_mv_per_s)
