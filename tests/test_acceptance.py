"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with `pytest tests/test_acceptance.py -s` to see them inline).

Numbered criteria cover metric arithmetic, the control-limit formula, the
end-to-end synthetic cohort, solver feasibility, detector quality,
persistence and the bench report. Pinned values were produced by this
pipeline at the pinned seeds and are asserted exactly thereafter.
"""

import time

import numpy as np
import pytest

from rrauth.authcore import (DEFAULT_TRAIN_WINDOW_S, QualityStats, ReferenceDb,
                             db_to_json, enroll, load_db, save_db)
from rrauth.beat import detect_rpeaks
from rrauth.cli import SVR_PRESET, _training_pairs, main
from rrauth.evalx import ConfusionMatrix, accuracy, auto_grid, overall_performance, sweep_ucl
from rrauth.infotheory import mutual_information
from rrauth.learners import DtParams, DtSplit, predict_dt, train_dt, train_svr
from rrauth.signal import (EcgRecord, SubjectProfile, cohort_profiles,
                           preprocess, slice_seconds, synth_ecg)

from conftest import (EPOCH, brute_force_best_split, oracle_entropy, oracle_histogram,
                      oracle_joint_histogram, oracle_mi_from_joint, quiet_profile)

FS = 360.0
COHORT_SEED = 42
TRIAL_SEED = 2026

# frozen results of the pinned-seed cohort run (criterion 4)
PINNED_BEST_UCL = 0.000970494751912831
PINNED_PHI = 86
PINNED_CHI = 1.0
PINNED_OP = 0.86


def ok(num: int, msg: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {msg}")


@pytest.fixture(scope="module")
def cohort():
    """10 enrolled + 2 unknown subjects, 65 s each, pinned seed."""
    profiles = cohort_profiles(12, seed=COHORT_SEED)
    db = ReferenceDb(frame_len=220)
    pool = []
    records = {}
    for k, prof in enumerate(profiles):
        sid = f"e{k + 1:02d}" if k < 10 else f"u{k - 9:02d}"
        rec, _ = synth_ecg(prof, 65.0, FS)
        rec = EcgRecord(sid, rec.fs, rec.samples)
        records[sid] = rec
        if k < 10:
            enroll(db, sid, rec, enrolled_at=EPOCH)
        pool.append((slice_seconds(rec, 50.0), sid if k < 10 else None))
    return db, pool, records


def test_01_overall_performance_arithmetic():
    assert overall_performance(100, 100, 0.81) == pytest.approx(0.81, abs=1e-12)
    assert overall_performance(92, 100, 88 / 92) == pytest.approx(0.88, abs=0.005)
    assert overall_performance(61, 70, 0.95) == pytest.approx(0.8279, abs=0.0005)
    assert overall_performance(0, 10, 0.5) == 0.0
    ok(1, "overall performance reproduces the published tuples")


def test_02_confusion_matrix_arithmetic():
    chi1, _ = accuracy(ConfusionMatrix(kk_correct=72, kk_wrong=0, ku=3, uk=16, uu=9))
    assert chi1 == 0.81
    chi2, _ = accuracy(ConfusionMatrix(kk_correct=79, kk_wrong=0, ku=3, uk=1,
                                       uu=9, rejected=8))
    assert chi2 == pytest.approx(0.956522, abs=1e-6)
    ok(2, "confusion-matrix accuracy matches both experiment tables")


def test_03_ucl_formula():
    def ucl(mses):
        return QualityStats.from_mses(mses).ucl

    assert ucl([1.0, 2.0, 3.0]) == 5.0
    assert ucl([0.7, 0.7, 0.7, 0.7]) == 0.7
    rng = np.random.default_rng(11)
    for _ in range(100):
        mses = rng.uniform(0.0, 3.0, size=int(rng.integers(2, 40)))
        c = float(rng.uniform(0.01, 100.0))
        assert ucl(c * mses) == pytest.approx(c * ucl(mses), rel=1e-12)
    ok(3, "mean + 3 sigma control limit exact and scale-equivariant")


def test_04_end_to_end_cohort(cohort):
    db, pool, _ = cohort
    grid = auto_grid(db, points=40)
    points, best = sweep_ucl(db, pool, grid, n=100, seed=TRIAL_SEED)
    assert best.accuracy >= 0.90
    assert best.op >= 0.80
    # pinned-seed exact replay
    assert best.ucl == PINNED_BEST_UCL
    assert best.accepted == PINNED_PHI
    assert best.accuracy == PINNED_CHI
    assert best.op == PINNED_OP
    ok(4, f"cohort argmax: chi={best.accuracy} op={best.op} (>= 0.90 / >= 0.80)")


def test_05_sweep_monotonicity(cohort):
    db, pool, _ = cohort
    # a wide 40-point grid crossing both acceptance transitions
    grid = np.linspace(1e-5, 0.02, 40)
    points, _ = sweep_ucl(db, pool, grid, n=100, seed=TRIAL_SEED)
    phis = [p.accepted for p in points]
    assert all(a <= b for a, b in zip(phis, phis[1:]))
    assert phis[0] < phis[-1]  # the grid actually exercises the gate
    ok(5, f"accepted count non-decreasing across the grid ({phis[0]} -> {phis[-1]})")


def test_06_mutual_information_suite():
    rng = np.random.default_rng(21)
    xs = rng.integers(0, 8, size=50).astype(float)
    assert mutual_information(xs, xs, 8, 8) == pytest.approx(
        oracle_entropy(oracle_histogram(xs, 8)), abs=1e-9)

    a = rng.uniform(size=10_000)
    b = rng.uniform(size=10_000)
    assert mutual_information(a, b, 8, 8) <= 0.02

    for _ in range(20):
        xs = rng.normal(size=300)
        ys = rng.integers(0, 5, size=300).astype(float)
        direct = oracle_mi_from_joint(oracle_joint_histogram(xs, ys, 8, 5))
        assert mutual_information(xs, ys, 8, 5) == pytest.approx(direct, abs=1e-9)
    ok(6, "self-MI, independence bound and both estimator routes agree")


def test_07_tree_against_exhaustive_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(4, 65))
        d = int(rng.integers(1, 4))
        X = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        model = train_dt(X, y, DtParams(min_leaf_size=1))
        preds = np.array([predict_dt(model, row) for row in X])
        assert float(np.sqrt(np.mean((preds - y) ** 2))) == 0.0  # unique rows memorized
        _, f, thr = brute_force_best_split(X, y, min_leaf=1)
        assert isinstance(model.root, DtSplit)
        assert model.root.feature == f
        assert model.root.threshold == thr
    ok(7, "30/30 trees memorize unique data and match the brute-force root split")


def test_08_kernel_machine_feasibility():
    rng = np.random.default_rng(41)
    for _ in range(10):  # regression problems on two features
        n = int(rng.integers(6, 25))
        X = rng.normal(size=(n, 2))
        y = X @ rng.normal(size=2) + 0.2 * rng.normal(size=n)
        C = float(rng.uniform(0.5, 5.0))
        m = train_svr(X, y, C=C, kernel_scale=1.0)
        assert np.all(m.dual >= 0.0) and np.all(m.dual <= C)
        assert abs(np.sum(m.coef)) <= 1e-9
        h = m.objective_history
        assert all(p <= q + 1e-9 for p, q in zip(h, h[1:]))

    for _ in range(10):  # regression problems on one feature
        n = int(rng.integers(6, 21))
        X = rng.normal(size=(n, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
        C = float(rng.uniform(0.5, 3.0))
        m = train_svr(X, y, C=C, epsilon=float(rng.uniform(0.0, 0.2)),
                      kernel_scale=0.7)
        assert abs(np.sum(m.coef)) <= 1e-9
        assert np.all(np.abs(m.coef) <= C + 1e-12)
        h = m.objective_history
        assert all(p <= q + 1e-9 for p, q in zip(h, h[1:]))
    ok(8, "20/20 dual solutions feasible with non-decreasing objectives")


def test_09_rpeak_detection_quality():
    tol = int(round(0.010 * FS))
    for hr in (50.0, 60.0, 90.0, 150.0):
        prof = quiet_profile(seed=int(hr), heart_rate_bpm=hr, rr_jitter=0.05,
                             noise_sd=0.02)
        rec, truth = synth_ecg(prof, 60.0, FS)
        peaks = detect_rpeaks(preprocess(rec))
        hits = sum(1 for t in truth if np.min(np.abs(peaks.indices - t)) <= tol)
        assert hits / len(truth) >= 0.99, f"hr={hr}: {hits}/{len(truth)}"
        assert np.all(np.diff(peaks.indices) >= 0.25 * FS)  # no refractory dupes
    ok(9, "every heart rate: >= 99% of peaks within 10 ms, no duplicates")


def test_10_persistence_round_trip(cohort, tmp_path):
    db, _, _ = cohort
    path = tmp_path / "db.json"
    save_db(db, path)
    loaded = load_db(path)
    for eid, entry in db.entries.items():
        assert np.max(np.abs(entry.curve - loaded.entries[eid].curve)) <= 1e-12
    assert db_to_json(loaded) == path.read_text(encoding="utf-8")
    ok(10, "round-trip predictions exact; re-serialization byte-identical")


def test_11_bench_report(cohort, tmp_path, capsys):
    # At 2000 pairs the two fits take comparable wall time, which other work
    # on the machine can invert; so the fits are timed again in this process
    # on the same pairs, by each side's least thread CPU time over three runs.
    _, _, records = cohort
    from rrauth.signal import load_csv, save_csv
    csv_path = tmp_path / "e01.csv"
    save_csv(records["e01"], csv_path)
    rc = main(["bench", "--input", str(csv_path), "--limit", "2000", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert rows[0] == "metric,dt,svr"
    table = {r.split(",")[0]: (float(r.split(",")[1]), float(r.split(",")[2]))
             for r in rows[1:]}
    assert "Training Time (s)" in table
    for metric, (dt_v, svr_v) in table.items():
        assert np.isfinite(dt_v) and np.isfinite(svr_v), metric
    # the pairs `bench` fits: its default window and subsampling seed
    X, y = _training_pairs(load_csv(csv_path), DEFAULT_TRAIN_WINDOW_S)
    keep = np.sort(np.random.default_rng(0).choice(X.shape[0], size=2000, replace=False))
    X, y = X[keep], y[keep]

    def cpu_time(fit):
        start = time.thread_time()
        fit()
        return time.thread_time() - start

    # alternated, so that both fits meet the same conditions
    times = [(cpu_time(lambda: train_dt(X, y, DtParams())),
              cpu_time(lambda: train_svr(X, y, **SVR_PRESET))) for _ in range(3)]
    dt_time, svr_time = (min(side) for side in zip(*times))
    assert dt_time < svr_time
    ok(11, f"bench at 2000 pairs, least thread time of 3 fits: DT {dt_time:.3f}s < SVR {svr_time:.3f}s")
