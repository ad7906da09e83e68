"""The enroll, auth and study workloads.

Each workload makes its inputs from a seed with the program's own cohort
generator (`cohort_profiles` + `synth_ecg` at 360 Hz), sets up, and then
runs rounds of timed operations that call the library functions the CLI
commands call. Every output is checked outside the timed regions; an
operation whose output fails its check counts as failed.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed
from rrauth import authcore, beat, evalx, learners
from rrauth import signal as ecgsig

FS = 360.0
EPOCH = "1970-01-01T00:00:00+00:00"  # the CLI's fixed enrolment timestamp
RECORD_S = 65.0                      # the CLI `gen` default record length
TRAIN_S = authcore.DEFAULT_TRAIN_WINDOW_S
PROBE_S = authcore.DEFAULT_TEST_WINDOW_S
SHORT_TRAIN_S = 10.0                 # auth and study enrol on 10 s to keep set-up short
# 0.010 mV^2 (the CLI default) caps a cohort near 30 subjects.
SEPARATION = 0.005
# Subjects at 230 bpm, which SubjectProfile admits. The detector's fixed
# 250 ms refractory misses beats at this rate, so their peak check fails.
# Their profiles come from fixed seeds, not from --seed.
FAST_BPM = 230.0
FAST_SEEDS = (230_001, 230_002, 230_003, 230_004)
SETUP_REPEATS = 3

SIZES = {
    "full": {
        "enroll": {"subjects": 40, "fast": 4, "saves": 3},
        "auth": {"enrolled": 100, "unknown": 25, "loads": 3},
        "study": {"enrolled": 40, "unknown": 10, "trials": 500, "grid": 40,
                  "pairs": 2000},
    },
    "tiny": {
        "enroll": {"subjects": 3, "fast": 1, "saves": 1},
        "auth": {"enrolled": 4, "unknown": 1, "loads": 1},
        "study": {"enrolled": 4, "unknown": 1, "trials": 20, "grid": 5,
                  "pairs": 300},
    },
}


@dataclass
class Ops:
    """Operation counts and the duration of every timed operation."""

    times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    unexpected: list[str] = field(default_factory=list)

    def add(self, kind: str, seconds: float, failure: str | None = None,
            expected: bool = False) -> None:
        self.times[kind].append(seconds)
        self.attempted += 1
        self.busy_s += seconds
        if failure is not None:
            self.failed += 1
            if not expected:
                self.unexpected.append(failure)


@dataclass
class Subject:
    sid: str
    samples: np.ndarray  # the whole synthetic record, mV
    truth: np.ndarray    # its true R indices
    truth_for: str | None = None  # enrolled entity id; None for an unknown subject
    path: Path | None = None
    fault: bool = False  # expected to fail: the known high-rate detector fault


class Workload:
    name = ""

    def __init__(self, seed: int, size: dict, work: Path, tracer=None) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        self.tracer = tracer
        self.truth_by_record: dict[str, np.ndarray] = {}  # record subject_id -> R indices
        self.db_bytes = 0
        self.sweep_decides: list = []
        self.svr_sweeps = 0
        self.svr_fit_times: list[float] = []
        self._verdicts: dict[str, tuple[object, str | None]] = {}

    def _request(self, name: str):
        return self.tracer.request(name) if self.tracer else nullcontext()

    def _unrecorded(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def _op(self, ops: Ops, kind: str, op, check, expected: bool = False):
        """Time `op()`, then run `check(result)` outside the timed region."""
        t0 = time.perf_counter()
        try:
            with self._request(kind):
                result = op()
        except ValueError as exc:
            ops.add(kind, time.perf_counter() - t0, f"{kind}: program error: {exc}",
                    expected)
            return None
        seconds = time.perf_counter() - t0
        try:
            with self._unrecorded():
                check(result)
        except CheckFailed as exc:
            ops.add(kind, seconds, str(exc), expected)
            return result
        ops.add(kind, seconds)
        return result

    def _checked(self, key: str, output, check) -> None:
        """Run `check()`, or give its earlier verdict again when this key's
        output is the same as when it was checked. The program is
        deterministic, so later rounds repeat the first round's outputs."""
        seen = self._verdicts.get(key)
        if seen is not None and seen[0] == output:
            if seen[1] is not None:
                raise CheckFailed(seen[1])
            return
        try:
            check()
        except CheckFailed as exc:
            self._verdicts[key] = (output, str(exc))
            raise
        self._verdicts[key] = (output, None)

    def _cohort(self, count: int, duration_s: float) -> list[Subject]:
        profiles = ecgsig.cohort_profiles(count, self.seed, min_separation_mse=SEPARATION)
        subjects = []
        for k, profile in enumerate(profiles):
            record, truth = ecgsig.synth_ecg(profile, duration_s, FS)
            subjects.append(Subject(f"s{k + 1:03d}", record.samples, truth))
        return subjects

    def _enroll_all(self, db, subjects, train_window_s: float) -> None:
        for s in subjects:
            record = ecgsig.EcgRecord(s.sid, FS, s.samples)
            with self._request("setup.enroll"):
                authcore.enroll(db, s.sid, record, train_window_s=train_window_s,
                                enrolled_at=EPOCH)
            self.truth_by_record[s.sid] = s.truth

    def setup(self) -> None:
        raise NotImplementedError

    def round_part(self, ops: Ops, part: int, parts: int) -> None:
        """Run the part-th of `parts` slices of one round; the slices of a
        round together run each of its operations once."""
        raise NotImplementedError

    def round(self, ops: Ops, parts: int = 1) -> None:
        for part in range(parts):
            self.round_part(ops, part, parts)

    def detail(self, ops: Ops) -> dict:
        raise NotImplementedError


def _ms(values) -> float:
    return statistics.median(values) * 1e3


def _p95_ms(values) -> float:
    return statistics.quantiles(values, n=20)[-1] * 1e3 if len(values) > 1 else values[0] * 1e3


class Enroll(Workload):
    """Onboarding: read each record from CSV and enrol it into a fresh DB
    with the default 50 s window, then save the DB a few times."""

    name = "enroll"

    def setup(self) -> None:
        n = self.size["subjects"]
        self.subjects = self._cohort(n, RECORD_S)
        for k, seed in enumerate(FAST_SEEDS[: self.size["fast"]]):
            profile = replace(ecgsig.random_profile(seed), heart_rate_bpm=FAST_BPM)
            record, truth = ecgsig.synth_ecg(profile, RECORD_S, FS)
            self.subjects.append(Subject(f"hr230-{k + 1}", record.samples, truth, fault=True))
        for s in self.subjects:
            s.path = self.work / f"{s.sid}.csv"
            ecgsig.save_csv(ecgsig.EcgRecord(s.sid, FS, s.samples), s.path)
            self.truth_by_record[s.sid] = s.truth

    def round_part(self, ops: Ops, part: int, parts: int) -> None:
        if part == 0:
            self.db = authcore.ReferenceDb()
        db = self.db
        for s in self.subjects[part::parts]:
            self._op(ops, "enroll",
                     lambda: authcore.enroll(db, s.sid, ecgsig.load_csv(s.path, subject_id=s.sid),
                                             enrolled_at=EPOCH),
                     lambda entry: self._checked(
                         s.sid, (entry.curve.tobytes(), entry.stats.mses.tobytes(),
                                 entry.stats.ucl),
                         lambda: self._check_enroll(s, entry)),
                     expected=s.fault)
        if part < parts - 1:
            return
        path = self.work / "db.json"
        for _ in range(self.size["saves"]):
            self._op(ops, "save_db", lambda: authcore.save_db(db, path),
                     lambda _: checks.check_same_db(db, authcore.load_db(path)))
        self.db_bytes = path.stat().st_size

    def _check_enroll(self, s: Subject, entry) -> None:
        n_keep = int(round(TRAIN_S * FS))
        clean = ecgsig.preprocess(ecgsig.EcgRecord(s.sid, FS, s.samples[:n_keep]))
        peaks = beat.detect_rpeaks(clean)
        checks.check_peaks(peaks.indices, s.truth[s.truth < n_keep], FS)
        checks.check_reference(entry, beat.frame_rr(clean, peaks, entry.frame_len).matrix())

    def detail(self, ops: Ops) -> dict:
        return {"enroll_ms_p50": _ms(ops.times["enroll"]),
                "db_save_s": statistics.median(ops.times["save_db"])}


class Auth(Workload):
    """The gate: load the DB of a large cohort, then authenticate one held-out
    15 s probe CSV per enrolled subject and per unknown subject, each once."""

    name = "auth"

    def setup(self) -> None:
        n_enrolled = self.size["enrolled"]
        self.probes = self._cohort(n_enrolled + self.size["unknown"], SHORT_TRAIN_S + PROBE_S)
        start = int(round(SHORT_TRAIN_S * FS))
        for k, s in enumerate(self.probes):
            s.truth_for = s.sid if k < n_enrolled else None
            s.path = self.work / f"{s.sid}-probe.csv"
            probe = ecgsig.slice_seconds(ecgsig.EcgRecord(s.path.stem, FS, s.samples),
                                         SHORT_TRAIN_S)
            ecgsig.save_csv(probe, s.path)
            truth = s.truth - start
            self.truth_by_record[s.path.stem] = truth[truth >= 0]
        self.reference = authcore.ReferenceDb()
        self._enroll_all(self.reference, self.probes[:n_enrolled], SHORT_TRAIN_S)
        self.db_path = self.work / "db.json"
        authcore.save_db(self.reference, self.db_path)
        self.db_bytes = self.db_path.stat().st_size

    def round_part(self, ops: Ops, part: int, parts: int) -> None:
        db = self.reference
        for _ in range(part, self.size["loads"], parts):
            loaded = self._op(ops, "load_db", lambda: authcore.load_db(self.db_path),
                              lambda got: checks.check_same_db(self.reference, got))
            db = loaded or db
        gate = float(np.median([e.stats.ucl for e in db.entries.values()]))  # CLI default
        for s in self.probes[part::parts]:
            self._op(ops, "auth",
                     lambda: authcore.authenticate(db, ecgsig.load_csv(s.path), gate),
                     lambda decision: self._checked(
                         s.sid, (gate, decision.kind, decision.apr, decision.entity_id,
                                 decision.score, sorted(decision.scores.items())),
                         lambda: self._check_probe(db, s, gate, decision)))

    def _check_probe(self, db, s: Subject, gate: float, decision) -> None:
        probe = ecgsig.slice_seconds(ecgsig.EcgRecord(s.sid, FS, s.samples), SHORT_TRAIN_S)
        clean = ecgsig.preprocess(probe)
        frames = beat.frame_rr(clean, beat.detect_rpeaks(clean), db.frame_len).matrix()
        want = checks.expected_decision(db, frames, gate, authcore.DEFAULT_APR_MIN,
                                        authcore.DEFAULT_ID_MARGIN)
        checks.check_decision(decision, want, s.truth_for)

    def detail(self, ops: Ops) -> dict:
        return {"db_load_s": statistics.median(ops.times["load_db"]),
                "auth_ms_p50": _ms(ops.times["auth"]),
                "auth_ms_p95": _p95_ms(ops.times["auth"])}


class Study(Workload):
    """The paper's offline experiments: the UCL sweep over the auto grid on
    held-out probes, then the tree-versus-kernel fit of the `bench` command."""

    name = "study"

    def setup(self) -> None:
        n_enrolled = self.size["enrolled"]
        subjects = self._cohort(n_enrolled + self.size["unknown"], RECORD_S)
        self.db = authcore.ReferenceDb()
        self._enroll_all(self.db, subjects[:n_enrolled], SHORT_TRAIN_S)
        # probes start at the CLI's default offset (--train-window-s = 50 s)
        start = int(round(TRAIN_S * FS))
        self.pool = []
        for k, s in enumerate(subjects):
            probe = ecgsig.slice_seconds(ecgsig.EcgRecord(f"{s.sid}-probe", FS, s.samples),
                                         TRAIN_S)
            self.pool.append((probe, s.sid if k < n_enrolled else None))
            truth = s.truth - start
            self.truth_by_record[probe.subject_id] = truth[truth >= 0]
        # The solver's sweep count varies two-fold between records, so the
        # bench record is fixed: e01 of the CLI's default cohort (gen --seed 42).
        bench, _ = ecgsig.synth_ecg(ecgsig.cohort_profiles(1, seed=42)[0], RECORD_S, FS)
        self.X, self.y = self._bench_pairs(ecgsig.EcgRecord("e01", FS, bench.samples))

    def _bench_pairs(self, record):
        """The (position, amplitude) pairs of `rrauth bench` at its defaults:
        baseline removed on the whole record, first 50 s framed, 2000 pairs
        drawn with --seed 0."""
        clean = ecgsig.preprocess(record)
        clean = ecgsig.EcgRecord(clean.subject_id, FS, clean.samples[: int(round(TRAIN_S * FS))])
        matrix = beat.frame_rr(clean, beat.detect_rpeaks(clean), beat.DEFAULT_FRAME_LEN).matrix()
        X = np.tile(np.arange(beat.DEFAULT_FRAME_LEN, dtype=float), matrix.shape[0]).reshape(-1, 1)
        y = matrix.ravel()
        keep = np.random.default_rng(0).choice(X.shape[0], size=self.size["pairs"],
                                               replace=False)
        keep.sort()
        return X[keep], y[keep]

    def round_part(self, ops: Ops, part: int, parts: int) -> None:
        # Two sweeps, at trial seeds n and n + 1, as two `rrauth sweep` runs:
        # one ~6 s sweep alone varies by ~8 % with the machine's load.
        steps = (lambda: self._sweep(ops, self.seed),
                 lambda: self._op(ops, "bench", self._bench, self._check_bench),
                 lambda: self._sweep(ops, self.seed + 1))
        for step in steps[part::parts]:
            step()

    def _sweep(self, ops: Ops, seed: int) -> None:
        grid = evalx.auto_grid(self.db, points=self.size["grid"])
        mark = len(self.tracer.decide_keys) if self.tracer else 0
        self._op(ops, "sweep",
                 lambda: evalx.sweep_ucl(self.db, self.pool, grid, n=self.size["trials"],
                                         seed=seed),
                 lambda result: self._check_sweep(grid, seed, *result))
        if self.tracer:
            self.sweep_decides = self.tracer.decide_keys[mark:]

    def _bench(self):
        dt_model = learners.train_dt(self.X, self.y, learners.DtParams(min_leaf_size=4))
        t0 = time.perf_counter()
        svr = learners.train_svr(self.X, self.y, C=1.0, epsilon=None, kernel_scale=0.35,
                                 max_sweeps=30)
        self.svr_fit_times.append(time.perf_counter() - t0)
        self.svr_sweeps = len(svr.objective_history)
        return dt_model, svr

    def _check_sweep(self, grid, seed: int, points, best) -> None:
        checks.check_sweep(points, best)
        k = len(points) // 2
        cm, _ = evalx.run_trials(self.db, self.pool, n=self.size["trials"],
                                 gate_ucl=float(grid[k]), seed=seed)
        checks.check_sweep_point(points[k], cm, evalx.accuracy(cm)[0])

    def _check_bench(self, models) -> None:
        dt_model, svr = models
        positions = self.X[:, 0].astype(int)
        curve = learners.predict_curve(dt_model, beat.DEFAULT_FRAME_LEN)
        checks.check_beats_mean("dt", curve[positions], self.y)
        checks.check_svr(svr, learners.kernel_predict_batch(svr, self.X), self.y)

    def detail(self, ops: Ops) -> dict:
        return {"sweep_s": statistics.median(ops.times["sweep"]),
                "svr_fit_s": statistics.median(self.svr_fit_times)}


WORKLOADS = {w.name: w for w in (Enroll, Auth, Study)}
