#!/usr/bin/env python3
"""Self-test of the benchmark: every output check must reject one
deliberately wrong output and accept the right one, and every workload must
run to its end at a tiny size, with and without tracing.

Run from the repository root:

    python3 benchmarks/selftest.py

It exits with 0 when every case behaves, and names each case that does not.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

run._import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from rrauth import authcore, beat, evalx, learners  # noqa: E402
from rrauth import signal as ecgsig  # noqa: E402
from workloads import EPOCH, FS, SEPARATION  # noqa: E402

problems: list[str] = []


def expect(name: str, check, *args, fails: bool) -> None:
    try:
        check(*args)
    except CheckFailed:
        if not fails:
            problems.append(f"{name}: rejected a right output")
        return
    if fails:
        problems.append(f"{name}: accepted a wrong output")


def check_the_checks() -> None:
    profiles = ecgsig.cohort_profiles(4, seed=7, min_separation_mse=SEPARATION)
    records, truths = [], []
    for k, profile in enumerate(profiles):
        record, truth = ecgsig.synth_ecg(profile, 65.0, FS)
        records.append(ecgsig.EcgRecord(f"s{k}", FS, record.samples))
        truths.append(truth)

    # enroll: peaks, reference curve, UCL, round trip
    db = authcore.ReferenceDb()
    for record in records[:3]:
        authcore.enroll(db, record.subject_id, record, enrolled_at=EPOCH)
    n_keep = int(round(50.0 * FS))
    clean = ecgsig.preprocess(ecgsig.EcgRecord("s0", FS, records[0].samples[:n_keep]))
    peaks = beat.detect_rpeaks(clean).indices
    truth = truths[0][truths[0] < n_keep]
    frames = beat.frame_rr(clean, beat.PeakList(peaks), db.frame_len).matrix()
    entry = db.entries["s0"]
    expect("peaks", checks.check_peaks, peaks, truth, FS, fails=False)
    expect("peaks shifted 14 ms", checks.check_peaks, peaks + 5, truth, FS, fails=True)
    expect("reference", checks.check_reference, entry, frames, fails=False)
    shifted = entry.curve + 0.01  # with MSEs and UCL consistent with the shifted curve
    expect("reference shifted curve", checks.check_reference,
           replace(entry, curve=shifted, stats=authcore.QualityStats.from_mses(
               np.mean((frames - shifted) ** 2, axis=1))), frames, fails=True)
    expect("reference wrong UCL", checks.check_reference,
           replace(entry, stats=replace(entry.stats, ucl=entry.stats.ucl * 1.01)), frames,
           fails=True)
    other = authcore.ReferenceDb(entries=dict(db.entries))
    expect("round trip", checks.check_same_db, db, other, fails=False)
    other.entries["s1"] = replace(db.entries["s1"], curve=db.entries["s1"].curve[::-1].copy())
    expect("round trip changed curve", checks.check_same_db, db, other, fails=True)

    # auth: decision rule and truth
    gate = float(np.median([e.stats.ucl for e in db.entries.values()]))
    probe = ecgsig.preprocess(ecgsig.slice_seconds(records[1], 50.0))
    probe_frames = beat.frame_rr(probe, beat.detect_rpeaks(probe), db.frame_len).matrix()
    decision = authcore.authenticate(db, ecgsig.slice_seconds(records[1], 50.0), gate * 3)
    want = checks.expected_decision(db, probe_frames, gate * 3, authcore.DEFAULT_APR_MIN,
                                    authcore.DEFAULT_ID_MARGIN)
    if decision.kind != authcore.KNOWN:
        problems.append(f"auth self-test probe was {decision.kind}, needs to be known")
    expect("decision", checks.check_decision, decision, want, "s1", fails=False)
    expect("decision swapped to unknown", checks.check_decision,
           replace(decision, kind=authcore.UNKNOWN, entity_id=None), want, "s1", fails=True)
    expect("decision names another entity", checks.check_decision,
           replace(decision, entity_id="s2"), want, "s1", fails=True)
    expect("decision wrong score table", checks.check_decision,
           replace(decision, scores={**decision.scores, "s2": decision.scores["s2"] * 1.5}),
           want, "s1", fails=True)
    expect("unknown subject accepted", checks.check_decision, decision, want, None, fails=True)
    expect("probe misidentified", checks.check_decision, decision, want, "s2", fails=True)

    # study: sweep properties and the kernel regressor
    pool = [(ecgsig.slice_seconds(r, 50.0), r.subject_id if k < 3 else None)
            for k, r in enumerate(records)]
    grid = evalx.auto_grid(db, points=6)
    points, best = evalx.sweep_ucl(db, pool, grid, n=30, seed=3)
    expect("sweep", checks.check_sweep, points, best, fails=False)
    falling = list(points)  # op and best kept consistent with the lowered count
    low = falling[-2].accepted - 1
    falling[-1] = replace(falling[-1], accepted=low,
                          op=low / falling[-1].n_trials * falling[-1].accuracy)
    expect("sweep decreasing accepted", checks.check_sweep, falling,
           max(falling, key=lambda p: p.op), fails=True)
    wrong_op = list(points)
    wrong_op[0] = replace(wrong_op[0], op=wrong_op[0].op + 0.1)
    expect("sweep wrong op", checks.check_sweep, wrong_op, best, fails=True)
    expect("sweep wrong best", checks.check_sweep, points,
           replace(best, ucl=best.ucl + 1.0), fails=True)
    cm, _ = evalx.run_trials(db, pool, n=30, gate_ucl=float(grid[3]), seed=3)
    expect("sweep point", checks.check_sweep_point, points[3], cm, evalx.accuracy(cm)[0],
           fails=False)
    cm_other, _ = evalx.run_trials(db, pool, n=30, gate_ucl=float(grid[3]), seed=4)
    if (cm_other.accepted, evalx.accuracy(cm_other)[0]) != (cm.accepted, evalx.accuracy(cm)[0]):
        expect("sweep point other seed", checks.check_sweep_point, points[3], cm_other,
               evalx.accuracy(cm_other)[0], fails=True)
    expect("sweep point other gate", checks.check_sweep_point, replace(points[3], accepted=-1),
           cm, evalx.accuracy(cm)[0], fails=True)

    X = np.tile(np.arange(20.0), 10).reshape(-1, 1)
    y = np.sin(X[:, 0] / 3.0) + 0.05 * np.random.default_rng(0).normal(size=X.shape[0])
    svr = learners.train_svr(X, y, C=1.0, kernel_scale=0.35, max_sweeps=30)
    pred = learners.kernel_predict_batch(svr, X)
    expect("svr", checks.check_svr, svr, pred, y, fails=False)
    outside = svr.dual.copy()
    outside[0] = svr.C + 0.5
    expect("svr dual outside box", checks.check_svr, replace(svr, dual=outside), pred, y,
           fails=True)
    unbalanced = svr.coef.copy()
    unbalanced[0] += 0.1
    expect("svr unbalanced coefficients", checks.check_svr, replace(svr, coef=unbalanced),
           pred, y, fails=True)
    history = svr.objective_history
    expect("svr decreasing objective", checks.check_svr,
           replace(svr, objective_history=history + (history[-1] - 1.0,)), pred, y, fails=True)
    expect("svr no better than the mean", checks.check_svr, svr,
           np.full_like(y, y.mean()), y, fails=True)


def check_tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"tiny {workload} --trace {trace}"
            out = subprocess.run([sys.executable, str(Path(run.__file__).resolve()),
                                  "--workload", workload, "--seed", "5", "--seconds", "1",
                                  "--trace", str(trace), "--size", "tiny"],
                                 capture_output=True, text=True, check=False)
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            elif set(result["metrics"]) != names[trace]:
                problems.append(f"{label}: metrics {sorted(result['metrics'])}")


def check_bare_directory() -> None:
    """Without the program's source the benchmark must fail and print no result."""
    bare = run.OUT / "bare-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "enroll",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180,
                             check=False)
        if out.returncode == 0 or out.stdout.strip():
            problems.append(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_the_checks()
    check_tiny_runs()
    check_bare_directory()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
