"""Command-line frontend.

Commands: gen (synthetic cohort), frames (frame dump), enroll, auth, eval,
sweep, bench, rank. All randomness is seed-derived, so identical invocations
on identical inputs produce byte-identical outputs. Exit codes: 0 success
(a quality rejection is a reported outcome, not an error), 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from rrauth import authcore, evalx, infotheory, learners
from rrauth import signal as ecgsig
from rrauth.authcore import ReferenceDb, load_db, save_db
from rrauth.beat import DEFAULT_FRAME_LEN
from rrauth.learners import DtParams

EPOCH_TIMESTAMP = "1970-01-01T00:00:00+00:00"  # fixed default keeps runs replayable
# `bench`'s fine Gaussian SVR (its fine tree is `DtParams()`); epsilon None
# is the IQR/13.49 tube
SVR_PRESET = {"C": 1.0, "epsilon": None, "kernel_scale": 0.35, "max_sweeps": 30}

__all__ = ["main", "build_parser"]


def _print_header(command: str, **values) -> None:
    """Echo the command and its resolved parameters as two comment lines.

    Every command calls this only after all of its fallible work is done,
    so a refused command prints nothing on stdout."""
    pairs = " ".join(f"{k}={v}" for k, v in values.items())
    print(f"# rrauth {command}\n# {pairs}")


# ---------------------------------------------------------------------------
# manifest handling


def _write_output(out_dir, name: str, text: str) -> Path:
    """Write one result file into `out_dir`, creating the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8")
    return out / name


def _write_manifest(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_manifest(path) -> tuple[dict, Path]:
    path = Path(path)
    if not path.exists():
        raise ValueError(f"manifest {path} does not exist")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "subjects" not in doc:
        raise ValueError(f"{path}: not a cohort manifest")
    subjects = doc["subjects"]
    if not isinstance(subjects, list) or not all(isinstance(s, dict) for s in subjects):
        raise ValueError(f"{path}: subjects must be a list of objects")
    for k, subject in enumerate(subjects):
        for key in ("id", "file"):
            if not isinstance(subject.get(key), str):
                raise ValueError(f"{path}: subject {k} has no string {key!r}")
        if subject.get("role") not in ("enrolled", "unknown"):
            raise ValueError(f"{path}: subject {k} role must be 'enrolled' or 'unknown', "
                             f"got {subject.get('role')!r}")
    return doc, path.parent


def _manifest_records(doc: dict, base: Path, offset_s: float = 0.0,
                      enrolled_only: bool = False):
    """Yield (subject dict, record sliced from offset_s) for each subject,
    or for each enrolled subject only."""
    for subject in doc["subjects"]:
        if enrolled_only and subject["role"] != "enrolled":
            continue
        record = ecgsig.load_csv(base / subject["file"], subject_id=subject["id"])
        yield subject, ecgsig.slice_seconds(record, offset_s)


def _check_offset(offset_s: float) -> None:
    if not 0 <= offset_s < math.inf:
        raise ValueError(f"--offset-s must be finite and >= 0, got {offset_s}")


def _check_windows(args) -> None:
    """Reject a window option of the parsed command that is not finite and > 0."""
    for name in ("train_window_s", "test_window_s"):
        window_s = getattr(args, name, None)
        if window_s is not None and not 0 < window_s < math.inf:
            raise ValueError(f"--{name.replace('_', '-')} must be finite and > 0, "
                             f"got {window_s}")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    if args.enrolled < 1:
        raise ValueError(f"need at least 1 enrolled subject, got {args.enrolled}")
    if args.unknown < 0:
        raise ValueError(f"unknown count must be >= 0, got {args.unknown}")
    total = args.enrolled + args.unknown
    profiles = ecgsig.cohort_profiles(total, args.seed, min_separation_mse=args.min_sep)
    # every record is drawn, so fs and the duration are checked, before anything is written
    records = [ecgsig.synth_ecg(profile, args.duration_s, args.fs)[0] for profile in profiles]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    subjects = []
    for k, (profile, record) in enumerate(zip(profiles, records)):
        role = "enrolled" if k < args.enrolled else "unknown"
        sid = f"e{k + 1:02d}" if role == "enrolled" else f"u{k - args.enrolled + 1:02d}"
        record = ecgsig.EcgRecord(sid, record.fs, record.samples)
        ecgsig.save_csv(record, out / f"{sid}.csv")
        subjects.append({
            "id": sid,
            "role": role,
            "file": f"{sid}.csv",
            "seed": profile.seed,
            "profile": dataclasses.asdict(profile),
        })
    manifest = {
        "format": "rrauth-cohort",
        "version": "1",
        "seed": args.seed,
        "fs": args.fs,
        "duration_s": args.duration_s,
        "subjects": subjects,
    }
    _write_manifest(out / "manifest.json", manifest)
    _print_header("gen", seed=args.seed, enrolled=args.enrolled, unknown=args.unknown,
                  fs=args.fs, duration_s=args.duration_s, min_sep_mse=args.min_sep)
    print(f"wrote {total} records + manifest to {out}")
    return 0


def cmd_frames(args) -> int:
    record = ecgsig.load_csv(args.input)
    frames = authcore.extract_frames(record, record.duration_s)
    # one line per frame; a dump of no frames is one empty line
    text = ecgsig._repr_rows(frames.values) or "\n"
    Path(args.dump).write_text(text, encoding="utf-8")
    _print_header("frames", input=args.input, frame_len=DEFAULT_FRAME_LEN)
    print(f"peaks={len(frames.peaks)} frames={len(frames)} -> {args.dump}")
    return 0


def cmd_enroll(args) -> int:
    if args.manifest and (args.input or args.id):
        raise ValueError("enroll takes either --manifest or --input with --id, not both")
    db_path = Path(args.db)
    db = load_db(db_path) if db_path.exists() else ReferenceDb()
    if args.manifest:
        doc, base = _load_manifest(args.manifest)
        targets = [(subject["id"], record) for subject, record
                   in _manifest_records(doc, base, enrolled_only=True)]
    else:
        if not args.input or not args.id:
            raise ValueError("enroll needs either --manifest or --input with --id")
        targets = [(args.id, ecgsig.load_csv(args.input, subject_id=args.id))]
    lines = []
    for entity_id, record in targets:
        entry = authcore.enroll(db, entity_id, record,
                                train_window_s=args.train_window_s,
                                allow_short=args.allow_short,
                                enrolled_at=args.enrolled_at)
        lines.append(f"enrolled {entity_id}: frames={entry.stats.mses.size} "
                     f"mean_mse={entry.stats.mean!r} ucl={entry.stats.ucl!r}")
    save_db(db, db_path)
    _print_header("enroll", db=args.db, frame_len=DEFAULT_FRAME_LEN,
                  train_window_s=args.train_window_s)
    for line in lines:
        print(line)
    print(f"database: {len(db.entries)} entities -> {db_path}")
    return 0


def _resolve_gate(db: ReferenceDb, gate_ucl) -> float:
    return gate_ucl if gate_ucl is not None else db.median_ucl()


def cmd_auth(args) -> int:
    _check_offset(args.offset_s)
    db = load_db(args.db)
    record = ecgsig.slice_seconds(ecgsig.load_csv(args.input), args.offset_s)
    gate = _resolve_gate(db, args.gate_ucl)
    decision = authcore.authenticate(db, record, gate,
                                     test_window_s=args.test_window_s,
                                     apr_min=args.apr_min, id_margin=args.id_margin)
    _print_header("auth", db=args.db, input=args.input, gate_ucl=gate,
                  test_window_s=args.test_window_s, apr_min=args.apr_min,
                  id_margin=args.id_margin, offset_s=args.offset_s)
    if decision.kind == authcore.REJECTED:
        print(f"decision=Rejected apr={decision.apr!r}")
    elif decision.kind == authcore.KNOWN:
        print(f"decision=Known:{decision.entity_id} score={decision.score!r} "
              f"apr={decision.apr!r}")
    else:
        print(f"decision=Unknown score={decision.score!r} apr={decision.apr!r}")
    return 0


def _build_pool(manifest_path, offset_s: float):
    _check_offset(offset_s)
    doc, base = _load_manifest(manifest_path)
    pool = []
    for subject, record in _manifest_records(doc, base, offset_s):
        truth = subject["id"] if subject["role"] == "enrolled" else None
        pool.append((record, truth))
    return pool


def cmd_eval(args) -> int:
    db = load_db(args.db)
    pool = _build_pool(args.manifest, args.offset_s)
    gate = _resolve_gate(db, args.gate_ucl)
    cm, _ = evalx.run_trials(db, pool, n=args.trials, gate_ucl=gate, seed=args.seed,
                             test_window_s=args.test_window_s,
                             apr_min=args.apr_min, id_margin=args.id_margin)
    chi, degenerate = evalx.accuracy(cm)
    op = evalx.overall_performance(cm.accepted, cm.total, chi)
    path = _write_output(args.out, "confusion.csv", evalx.confusion_csv(cm)) if args.out else None
    _print_header("eval", db=args.db, manifest=args.manifest, trials=args.trials,
                  gate_ucl=gate, seed=args.seed, test_window_s=args.test_window_s,
                  apr_min=args.apr_min, id_margin=args.id_margin, offset_s=args.offset_s)
    print(evalx.format_confusion(cm))
    suffix = " (no accepted trials)" if degenerate else ""
    print(f"phi={cm.accepted} N={cm.total} accuracy={chi!r}{suffix} op={op!r}")
    if path:
        print(f"wrote {path}")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be lo:hi:steps, got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid spec must be lo:hi:steps, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {spec!r}")
    if steps < 1:
        raise ValueError(f"grid needs >= 1 step, got {steps}")
    if steps > ecgsig.MAX_POINTS:
        raise ValueError(f"grid needs <= {ecgsig.MAX_POINTS} steps, got {steps}")
    if steps > 1 and hi <= lo:
        raise ValueError(f"grid needs hi > lo, got {spec!r}")
    return np.linspace(lo, hi, steps)


def cmd_sweep(args) -> int:
    db = load_db(args.db)
    pool = _build_pool(args.manifest, args.offset_s)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = evalx.auto_grid(db, points=args.grid_points)
    points, best = evalx.sweep_ucl(db, pool, grid, n=args.trials, seed=args.seed,
                                   test_window_s=args.test_window_s,
                                   apr_min=args.apr_min, id_margin=args.id_margin)
    path = _write_output(args.out, "sweep.csv", evalx.sweep_csv(points))
    _print_header("sweep", db=args.db, manifest=args.manifest, trials=args.trials,
                  seed=args.seed, grid_points=grid.size, grid_lo=float(grid[0]),
                  grid_hi=float(grid[-1]), test_window_s=args.test_window_s,
                  apr_min=args.apr_min, id_margin=args.id_margin, offset_s=args.offset_s)
    print(f"wrote {len(points)} grid points -> {path}")
    print(f"best ucl={best.ucl!r} phi={best.accepted} N={best.n_trials} "
          f"accuracy={best.accuracy!r} op={best.op!r}")
    return 0


def _training_pairs(record, train_window_s):
    """The (position, amplitude) pairs of the frames enrolment averages: X is
    positions 0..DEFAULT_FRAME_LEN-1 once per frame, y the frames row by row."""
    frames = authcore.extract_frames(record, train_window_s)
    if len(frames) < 1:
        raise ValueError("record produced no frames")
    X = np.tile(np.arange(DEFAULT_FRAME_LEN, dtype=float), len(frames))
    return X.reshape(-1, 1), frames.values.ravel()


def _fit_errors(pred: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """RMSE and MAE of predictions against their targets."""
    err = pred - y
    return float(np.sqrt(np.mean(err * err))), float(np.mean(np.abs(err)))


def cmd_bench(args) -> int:
    record = ecgsig.load_csv(args.input)
    X, y = _training_pairs(record, args.train_window_s)
    if X.shape[0] > args.limit:
        keep = np.random.default_rng(args.seed).choice(X.shape[0], size=args.limit,
                                                       replace=False)
        keep.sort()
        X, y = X[keep], y[keep]

    t0 = time.perf_counter()
    dt_model = learners.train_dt(X, y, DtParams())
    dt_time = time.perf_counter() - t0
    dt_pred = learners.predict_curve(dt_model, DEFAULT_FRAME_LEN)[X[:, 0].astype(int)]

    t0 = time.perf_counter()
    svr_model = learners.train_svr(X, y, **SVR_PRESET)
    svr_time = time.perf_counter() - t0
    svr_pred = learners.kernel_predict_batch(svr_model, X)

    dt_rmse, dt_mae = _fit_errors(dt_pred, y)
    svr_rmse, svr_mae = _fit_errors(svr_pred, y)
    rows = [
        ("RMSE (mV)", dt_rmse, svr_rmse),
        ("MAE (mV)", dt_mae, svr_mae),
        ("Training Time (s)", dt_time, svr_time),
    ]
    path = None
    if args.out:
        lines = ["metric,dt,svr"]
        for name, dt_v, svr_v in rows:
            lines.append(f"{name},{dt_v!r},{svr_v!r}")
        path = _write_output(args.out, "bench.csv", "\n".join(lines) + "\n")
    _print_header("bench", input=args.input, pairs=X.shape[0],
                  min_leaf=DtParams.min_leaf_size, kernel_scale=SVR_PRESET["kernel_scale"],
                  svr_c=SVR_PRESET["C"], seed=args.seed)
    print(f"{'metric':<20}{'DT (fine tree)':>18}{'SVR (fine Gaussian)':>22}")
    for name, dt_v, svr_v in rows:
        print(f"{name:<20}{dt_v:>18.6f}{svr_v:>22.6f}")
    if path:
        print(f"wrote {path}")
    return 0


def cmd_rank(args) -> int:
    doc, base = _load_manifest(args.manifest)
    sets = [authcore.extract_frames(record, args.train_window_s)
            for _, record in _manifest_records(doc, base, enrolled_only=True)]
    ranking = infotheory.rank_features(sets, bins=args.bins, top_k=args.k)
    lines = ["position,mi_bits"]
    lines.extend(f"{pos},{mi!r}" for pos, mi in ranking)
    text = "\n".join(lines) + "\n"
    path = _write_output(args.out, "ranking.csv", text) if args.out else None
    _print_header("rank", manifest=args.manifest, bins=args.bins, k=args.k,
                  frame_len=DEFAULT_FRAME_LEN, train_window_s=args.train_window_s)
    if path:
        print(f"wrote {path}")
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_train_window_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-window-s", type=float, default=authcore.DEFAULT_TRAIN_WINDOW_S,
                   metavar="S", help="training truncation window in seconds "
                                     "(default %(default)s)")


def _add_auth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate-ucl", type=float, default=None, metavar="MV2",
                   help="quality gate threshold in mV^2 "
                        "(default: median of enrolled training UCLs)")
    p.add_argument("--test-window-s", type=float, default=authcore.DEFAULT_TEST_WINDOW_S,
                   metavar="S", help="probe truncation window in seconds (default %(default)s)")
    p.add_argument("--apr-min", type=float, default=authcore.DEFAULT_APR_MIN, metavar="FRAC",
                   help="accepted-frame fraction below which to reject (default %(default)s)")
    p.add_argument("--id-margin", type=float, default=authcore.DEFAULT_ID_MARGIN, metavar="X",
                   help="known iff score <= margin * entity UCL (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrauth",
        description="ECG biometric authentication via RR-interval framing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic cohort")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--enrolled", type=int, default=10, help="enrolled subject count")
    p.add_argument("--unknown", type=int, default=2, help="unknown subject count")
    p.add_argument("--seed", type=int, default=42, help="cohort seed")
    p.add_argument("--fs", type=float, default=360.0, help="sampling frequency in Hz")
    p.add_argument("--duration-s", type=float, default=65.0,
                   help="record length in seconds (train + test, default 65)")
    p.add_argument("--min-sep", type=float, default=0.010, metavar="MV2",
                   help="minimum pairwise mean-square template separation "
                        "in mV^2 (default 0.010)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("frames", help="dump RR frames of a record as CSV")
    p.add_argument("--input", required=True, help="ECG CSV path")
    p.add_argument("--dump", required=True, help="output CSV (one row per frame)")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("enroll", help="enroll subjects into a reference database")
    p.add_argument("--db", required=True, help="database JSON path (created if absent)")
    p.add_argument("--manifest", help="cohort manifest; enrolls every 'enrolled' subject")
    p.add_argument("--input", help="single ECG CSV to enroll")
    p.add_argument("--id", help="entity id for --input")
    _add_train_window_flag(p)
    p.add_argument("--allow-short", action="store_true",
                   help="accept records shorter than the training window")
    p.add_argument("--enrolled-at", default=EPOCH_TIMESTAMP,
                   help="stored enrollment timestamp (fixed default keeps "
                        "re-runs byte-identical)")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("auth", help="authenticate one probe record")
    p.add_argument("--db", required=True)
    p.add_argument("--input", required=True, help="probe ECG CSV")
    p.add_argument("--offset-s", type=float, default=0.0, metavar="S",
                   help="skip this many seconds before the probe window (default 0)")
    _add_auth_flags(p)
    p.set_defaults(func=cmd_auth)

    p = sub.add_parser("eval", help="run seeded authentication trials; print the matrix")
    p.add_argument("--db", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset-s", type=float, default=authcore.DEFAULT_TRAIN_WINDOW_S,
                   metavar="S", help="probe offset; defaults to the training window "
                                     "so tests never reuse training samples")
    p.add_argument("--out", help="directory for confusion.csv")
    _add_auth_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep the gate UCL and report overall performance")
    p.add_argument("--db", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", metavar="LO:HI:STEPS",
                   help="explicit UCL grid (mV^2); default: --grid-points points "
                        "spanning 0.5x..3x the median training UCL")
    p.add_argument("--grid-points", type=int, default=40,
                   help="points of the default grid (default %(default)s)")
    p.add_argument("--offset-s", type=float, default=authcore.DEFAULT_TRAIN_WINDOW_S,
                   metavar="S")
    p.add_argument("--out", required=True, help="directory for sweep.csv")
    _add_auth_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bench", help="fit the paper's two presets, a fine tree and a fine Gaussian SVR, "
                      "to one record and compare them",
        description=f"Fit the paper's two presets to one record's (position, amplitude) "
                    f"pairs: a fine tree with minimum leaf size {DtParams.min_leaf_size} "
                    f"and a fine Gaussian SVR with C {SVR_PRESET['C']}, kernel scale "
                    f"{SVR_PRESET['kernel_scale']}, the IQR/13.49 tube and at most "
                    f"{SVR_PRESET['max_sweeps']} solver sweeps. Reports each fit's RMSE, "
                    f"MAE and training time.")
    p.add_argument("--input", required=True, help="ECG CSV supplying training pairs")
    _add_train_window_flag(p)
    p.add_argument("--limit", type=int, default=2000,
                   help="max training pairs; larger sets are subsampled (default 2000)")
    p.add_argument("--seed", type=int, default=0, help="subsampling seed")
    p.add_argument("--out", help="directory for bench.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rank", help="rank frame positions by mutual information")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--k", type=int, default=32, help="positions to report")
    _add_train_window_flag(p)
    p.add_argument("--out", help="directory for ranking.csv")
    p.set_defaults(func=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_windows(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
