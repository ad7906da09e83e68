#!/usr/bin/env python3
"""Benchmark of the rrauth pipeline: the enroll, auth and study workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload enroll --seed 1 --seconds 10 --trace 0

The workload makes its inputs from --seed and sets up three times (set-up
time is the median of the three). Its first round of timed operations runs
in three parts, one after each set-up; whole rounds follow until --seconds
have passed since the first set-up. Every output is checked outside the
timed regions. With --trace 1 it sets up once with tracing on, runs one
round with tracing off and one with tracing on, and reports per-layer
figures and the tracing overhead; spans go to
.bench_out/trace-<workload>-seed<n>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload, each in
a fresh process. BLAS and OpenMP are pinned to one thread. The program is
imported from src/ next to this directory and nowhere else.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("enroll", "auth", "study")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program() -> None:
    """Put src/ first on the path and make sure rrauth comes from there."""
    package = SRC / "rrauth"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import rrauth
    if Path(rrauth.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: rrauth imported from {rrauth.__file__}, not {package}")


def _end_to_end(setup_times: list[float], ops, rounds: int) -> dict:
    # Each operation of a round counted at its kind's median duration, so one
    # stalled call does not move the figure.
    job_s = sum(len(times) / rounds * statistics.median(times)
                for times in ops.times.values())
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "job_s": {"value": job_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def _per_layer(workload, tracer, plain_s: float, traced_s: float) -> dict:
    from checks import near
    from workloads import FS

    matched = detected = 0
    for subject_id, peaks in tracer.peaks:
        truth = workload.truth_by_record.get(subject_id)
        if truth is not None and len(peaks):
            matched += int(near(truth, peaks.indices, FS).sum())
            detected += len(peaks)
    decides = workload.sweep_decides
    m = tracer.median
    values = {
        "signal.load_csv_ms": (m("signal.load_csv", 1e3), "ms"),
        "signal.preprocess_ms": (m("signal.preprocess", 1e3), "ms"),
        "beat.detect_rpeaks_ms": (m("beat.detect_rpeaks", 1e3), "ms"),
        "beat.frame_rr_ms": (m("beat.frame_rr", 1e3), "ms"),
        "beat.peak_precision": (matched / detected if detected else 0.0, "ratio"),
        "learners.train_dt_ms": (m("learners.train_dt", 1e3), "ms"),
        "learners.predict_curve_ms": (m("learners.predict_curve", 1e3), "ms"),
        "learners.train_svr_s": (m("learners.train_svr", 1.0), "s"),
        "learners.svr_sweeps": (workload.svr_sweeps, "count"),
        "authcore.enroll_self_ms": (m("authcore.enroll", 1e3, self_time=True), "ms"),
        "authcore.score_frames_self_ms": (m("authcore.score_frames", 1e3, self_time=True), "ms"),
        "authcore.decide_us": (m("authcore.decide", 1e6), "us"),
        "authcore.db_to_json_s": (m("authcore.db_to_json", 1.0), "s"),
        "authcore.save_db_self_s": (m("authcore.save_db", 1.0, self_time=True), "s"),
        "authcore.load_db_self_s": (m("authcore.load_db", 1.0, self_time=True), "s"),
        "authcore.db_mb": (workload.db_bytes / 1e6, "MB"),
        "evalx.sweep_ucl_self_s": (m("evalx.sweep_ucl", 1.0, self_time=True), "s"),
        "evalx.decide_calls": (len(decides), "count"),
        "evalx.decide_reuse": (len(decides) / len(set(decides)) if decides else 0.0, "ratio"),
        "trace.overhead_pct": ((traced_s / plain_s - 1.0) * 100.0, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from spans import Tracer
    from workloads import SETUP_REPEATS, SIZES, WORKLOADS, Ops

    cls = WORKLOADS[name]
    work = OUT / f"work-{name}-{os.getpid()}"
    ops = Ops()

    def fresh_workload(tracer=None):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return cls(seed, SIZES[size][name], work, tracer)

    def timed_round(workload) -> float:
        before = ops.busy_s
        workload.round(ops)
        return ops.busy_s - before

    try:
        if not trace:
            # The first round is cut into one part per set-up, each run right
            # after its set-up, so its samples span the whole run and a slow
            # spell of the machine weighs on a third of them, not all.
            workload = fresh_workload()
            setup_times = []
            for part in range(SETUP_REPEATS):
                if part:
                    shutil.rmtree(work)
                    work.mkdir()
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
                if part == 0:
                    deadline = time.perf_counter() + seconds
                workload.round_part(ops, part, SETUP_REPEATS)
            rounds = 1
            while time.perf_counter() < deadline:
                workload.round(ops)
                rounds += 1
            metrics = _end_to_end(setup_times, ops, rounds)
        else:
            tracer = Tracer()
            workload = fresh_workload(tracer)
            tracer.install()
            workload.setup()
            tracer.uninstall()
            workload.tracer = None
            plain_s = timed_round(workload)
            workload.tracer = tracer
            tracer.install()
            traced_s = timed_round(workload)
            tracer.uninstall()
            metrics = _per_layer(workload, tracer, plain_s, traced_s)
            tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        print(json.dumps({"workload": name, "seed": seed, "detail": workload.detail(ops),
                          "unexpected_failures": ops.unexpected[:20]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": not ops.unexpected, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' runs each workload at a few subjects, for the self-test")
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code

    for var in THREAD_VARS:  # read by the BLAS and OpenMP runtimes when numpy loads
        os.environ[var] = "1"
    _import_program()
    OUT.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
