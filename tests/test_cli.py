import base64
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rrauth import authcore, cli
from rrauth.authcore import load_db
from rrauth.beat import detect_rpeaks, frame_rr
from rrauth.cli import build_parser, main
from rrauth.learners import DtParams, predict_curve, train_dt
from rrauth.signal import MAX_POINTS, load_csv, preprocess, save_csv, slice_seconds, synth_ecg

from conftest import V1_DOC, quiet_profile, retired_doc


def run_cli(*argv):
    """`python -m rrauth.cli` in a subprocess, so a traceback would show."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "rrauth.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort") / "c"
    rc = main(["gen", "--out", str(out), "--enrolled", "3", "--unknown", "1",
               "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def db_path(cohort_dir, tmp_path_factory):
    db = tmp_path_factory.mktemp("db") / "db.json"
    rc = main(["enroll", "--db", str(db), "--manifest",
               str(cohort_dir / "manifest.json")])
    assert rc == 0
    return db


class TestGen:
    def test_writes_records_and_manifest(self, cohort_dir):
        files = sorted(p.name for p in cohort_dir.iterdir())
        assert files == ["e01.csv", "e02.csv", "e03.csv", "manifest.json", "u01.csv"]

    def test_manifest_roles(self, cohort_dir):
        doc = json.loads((cohort_dir / "manifest.json").read_text())
        roles = {s["id"]: s["role"] for s in doc["subjects"]}
        assert roles == {"e01": "enrolled", "e02": "enrolled", "e03": "enrolled",
                         "u01": "unknown"}

    def test_byte_identical_rerun(self, cohort_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["gen", "--out", str(out2), "--enrolled", "3", "--unknown", "1",
                     "--seed", "5"]) == 0
        for name in ("e01.csv", "u01.csv", "manifest.json"):
            assert (out2 / name).read_bytes() == (cohort_dir / name).read_bytes()

    def test_manifest_bytes_pinned(self, tmp_path):
        # the manifest holds each subject's drawn profile and seed, not its
        # samples, so its bytes do not depend on which SIMD exp numpy runs
        assert main(["gen", "--out", str(tmp_path), "--seed", "42", "--enrolled", "2",
                     "--unknown", "1"]) == 0
        digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
        assert digest == "8598dc33498f0e612ac58f999e14558ddeb6bc4b17a04cdd0eb71b0e26068c12"

    def test_zero_enrolled_is_domain_error(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--enrolled", "0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_negative_unknown_is_domain_error(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--unknown", "-1"])
        assert rc == 1
        assert "unknown count must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_huge_count_exits_1_and_creates_nothing(self, tmp_path, capsys):
        # its (count, frame_len) template buffer fails to allocate at once
        out = tmp_path / "gbig"
        assert main(["gen", "--out", str(out), "--enrolled", "1000000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("gen: error: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--fs", "inf", "fs must be finite"), ("--fs", "nan", "fs must be finite"),
        ("--duration-s", "inf", "duration must be finite"),
        ("--duration-s", "nan", "duration must be finite"),
        ("--min-sep", "nan", "separation must be a number"),
    ])
    def test_non_finite_value_exits_1_without_traceback(self, flag, value, message,
                                                        tmp_path):
        proc = run_cli("gen", "--out", str(tmp_path / "g"), "--enrolled", "1",
                       "--unknown", "0", flag, value)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list((tmp_path / "g").glob("*.csv"))

    @pytest.mark.parametrize("flag,value", [
        ("--fs", "inf"), ("--fs", "50"), ("--duration-s", "nan"), ("--duration-s", "0.5"),
        ("--min-sep", "nan"),
        # finite, but fs * duration overflows the record's sample count
        ("--fs", "1e308"), ("--duration-s", "1.7e308"),
    ])
    def test_refused_gen_creates_and_prints_nothing(self, flag, value, tmp_path):
        # every argument is checked before the output directory is made
        proc = run_cli("gen", "--out", str(tmp_path / "g"), "--enrolled", "1",
                       "--unknown", "0", flag, value)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "g").exists()


class TestEnrollAuth:
    def test_enroll_then_auth_known(self, cohort_dir, db_path, capsys):
        rc = main(["auth", "--db", str(db_path),
                   "--input", str(cohort_dir / "e01.csv"), "--offset-s", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("decision=")][0]
        assert line.startswith("decision=Known:e01 ")
        assert "score=" in line and "apr=" in line

    def test_auth_leaves_numpy_ma_unimported(self, cohort_dir, db_path):
        # the default gate is the median UCL, taken without np.median, whose
        # first call imports numpy.ma
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        bare = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, check=True)
        if bare.stdout.strip() == "True":
            pytest.skip("importing numpy alone imports numpy.ma here")
        code = ("import sys\n"
                "from rrauth.cli import main\n"
                "rc = main(sys.argv[1:])\n"
                "print('numpy.ma' in sys.modules, rc)\n")
        proc = subprocess.run([sys.executable, "-c", code, "auth", "--db", str(db_path),
                               "--input", str(cohort_dir / "e01.csv"), "--offset-s", "50"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "decision=Known:e01 " in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False 0"

    def test_auth_zero_gate_rejected_exit_zero(self, cohort_dir, db_path, capsys):
        rc = main(["auth", "--db", str(db_path), "--gate-ucl", "0",
                   "--input", str(cohort_dir / "e01.csv"), "--offset-s", "50"])
        assert rc == 0  # a rejection is an outcome, not an error
        out = capsys.readouterr().out
        assert "decision=Rejected apr=0" in out

    def test_auth_zero_margin_prints_unknown(self, cohort_dir, db_path, capsys):
        rc = main(["auth", "--db", str(db_path), "--id-margin", "0",
                   "--input", str(cohort_dir / "e01.csv"), "--offset-s", "50"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("decision=Unknown score=") and " apr=" in line

    def test_enroll_needs_target(self, tmp_path, capsys):
        rc = main(["enroll", "--db", str(tmp_path / "db.json")])
        assert rc == 1

    def test_duplicate_enroll_is_domain_error(self, cohort_dir, db_path, capsys):
        rc = main(["enroll", "--db", str(db_path),
                   "--input", str(cohort_dir / "e01.csv"), "--id", "e01"])
        assert rc == 1
        assert "already enrolled" in capsys.readouterr().err


class TestEval:
    def test_matrix_cells_sum_to_trials(self, cohort_dir, db_path, capsys, tmp_path):
        rc = main(["eval", "--db", str(db_path), "--manifest",
                   str(cohort_dir / "manifest.json"), "--trials", "20",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        row_known = next(l for l in lines if l.startswith("pred known"))
        row_unknown = next(l for l in lines if l.startswith("pred unknown"))
        rejected = next(l for l in lines if l.startswith("rejected:"))
        cells = [int(v) for v in row_known.split()[2:]]
        cells += [int(v) for v in row_unknown.split()[2:]]
        cells.append(int(rejected.split(":")[1]))
        assert sum(cells) == 20
        assert next(l for l in lines if l.startswith("phi=")).split()[1] == "N=20"
        csv = (tmp_path / "confusion.csv").read_text().splitlines()
        assert csv[0] == "kk_correct,kk_wrong,ku,uk,uu,rejected,N"
        assert int(csv[1].split(",")[-1]) == 20


class TestSweep:
    def test_row_count_matches_grid(self, cohort_dir, db_path, tmp_path, capsys):
        rc = main(["sweep", "--db", str(db_path), "--manifest",
                   str(cohort_dir / "manifest.json"), "--trials", "10",
                   "--seed", "3", "--grid", "0.0005:0.005:7",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "ucl,phi,N,accuracy,op"
        assert len(rows) == 1 + 7
        assert "best ucl=" in capsys.readouterr().out

    def test_byte_identical_rerun(self, cohort_dir, db_path, tmp_path):
        # a second run with the same seeds rewrites the same bytes, except
        # bench's training times
        manifest = str(cohort_dir / "manifest.json")
        runs = {
            "sweep.csv": ["sweep", "--db", str(db_path), "--manifest", manifest,
                          "--trials", "10", "--seed", "3", "--grid-points", "5"],
            # at 200 trials two different seeds give equal counts for ~5 % of seed
            # pairs on this cohort, at 20 trials for ~16 %
            "confusion.csv": ["eval", "--db", str(db_path), "--manifest", manifest,
                              "--trials", "200", "--seed", "3"],
            "ranking.csv": ["rank", "--manifest", manifest],
            "bench.csv": ["bench", "--input", str(cohort_dir / "e01.csv"), "--limit", "300"],
        }
        for name, argv in runs.items():
            texts = []
            for d in ("a", "b"):
                assert main([*argv, "--out", str(tmp_path / name / d)]) == 0
                lines = (tmp_path / name / d / name).read_bytes().splitlines(keepends=True)
                texts.append(b"".join(l for l in lines
                                      if not l.startswith(b"Training Time (s),")))
            if name == "bench.csv":
                assert texts[0].count(b"\n") == 3
            assert texts[0] == texts[1], name

    def test_bad_grid_spec(self, cohort_dir, db_path, tmp_path):
        rc = main(["sweep", "--db", str(db_path), "--manifest",
                   str(cohort_dir / "manifest.json"), "--grid", "oops",
                   "--out", str(tmp_path)])
        assert rc == 1


class TestRankAndFrames:
    def test_rank_csv_sorted(self, cohort_dir, tmp_path, capsys):
        rc = main(["rank", "--manifest", str(cohort_dir / "manifest.json"),
                   "--k", "10", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "ranking.csv").read_text().splitlines()
        assert rows[0] == "position,mi_bits"
        assert len(rows) == 11
        mis = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(mis, mis[1:]))
        assert capsys.readouterr().out.endswith("\n".join(rows) + "\n")

    def test_exact_ties_listed_by_position(self, tiny_cohort, tmp_path, capsys):
        # at 72 positions each amplitude bin holds frames of one entity only:
        # their MI is exactly H(labels), so they tie and go in position order
        assert main(["rank", "--manifest", str(tiny_cohort / "manifest.json"),
                     "--k", "220", "--out", str(tmp_path)]) == 0
        rows = [r.split(",") for r in (tmp_path / "ranking.csv").read_text().splitlines()[1:]]
        top = [int(pos) for pos, mi in rows if mi == "0.9992089388648364"]
        assert len(top) == 72
        assert [int(pos) for pos, _ in rows[:72]] == top == sorted(top)
        assert float(rows[72][1]) < 0.9992089388648364

    def test_frames_dump_of_no_frames_is_one_empty_line(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("fs=360.0\n" + "0.5\n" * 720, encoding="utf-8")
        dump = tmp_path / "flat_frames.csv"
        assert main(["frames", "--input", str(flat), "--dump", str(dump)]) == 0
        assert dump.read_bytes() == b"\n"
        assert capsys.readouterr().out.splitlines()[-1].endswith(f"frames=0 -> {dump}")

    def test_rank_zero_bins_is_domain_error(self, cohort_dir, capsys):
        rc = main(["rank", "--manifest", str(cohort_dir / "manifest.json"),
                   "--bins", "0"])
        assert rc == 1
        assert "bins must be >= 1" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["auth", "--db", "x", "--input", "y", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_db_is_domain_error(self, tmp_path, capsys):
        rc = main(["auth", "--db", str(tmp_path / "missing.json"),
                   "--input", str(tmp_path / "missing.csv")])
        assert rc == 1


class TestBench:
    def test_report_rows(self, cohort_dir, tmp_path, capsys):
        rc = main(["bench", "--input", str(cohort_dir / "e01.csv"),
                   "--limit", "400", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RMSE (mV)" in out and "MAE (mV)" in out and "Training Time" in out
        rows = (tmp_path / "bench.csv").read_text().splitlines()
        assert rows[0] == "metric,dt,svr"
        assert len(rows) == 4

    def test_least_limit_is_a_fit(self, cohort_dir, capsys):
        # --limit 2 is the least accepted: both trainers fit two pairs
        assert main(["bench", "--input", str(cohort_dir / "e01.csv"), "--limit", "2"]) == 0
        assert " pairs=2 " in capsys.readouterr().out

    def test_one_frame_is_a_fit(self, tmp_path, capsys):
        # two beats, one RR frame: 220 pairs
        one = tmp_path / "one.csv"
        save_csv(slice_seconds(synth_ecg(quiet_profile(), 10.0, 360.0)[0], 0.0, 2.0), one)
        assert main(["bench", "--input", str(one)]) == 0
        assert " pairs=220 " in capsys.readouterr().out

    def test_record_without_frames(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("fs=360.0\n" + "0.0\n" * 3600, encoding="utf-8")
        assert main(["bench", "--input", str(flat)]) == 1
        assert "record produced no frames" in capsys.readouterr().err


class TestOneExtractionPath:
    """`bench` and `rank` analyse the very frames `enroll` trained on, on the
    pinned cohort (seed 42, e01-e10): each frame's MSE against the stored
    curve reproduces the stored training MSEs exactly."""

    @pytest.fixture(scope="class")
    def pinned(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pinned")
        assert main(["gen", "--out", str(out / "c"), "--enrolled", "10",
                     "--unknown", "0", "--seed", "42"]) == 0
        assert main(["enroll", "--db", str(out / "db.json"),
                     "--manifest", str(out / "c" / "manifest.json")]) == 0
        return out / "c", load_db(out / "db.json")

    @staticmethod
    def assert_enrolled_frames(entry, matrix):
        mses = np.mean((matrix - entry.curve) ** 2, axis=1)
        assert mses.tobytes() == entry.stats.mses.tobytes(), entry.entity_id

    def test_bench_pairs_are_enrolment_frames(self, pinned):
        cohort, db = pinned
        assert sorted(db.entries) == [f"e{k:02d}" for k in range(1, 11)]
        for eid, entry in db.entries.items():
            X, y = cli._training_pairs(load_csv(cohort / f"{eid}.csv"), 50.0)
            assert X[:220, 0].tolist() == list(range(220))
            self.assert_enrolled_frames(entry, y.reshape(-1, 220))

    def test_enrolled_curves_are_default_tree_curves(self, pinned):
        cohort, db = pinned
        for eid, entry in db.entries.items():
            X, y = cli._training_pairs(load_csv(cohort / f"{eid}.csv"), 50.0)
            tree = train_dt(X, y, DtParams())
            assert predict_curve(tree, 220).tobytes() == entry.curve.tobytes(), eid

    def test_rank_sets_are_enrolment_frames(self, pinned, monkeypatch, capsys):
        cohort, db = pinned
        seen = []
        rank_features = cli.infotheory.rank_features

        def capture(sets, **kwargs):
            seen.extend(sets)
            return rank_features(sets, **kwargs)

        monkeypatch.setattr(cli.infotheory, "rank_features", capture)
        assert main(["rank", "--manifest", str(cohort / "manifest.json")]) == 0
        assert [fs.entity_id for fs in seen] == sorted(db.entries)
        for frames in seen:
            self.assert_enrolled_frames(db.entries[frames.entity_id], frames.values)

    def test_frames_dump_covers_whole_record(self, pinned, tmp_path, capsys):
        # a record's CRLF or space-padded copy reads as float reads each line
        # and gives its frames; a trailing space leaves no line plain, so
        # each padded line goes through float
        cohort, _ = pinned
        for eid in ("e02", "e06"):
            text = (cohort / f"{eid}.csv").read_bytes()
            values = np.array([float(line) for line in text.splitlines()[1:]])
            clean = preprocess(load_csv(cohort / f"{eid}.csv"))
            frames = frame_rr(clean, detect_rpeaks(clean), 220)
            want = "".join(",".join(repr(v) for v in row) + "\n"
                           for row in frames.values.tolist())
            for ending in ("lf", "crlf", "space"):
                record = tmp_path / f"{eid}_{ending}.csv"
                record.write_bytes(text.replace(
                    b"\n", {"lf": b"\n", "crlf": b"\r\n", "space": b" \n"}[ending]))
                assert load_csv(record).samples.tobytes() == values.tobytes(), ending
                dump = tmp_path / f"{eid}_{ending}_frames.csv"
                assert main(["frames", "--input", str(record), "--dump", str(dump)]) == 0
                assert dump.read_text(encoding="utf-8") == want
                assert capsys.readouterr().out.splitlines()[-1] == \
                    f"peaks={len(frames.peaks)} frames={len(frames)} -> {dump}"
            # the dump's values, read as one column, are the frames' own
            column = tmp_path / f"{eid}_column.csv"
            column.write_text("fs=360.0\n" + want.replace(",", "\n"), encoding="utf-8")
            assert load_csv(column).samples.tobytes() == frames.values.tobytes()


class TestNonFiniteFs:
    """An `fs=inf` header is a domain error (exit 1), never a traceback."""

    @pytest.mark.parametrize("command", ["enroll", "auth", "frames"])
    def test_exits_1_without_traceback(self, command, db_path, tmp_path):
        csv = tmp_path / "inf.csv"
        csv.write_text("fs=inf\n" + "0.0\n0.5\n" * 200, encoding="utf-8")
        args = {
            "enroll": ["--db", str(tmp_path / "db.json"), "--input", str(csv),
                       "--id", "a", "--allow-short"],
            "auth": ["--db", str(db_path), "--input", str(csv)],
            "frames": ["--input", str(csv), "--dump", str(tmp_path / "f.csv")],
        }[command]
        proc = run_cli(command, *args)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "fs must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestV1DbRefused:
    """A version-1 (tree-per-entity) DB is refused with a re-enrol message;
    enroll leaves the file as it was."""

    @pytest.mark.parametrize("command", ["auth", "enroll"])
    def test_exits_1_without_traceback(self, command, cohort_dir, tmp_path):
        db = tmp_path / "v1.json"
        db.write_text(json.dumps(V1_DOC), encoding="utf-8")
        before = db.read_bytes()
        args = ["--input", str(cohort_dir / "e03.csv")]
        if command == "enroll":
            args += ["--id", "e03"]
        proc = run_cli(command, "--db", str(db), *args)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert "version '1' unsupported (expected '4'); re-enrol from the records" \
            in proc.stderr
        assert proc.stdout == ""
        assert db.read_bytes() == before


class TestOtherFrontEndRefused:
    """A version-4 DB names its front end; one from another front end is
    refused with the re-enrol message, and enroll leaves the file as it was."""

    @pytest.mark.parametrize("command", ["auth", "enroll"])
    def test_exits_1_with_re_enrol_message(self, command, cohort_dir, db_path, tmp_path,
                                          capsys):
        doc = json.loads(db_path.read_text(encoding="utf-8"))
        doc["frontend"] = "rrauth-frontend-0"
        db = tmp_path / "other.json"
        db.write_text(json.dumps(doc), encoding="utf-8")
        before = db.read_bytes()
        args = ["--input", str(cohort_dir / "e03.csv")]
        if command == "enroll":
            args += ["--id", "x03"]
        assert main([command, "--db", str(db), *args]) == 1
        captured = capsys.readouterr()
        assert "front end 'rrauth-frontend-0' unsupported" in captured.err
        assert "re-enrol from the records" in captured.err
        assert captured.out == ""
        assert db.read_bytes() == before


class TestNanThresholds:
    """A NaN gate, APR minimum or identification margin is a domain error;
    it used to disable its rule and print a wrong decision with exit 0."""

    @pytest.mark.parametrize("flag", ["--gate-ucl", "--apr-min", "--id-margin"])
    def test_auth_exits_1_without_traceback(self, flag, cohort_dir, db_path):
        proc = run_cli("auth", "--db", str(db_path), "--input",
                       str(cohort_dir / "e01.csv"), "--offset-s", "50", flag, "nan")
        assert proc.returncode == 1, proc.stdout
        assert "error:" in proc.stderr and "NaN" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "decision=" not in proc.stdout

    @pytest.mark.parametrize("command,extra", [
        ("eval", ["--apr-min", "nan"]),
        ("sweep", ["--id-margin", "nan"]),
    ])
    def test_eval_and_sweep_exit_1(self, command, extra, cohort_dir, db_path,
                                   tmp_path, capsys):
        rc = main([command, "--db", str(db_path), "--manifest",
                   str(cohort_dir / "manifest.json"), "--trials", "5",
                   "--out", str(tmp_path), *extra])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestOffsetAndGridBounds:
    """A negative or non-finite probe offset, or a non-finite grid bound, is a
    domain error; the offset used to be read as 0, overlapping training."""

    @pytest.mark.parametrize("offset", ["-5", "nan", "inf"])
    def test_auth_exits_1_without_traceback(self, offset, cohort_dir, db_path):
        proc = run_cli("auth", "--db", str(db_path), "--input",
                       str(cohort_dir / "e01.csv"), "--offset-s", offset)
        assert proc.returncode == 1, proc.stdout
        assert "error:" in proc.stderr and "--offset-s" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_eval_and_sweep_exit_1(self, command, cohort_dir, db_path, tmp_path, capsys):
        rc = main([command, "--db", str(db_path), "--manifest",
                   str(cohort_dir / "manifest.json"), "--trials", "5",
                   "--out", str(tmp_path), "--offset-s", "-5"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "error:" in err and "--offset-s" in err
        assert out == ""

    @pytest.mark.parametrize("spec,message", [
        ("a:0.01:3", "grid spec must be lo:hi:steps"),
        ("0.001:0.01:1.5", "grid spec must be lo:hi:steps"),
        ("0.0001:inf:3", "grid bounds must be finite"),
        ("0.001:0.01:0", "grid needs >= 1 step, got 0"),
        ("0.001:0.01:9223372036854775807", "grid needs <= "),
        ("0.001:0.01:" + "9" * 30, "grid needs <= "),
        ("0.01:0.001:3", "grid needs hi > lo"),
        ("0.01:0.01:2", "grid needs hi > lo"),
    ])
    def test_parse_grid_refusals(self, spec, message):
        with pytest.raises(ValueError, match=message):
            cli._parse_grid(spec)

    def test_parse_grid_count_bounds(self):
        # one step is the grid [lo], whatever hi is; MAX_POINTS steps pass the
        # count rule, and numpy then refuses the allocation
        assert cli._parse_grid("0.002:0.001:1").tolist() == [0.002]
        with pytest.raises((ValueError, MemoryError)) as exc:
            cli._parse_grid(f"0.001:0.01:{MAX_POINTS}")
        assert not str(exc.value).startswith("grid needs")

    @pytest.mark.parametrize("grid", ["0.0001:inf:3", "-inf:0.01:3", "nan:0.01:1"])
    def test_sweep_rejects_non_finite_grid_bounds(self, grid, cohort_dir, db_path, tmp_path):
        proc = run_cli("sweep", "--db", str(db_path), "--manifest",
                       str(cohort_dir / "manifest.json"), "--trials", "5",
                       "--out", str(tmp_path), f"--grid={grid}")
        assert proc.returncode == 1, proc.stdout
        assert "error:" in proc.stderr and "finite" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stdout == ""


class TestWindowBounds:
    """A window that is not finite and > 0 is a domain error naming its
    option; a negative probe window used to drop the record's last seconds."""

    @pytest.mark.parametrize("window", ["-5", "nan"])
    def test_auth_exits_1_without_traceback(self, window, cohort_dir, db_path):
        proc = run_cli("auth", "--db", str(db_path), "--input", str(cohort_dir / "e01.csv"),
                       "--offset-s", "50", "--test-window-s", window)
        assert proc.returncode == 1, proc.stdout
        assert "error: --test-window-s must be finite and > 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_huge_auth_window_takes_the_whole_probe(self, cohort_dir, db_path):
        argv = ["auth", "--db", str(db_path), "--input", str(cohort_dir / "e01.csv"),
                "--offset-s", "50", "--test-window-s"]
        huge = run_cli(*argv, "1e308")
        assert huge.returncode == 0, huge.stderr
        assert "Traceback" not in huge.stderr
        whole = run_cli(*argv, "15")  # the 65 s record's last 15 s
        assert huge.stdout.splitlines()[-1] == whole.stdout.splitlines()[-1]
        assert huge.stdout.splitlines()[-1].startswith("decision=Known:e01")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("window", ["0", "inf"])
    def test_eval_and_sweep_exit_1(self, command, window, cohort_dir, db_path, tmp_path,
                                   capsys):
        rc = main([command, "--db", str(db_path), "--manifest",
                   str(cohort_dir / "manifest.json"), "--trials", "5",
                   "--out", str(tmp_path), "--test-window-s", window])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "error: --test-window-s must be finite and > 0" in err
        assert out == ""

    def test_enroll_exits_1_and_writes_no_db(self, cohort_dir, tmp_path):
        db = tmp_path / "new.json"
        proc = run_cli("enroll", "--db", str(db), "--manifest",
                       str(cohort_dir / "manifest.json"), "--train-window-s", "nan")
        assert proc.returncode == 1, proc.stdout
        assert "error: --train-window-s must be finite and > 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not db.exists()

    @pytest.mark.parametrize("argv", [["bench", "--input", "e01.csv"],
                                      ["rank", "--manifest", "manifest.json"]])
    def test_bench_and_rank_exit_1(self, argv, cohort_dir, capsys):
        command, flag, name = argv
        rc = main([command, flag, str(cohort_dir / name), "--train-window-s", "-1"])
        assert rc == 1
        assert "error: --train-window-s must be finite and > 0" in capsys.readouterr().err


class TestParserDefaults:
    """The CLI's defaults are the library's own values, not copies of them."""

    @staticmethod
    def defaults(*argv):
        return vars(build_parser().parse_args(list(argv)))

    def test_train_window_defaults(self):
        # eval and sweep take no training window; their probes start at it
        cases = {
            "enroll": (["--db", "d"], "train_window_s"),
            "eval": (["--db", "d", "--manifest", "m"], "offset_s"),
            "sweep": (["--db", "d", "--manifest", "m", "--out", "o"], "offset_s"),
            "bench": (["--input", "i"], "train_window_s"),
            "rank": (["--manifest", "m"], "train_window_s"),
        }
        for command, (argv, key) in cases.items():
            got = self.defaults(command, *argv)[key]
            assert got == authcore.DEFAULT_TRAIN_WINDOW_S, command

    @pytest.mark.parametrize("command,argv", [
        ("auth", ["--db", "d", "--input", "i"]),
        ("eval", ["--db", "d", "--manifest", "m"]),
        ("sweep", ["--db", "d", "--manifest", "m", "--out", "o"]),
    ])
    def test_gate_defaults(self, command, argv):
        got = self.defaults(command, *argv)
        assert got["test_window_s"] == authcore.DEFAULT_TEST_WINDOW_S
        assert got["apr_min"] == authcore.DEFAULT_APR_MIN
        assert got["id_margin"] == authcore.DEFAULT_ID_MARGIN

    @pytest.mark.parametrize("flag", ["--min-leaf", "--max-depth"])
    def test_enroll_has_no_tree_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["enroll", "--db", "d", flag, "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,argv", [
        ("gen", ["--out", "o"]),
        ("frames", ["--input", "i", "--dump", "d"]),
        ("enroll", ["--db", "d"]),
        ("bench", ["--input", "i"]),
        ("rank", ["--manifest", "m"]),
    ])
    def test_no_frame_len_flag(self, command, argv, tmp_path, monkeypatch, capsys):
        # every command frames at DEFAULT_FRAME_LEN, or at the DB's own length
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--frame-len", "220"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --frame-len 220" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--min-leaf", "--kernel-scale", "--svr-c",
                                      "--svr-epsilon", "--svr-max-sweeps"])
    def test_no_bench_fit_flag(self, flag, tmp_path, monkeypatch, capsys):
        # bench fits the paper's two presets, a fine tree and a fine Gaussian SVR
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", "i", "--out", "o", flag, "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag} 1" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_sweep_has_no_grid_auto_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--db", "d", "--manifest", "m",
                                       "--out", "o", "--grid-auto"])
        assert exc.value.code == 2


class TestMalformedManifest:
    """A manifest whose subjects are not a list of objects with string `id`
    and `file` and a role of enrolled or unknown is a domain error naming the
    manifest; a missing role used to end in a KeyError traceback."""

    @staticmethod
    def write(cohort_dir, tmp_path, edit):
        doc = json.loads((cohort_dir / "manifest.json").read_text(encoding="utf-8"))
        for subject in doc["subjects"]:
            subject["file"] = str(cohort_dir / subject["file"])
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["enroll", "eval", "sweep", "rank"])
    @pytest.mark.parametrize("edit", [
        lambda doc: [s.pop("role") for s in doc["subjects"]],
        lambda doc: doc.update(subjects=5),
    ], ids=["no-role", "subjects-int"])
    def test_exits_1_without_traceback(self, command, edit, cohort_dir, db_path, tmp_path):
        manifest = self.write(cohort_dir, tmp_path, edit)
        args = {
            "enroll": ["--db", str(tmp_path / "new.json")],
            "eval": ["--db", str(db_path), "--trials", "5"],
            "sweep": ["--db", str(db_path), "--trials", "5", "--out", str(tmp_path / "sw")],
            "rank": [],
        }[command]
        proc = run_cli(command, "--manifest", str(manifest), *args)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and str(manifest) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["subjects"].append("e09"), "list of objects"),
        (lambda doc: doc["subjects"][1].pop("id"), "subject 1 has no string 'id'"),
        (lambda doc: doc["subjects"][0].update(file=7), "subject 0 has no string 'file'"),
        (lambda doc: doc["subjects"][2].update(role="guest"), "role must be"),
    ], ids=["subject-not-object", "no-id", "file-int", "bad-role"])
    def test_each_rule_names_the_manifest(self, edit, message, cohort_dir, tmp_path):
        manifest = self.write(cohort_dir, tmp_path, edit)
        with pytest.raises(ValueError, match=message) as err:
            cli._load_manifest(manifest)
        assert str(manifest) in str(err.value)

    def test_missing(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            cli._load_manifest(tmp_path / "absent.json")

    def test_not_an_object(self, tmp_path):
        manifest = tmp_path / "five.json"
        manifest.write_text("5", encoding="utf-8")
        with pytest.raises(ValueError, match="not a cohort manifest"):
            cli._load_manifest(manifest)


class TestRefusedEnroll:
    """A refused `enroll` prints nothing and writes no DB: the manifest and
    its records, or the input, are read before the header is printed."""

    @pytest.mark.parametrize("source", ["no-role", "missing-manifest", "missing-input",
                                        "manifest-and-input"])
    def test_prints_nothing(self, source, cohort_dir, tmp_path):
        if source == "no-role":
            manifest = TestMalformedManifest.write(
                cohort_dir, tmp_path, lambda doc: [s.pop("role") for s in doc["subjects"]])
            args = ["--manifest", str(manifest)]
        elif source == "missing-manifest":
            args = ["--manifest", str(tmp_path / "absent.json")]
        elif source == "manifest-and-input":
            # one source of records: --input would otherwise go unread
            args = ["--manifest", str(cohort_dir / "manifest.json"),
                    "--input", str(cohort_dir / "u01.csv"), "--id", "u01"]
        else:
            args = ["--input", str(tmp_path / "absent.csv"), "--id", "x"]
        proc = run_cli("enroll", "--db", str(tmp_path / "new.json"), *args)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "new.json").exists()


class TestRefusedCommandPrintsNothing:
    """Every command does its fallible work before it prints its header, so
    a refused one leaves stdout empty, and a refused `enroll` saves no DB."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--trials", "0"],
        ["sweep", "--trials", "0"],
        # counts whose arrays would exceed 2**47 bytes: `eval` refuses more than 2**44
        # trials, and no overcommit setting lets the grid allocate
        ["eval", "--trials", "1000000000000000"],
        ["sweep", "--grid-points", "1000000000000000"],
        ["rank", "--k", "0"],
        ["rank", "--bins", "0"],
        ["bench", "--limit", "0"],
        ["bench", "--limit", "-1"],
        ["bench", "--limit", "1"],
        ["gen", "--seed", "-1"],
        ["eval", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
        ["bench", "--seed", "-1"],
        ["auth", "--apr-min", "nan"],
        ["enroll"],
    ], ids=lambda argv: "-".join(argv))
    def test_exit_1_and_empty_stdout(self, argv, cohort_dir, db_path, tmp_path, capsys):
        manifest = str(cohort_dir / "manifest.json")
        record = str(cohort_dir / "e01.csv")
        command, flags = argv[0], argv[1:]
        db = tmp_path / "held.json"
        if command == "enroll":
            # the DB already holds e02, so the manifest's e01 enrols and e02 is refused
            assert main(["enroll", "--db", str(db), "--input",
                         str(cohort_dir / "e02.csv"), "--id", "e02"]) == 0
            capsys.readouterr()
            flags = ["--db", str(db), "--manifest", manifest]
        elif command in ("eval", "sweep"):
            flags += ["--db", str(db_path), "--manifest", manifest,
                      "--out", str(tmp_path / "out")]
        elif command == "rank":
            flags += ["--manifest", manifest]
        elif command == "frames":
            flags += ["--input", record, "--dump", str(tmp_path / "f.csv")]
        elif command == "bench":
            flags += ["--input", record]
        elif command == "gen":
            flags += ["--out", str(tmp_path / "out")]
        else:
            flags += ["--db", str(db_path), "--input", record, "--offset-s", "50"]
        before = db.read_bytes() if db.exists() else None
        assert main([command, *flags]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
        if before is not None:
            assert db.read_bytes() == before
        assert not (tmp_path / "out").exists()


def _old_db_refused(doc, message, command, cohort_dir, tmp_path, capsys):
    """`command` on a DB holding `doc` exits 1 with `message` at the end of
    stderr, prints nothing on stdout and leaves the file's bytes as they were."""
    db = tmp_path / "old.json"
    db.write_text(json.dumps(doc), encoding="utf-8")
    before = db.read_bytes()
    args = ["--input", str(cohort_dir / "e03.csv")]
    if command == "enroll":
        args += ["--id", "x03"]
    assert main([command, "--db", str(db), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.rstrip().endswith(message)
    assert captured.out == ""
    assert db.read_bytes() == before


def _retired_db_refused(version, command, cohort_dir, db_path, tmp_path, capsys):
    doc = retired_doc(json.loads(db_path.read_text(encoding="utf-8")), version)
    message = f"version '{version}' unsupported (expected '4'); re-enrol from the records"
    _old_db_refused(doc, message, command, cohort_dir, tmp_path, capsys)


class TestV2DbRefused:
    """A version-2 DB (arrays as JSON lists, no front end) is refused like a
    version-1 one; enroll leaves the file as it was."""

    @pytest.mark.parametrize("command", ["auth", "enroll"])
    def test_exits_1_with_re_enrol_message(self, command, cohort_dir, db_path, tmp_path,
                                          capsys):
        _retired_db_refused("2", command, cohort_dir, db_path, tmp_path, capsys)


class TestV3DbRefused:
    """A version-3 DB (each entity's mean, std and UCL stored next to its
    MSEs) is refused the same way."""

    @pytest.mark.parametrize("command", ["auth", "enroll"])
    def test_exits_1_with_re_enrol_message(self, command, cohort_dir, db_path, tmp_path,
                                          capsys):
        _retired_db_refused("3", command, cohort_dir, db_path, tmp_path, capsys)


class TestOtherFrameLenDbRefused:
    """A DB saved at 64 points, a frame length the front end no longer cuts,
    is refused the same way."""

    @pytest.mark.parametrize("command", ["auth", "enroll"])
    def test_exits_1_with_re_enrol_message(self, command, cohort_dir, db_path, tmp_path,
                                          capsys):
        doc = json.loads(db_path.read_text(encoding="utf-8"))
        doc["frame_len"] = 64
        for e in doc["entities"].values():
            curve = np.frombuffer(base64.b64decode(e["curve"]), "<f8")[:64]
            e["curve"] = base64.b64encode(curve.tobytes()).decode("ascii")
        _old_db_refused(doc, "frame_len 64 unsupported (expected 220); re-enrol from the records",
                        command, cohort_dir, tmp_path, capsys)


def _flags_of_type(kind):
    """(command, flag) for every option of every command that parses `kind`."""
    sub = build_parser()._subparsers._group_actions[0]
    return [(command, action.option_strings[-1])
            for command, p in sub.choices.items()
            for action in p._actions if action.type is kind]


@pytest.fixture(scope="module")
def tiny_cohort(tmp_path_factory):
    """2 enrolled and 1 unknown subject, enrolled into one DB."""
    out = tmp_path_factory.mktemp("tiny") / "c"
    assert main(["gen", "--out", str(out), "--enrolled", "2", "--unknown", "1"]) == 0
    assert main(["enroll", "--db", str(out / "db.json"),
                 "--manifest", str(out / "manifest.json")]) == 0
    return out


def run_flag_on_tiny_cohort(command, flag, value, cohort, tmp_path, capsys):
    """Run `command` on the tiny cohort with `flag` set to `value` and hold it
    to the grid's rule: exit 0 or 1 with no exception and no RuntimeWarning;
    on exit 1, `<command>: error:` on stderr, nothing on stdout and no
    `--out` directory, `--dump` file or new `--db` file. Returns (rc, stderr)."""
    capsys.readouterr()
    manifest = str(cohort / "manifest.json")
    record = str(cohort / "e01.csv")
    db, out = str(cohort / "db.json"), tmp_path / "out"
    new_db, dump = tmp_path / "new.json", tmp_path / "f.csv"
    argv = {
        "gen": ["--enrolled", "2", "--unknown", "1"],
        "frames": ["--input", record, "--dump", str(dump)],
        "enroll": ["--db", str(new_db), "--manifest", manifest],
        "auth": ["--db", db, "--input", record, "--offset-s", "50"],
        "eval": ["--db", db, "--manifest", manifest, "--trials", "10"],
        "sweep": ["--db", db, "--manifest", manifest, "--trials", "10",
                  "--grid-points", "3"],
        "bench": ["--input", record, "--limit", "200"],
        "rank": ["--manifest", manifest],
    }[command]
    if command not in ("enroll", "auth", "frames"):
        argv += ["--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # the last occurrence wins; `=` keeps "-inf" from reading as a flag
        rc = main([command, *argv, f"{flag}={value}"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc in (0, 1)
    captured = capsys.readouterr()
    if rc == 1:
        assert f"{command}: error: " in captured.err
        assert captured.out == ""
        assert not (out.exists() or new_db.exists() or dump.exists())
    return rc, captured.err


class TestFloatFlagGrid:
    """Every float flag, at each edge value, exits 0 or 1 without an exception;
    a refusal prints nothing on stdout and creates no output or DB."""

    def test_grid_covers_every_command_with_a_float_flag(self):
        assert {command for command, _ in _flags_of_type(float)} == \
            {"gen", "enroll", "auth", "eval", "sweep", "bench", "rank"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.0", "-0.0", "-1",
                                       "5e-324", "1e308", "1.7e308"])
    @pytest.mark.parametrize("command,flag", _flags_of_type(float),
                             ids=lambda x: x.lstrip("-"))
    def test_exit_0_or_1(self, command, flag, value, tiny_cohort, tmp_path, capsys):
        run_flag_on_tiny_cohort(command, flag, value, tiny_cohort, tmp_path, capsys)


class TestIntFlagGrid:
    """Every int flag, at -1, 0, 1 and 2**63 - 1, is held to the float grid's
    rule. Counts near 2**31 stay out: under overcommit they can allocate
    gigabytes."""

    # np.linspace fails on the 2**63 - 1 counts with an IndexError
    HUGE = str(2**63 - 1)
    REFUSED = {
        ("sweep", "--grid-points", HUGE): "points must be <= ",
        ("rank", "--bins", HUGE): "bins must be < ",
        **{(command, "--seed", "-1"): "--seed must be >= 0, got -1"
           for command in ("gen", "eval", "sweep", "bench")},
        **{("bench", "--limit", value): f"--limit must be >= 2, got {value}"
           for value in ("-1", "0", "1")},
    }

    def test_grid_covers_every_command_with_an_int_flag(self):
        assert {command for command, _ in _flags_of_type(int)} == \
            {"gen", "eval", "sweep", "bench", "rank"}

    @pytest.mark.parametrize("value", ["-1", "0", "1", HUGE])
    @pytest.mark.parametrize("command,flag", _flags_of_type(int),
                             ids=lambda x: x.lstrip("-"))
    def test_exit_0_or_1(self, command, flag, value, tiny_cohort, tmp_path, capsys):
        rc, err = run_flag_on_tiny_cohort(command, flag, value, tiny_cohort, tmp_path,
                                          capsys)
        if (command, flag, value) in self.REFUSED:
            assert rc == 1
            assert self.REFUSED[command, flag, value] in err
