"""Outputs that do not depend on the kernels numpy and its BLAS dispatch to.

The parent writes a small cohort once. Child processes then run `enroll`,
`auth`, `eval`, `sweep`, `frames` and `bench` on it through `cli.main`,
each under one setting of the dispatch: numpy's and OpenBLAS's defaults,
numpy with its AVX-512 kernels disabled, and OpenBLAS held to its Haswell
or its Nehalem kernels. Every child must write the same DB bytes, output
files and stdout, apart from `bench`'s wall-clock `Training Time` rows. The
test pins no value, so it means the same on every host. OpenBLAS reads `OPENBLAS_CORETYPE` only
when it is built with DYNAMIC_ARCH; under any other BLAS that child repeats
the default run, so each child reports the BLAS it ran on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from rrauth.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DISPATCH_VARS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
SETTINGS = {
    "defaults": {},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "haswell-blas": {"OPENBLAS_CORETYPE": "Haswell"},
    "nehalem-blas": {"OPENBLAS_CORETYPE": "Nehalem"},
}

# Run in the child's own directory, so that every path it prints is the
# same in each child; the cohort is the one argument.
CHILD = r"""
import contextlib, ctypes, glob, io, json, os, sys
try:
    import numpy as np
except (ImportError, RuntimeError) as exc:  # numpy refuses the setting
    print(json.dumps({"refused": f"{type(exc).__name__}: {exc}"}))
    sys.exit(0)
from rrauth.cli import main

def blas():
    try:
        name = str(np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"))
    except (TypeError, KeyError):  # numpy before 1.25 only prints its configuration
        return "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(path), symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return f"{name}, core {corename().decode()}"
    return name

cohort = sys.argv[1]
manifest = os.path.join(cohort, "manifest.json")
commands = [["enroll", "--db", "db.json", "--manifest", manifest]]
commands += [["auth", "--db", "db.json", "--input", os.path.join(cohort, name),
              "--offset-s", "50"] for name in ("e01.csv", "e02.csv", "u01.csv")]
commands += [["eval", "--db", "db.json", "--manifest", manifest, "--trials", "300",
              "--out", "eval"],
             ["sweep", "--db", "db.json", "--manifest", manifest, "--trials", "300",
              "--grid-points", "12", "--out", "sweep"],
             ["frames", "--input", os.path.join(cohort, "e01.csv"), "--dump", "frames.csv"],
             ["bench", "--input", os.path.join(cohort, "e01.csv"), "--out", "bench"]]
stdout, codes = io.StringIO(), []
with contextlib.redirect_stdout(stdout):
    for argv in commands:
        codes.append(main(argv))

def untimed(text):  # bench's Training Time rows are wall-clock times
    return "".join(line for line in text.splitlines(True)
                   if not line.startswith("Training Time"))

files = {}
for name in ("db.json", "eval/confusion.csv", "sweep/sweep.csv", "frames.csv",
             "bench/bench.csv"):
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8", newline="") as f:
            files[name] = untimed(f.read())
print(json.dumps({"codes": codes, "stdout": untimed(stdout.getvalue()), "files": files,
                  "blas": blas()}))
"""


def test_outputs_equal_under_every_dispatch(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["gen", "--out", str(cohort), "--enrolled", "3", "--unknown", "1",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    children = {}
    for label, setting in SETTINGS.items():
        env = {k: v for k, v in os.environ.items() if k not in DISPATCH_VARS}
        env.update(setting, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        (tmp_path / label).mkdir()
        children[label] = subprocess.Popen([sys.executable, "-c", CHILD, str(cohort)],
                                           cwd=tmp_path / label, env=env, text=True,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    runs = {}
    for label, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, f"{label}: {err}"
        runs[label] = json.loads(out.splitlines()[-1])
    with capsys.disabled():
        for label, run in runs.items():
            print(f"\n{label} ({SETTINGS[label] or 'no setting'}):",
                  f"refused by numpy, skipped: {run['refused']}" if "refused" in run
                  else f"BLAS {run['blas']}")
    assert "refused" not in runs["defaults"]
    assert runs["defaults"]["codes"][0] == 0  # enrolled
    assert len(runs["defaults"]["files"]) == 5
    for label, run in runs.items():
        if "refused" not in run:
            assert run["codes"] == runs["defaults"]["codes"], label
            assert run["files"] == runs["defaults"]["files"], label
            assert run["stdout"] == runs["defaults"]["stdout"], label
