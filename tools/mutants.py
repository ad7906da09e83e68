"""Flip each comparison of one `rrauth` module and report the flips no test catches.

    python tools/mutants.py MODULE

MODULE is a module of `src/rrauth` (`beat`, `signal`, ...). The repository's
`src/`, `tests/`, `benchmarks/` (which a test reads) and `pyproject.toml`
are copied to a temporary directory, so `src/` is never edited in place.
The module is parsed and unparsed (which drops its comments), and that
unmutated text must pass the quick suite: `tests/test_MODULE.py` and
`tests/test_acceptance.py`. Then each comparison operator is flipped in
turn (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), each operator
of a chained comparison on its own. A mutant is killed when the quick suite
fails on it (run with ``-x``); one that passes is run again against every
test under `tests/`, and is a survivor only if that passes too. A run that
exceeds ten times the unmutated run's time counts as killed.

Prints one line per mutant, then the counts of mutants, killed and
survived, and the survivors with their line numbers. The exit status is 0
even when mutants survive: a survivor is either a missing test or an
equivalent mutant, which only reading it can tell. If the unmutated module
fails the quick suite, or the full suite once a mutant needs it, the
failing tests' pytest summary lines are printed and the exit status is 1. Bytecode caching is off,
since two mutants can share a size and a modification second.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!="}


def comparisons(tree: ast.Module):
    """The (node position in `ast.walk` order, operator index) of every
    flippable operator, in source order."""
    found = []
    for pos, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    found.append((node.lineno, node.col_offset, k, pos))
    return [(pos, k) for _, _, k, pos in sorted(found)]


def mutate(source: str, pos: int, k: int):
    """The module text with operator k of the pos-th walked node flipped,
    and a description of the flip."""
    tree = ast.parse(source)
    node = next(n for p, n in enumerate(ast.walk(tree)) if p == pos)
    old = type(node.ops[k])
    node.ops[k] = FLIPS[old]()
    segment = " ".join(ast.get_source_segment(source, node).split())
    label = f"line {node.lineno}: {segment}  [{SYMBOL[old]} -> {SYMBOL[FLIPS[old]]}]"
    return ast.unparse(tree) + "\n", label


def run_tests(copy: Path, paths: list[str], timeout: float | None):
    """(passed, seconds, failures) of pytest on `paths` in the copy; a
    timeout fails. `failures` are pytest's ``FAILED`` and ``ERROR`` summary
    lines (``-rfE``)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                               "-p", "no:cacheprovider", *paths], cwd=copy, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, ["(timed out)"]
    failures = [line for line in done.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, time.perf_counter() - start, failures


def unmutated_fails(module: str, paths: list[str], failures: list[str]) -> int:
    """Report that the unmutated module fails `paths`, naming the failing
    tests; the exit status."""
    print(f"the unmutated, unparsed {module} fails {' '.join(paths)}:")
    for line in failures:
        print(f"  {line}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module of src/rrauth, e.g. beat")
    args = parser.parse_args(argv)
    target = ROOT / "src" / "rrauth" / f"{args.module}.py"
    tests = ROOT / "tests" / f"test_{args.module}.py"
    if not target.is_file() or not tests.is_file():
        parser.error(f"need {target} and {tests}")
    source = target.read_text(encoding="utf-8")
    quick = [f"tests/{tests.name}", "tests/test_acceptance.py"]

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for part in ("src", "tests", "benchmarks"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        module = copy / "src" / "rrauth" / target.name

        plain = ast.unparse(ast.parse(source)) + "\n"
        module.write_text(plain, encoding="utf-8")
        passed, base, failures = run_tests(copy, quick, None)
        if not passed:
            return unmutated_fails(args.module, quick, failures)
        print(f"unmutated: quick suite passes in {base:.1f} s", flush=True)

        full_base = None  # the unmutated full suite's time, once a mutant needs it
        killed, survived = 0, []
        for pos, k in comparisons(ast.parse(source)):
            text, label = mutate(source, pos, k)
            module.write_text(text, encoding="utf-8")
            status = "killed"
            if run_tests(copy, quick, 10 * base)[0]:
                status = "killed (full suite)"
                if full_base is None:
                    module.write_text(plain, encoding="utf-8")
                    passed, full_base, failures = run_tests(copy, ["tests"], None)
                    if not passed:
                        return unmutated_fails(args.module, ["tests/"], failures)
                    module.write_text(text, encoding="utf-8")
                if run_tests(copy, ["tests"], 10 * full_base)[0]:
                    status = "SURVIVED"
                    survived.append(label)
            killed += status != "SURVIVED"
            print(f"{status:20s} {label}", flush=True)

    print(f"mutants: {killed + len(survived)}  killed: {killed}  survived: {len(survived)}")
    for label in survived:
        print(f"  survivor {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
