"""Mutation gate: each listed mutant must fail the tests that claim to pin it.

A mutant (tests/mutants.py) is one exact edit of one source file: `find`,
which must occur exactly once, is replaced by `replace`. For each mutant the
runner copies src/, tests/ and bench/quad_pool.json to a temporary
directory, applies the edit there and runs pytest with -x on the mutant's
`tests` under a timeout (TIMEOUT, or the mutant's own `timeout` where a
broken bound hangs a test). JOBS mutants run at once. A failing run kills
the mutant, and the first failing test is printed; a run past the timeout
counts as killed too, and is reported as timed out. A mutant with a
`survives` reason is expected to pass the tests (an equivalent mutant, which
changes no result); it must survive, so that a stale reason shows.

    python tests/mutate.py              # every mutant
    python tests/mutate.py NAME..       # the named mutants
    python tests/mutate.py --self-test  # the runner on a toy project

Exit status 0 when every mutant is killed or survives as expected, 1 when a
mutant survives unexpectedly, dies though expected to survive, no longer
matches its source text, or its tests cannot run (a pytest usage or
collection error). The standard library and pytest are all it needs; pytest
does not collect it (its name does not match test_*.py).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench/quad_pool.json")
TIMEOUT = 120  # seconds per mutant, unless it sets its own
JOBS = min(2, os.cpu_count() or 1)  # pytest runs at once: one per core, two at most


def _copy(root: Path, dest: Path) -> None:
    for rel in COPIED:
        src = root / rel
        if src.is_dir():
            shutil.copytree(src, dest / rel, ignore=shutil.ignore_patterns("__pycache__"))
        elif src.exists():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def _apply(dest: Path, m: dict) -> "str | None":
    """Apply mutant m inside dest; None, or why it cannot be applied."""
    path = dest / m["file"]
    text = path.read_text()
    found = text.count(m["find"])
    if found != 1:
        return f"source text found {found} times in {m['file']}"
    path.write_text(text.replace(m["find"], m["replace"]))
    return None


def run_one(root: Path, m: dict) -> tuple[str, float, str]:
    """(outcome, seconds, detail) of one mutant: killed, survived, timed out,
    stale or error."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy(root, dest)
        stale = _apply(dest, m)
        if stale:
            return "stale", 0.0, stale
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *m["tests"]]
        try:
            done = subprocess.run(argv, cwd=dest, env=env, capture_output=True, text=True,
                                  timeout=m.get("timeout") or TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    detail = (failed or lines or [done.stderr.strip()[-200:]])[0]
    # pytest exits 1 when a test failed, 0 when all passed; anything else is
    # an interrupted run, an internal or usage error, or no tests collected.
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, seconds, detail


def verdict(m: dict, outcome: str) -> bool:
    """Whether a mutant's outcome is the expected one."""
    if m.get("survives"):
        return outcome == "survived"
    return outcome in ("killed", "timed out")


def run(root: Path, mutants: list) -> int:
    bad = 0
    start = time.perf_counter()

    def one(m):
        return m, run_one(root, m)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for m, (outcome, seconds, detail) in pool.map(one, mutants):
            ok = verdict(m, outcome)
            bad += not ok
            note = f"  [expected: {m['survives']}]" if m.get("survives") else ""
            print(f"{'ok ' if ok else 'BAD'} {outcome:9} {seconds:6.1f}s  {m['name']}{note}")
            print(f"      {detail}")
    print(f"{len(mutants)} mutants, {bad} unexpected, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


SELF_TEST_MUTANTS = [
    {"name": "must-die", "file": "src/toy.py", "find": "return a + b",
     "replace": "return a - b", "tests": ["tests/test_toy.py"]},
    {"name": "must-survive", "file": "src/toy.py", "find": "return a + b",
     "replace": "return b + a", "tests": ["tests/test_toy.py"],
     "survives": "addition commutes"},
    {"name": "must-be-stale", "file": "src/toy.py", "find": "return a * b",
     "replace": "return a", "tests": ["tests/test_toy.py"]},
]


def self_test() -> int:
    """Run three mutants of a toy project: one the test kills, one
    equivalent one that survives, one whose source text is gone. Each must
    get that outcome."""
    with tempfile.TemporaryDirectory(prefix="mutate-self-test-") as tmp:
        root = Path(tmp)
        (root / "src").mkdir()
        (root / "tests").mkdir()
        (root / "src" / "toy.py").write_text("def add(a, b):\n    return a + b\n")
        (root / "tests" / "test_toy.py").write_text(
            "from toy import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n")
        want = {"must-die": "killed", "must-survive": "survived", "must-be-stale": "stale"}
        bad = 0
        for m in SELF_TEST_MUTANTS:
            outcome = run_one(root, m)[0]
            killable = m["name"] != "must-be-stale"
            ok = outcome == want[m["name"]] and verdict(m, outcome) == killable
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {m['name']}: {outcome}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="run only these mutants")
    ap.add_argument("--self-test", action="store_true", help="check the runner itself")
    ns = ap.parse_args(argv)
    if ns.self_test:
        return self_test()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from mutants import MUTANTS

    mutants = [m for m in MUTANTS if not ns.names or m["name"] in ns.names]
    unknown = set(ns.names) - {m["name"] for m in MUTANTS}
    if unknown:
        ap.error(f"no such mutant: {', '.join(sorted(unknown))}")
    return run(ROOT, mutants)


if __name__ == "__main__":
    sys.exit(main())
