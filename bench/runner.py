"""Timed passes over a workload's inputs, with untimed output checks.

A pass runs every input once, in order, from one thread. Only the library
(or CLI) calls are inside the timed regions; the checks, digests and size
counts run between them. Every loop is closed: the next call starts when the
previous one has returned.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import padic_sylvester as ps
from padic_sylvester import cli as ps_cli
from padic_sylvester import report

import checks
import workloads

clock = time.perf_counter

# Other tenants slow this host by up to ~50% for minutes at a time, and not
# every kind of work by the same amount. So every pass times a fixed
# reference loop, of the kind of work that dominates its workload, about
# every PROBE_EVERY_S seconds between calls, and its times are divided by
# how much slower than on a quiet host that loop ran.
PROBE_EVERY_S = 0.25
_BIG = 7**70000  # ~196k bits, the size of rational-deep's largest terms


def interpreter_loop() -> None:
    """Pure-Python integer work; no objects for the cyclic collector."""
    s = 0
    for i in range(40000):
        s += i * i % 7


def bigint_loop() -> None:
    """Big-int remainders and quotients by a small prime, as in ord_p."""
    for _ in range(100):
        _BIG % 101
        _BIG // 101


# Each reference loop's time on a quiet 2-core host with CPython 3.11.
REFERENCE_S = {interpreter_loop: 0.0025, bigint_loop: 0.009}


def slowdown_now(loop, samples: int = 5) -> float:
    """The host's current slowdown for this kind of work: the median time of
    a few runs of the reference loop, over its quiet-host time."""
    times = []
    for _ in range(samples):
        t0 = clock()
        loop()
        times.append(clock() - t0)
    return statistics.median(times) / REFERENCE_S[loop]


class HostSpeed:
    """Times a reference loop at most every PROBE_EVERY_S seconds, when
    polled between timed calls."""

    def __init__(self, loop):
        self.loop = loop
        self.samples: list[float] = []
        self._last = -PROBE_EVERY_S
        self.poll()

    def poll(self) -> None:
        if clock() - self._last < PROBE_EVERY_S:
            return
        t0 = clock()
        self.loop()
        self._last = clock()
        self.samples.append(self._last - t0)

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S[self.loop]


STAGE_OF = {"pk": "pk_s", "adaptive": "pk_s", "sylvester": "sylvester_s",
            "knopf": "knopf_fs_s", "fs": "knopf_fs_s"}


@dataclass
class Tally:
    """Operations attempted and failed over a run, and why they failed.

    An operation is one expansion, verify, round trip or CLI invocation.
    Failures from CPython's 4300-digit int/str limit are the known defect;
    any other failure, or any wrong output, makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == self.known_defect

    def op(self) -> None:
        self.attempted += 1

    def fail(self, where: str, exc: "BaseException | None" = None, problems=()) -> None:
        self.failed += 1
        if exc is not None and checks.is_int_str_limit(exc):
            self.known_defect += 1
            return
        detail = f"{type(exc).__name__}: {exc}" if exc is not None else "; ".join(problems)
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {detail}")


@dataclass
class PassResult:
    """Timings (seconds) and outputs of one pass.

    `times` maps (input index, algorithm, stage) to the wall time of that
    one call; `case_s` maps (input index, algorithm) to the wall time of one
    expand plus verify, or of one CLI process. `slowdown` is the host's
    slowdown during the pass (see HostSpeed). `full` counts the inputs whose
    every operation succeeded and passed its checks.
    """

    slowdown: float = 1.0
    times: dict = field(default_factory=dict)
    case_s: dict = field(default_factory=dict)
    full: int = 0
    json_bytes: int = 0
    digest_fixed: str = ""
    digest_seeded: str = ""
    sizes: dict = field(default_factory=dict)


def _round_trip(e):
    text = json.dumps(report.expansion_json(e))
    return text, report.expansion_from_json(json.loads(text))[2]


def library_pass(cases, round_trip: str, tally: Tally, loop, corrupt: bool = False) -> PassResult:
    """One pass over library cases. round_trip is "timed", "checked" (run and
    checked but outside the timed stages) or "" (not run); loop is the
    reference loop for HostSpeed."""
    res = PassResult()
    speed = HostSpeed(loop)
    fixed, seeded = checks.Digest(), checks.Digest()
    for ci, case in enumerate(cases):
        done = {}
        full = True
        for alg in case.algs:
            where = f"{case.label}[{ci}] {alg}"
            speed.poll()
            tally.op()
            t0 = clock()
            try:
                e = workloads.expand(alg, case)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                tally.fail(where, exc)
                full = False
                continue
            t1 = clock()
            tally.op()
            try:
                verdict = ps.verify_expansion(None if alg == "fs" else case.p, case.value, e)
            except Exception as exc:
                verdict = exc
            t2 = clock()
            res.times[ci, alg, STAGE_OF[alg]] = t1 - t0
            res.times[ci, alg, "verify_s"] = t2 - t1
            res.case_s[ci, alg] = t2 - t0
            if corrupt and ci == 0 and alg == case.algs[0]:
                e = _corrupted(e)
            done[alg] = e
            (seeded if case.seeded else fixed).add_expansion(f"{ci}:{alg}", e)
            add_sizes(res.sizes, STAGE_OF[alg], e)
            add_sizes(res.sizes, "verify_s", e)
            problems = _problems(case, alg, e, done)
            if problems:
                tally.fail(where, problems=problems)
                full = False
            if isinstance(verdict, Exception):
                tally.fail(where + " verify", verdict)
                full = False
            elif not verdict.ok:
                tally.fail(where + " verify", problems=verdict.problems or ["not ok"])
                full = False
            if not round_trip:
                continue
            tally.op()
            t3 = clock()
            try:
                text, back = _round_trip(e)
            except Exception as exc:
                tally.fail(where + " round trip", exc)
                full = False
                continue
            t4 = clock()
            if round_trip == "timed":
                res.times[ci, alg, "report_s"] = t4 - t3
            res.json_bytes += len(text)
            add_sizes(res.sizes, "report_s", e)
            if not checks.same_terms(back, e) or back.status != e.status \
                    or len(back.trace) != len(e.trace):
                tally.fail(where + " round trip", problems=["round trip changed the expansion"])
                full = False
        res.full += full
    res.slowdown = speed.slowdown()
    res.digest_fixed, res.digest_seeded = fixed.hexdigest(), seeded.hexdigest()
    return res


def add_sizes(sizes: dict, stage: str, e) -> None:
    """Add e's output size to the running totals of one stage."""
    new = checks.term_sizes([e])
    old = sizes.get(stage)
    if old is None:
        sizes[stage] = new
        return
    for key in ("terms", "term_bits"):
        old[key] += new[key]
    for key in ("max_term_bits", "max_tail_ord"):
        old[key] = max(old[key], new[key])


def _corrupted(e):
    """A copy of e whose first term is off by one; used to show the checks fire."""
    q = e.terms[0]
    bad = q + 1 if isinstance(q, int) else ps.PLocal(q.p, q.unit + 1, q.exp)
    return ps.Expansion(e.algorithm, e.value, e.p, e.k, (bad,) + e.terms[1:], e.status,
                        e.trace, e.initial, e.certificate)


def _problems(case, alg, e, done) -> list:
    if alg in ("pk", "adaptive"):
        return checks.division_problems(case.p, case.value, e)
    if alg == "sylvester" and "pk" in done and case.k is not None:
        if not checks.same_terms(e, done["pk"]):
            return ["sylvester terms differ from pk terms"]
        return []
    if alg in ("knopf", "fs"):
        return checks.sum_problems(case.value, e)
    return []


def cli_env() -> dict:
    """This environment with the imported library's source directory first
    on PYTHONPATH, so CLI processes run the same code."""
    src = os.path.dirname(ps.__path__[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(inv, env, cwd):
    """Spawn one CLI process and wait for it; returns (seconds, code, out, err)."""
    t0 = clock()
    proc = subprocess.run([sys.executable, "-m", "padic_sylvester.cli", *inv.argv],
                          input=inv.stdin.encode(), capture_output=True, env=env, cwd=cwd,
                          timeout=120)
    return clock() - t0, proc.returncode, proc.stdout, proc.stderr


def run_in_process(inv):
    """cli.main(argv) inside this process with stdin, stdout and stderr captured;
    returns (seconds, code, out, err). An exception escaping main gives exit
    code 1 and its message on stderr, as the interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(inv.stdin)
    t0 = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = ps_cli.main(list(inv.argv))
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
            except Exception as exc:
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        t1 = clock()
        sys.stdin = saved_stdin
    return t1 - t0, code, out.getvalue().encode(), err.getvalue().encode()


def cli_pass(invocations, tally: Tally, loop, in_process: bool, env=None, cwd=None) -> PassResult:
    res = PassResult()
    speed = HostSpeed(loop)
    fixed, seeded = checks.Digest(), checks.Digest()
    for i, inv in enumerate(invocations):
        where = f"{inv.label}[{i}]"
        speed.poll()
        tally.op()
        try:
            secs, code, out, err = run_in_process(inv) if in_process \
                else run_process(inv, env, cwd)
        except Exception as exc:
            tally.fail(where, exc)
            continue
        res.times[i, "cli", "cli_s"] = res.case_s[i, "cli"] = secs
        (seeded if inv.seeded else fixed).add_bytes(f"{i}:{code}", out)
        if code != inv.expect_exit and checks.INT_STR_LIMIT.encode() in err:
            tally.fail(where, ValueError(checks.INT_STR_LIMIT))
            continue
        try:
            problems = checks.cli_problems(inv.check, code, inv.expect_exit,
                                           out.decode(), err.decode())
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc}"]
        if problems:
            tally.fail(where, problems=problems)
            continue
        res.full += 1
        if inv.check.endswith("-json"):
            res.json_bytes += len(out)
        if inv.check == "expand-json":
            add_sizes(res.sizes, "cli_s", checks.expansion_from_report(json.loads(out)))
    res.slowdown = speed.slowdown()
    res.digest_fixed, res.digest_seeded = fixed.hexdigest(), seeded.hexdigest()
    return res
