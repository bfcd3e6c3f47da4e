"""Layered benchmark of padic-sylvester: library and CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out FILE] [--baseline FILE] [--tiny]

Run from the root of a checkout; the library is imported from ./src. One
process, one thread, closed loop: passes over the workload's seeded inputs
repeat until the next pass would end after S seconds (at least one pass).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics and the tracing overhead.
Every timed output is checked; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --out merges this run's
metrics into a results file; --baseline prints each metric's ratio against
such a file. --tiny shrinks every input set, for the self-check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SPANS_DIR = BENCH / "out"
WORKLOADS = ("rational-deep", "rational-many", "quadratic", "cli")
SETUP_SAMPLES = 9  # fresh-process set-ups per run; setup_s is their median
# The reference loop whose slowdown corrects each workload's times (runner.py).
REFERENCE_LOOP = {"rational-deep": "bigint_loop"}
IMPORT_PAIRS = 7  # interpreter starts with and without the CLI import, for cli.import_s

# Metric name -> unit. The end-to-end list is what --trace 0 reports for
# every workload; the other names are printed where they apply.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
DETAIL = {
    "pk_s": "s", "sylvester_s": "s", "verify_s": "s", "report_s": "s",
    "case_p50_ms": "ms", "case_p99_ms": "ms", "verified_per_s": "1/s",
    "cli_p50_ms": "ms", "cli_p90_ms": "ms", "failed_frac": "ratio",
    "pass_wall_s": "s", "host_slowdown": "ratio",
}
LAYER_TIMES = (
    "valuation.ord_p", "valuation.from_fraction", "digits.frac_part_k", "digits.hensel_sqrt",
    "quadratic.quad_ord", "quadratic.quad_frac_part_k", "quadratic.real_ceil",
    "division.pk_divide", "expansion.pk", "expansion.adaptive", "expansion.sylvester",
    "expansion.knopf", "expansion.fs", "verify", "report.expansion_json",
    "report.expansion_from_json",
)
LAYER_CALLS = (
    "valuation.ord_p", "valuation.from_fraction", "digits.frac_part_k", "digits.hensel_sqrt",
    "quadratic.quad_ord", "division.pk_divide", "verify",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in LAYER_CALLS},
    **{f"{name}.self_s": "s" for name in LAYER_TIMES},
    "valuation.plocal_arith.self_s": "s",
    "quadratic.arith.self_s": "s",
    "digits.window_digits": "digits",
    "digits.hensel_digits": "digits",
    "quadratic.quad_ord.hensel_calls": "count",
    "division.max_operand_bits": "bits",
    "expansion.terms": "count",
    "expansion.term_bits": "bits",
    "expansion.max_term_bits": "bits",
    "expansion.max_tail_ord": "count",
    "report.json_bytes": "bytes",
    "report.failed": "count",
    "cli.import_s": "s",
    "cli.main_ms": "ms",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Which output's size is printed beside each timing.
SIZE_OF = {"pk_s": "pk_s", "sylvester_s": "sylvester_s", "verify_s": "verify_s",
           "report_s": "report_s", "pass_s": "verify_s", "case_p50_ms": "verify_s",
           "case_p99_ms": "verify_s", "verified_per_s": "verify_s", "cli_p50_ms": "cli_s",
           "cli_p90_ms": "cli_s"}


def import_library():
    """Put this checkout's src/ first on sys.path, or stop: a run must never
    fall back to some other installed copy of the library."""
    if not (SRC / "padic_sylvester" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'padic_sylvester'} not found; run from a repository checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import padic_sylvester

    if Path(padic_sylvester.__file__).resolve().parent != SRC / "padic_sylvester":
        sys.exit(f"bench: imported {padic_sylvester.__file__}, not the checkout's copy")


SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import padic_sylvester, workloads
workloads.BUILDERS[{name!r}]({seed!r}, {tiny!r})
elapsed = time.perf_counter() - t0
import runner
print(elapsed / runner.slowdown_now(runner.interpreter_loop))
"""


def setup_samples(name, seed, tiny, count) -> list[float]:
    """Set-up time of `count` fresh processes: import padic_sylvester and
    build the workload's inputs, timed inside the process. Set-up is
    interpreter work on every workload, so interpreter_loop corrects it."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, tiny=tiny)
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def cli_import_s() -> float:
    """Median start-up time of an interpreter that imports padic_sylvester.cli,
    minus that of a bare interpreter, over IMPORT_PAIRS pairs."""
    import runner

    env = runner.cli_env()
    times = {"pass": [], "import padic_sylvester.cli": []}
    for _ in range(IMPORT_PAIRS):
        for stmt, samples in times.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", stmt], env=env, cwd=ROOT, check=True,
                           timeout=60)
            samples.append(time.perf_counter() - t0)
    return statistics.median(times["import padic_sylvester.cli"]) - statistics.median(times["pass"])


def percentile(samples, q) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_passes(seconds: float, body) -> None:
    """Call body() until the next call, if as long as the last, would end
    after `seconds`; always at least once.

    Before each call the objects alive so far (inputs, earlier passes'
    timings) are frozen out of the cyclic collector, so a later pass does not
    pay for traversing what earlier passes recorded."""
    start = time.perf_counter()
    while True:
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


class Workload:
    """One workload's inputs and how a pass runs over them."""

    def __init__(self, name, seed, tiny, corrupt=False):
        import runner
        import workloads

        self.name, self.seed, self.tiny, self.corrupt = name, seed, tiny, corrupt
        self.runner = runner
        self.inputs = workloads.BUILDERS[name](seed, tiny)
        self.is_cli = name == "cli"
        self.round_trip = {"rational-deep": "checked", "rational-many": "timed"}.get(name, "")
        self.env = runner.cli_env()
        self.reference = getattr(runner, REFERENCE_LOOP.get(name, "interpreter_loop"))

    def run_pass(self, tally, in_process=False):
        if self.is_cli:
            return self.runner.cli_pass(self.inputs, tally, self.reference, in_process,
                                        self.env, ROOT)
        return self.runner.library_pass(self.inputs, self.round_trip, tally, self.reference,
                                        self.corrupt)


def check_digests(wl, passes, tally) -> str:
    """Compare the passes' term digests with each other and with the ones
    recorded in digests.json; returns a one-line summary."""
    fixed = {r.digest_fixed for r in passes}
    seeded = {r.digest_seeded for r in passes}
    if len(fixed) > 1 or len(seeded) > 1:
        tally.fail("digest", problems=["passes produced different outputs"])
        return "digest: passes disagree"
    if wl.tiny:
        return "digest: not recorded for --tiny inputs"
    record = json.loads(DIGESTS.read_text()).get(wl.name, {}) if DIGESTS.exists() else {}
    notes = []
    for part, got, want in (("fixed", fixed.pop(), record.get("fixed")),
                            ("seeded", seeded.pop(), record.get("seeded", {}).get(str(wl.seed)))):
        if want is None:
            notes.append(f"{part} not recorded")
        elif got != want:
            tally.fail(f"digest {part}", problems=[f"terms digest {got[:12]} != recorded {want[:12]}"])
            notes.append(f"{part} MISMATCH")
        else:
            notes.append(f"{part} matches")
    return "digest: " + ", ".join(notes)


def call_medians(passes, attr="times", corrected=True) -> dict:
    """Each timed call's median over the passes, divided by its pass's host
    slowdown unless `corrected` is false. Totals are sums of these, not
    medians of pass totals, so a burst of host slowness that lands in one
    pass moves few of the samples."""
    keys = set(getattr(passes[0], attr)).intersection(*(getattr(r, attr) for r in passes[1:]))
    return {k: statistics.median(getattr(r, attr)[k] / (r.slowdown if corrected else 1)
                                 for r in passes) for k in keys}


def end_to_end(wl, passes, tally, setup, rss_mb) -> dict:
    times = call_medians(passes)
    m = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(times.values()),
        "peak_rss_mb": rss_mb,
        "pass_wall_s": sum(call_medians(passes, corrected=False).values()),
        "host_slowdown": statistics.median(r.slowdown for r in passes),
        "failed_frac": tally.failed / tally.attempted,
    }
    if wl.is_cli:
        samples = [s / r.slowdown for r in passes for s in r.case_s.values()]
        m["cli_p50_ms"] = 1e3 * statistics.median(samples)
        m["cli_p90_ms"] = 1e3 * percentile(samples, 90)
        return m
    for stage in ("pk_s", "sylvester_s", "verify_s", "report_s"):
        if any(key[2] == stage for key in times):
            m[stage] = sum(v for key, v in times.items() if key[2] == stage)
    if wl.name == "rational-many":
        cases = list(call_medians(passes, "case_s").values())
        m["case_p50_ms"] = 1e3 * statistics.median(cases)
        m["case_p99_ms"] = 1e3 * percentile(cases, 99)
        m["verified_per_s"] = passes[0].full / m["pass_s"]
    return m


def per_layer(wl, untraced, traced, summaries) -> dict:
    m = {key: statistics.median(s[key] / r.slowdown for s, r in zip(summaries, traced))
         if key.endswith("_s") else summaries[0][key]
         for key in summaries[0] if key in PER_LAYER}
    sizes = traced[0].sizes.get("cli_s" if wl.is_cli else "verify_s", {})
    for key in ("terms", "term_bits", "max_term_bits", "max_tail_ord"):
        m[f"expansion.{key}"] = sizes.get(key, 0)
    m["report.json_bytes"] = traced[0].json_bytes
    m["trace.pass_s"] = sum(call_medians(traced).values())
    m["trace.untraced_pass_s"] = sum(call_medians(untraced).values())
    m["trace.overhead_s"] = m["trace.pass_s"] - m["trace.untraced_pass_s"]
    if wl.is_cli:
        m["cli.import_s"] = cli_import_s()
        m["cli.main_ms"] = 1e3 * statistics.median(
            s / r.slowdown for r in untraced for s in r.case_s.values())
    return {key: m.get(key, 0) for key in PER_LAYER}


def measure(wl, seconds, trace, setup):
    """Run the passes; returns (metrics, tally, digest note, passes)."""
    tally = wl.runner.Tally()
    if not trace:
        passes, rss_mb = [], []

        def one():
            passes.append(wl.run_pass(tally))
            if not rss_mb:  # later passes only add allocator fragmentation
                rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

        run_passes(seconds, one)
        note = check_digests(wl, passes, tally)
        return end_to_end(wl, passes, tally, setup, rss_mb[0]), tally, note, passes
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, summaries = [], [], []

    def pair():
        untraced.append(wl.run_pass(tally, in_process=True))
        tracer.clear()
        tracer.install()
        try:
            traced.append(wl.run_pass(tally, in_process=True))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())

    run_passes(seconds, pair)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{wl.name}.tsv.gz"
    tracer.dump(spans)
    passes = untraced + traced
    note = check_digests(wl, passes, tally) + f"; spans of the last traced pass: " \
        f"{spans.relative_to(ROOT)}"
    return per_layer(wl, untraced, traced, summaries), tally, note, passes


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(args, wl, metrics, units, tally, note, passes, baseline) -> None:
    base = (baseline or {}).get(f"{wl.name}/trace{args.trace}", {}).get("metrics", {})
    sizes = passes[0].sizes
    print(f"# padic-sylvester benchmark  workload={wl.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds} passes={len(passes)} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    print("# timings: time.perf_counter in this process only, no system-wide tracing, "
          "noisy on a shared 2-core host; divided by the host slowdown a reference loop "
          "measures between calls (pass_wall_s, host_slowdown: before correction)")
    print(f"# {note}")
    for name, value in metrics.items():
        line = f"{name:34s} {_fmt(value):>14s} {units[name]:6s}"
        stage = "cli_s" if wl.is_cli and name == "pass_s" else SIZE_OF.get(name)
        if stage in sizes:
            s = sizes[stage]
            line += (f"  [expansion.terms {s['terms']} expansion.term_bits {s['term_bits']}"
                     f" expansion.max_term_bits {s['max_term_bits']}]")
        if name == "failed_frac":
            line += (f"  [failed {tally.failed} of {tally.attempted}; "
                     f"{tally.known_defect} from the 4300-digit int/str limit]")
        if name in ("case_p50_ms", "case_p99_ms", "cli_p50_ms", "cli_p90_ms"):
            n = sum(len(r.case_s) for r in passes) if wl.is_cli else len(passes[0].case_s)
            line += f"  [n={n}]"
        old = base.get(name, {}).get("value")
        if isinstance(old, (int, float)) and old:
            line += f"  ratio {value / old:.3f} vs base {_fmt(old)}"
        print(line)
    for problem in tally.problems:
        print(f"# FAILED {problem}")


def save_results(path, args, wl, metrics, units, tally) -> None:
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[f"{wl.name}/trace{args.trace}"] = {
        "seed": args.seed, "seconds": args.seconds, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed, "known_defect": tally.known_defect,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="merge this run's metrics into this results file")
    ap.add_argument("--baseline", help="print ratios against this results file")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    return ap.parse_args(argv)


def main(argv=None, corrupt=False) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_library()
    wl = Workload(args.workload, args.seed, args.tiny, corrupt)
    own_setup = (time.perf_counter() - t0) / wl.runner.slowdown_now(wl.runner.interpreter_loop)
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    setup = [own_setup]
    if not args.trace:
        setup += setup_samples(wl.name, args.seed, args.tiny,
                               1 if args.tiny else SETUP_SAMPLES - 1)
    metrics, tally, note, passes = measure(wl, args.seconds, args.trace, setup)
    units = {**END_TO_END, **DETAIL, **PER_LAYER}
    print_report(args, wl, metrics, units, tally, note, passes, baseline)
    if args.out:
        save_results(args.out, args, wl, metrics, units, tally)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
