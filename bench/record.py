"""Write the reference data that bench/run.py reads.

    python3 bench/record.py digests [--seeds N]   # digests.json, seeds 0..N-1
    python3 bench/record.py pool                  # quad_pool.json

Run it only at a commit whose outputs are trusted: every later run compares
its term digests with digests.json, and a changed expansion counts as a
failed check. The pool is regenerated deterministically.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record_digests(seeds: int) -> dict:
    out = {}
    for name in run.WORKLOADS:
        entry = {"fixed": None, "seeded": {}}
        for seed in range(seeds):
            wl = run.Workload(name, seed, tiny=False)
            tally = wl.runner.Tally()
            res = wl.run_pass(tally)
            if not tally.correct:
                sys.exit(f"record: {name} seed {seed} has wrong outputs: {tally.problems}")
            if entry["fixed"] not in (None, res.digest_fixed):
                sys.exit(f"record: {name} fixed inputs gave different digests across seeds")
            entry["fixed"] = res.digest_fixed
            entry["seeded"][str(seed)] = res.digest_seeded
            print(f"{name} seed {seed}: {res.digest_seeded[:16]}", flush=True)
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("what", choices=("digests", "pool"))
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args(argv)
    run.import_library()
    import workloads

    if args.what == "pool":
        data, path = workloads.make_quad_pool(per_prime=12), workloads.QUAD_POOL
    else:
        data, path = record_digests(args.seeds), run.DIGESTS
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
