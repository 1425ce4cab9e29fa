#!/usr/bin/env python3
"""Writes the benchmark's stored references (perfbench/refs/).

For each workload it stores the stdout of
`iosim run <scenario> --check -j1 [--seed=42]` as <workload>/seed-42.out
(<workload>/any.out for the seed-independent xl_collective) and the exact
counts of the traced replay as the matching .json.  A reference is written
only when the replay reproduces every number iosim printed, and the
stdout of figure2_xl and platform_server_cache must equal the
repository's goldens (bench/golden/) once the --check lines are dropped.
Other scenario seeds have no stored reference: compare.py checks them
byte for byte between two builds.

Rewriting references is a change to the benchmark, not to the program:
a change that claims a gain runs against the references as they are.

    python3 perfbench/refs.py
"""
import json
import os
import subprocess
import sys

import run

GOLDENS = {"xl_collective": "bench_figure2_xl.txt",
           "platform_cache": "bench_platform_server_cache.txt"}


def make_ref(iosim, replay, workload, seed):
    p = subprocess.run(run.iosim_cmd(iosim, workload, seed),
                       capture_output=True, text=True)
    if p.returncode != 0:
        return "%s seed %d: iosim exited %d" % (workload, seed, p.returncode)
    _, trace = run.json_run([replay, "trace", workload, str(seed)])
    bad = run.fidelity(workload, p.stdout, trace)
    if bad:
        return "%s seed %d: replay differs: %s" % (workload, seed, bad)
    golden = GOLDENS.get(workload)
    if golden:
        with open(os.path.join(run.ROOT, "bench", "golden", golden)) as f:
            want = f.read()
        got = "".join(line for line in p.stdout.splitlines(True)
                      if not line.startswith("  [PASS] "))
        if got != want:
            return "%s: stdout differs from bench/golden/%s" % (workload,
                                                                golden)
    stem = os.path.join(run.REFS, workload, run.ref_key(workload, seed))
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".out", "w") as f:
        f.write(p.stdout)
    with open(stem + ".json", "w") as f:
        json.dump(run.exact_counts(trace), f, indent=1, sort_keys=True)
        f.write("\n")
    return None


def main():
    iosim, replay = run.build()
    errors = [e for e in (make_ref(iosim, replay, w, run.PLATFORM_SEED)
                          for w in sorted(run.WORKLOADS)) if e]
    for e in errors:
        print(e, file=sys.stderr)
    print("%d of %d references written" % (len(run.WORKLOADS) - len(errors),
                                           len(run.WORKLOADS)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
