#!/usr/bin/env python3
"""Compares benchmark reports of two builds: exact counts, then host time.

Each side is a list of reports written by `perfbench/run.py --out PATH`.
Reports are grouped by workload; within a workload:

  * every deterministic count (simulated totals, registry counters, each
    grid point's printed cells and event count) must be identical across
    all reports of the same seed, on both sides;
  * iosim's stdout for a seed must be byte-identical across both sides
    (this is the correctness check for seeds without a stored reference);
  * each host-time metric's median on the new side must not be worse than
    the base median by more than the metric's bound in BENCHMARK.json.
    Per-layer host times have no bound and are listed for information.

    python3 perfbench/compare.py --base base/*.json --new new/*.json

Prints every difference; exits 1 if a count or output changed or a
bounded metric got worse by more than its bound, else 0.
"""
import argparse
import json
import os
import statistics
import sys

import run


def load(paths):
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    return reports


def bounds():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def compare_counts(base, new):
    """Lines describing every count or output that differs, comparing
    reports of the same workload and scenario seed."""
    lines = []
    by_seed = {}
    for side, reports in (("base", base), ("new", new)):
        for r in reports:
            by_seed.setdefault((r["workload"], r["scenario_seed"]), []).append(
                (side, r))
    for (workload, seed), group in sorted(by_seed.items()):
        side0, first = group[0]
        for side, r in group[1:]:
            where = "%s scenario seed %d (%s vs %s)" % (workload, seed,
                                                         side0, side)
            for name, a, b in run.count_diff(first["counts"], r["counts"]):
                lines.append("count   %s %s: %s -> %s" % (where, name, a, b))
            if r["stdout"] != first["stdout"]:
                lines.append("output  %s: iosim stdout differs" % where)
    return lines


def compare_times(base, new, limits):
    """(lines, regressed) for host-time metrics, by workload and trace."""
    lines, regressed = [], False
    keys = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in keys:
        b = [r for r in base if (r["workload"], r["trace"]) ==
             (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) ==
             (workload, trace)]
        if not b or not n:
            continue
        names = run.E2E_UNITS if trace == 0 else sorted(run.HOST_METRICS)
        for name in names:
            mb = statistics.median(r["metrics"][name] for r in b)
            mn = statistics.median(r["metrics"][name] for r in n)
            verdict = ""
            limit = limits.get(name)
            if trace == 0 and limit and mb:
                worse = (mn - mb) / mb if limit["better"] == "lower" \
                    else (mb - mn) / mb
                verdict = "worse by %.1f%% (bound %.0f%%)" % (
                    100 * worse, 100 * limit["bound"]) if worse > 0 else \
                    "better by %.1f%%" % (-100 * worse)
                if worse > limit["bound"]:
                    verdict += "  REGRESSION"
                    regressed = True
            lines.append("time    %-16s %-30s base %-12.6g new %-12.6g "
                         "(%d vs %d runs) %s" % (workload, name, mb, mn,
                                                 len(b), len(n), verdict))
    return lines, regressed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    count_lines = compare_counts(base, new)
    time_lines, regressed = compare_times(base, new, bounds())
    for line in count_lines + time_lines:
        print(line)
    print("%d count/output difference(s); %s" % (
        len(count_lines),
        "a bounded metric regressed" if regressed else "no bound exceeded"))
    return 1 if count_lines or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
