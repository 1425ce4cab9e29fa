#!/usr/bin/env python3
"""Shows that the benchmark's correctness gates trip.

1. The stdout gate fails a run whose reference differs by one character,
   and one that exits non-zero; it passes the unmodified reference.
2. The replay-fidelity gate flags a replay point whose printed number
   differs from iosim's.
3. compare.py's exact-count comparison lists a single changed count.
4. End to end: run.py on platform_cache seed 42 against a copy of the
   references with one table cell perturbed reports correct=false and
   counts every run as failed (one iosim run, ~20 s).
5. The traced run against a reference whose simkit.events is off by one
   reports correct=false, so events_per_s cannot divide a stale count
   (one iosim run and one replay, ~45 s).

    python3 perfbench/selftest.py
"""
import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import run

WORKLOAD, SEED = "platform_cache", 42


def check(ok, what):
    if not ok:
        raise SystemExit("selftest FAILED: %s" % what)


def perturb(text):
    """The reference with the first table digit changed."""
    i = next(i for i, line in enumerate(text.splitlines(True))
             if line.startswith("| lru"))
    lines = text.splitlines(True)
    pos = lines[i].index("224/224")
    lines[i] = lines[i][:pos] + "223" + lines[i][pos + 3:]
    return "".join(lines)


def run_against(out_text, counts, trace):
    """run.py's JSON result on WORKLOAD against a reference copy that
    holds out_text and counts."""
    os.makedirs(run.build_dir(), exist_ok=True)
    saved, captured = run.REFS, io.StringIO()
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as refs:
        stem = os.path.join(refs, WORKLOAD, run.ref_key(WORKLOAD, SEED))
        os.makedirs(os.path.dirname(stem))
        with open(stem + ".out", "w") as f:
            f.write(out_text)
        with open(stem + ".json", "w") as f:
            json.dump(counts, f)
        run.REFS = refs
        try:
            with contextlib.redirect_stdout(captured):
                run.main(["--workload", WORKLOAD, "--seed", "0",
                          "--seconds", "1", "--trace", str(trace)])
        finally:
            run.REFS = saved
    return json.loads(captured.getvalue().splitlines()[-1])


def main():
    ref_out, ref_counts = run.load_ref(WORKLOAD, SEED)
    check(ref_out is not None,
          "no stored reference for %s seed %d" % (WORKLOAD, SEED))
    bad_out = perturb(ref_out)
    check(bad_out != ref_out, "the perturbed reference differs")

    # 1. stdout gate.
    check(run.check_output(ref_out, 0, ref_out, None) is None,
          "the reference itself passes")
    check(run.check_output(ref_out, 0, bad_out, None) is not None,
          "a one-character change fails")
    check(run.check_output(ref_out, 1, ref_out, None) is not None,
          "a non-zero exit fails")
    print("ok  stdout gate: passes the reference, fails a one-character "
          "change and a non-zero exit")

    # 2. replay fidelity: the stored reference's cells reproduce iosim's
    # stdout; one changed cell is flagged.
    trace = {"points": ref_counts["points"]}
    check(run.fidelity(WORKLOAD, ref_out, trace) == [],
          "the stored cells match the stored stdout")
    bad_trace = copy.deepcopy(trace)
    bad_trace["points"][1]["cells"]["evictions"] = "1"
    flagged = run.fidelity(WORKLOAD, ref_out, bad_trace)
    check([b["point"] for b in flagged] == ["arc"], flagged)
    print("ok  fidelity gate: flags the one replay point that differs")

    # 3. exact-count comparison.
    changed = copy.deepcopy(ref_counts)
    changed["counters"]["pfs.disk.reads"] += 1
    diffs = run.count_diff(ref_counts, changed)
    check([d[0] for d in diffs] == ["counters:pfs.disk.reads"], diffs)
    check(run.count_diff(ref_counts, ref_counts) == [],
          "identical counts compare equal")
    print("ok  count comparison: lists exactly the one changed count")

    # 4. end to end against a perturbed reference stdout.
    result = run_against(bad_out, ref_counts, 0)
    check(result["correct"] is False, result)
    check(result["failed"] == result["attempted"] >= 1, result)
    print("ok  end to end: a perturbed reference gives correct=false, "
          "%d of %d runs failed" % (result["failed"], result["attempted"]))

    # 5. traced run against a reference event count that is off by one.
    stale = copy.deepcopy(ref_counts)
    stale["sim"]["simkit.events"] += 1
    result = run_against(ref_out, stale, 1)
    check(result["correct"] is False and result["failed"] == 1, result)
    print("ok  traced run: a stale reference event count gives "
          "correct=false")
    return 0


if __name__ == "__main__":
    sys.exit(main())
