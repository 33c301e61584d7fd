#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload (the two in BENCHMARK.json and tenants-zipf) it checks:
- the result line has exactly the keys correct/attempted/failed/metrics,
  and its metrics are exactly BENCHMARK.json's end_to_end list (untraced)
  or per_layer list (traced), with the same units;
- two untraced runs with one seed print bit-identical simulated metrics
  (every "metric ... sim" line);
- a second seed runs;
- a deliberately misdelivered packet makes the run exit with code 3 and
  print no result.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS_EXTRA = ["tenants-zipf"]


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace, extra=()):
    args = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace)] + list(extra)
    return subprocess.run(args, capture_output=True, text=True)


def result(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (what, proc.returncode, proc.stderr[-400:]))
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(res)))
    if res["correct"] is not True or res["attempted"] < 1:
        fail("%s: correct=%s attempted=%s" % (what, res["correct"], res["attempted"]))
    sim = [l for l in lines if l.startswith("metric ") and l.split()[-1] == "sim"]
    return res, sim


def check_metrics(res, expected, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("%s: metrics differ from BENCHMARK.json (missing %s, extra %s, units %s)"
             % (what, missing, extra, {k: (got[k], want[k]) for k in got if k in want and got[k] != want[k]}))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] + WORKLOADS_EXTRA
    for w in workloads:
        a, sim_a = result(run(w, 7, 0), w + " seed 7")
        check_metrics(a, bench["end_to_end"], w + " untraced")
        b, sim_b = result(run(w, 7, 0), w + " seed 7 again")
        if not sim_a or sim_a != sim_b:
            diff = [(x, y) for x, y in zip(sim_a, sim_b) if x != y]
            fail("%s: simulated metrics differ between two runs of seed 7: %s" % (w, diff[:3]))
        t, _ = result(run(w, 7, 1), w + " traced")
        check_metrics(t, bench["per_layer"], w + " traced")
        result(run(w, 8, 0), w + " seed 8")
        bad = run(w, 7, 0, ["--misdeliver-test"])
        if bad.returncode != 3 or '"correct"' in bad.stdout:
            fail("%s: a misdelivery gave exit %d" % (w, bad.returncode))
        print("ok %s: %d simulated metrics repeat bit for bit; %d end-to-end, %d per-layer metrics"
              % (w, len(sim_a), len(a["metrics"]), len(t["metrics"])), flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
