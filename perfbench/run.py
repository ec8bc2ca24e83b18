#!/usr/bin/env python3
"""Seeded deletion benchmark for the Xheal engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/xbench.exe with
dune, then starts one process per independent instance of the workload
(instance k of seed N has its own graph and attack, all derived from N)
for --seconds, checks every simulated output, and prints one JSON
object as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each instance also runs traced and the metrics are the
per-layer split. perfbench/NOTES.md explains the workloads and the
choice of medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "xbench.exe")
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("churn-100k", "lossy-detect-100k", "monitored-10k")
# Host-time metrics are medians over every instance that fits in
# --seconds; the exact ones (messages, rounds, heap, failures) come from
# the first EXACT_INSTANCES instances only, so they repeat for a seed
# however fast the host is.
EXACT_INSTANCES = 3
PIN_SEED = 1
CHILD_TIMEOUT = 60

END_TO_END_UNITS = {
    "deletions_per_s": "1/s",
    "deletion_p50_us": "us",
    "deletion_p99_us": "us",
    "setup_s": "s",
    "peak_heap_mb": "MiB",
    "messages_per_deletion": "messages",
    "rounds_per_deletion": "rounds",
    "completed_share": "ratio",
}


class Incorrect(Exception):
    pass


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project next to perfbench/; run from a full checkout")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "--cache", "disabled",
             "./perfbench/xbench.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build did not finish: %s" % e)
    if r.returncode != 0:
        die("build failed")


def instance(workload, seed, k, traced=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--instance", str(k)]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace", os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise Incorrect("instance %d of seed %d ran past %d s" % (k, seed, CHILD_TIMEOUT))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise Incorrect("instance %d of seed %d exited with %d" % (k, seed, r.returncode))
    try:
        out = json.loads(r.stdout.strip().splitlines()[-1])
        sim = out["sim"]
    except (ValueError, IndexError, KeyError):
        raise Incorrect("instance %d of seed %d printed no result" % (k, seed))
    if sim["check"] != "ok":
        raise Incorrect("Xheal.check failed on instance %d: %s" % (k, sim["check"]))
    if sim["monitor_violations"] != 0:
        raise Incorrect("%d monitor violations on instance %d" % (sim["monitor_violations"], k))
    if out["host"]["deletion_samples"] < 1000:
        raise Incorrect("fewer than 10 samples beyond p99")
    return out


def failures(sim):
    return sim["aborted"] + sim["unconverged"] + (0 if sim["check"] == "ok" else 1)


# The simulated outputs pinned for instance 0 of the default seed: a
# change to the program that alters any of them is not a speed-up of
# the same work.
def check_pins(workload):
    with open(PINS) as f:
        pins = json.load(f)[workload]
    sim = instance(workload, PIN_SEED, 0)["sim"]
    for key, pinned in pins.items():
        if sim[key] != pinned:
            raise Incorrect("seed %d %s is %r, pinned %r" % (PIN_SEED, key, sim[key], pinned))


def rate(run):
    return run["host"]["deletion_samples"] / (run["host"]["window_ns"] / 1e9)


def end_to_end(runs):
    exact = runs[:EXACT_INSTANCES]
    sims = [r["sim"] for r in exact]
    med = lambda key, scale: statistics.median(r["host"][key] for r in runs) / scale
    deletions = sum(s["deletions"] for s in sims)
    attempted = sum(s["attempted"] for s in sims)
    return {
        "deletions_per_s": statistics.median(rate(r) for r in runs),
        "deletion_p50_us": med("deletion_p50_ns", 1e3),
        "deletion_p99_us": med("deletion_p99_ns", 1e3),
        "setup_s": med("setup_ns", 1e9),
        "peak_heap_mb": statistics.median(r["host"]["top_heap_bytes"] for r in exact) / 2**20,
        "messages_per_deletion": sum(s["messages"] for s in sims) / deletions,
        "rounds_per_deletion": sum(s["rounds"] for s in sims) / deletions,
        "completed_share": 1 - sum(failures(s) for s in sims) / attempted,
    }, END_TO_END_UNITS


def per_layer(pairs):
    units, values = {}, {}
    for _, traced in pairs:
        for m in traced["layers"]:
            units[m["name"]] = m["unit"]
            values.setdefault(m["name"], []).append(m["value"])
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["trace.overhead_ratio"] = statistics.median(rate(t) / rate(p) for p, t in pairs)
    units["trace.overhead_ratio"] = "ratio"
    return metrics, units


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    runs, pairs = [], []
    try:
        check_pins(args.workload)
        start = time.monotonic()
        # Start another instance only if it should end within --seconds.
        while len(runs) < EXACT_INSTANCES or \
                (time.monotonic() - start) * (len(runs) + 1) / len(runs) <= args.seconds:
            k = len(runs)
            plain = instance(args.workload, args.seed, k)
            runs.append(plain)
            if args.trace:
                traced = instance(args.workload, args.seed, k, traced=True)
                if traced["sim"] != plain["sim"]:
                    raise Incorrect("traced instance %d simulated something else" % k)
                pairs.append((plain, traced))
        elapsed = time.monotonic() - start
    except Incorrect as e:
        print("perfbench: " + str(e), file=sys.stderr)
        attempted = sum(r["sim"]["attempted"] for r in runs) or 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        sys.exit(1)

    metrics, units = per_layer(pairs) if args.trace else end_to_end(runs)
    samples = runs[0]["host"]["deletion_samples"]
    print("perfbench %s seed %d: %d instances in %.1f s, %d deletion samples each (%d beyond p99)"
          % (args.workload, args.seed, len(runs), elapsed, samples, samples - -(-99 * samples // 100)))
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["sim"]["attempted"] for r in runs),
        "failed": sum(failures(r["sim"]) for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
