#!/usr/bin/env python3
"""Repeatability check of the benchmark against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--out runs.json]
    python3 perfbench/spread.py --compare first.json second.json

The first form runs perfbench/run.py once per seed (untraced) and prints,
for every end-to-end metric, the median, the quartiles and the spread:
the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)). A spread must stay within the
metric's bound (setup_s is exempt), and should stay below a third of it.
The second form compares two such result files: for every workload and
metric the second median may be worse than the first by at most the bound.
Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path=None):
    with open(path or os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of run values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which median `second` is worse than median `first`; <= 0
    when it is no worse."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def check_spreads(spec, runs):
    """Problems with the spreads of {workload: {metric: [values]}}."""
    problems = []
    for metric in spec["end_to_end"]:
        for workload, metrics in runs.items():
            values = metrics.get(metric["name"], [])
            if len(values) < 2:
                problems.append("%s/%s: fewer than two runs" % (workload, metric["name"]))
                continue
            _, _, _, s = spread(values)
            if metric["name"] != "setup_s" and s > metric["bound"]:
                problems.append("%s/%s: spread %.4f above bound %.2f"
                                % (workload, metric["name"], s, metric["bound"]))
    return problems


def check_medians(spec, first, second):
    """Problems where the second set's median is worse than the first's by
    more than the metric's bound."""
    problems = []
    for metric in spec["end_to_end"]:
        for workload in first:
            a = statistics.median(first[workload][metric["name"]])
            b = statistics.median(second[workload][metric["name"]])
            w = worse_by(a, b, metric["better"])
            if w > metric["bound"]:
                problems.append("%s/%s: median %.6g -> %.6g is %.1f%% worse (bound %.0f%%)"
                                % (workload, metric["name"], a, b, 100 * w, 100 * metric["bound"]))
    return problems


def run_seeds(spec, workload, seeds):
    """({metric: [values]}, [failed seeds]) over untraced runs of `seeds`."""
    values, failed = {}, []
    for seed in seeds:
        cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or not result or not result["correct"]:
            failed.append(seed)
            print("seed %d: FAILED (exit %d): %s" % (seed, proc.returncode,
                                                    (proc.stdout + proc.stderr).strip()[-600:]),
                  flush=True)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"])
                                              for k, v in result["metrics"].items())),
              flush=True)
    return values, failed


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        problems = check_medians(spec, sets[0], sets[1])
    else:
        if not args.workload:
            parser.error("--workload or --compare is required")
        values, failed = run_seeds(spec, args.workload, parse_seeds(args.seeds))
        runs = {args.workload: values}
        for metric in spec["end_to_end"]:
            med, q1, q3, s = spread(runs[args.workload][metric["name"]])
            print("%-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  (bound %.2f, target %.4f)"
                  % (metric["name"], med, q1, q3, s, metric["bound"], metric["bound"] / 3))
        if args.out:
            previous = {}
            if os.path.exists(args.out):
                with open(args.out) as f:
                    previous = json.load(f)
            previous.update(runs)
            with open(args.out, "w") as f:
                json.dump(previous, f, indent=1)
        problems = check_spreads(spec, runs)
        problems += ["%s: seed %d failed" % (args.workload, seed) for seed in failed]
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
