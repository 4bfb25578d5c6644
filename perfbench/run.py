#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (it reads BENCHMARK.json there and refuses a
result whose metrics differ from it). The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set), the shared kernel store
to .bench_build/perfbench/store, and each run gets a scratch directory
there that is removed when it ends. The last stdout line is the JSON
result of ltp-perfbench; the exit status is its exit status (1 when a
check failed), 2 when the arguments or the build are wrong, 3 on a
timeout and 4 when the result's metrics disagree with BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_requests", "serve_mix", "kernel_run", "simulate")
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)  # exits 2 on an unknown flag
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def build(build_dir):
    """Configures and builds ltp-perfbench; returns its path or None."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir] + generator,
                    ["cmake", "--build", build_dir, "--target", "ltp-perfbench",
                     "ltp-serve", "-j", jobs]):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, env=env) != 0:
                out.flush()
                with open(log) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return None
    return os.path.join(build_dir, "ltp-perfbench")


def check_metrics(line, spec, trace):
    """Problems with the result line against BENCHMARK.json: every metric
    of the run's kind, by name and unit, and nothing else."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return ["the last line is not a result object"]
    return ["%s: %s, want %s" % (k, got.get(k), want.get(k))
            for k in sorted(set(want) | set(got)) if got.get(k) != want.get(k)]


def main(argv):
    args = parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        sys.stderr.write("error: building the benchmark failed\n")
        return 2

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # glibc's mmap threshold pinned at its initial 128 KiB: every instance
    # buffer above it goes back to the system when freed, so peak_rss_mb
    # tracks live data. With the adaptive threshold such buffers land in
    # per-thread heaps whose fragmentation grows with run length and thread
    # scheduling.
    env = dict(os.environ, LTP_LOG="off", LTP_METRICS="1", TMPDIR=work_dir,
               MALLOC_MMAP_THRESHOLD_="131072")
    env.pop("LTP_TRACE", None)
    env.pop("LTP_JIT_DISK_CACHE", None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--store-dir", os.path.join(build_dir, "store")]
    try:
        proc = subprocess.run(cmd, env=env, timeout=170, stdout=subprocess.PIPE, text=True)
        status = proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        problems = check_metrics(lines[-1], spec, args.trace)
        if problems:
            lines = lines[:-1]
            sys.stderr.write("error: metrics disagree with BENCHMARK.json: %s\n"
                             % "; ".join(problems[:5]))
            status = status or 4
        sys.stdout.write("\n".join(lines) + "\n")
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: the benchmark did not finish in 170 s\n")
        status = 3
    spans = os.path.join(work_dir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(build_dir, "spans-%s.jsonl" % args.workload))
    shutil.rmtree(work_dir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
