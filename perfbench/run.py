#!/usr/bin/env python3
"""End-to-end benchmark of the Strober flow.

Builds perfbench/strober_perfbench from the checkout's sources, then runs
closed-loop estimate jobs of one workload (--seconds worth at the
workload's nominal job wall, a fixed count) and prints the result as the
last line of standard output:

    python3 perfbench/run.py --workload replay-heavy --seed 1 \
        --seconds 15 --trace 0

Workloads, metrics and what each per-layer metric should move are listed
in perfbench/README.md. Each run gets a fresh private temporary directory
inside the checkout: it is the JIT's TMPDIR and holds the replay-result
cache, and it is removed when the run ends, so every run measures the same
thing. --trace 1 also writes the run's spans as Chrome trace-event JSON
under .bench_build/perfbench-traces/.

    python3 perfbench/run.py --smoke

runs the self-test instead: one short rocket job in each workload's shape
(phased, cached re-run, streamed), traced and untraced, checking every
metric, the span file and every output check in well under a minute.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "strober_perfbench")
WORKLOADS = ("replay-heavy", "rerun-compiled", "streamed")
SMOKE_WORKLOADS = ("smoke-phased", "smoke-rerun", "smoke-streamed")
# Wall-clock cap on one benchmark process (a run must end within 180 s).
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark; output goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "--target", "strober_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """Run one benchmark process in a fresh private temp directory.

    Returns (exit code, stdout lines, trace file path or None). The temp
    directory is removed afterwards; a JIT scratch directory left in it
    is reported as a failure of the run.
    """
    tmp_root = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cache = os.path.join(tmp, "cache")
    os.makedirs(cache)
    trace_out = None
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cache-dir", cache]
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.json"
                                 % (workload, seed))
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
            return 1, [], None
        leftovers = [e for e in os.listdir(tmp) if e != "cache"]
        if leftovers:
            log("left behind in TMPDIR: " + ", ".join(sorted(leftovers)))
            return 1, out.splitlines(), trace_out
        return proc.returncode, out.splitlines(), trace_out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_trace_file(path):
    """The span file must be Chrome trace-event JSON with job spans."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    names = {e["name"] for e in events}
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0:
            raise ValueError("malformed span %r" % e)
    missing = {"bench.job", "bench.setup", "core.ctor",
               "gate.asic_flow"} - names
    if missing:
        raise ValueError("trace lacks spans " + ", ".join(sorted(missing)))


def smoke():
    """Self-test: every workload shape on a short rocket job."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {False: [m["name"] for m in spec["end_to_end"]],
            True: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in SMOKE_WORKLOADS:
        for trace in (False, True):
            code, lines, trace_out = run_once(workload, 1, 1, trace)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            metrics = result.get("metrics", {})
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            if not result.get("correct") or result.get("failed"):
                problems.append("output checks failed")
            problems += ["missing metric " + m for m in want[trace]
                         if m not in metrics]
            digests = [json.loads(l)["digest"] for l in lines
                       if l.startswith('{"job"')]
            if not digests:
                problems.append("no report digests")
            summary = [json.loads(l)["summary"] for l in lines
                       if l.startswith('{"summary"')]
            if not summary or summary[-1]["failed"] != result.get("failed"):
                problems.append("no summary line matching the result")
            if trace and trace_out:
                try:
                    check_trace_file(trace_out)
                except (OSError, ValueError, KeyError) as e:
                    problems.append("trace file: %s" % e)
                if metrics.get("bench.unattributed_pct",
                               {}).get("value", 100) > 5:
                    problems.append("over 5% of a job is unattributed")
            log("smoke %-15s trace=%d: %s" % (
                workload, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload or --smoke is required")

    t0 = time.monotonic()
    if not build():
        return 1
    log("build took %.1f s" % (time.monotonic() - t0))
    if args.smoke:
        return 0 if smoke() else 1

    code, lines, _ = run_once(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if code != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        log("benchmark exited with code %d" % code)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
