#!/usr/bin/env python3
"""Build the simulator and its benchmark program, run one workload,
and print every metric with its unit.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The full report (host block, percentiles and sample counts, ratio
bases, span dump) is kept under .bench_build/reports/. See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
BINARY = os.path.join(BUILD, "apbench")

# Keep every file the benchmark writes inside .bench_build.
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import check_report  # noqa: E402

# apbench ends well inside this; the rest of 180 s is for start-up.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def build():
    """Configure once, then let the build tool bring the tree up to
    date (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        rc = run_logged(cmd, log, timeout=850)
        if rc != 0:
            with open(log) as f:
                tail = f.read()[-4000:]
            fail(f"build step {' '.join(cmd)} failed:\n{tail}")


def fmt_extra(m):
    parts = []
    for key, val in m.items():
        if key in ("value", "unit"):
            continue
        parts.append(f"{key}={val}")
    return ("  (" + ", ".join(parts) + ")") if parts else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build()
    os.makedirs(REPORTS, exist_ok=True)
    report = os.path.join(
        REPORTS, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    if os.path.exists(report):
        os.remove(report)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report", report]
    log = os.path.join(REPORTS, f"{args.workload}_seed{args.seed}.log")
    rc = run_logged(cmd, log, timeout=RUN_TIMEOUT_S)
    with open(log) as f:
        sys.stderr.write(f.read())
    if rc != 0:
        fail(f"apbench exited with {rc}")

    with open(report) as f:
        doc = json.load(f)
    errs = check_report.validate(doc, bench)
    for e in errs:
        print(f"perfbench: report: {e}", file=sys.stderr)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    print(f"{args.workload} seed {args.seed}: {doc['attempted']} cells, "
          f"{doc['failed']} failed, host {doc['host']}")
    for spec in bench["end_to_end"] + (bench["per_layer"] if args.trace
                                       else []):
        m = doc["metrics"].get(spec["name"])
        if m is None:
            continue
        print(f"  {spec['name']:<36} {m['value']:>16.6g} {m['unit']:<9}"
              f"{fmt_extra(m)}")
    for spec in wanted:
        m = doc["metrics"].get(spec["name"])
        if m is not None:
            metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    for c in doc["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"({c['detail']})")
    result = {
        "correct": bool(doc["correct"]) and not errs,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
