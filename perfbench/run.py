#!/usr/bin/env python3
"""The oraclesize system benchmark.

Builds the library and the perfbench program from this checkout (Release,
into .bench_build/), then runs one workload:

    python3 perfbench/run.py --workload sweep|campaign|service \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the provenance and every metric with its unit and sample count. The
traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>-seed<N>.json.

    python3 perfbench/run.py --smoke

is the benchmark's own smoke test: every workload in both modes on small
inputs, checking that every metric named in BENCHMARK.json is emitted,
finite and tagged with its unit.

Seeds: 1 is the default; 7 is held out for checking a claimed gain on a
seed the change was not tuned on. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("sweep", "campaign", "service")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; serialised by a lock."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                                cwd=ROOT, stdout=sys.stderr)
        return result.returncode == 0 and os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args):
    """Runs the benchmark program; returns (exit code, stdout). Kills it on timeout."""
    with subprocess.Popen([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
            return 2, ""
        return proc.returncode, out


def program_args(workload, seed, seconds, trace, smoke):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--commit", git_commit(), "--source-digest", source_digest()]
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, f"{workload}-seed{seed}.json")]
    if smoke:
        args.append("--smoke")
    return args


def smoke_test():
    """Every workload in both modes: every named metric emitted, finite,
    unit-tagged, and the outputs correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        log(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(
                program_args(workload, DEFAULT_SEED, 1, trace, True))
            lines = out.strip().splitlines()
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: not correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if sorted(got) != sorted(want):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))}"
                                " differ from BENCHMARK.json")
            for name, unit in want.items():
                m = got.get(name, {})
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} not finite: {value}")
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
            log(f"smoke {where}: {len(got)} metrics checked")
    for p in problems:
        log(f"SMOKE FAILURE: {p}")
    print(json.dumps({"smoke": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own smoke test")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 2
    if args.smoke:
        return smoke_test()
    code, out = run_binary(program_args(args.workload, args.seed, args.seconds,
                                       args.trace, False))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
