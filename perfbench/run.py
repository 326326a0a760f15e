#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark package (this directory's CMakeLists.txt, which compiles the
engine sources under src/) into .bench_build/perfbench. The benchmark binary
prints a human-readable table; this script forwards it and then prints, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics, holding exactly the metrics BENCHMARK.json
names for the mode: end_to_end with --trace 0, per_layer with --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# The ten end-to-end metrics the benchmark prints for every workload
# (n/a where one does not apply). BENCHMARK.json gates the ones that apply
# to every workload and are never zero.
END_TO_END = ["op_p50_s", "op_tail_s", "instr_per_s", "setup_s",
              "peak_heap_mib", "failed_frac", "type_distance",
              "conservativeness", "pointer_accuracy", "const_recall"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the package; exits 2 on failure."""
    os.makedirs(OUT, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(os.path.join(OUT, "build.log"), "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                logf.flush()
                with open(os.path.join(OUT, "build.log")) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (%s)" % " ".join(cmd))
                sys.exit(2)


def revision():
    """The git revision, or a digest of the engine sources outside git."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--root", ROOT,
           "--work-dir", os.path.join(OUT, "work", "%s-%d" % (workload,
                                                             os.getpid())),
           "--out-dir", os.path.join(OUT, "results"), "--rev", revision()]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          text=True, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def bench(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result restricted to the
    metrics BENCHMARK.json names for the mode, or None)."""
    code, lines = run_binary(workload, seed, seconds, trace)
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        log("perfbench: benchmark exited with %d" % code)
        return code or 1, None
    result = json.loads(lines[-1])
    names = [m["name"] for m in spec()["per_layer" if trace
                                       else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("perfbench: metrics missing from the run: %s" % missing)
        return 1, None
    return 0, {"correct": result["correct"],
               "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {n: result["metrics"][n] for n in names}}


def selftest():
    """Toy-sized runs of every workload in both modes, plus a corrupted op.

    Checks that every end-to-end and per-layer metric is printed with a
    unit, that failed_frac is 0 on clean runs, and that a report with one
    altered prototype is counted as failed.
    """
    build()
    spec_ = spec()
    layers = [m["name"] for m in spec_["per_layer"]]
    problems = []
    for w in [w["name"] for w in spec_["workloads"]]:
        for trace, wanted in ((0, END_TO_END), (1, layers)):
            code, lines = run_binary(w, None, 1, trace, ["--toy"])
            table = {}
            for line in lines:
                parts = line.split()
                if line.startswith("  ") and len(parts) >= 3:
                    table[parts[0]] = parts[2]
            for name in wanted:
                if not table.get(name):
                    problems.append("%s trace %d: %s not printed with a unit"
                                    % (w, trace, name))
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct") or result["failed"]:
                problems.append("%s trace %d: clean run failed (exit %d)"
                                % (w, trace, code))
            elif trace == 0 and result["metrics"]["failed_frac"]["value"]:
                problems.append("%s: failed_frac is not 0" % w)
        code, lines = run_binary(w, None, 1, 0, ["--toy", "--corrupt-op", "1"])
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        if (result.get("correct", True) or result.get("failed", 0) < 1 or
                result["metrics"]["failed_frac"]["value"] <= 0):
            problems.append("%s: corrupted report not counted in failed_frac"
                            % w)
        log("selftest: %s done" % w)
    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload in turn, at its default seed")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload and not args.all:
        parser.error("--workload or --all is required")
    build()
    if not args.all:
        code, result = bench(args.workload, args.seed, args.seconds,
                             args.trace)
        if result:
            print(json.dumps(result), flush=True)
        return code
    results = {}
    for w in [w["name"] for w in spec()["workloads"]]:
        code, results[w] = bench(w, None, args.seconds, args.trace)
        if code:
            return code
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
