#!/usr/bin/env python3
"""Build and run the idICN benchmark.

    python3 perfbench/run.py --workload hit-1k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --selftest       # short mode of every workload

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the repository sources it links) into .bench_build/ (or
$CARGO_TARGET_DIR). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; a per-layer metric that does not apply to the workload (see
perfbench/metrics.json, "workloads") reads 0. The exit code is non-zero
when any output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-att", "hit-1k", "miss-mixed")
DEADLINE_S = 170  # one run of the benchmark program must end within 180 s


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build the benchmark program; its path or None."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "idicn_perfbench")
    return binary if os.path.exists(binary) else None


def load_json(path):
    with open(path) as f:
        return json.load(f)


def expected_metrics(trace):
    """(name -> unit, name -> workloads it applies to) for this kind of run."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "metrics.json"))
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    applies = {m["name"]: set(m.get("workloads", WORKLOADS)) for m in catalog[key]}
    return units, applies


def run_one(binary, workload, seed, seconds, trace, selftest, budget_s):
    """Run the benchmark program once; the checked result object."""
    trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--trace-dir", trace_dir]
    if selftest:
        command.append("--selftest")
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {budget_s:.0f} s")
        return result
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        else:
            print(line, flush=True)
    if raw is None:
        log(f"{workload}: the benchmark program exited with {proc.returncode} and no result")
        return result

    units, applies = expected_metrics(trace)
    metrics = {}
    problems = []
    for name, unit in units.items():
        measured = raw["metrics"].get(name)
        if measured is None:
            if workload in applies.get(name, ()):
                problems.append(f"metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}  # does not apply here
            continue
        if measured["unit"] != unit:
            problems.append(f"metric {name} in {measured['unit']}, expected {unit}")
        metrics[name] = {"value": measured["value"], "unit": unit}
    for problem in problems:
        log(f"{workload}: {problem}")
    return {
        "correct": bool(raw["correct"]) and proc.returncode == 0 and not problems,
        "attempted": max(1, int(raw["attempted"])),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def selftest(binary):
    """Every workload in short mode, untraced and traced: each named metric
    appears with its unit, and a corrupted replica is counted as an error."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            seconds = 6 if workload != "sim-att" else 1
            result = run_one(binary, workload, 1, seconds, trace, True, DEADLINE_S)
            status = "ok" if result["correct"] else "FAILED"
            print(f"selftest {workload} trace={int(trace)}: {status} "
                  f"({len(result['metrics'])} metrics)", flush=True)
            ok = ok and result["correct"]
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.selftest:
        ok = selftest(binary)
        print(json.dumps({"selftest": "ok" if ok else "failed"}))
        return 0 if ok else 1

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        # The build is timed separately (the first one may take minutes).
        result = run_one(binary, workload, args.seed, args.seconds, bool(args.trace), False,
                         DEADLINE_S)
        if args.workload:
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        print(f"{workload}: {json.dumps(result)}", flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
