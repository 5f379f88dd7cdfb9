#!/usr/bin/env python3
"""Runs one workload of the rvar benchmark and prints its result line.

    python3 perfbench/run.py --workload serve|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/ (rvar_bench
and the rvar libraries from src/) under $CARGO_TARGET_DIR or .bench_build,
runs the workload with the settings in perfbench/workloads.json, checks the
outputs, prints every metric's median and quartiles over the run's
repetitions, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_root):
    """Configures once and builds rvar_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"run.py: no rvar sources at {os.path.join(ROOT, 'src')}")
        sys.exit(2)
    cmake_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(cmake_dir, "rvar_bench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "rvar_bench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return binary


def spread(samples):
    """(median, q1, q3) over one run's repetitions of a metric."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3


def check_recorded(seed, info):
    """The study's D3 accuracy and predicted-shape hash against the values
    recorded for this seed in expected.json (None when unrecorded)."""
    with open(os.path.join(HERE, "expected.json")) as f:
        recorded = json.load(f)["seeds"].get(str(seed))
    if recorded is None:
        return None, "no recorded values for this seed"
    ok = (info["study.accuracy"] == recorded["accuracy"] and
          int(info["study.shapes_hash"]) == recorded["shapes_hash"])
    return ok, (f"accuracy {info['study.accuracy']} vs {recorded['accuracy']}, "
                f"hash {int(info['study.shapes_hash'])} vs "
                f"{recorded['shapes_hash']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        settings = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)

    run_dir = os.path.abspath(os.path.join(
        ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}"))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    serving = settings["serving"]
    threads = settings["program_threads"]
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--dir", os.path.join(run_dir, "state"),
        "--out", os.path.join(run_dir, "result.json"),
        "--study-groups", str(settings["study"]["groups"]),
        "--nominal-rps", str(serving["nominal_rps"]),
        "--capacity-window", str(serving["capacity_window"]),
        "--zipf-s", str(serving["zipf_s"]),
        "--frontend-workers", str(threads["frontend_workers"]),
        "--pool-threads", str(threads["pool_threads"]),
        "--batch-linger-us",
        str(settings["frontend_options"]["batch_linger_us"]),
        "--queue-capacity",
        str(settings["frontend_options"]["queue_capacity"]),
        "--deadline-ms", str(settings["frontend_options"]["deadline_ms"]),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            log(f"run.py: rvar_bench exited with {proc.returncode}")
            sys.exit(1)
        with open(os.path.join(run_dir, "result.json")) as f:
            result = json.load(f)
    except subprocess.TimeoutExpired:
        log(f"run.py: rvar_bench ran past {RUN_TIMEOUT_S}s and was killed")
        sys.exit(1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, metric in result["metrics"].items():
        if any(v is None for v in metric["samples"]):
            log(f"run.py: metric {name} has a non-finite sample")
            sys.exit(1)
    checks = list(result["checks"])
    recorded_ok, detail = check_recorded(args.seed, result["info"])
    if recorded_ok is not None:
        checks.append({"name": "study.matches_recorded_values",
                       "ok": recorded_ok, "detail": detail})
    print(f"== {args.workload} seed {args.seed}: D3 accuracy "
          f"{result['info']['study.accuracy']!r}, shapes hash "
          f"{int(result['info']['study.shapes_hash'])} ({detail})")
    for check in checks:
        print(f"  [{'ok' if check['ok'] else 'FAIL'}] {check['name']}: "
              f"{check['detail']}")
    print("== metrics: median [q1, q3] over the run's repetitions (n)")
    for name, metric in sorted(result["metrics"].items()):
        med, q1, q3 = spread(metric["samples"])
        print(f"  {name:34s} {med:14.6g} [{q1:.6g}, {q3:.6g}] "
              f"(n={len(metric['samples'])}) {metric['unit']}")
    for name, value in sorted(result["info"].items()):
        print(f"  {name:34s} {value:14.6g}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} missing or not in {m['unit']}")
            sys.exit(1)
        metrics[m["name"]] = {"value": spread(got["samples"])[0],
                              "unit": m["unit"]}
    print(json.dumps({
        "correct": all(c["ok"] for c in checks),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
