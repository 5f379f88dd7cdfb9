#!/usr/bin/env python3
"""CI bench-regression gate over the BENCH_*.json kernel summaries.

Every BENCH file has one schema, written by bench/bench_common.cc:

    {"calibration_seconds": s, "kernels": {name: seconds},
     "info": {name: number|string}}

The gate reads calibration_seconds and kernels; info is ungated context and
is ignored. It compares freshly measured kernels (BENCH_kernels.json,
BENCH_gbdt.json, ...) against the checked-in bench/baseline.json. Raw
wall-clock is not comparable across runner generations, so every kernel
time is first normalized by its own file's calibration_seconds (a fixed
deterministic spin measured once per process on the same machine, same
build); the gate then fires on the *normalized* ratio:

    ratio = (current_kernel / current_calibration)
          / (baseline_kernel / baseline_calibration)

A kernel whose ratio exceeds 1 + tolerance fails the job. So does a
current kernel with no baseline entry: a kernel renamed or added on the
bench side without its baseline entry would otherwise go ungated. Add it to
bench/baseline.json in the same change. A baseline kernel absent from the
current files is reported but does not fail: each invocation passes only
some of the BENCH_*.json files.

--current may repeat; each file carries its own calibration, and their
kernel maps are merged (duplicate kernel names across files are an error).
The baseline is a single file. tests/bench/check_regression_test.py covers
these rules on synthetic files.

Usage:
    check_regression.py --baseline bench/baseline.json \
        --current BENCH_kernels.json --current BENCH_gbdt.json \
        [--tolerance 0.25]

Refreshing the baseline after an intentional perf change: re-run
    ./bench/bench_perf_kernels
and fold the new kernel times (renormalized to the baseline's calibration)
into bench/baseline.json; with a single summary file a plain
    cp BENCH_kernels.json bench/baseline.json
still works (the gate ignores its info map).
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    calibration = doc.get("calibration_seconds")
    kernels = doc.get("kernels")
    if not isinstance(calibration, (int, float)) or calibration <= 0:
        sys.exit(f"{path}: missing or non-positive calibration_seconds")
    if not isinstance(kernels, dict) or not kernels:
        sys.exit(f"{path}: missing or empty kernels map")
    for name, seconds in kernels.items():
        if not isinstance(seconds, (int, float)) or seconds <= 0:
            sys.exit(f"{path}: kernel {name!r} has non-positive time")
    return calibration, kernels


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True, action="append",
                        help="kernel summary JSON; may repeat, each file "
                             "is normalized by its own calibration")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized slowdown (0.25 = +25%%)")
    args = parser.parse_args()

    base_cal, base = load(args.baseline)
    # cur maps kernel -> (seconds, calibration of the file it came from).
    cur = {}
    for path in args.current:
        cur_cal, kernels = load(path)
        speed = cur_cal / base_cal
        print(f"calibration: baseline {base_cal:.4f}s, {path} "
              f"{cur_cal:.4f}s (machine speed factor {speed:.2f}x)")
        for name, seconds in kernels.items():
            if name in cur:
                sys.exit(f"{path}: kernel {name!r} appears in more than "
                         "one --current file")
            cur[name] = (seconds, cur_cal)
    print(f"{'kernel':<24} {'baseline':>10} {'current':>10} "
          f"{'norm ratio':>10}  verdict")

    regressions = []
    ungated = []
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            print(f"{name:<24} {base[name]:>10.4f} {'-':>10} {'-':>10}  "
                  "missing in current (not gated)")
            continue
        seconds, cur_cal = cur[name]
        if name not in base:
            print(f"{name:<24} {'-':>10} {seconds:>10.4f} {'-':>10}  "
                  "NO BASELINE")
            ungated.append(name)
            continue
        ratio = (seconds / cur_cal) / (base[name] / base_cal)
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = f"REGRESSION (> +{args.tolerance:.0%})"
            regressions.append((name, ratio))
        elif ratio < 1.0 - args.tolerance:
            verdict = "improvement (consider refreshing baseline)"
        print(f"{name:<24} {base[name]:>10.4f} {seconds:>10.4f} "
              f"{ratio:>10.2f}  {verdict}")

    if regressions or ungated:
        print()
        for name, ratio in regressions:
            print(f"FAIL: {name} is {ratio:.2f}x its normalized baseline")
        for name in ungated:
            print(f"FAIL: {name} has no baseline entry; add it to "
                  "bench/baseline.json")
        sys.exit(1)
    print("\nbench-regression gate passed")


if __name__ == "__main__":
    main()
