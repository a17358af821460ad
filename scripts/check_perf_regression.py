#!/usr/bin/env python3
"""CI gate for the trial-kernel perf trajectory (ISSUE 5, perf-regression job).

Compares a BENCH_core.json produced by bench/sfi_perf against the
checked-in scripts/perf_baseline.json and fails on:

  1. schema drift (the report's schema/schema_version must match what the
     baseline was recorded against);
  2. throughput regression: for every kernel label in the baseline, the
     current serial (1-thread) trials/sec must be at least
     min_ratio * baseline — the ratio absorbs runner-to-runner noise
     while still catching the multi-x slowdowns the gate exists for;
  3. absolute floors: kernels listed under "min_abs" must additionally
     clear a hard trials/sec floor. These pin the threaded interpreter's
     speedup itself: a change that silently slows the clean-sim path
     back to the old per-step engine's throughput passes the ratio check
     on a fast runner but cannot pass a floor set ~3x above that rate
     (regenerate alongside the baseline when the runner class changes);
  4. fast-path erosion: the within-run zero-fault fast-path speedup
     (machine-independent, unlike absolute trials/sec) must stay above
     min_fastpath_speedup;
  5. fault-sampling erosion: when the baseline carries a "fault_sampling"
     object, the report's batched corrupt() throughput must clear
     min_batched_ops_per_sec.

Kernels present in the report but not in the baseline are reported
informationally — add them to the baseline when they stabilize. When the
runner fleet changes speed class, regenerate the baseline with
`sfi_perf` on the new runners and commit it (the "reference" field
documents the provenance).

Usage:
  check_perf_regression.py BENCH_CORE_JSON BASELINE_JSON
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def serial_trials_per_sec(kernel):
    for sample in kernel["scaling"]:
        if sample["threads"] == 1:
            return sample["trials_per_sec"]
    return None


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    report = load(sys.argv[1])
    baseline = load(sys.argv[2])

    failures = []
    notes = []

    if report.get("schema") != baseline.get("report_schema"):
        failures.append(
            f"schema mismatch: report {report.get('schema')!r} vs baseline "
            f"expectation {baseline.get('report_schema')!r}")
    if report.get("schema_version") != baseline.get("report_schema_version"):
        failures.append(
            f"schema_version mismatch: report {report.get('schema_version')} "
            f"vs baseline expectation {baseline.get('report_schema_version')}"
            " (regenerate the baseline alongside schema bumps)")

    min_ratio = baseline["min_ratio"]
    min_abs = baseline.get("min_abs", {})
    kernels = {k["label"]: k for k in report.get("kernels", [])}
    for label, base_tps in sorted(baseline["kernels"].items()):
        kernel = kernels.pop(label, None)
        if kernel is None:
            failures.append(f"kernel {label!r} missing from the report")
            continue
        tps = serial_trials_per_sec(kernel)
        if tps is None:
            failures.append(f"kernel {label!r} has no 1-thread sample")
            continue
        ratio = tps / base_tps if base_tps else float("inf")
        line = (f"{label:28s} {tps:12.1f} trials/s  baseline {base_tps:12.1f}"
                f"  ratio {ratio:6.2f}")
        floor = min_abs.get(label)
        if ratio < min_ratio:
            failures.append(
                f"{line}  < min_ratio {min_ratio} (perf regression)")
        elif floor is not None and tps < floor:
            failures.append(
                f"{line}  < absolute floor {floor} trials/s "
                "(ISS speedup regression)")
        else:
            notes.append(line)
    for label in sorted(kernels):
        notes.append(f"{label:28s} (not in baseline; informational)")

    speedup = report.get("fast_path", {}).get("speedup", 0.0)
    floor = baseline["min_fastpath_speedup"]
    if speedup < floor:
        failures.append(
            f"zero-fault fast-path speedup {speedup:.1f}x below the "
            f"machine-independent floor {floor}x")
    else:
        notes.append(f"{'fast-path speedup':28s} {speedup:12.1f}x  "
                     f"(floor {floor}x)")

    fs_base = baseline.get("fault_sampling")
    if fs_base is not None:
        fs = report.get("fault_sampling", {})
        batched = fs.get("batched_ops_per_sec", 0.0)
        ops_floor = fs_base.get("min_batched_ops_per_sec")
        if ops_floor is not None and batched < ops_floor:
            failures.append(
                f"batched fault-sampling throughput {batched:.3g} ops/s "
                f"below the floor {ops_floor:.3g}")
        notes.append(
            f"{'fault-sampling batched':28s} {batched:12.3g} ops/s")

    for line in notes:
        print("  " + line)
    if failures:
        sys.exit("perf-regression check FAILED:\n  " + "\n  ".join(failures))
    print(f"perf-regression check passed "
          f"({len(baseline['kernels'])} kernels, min_ratio {min_ratio})")


if __name__ == "__main__":
    main()
