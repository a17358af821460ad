#!/usr/bin/env python3
"""Campaign benchmark of the sfi fault-injection pipeline.

Builds the workload runner (perfbench/perfbench.cpp, linked against libsfi
from this checkout) and runs one workload for a fixed time:

    python3 perfbench/run.py --workload iss_campaigns --seed 3 \
        --seconds 30 --trace 0

Every repetition is one process of the runner, timed from launch to exit,
followed by an untimed warm rerun against the point store it just filled
(the resume check). Outputs are checked byte for byte against
perfbench/reference.json, and the exact work counts against the counts
recorded there. With --trace 0 the last stdout line carries the end-to-end
metrics (medians over the repetitions); with --trace 1 repetitions
alternate between traced and untraced, the workload's isolated layer
kernels run once, and the last line carries the per-layer metrics. Chrome
trace-event files of the traced repetitions land in
$CARGO_TARGET_DIR/perfbench-work/<workload>/ (default .bench_build).

--workload all runs every workload untraced, then traced. --update-reference
regenerates perfbench/reference.json from the current build.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ["cold_characterize", "opstream_fig4", "iss_campaigns"]
# Campaign seed of a run: the default seed, or the held-out seed.
REFERENCE_SEEDS = [1, 2016]
MIN_REPS = 3
PROCESS_TIMEOUT_S = 120
EXACT_COUNTS = ["campaign.points", "campaign.store_hits",
                "campaign.store_misses", "fi.cdf_cache_bytes",
                "fi.opstream_ops", "mc.fastpath_points", "mc.trials",
                "sampling.batches", "timing.dta_events"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message):
    log(f"perfbench: {message}")
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no sfi sources in {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j4",
                  "--target", "sfi_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(step))
    return build_dir / "sfi_perfbench", target / "perfbench-work"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def output_digests(csv_dir, cache=None):
    """Digest of every CSV and manifest (minus its volatile "run" line)."""
    digests = {}
    for path in sorted(csv_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.lstrip().startswith(b'"run":'))
        digests[path.name] = sha256(data)
    if cache is not None:
        digests["cdf_cache.bin"] = sha256(cache.read_bytes())
    return digests


class Runner:
    """Launches the workload runner and keeps the check tally."""

    def __init__(self, binary, work, workload, campaign_seed, reference):
        self.binary = binary
        self.work = work
        self.workload = workload
        self.seed = campaign_seed
        self.reference = reference
        self.cold = workload == "cold_characterize"
        # Warm workloads share one CDF cache, primed once per checkout.
        self.cache = (work / "cold_cache.bin" if self.cold
                      else work.parent / "cdf_cache.bin")
        self.store = work / "store.bin"
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"perfbench: check failed: {what}")
        return ok

    def launch(self, *extra):
        """One runner process: (wall s, cpu s, peak RSS MiB, parsed JSON)."""
        args = [str(self.binary), "--workload", self.workload,
                "--seed", str(self.seed), "--cache", str(self.cache), *extra]
        out_path = self.work / "stdout.json"
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=self.work)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            timer.cancel()
        # Reaped by wait4 above; tell Popen so it never waits on the pid.
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if proc.returncode == 0:
            try:
                result = json.loads(out_path.read_text())
            except ValueError:
                result = None
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, result

    def prime(self, expected_digest=None):
        """Fills the shared CDF cache; refills one left by another build."""
        if self.cold:
            return
        if self.cache.is_file() and expected_digest in (
                None, sha256(self.cache.read_bytes())):
            return
        self.cache.unlink(missing_ok=True)
        _, _, _, result = self.launch("--prime")
        if result is None:
            die("priming the CDF cache failed")

    def rep(self, run_id, traced):
        """One timed repetition plus its resume check."""
        csv_dir = self.work / "csv"
        rerun_dir = self.work / "csv_rerun"
        for path in (csv_dir, rerun_dir):
            shutil.rmtree(path, ignore_errors=True)
        self.store.unlink(missing_ok=True)
        if self.cold:
            self.cache.unlink(missing_ok=True)
        extra = ["--store", str(self.store), "--csv-dir", str(csv_dir),
                 "--run-id", str(run_id)]
        if traced:
            extra += ["--trace", str(self.work / f"{self.workload}.trace.json")]
        wall, cpu, rss, result = self.launch(*extra)
        log(f"  rep {run_id}{' traced' if traced else ''}: wall {wall:.4f} s, "
            f"cpu {cpu:.4f} s, peak RSS {rss:.1f} MiB")
        rep = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
               "traced": traced, "result": result}
        if not self.check(result is not None and result["check_failures"] == 0,
                          f"rep {run_id}: runner failed"):
            # A crashed run fails every check it would have made.
            if self.reference is not None:
                for name in [*self.reference["files"], *EXACT_COUNTS]:
                    self.check(False, f"rep {run_id}: no {name}")
            return rep
        counts = dict(result["counts"])
        counts["fi.cdf_cache_bytes"] = self.cache.stat().st_size
        rep["counts"] = counts
        digests = output_digests(csv_dir, self.cache if self.cold else None)
        self.compare(digests, counts, f"rep {run_id}")

        rerun_wall, _, _, rerun = self.launch(
            "--store", str(self.store), "--csv-dir", str(rerun_dir))
        rep["warm_rerun_s"] = rerun_wall
        if self.check(rerun is not None, f"rep {run_id}: warm rerun failed"):
            self.check(rerun["counts"]["campaign.store_misses"] == 0,
                       f"rep {run_id}: warm rerun missed the store")
            self.check(output_digests(rerun_dir) ==
                       output_digests(csv_dir),
                       f"rep {run_id}: warm rerun outputs differ")
        return rep

    def compare(self, digests, counts, label):
        if self.reference is None:
            return
        files = self.reference["files"]
        for name in sorted(set(files) | set(digests)):
            self.check(files.get(name) == digests.get(name),
                       f"{label}: {name} differs from the reference")
        for name in EXACT_COUNTS:
            if name in counts:
                self.check(counts[name] == self.reference["counts"].get(name),
                           f"{label}: {name} = {counts[name]}, reference "
                           f"{self.reference['counts'].get(name)}")

    def kernels(self):
        _, _, _, result = self.launch(
            "--kernels", "--trace",
            str(self.work / f"{self.workload}.kernels.trace.json"))
        if self.check(result is not None and result["check_failures"] == 0,
                      "layer kernels failed"):
            return result["layers"]
        return {}


def median(values):
    return statistics.median(values) if values else 0.0


def measure(binary, work_root, workload, seed, seconds, trace, reference):
    campaign_seed = REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]
    ref = None
    if reference is not None:
        ref = reference["workloads"][workload].get(str(campaign_seed))
    work = work_root / workload
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(binary, work, workload, campaign_seed, ref)
    expected = None
    if not runner.cold and reference is not None:
        # The shared cache must hold the characterization the cold workload
        # produces, byte for byte.
        cold = reference["workloads"]["cold_characterize"][str(campaign_seed)]
        expected = cold["files"]["cdf_cache.bin"]
    runner.prime(expected)
    if expected is not None:
        runner.check(sha256(runner.cache.read_bytes()) == expected,
                     "primed CDF cache differs from the reference")

    reps = []
    deadline = time.monotonic() + seconds
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    while len(reps) < min_reps or time.monotonic() < deadline:
        reps.append(runner.rep(len(reps), trace and len(reps) % 2 == 0))
    # Traced and untraced repetitions must count the same work.
    ok = [r["counts"] for r in reps if "counts" in r]
    for counts in ok[1:]:
        runner.check(all(counts[k] == ok[0][k] for k in EXACT_COUNTS
                         if k in counts and k in ok[0]),
                     "exact counts drift between repetitions")
    kernels = runner.kernels() if trace else {}
    return runner, reps, kernels


def end_to_end(reps):
    ok = [r for r in reps if "counts" in r and not r["traced"]]
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median([r["result"]["layers"]["setup_s"] for r in ok]),
        "cpu_s": median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
    }


def per_layer(reps, kernels, names):
    traced = [r for r in reps if "counts" in r and r["traced"]]
    plain = [r for r in reps if "counts" in r and not r["traced"]]
    values = {name: 0.0 for name in names}
    for name in names:
        samples = [r["result"]["layers"][name] for r in traced
                   if name in r["result"]["layers"]]
        if samples:
            values[name] = median(samples)
        if traced and name in traced[0]["counts"]:
            values[name] = traced[0]["counts"][name]
    values.update({k: v for k, v in kernels.items() if k in values})
    if traced:
        dta_s = values.get("timing.dta_s", 0.0)
        if dta_s > 0:
            values["timing.events_per_s"] = values["timing.dta_events"] / dta_s
        values["campaign.warm_rerun_s"] = median(
            [r["warm_rerun_s"] for r in reps if "warm_rerun_s" in r])
        values["campaign.unattributed_s"] = median(
            [unattributed(r) for r in traced])
        values["obs.trace_overhead_s"] = (
            median([r["wall_s"] for r in traced]) -
            median([r["wall_s"] for r in plain]))
    return values


def unattributed(rep):
    """Wall time of a traced repetition that no span below the root covers."""
    result = rep["result"]
    return rep["wall_s"] - sum(result["self_s"].values()) - result["export_s"]


def attribution(reps):
    """Median self time per module over the traced repetitions."""
    traced = [r for r in reps if "counts" in r and r["traced"]]
    modules = sorted({m for r in traced for m in r["result"]["self_s"]})
    rows = {m: median([r["result"]["self_s"].get(m, 0.0) for r in traced])
            for m in modules}
    rows["obs.export"] = median([r["result"]["export_s"] for r in traced])
    rows["unattributed"] = median([unattributed(r) for r in traced])
    return rows, median([r["wall_s"] for r in traced])


def report(workload, runner, reps, trace, metrics, units):
    log(f"== {workload} (campaign seed {runner.seed}, {len(reps)} repetitions"
        f"{', traced/untraced alternating' if trace else ''})")
    for name, value in metrics.items():
        log(f"  {name:<48} {value:>16.6g} {units[name]}")
    if trace:
        rows, wall = attribution(reps)
        log(f"  self time per module, traced repetition median "
            f"(wall {wall:.3f} s):")
        for module, seconds in rows.items():
            share = 100.0 * seconds / wall if wall > 0 else 0.0
            log(f"    {module:<16} {seconds:>10.4f} s {share:>6.1f} %")
        log(f"  trace: {runner.work / (workload + '.trace.json')}")
    log(f"  checks: {runner.attempted} attempted, {runner.failed} failed "
        f"(failed_frac {runner.failed / max(runner.attempted, 1):.4f})")


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def run_one(binary, work_root, workload, seed, seconds, trace, reference):
    e2e_units, layer_units = load_spec()
    runner, reps, kernels = measure(binary, work_root, workload, seed,
                                       seconds, trace, reference)
    if trace:
        units = layer_units
        values = per_layer(reps, kernels, list(layer_units))
    else:
        units = e2e_units
        values = end_to_end(reps)
    metrics = {name: values[name] for name in units}
    report(workload, runner, reps, trace, metrics, units)
    return runner, {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}


def update_reference(binary, work_root):
    (work_root / "cdf_cache.bin").unlink(missing_ok=True)
    reference = {"workloads": {}}
    for workload in WORKLOADS:
        entries = reference["workloads"][workload] = {}
        for campaign_seed in REFERENCE_SEEDS:
            work = work_root / workload
            work.mkdir(parents=True, exist_ok=True)
            runner = Runner(binary, work, workload, campaign_seed, None)
            runner.prime()
            plain = runner.rep(0, False)
            plain_digests = output_digests(work / "csv",
                                           runner.cache if runner.cold else None)
            traced = runner.rep(1, True)
            digests = output_digests(work / "csv",
                                     runner.cache if runner.cold else None)
            if runner.failed or digests != plain_digests or any(
                    plain["counts"][k] != v for k, v in traced["counts"].items()
                    if k in plain["counts"]):
                die(f"{workload}: traced and untraced runs disagree")
            entries[str(campaign_seed)] = {
                "files": digests,
                "counts": {k: traced["counts"][k] for k in EXACT_COUNTS},
            }
            log(f"{workload} seed {campaign_seed}: {len(digests)} files")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    binary, work_root = build()
    if args.update_reference:
        update_reference(binary, work_root)
        return
    if not REFERENCE.is_file():
        die(f"missing {REFERENCE}")
    reference = json.loads(REFERENCE.read_text())

    if args.workload == "all":
        runs = [(w, t) for t in (0, 1) for w in WORKLOADS]
    else:
        runs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        runner, values = run_one(binary, work_root, workload, args.seed,
                                 args.seconds, trace, reference)
        attempted += runner.attempted
        failed += runner.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
