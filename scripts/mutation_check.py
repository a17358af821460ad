#!/usr/bin/env python3
"""Mutation check: every pinned mutant must make at least one of its tests fail.

Each entry of MUTANTS names a source file, one or more (original snippet,
mutant snippet) edits in it, and the ctest entries expected to catch the
change. For each mutant the script patches a scratch copy of the tree
(never the checkout it is run from), rebuilds only the build targets of
those tests incrementally, runs them, and restores the file. A mutant is
killed when at least one of its tests fails. The script prints
killed/total and exits non-zero if any mutant survives, if a mutant no
longer applies (its original snippet is not found exactly once) or no
longer compiles, or if the unmutated tests fail to begin with.

It takes a few minutes (one configure plus an incremental rebuild per
mutant), so it runs outside tier-1: run it when a change touches a
mutated area, and give every new oracle or contract a mutant of its own.
A mutant that survives marks a test gap to close; never drop the mutant
instead.

Most test binaries share the CDF cache in /tmp (tests/testing/
shared_core.hpp). A mutant may change what characterization computes
only if every test it lists builds its own core and never opens that
cache: sfi_timing_test_dta, sfi_timing_test_event_sim,
sfi_fi_test_cdf_cache (temp-dir caches) and the contracts (their own
work directories). Every other mutant stays in the sampling,
fault-model, ISA, ISS, test-oracle, loader and instrumentation code.

Usage:
  scripts/mutation_check.py [--work-dir DIR] [--list]

--work-dir keeps the scratch copy and its build between runs (later runs
rebuild incrementally); by default a fresh temporary directory is used
and removed afterwards. --list prints the mutants and their tests.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ctest entries that are not test binaries, and the targets they run.
CONTRACT_TARGETS = {
    "sfi_campaign_contract": ["sfi_campaign"],
    "sfi_campaign_sampling_equivalence": ["sfi_campaign"],
    "sfi_campaign_trace_contract": ["sfi_campaign", "sfi_trace"],
    "sfi_forensics_contract": ["sfi_forensics", "sfi_campaign", "sfi_trace"],
    "sfi_bench_drivers_contract": [
        "bench_table1", "bench_table2", "bench_fig3_pipeline",
        "bench_ext_razor", "bench_ablation_voltage",
        "bench_ablation_charlen", "bench_cwc_compare", "sfi_trace"],
}


def macro_lines(*lines):
    """Lines of a multi-line macro, each padded to its backslash column."""
    return "".join(line.ljust(70) + "\\\n" for line in lines)


SAMPLING = "sfi_fi_test_sampling_batch"
ORACLE_C = "sfi_fi_test_model_c_oracle"
MODES = "sfi_mc_test_sampling_modes"
DIFFERENTIAL = "sfi_cpu_test_differential"
ENCODING = "sfi_isa_test_encoding"
DECODE = "sfi_perf_test_decode_phase"
TRACE_CONTRACT = "sfi_campaign_trace_contract"
DTA = "sfi_timing_test_dta"
EVENT_SIM = "sfi_timing_test_event_sim"
CDF_CACHE = "sfi_fi_test_cdf_cache"
DECODE_CACHE = "sfi_cpu_test_decode_cache"
BATCH = "sfi_sampling_test_batch"
SEQUENTIAL = "sfi_sampling_test_sequential"
FORENSICS = "sfi_fi_test_forensics"
FORENSICS_CONTRACT = "sfi_forensics_contract"
CWC = "sfi_fi_test_cwc"
MITIGATION_CONTRACT = "sfi_fi_test_mitigation_contract"
DRIVERS_CONTRACT = "sfi_bench_drivers_contract"
ADAPTIVE = "sfi_campaign_test_adaptive"

MUTANTS = [
    # --- The DTA kernel's pop order and its chunks (src/timing/). These
    # change characterization, so they list only tests that build their
    # own cores (see the module docstring).
    {
        "name": "event-heap-ties-to-left-child",
        "file": "src/timing/event_sim.hpp",
        "edits": [("child -= static_cast<std::size_t>(heap_[child] > "
                   "heap_[child - 1]);",
                   "child -= static_cast<std::size_t>(!(heap_[child - 1] > "
                   "heap_[child]));")],
        "tests": [DTA, EVENT_SIM],
    },
    {
        "name": "dta-chunk-seeded-with-its-own-first-operands",
        "file": "src/timing/dta.cpp",
        "edits": [("""        sim.set_input("a", operands[first].a);
        sim.set_input("b", operands[first].b);
""", """        sim.set_input("a", operands[first + 1].a);
        sim.set_input("b", operands[first + 1].b);
""")],
        "tests": [DTA],
    },
    {
        # At one worker consecutive chunks need no initialize(): only the
        # thread-count equivalence checks can see this one.
        "name": "dta-worker-skips-initialize-between-chunks",
        "file": "src/timing/dta.cpp",
        "edits": [("        if (!slot) slot.emplace(",
                   "        const bool fresh = !slot;\n"
                   "        if (!slot) slot.emplace("),
                  ("        sim.initialize();\n",
                   "        if (fresh) sim.initialize();\n")],
        "tests": [DTA, CDF_CACHE, TRACE_CONTRACT],
    },
    # --- The batch's draw accounting and resync (src/fi/sampling_batch.cpp)
    {
        "name": "resync-no-fully-consumed-skip",
        "file": "src/fi/sampling_batch.cpp",
        "edits": [("    if (pos_ == size_) return;\n", "")],
        "tests": [SAMPLING, ORACLE_C],
    },
    {
        "name": "resync-restarts-at-kMinFill",
        "file": "src/fi/sampling_batch.cpp",
        "edits": [("    next_fill_ = 1;\n", "    next_fill_ = kMinFill;\n")],
        "tests": [SAMPLING],
    },
    {
        "name": "configure-without-resync",
        "file": "src/fi/sampling_batch.cpp",
        "edits": [("    resync(rng);  // the prefetch is about to go: give its "
                   "lead back\n", "")],
        "tests": [SAMPLING, ORACLE_C],
    },
    {
        "name": "resync-without-rewind-and-replay",
        "file": "src/fi/sampling_batch.cpp",
        "edits": [("""    rng = snapshot_;
    if (pos_ > 0) {
        rng.normal_fill(0.0, sigma_mv_, normals_.data(), pos_);
        normals_drawn_ += pos_;
    }
""", "")],
        "tests": [SAMPLING, ORACLE_C, MODES],
    },
    {
        "name": "index-conversion-without-round-half-up",
        "file": "src/fi/sampling_batch.cpp",
        "edits": [("static_cast<std::int64_t>(t * scale + 0.5);",
                   "static_cast<std::int64_t>(t * scale);")],
        "tests": [SAMPLING],
    },
    # --- Model B's decision table (src/fi/models.cpp)
    {
        "name": "model-b-violation-count-one-row-off",
        "file": "src/fi/models.cpp",
        "edits": [("count = violation_count_[batch_.next_index(rng_)];",
                   "count = violation_count_[std::min<std::size_t>("
                   "batch_.next_index(rng_) + 1, "
                   "violation_count_.size() - 1)];")],
        "tests": [SAMPLING, MODES],
    },
    # --- Model C's count memo (src/fi/models.cpp)
    {
        "name": "model-c-memo-rows-shared",
        "file": "src/fi/models.cpp",
        "edits": [("memo_.counts.data() + view.memo_offset + row * view.ranks;",
                   "memo_.counts.data() + view.memo_offset + "
                   "(row / 2) * view.ranks;")],
        "tests": [ORACLE_C],
    },
    {
        "name": "model-c-ranks-from-the-base-window",
        "file": "src/fi/models.cpp",
        "edits": [("view.endpoint_max_window_ps[order[view.ranks]] > "
                   "min_window_ps_)",
                   "view.endpoint_max_window_ps[order[view.ranks]] > "
                   "base_window_ps_)")],
        "tests": [ORACLE_C],
    },
    {
        "name": "model-c-memo-kept-across-points",
        "file": "src/fi/models.cpp",
        "edits": [("    memo_ = CountMemo(memo_size);\n",
                   "    if (memo_.counts.size() != memo_size)\n"
                   "        memo_ = CountMemo(memo_size);\n")],
        "tests": [ORACLE_C],
    },
    {
        "name": "model-c-memo-filled-at-a-mirrored-row",
        "file": "src/fi/models.cpp",
        "edits": [("cdfs_->violation_count(ev.cls, endpoint, window)",
                   "cdfs_->violation_count(ev.cls, endpoint, noisy ? "
                   "noise_window_table_[noise_window_table_.size() - 1 - row]"
                   " : window)")],
        "tests": [ORACLE_C],
    },
    # --- The ISS micro-op stream's footprint (src/cpu/interp.cpp)
    {
        "name": "uop-stream-written-eagerly",
        "file": "src/cpu/interp.cpp",
        "edits": [("        state.uops = ZeroPages<MicroOp>(words);\n",
                   "        state.uops = ZeroPages<MicroOp>(words);\n"
                   "        for (std::size_t i = 0; i < words; ++i)\n"
                   "            state.uops[i] = MicroOp{};\n")],
        "tests": [DECODE_CACHE],
    },
    # --- The ISS against its reference interpreter (src/cpu/interp.cpp,
    # tests/testing/reference_cpu.cpp)
    {
        "name": "trace-not-routed-through-top-after-loads",
        "file": "src/cpu/interp.cpp",
        "edits": [(macro_lines("#define SFI_NEXT_AFTER_LOAD()", "    do {",
                               "        if constexpr (Policy::kTrace) goto top;"),
                   macro_lines("#define SFI_NEXT_AFTER_LOAD()", "    do {"))],
        "tests": [DIFFERENTIAL],
    },
    {
        "name": "oracle-drops-ex-event-window",
        "file": "tests/testing/reference_cpu.cpp",
        "edits": [("        ev.window = static_cast<std::uint32_t>(fi_windows_);\n",
                   "")],
        "tests": [DIFFERENTIAL],
    },
    {
        "name": "oracle-traces-after-kernel-begin-toggle",
        "file": "tests/testing/reference_cpu.cpp",
        "edits": [("    if (trace_) trace_(pc_, instr, fi_active_);\n", ""),
                  ("        fi_active_ = true;\n    }\n",
                   "        fi_active_ = true;\n    }\n"
                   "    if (trace_) trace_(pc_, instr, fi_active_);\n")],
        "tests": [DIFFERENTIAL],
    },
    # --- The opcode table (src/isa/isa.hpp) and the lowering special cases
    # it leaves (src/cpu/interp.cpp). Encode and decode read the same row,
    # so only pinned words catch a wrong one.
    {
        "name": "table-srl-sra-select-values-swapped",
        "file": "src/isa/isa.hpp",
        "edits": [('"l.srl",    Alu,      0x38, 0x3cf,      0x048',
                   '"l.srl",    Alu,      0x38, 0x3cf,      0x088'),
                  ('"l.sra",    Alu,      0x38, 0x3cf,      0x088',
                   '"l.sra",    Alu,      0x38, 0x3cf,      0x048')],
        "tests": [ENCODING],
    },
    {
        "name": "table-shift-imm-mask-without-bit-5",
        "file": "src/isa/isa.hpp",
        "edits": [(f'"l.{op}",   ShiftImm, 0x2e, 0x0e0',
                   f'"l.{op}",   ShiftImm, 0x2e, 0x0c0')
                  for op in ("slli", "srli", "srai")],
        "tests": [ENCODING],
    },
    {
        "name": "lowering-without-jal-link-r9",
        "file": "src/cpu/interp.cpp",
        "edits": [("            out.rd = 9;  // link register, fixed by the ISA\n",
                   "")],
        "tests": [DIFFERENTIAL],
    },
    # --- The CDF store's loader and cache file (src/fi/)
    {
        "name": "cdf-loader-count-checks-removed",
        "file": "src/fi/cdf.cpp",
        "edits": [
            ("""        if (get<std::uint64_t>(is) != endpoints)
            throw std::runtime_error(
                "TimingErrorCdfs: class endpoint count disagrees with the header");
""", "        (void)get<std::uint64_t>(is);\n"),
            ("""            if (get<std::uint64_t>(is) != samples)
                throw std::runtime_error(
                    "TimingErrorCdfs: endpoint sample count disagrees with "
                    "the header");
""", "            (void)get<std::uint64_t>(is);\n"),
        ],
        "tests": ["sfi_fi_test_cdf", "sfi_fi_test_cdf_cache"],
    },
    {
        "name": "cdf-loader-accepts-unsorted-samples",
        "file": "src/fi/cdf.cpp",
        "edits": [("""        if (i > 0 && samples[i] < samples[i - 1])
            throw std::runtime_error("TimingErrorCdfs: unsorted samples");
""", "")],
        "tests": ["sfi_fi_test_cdf", "sfi_fi_test_cdf_cache"],
    },
    {
        "name": "cdf-cache-rewritten-in-place",
        "file": "src/fi/core_model.cpp",
        "edits": [("""    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(writes++);
""", """    const std::string tmp = path;
""")],
        "tests": ["sfi_fi_test_cdf_cache"],
    },
    # --- The wall-only instrumentation spans (src/fi/core_model.cpp,
    # src/mc/parallel.cpp), the micro-op stream's reuse (src/cpu/interp.cpp)
    # and sfi_trace's summary
    {
        "name": "characterization-spans-in-logical-ledgers",
        "file": "src/fi/core_model.cpp",
        "edits": [("    obs::Ledger* const wall = obs::wall_ledger(ledger);\n",
                   "    obs::Ledger* const wall = ledger;\n")],
        "tests": [TRACE_CONTRACT],
    },
    {
        "name": "trace-store-totals-from-the-last-counter",
        "file": "bench/sfi_trace.cpp",
        "edits": [("""        } else if (ev.name == "store_miss") {
            ++s.store_misses;
""", """        } else if (ev.ph == 'C' && ev.name == "run.store_misses") {
            s.store_misses = ev.arg_uint("value");
""")],
        "tests": [TRACE_CONTRACT],
    },
    {
        "name": "decode-span-counts-one-context",
        "file": "src/mc/parallel.cpp",
        "edits": [("        lowered += context->cpu.prime_decode(",
                   "        lowered = context->cpu.prime_decode(")],
        "tests": [DECODE],
    },
    {
        "name": "decode-count-carried-across-calls",
        "file": "src/mc/parallel.cpp",
        "edits": [("    std::uint64_t lowered = 0;\n",
                   "    static std::uint64_t lowered = 0;\n")],
        "tests": [DECODE],
    },
    {
        "name": "uop-stream-relowered-every-run",
        "file": "src/cpu/interp.cpp",
        "edits": [("    if (!state.synced || state.expected_write_gen != "
                   "mem_.write_generation()) {\n",
                   "    if (true) {\n")],
        "tests": [DECODE_CACHE],
    },
    # --- The trial engine: its trial indexing, its worker contexts and the
    # forensic re-run (src/mc/montecarlo.cpp)
    {
        "name": "trial-block-ignores-first-trial",
        "file": "src/mc/montecarlo.cpp",
        "edits": [("                                          first_trial + "
                   "offset);\n",
                   "                                          offset);\n")],
        "tests": [BATCH, SEQUENTIAL],
    },
    {
        "name": "worker-contexts-rebuilt-every-block",
        "file": "src/mc/montecarlo.cpp",
        "edits": [("    if (contexts_.empty())\n", "    if (true)\n")],
        "tests": [DECODE],
    },
    {
        "name": "forensic-fast-path-classified-from-context",
        "file": "src/mc/montecarlo.cpp",
        "edits": [("""    if (takes_fast_path(model)) {
        fx.outcome = run_trial_with(cpu, model, point, trial);
        fx.cls = OutcomeClass::Masked;
        return fx;
    }
""", "")],
        "tests": [FORENSICS, FORENSICS_CONTRACT],
    },
    {
        "name": "forensic-results-in-completion-order",
        "file": "src/mc/montecarlo.cpp",
        "edits": [("#include <algorithm>\n",
                   "#include <algorithm>\n#include <atomic>\n"),
                  ("    std::vector<TrialForensics> results(count);\n",
                   "    std::vector<TrialForensics> results(count);\n"
                   "    std::atomic<std::size_t> done{0};\n"),
                  ("        results[trial] = run_trial_forensic(",
                   "        results[done++] = run_trial_forensic(")],
        "tests": [FORENSICS, FORENSICS_CONTRACT],
    },
    # --- Detection: the one count (the forensic probe) and the one price
    # (DetectorCost, src/fi/), and a driver that reads both.
    {
        "name": "cwc-cost-without-clock-derating",
        "file": "src/fi/mitigation.cpp",
        "edits": [("    cost.latency_frac = 0.01 * check_bits;\n", "")],
        "tests": [CWC, DRIVERS_CONTRACT],
    },
    {
        "name": "probe-counts-escape-as-detection",
        "file": "src/fi/forensics.hpp",
        "edits": [("""        } else {
            ++escaped_;
        }
""", """        } else {
            ++detected_;
        }
""")],
        "tests": [MITIGATION_CONTRACT],
    },
    {
        "name": "ext-razor-prices-escapes",
        "file": "bench/bench_ext_razor.cpp",
        "edits": [("                                          "
                   "fx.razor_detected);\n",
                   "                                          "
                   "fx.razor_escaped);\n")],
        "tests": [DRIVERS_CONTRACT],
    },
    # --- The per-detector facts of the one DetectionModel
    # (src/fi/mitigation.cpp)
    {
        "name": "cwc-inner-stream-on-razors-salt",
        "file": "src/fi/mitigation.cpp",
        "edits": [("    inner_->reseed(seed ^ (code_ ? 0x43574331ULL",
                   "    inner_->reseed(seed ^ (code_ ? 0x52415a4fULL")],
        "tests": [DRIVERS_CONTRACT],
    },
    {
        "name": "cwc-stamps-razors-fate-pair",
        "file": "src/fi/mitigation.cpp",
        "edits": [("probe_->mark_detector(detected, kCwcDetected, kCwcEscaped);",
                   "probe_->mark_detector(detected, kRazorDetected, "
                   "kRazorEscaped);")],
        "tests": [MITIGATION_CONTRACT, DRIVERS_CONTRACT],
    },
    # --- The forensic point records: the in-memory join and its order,
    # and the two on-disk readers under forged input (src/fi/forensics.cpp)
    {
        "name": "poff-forensics-left-in-probe-order",
        "file": "src/campaign/runner.cpp",
        "edits": [("""        std::stable_sort(result.forensics.begin(), result.forensics.end(),
                         [](const auto& lhs, const auto& rhs) {
                             return lhs.freq_mhz < rhs.freq_mhz;
                         });
""", "")],
        "tests": [ADAPTIVE],
    },
    {
        "name": "cwc-compare-joins-the-previous-point",
        "file": "bench/bench_cwc_compare.cpp",
        "edits": [("panel.forensics.at(i);",
                   "panel.forensics.at(i > 0 ? i - 1 : 0);")],
        "tests": [DRIVERS_CONTRACT],
    },
    {
        # The test reads the forged headers in a child whose address
        # space it caps, so the reserve fails on any host.
        "name": "fault-records-trust-the-header-count",
        "file": "src/fi/forensics.cpp",
        "edits": [("    std::vector<FaultRecord> records;\n",
                   "    std::vector<FaultRecord> records;\n"
                   "    records.reserve(count);\n")],
        "tests": [FORENSICS],
    },
    {
        "name": "points-reader-accepts-a-sign",
        "file": "src/fi/forensics.cpp",
        "edits": [("std::from_chars(cell.data(), end, value);",
                   "std::from_chars(\n"
                   "                cell.data() + (cell[0] == '-'), end, value);")],
        "tests": [FORENSICS],
    },
    # --- What the drivers contract's mitigation leg reads beyond its three
    # pinned CSVs: the per-panel sweeps warm vs. cold, and sfi_trace's
    # forensics table (bench/sfi_trace.cpp)
    {
        # mean_error is in no joined CSV: only the per-panel sweeps of the
        # warm run can show a store that loses it.
        "name": "store-drops-mean-error",
        "file": "src/campaign/point_store.cpp",
        "edits": [("    put(os, summary.mean_error);\n",
                   "    put(os, 0.0);\n")],
        "tests": [DRIVERS_CONTRACT],
    },
    {
        "name": "trace-table-swaps-latent-and-sdc",
        "file": "bench/sfi_trace.cpp",
        "edits": [("""                    cls(t, sfi::OutcomeClass::LatentCorrupt),
                    cls(t, sfi::OutcomeClass::SDC),
""", """                    cls(t, sfi::OutcomeClass::SDC),
                    cls(t, sfi::OutcomeClass::LatentCorrupt),
""")],
        "tests": [DRIVERS_CONTRACT],
    },
]


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def tracked_files():
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True).stdout
    return [p for p in listing.decode().split("\0") if p]


def sync_tree(dest):
    """Mirrors the checkout's files into dest, touching only changed ones
    (so a kept work dir rebuilds incrementally)."""
    for rel in tracked_files():
        src = os.path.join(REPO, rel)
        if not os.path.isfile(src):
            continue
        dst = os.path.join(dest, rel)
        with open(src, "rb") as f:
            data = f.read()
        if os.path.isfile(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)


def targets_of(tests):
    return sorted({target for t in tests
                   for target in CONTRACT_TARGETS.get(t, [t])})


def build(build_dir, tests):
    return run(["cmake", "--build", build_dir, "-j", str(os.cpu_count()),
                "--target"] + targets_of(tests), cwd=build_dir) == 0


def tests_pass(build_dir, tests):
    regex = "^(" + "|".join(tests) + ")$"
    return run(["ctest", "-R", regex], cwd=build_dir) == 0


def apply_edits(text, mutant):
    for original, replacement in mutant["edits"]:
        count = text.count(original)
        if count != 1:
            return None, (f"original snippet found {count} times in "
                          f"{mutant['file']}: {original.strip()[:60]!r}")
        text = text.replace(original, replacement)
    return text, None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--work-dir")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()

    if args.list:
        for m in MUTANTS:
            print(f"{m['name']:42s} {m['file']:32s} {' '.join(m['tests'])}")
        return

    work = args.work_dir or tempfile.mkdtemp(prefix="sfi_mutation_")
    work = os.path.abspath(work)
    if os.path.commonpath([work, REPO]) == REPO:
        sys.exit("--work-dir must lie outside the checkout")
    tree = os.path.join(work, "tree")
    build_dir = os.path.join(work, "build")
    try:
        print(f"[mutation] copying the tree to {tree}", flush=True)
        sync_tree(tree)
        if run(["cmake", "-S", tree, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release", "-DSFI_BUILD_EXAMPLES=OFF"],
               cwd=work) != 0:
            sys.exit("configure failed")

        all_tests = sorted({t for m in MUTANTS for t in m["tests"]})
        print(f"[mutation] baseline: {' '.join(all_tests)}", flush=True)
        if not build(build_dir, all_tests):
            sys.exit("the unmutated tree does not build")
        if not tests_pass(build_dir, all_tests):
            sys.exit("the unmutated tests fail: fix them before mutating")

        killed, survived, broken = [], [], []
        for mutant in MUTANTS:
            path = os.path.join(tree, mutant["file"])
            with open(path) as f:
                original = f.read()
            mutated, error = apply_edits(original, mutant)
            if error:
                broken.append(mutant["name"])
                print(f"  BROKEN   {mutant['name']}: {error}", flush=True)
                continue
            try:
                with open(path, "w") as f:
                    f.write(mutated)
                if not build(build_dir, mutant["tests"]):
                    broken.append(mutant["name"])
                    print(f"  BROKEN   {mutant['name']}: does not compile",
                          flush=True)
                    continue
                if tests_pass(build_dir, mutant["tests"]):
                    survived.append(mutant["name"])
                    print(f"  SURVIVED {mutant['name']}", flush=True)
                else:
                    killed.append(mutant["name"])
                    print(f"  killed   {mutant['name']}", flush=True)
            finally:
                with open(path, "w") as f:
                    f.write(original)

        # Leave the kept work dir's binaries unmutated.
        build(build_dir, all_tests)
        print(f"mutation check: {len(killed)}/{len(MUTANTS)} killed")
        if survived:
            print("survived: " + ", ".join(survived))
        if broken:
            print("broken (no longer apply or compile): " + ", ".join(broken))
        if survived or broken:
            sys.exit(1)
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
