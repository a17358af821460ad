// Umbrella public header for the sfi library: statistical fault injection
// for impact-evaluation of timing errors on application performance
// (reproduction of Constantin et al., DAC 2016).
//
// Typical use (see examples/quickstart.cpp):
//
//   sfi::CharacterizedCore core;                     // ALU + STA + DTA
//   auto model = core.make_model_c();                // statistical FI
//   auto bench = sfi::make_benchmark(sfi::BenchmarkId::Median);
//   sfi::MonteCarloRunner runner(*bench, *model);
//   auto point = runner.run_point({.freq_mhz = 750, .vdd = 0.7,
//                                  .noise = {.sigma_mv = 10}});
//
// docs/ARCHITECTURE.md walks through the pipeline behind these types;
// DESIGN.md records the deviations from the paper's exact setup.
#pragma once

#include "apps/benchmark.hpp"
#include "campaign/figures.hpp"
#include "campaign/point_store.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "circuits/alu.hpp"
#include "cpu/cpu.hpp"
#include "cpu/memory.hpp"
#include "fi/cdf.hpp"
#include "fi/core_model.hpp"
#include "fi/cwc.hpp"
#include "fi/forensics.hpp"
#include "fi/mitigation.hpp"
#include "fi/models.hpp"
#include "fi/noise.hpp"
#include "fi/sampling_batch.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "isa/isa.hpp"
#include "mc/montecarlo.hpp"
#include "mc/parallel.hpp"
#include "mc/report.hpp"
#include "mc/sweep.hpp"
#include "netlist/netlist.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "perf/json_writer.hpp"
#include "perf/perf.hpp"
#include "perf/report.hpp"
#include "power/power_model.hpp"
#include "sampling/search.hpp"
#include "sampling/sequential.hpp"
#include "timing/calibration.hpp"
#include "timing/const_prop.hpp"
#include "timing/dta.hpp"
#include "timing/event_sim.hpp"
#include "timing/sta.hpp"
#include "timing/timing_lib.hpp"
#include "timing/vdd_model.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fingerprint.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
