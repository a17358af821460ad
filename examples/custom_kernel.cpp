// Shows how to bring your own kernel: write ORBIS32 assembly with the
// kernel markers, assemble it, run it under fault injection and evaluate
// a custom quality metric — everything a user needs to characterize their
// own workload's voltage/frequency resilience.
//
// The kernel here is a 64-element integer dot product.
#include <iostream>
#include <sstream>

#include "sfi/sfi.hpp"

namespace {

constexpr std::size_t kElements = 64;

/// Generates the guest program with embedded input data.
std::string dot_product_asm(const std::vector<std::uint32_t>& a,
                            const std::vector<std::uint32_t>& b) {
    std::ostringstream os;
    os << ".entry _start\n"
          "_start:\n"
          "  l.movhi r16,hi(vec_a)\n  l.ori r16,r16,lo(vec_a)\n"
          "  l.movhi r17,hi(vec_b)\n  l.ori r17,r17,lo(vec_b)\n"
          "  l.movhi r18,hi(out)\n  l.ori r18,r18,lo(out)\n"
          "  l.nop 0x10                # kernel begin: FI window opens\n"
          "  l.addi r13,r0,0           # acc\n"
          "  l.addi r14,r0," << kElements << "\n"
          "loop:\n"
          "  l.lwz  r10,0(r16)\n"
          "  l.lwz  r11,0(r17)\n"
          "  l.mul  r12,r10,r11\n"
          "  l.add  r13,r13,r12\n"
          "  l.addi r16,r16,4\n"
          "  l.addi r17,r17,4\n"
          "  l.addi r14,r14,-1\n"
          "  l.sfnei r14,0\n"
          "  l.bf   loop\n"
          "  l.sw   0(r18),r13\n"
          "  l.nop 0x11                # kernel end\n"
          "  l.addi r3,r0,0\n"
          "  l.nop 0x1                 # exit\n"
          ".org 0x8000\n";
    os << "vec_a:\n";
    for (const std::uint32_t v : a) os << "  .word " << v << "\n";
    os << "vec_b:\n";
    for (const std::uint32_t v : b) os << "  .word " << v << "\n";
    os << "out:\n  .word 0\n";
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sfi;
    const Cli cli(argc, argv);

    // Input data and the native golden result.
    Rng data_rng(7);
    std::vector<std::uint32_t> a(kElements), b(kElements);
    for (auto& v : a) v = static_cast<std::uint32_t>(data_rng.bounded(1 << 12));
    for (auto& v : b) v = static_cast<std::uint32_t>(data_rng.bounded(1 << 12));
    std::uint32_t golden = 0;
    for (std::size_t i = 0; i < kElements; ++i) golden += a[i] * b[i];

    // Assemble and sanity-check fault-free.
    const Program program = assemble(dot_product_asm(a, b));
    Memory memory;
    Cpu cpu(memory);
    cpu.reset(program);
    const RunResult golden_run = cpu.run();
    if (!golden_run.finished() ||
        memory.read_u32(program.symbol("out")) != golden) {
        std::cerr << "fault-free run failed!\n";
        return 1;
    }
    std::cout << "dot-product kernel: " << golden_run.kernel_cycles
              << " kernel cycles, golden = " << golden << "\n\n";

    // Characterize and inject.
    CoreModelConfig config;
    config.cdf_cache_path = "sfi_cdf_cache.bin";
    CharacterizedCore core(config);
    auto model = core.make_model_c();

    const std::size_t trials =
        static_cast<std::size_t>(cli.get_uint("trials", 60));
    TextTable table({"f [MHz]", "finished", "exact", "mean |rel. error|"});
    for (const double f : {700.0, 720.0, 740.0, 760.0, 780.0, 800.0}) {
        OperatingPoint point;
        point.freq_mhz = f;
        point.vdd = 0.7;
        point.noise.sigma_mv = 10.0;
        model->set_operating_point(point);

        std::size_t finished = 0, exact = 0;
        RunningStats rel_error;
        for (std::size_t trial = 0; trial < trials; ++trial) {
            model->reseed(1000 + trial);
            model->reset_stats();
            cpu.set_fault_hook(model.get());
            cpu.reset(program);
            const RunResult run = cpu.run(golden_run.cycles * 8);
            cpu.set_fault_hook(nullptr);
            if (!run.finished()) continue;
            ++finished;
            const std::uint32_t out = memory.read_u32(program.symbol("out"));
            if (out == golden) ++exact;
            rel_error.add(std::abs(static_cast<double>(out) -
                                   static_cast<double>(golden)) /
                          static_cast<double>(golden));
        }
        table.add_row({fmt_fixed(f, 0),
                       fmt_pct(static_cast<double>(finished) / trials),
                       fmt_pct(static_cast<double>(exact) / trials),
                       finished ? fmt_sci(rel_error.mean(), 3) : "n/a"});
    }
    table.print(std::cout);
    return 0;
}
