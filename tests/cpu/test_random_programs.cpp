// Property test: random straight-line ALU programs executed by the ISS
// (and the explicit pipeline oracle) must match an independent
// architectural interpreter built directly on the reference semantics.
//
// The generator lives in tests/testing/program_gen.hpp (shared with the
// differential harness); this file keeps the original property tests
// plus a determinism guard on the extracted generator.
#include <gtest/gtest.h>

#include "cpu/cpu.hpp"
#include "testing/pipeline_cpu.hpp"
#include "testing/program_gen.hpp"

namespace sfi {
namespace {

using testing::PipelineCpu;

using testgen::alu_to_program;
using testgen::generate_alu_program;
using testgen::RandomProgram;

class RandomAluPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAluPrograms, FastIssMatchesReferenceInterpreter) {
    const RandomProgram rp = generate_alu_program(GetParam(), 300);
    Memory memory(1 << 16);
    Cpu cpu(memory);
    cpu.reset(alu_to_program(rp));
    const RunResult run = cpu.run();
    ASSERT_EQ(run.stop, StopReason::Halted);
    for (std::uint8_t r = 0; r < 32; ++r)
        EXPECT_EQ(cpu.reg(r), rp.expected[r]) << "r" << int(r);
    EXPECT_EQ(cpu.flag(), rp.expected_flag);
}

TEST_P(RandomAluPrograms, PipelineMatchesReferenceInterpreter) {
    const RandomProgram rp = generate_alu_program(GetParam(), 300);
    Memory memory(1 << 16);
    PipelineCpu cpu(memory);
    cpu.reset(alu_to_program(rp));
    const RunResult run = cpu.run();
    ASSERT_EQ(run.stop, StopReason::Halted);
    for (std::uint8_t r = 0; r < 32; ++r)
        EXPECT_EQ(cpu.reg(r), rp.expected[r]) << "r" << int(r);
    EXPECT_EQ(cpu.flag(), rp.expected_flag);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAluPrograms,
                         ::testing::Range<std::uint64_t>(1, 13));

// The extraction into program_gen.hpp must not have changed the RNG
// consumption pattern: the same seed produces the same program on every
// call (and therefore the same programs the private generator produced).
TEST(ProgramGen, SameSeedSameProgram) {
    const RandomProgram a = generate_alu_program(42, 300);
    const RandomProgram b = generate_alu_program(42, 300);
    ASSERT_EQ(a.instrs.size(), b.instrs.size());
    for (std::size_t i = 0; i < a.instrs.size(); ++i)
        EXPECT_EQ(a.instrs[i], b.instrs[i]) << "instr " << i;
    EXPECT_EQ(a.expected, b.expected);
    EXPECT_EQ(a.expected_flag, b.expected_flag);

    const Program pa = testgen::generate_fuzz_program(42);
    const Program pb = testgen::generate_fuzz_program(42);
    ASSERT_EQ(pa.sections.size(), 1u);
    EXPECT_EQ(pa.sections[0].bytes, pb.sections[0].bytes);
}

}  // namespace
}  // namespace sfi
