#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sfi {
namespace {

Cli make(std::initializer_list<const char*> args) {
    std::vector<const char*> argv(args);
    return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesNameValuePairs) {
    const Cli cli = make({"prog", "--trials", "50", "--vdd", "0.8"});
    EXPECT_EQ(cli.get_int("trials", 0), 50);
    EXPECT_DOUBLE_EQ(cli.get_double("vdd", 0.0), 0.8);
}

TEST(Cli, ParsesEqualsForm) {
    const Cli cli = make({"prog", "--sigma=25", "--name=fig5"});
    EXPECT_EQ(cli.get_int("sigma", 0), 25);
    EXPECT_EQ(cli.get("name", ""), "fig5");
}

TEST(Cli, BooleanFlagWithoutValue) {
    const Cli cli = make({"prog", "--verbose", "--fast"});
    EXPECT_TRUE(cli.get_bool("verbose", false));
    EXPECT_TRUE(cli.get_bool("fast", false));
}

TEST(Cli, BooleanFalseSpellings) {
    const Cli cli = make({"prog", "--a=0", "--b=false", "--c=no", "--d=off"});
    for (const char* name : {"a", "b", "c", "d"})
        EXPECT_FALSE(cli.get_bool(name, true)) << name;
}

TEST(Cli, DefaultsWhenAbsent) {
    const Cli cli = make({"prog"});
    EXPECT_EQ(cli.get_int("trials", 42), 42);
    EXPECT_DOUBLE_EQ(cli.get_double("vdd", 0.7), 0.7);
    EXPECT_EQ(cli.get("name", "x"), "x");
    EXPECT_FALSE(cli.has("trials"));
}

TEST(Cli, PositionalArguments) {
    const Cli cli = make({"prog", "median", "--trials", "5", "extra"});
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "median");
    EXPECT_EQ(cli.positional()[1], "extra");
}

TEST(Cli, HexIntegers) {
    const Cli cli = make({"prog", "--seed", "0x10"});
    EXPECT_EQ(cli.get_int("seed", 0), 16);
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
    const Cli cli = make({"prog", "--fast", "--trials", "7"});
    EXPECT_TRUE(cli.get_bool("fast", false));
    EXPECT_EQ(cli.get_int("trials", 0), 7);
}

TEST(Cli, GetThreadsParsesWorkerCount) {
    EXPECT_EQ(make({"prog", "--threads", "4"}).get_threads(), 4u);
    EXPECT_EQ(make({"prog"}).get_threads(), 0u);  // default: auto
    EXPECT_EQ(make({"prog"}).get_threads(2), 2u);
}

TEST(Cli, GetThreadsRejectsNegativeAndMalformedCounts) {
    // A negative count must not wrap to a huge std::size_t, and neither it
    // nor garbage may silently run at some other count (0 = auto, or the
    // digits before the junk).
    for (const char* arg : {"--threads=-1", "--threads=-2", "--threads=abc",
                            "--threads=3x", "--threads="}) {
        SCOPED_TRACE(arg);
        try {
            (void)make({"prog", arg}).get_threads();
            ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "--threads must be a non-negative integer"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Cli, GetUintParsesValuesAndDefaults) {
    EXPECT_EQ(make({"prog", "--trials", "250"}).get_uint("trials", 1), 250u);
    EXPECT_EQ(make({"prog", "--seed=0x10"}).get_uint("seed", 1), 16u);
    EXPECT_EQ(make({"prog"}).get_uint("trials", 42), 42u);
    // Seeds use the full 64-bit range.
    EXPECT_EQ(make({"prog", "--seed", "18446744073709551615"}).get_uint("seed", 1),
              0xffffffffffffffffULL);
}

TEST(Cli, GetUintRejectsNegativeValues) {
    // strtoull would silently wrap -5 to 18446744073709551611 and run a
    // nonsense experiment; the strict parser throws instead.
    EXPECT_THROW(make({"prog", "--trials=-5"}).get_uint("trials", 1),
                 std::invalid_argument);
    EXPECT_THROW(make({"prog", "--seed=-1"}).get_uint("seed", 1),
                 std::invalid_argument);
}

TEST(Cli, GetUintRejectsUnparseableValues) {
    EXPECT_THROW(make({"prog", "--trials=lots"}).get_uint("trials", 1),
                 std::invalid_argument);
    EXPECT_THROW(make({"prog", "--trials=12many"}).get_uint("trials", 1),
                 std::invalid_argument);
    EXPECT_THROW(make({"prog", "--trials="}).get_uint("trials", 1),
                 std::invalid_argument);
}

TEST(Cli, KnownVocabularyClassifiesUnknownFlags) {
    std::vector<const char*> argv = {"prog", "--trails", "5", "--trials", "7"};
    const Cli cli(static_cast<int>(argv.size()), argv.data(),
                  {"trials", "threads"});
    ASSERT_EQ(cli.unknown_flags().size(), 1u);
    EXPECT_EQ(cli.unknown_flags()[0], "trails");
    // Pass-through preserved: the unknown flag is still parsed and
    // retrievable (bench_microbench forwards foreign flags this way).
    EXPECT_EQ(cli.get_int("trails", 0), 5);
    EXPECT_EQ(cli.get_int("trials", 0), 7);
}

TEST(Cli, WithoutVocabularyNothingIsUnknown) {
    const Cli cli = make({"prog", "--whatever", "--and=this"});
    EXPECT_TRUE(cli.unknown_flags().empty());
}

TEST(Cli, GetPositiveDoubleAcceptsFinitePositiveValues) {
    const Cli cli = make({"prog", "--watchdog-factor", "2.5",
                          "--ci-target=0.05"});
    EXPECT_DOUBLE_EQ(cli.get_positive_double("watchdog-factor", 8.0), 2.5);
    EXPECT_DOUBLE_EQ(cli.get_positive_double("ci-target", 0.1), 0.05);
    EXPECT_DOUBLE_EQ(cli.get_positive_double("absent", 8.0), 8.0);
}

TEST(Cli, GetPositiveDoubleRejectsNonFiniteAndNonPositive) {
    // Each of these would silently disarm the watchdog or spin the
    // adaptive stopping loop forever if it got through.
    for (const char* bad : {"0", "-1", "-0.5", "nan", "inf", "-inf",
                            "1e999", "bogus", ""}) {
        const std::string arg = std::string("--watchdog-factor=") + bad;
        const Cli cli = make({"prog", arg.c_str()});
        EXPECT_THROW(cli.get_positive_double("watchdog-factor", 8.0),
                     std::invalid_argument)
            << "accepted --watchdog-factor=" << bad;
    }
}

}  // namespace
}  // namespace sfi
