// Reporting layer (src/mc/report.{hpp,cpp}): print_sweep table shape,
// CSV round-trip of every PointSummary column, the empty-path skip, and
// the hardened write path (parent-directory creation, loud failures).
#include "mc/report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sfi {
namespace {

namespace fs = std::filesystem;

PointSummary make_summary(double freq_mhz, std::size_t trials,
                          std::size_t finished, std::size_t correct,
                          double fi_rate, double mean_error) {
    PointSummary s;
    s.point.freq_mhz = freq_mhz;
    s.point.vdd = 0.725;
    s.point.noise.sigma_mv = 12.5;
    s.trials = trials;
    s.finished_count = finished;
    s.correct_count = correct;
    s.fi_rate = fi_rate;
    s.mean_error = mean_error;
    return s;
}

std::vector<PointSummary> sample_sweep() {
    return {make_summary(700.0, 40, 40, 40, 0.0, 0.0),
            make_summary(712.5, 40, 39, 30, 1.25e-2, 3.75),
            make_summary(725.0, 40, 0, 0, 2.5e3, 0.0)};
}

std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, sep)) out.push_back(item);
    return out;
}

class ReportCsvTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::path(::testing::TempDir()) /
                ("sfi_report_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST(PrintSweep, RendersTitleHeaderAndAllRows) {
    std::ostringstream os;
    print_sweep(os, "my panel", sample_sweep(), "rel. error %");
    const std::string text = os.str();
    EXPECT_NE(text.find("my panel"), std::string::npos);
    for (const char* column :
         {"f [MHz]", "finished", "correct", "FI/kCycle", "rel. error %"})
        EXPECT_NE(text.find(column), std::string::npos) << column;
    EXPECT_NE(text.find("700.0"), std::string::npos);
    EXPECT_NE(text.find("712.5"), std::string::npos);
    EXPECT_NE(text.find("725.0"), std::string::npos);
    // finished/correct render as percentages of the trial count.
    EXPECT_NE(text.find("97.5%"), std::string::npos);   // 39/40 finished
    EXPECT_NE(text.find("75.0%"), std::string::npos);   // 30/40 correct
    EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST(PrintSweep, ErrorColumnIsNaWhenNothingFinished) {
    std::ostringstream os;
    print_sweep(os, "", {make_summary(725.0, 40, 0, 0, 2.5e3, 0.0)}, "MSE");
    EXPECT_NE(os.str().find("n/a"), std::string::npos);
}

TEST_F(ReportCsvTest, RoundTripsEveryColumn) {
    const auto sweep = sample_sweep();
    const std::string path = dir_ + "/sweep.csv";
    write_sweep_csv(path, sweep);

    std::ifstream is(path);
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header,
              "freq_mhz,vdd,sigma_mv,finished,correct,fi_per_kcycle,"
              "mean_error,trials");

    for (const PointSummary& expected : sweep) {
        std::string line;
        ASSERT_TRUE(std::getline(is, line));
        const auto cells = split(line, ',');
        ASSERT_EQ(cells.size(), 8u);
        // format_double writes with round-trip precision: parsing the
        // cell must reproduce the exact double.
        EXPECT_EQ(std::strtod(cells[0].c_str(), nullptr),
                  expected.point.freq_mhz);
        EXPECT_EQ(std::strtod(cells[1].c_str(), nullptr), expected.point.vdd);
        EXPECT_EQ(std::strtod(cells[2].c_str(), nullptr),
                  expected.point.noise.sigma_mv);
        EXPECT_EQ(std::strtod(cells[3].c_str(), nullptr),
                  expected.finished_frac());
        EXPECT_EQ(std::strtod(cells[4].c_str(), nullptr),
                  expected.correct_frac());
        EXPECT_EQ(std::strtod(cells[5].c_str(), nullptr), expected.fi_rate);
        if (expected.finished_count == 0)
            EXPECT_EQ(cells[6], "");  // mean over zero finished trials
        else
            EXPECT_EQ(std::strtod(cells[6].c_str(), nullptr),
                      expected.mean_error);
        EXPECT_EQ(std::strtoull(cells[7].c_str(), nullptr, 10),
                  expected.trials);
    }
    std::string extra;
    EXPECT_FALSE(std::getline(is, extra)) << "unexpected trailing row";
}

TEST_F(ReportCsvTest, MeanErrorCellEmptyWhenNothingFinished) {
    // An all-hang point has no finished trials to average over: the CSV
    // must emit an empty mean_error cell (the table prints "n/a"), never
    // a stale TrialOutcome::output_error or a fake 0 — regardless of the
    // garbage value mean_error happens to hold.
    const std::string path = dir_ + "/hang.csv";
    write_sweep_csv(path, {make_summary(725.0, 40, 0, 0, 2.5e3, 123.456),
                           make_summary(700.0, 40, 40, 40, 0.0, 0.5)});

    std::ifstream is(path);
    std::string header, all_hang, healthy;
    ASSERT_TRUE(std::getline(is, header));
    ASSERT_TRUE(std::getline(is, all_hang));
    ASSERT_TRUE(std::getline(is, healthy));
    EXPECT_EQ(split(all_hang, ',')[6], "");
    EXPECT_EQ(std::strtod(split(healthy, ',')[6].c_str(), nullptr), 0.5);
}

TEST_F(ReportCsvTest, EmptyPathSkipsWriting) {
    EXPECT_NO_THROW(write_sweep_csv("", sample_sweep()));
}

TEST_F(ReportCsvTest, CreatesMissingParentDirectories) {
    const std::string path = dir_ + "/nested/a/b/sweep.csv";
    ASSERT_FALSE(fs::exists(dir_ + "/nested"));
    write_sweep_csv(path, sample_sweep());
    EXPECT_TRUE(fs::exists(path));
    EXPECT_GT(fs::file_size(path), 0u);
}

TEST_F(ReportCsvTest, ReportsUnwritableTarget) {
    // Parent "directory" is actually a file: creation and open both fail,
    // which must surface as an exception instead of silently dropping the
    // figure data (the historical behavior).
    const std::string blocker = dir_ + "/blocker";
    std::ofstream(blocker) << "in the way";
    EXPECT_THROW(write_sweep_csv(blocker + "/sweep.csv", sample_sweep()),
                 std::runtime_error);
}

}  // namespace
}  // namespace sfi
