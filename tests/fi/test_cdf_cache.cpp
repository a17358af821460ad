// CDF cache round-trip of CharacterizedCore (see docs/ARCHITECTURE.md):
// a second construction with the same configuration and cache path must
// load the cached store instead of re-running DTA; a configuration
// change or a corrupt payload must fall back to recharacterization; and a
// rewrite replaces the file whole, so a reader that opened it earlier
// still reads the complete old file.
#include "fi/core_model.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "testing/cdf_forgery.hpp"

namespace sfi {
namespace {

namespace fs = std::filesystem;

std::vector<char> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

class CdfCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-process filename: concurrent ctest runs (e.g. the default and
        // debug build trees) must not clobber each other's cache file.
        cache_path_ = (fs::path(::testing::TempDir()) /
                       ("sfi_cdf_cache_smoke_" + std::to_string(::getpid()) +
                        ".bin"))
                          .string();
        fs::remove(cache_path_);
    }
    void TearDown() override { fs::remove_all(cache_path_); }

    // Files in the cache's directory whose names extend the cache file's
    // (where a rewrite stages its bytes).
    std::vector<std::string> staged_files() const {
        const fs::path cache(cache_path_);
        const std::string prefix = cache.filename().string() + ".";
        std::vector<std::string> found;
        for (const auto& entry : fs::directory_iterator(cache.parent_path()))
            if (entry.path().filename().string().rfind(prefix, 0) == 0)
                found.push_back(entry.path().string());
        return found;
    }

    // Short DTA kernel: the cache mechanics are length-independent.
    CoreModelConfig config(std::size_t cycles = 256) const {
        CoreModelConfig c;
        c.dta.cycles = cycles;
        c.cdf_cache_path = cache_path_;
        return c;
    }

    std::string cache_path_;
};

TEST_F(CdfCacheTest, FirstConstructionWritesCache) {
    const CharacterizedCore core(config());
    ASSERT_TRUE(fs::exists(cache_path_));
    // fingerprint (8 bytes) + non-empty serialized store
    EXPECT_GT(fs::file_size(cache_path_), 8u);
}

TEST_F(CdfCacheTest, SecondConstructionHitsCache) {
    const CharacterizedCore first(config());
    ASSERT_TRUE(fs::exists(cache_path_));
    const std::vector<char> cached = read_file(cache_path_);
    ASSERT_GT(cached.size(), 8u);

    // Forge the cached payload: keep the valid fingerprint but store the
    // CDFs of a differently-seeded characterization. Only a genuine cache
    // hit can surface the forged store — a silent re-characterization
    // would reproduce `first`'s CDFs instead.
    CoreModelConfig forged_config = config();
    forged_config.cdf_cache_path.clear();
    forged_config.dta.seed ^= 0x5eedULL;
    const CharacterizedCore forged(forged_config);
    ASSERT_FALSE(*forged.cdfs() == *first.cdfs());
    {
        std::ofstream os(cache_path_, std::ios::binary | std::ios::trunc);
        os.write(cached.data(), 8);
        forged.cdfs()->save(os);
    }

    const CharacterizedCore second(config());
    EXPECT_TRUE(*second.cdfs() == *forged.cdfs());
    EXPECT_FALSE(*second.cdfs() == *first.cdfs());
}

TEST_F(CdfCacheTest, SameConfigReproducesIdenticalStore) {
    const CharacterizedCore first(config());
    const CharacterizedCore second(config());
    EXPECT_TRUE(*second.cdfs() == *first.cdfs());
}

TEST_F(CdfCacheTest, FingerprintChangeInvalidatesCache) {
    const CharacterizedCore first(config(256));
    const CharacterizedCore second(config(512));
    EXPECT_EQ(second.cdfs()->samples_per_endpoint(), 512u);
    EXPECT_FALSE(*second.cdfs() == *first.cdfs());
    // The cache now holds the new fingerprint + store.
    const CharacterizedCore third(config(512));
    EXPECT_TRUE(*third.cdfs() == *second.cdfs());
}

TEST_F(CdfCacheTest, CorruptPayloadFallsBackToCharacterization) {
    const CharacterizedCore first(config());
    const std::vector<char> cached = read_file(cache_path_);
    ASSERT_GT(cached.size(), 16u);
    // Truncate the payload but keep the valid fingerprint.
    std::ofstream(cache_path_, std::ios::binary | std::ios::trunc)
        .write(cached.data(), 16);
    const CharacterizedCore second(config());
    EXPECT_TRUE(*second.cdfs() == *first.cdfs());
}

// A payload whose fingerprint matches but whose counts or samples are
// forged must fail to load and be replaced by a fresh characterization
// that writes back the exact original cache bytes.
TEST_F(CdfCacheTest, ForgedPayloadFallsBackToCharacterization) {
    const CharacterizedCore first(config());
    const std::vector<char> cached = read_file(cache_path_);
    const std::string original(cached.begin(), cached.end());
    const auto forgeries = testing::forge_cdf_payloads(original, 8);
    ASSERT_EQ(forgeries.size(), 6u);
    for (const testing::CdfForgery& forgery : forgeries) {
        std::istringstream payload(forgery.bytes.substr(8));
        EXPECT_THROW(TimingErrorCdfs::load(payload), std::runtime_error)
            << forgery.label;
        std::ofstream(cache_path_, std::ios::binary | std::ios::trunc)
            .write(forgery.bytes.data(),
                   static_cast<std::streamsize>(forgery.bytes.size()));
        const CharacterizedCore again(config());
        EXPECT_TRUE(*again.cdfs() == *first.cdfs()) << forgery.label;
        EXPECT_EQ(read_file(cache_path_), cached) << forgery.label;
    }
}

TEST_F(CdfCacheTest, RewriteLeavesAnEarlierReaderTheCompleteOldFile) {
    const CharacterizedCore first(config(256));
    const std::vector<char> old_bytes = read_file(cache_path_);
    ASSERT_GT(old_bytes.size(), 8u);
    // Another process opens the cache a moment before this one replaces
    // it with a different characterization (new fingerprint, same path).
    std::ifstream reader(cache_path_, std::ios::binary);
    ASSERT_TRUE(reader);
    const CharacterizedCore second(config(512));
    ASSERT_NE(read_file(cache_path_), old_bytes);

    // The early reader gets every byte of the old file, and nothing else:
    // the fingerprint it checks and the payload it loads belong together.
    const std::vector<char> seen{std::istreambuf_iterator<char>(reader),
                                 std::istreambuf_iterator<char>()};
    EXPECT_EQ(seen, old_bytes);
    std::istringstream payload(std::string(seen.begin() + 8, seen.end()));
    EXPECT_TRUE(TimingErrorCdfs::load(payload) == *first.cdfs());
    // A later reader gets the new file, and no staging file stays behind.
    const CharacterizedCore third(config(512));
    EXPECT_TRUE(*third.cdfs() == *second.cdfs());
    EXPECT_TRUE(staged_files().empty());
}

TEST_F(CdfCacheTest, FailedRewriteLeavesNoStagingFileBehind) {
    // A directory squats on the cache path, so the cache can be neither
    // read nor replaced: characterization still succeeds, the directory
    // stays, and the staged bytes are cleaned up.
    fs::create_directory(cache_path_);
    const CharacterizedCore core(config());
    EXPECT_GT(core.cdfs()->samples_per_endpoint(), 0u);
    EXPECT_TRUE(fs::is_directory(cache_path_));
    EXPECT_TRUE(staged_files().empty());
}

}  // namespace
}  // namespace sfi
