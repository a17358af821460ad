// Tiny command-line option parser for the bench/example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sfi {

class Cli {
public:
    /// Parses argv. With the one-argument form every option is accepted
    /// silently; pass a vocabulary of known option names to have the
    /// parser classify anything else into `unknown_flags()`. Unknown
    /// options are still parsed and retrievable through get*() — callers
    /// warn instead of aborting, so a typo is reported while a flag meant
    /// for another tool still passes through.
    Cli(int argc, const char* const* argv);
    Cli(int argc, const char* const* argv, std::vector<std::string> known);

    bool has(const std::string& name) const;
    std::string get(const std::string& name, const std::string& def) const;
    bool get_bool(const std::string& name, bool def) const;

    // The numeric getters are strict: a value that is not wholly a number
    // of the getter's kind throws std::invalid_argument naming the flag,
    // instead of silently running a different experiment (strtod reads
    // "abc" as 0, strtoull wraps "-1" to 2^64 - 1). The callers check
    // ranges.

    /// Non-negative integers (--trials, --seed). Accepts the full
    /// std::uint64_t range (seeds are arbitrary 64-bit values).
    std::uint64_t get_uint(const std::string& name, std::uint64_t def) const;

    /// Finite numbers: "nan", "inf" and out-of-range values throw too.
    double get_double(const std::string& name, double def) const;

    /// Finite, strictly positive numbers (--watchdog-factor,
    /// --ci-target): zero or a negative value would disarm the watchdog
    /// or spin the adaptive stopping rule forever.
    double get_positive_double(const std::string& name, double def) const;

    /// Finite numbers >= 0 (--sigma, --max-error): a negative noise level
    /// or error budget would silently run some other experiment.
    double get_non_negative_double(const std::string& name, double def) const;

    /// The shared `--threads` parser for McConfig::threads: a non-negative
    /// worker count, where 0 means one worker per hardware thread. Parsed
    /// like get_uint — a negative or malformed value throws
    /// std::invalid_argument naming the flag instead of silently running
    /// at some other count.
    std::size_t get_threads(std::size_t def = 0) const;

    /// Positional (non-option) arguments, in order.
    const std::vector<std::string>& positional() const { return positional_; }
    /// Options seen on the command line but absent from the `known`
    /// vocabulary (always empty when none was given).
    const std::vector<std::string>& unknown_flags() const { return unknown_; }
    const std::string& program() const { return program_; }

private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
    std::vector<std::string> unknown_;
};

}  // namespace sfi
