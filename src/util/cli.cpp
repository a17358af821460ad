#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace sfi {

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> known)
    : Cli(argc, argv) {
    for (const auto& [name, value] : options_) {
        (void)value;
        if (std::find(known.begin(), known.end(), name) == known.end())
            unknown_.push_back(name);
    }
}

Cli::Cli(int argc, const char* const* argv) {
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--name value` when the next token is not itself an option,
        // otherwise a boolean flag.
        // std::string temporaries (not const char*) sidestep a GCC 12
        // -Wrestrict false positive (PR105329) in the inlined
        // string::operator=(const char*) path.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_.insert_or_assign(body, std::string(argv[i + 1]));
            ++i;
        } else {
            options_.insert_or_assign(body, std::string("1"));
        }
    }
}

bool Cli::has(const std::string& name) const { return options_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& def) const {
    const auto it = options_.find(name);
    return it == options_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return def;
    return std::strtoll(it->second.c_str(), nullptr, 0);
}

double Cli::get_double(const std::string& name, double def) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return def;
    return std::strtod(it->second.c_str(), nullptr);
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t def) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return def;
    const std::string& text = it->second;
    std::size_t i = 0;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    // strtoull would silently wrap "-5" to 18446744073709551611.
    if (i < text.size() && (text[i] == '-' || text[i] == '+'))
        throw std::invalid_argument("--" + name + " must be a non-negative "
                                    "integer (got \"" + text + "\")");
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument("--" + name + " must be a non-negative "
                                    "integer (got \"" + text + "\")");
    return static_cast<std::uint64_t>(value);
}

double Cli::get_positive_double(const std::string& name, double def) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return def;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value) || value <= 0.0)
        throw std::invalid_argument("--" + name + " must be a finite "
                                    "positive number (got \"" + text + "\")");
    return value;
}

std::size_t Cli::get_threads(std::size_t def) const {
    return static_cast<std::size_t>(get_uint("threads", def));
}

bool Cli::get_bool(const std::string& name, bool def) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return def;
    const std::string& v = it->second;
    return !(v == "0" || v == "false" || v == "no" || v == "off");
}

}  // namespace sfi
