#include "mc/report.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace sfi {

void print_sweep(std::ostream& os, const std::string& title,
                 const std::vector<PointSummary>& sweep,
                 const std::string& error_label, bool vdd_axis) {
    os << title << "\n";
    TextTable table({vdd_axis ? "Vdd [V]" : "f [MHz]", "finished", "correct",
                     "FI/kCycle", error_label});
    for (const PointSummary& p : sweep) {
        table.add_row({vdd_axis ? fmt_fixed(p.point.vdd, 3)
                                : fmt_fixed(p.point.freq_mhz, 1),
                       fmt_pct(p.finished_frac()),
                       fmt_pct(p.correct_frac()), fmt_sci(p.fi_rate, 3),
                       p.finished_count ? fmt_sci(p.mean_error, 4) : "n/a"});
    }
    table.print(os);
}

void write_sweep_csv(const std::string& path,
                     const std::vector<PointSummary>& sweep) {
    if (path.empty()) return;
    CsvWriter csv(path);
    csv.header({"freq_mhz", "vdd", "sigma_mv", "finished", "correct",
                "fi_per_kcycle", "mean_error", "trials"});
    for (const PointSummary& p : sweep) {
        csv.cell(p.point.freq_mhz)
            .cell(p.point.vdd)
            .cell(p.point.noise.sigma_mv)
            .cell(p.finished_frac())
            .cell(p.correct_frac())
            .cell(p.fi_rate)
            .cell(p.finished_count ? format_double(p.mean_error)
                                   : std::string())
            .cell(static_cast<std::uint64_t>(p.trials));
        csv.end_row();
    }
    csv.close();  // surfaces stream errors (full disk, revoked mount, ...)
}

}  // namespace sfi
