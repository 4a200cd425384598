// dnsctx — report formatting for the reproduction benches: aligned
// tables with the paper's value beside the measured one, and compact
// CDF series renderings for the figures.
#pragma once

#include <string>

#include "analysis/study.hpp"

namespace dnsctx::analysis {

/// "measured (paper X)" cell helper.
[[nodiscard]] std::string vs_paper(double measured, double paper, const char* unit = "%");

/// Table 1 with the paper's reference column.
[[nodiscard]] std::string format_table1(const Study& s);

/// Table 2 (class shares) with §5 companion statistics.
[[nodiscard]] std::string format_table2(const Study& s);

/// Figure 1 summary (gap CDF + knee + first-use splits).
[[nodiscard]] std::string format_fig1(const Study& s);

/// Figure 2 summary (lookup delays + contribution + §6 quadrants).
[[nodiscard]] std::string format_fig2(const Study& s);

/// §7 / Figure 3 summary (per-platform hit rate, delays, throughput).
[[nodiscard]] std::string format_fig3(const Study& s);

}  // namespace dnsctx::analysis
