#include "analysis/report.hpp"

#include "util/strings.hpp"

namespace dnsctx::analysis {

namespace {

/// Paper reference values (IMC 2020, Tables 1–2, §5–§7).
struct PaperTable1 {
  const char* platform;
  double houses, lookups, conns, bytes;
};
constexpr PaperTable1 kPaperTable1[] = {
    {"Local", 92.4, 72.8, 74.0, 70.8},
    {"Google", 83.5, 12.9, 8.3, 9.2},
    {"OpenDNS", 25.3, 9.4, 14.2, 13.5},
    {"Cloudflare", 3.8, 3.9, 2.9, 5.7},
};

struct PaperHitRate {
  const char* platform;
  double hit_rate;
};
constexpr PaperHitRate kPaperHitRates[] = {
    {"Cloudflare", 83.6}, {"Local", 71.2}, {"OpenDNS", 58.8}, {"Google", 23.0}};

}  // namespace

std::string vs_paper(double measured, double paper, const char* unit) {
  return strfmt("%6.1f%s (paper %5.1f%s)", measured, unit, paper, unit);
}

std::string format_table1(const Study& s) {
  std::string out;
  out += "Table 1: use of resolver platforms (measured | paper)\n";
  out += strfmt("  %-11s %17s %17s %17s %17s\n", "Resolver", "% Houses", "% Lookups",
                "% Conns", "% Bytes");
  for (const auto& row : s.table1) {
    double ph = -1, pl = -1, pc = -1, pb = -1;
    for (const auto& ref : kPaperTable1) {
      if (row.platform == ref.platform) {
        ph = ref.houses;
        pl = ref.lookups;
        pc = ref.conns;
        pb = ref.bytes;
      }
    }
    auto cell = [](double v, double paper) {
      return paper >= 0 ? strfmt("%6.1f | %5.1f", v, paper) : strfmt("%6.1f |     -", v);
    };
    out += strfmt("  %-11s %17s %17s %17s %17s\n", row.platform.c_str(),
                  cell(row.pct_houses, ph).c_str(), cell(row.pct_lookups, pl).c_str(),
                  cell(row.pct_conns, pc).c_str(), cell(row.pct_bytes, pb).c_str());
  }
  out += strfmt("  ISP-resolver-only houses: %s\n",
                vs_paper(100.0 * s.isp_only_houses, 16.0).c_str());
  return out;
}

std::string format_table2(const Study& s) {
  const ClassCounts& c = s.classified.counts;
  std::string out;
  out += "Table 2: DNS information origin by connection (measured | paper)\n";
  auto row = [&](const char* cls, const char* desc, std::uint64_t count, double paper) {
    out += strfmt("  %-3s %-22s %9llu  %s\n", cls, desc,
                  static_cast<unsigned long long>(count),
                  vs_paper(100.0 * c.share(count), paper).c_str());
  };
  row("N", "No DNS", c.n, 7.2);
  row("LC", "Local Cache", c.lc, 42.9);
  row("P", "Prefetched", c.p, 7.8);
  row("SC", "Shared Resolver Cache", c.sc, 26.3);
  row("R", "Requires Resolution", c.r, 15.7);
  out += strfmt("  no-block share (N+LC+P):      %s\n",
                vs_paper(100.0 * (c.share(c.n) + c.share(c.lc) + c.share(c.p)), 57.9).c_str());
  out += strfmt("  shared-cache hit rate:        %s\n",
                vs_paper(100.0 * c.shared_cache_hit_rate(), 62.6).c_str());
  out += strfmt("  LC using expired records:     %s\n",
                vs_paper(100.0 * s.classified.lc_expired_frac(), 22.2).c_str());
  out += strfmt("  P using expired records:      %s\n",
                vs_paper(100.0 * s.classified.p_expired_frac(), 12.4).c_str());
  out += strfmt("  unused (speculative) lookups: %s\n",
                vs_paper(100.0 * s.pairing.unused_lookup_frac(), 37.8).c_str());
  out += strfmt("  unique pairing candidate:     %s\n",
                vs_paper(100.0 * s.pairing.unique_candidate_frac(), 82.0).c_str());
  if (!s.classified.lc_gap_sec.empty() && !s.classified.p_gap_sec.empty()) {
    out += strfmt("  median lookup→use gap:  LC %.0f s (paper 1033), P %.0f s (paper 310)\n",
                  s.classified.lc_gap_sec.median(), s.classified.p_gap_sec.median());
  }
  if (!s.classified.lc_violation_late_sec.empty()) {
    const auto& late = s.classified.lc_violation_late_sec;
    out += strfmt(
        "  TTL-violation lateness: median %.0f s (paper 890), p90 %.0f s (paper ~19000), "
        ">30 s %.0f%% (paper 82)\n",
        late.median(), late.quantile(0.9), 100.0 * late.fraction_above(30.0));
  }
  return out;
}

std::string format_fig1(const Study& s) {
  const BlockingAnalysis& b = s.blocking;
  std::string out;
  out += "Figure 1: gap between DNS completion and connection start\n";
  out += render_ascii_cdf(b.gap_ms, "gap (paired connections)", "ms");
  out += strfmt("  detected knee:            ~%.0f ms (paper ~20 ms)\n", b.knee_ms);
  out += strfmt("  first-use | gap<=20ms:    %s\n",
                vs_paper(100.0 * b.first_use_frac_below, 91.0).c_str());
  out += strfmt("  first-use | gap>20ms:     %s\n",
                vs_paper(100.0 * b.first_use_frac_above, 21.0).c_str());
  out += strfmt("  paired conns within 100ms: %.1f%%\n", 100.0 * b.frac_within_ms(100.0));
  return out;
}

std::string format_fig2(const Study& s) {
  const PerformanceAnalysis& p = s.performance;
  std::string out;
  out += "Figure 2 (top): DNS lookup delay for SC ∪ R\n";
  if (!p.lookup_ms_all.empty()) {
    out += render_ascii_cdf(p.lookup_ms_all, "lookup delay", "ms");
    out += strfmt("  median: %.1f ms (paper 8.5), p75: %.1f ms (paper 20), >100 ms: %s\n",
                  p.lookup_ms_all.median(), p.lookup_ms_all.quantile(0.75),
                  vs_paper(100.0 * p.frac_lookup_over_ms(100.0), 3.3).c_str());
  }
  out += "Figure 2 (bottom): DNS contribution to transaction time\n";
  if (!p.contrib_all.empty()) {
    out += strfmt("  contribution > 1%%:  %s\n",
                  vs_paper(100.0 * p.frac_contrib_over_pct(1.0), 20.0).c_str());
    out += strfmt("  contribution >= 10%%: %s\n",
                  vs_paper(100.0 * p.frac_contrib_over_pct(10.0), 8.0).c_str());
    if (!p.contrib_r.empty()) {
      out += strfmt("  R-only > 1%%:        %s\n",
                    vs_paper(100.0 * p.contrib_r.fraction_above(1.0), 30.0).c_str());
    }
  }
  out += "§6 significance quadrants (of SC ∪ R)\n";
  out += strfmt("  insignificant (<=20ms, <=1%%):  %s\n",
                vs_paper(100.0 * p.insignificant_both, 64.0).c_str());
  out += strfmt("  relative only (>1%%, <=20ms):   %s\n",
                vs_paper(100.0 * p.relative_only, 11.5).c_str());
  out += strfmt("  absolute only (>20ms, <=1%%):   %s\n",
                vs_paper(100.0 * p.absolute_only, 15.9).c_str());
  out += strfmt("  significant (>20ms, >1%%):      %s\n",
                vs_paper(100.0 * p.significant_both, 8.6).c_str());
  out += strfmt("  significant share of ALL conns: %s\n",
                vs_paper(100.0 * p.significant_overall, 3.6).c_str());
  return out;
}

std::string format_fig3(const Study& s) {
  std::string out;
  out += "§7 / Figure 3: performance vs resolver platform\n";
  for (const auto& p : s.platforms) {
    double paper_hit = -1.0;
    for (const auto& ref : kPaperHitRates) {
      if (p.platform == ref.platform) paper_hit = ref.hit_rate;
    }
    out += strfmt("  %-11s hit rate %s", p.platform.c_str(),
                  paper_hit >= 0 ? vs_paper(100.0 * p.hit_rate(), paper_hit).c_str()
                                 : strfmt("%6.1f%%", 100.0 * p.hit_rate()).c_str());
    if (!p.r_lookup_ms.empty()) {
      out += strfmt("  |  R lookup ms: p50 %6.1f  p75 %6.1f  p95 %7.1f",
                    p.r_lookup_ms.median(), p.r_lookup_ms.quantile(0.75),
                    p.r_lookup_ms.quantile(0.95));
    }
    if (!p.throughput_bps.empty()) {
      out += strfmt("  |  tput KB/s: p25 %7.1f  p50 %7.1f  p75 %8.1f",
                    p.throughput_bps.quantile(0.25) / 1e3, p.throughput_bps.median() / 1e3,
                    p.throughput_bps.quantile(0.75) / 1e3);
    }
    out += "\n";
    if (p.platform == "Google" && !p.throughput_bps_filtered.empty()) {
      out += strfmt(
          "  %-11s conncheck share %s; filtered tput KB/s: p25 %7.1f  p50 %7.1f  p75 %8.1f\n",
          "  (dashed)", vs_paper(100.0 * p.conncheck_frac(), 23.5).c_str(),
          p.throughput_bps_filtered.quantile(0.25) / 1e3,
          p.throughput_bps_filtered.median() / 1e3,
          p.throughput_bps_filtered.quantile(0.75) / 1e3);
    }
  }
  return out;
}

}  // namespace dnsctx::analysis
