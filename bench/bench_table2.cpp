// Reproduces Table 2 (DNS information origin per connection) together
// with the §5 companion statistics and the §5.1 breakdown of the N set.
#include "analysis/nclass.hpp"
#include "analysis/perhouse.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dnsctx;
  const auto run = bench::run_default("Table 2 + §5", argc, argv);
  const auto& ds = run.town().dataset();

  std::printf("%s\n", analysis::format_table2(run.study).c_str());

  const auto nclass = analysis::analyze_n_class(ds, run.study.classified);
  std::printf("§5.1 breakdown of the N (no DNS) connections:\n");
  std::printf("  both high ports (P2P-like): %s\n",
              analysis::vs_paper(100.0 * nclass.high_port_frac(), 81.6).c_str());
  std::printf("  reserved-port N conns: 443=%llu  123=%llu  80=%llu  853(DoT)=%llu\n",
              static_cast<unsigned long long>(nclass.port_443),
              static_cast<unsigned long long>(nclass.port_123),
              static_cast<unsigned long long>(nclass.port_80),
              static_cast<unsigned long long>(nclass.port_853));
  std::printf("  failed NTP attempts (dead hard-coded server): %llu (paper: >23K/week)\n",
              static_cast<unsigned long long>(nclass.failed_ntp));
  std::printf("  unexplained non-P2P unpaired share of ALL conns: %s\n",
              analysis::vs_paper(100.0 * nclass.unexplained_share_of_all, 1.3).c_str());
  std::printf("  top hard-coded destinations:\n");
  for (const auto& [addr, count] : nclass.top_reserved_destinations) {
    std::printf("    %-16s %8llu conns\n", addr.to_string().c_str(),
                static_cast<unsigned long long>(count));
  }

  // House-level bootstrap: how tight are the class shares given the
  // between-household variation?
  const auto per_house = analysis::analyze_per_house(ds, run.study.classified);
  const auto ci = analysis::bootstrap_table2_ci(per_house);
  std::printf("\n95%% cluster-bootstrap CIs (houses resampled, %zu reps):\n", ci.replicates);
  auto row = [](const char* cls, const analysis::ShareCi& c, double paper) {
    std::printf("  %-3s [%5.1f%%, %5.1f%%]  (paper %4.1f%%)\n", cls, 100.0 * c.lo,
                100.0 * c.hi, paper);
  };
  row("N", ci.n, 7.2);
  row("LC", ci.lc, 42.9);
  row("P", ci.p, 7.8);
  row("SC", ci.sc, 26.3);
  row("R", ci.r, 15.7);
  return 0;
}
