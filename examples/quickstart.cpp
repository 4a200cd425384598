// dnsctx quickstart — simulate a small residential neighborhood, capture
// the two passive datasets at the aggregation point, and run the paper's
// full analysis pipeline over them.
//
// Usage: quickstart [houses] [hours] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/report.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace dnsctx;

  scenario::ScenarioConfig cfg;
  cfg.houses = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 20;
  cfg.duration = SimDuration::hours(argc > 2 ? std::atoi(argv[2]) : 4);
  cfg.seed = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 42;

  std::printf("dnsctx quickstart: %zu houses, %s of traffic, seed %llu\n", cfg.houses,
              to_string(cfg.duration).c_str(),
              static_cast<unsigned long long>(cfg.seed));

  scenario::Town town{cfg};
  town.run();
  const capture::Dataset& ds = town.dataset();

  std::printf("captured: %zu connections, %zu DNS transactions\n\n", ds.conns.size(),
              ds.dns.size());

  const analysis::Study study = analysis::run_study(ds);
  std::printf("%s\n", analysis::format_table1(study).c_str());
  std::printf("%s\n", analysis::format_table2(study).c_str());
  std::printf("%s\n", analysis::format_fig1(study).c_str());
  std::printf("%s\n", analysis::format_fig2(study).c_str());
  std::printf("%s\n", analysis::format_fig3(study).c_str());

  const auto& truth = town.ground_truth();
  std::printf("ground truth (invisible to the monitor):\n");
  std::printf("  fetches=%llu cache_hits=%llu (expired %llu) blocked=%llu prefetches=%llu "
              "no_dns=%llu\n",
              static_cast<unsigned long long>(truth.fetches),
              static_cast<unsigned long long>(truth.fetch_cache_hits),
              static_cast<unsigned long long>(truth.fetch_cache_expired),
              static_cast<unsigned long long>(truth.fetch_blocked),
              static_cast<unsigned long long>(truth.prefetches),
              static_cast<unsigned long long>(truth.no_dns_conns));
  return 0;
}
