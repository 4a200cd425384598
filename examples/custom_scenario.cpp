// Example: run the full study from a scenario configuration file — the
// no-recompile workflow for designing experiments (see
// examples/scenarios/*.conf for starting points).
//
// Usage: custom_scenario <config-file> [csv-out-dir]
#include <cstdio>

#include "analysis/export.hpp"
#include "analysis/report.hpp"
#include "scenario/config_io.hpp"

int main(int argc, char** argv) {
  using namespace dnsctx;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <config-file> [csv-out-dir]\n", argv[0]);
    return 2;
  }
  scenario::ScenarioConfig cfg;
  try {
    cfg = scenario::load_config_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("scenario from %s: %zu houses, %s, seed %llu\n", argv[1], cfg.houses,
              to_string(cfg.duration).c_str(), static_cast<unsigned long long>(cfg.seed));
  scenario::Town town{cfg};
  town.run();
  std::printf("captured %zu conns, %zu DNS transactions\n\n", town.dataset().conns.size(),
              town.dataset().dns.size());

  const analysis::Study study = analysis::run_study(town.dataset());
  std::printf("%s\n", analysis::format_table2(study).c_str());
  std::printf("%s\n", analysis::format_fig2(study).c_str());

  if (argc > 2) {
    const auto files = analysis::export_study_csv(study, argv[2]);
    std::printf("exported %zu CSV series to %s\n", files, argv[2]);
  }
  return 0;
}
