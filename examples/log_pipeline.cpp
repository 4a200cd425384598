// Example: the offline workflow — capture once, analyze many times.
//
// Simulates the neighborhood, persists the two Bro-style logs to disk,
// then reloads them and runs the full study from files. This is the
// workflow for applying the dnsctx analysis pipeline to real conn.log /
// dns.log captures converted into the documented TSV schema.
//
// Usage: log_pipeline [out_dir] [houses] [hours]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "analysis/report.hpp"
#include "capture/logio.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace dnsctx;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";
  scenario::ScenarioConfig cfg;
  cfg.houses = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 15;
  cfg.duration = SimDuration::hours(argc > 3 ? std::atoi(argv[3]) : 3);

  std::filesystem::create_directories(out_dir);
  const std::string conn_path = out_dir + "/dnsctx_conn.log";
  const std::string dns_path = out_dir + "/dnsctx_dns.log";

  // --- capture phase -------------------------------------------------------
  {
    std::printf("capturing: %zu houses, %s...\n", cfg.houses, to_string(cfg.duration).c_str());
    scenario::Town town{cfg};
    town.run();
    capture::save_dataset(town.dataset(), conn_path, dns_path);
    std::printf("wrote %zu conns to %s\n", town.dataset().conns.size(), conn_path.c_str());
    std::printf("wrote %zu DNS txns to %s\n", town.dataset().dns.size(), dns_path.c_str());
  }  // the simulation is gone; only the logs remain — like a real capture

  // --- analysis phase ------------------------------------------------------
  std::printf("\nreloading logs and running the paper's pipeline...\n\n");
  const capture::Dataset ds = capture::load_dataset(conn_path, dns_path);
  const analysis::Study study = analysis::run_study(ds);
  std::printf("%s\n", analysis::format_table2(study).c_str());
  std::printf("%s\n", analysis::format_fig1(study).c_str());
  return 0;
}
