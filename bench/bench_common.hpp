// dnsctx — shared scaffolding for the reproduction benches.
//
// Every bench binary simulates the default neighborhood scenario at a
// shape-preserving reduced scale (the paper's corpus is 7 days × ~100
// houses; the default here is 12 hours × 80 houses) and prints the
// paper's rows next to the measured ones. Override the scale with:
//
//   bench_tableX [houses] [hours] [seed] [csv_dir]
//               [--shards N] [--threads N] [--json PATH]
//               [--transport do53|dot|doh|resolverless]
//               [--pack FILE] [--metrics] [--metrics-out FILE]
//
// `--threads N` runs both the simulation shards and the analysis
// map-reduce on N workers (0 = hardware concurrency); results are
// identical for any N. It never changes the scenario: `--shards N`
// (default 1) is the only knob that partitions the town. `--json PATH`
// (or the DNSCTX_BENCH_JSON environment variable) appends a one-line
// JSON timing record per run.
// `--metrics` enables the obs registry (default off, so plain timing
// runs measure the disabled fast path) and embeds the scrape in the
// JSON record under "metrics"; `--metrics-out FILE` also writes the
// scrape to FILE (.json -> JSON document, otherwise Prometheus text).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "analysis/encdns.hpp"
#include "analysis/export.hpp"
#include "analysis/failures.hpp"
#include "analysis/report.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/pack.hpp"
#include "scenario/scenario.hpp"

namespace dnsctx::bench {

/// High-water resident set size of this process, in bytes. Monotone over
/// the process lifetime — to compare two phases, measure the cheap one
/// first and check it stays under the expensive one's mark.
[[nodiscard]] inline std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is KiB on Linux
}

struct BenchScale {
  std::size_t houses = 80;
  int hours = 12;
  std::uint64_t seed = 42;
  std::string csv_dir;    ///< when non-empty, figure series are exported here
  unsigned threads = 1;   ///< workers for simulation and analysis (0 = hardware)
  std::size_t shards = 1; ///< simulation shards (a scenario knob, see scenario.hpp)
  std::string json_path;  ///< when non-empty, append a one-line JSON timing record
  std::string faults;     ///< fault plan spec ("" = unimpaired baseline)
  std::string transport = "do53";  ///< DNS transport scenario (see scenario.hpp)
  bool transport_given = false;    ///< --transport on the command line
  std::string pack_file;  ///< scenario-pack file ("" = default composition)
  std::string pack = "default";  ///< pack name for the JSON record key
  bool metrics = false;   ///< enable the obs registry for this run (default off)
  std::string metrics_out;  ///< when non-empty, also write a scrape file on exit
};

[[nodiscard]] inline BenchScale parse_scale(int argc, char** argv) {
  BenchScale s;
  if (const char* env = std::getenv("DNSCTX_BENCH_JSON"); env && *env) s.json_path = env;
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      s.threads = static_cast<unsigned>(std::atoi(argv[++i]));
      continue;
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      s.shards = static_cast<std::size_t>(std::atoi(argv[++i]));
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      s.json_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      s.faults = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
      s.transport = argv[++i];
      s.transport_given = true;
      continue;
    }
    if (std::strcmp(argv[i], "--pack") == 0 && i + 1 < argc) {
      s.pack_file = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      s.metrics = true;
      continue;
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      s.metrics = true;
      s.metrics_out = argv[++i];
      continue;
    }
    switch (++pos) {
      case 1: s.houses = static_cast<std::size_t>(std::atoi(argv[i])); break;
      case 2: s.hours = std::atoi(argv[i]); break;
      case 3: s.seed = static_cast<std::uint64_t>(std::atoll(argv[i])); break;
      case 4: s.csv_dir = argv[i]; break;
      default: break;
    }
  }
  return s;
}

/// Build the scenario for a bench scale. Applies the pack file first
/// (recording its name in s.pack for the JSON record), then the scale
/// knobs on top — so `--houses` etc. always win over pack contents.
[[nodiscard]] inline scenario::ScenarioConfig scenario_for(BenchScale& s) {
  scenario::ScenarioConfig cfg;
  if (!s.pack_file.empty()) {
    try {
      s.pack = scenario::apply_pack_file(s.pack_file, &cfg).name;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }
  cfg.houses = s.houses;
  cfg.duration = SimDuration::hours(s.hours);
  cfg.seed = s.seed;
  cfg.shards = s.shards;
  cfg.threads = s.threads;
  if (!s.faults.empty()) cfg.faults = faults::FaultPlan::parse(s.faults);
  if (s.transport_given || s.pack_file.empty()) {
    if (const auto t = netsim::parse_transport(s.transport)) {
      cfg.transport = *t;
    } else {
      std::fprintf(stderr,
                   "unknown transport '%s' (expected do53, dot, doh, or resolverless)\n",
                   s.transport.c_str());
      std::exit(2);
    }
  } else {
    // Pack without an explicit --transport: keep the pack's default and
    // reflect it into the record so the JSON key matches reality.
    s.transport = netsim::to_string(cfg.transport);
  }
  return cfg;
}

struct BenchRun {
  std::unique_ptr<scenario::Town> town_ptr;
  analysis::Study study;
  analysis::EncConfusion enc;  ///< encrypted-flow classifier result (zero on do53)
  double gen_sec = 0.0;    ///< Town construction + simulation + harvest
  double study_sec = 0.0;  ///< run_study wall time
  double enc_classify_sec = 0.0;  ///< encrypted-flow classifier wall time

  [[nodiscard]] scenario::Town& town() const { return *town_ptr; }
};

inline void append_json_record(const std::string& path, const char* bench_name,
                               const BenchScale& s, const BenchRun& run) {
  std::ofstream os{path, std::ios::app};
  if (!os) {
    std::fprintf(stderr, "warning: cannot open bench JSON file %s\n", path.c_str());
    return;
  }
  const std::size_t conns = run.town().dataset().conns.size();
  const std::size_t dns = run.town().dataset().dns.size();
  const std::size_t encflows = run.town().dataset().encflows.size();
  const double total_sec = run.gen_sec + run.study_sec;
  const double records_per_sec =
      total_sec > 0.0 ? static_cast<double>(conns + dns) / total_sec : 0.0;
  const analysis::FailureReport failures =
      analysis::build_failure_report(run.town().dataset());
  const analysis::FailureCounts& fc = failures.counts;
  char buf[1536];
  std::snprintf(buf, sizeof buf,
                "{\"bench\":\"%s\",\"houses\":%zu,\"hours\":%d,\"seed\":%llu,"
                "\"threads\":%u,\"shards\":%zu,\"faults\":\"%s\",\"pack\":\"%s\","
                "\"transport\":\"%s\",\"encflows\":%zu,\"enc_classify_sec\":%.3f,"
                "\"gen_sec\":%.3f,\"study_sec\":%.3f,"
                "\"total_sec\":%.3f,\"conns\":%zu,\"dns\":%zu,\"records_per_sec\":%.0f,"
                "\"failed_lookups\":%llu,\"servfail\":%llu,\"retry_chains\":%llu,"
                "\"recovered_chains\":%llu,\"failed_chains\":%llu,\"s0_conns\":%llu,"
                "\"peak_rss_bytes\":%llu}",
                bench_name, s.houses, s.hours, static_cast<unsigned long long>(s.seed),
                s.threads, s.shards, s.faults.c_str(), s.pack.c_str(),
                s.transport.c_str(), encflows,
                run.enc_classify_sec, run.gen_sec, run.study_sec,
                total_sec, conns, dns, records_per_sec,
                static_cast<unsigned long long>(fc.unanswered + fc.servfail +
                                                fc.other_rcode),
                static_cast<unsigned long long>(fc.servfail),
                static_cast<unsigned long long>(fc.retry_chains),
                static_cast<unsigned long long>(fc.recovered_chains),
                static_cast<unsigned long long>(fc.failed_chains),
                static_cast<unsigned long long>(fc.s0_conns),
                static_cast<unsigned long long>(peak_rss_bytes()));
  std::string record{buf};
  if (obs::enabled()) {
    record.pop_back();  // reopen the object to append the metrics scrape
    record += ",\"metrics\":";
    record += obs::to_flat_json(obs::registry().snapshot());
    record += '}';
  }
  os << record << '\n';
}

/// Simulate + analyze, with a banner describing the run and wall-clock
/// timing for the generation and study halves.
[[nodiscard]] inline BenchRun run_default(const char* bench_name, int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  BenchScale scale = parse_scale(argc, argv);
  if (scale.metrics) obs::set_enabled(true);
  const scenario::ScenarioConfig cfg = scenario_for(scale);  // may set scale.pack
  std::printf("== %s — dnsctx reproduction of \"Putting DNS in Context\" (IMC'20) ==\n",
              bench_name);
  std::printf("scenario: %zu houses, %d h of traffic, seed %llu, %u thread(s), "
              "transport %s, pack %s (paper: ~100 houses, 7 days)\n",
              scale.houses, scale.hours, static_cast<unsigned long long>(scale.seed),
              scale.threads, scale.transport.c_str(), scale.pack.c_str());
  BenchRun run;
  const auto t0 = Clock::now();
  run.town_ptr = std::make_unique<scenario::Town>(cfg);
  run.town().run();
  const auto t1 = Clock::now();
  run.gen_sec = std::chrono::duration<double>(t1 - t0).count();
  const std::size_t conns = run.town().dataset().conns.size();
  const std::size_t dns = run.town().dataset().dns.size();
  std::printf("captured: %zu connections, %zu DNS transactions in %.2f s\n",
              conns, dns, run.gen_sec);

  analysis::StudyConfig study_cfg;
  study_cfg.threads = scale.threads;
  run.study = analysis::run_study(run.town().dataset(), study_cfg);
  const auto t2 = Clock::now();
  run.study_sec = std::chrono::duration<double>(t2 - t1).count();
  const double total_sec = run.gen_sec + run.study_sec;
  std::printf("analyzed in %.2f s — %.0f records/s end to end\n\n", run.study_sec,
              total_sec > 0.0 ? static_cast<double>(conns + dns) / total_sec : 0.0);

  if (!run.town().dataset().encflows.empty()) {
    run.enc = analysis::evaluate_enc_classifier(run.town().dataset().encflows,
                                                run.town().resolver_service_addrs());
    run.enc_classify_sec = std::chrono::duration<double>(Clock::now() - t2).count();
    std::printf("%sclassified %zu encrypted flows in %.3f s\n\n",
                analysis::render_enc_report(run.enc).c_str(),
                run.town().dataset().encflows.size(), run.enc_classify_sec);
  }

  if (!scale.csv_dir.empty()) {
    const auto files = analysis::export_study_csv(run.study, scale.csv_dir);
    std::printf("exported %zu CSV series to %s\n\n", files, scale.csv_dir.c_str());
  }
  run.town().publish_metrics();
  if (!scale.json_path.empty()) append_json_record(scale.json_path, bench_name, scale, run);
  if (!scale.metrics_out.empty()) obs::write_metrics_file(scale.metrics_out);
  return run;
}

}  // namespace dnsctx::bench
