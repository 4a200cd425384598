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
//               [--faults SPEC] [--pack FILE] [--metrics] [--metrics-out FILE]
//
// Scenario values get their config-file rule (scenario/config_io.hpp);
// an unknown flag, an extra argument or a bad value exits 2 naming it.
// `--pack FILE` applies a scenario pack, a config file that sets
// `pack = NAME` and no run-shape key, before the other flags; its name
// keys the JSON record ("default" without one).
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

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include <sys/resource.h>

#include "analysis/encdns.hpp"
#include "analysis/export.hpp"
#include "analysis/failures.hpp"
#include "analysis/report.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/config_io.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"

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
  /// The scenario: houses/hours/seed positionals, --shards, --threads,
  /// --faults, --transport and --pack, all set through the knob table
  /// (scenario/config_io.hpp), so each gets its config-file rule.
  scenario::ScenarioConfig cfg;
  std::string csv_dir;    ///< when non-empty, figure series are exported here
  std::string json_path;  ///< when non-empty, append a one-line JSON timing record
  std::string faults;     ///< --faults as given, for the JSON record ("" = none)
  bool metrics = false;   ///< enable the obs registry for this run (default off)
  std::string metrics_out;  ///< when non-empty, also write a scrape file on exit
};

/// The scenario's length in whole hours, as the benches print it.
[[nodiscard]] inline int hours_of(const scenario::ScenarioConfig& cfg) {
  return static_cast<int>(cfg.duration.count_us() / 3'600'000'000LL);
}

/// Parse a bench's command line strictly: a flag not in `valued` or
/// `bare`, a missing or unexpected value, more than `max_positionals`
/// positionals, or an error thrown by `apply` (which sets the scenario
/// through the knob table) prints "bench: problem" and exits 2, so a bad
/// flag never silently runs a different experiment.
template <typename Apply>
[[nodiscard]] CliArgs parse_bench_args(int argc, char** argv, const std::set<std::string>& valued,
                                       const std::set<std::string>& bare,
                                       std::size_t max_positionals, Apply&& apply) {
  const char* slash = std::strrchr(argv[0], '/');
  const char* tool = slash != nullptr ? slash + 1 : argv[0];
  CliArgs args = parse_cli(std::span<const char* const>{
      const_cast<const char* const*>(argv) + 1, static_cast<std::size_t>(argc - 1)});
  const auto fail = [tool](const char* problem) {
    std::fprintf(stderr, "%s: %s\n", tool, problem);
    std::exit(2);
  };
  if (const auto problem = args.misuse(valued, bare, max_positionals)) fail(problem->c_str());
  try {
    apply(args);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return args;
}

/// The JSON record file: --json, else DNSCTX_BENCH_JSON, else none.
[[nodiscard]] inline std::string json_path_from(const CliArgs& args) {
  const char* env = std::getenv("DNSCTX_BENCH_JSON");
  return args.option_or("json", env != nullptr ? env : "");
}

[[nodiscard]] inline BenchScale parse_scale(int argc, char** argv) {
  BenchScale s;
  s.cfg.houses = 80;
  s.cfg.duration = SimDuration::hours(12);
  const CliArgs args = parse_bench_args(
      argc, argv, {"shards", "threads", "json", "faults", "transport", "pack", "metrics-out"},
      {"metrics"}, 4, [&s](const CliArgs& a) {
        // The pack first. It may not set the scale knobs, and the
        // --transport and --faults flags win over its contents.
        if (const auto pack = a.option("pack")) scenario::apply_pack_file(*pack, &s.cfg);
        constexpr std::pair<const char*, std::string_view> kPositionals[] = {
            {"houses", "houses"}, {"hours", "duration_hours"}, {"seed", "seed"}};
        for (std::size_t i = 0; i < std::min<std::size_t>(3, a.positionals.size()); ++i) {
          const auto& [name, key] = kPositionals[i];
          scenario::set_knob(s.cfg, key, a.positionals[i], name);
        }
        scenario::set_flag_knobs(s.cfg, a);
      });
  if (args.positionals.size() > 3) s.csv_dir = args.positionals[3];
  s.json_path = json_path_from(args);
  s.faults = args.option_or("faults", "");
  s.metrics_out = args.option_or("metrics-out", "");
  s.metrics = args.has_flag("metrics") || !s.metrics_out.empty();
  return s;
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

/// One `--json` record: a one-line JSON object whose keys keep the order
/// they are added in. Strings go through obs::json_escape; each number
/// keeps the format its field has always had, so BENCH_baseline.json and
/// tools/bench_compare.py keep matching.
class JsonRecord {
 public:
  explicit JsonRecord(std::string_view bench) { text("bench", bench); }

  JsonRecord& text(const char* key, std::string_view v) {
    std::string quoted = "\"";
    quoted += obs::json_escape(v);
    quoted += '"';
    return raw(key, quoted);
  }
  /// Integers print in full (as %d / %zu / %llu did).
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonRecord& integer(const char* key, T v) {
    return raw(key, std::to_string(v));
  }
  /// `decimals` digits after the point (as %.Nf did).
  JsonRecord& fixed(const char* key, double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return raw(key, buf);
  }
  JsonRecord& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  /// A value that is JSON already (an embedded object).
  JsonRecord& raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? "{\"" : ",\"";
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
  }

  /// Append the record as one line to `path` (a warning when it cannot be opened).
  void append_to(const std::string& path) const {
    std::ofstream os{path, std::ios::app};
    if (!os) {
      std::fprintf(stderr, "warning: cannot open bench JSON file %s\n", path.c_str());
      return;
    }
    os << out_ << "}\n";
  }

 private:
  std::string out_;
};

inline void append_json_record(const std::string& path, const char* bench_name,
                               const BenchScale& s, const BenchRun& run) {
  const std::size_t conns = run.town().dataset().conns.size();
  const std::size_t dns = run.town().dataset().dns.size();
  const std::size_t encflows = run.town().dataset().encflows.size();
  const double total_sec = run.gen_sec + run.study_sec;
  const double records_per_sec =
      total_sec > 0.0 ? static_cast<double>(conns + dns) / total_sec : 0.0;
  const analysis::FailureReport failures =
      analysis::build_failure_report(run.town().dataset());
  const analysis::FailureCounts& fc = failures.counts;
  JsonRecord rec{bench_name};
  rec.integer("houses", s.cfg.houses)
      .integer("hours", hours_of(s.cfg))
      .integer("seed", s.cfg.seed)
      .integer("threads", s.cfg.threads)
      .integer("shards", s.cfg.shards)
      .text("faults", s.faults)
      .text("pack", s.cfg.pack)
      .text("transport", netsim::to_string(s.cfg.transport))
      .integer("encflows", encflows)
      .fixed("enc_classify_sec", run.enc_classify_sec, 3)
      .fixed("gen_sec", run.gen_sec, 3)
      .fixed("study_sec", run.study_sec, 3)
      .fixed("total_sec", total_sec, 3)
      .integer("conns", conns)
      .integer("dns", dns)
      .fixed("records_per_sec", records_per_sec, 0)
      .integer("failed_lookups", fc.unanswered + fc.servfail + fc.other_rcode)
      .integer("servfail", fc.servfail)
      .integer("retry_chains", fc.retry_chains)
      .integer("recovered_chains", fc.recovered_chains)
      .integer("failed_chains", fc.failed_chains)
      .integer("s0_conns", fc.s0_conns)
      .integer("peak_rss_bytes", peak_rss_bytes());
  if (obs::enabled()) rec.raw("metrics", obs::to_flat_json(obs::registry().snapshot()));
  rec.append_to(path);
}

/// Simulate + analyze, with a banner describing the run and wall-clock
/// timing for the generation and study halves.
[[nodiscard]] inline BenchRun run_default(const char* bench_name, int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  const BenchScale scale = parse_scale(argc, argv);
  if (scale.metrics) obs::set_enabled(true);
  std::printf("== %s — dnsctx reproduction of \"Putting DNS in Context\" (IMC'20) ==\n",
              bench_name);
  const std::string transport{netsim::to_string(scale.cfg.transport)};
  std::printf("scenario: %zu houses, %d h of traffic, seed %llu, %u thread(s), "
              "transport %s, pack %s (paper: ~100 houses, 7 days)\n",
              scale.cfg.houses, hours_of(scale.cfg),
              static_cast<unsigned long long>(scale.cfg.seed), scale.cfg.threads,
              transport.c_str(), scale.cfg.pack.c_str());
  BenchRun run;
  const auto t0 = Clock::now();
  run.town_ptr = std::make_unique<scenario::Town>(scale.cfg);
  run.town().run();
  const auto t1 = Clock::now();
  run.gen_sec = std::chrono::duration<double>(t1 - t0).count();
  const std::size_t conns = run.town().dataset().conns.size();
  const std::size_t dns = run.town().dataset().dns.size();
  std::printf("captured: %zu connections, %zu DNS transactions in %.2f s\n",
              conns, dns, run.gen_sec);

  analysis::StudyConfig study_cfg;
  study_cfg.threads = scale.cfg.threads;
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
