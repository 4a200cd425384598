// dnsctx — the command-line frontend.
//
//   dnsctx simulate --out DIR [--config FILE] [--pack FILE] [--houses N]
//                   [--hours H] [--seed S] [--start-hour H] [--shards N]
//                   [--threads N] [--faults SPEC] [--transport T]
//       Simulate a neighborhood and write conn.log / dns.log (plus a
//       scenario.conf snapshot) into DIR. --config and --pack read the
//       same key = value format (scenario/config_io.hpp): the config
//       first, then the pack over it, then the flags. --shards splits
//       the town into independent sub-towns (a scenario knob: each shard
//       has its own resolver platform caches); --threads only decides
//       how many workers execute them — output is identical for any
//       value.
//       --faults takes a deterministic impairment plan in the grammar of
//       docs/FAULTS.md (e.g. loss=0.01,outage=upstream1:600-900).
//
//   dnsctx analyze --dir DIR | (--conn FILE --dns FILE)
//                  [--section all|table1|table2|fig1|fig2|fig3|timeseries|perhouse|failures]
//                  [--baseline DIR] [--csv DIR] [--threads N]
//       Run the paper's pipeline over captured logs. --section failures
//       adds the retry/recovery report; --baseline DIR compares the
//       {N,LC,P,SC,R} shares against an unimpaired run's logs.
//
//   dnsctx sweep --key KEY --values a,b,c [--config FILE] [--pack FILE]
//                [simulate's scenario flags]
//       Re-simulate with config key KEY set to each value; print headline
//       shares. Every value is checked before the first run.
//
//   dnsctx validate [--config FILE] [--houses N] [--hours H] [--seed S]
//       Simulate and compare the passive inferences against ground truth.
//
//   dnsctx stream --spool DIR [--follow] | --import DIR --spool DIR
//                 | --export DIR --spool DIR
//                 | --spool DIR --push HOST:PORT --tenant NAME [--acks]
//       Streaming ingestion: run the bounded-memory online study over a
//       binary spool (optionally following a live writer), convert
//       between text logs and spools (--codec picks the block codec when
//       writing one; --export then --import re-encodes a spool), or push
//       the spool's segments to a running `dnsctx serve` over TCP.
//
//   dnsctx serve --listen HOST:PORT --http HOST:PORT [--max-tenants N]
//                [--idle-evict SECS] [--max-frame-mib N] [--results-out DIR]
//       Online telemetry server: accepts segment streams from producers
//       (`stream --push`), runs one OnlineStudy per tenant, and exposes
//       /metrics, /results/<tenant>, /healthz over HTTP. SIGINT/SIGTERM
//       shut down gracefully, flushing partial results (written to
//       --results-out when set). See docs/SERVE.md.
//
// Every subcommand rejects options it does not understand (exit 2 with
// usage) — a typo must not silently run a different experiment.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "analysis/encdns.hpp"
#include "analysis/export.hpp"
#include "analysis/failures.hpp"
#include "analysis/perhouse.hpp"
#include "analysis/report.hpp"
#include "analysis/timeseries.hpp"
#include "analysis/truth.hpp"
#include "capture/logio.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/config_io.hpp"
#include "serve/push.hpp"
#include "serve/server.hpp"
#include "stream/feed.hpp"
#include "stream/online_study.hpp"
#include "stream/segment_view.hpp"
#include "stream/spool.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace dnsctx;

void usage();

/// Strict option validation: unknown --options abort with usage.
[[nodiscard]] bool reject_unknown(const CliArgs& args, const char* cmd,
                                  const std::set<std::string>& known) {
  const auto unknown = args.unknown_keys(known);
  if (unknown.empty()) return false;
  for (const auto& key : unknown) {
    std::fprintf(stderr, "%s: unknown option --%s\n", cmd, key.c_str());
  }
  usage();
  return true;
}

const std::set<std::string> kSimOptions = {
    "config",  "houses", "hours",     "seed", "start-hour",  "shards",
    "threads", "faults", "transport", "pack", "metrics-out", "progress"};

/// Wall-clock progress reporter: prints to stderr (never stdout — golden
/// outputs must stay byte-identical) at most once per `interval_sec`.
class ProgressReporter {
 public:
  explicit ProgressReporter(long long interval_sec)
      : enabled_{interval_sec > 0},
        interval_{std::chrono::seconds{std::max(interval_sec, 0LL)}},
        last_{std::chrono::steady_clock::now()} {}

  /// Report `done/total` simulated time if the interval elapsed. The
  /// final tick (done == total) always prints, so even a run faster
  /// than one interval confirms completion.
  void tick(SimDuration done, SimDuration total) {
    if (!enabled_) return;
    const auto now = std::chrono::steady_clock::now();
    if (done < total && now - last_ < interval_) return;
    last_ = now;
    const double pct = total.count_us() > 0
                           ? 100.0 * static_cast<double>(done.count_us()) /
                                 static_cast<double>(total.count_us())
                           : 100.0;
    std::fprintf(stderr, "progress: simulated %s / %s (%.0f%%)\n",
                 to_string(done).c_str(), to_string(total).c_str(), pct);
  }

  /// Freeform progress line (streaming follow mode).
  void note(const char* fmt, unsigned long long a, unsigned long long b,
            unsigned long long c) {
    if (!enabled_) return;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_ < interval_) return;
    last_ = now;
    std::fprintf(stderr, fmt, a, b, c);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::duration interval_;
  std::chrono::steady_clock::time_point last_;
};

[[nodiscard]] std::set<std::string> with_sim_options(std::set<std::string> extra) {
  extra.insert(kSimOptions.begin(), kSimOptions.end());
  return extra;
}

[[nodiscard]] scenario::ScenarioConfig config_from_args(const CliArgs& args) {
  scenario::ScenarioConfig cfg;
  if (const auto file = args.option("config")) {
    cfg = scenario::load_config_file(*file);
  }
  // Pack after --config, before individual flags: a pack is a preset
  // the explicit flags can still override (--faults replaces the plan
  // wholesale).
  if (const auto pack = args.option("pack")) {
    scenario::apply_pack_file(*pack, &cfg);
  }
  scenario::set_flag_knobs(cfg, args);
  return cfg;
}

void print_fault_stats(const scenario::Town& town) {
  if (town.config().faults.empty()) return;
  const scenario::FaultStats fs = town.fault_stats();
  std::printf("injected faults: %llu packets dropped (%llu unobserved), %llu duplicated, "
              "%llu reordered,\n"
              "                 %llu SERVFAIL, %llu NXDOMAIN, %llu outage-dropped\n",
              static_cast<unsigned long long>(fs.packets_dropped),
              static_cast<unsigned long long>(fs.packets_dropped_unobserved),
              static_cast<unsigned long long>(fs.packets_duplicated),
              static_cast<unsigned long long>(fs.packets_reordered),
              static_cast<unsigned long long>(fs.servfail_injected),
              static_cast<unsigned long long>(fs.nxdomain_injected),
              static_cast<unsigned long long>(fs.outage_dropped));
}

/// Parse --codec none|lz into `cfg`. The flag only makes sense for modes
/// that WRITE a spool; when `writes_spool` is false any occurrence is a
/// hard error (exit 2), so a stray flag never silently changes nothing.
[[nodiscard]] bool spool_config_from_args(const CliArgs& args, const char* cmd,
                                          bool writes_spool, stream::SpoolConfig* cfg) {
  const auto codec = args.option("codec");
  if (!codec) return true;
  if (!writes_spool) {
    std::fprintf(stderr, "%s: --codec only applies when writing a spool\n", cmd);
    return false;
  }
  const auto parsed = stream::codec_by_name(*codec);
  if (!parsed) {
    std::fprintf(stderr, "%s: --codec expects none or lz, got '%s'\n", cmd, codec->c_str());
    return false;
  }
  cfg->codec = *parsed;
  return true;
}

int cmd_simulate(const CliArgs& args) {
  if (reject_unknown(args, "simulate",
                     with_sim_options({"out", "binary-logs", "codec"}))) {
    return 2;
  }
  stream::SpoolConfig spool_cfg;
  if (!spool_config_from_args(args, "simulate", args.has_flag("binary-logs"), &spool_cfg)) {
    return 2;
  }
  const auto out_dir = args.option("out");
  if (!out_dir) {
    std::fprintf(stderr, "simulate: --out DIR is required\n");
    return 2;
  }
  const auto cfg = config_from_args(args);
  std::filesystem::create_directories(*out_dir);

  std::printf("simulating %zu houses for %s (seed %llu)...\n", cfg.houses,
              to_string(cfg.duration).c_str(), static_cast<unsigned long long>(cfg.seed));
  scenario::Town town{cfg};

  ProgressReporter progress{args.int_option_or("progress", 0)};

  if (args.has_flag("binary-logs")) {
    // Stream straight to a binary spool: records leave the monitors
    // after every chunk, get time-sorted by the LiveFeed inside the open
    // reordering window, and land in rotating CRC'd segments. No text
    // logs and no in-memory Dataset are ever materialized.
    stream::SpoolWriter writer{*out_dir, spool_cfg};
    stream::LiveFeed feed{writer};
    town.attach_record_sink(&feed);
    const SimDuration chunk = SimDuration::min(5);
    for (SimDuration done; done < cfg.duration; done += chunk) {
      town.run_for(std::min(chunk, cfg.duration - done));
      feed.drain(town.record_watermark());
      progress.tick(std::min(done + chunk, cfg.duration), cfg.duration);
    }
    (void)town.harvest();  // flush still-open flows/lookups to the feed
    feed.close();
    writer.flush();
    town.publish_metrics();
    scenario::save_config_file(*out_dir + "/scenario.conf", cfg);
    std::printf("wrote %llu conns + %llu DNS transactions into %zu segments → %s\n",
                static_cast<unsigned long long>(writer.conns_written()),
                static_cast<unsigned long long>(writer.dns_written()),
                writer.segments_written(), out_dir->c_str());
    if (writer.encflows_written() > 0) {
      std::printf("wrote %llu encrypted-flow metadata records alongside\n",
                  static_cast<unsigned long long>(writer.encflows_written()));
    }
    std::printf("peak reorder buffer: %zu records\n", feed.peak_buffered());
    std::printf("wrote scenario snapshot → %s/scenario.conf\n", out_dir->c_str());
    print_fault_stats(town);
    return 0;
  }

  if (progress.enabled()) {
    // Chunked run: run_for() advances every shard to the same end time,
    // so N chunks dispatch the exact event sequence one run() would —
    // output stays byte-identical while progress lands on stderr.
    const SimDuration chunk = SimDuration::min(5);
    for (SimDuration done; done < cfg.duration; done += chunk) {
      town.run_for(std::min(chunk, cfg.duration - done));
      progress.tick(std::min(done + chunk, cfg.duration), cfg.duration);
    }
    town.run();  // duration already simulated; run() just harvests
  } else {
    town.run();
  }
  town.publish_metrics();

  const std::string conn_path = *out_dir + "/conn.log";
  const std::string dns_path = *out_dir + "/dns.log";
  capture::save_dataset(town.dataset(), conn_path, dns_path);
  scenario::save_config_file(*out_dir + "/scenario.conf", cfg);
  std::printf("wrote %zu conns → %s\n", town.dataset().conns.size(), conn_path.c_str());
  std::printf("wrote %zu DNS transactions → %s\n", town.dataset().dns.size(),
              dns_path.c_str());
  if (!town.dataset().encflows.empty()) {
    // Encrypted transports only: cleartext runs never create this file,
    // so classic output directories stay byte-identical.
    const std::string enc_path = *out_dir + "/encflow.log";
    std::ofstream enc_os{enc_path};
    if (!enc_os) {
      std::fprintf(stderr, "simulate: cannot open %s\n", enc_path.c_str());
      return 1;
    }
    capture::write_encflow_log(enc_os, town.dataset().encflows);
    std::printf("wrote %zu encrypted flows → %s\n", town.dataset().encflows.size(),
                enc_path.c_str());
  }
  std::printf("wrote scenario snapshot → %s/scenario.conf\n", out_dir->c_str());
  print_fault_stats(town);
  return 0;
}

int cmd_analyze(const CliArgs& args) {
  if (reject_unknown(args, "analyze",
                     {"dir", "conn", "dns", "section", "csv", "threads", "baseline",
                      "metrics-out"})) {
    return 2;
  }
  analysis::StudyConfig study_cfg;
  study_cfg.threads = static_cast<unsigned>(
      args.int_option_in("threads", 1, 0, std::numeric_limits<unsigned>::max()));
  std::string conn_path, dns_path;
  if (const auto dir = args.option("dir")) {
    conn_path = *dir + "/conn.log";
    dns_path = *dir + "/dns.log";
  } else {
    const auto conn = args.option("conn");
    const auto dns = args.option("dns");
    if (!conn || !dns) {
      std::fprintf(stderr, "analyze: need --dir DIR or both --conn FILE and --dns FILE\n");
      return 2;
    }
    conn_path = *conn;
    dns_path = *dns;
  }
  const capture::Dataset ds = capture::load_dataset(conn_path, dns_path);
  std::printf("loaded %zu conns, %zu DNS transactions\n\n", ds.conns.size(), ds.dns.size());

  const analysis::Study study = analysis::run_study(ds, study_cfg);
  const std::string section = args.option_or("section", "all");
  const bool all = section == "all";
  if (all || section == "table1") std::printf("%s\n", analysis::format_table1(study).c_str());
  if (all || section == "table2") {
    std::printf("%s\n", analysis::format_table2(study).c_str());
  }
  if (all || section == "fig1") std::printf("%s\n", analysis::format_fig1(study).c_str());
  if (all || section == "fig2") std::printf("%s\n", analysis::format_fig2(study).c_str());
  if (all || section == "fig3") std::printf("%s\n", analysis::format_fig3(study).c_str());
  if (all || section == "timeseries") {
    const auto ts = analysis::build_time_series(ds, &study.classified);
    std::printf("%s\n", analysis::format_time_series(ts).c_str());
  }
  if (all || section == "failures") {
    const analysis::FailureReport report = analysis::build_failure_report(ds);
    std::printf("%s\n", analysis::format_failure_report(report).c_str());
    if (const auto base = args.option("baseline")) {
      const capture::Dataset base_ds =
          capture::load_dataset(*base + "/conn.log", *base + "/dns.log");
      const analysis::Study base_study = analysis::run_study(base_ds, study_cfg);
      std::printf("%s\n",
                  analysis::format_class_shift(base_study.classified.counts,
                                               study.classified.counts)
                      .c_str());
    }
  }
  if (all || section == "perhouse") {
    const auto ph = analysis::analyze_per_house(ds, study.classified);
    const auto ci = analysis::bootstrap_table2_ci(ph);
    std::printf("per-house blocked share: p10 %.1f%%  p50 %.1f%%  p90 %.1f%%\n",
                ph.blocked_share.empty() ? 0.0 : 100.0 * ph.blocked_share.quantile(0.1),
                ph.blocked_share.empty() ? 0.0 : 100.0 * ph.blocked_share.median(),
                ph.blocked_share.empty() ? 0.0 : 100.0 * ph.blocked_share.quantile(0.9));
    std::printf("95%% bootstrap CI for LC share: [%.1f%%, %.1f%%]\n\n", 100.0 * ci.lc.lo,
                100.0 * ci.lc.hi);
  }
  if (const auto csv = args.option("csv")) {
    std::filesystem::create_directories(*csv);
    const auto files = analysis::export_study_csv(study, *csv);
    std::printf("exported %zu CSV series to %s\n", files, csv->c_str());
  }
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  if (reject_unknown(args, "sweep", with_sim_options({"key", "values"}))) return 2;
  const auto key = args.option("key");
  const auto values = args.option("values");
  if (!key || !values) {
    std::fprintf(stderr, "sweep: --key KEY and --values a,b,c are required\n");
    return 2;
  }
  const scenario::ScenarioConfig base = config_from_args(args);
  if (scenario::find_knob(*key) == nullptr) {
    throw std::runtime_error{"--key '" + *key + "' is not a config key"};
  }
  // Every value is set and checked before the first row prints.
  const auto list = split(*values, ',');
  std::vector<scenario::ScenarioConfig> runs;
  for (const auto value : list) {
    scenario::set_knob(runs.emplace_back(base), *key, value,
                       "--values '" + std::string{value} + "'");
  }

  std::printf("%-14s %10s %8s %7s %7s %7s %7s %7s %13s\n", key->c_str(), "conns", "N%",
              "LC%", "P%", "SC%", "R%", "block%", "significant%");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    scenario::Town town{runs[i]};
    town.run();
    const auto study = analysis::run_study(town.dataset());
    const auto& c = study.classified.counts;
    std::printf("%-14.*s %10zu %7.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %12.1f%%\n",
                static_cast<int>(list[i].size()), list[i].data(), town.dataset().conns.size(),
                100.0 * c.share(c.n), 100.0 * c.share(c.lc), 100.0 * c.share(c.p),
                100.0 * c.share(c.sc), 100.0 * c.share(c.r), 100.0 * c.share(c.blocked()),
                100.0 * study.performance.significant_overall);
  }
  return 0;
}

int cmd_validate(const CliArgs& args) {
  if (reject_unknown(args, "validate", with_sim_options({}))) return 2;
  auto cfg = config_from_args(args);
  // Validation is exactly where ground truth is wanted: ride the
  // TruthTap beside the monitor (observation-only, no RNG impact).
  cfg.collect_truth = true;
  std::printf("simulating %zu houses for %s...\n", cfg.houses,
              to_string(cfg.duration).c_str());
  scenario::Town town{cfg};
  town.run();
  town.publish_metrics();
  const auto study = analysis::run_study(town.dataset());
  const auto& truth = town.ground_truth();
  const auto& c = study.classified.counts;
  auto row = [](const char* what, double inferred, double actual) {
    const double err = actual > 0.0 ? 100.0 * (inferred - actual) / actual : 0.0;
    std::printf("  %-40s %12.0f %12.0f %+7.1f%%\n", what, inferred, actual, err);
  };
  std::printf("%-42s %12s %12s %8s\n", "inference", "inferred", "truth", "error");
  row("blocked connections (SC+R)", static_cast<double>(c.blocked()),
      static_cast<double>(truth.fetch_blocked));
  row("locally-served connections (LC+P)", static_cast<double>(c.lc + c.p),
      static_cast<double>(truth.fetch_cache_hits));
  row("DNS-less flows (N)", static_cast<double>(c.n),
      static_cast<double>(truth.no_dns_conns));

  // Per-connection taxonomy vs ground truth: the contingency table shows
  // exactly which classes collapse when the transport goes dark.
  const auto flows = town.truth_flows();
  const auto tc = analysis::compare_with_truth(town.dataset(), study.classified, flows);
  std::printf("\n%s", analysis::render_truth_report(tc).c_str());
  if (!town.dataset().encflows.empty()) {
    const auto confusion = analysis::evaluate_enc_classifier(
        town.dataset().encflows, town.resolver_service_addrs());
    std::printf("\n%s", analysis::render_enc_report(confusion).c_str());
  }
  return 0;
}

void print_online_result(const stream::OnlineStudyResult& r, const stream::OnlineStudy& engine) {
  const auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  std::printf("stream study over %llu conns, %llu DNS transactions\n\n",
              static_cast<unsigned long long>(r.conns), static_cast<unsigned long long>(r.dns));

  std::printf("pairing: %.1f%% of connections paired (%llu), %.1f%% via expired answers;\n",
              pct(r.pairing.paired, r.conns),
              static_cast<unsigned long long>(r.pairing.paired),
              pct(r.pairing.paired_expired, r.pairing.paired));
  std::printf("         %.1f%% had a unique candidate; %.1f%% of eligible lookups unused\n\n",
              100.0 * r.pairing.unique_candidate_frac(),
              100.0 * r.pairing.unused_lookup_frac());

  std::printf("Table 1 — resolver platform usage\n");
  std::printf("  %-12s %8s %9s %8s %8s\n", "platform", "houses%", "lookups%", "conns%",
              "bytes%");
  for (const auto& row : r.table1) {
    std::printf("  %-12s %7.1f%% %8.1f%% %7.1f%% %7.1f%%\n", row.platform.c_str(),
                row.pct_houses, row.pct_lookups, row.pct_conns, row.pct_bytes);
  }
  std::printf("  ISP-only houses: %.1f%%\n\n", 100.0 * r.isp_only_houses);

  const auto& c = r.classes;
  std::printf("Table 2 — connection classes\n");
  std::printf("  N %.1f%%  LC %.1f%%  P %.1f%%  SC %.1f%%  R %.1f%%  (blocked %.1f%%)\n\n",
              100.0 * c.share(c.n), 100.0 * c.share(c.lc), 100.0 * c.share(c.p),
              100.0 * c.share(c.sc), 100.0 * c.share(c.r), 100.0 * c.share(c.blocked()));

  std::printf("§6 significance quadrants (share of blocked connections)\n");
  std::printf("  insignificant %.1f%%  relative-only %.1f%%  absolute-only %.1f%%  "
              "both %.1f%%  (significant overall: %.1f%%)\n\n",
              100.0 * r.quadrants.insignificant_both, 100.0 * r.quadrants.relative_only,
              100.0 * r.quadrants.absolute_only, 100.0 * r.quadrants.significant_both,
              100.0 * r.quadrants.significant_overall);

  std::printf("§7 per-platform blocked lookups\n");
  for (const auto& p : r.platforms) {
    std::printf("  %-12s cache-hit %.1f%%  conncheck %.1f%% of %llu conns\n",
                p.platform.c_str(), 100.0 * p.hit_rate(), 100.0 * p.conncheck_frac(),
                static_cast<unsigned long long>(p.total_conns));
  }

  analysis::FailureReport failure_report;
  failure_report.counts = r.failures;
  std::printf("\n%s", analysis::format_failure_report(failure_report).c_str());

  std::printf("\nactive state at finish: %llu DNS candidates, %llu records, %zu houses\n",
              static_cast<unsigned long long>(engine.active_candidates()),
              static_cast<unsigned long long>(engine.active_records()),
              engine.tracked_houses());
}

/// Split "HOST:PORT" at the last colon. Returns false on malformed input.
[[nodiscard]] bool parse_hostport(const std::string& spec, std::string* host,
                                  std::uint16_t* port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) return false;
  const long long p = std::atoll(spec.c_str() + colon + 1);
  if (p < 0 || p > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

[[nodiscard]] std::string read_file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{strfmt("stream: cannot read %s", path.c_str())};
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Parse the segment header `path` starts with; throws naming `path`.
void check_segment_header(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::string head(stream::kSegmentHeaderBytes, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(in.gcount()));
  (void)stream::parse_segment_header(head, path);
}

int cmd_stream(const CliArgs& args) {
  if (reject_unknown(args, "stream",
                     {"spool", "import", "export", "codec",
                      "follow", "idle-exit", "poll-ms", "push", "tenant", "acks",
                      "metrics-out", "progress"})) {
    return 2;
  }
  const auto spool = args.option("spool");
  if (!spool) {
    std::fprintf(stderr, "stream: --spool DIR is required\n");
    return 2;
  }
  stream::SpoolConfig spool_cfg;
  if (!spool_config_from_args(args, "stream", args.option("import").has_value(), &spool_cfg)) {
    return 2;
  }
  if (const auto push = args.option("push")) {
    std::string host;
    std::uint16_t port = 0;
    if (!parse_hostport(*push, &host, &port)) {
      std::fprintf(stderr, "stream: --push expects HOST:PORT, got '%s'\n", push->c_str());
      return 2;
    }
    const auto tenant = args.option("tenant");
    if (!tenant || !serve::valid_tenant_name(*tenant)) {
      std::fprintf(stderr, "stream: --push requires --tenant NAME ([A-Za-z0-9._-]{1,64})\n");
      return 2;
    }
    const bool acks = args.has_flag("acks");
    const auto listing = stream::list_spool(*spool);
    const auto kinds = {&listing.conn_segments, &listing.dns_segments, &listing.enc_segments};
    // Without --acks nothing is read back, so a segment the server
    // refuses would fail only on its side. Check every header before
    // connecting: an old spool fails here, and nothing is sent.
    for (const auto* paths : kinds) {
      for (const auto& path : *paths) check_segment_header(path);
    }
    serve::PushClient client{host, port, serve::Handshake{*tenant, acks}};
    std::size_t segments = 0;
    std::uint64_t last_ack = 0;
    for (const auto* paths : kinds) {
      for (const auto& path : *paths) {
        client.send_segment(read_file_bytes(path));
        ++segments;
        if (acks) last_ack = client.read_ack();
      }
    }
    client.flush();
    if (acks) last_ack = client.read_ack();
    std::printf("pushed %zu segments (%llu bytes) to %s as tenant '%s'",
                segments, static_cast<unsigned long long>(client.bytes_sent()),
                push->c_str(), tenant->c_str());
    if (acks) {
      std::printf("; server released %llu records", static_cast<unsigned long long>(last_ack));
    }
    std::printf("\n");
    return 0;
  }
  if (const auto text = args.option("import")) {
    std::filesystem::create_directories(*spool);
    const auto counts = stream::text_to_spool(*text, *spool, spool_cfg);
    std::printf("imported %llu conns + %llu DNS transactions: %s → %s\n",
                static_cast<unsigned long long>(counts.conns),
                static_cast<unsigned long long>(counts.dns), text->c_str(), spool->c_str());
    return 0;
  }
  if (const auto text = args.option("export")) {
    std::filesystem::create_directories(*text);
    const auto counts = stream::spool_to_text(*spool, *text);
    std::printf("exported %llu conns + %llu DNS transactions: %s → %s\n",
                static_cast<unsigned long long>(counts.conns),
                static_cast<unsigned long long>(counts.dns), spool->c_str(), text->c_str());
    return 0;
  }

  stream::OnlineStudy engine;
  if (args.has_flag("follow")) {
    // Tail a spool a live writer is still appending to: poll for newly
    // finished segments and hand each to a SegmentFeed, which releases
    // records as the segments' watermark allows. Exit after --idle-exit
    // polls with no new segments.
    const long long poll_ms = args.int_option_in("poll-ms", 200, 0);
    const long long idle_exit = args.int_option_in("idle-exit", 5, 1);
    ProgressReporter progress{args.int_option_or("progress", 0)};
    stream::SegmentFeed feed{engine};
    std::set<std::string> seen;
    std::uint64_t conns = 0, dns = 0;
    std::size_t segments = 0;
    for (long long idle = 0; idle < idle_exit;) {
      const auto listing = stream::list_spool(*spool);
      bool progressed = false;
      for (const auto* paths :
           {&listing.conn_segments, &listing.dns_segments, &listing.enc_segments}) {
        for (const auto& path : *paths) {
          if (!seen.insert(path).second) continue;
          // Zero-copy: the segment stays mmap'd while its records stream
          // into the feed; nothing is materialized per record.
          stream::SegmentView view = stream::SegmentView::map_file(path);
          const stream::SegmentHeader& h = view.header();
          if (h.kind == stream::RecordKind::kConn) {
            conns += h.record_count;
          } else if (h.kind == stream::RecordKind::kDns) {
            dns += h.record_count;
          }
          feed.push(view);
          ++segments;
          progressed = true;
        }
      }
      progress.note("progress: %llu segments, %llu conns, %llu DNS transactions\n",
                    static_cast<unsigned long long>(segments),
                    static_cast<unsigned long long>(conns),
                    static_cast<unsigned long long>(dns));
      if (progressed) {
        idle = 0;
      } else if (++idle < idle_exit) {
        std::this_thread::sleep_for(std::chrono::milliseconds{poll_ms});
      }
    }
    feed.close();
    std::printf("followed %zu segments: %llu conns + %llu DNS transactions "
                "(peak reorder buffer %zu records)\n\n",
                segments, static_cast<unsigned long long>(conns),
                static_cast<unsigned long long>(dns), feed.peak_buffered());
  } else {
    const auto counts = stream::replay_spool(*spool, engine);
    std::printf("replayed %llu conns + %llu DNS transactions from %s\n\n",
                static_cast<unsigned long long>(counts.conns),
                static_cast<unsigned long long>(counts.dns), spool->c_str());
  }
  print_online_result(engine.finalize(), engine);
  return 0;
}

int cmd_serve(const CliArgs& args) {
  if (reject_unknown(args, "serve",
                     {"listen", "http", "max-tenants", "idle-evict", "max-frame-mib",
                      "results-out", "metrics-out", "progress"})) {
    return 2;
  }
  serve::ServeConfig cfg;
  cfg.tenant.max_tenants = static_cast<std::size_t>(args.int_option_in("max-tenants", 64, 1));
  // A billion seconds (about 32 years) keeps the millisecond count far
  // from overflow.
  cfg.tenant.idle_evict =
      std::chrono::seconds{args.int_option_in("idle-evict", 0, 0, 1'000'000'000)};
  // The frame length is a u32 on the wire.
  cfg.max_frame_bytes =
      static_cast<std::size_t>(args.int_option_in("max-frame-mib", 16, 1, 4095)) << 20;
  const auto listen = args.option("listen");
  const auto http = args.option("http");
  if (!listen || !parse_hostport(*listen, &cfg.ingest_host, &cfg.ingest_port)) {
    std::fprintf(stderr, "serve: --listen HOST:PORT is required\n");
    return 2;
  }
  if (!http || !parse_hostport(*http, &cfg.http_host, &cfg.http_port)) {
    std::fprintf(stderr, "serve: --http HOST:PORT is required\n");
    return 2;
  }
  if (const auto dir = args.option("results-out")) {
    std::filesystem::create_directories(*dir);
    cfg.results_dir = *dir;
  }

  // The /metrics endpoint is part of the server's contract, so the
  // registry is always on here (elsewhere it needs --metrics-out).
  obs::set_enabled(true);

  serve::EventLoop loop;
  serve::Server server{loop, cfg};
  server.start();
  loop.watch_signals([] { std::fprintf(stderr, "serve: signal received, shutting down\n"); });
  std::fprintf(stderr, "serve: ingest on %s:%u, http on %s:%u\n", cfg.ingest_host.c_str(),
               server.ingest_port(), cfg.http_host.c_str(), server.http_port());
  loop.run();
  server.finish();

  const auto& st = server.stats();
  std::printf("served %llu connections, %llu frames (%llu records) across %zu tenants; "
              "%llu http requests, %llu protocol errors\n",
              static_cast<unsigned long long>(st.connections_accepted),
              static_cast<unsigned long long>(st.frames),
              static_cast<unsigned long long>(st.records_ingested), server.tenants().size(),
              static_cast<unsigned long long>(st.http_requests),
              static_cast<unsigned long long>(st.connections_errored));
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: dnsctx <simulate|analyze|sweep|validate|stream|serve> [options]\n"
               "  simulate --out DIR [--config F] [--pack F] [--houses N] [--hours H]\n"
               "           [--seed S] [--shards N] [--threads N] [--binary-logs]\n"
               "           [--faults SPEC]  (e.g. loss=0.01,outage=upstream1:600-900)\n"
               "           [--transport do53|dot|doh|resolverless]\n"
               "  analyze  --dir DIR | (--conn F --dns F) [--section S] [--csv DIR]\n"
               "           [--threads N] [--baseline DIR]\n"
               "  sweep    --key K --values a,b,c [--config F] [--pack F] [--houses N]\n"
               "           [--hours H] [--seed S] [--shards N] [--transport T] ...\n"
               "           (K is a config key; --config and --pack files are\n"
               "           key = value lines, see examples/scenarios and packs)\n"
               "  validate [--config F] [--pack F] [--houses N] [--hours H] [--seed S]\n"
               "           [--shards N] [--threads N] [--transport T]\n"
               "           (prints truth-vs-inferred taxonomy + encrypted-flow\n"
               "           classifier confusion when the transport is encrypted)\n"
               "  stream   --spool DIR [--follow [--idle-exit N] [--poll-ms MS]]\n"
               "           | --import TEXTDIR --spool DIR | --export TEXTDIR --spool DIR\n"
               "           | --spool DIR --push HOST:PORT --tenant NAME [--acks]\n"
               "           [--codec none|lz]  (spool-writing modes: --import;\n"
               "           also simulate --binary-logs)\n"
               "  serve    --listen HOST:PORT --http HOST:PORT [--max-tenants N]\n"
               "           [--idle-evict SECS] [--max-frame-mib N] [--results-out DIR]\n"
               "  every command also accepts:\n"
               "    --metrics-out FILE   enable metrics; write a scrape on exit\n"
               "                         (.json extension -> JSON, else Prometheus text)\n"
               "    --progress SECS      periodic progress lines on stderr\n"
               "                         (simulate and stream --follow)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const CliArgs args =
      parse_cli(std::span<const char* const>{const_cast<const char* const*>(argv) + 2,
                                             static_cast<std::size_t>(argc - 2)});
  const std::string command = argv[1];
  // Metrics stay disabled (one relaxed load on every hot-path check)
  // unless a scrape destination was requested.
  const auto metrics_out = args.option("metrics-out");
  if (metrics_out) obs::set_enabled(true);
  const auto finish = [&](int rc) {
    if (metrics_out) obs::write_metrics_file(*metrics_out);
    return rc;
  };
  try {
    if (command == "simulate") return finish(cmd_simulate(args));
    if (command == "analyze") return finish(cmd_analyze(args));
    if (command == "sweep") return finish(cmd_sweep(args));
    if (command == "validate") return finish(cmd_validate(args));
    if (command == "stream") return finish(cmd_stream(args));
    if (command == "serve") return finish(cmd_serve(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  usage();
  return 2;
}
