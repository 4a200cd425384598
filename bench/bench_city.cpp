// dnsctx — city-scale simulation bench: many houses, bounded memory.
//
// The paper's corpus is a ~100-house neighborhood; this bench pushes the
// engine to city scale (default 10,000 houses) to exercise the calendar
// event queue, the per-shard packet arenas, and lazy DNS encoding under
// load. Records stream into a counting sink one simulated minute at a
// time — no dataset is ever materialized — so resident memory is bounded
// by the simulation's working set (pending events, open flows, resolver
// caches), not by the record count.
//
//   bench_city [--houses N] [--hours H] [--seed S] [--shards N]
//              [--threads N] [--pack FILE] [--max-rss-mib M] [--json PATH]
//
// `--threads N` (default 1, 0 = hardware concurrency) only sets how many
// workers execute the shards: for a fixed `--shards` the records are the
// same for every N, so it is the knob for shard-scaling curves.
//
// `--pack FILE` loads a scenario pack (examples/packs/, config keys with
// a required `pack = NAME`) so the city runs heterogeneous,
// non-web-centric load — the record key in the JSON line carries the
// pack name ("default" without one), keeping default baselines distinct.
//
// `--max-rss-mib M` turns the bench into a pass/fail memory check: the
// process exits nonzero if peak RSS exceeds M MiB (the CI perf-smoke job
// runs 500 houses under such a bound). `--json PATH` appends a one-line
// timing record compatible with tools/bench_compare.py.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "capture/records.hpp"

namespace {

using namespace dnsctx;
using Clock = std::chrono::steady_clock;

struct CityScale {
  scenario::ScenarioConfig cfg;   ///< --pack, then the scale flags, via the knob table
  std::uint64_t max_rss_mib = 0;  ///< 0 = report only, no bound asserted
  std::string json_path;
};

CityScale parse_args(int argc, char** argv) {
  CityScale s;
  s.cfg.houses = 10'000;
  s.cfg.duration = SimDuration::hours(1);
  const CliArgs args = bench::parse_bench_args(
      argc, argv, {"houses", "hours", "seed", "shards", "threads", "pack", "max-rss-mib", "json"},
      {}, 0, [&s](const CliArgs& a) {
        if (const auto pack = a.option("pack")) scenario::apply_pack_file(*pack, &s.cfg);
        scenario::set_flag_knobs(s.cfg, a);
        const long long mib = a.int_option_or("max-rss-mib", 0);
        if (mib < 0) throw std::runtime_error{"--max-rss-mib must be >= 0"};
        s.max_rss_mib = static_cast<std::uint64_t>(mib);
      });
  s.json_path = bench::json_path_from(args);
  return s;
}

/// Tallies finalized records without holding them: city-scale runs must
/// not accumulate per-record memory.
struct CountingSink final : capture::RecordSink {
  std::uint64_t conns = 0;
  std::uint64_t dns = 0;
  void on_conn(const capture::ConnRecord&) override { ++conns; }
  void on_dns(const capture::DnsRecord&) override { ++dns; }
};

}  // namespace

int main(int argc, char** argv) {
  const CityScale scale = parse_args(argc, argv);
  const scenario::ScenarioConfig& cfg = scale.cfg;
  std::printf("== bench_city — city-scale simulation, streaming capture ==\n");
  std::printf("scenario: %zu houses, %d h of traffic, seed %llu, %zu shard(s) on %u "
              "thread(s), pack %s\n",
              cfg.houses, bench::hours_of(cfg), static_cast<unsigned long long>(cfg.seed),
              cfg.shards, cfg.threads, cfg.pack.c_str());

  CountingSink sink;
  const auto t0 = Clock::now();
  double build_sec = 0.0;
  {
    scenario::Town town{cfg};
    build_sec = std::chrono::duration<double>(Clock::now() - t0).count();
    town.attach_record_sink(&sink);
    // One-minute chunks: each run_for() buffers its records per shard
    // until it returns, so the chunk bounds that memory. A progress line
    // per simulated hour keeps long runs observable.
    for (int hour = 1; hour <= bench::hours_of(cfg); ++hour) {
      for (int minute = 0; minute < 60; ++minute) town.run_for(SimDuration::min(1));
      std::printf("  t=%5.1f h  %llu conns + %llu dns streamed, peak RSS %.0f MiB\n",
                  static_cast<double>(hour), static_cast<unsigned long long>(sink.conns),
                  static_cast<unsigned long long>(sink.dns),
                  static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0));
    }
    (void)town.harvest();  // flush still-open flows/transactions to the sink
  }
  const double gen_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t records = sink.conns + sink.dns;
  const std::uint64_t rss = bench::peak_rss_bytes();
  const double rss_mib = static_cast<double>(rss) / (1024.0 * 1024.0);
  std::printf("captured: %llu conns + %llu DNS transactions in %.2f s "
              "(%.1f s building the town) — %.0f records/s\n",
              static_cast<unsigned long long>(sink.conns),
              static_cast<unsigned long long>(sink.dns), gen_sec, build_sec,
              gen_sec > 0.0 ? static_cast<double>(records) / gen_sec : 0.0);
  std::printf("peak RSS: %.1f MiB (%.1f KiB per house)\n", rss_mib,
              static_cast<double>(rss) / 1024.0 / static_cast<double>(cfg.houses));

  const bool within_bound = scale.max_rss_mib == 0 || rss_mib <= static_cast<double>(scale.max_rss_mib);
  if (scale.max_rss_mib != 0) {
    std::printf("rss bound: %.1f MiB %s limit of %llu MiB\n", rss_mib,
                within_bound ? "within" : "EXCEEDS",
                static_cast<unsigned long long>(scale.max_rss_mib));
  }

  if (!scale.json_path.empty()) {
    bench::JsonRecord{"bench_city"}
        .integer("houses", cfg.houses)
        .integer("hours", bench::hours_of(cfg))
        .integer("seed", cfg.seed)
        .integer("threads", cfg.threads)
        .integer("shards", cfg.shards)
        .text("pack", cfg.pack)
        .fixed("gen_sec", gen_sec, 3)
        .fixed("build_sec", build_sec, 3)
        .integer("conns", sink.conns)
        .integer("dns", sink.dns)
        .fixed("records_per_sec",
               gen_sec > 0.0 ? static_cast<double>(records) / gen_sec : 0.0, 0)
        .integer("peak_rss_bytes", rss)
        .integer("rss_limit_mib", scale.max_rss_mib)
        .flag("within_rss_bound", within_bound)
        .append_to(scale.json_path);
  }
  return within_bound ? 0 : 1;
}
