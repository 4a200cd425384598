// dnsctx — streaming ingestion bench: online study vs batch pipeline.
//
// Simulates the neighborhood straight into a binary spool (no in-memory
// dataset), then runs the bounded-memory OnlineStudy and the batch
// run_study over the same spool — each in a RE-EXECUTED child process,
// so every phase gets its own ru_maxrss high-water mark instead of
// inheriting the simulation's. The parent compares throughput, peak RSS,
// and the N/LC/P/SC/R counts (which must MATCH — the determinism
// contract). Streaming RSS tracks the active window, so it stays flat as
// the trace lengthens while the batch path grows with the record count:
//
//   bench_stream --houses 10 --hours 12 ...   vs   --hours 48
//
//   bench_stream [--houses N] [--hours H] [--seed S] [--shards N]
//                [--spool DIR] [--json PATH]
#include <chrono>
#include <filesystem>

#include "bench_common.hpp"
#include "stream/feed.hpp"
#include "stream/online_study.hpp"
#include "stream/spool.hpp"

namespace {

using namespace dnsctx;
using Clock = std::chrono::steady_clock;

struct StreamScale {
  scenario::ScenarioConfig cfg;  ///< --houses/--hours/--seed/--shards via the knob table
  std::string spool_dir = "bench_stream.spool";
  std::string json_path;
  std::string phase;  ///< internal: "stream" / "batch" child mode
};

StreamScale parse_args(int argc, char** argv) {
  StreamScale s;
  s.cfg.duration = SimDuration::hours(6);
  const CliArgs args = bench::parse_bench_args(
      argc, argv, {"houses", "hours", "seed", "shards", "spool", "json", "phase"}, {}, 0,
      [&s](const CliArgs& a) { scenario::set_flag_knobs(s.cfg, a); });
  s.spool_dir = args.option_or("spool", s.spool_dir);
  s.json_path = bench::json_path_from(args);
  s.phase = args.option_or("phase", "");
  return s;
}

/// Collects replayed records back into a Dataset for the batch phase.
struct DatasetCollector final : capture::RecordSink {
  capture::Dataset ds;
  void on_conn(const capture::ConnRecord& rec) override { ds.conns.push_back(rec); }
  void on_dns(const capture::DnsRecord& rec) override { ds.dns.push_back(rec); }
};

/// One study phase's numbers, as passed parent ← child over stdout.
struct PhaseResult {
  double sec = 0.0;
  std::uint64_t rss = 0;
  std::uint64_t n = 0, lc = 0, p = 0, sc = 0, r = 0;
  std::uint64_t conns = 0, dns = 0;
  std::uint64_t active_candidates = 0, active_records = 0;
};

constexpr const char* kResultFmt =
    "RESULT sec=%lf rss=%llu n=%llu lc=%llu p=%llu sc=%llu r=%llu conns=%llu dns=%llu "
    "cand=%llu recs=%llu\n";

void print_result(const PhaseResult& r) {
  std::printf(kResultFmt, r.sec, static_cast<unsigned long long>(r.rss),
              static_cast<unsigned long long>(r.n), static_cast<unsigned long long>(r.lc),
              static_cast<unsigned long long>(r.p), static_cast<unsigned long long>(r.sc),
              static_cast<unsigned long long>(r.r),
              static_cast<unsigned long long>(r.conns),
              static_cast<unsigned long long>(r.dns),
              static_cast<unsigned long long>(r.active_candidates),
              static_cast<unsigned long long>(r.active_records));
}

int run_phase(const StreamScale& scale) {
  const auto t0 = Clock::now();
  PhaseResult out;
  if (scale.phase == "stream") {
    stream::OnlineStudy engine;
    const auto counts = stream::replay_spool(scale.spool_dir, engine);
    const auto result = engine.finalize();
    out.n = result.classes.n;
    out.lc = result.classes.lc;
    out.p = result.classes.p;
    out.sc = result.classes.sc;
    out.r = result.classes.r;
    out.conns = counts.conns;
    out.dns = counts.dns;
    out.active_candidates = engine.active_candidates();
    out.active_records = engine.active_records();
  } else if (scale.phase == "batch") {
    DatasetCollector collector;
    const auto counts = stream::replay_spool(scale.spool_dir, collector);
    const auto study = analysis::run_study(collector.ds);
    out.n = study.classified.counts.n;
    out.lc = study.classified.counts.lc;
    out.p = study.classified.counts.p;
    out.sc = study.classified.counts.sc;
    out.r = study.classified.counts.r;
    out.conns = counts.conns;
    out.dns = counts.dns;
  } else {
    std::fprintf(stderr, "bench_stream: unknown --phase %s\n", scale.phase.c_str());
    return 2;
  }
  out.sec = std::chrono::duration<double>(Clock::now() - t0).count();
  out.rss = bench::peak_rss_bytes();
  print_result(out);
  return 0;
}

/// Re-run this binary as `--phase <name>` and parse its RESULT line.
[[nodiscard]] bool run_child(const char* phase, const std::string& spool_dir,
                             PhaseResult& out) {
  std::string exe = "/proc/self/exe";
  std::error_code ec;
  if (const auto resolved = std::filesystem::read_symlink(exe, ec); !ec) {
    exe = resolved.string();
  }
  const std::string cmd = exe + " --phase " + phase + " --spool '" + spool_dir + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "bench_stream: cannot spawn %s\n", cmd.c_str());
    return false;
  }
  bool parsed = false;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    unsigned long long v[10];
    if (std::sscanf(line, kResultFmt, &out.sec, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                    &v[6], &v[7], &v[8], &v[9]) == 11) {
      out.rss = v[0];
      out.n = v[1];
      out.lc = v[2];
      out.p = v[3];
      out.sc = v[4];
      out.r = v[5];
      out.conns = v[6];
      out.dns = v[7];
      out.active_candidates = v[8];
      out.active_records = v[9];
      parsed = true;
    } else {
      std::fputs(line, stderr);  // forward child diagnostics
    }
  }
  return pclose(pipe) == 0 && parsed;
}

}  // namespace

int main(int argc, char** argv) {
  const StreamScale scale = parse_args(argc, argv);
  if (!scale.phase.empty()) return run_phase(scale);

  std::printf("== bench_stream — streaming ingestion vs batch pipeline ==\n");
  const scenario::ScenarioConfig& cfg = scale.cfg;
  std::printf("scenario: %zu houses, %d h of traffic, seed %llu, %zu shard(s)\n",
              cfg.houses, bench::hours_of(cfg), static_cast<unsigned long long>(cfg.seed),
              cfg.shards);

  // Phase 1: simulate straight into the spool — no dataset materialized.
  std::filesystem::remove_all(scale.spool_dir);
  std::filesystem::create_directories(scale.spool_dir);
  const auto t0 = Clock::now();
  std::uint64_t conns = 0, dns = 0;
  std::size_t peak_reorder = 0;
  {
    scenario::Town town{cfg};
    stream::SpoolWriter writer{scale.spool_dir};
    stream::LiveFeed feed{writer};
    town.attach_record_sink(&feed);
    const SimDuration chunk = SimDuration::min(5);
    for (SimDuration done; done < cfg.duration; done += chunk) {
      town.run_for(std::min(chunk, cfg.duration - done));
      feed.drain(town.record_watermark());
    }
    (void)town.harvest();
    feed.close();
    writer.flush();
    conns = writer.conns_written();
    dns = writer.dns_written();
    peak_reorder = feed.peak_buffered();
  }
  const double gen_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t total = conns + dns;
  std::printf("captured: %llu conns + %llu DNS transactions into spool in %.2f s "
              "(peak reorder buffer %zu records)\n",
              static_cast<unsigned long long>(conns), static_cast<unsigned long long>(dns),
              gen_sec, peak_reorder);

  const std::uint64_t spool_sz = stream::spool_bytes(scale.spool_dir);
  std::printf("spool: %.2f MiB on disk (%.1f bytes/record)\n",
              static_cast<double>(spool_sz) / (1024.0 * 1024.0),
              total > 0 ? static_cast<double>(spool_sz) / static_cast<double>(total) : 0.0);

  // Import: the spool round-tripped through the text logs, timing the
  // text → spool direction (what `dnsctx stream --import` runs).
  const std::string text_dir = scale.spool_dir + ".text";
  const std::string import_dir = scale.spool_dir + ".import";
  std::filesystem::remove_all(text_dir);
  std::filesystem::remove_all(import_dir);
  (void)stream::spool_to_text(scale.spool_dir, text_dir);
  const auto ti0 = Clock::now();
  const auto imported = stream::text_to_spool(text_dir, import_dir);
  const double import_sec = std::chrono::duration<double>(Clock::now() - ti0).count();
  const std::uint64_t import_total = imported.conns + imported.dns;
  std::filesystem::remove_all(text_dir);
  std::filesystem::remove_all(import_dir);
  const double import_rps =
      import_sec > 0.0 ? static_cast<double>(import_total) / import_sec : 0.0;
  std::printf("import: %llu records text -> spool in %.2f s — %.0f records/s\n",
              static_cast<unsigned long long>(import_total), import_sec, import_rps);

  // Phases 2 + 3: each study in its own process, own RSS high-water.
  PhaseResult stream_r, batch_r;
  if (!run_child("stream", scale.spool_dir, stream_r) ||
      !run_child("batch", scale.spool_dir, batch_r)) {
    std::fprintf(stderr, "bench_stream: child phase failed\n");
    return 1;
  }
  std::printf("streaming study: %.2f s — %.0f records/s, peak RSS %.1f MiB, "
              "active window %llu candidates / %llu records\n",
              stream_r.sec,
              stream_r.sec > 0.0 ? static_cast<double>(total) / stream_r.sec : 0.0,
              static_cast<double>(stream_r.rss) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(stream_r.active_candidates),
              static_cast<unsigned long long>(stream_r.active_records));
  std::printf("batch study:     %.2f s — %.0f records/s (load + run_study), "
              "peak RSS %.1f MiB\n",
              batch_r.sec, batch_r.sec > 0.0 ? static_cast<double>(total) / batch_r.sec : 0.0,
              static_cast<double>(batch_r.rss) / (1024.0 * 1024.0));

  const bool match = stream_r.n == batch_r.n && stream_r.lc == batch_r.lc &&
                     stream_r.p == batch_r.p && stream_r.sc == batch_r.sc &&
                     stream_r.r == batch_r.r && stream_r.conns == conns &&
                     batch_r.conns == conns;
  std::printf("equivalence: N/LC/P/SC/R %s (stream %llu/%llu/%llu/%llu/%llu)\n",
              match ? "MATCH" : "MISMATCH", static_cast<unsigned long long>(stream_r.n),
              static_cast<unsigned long long>(stream_r.lc),
              static_cast<unsigned long long>(stream_r.p),
              static_cast<unsigned long long>(stream_r.sc),
              static_cast<unsigned long long>(stream_r.r));

  if (!scale.json_path.empty()) {
    bench::JsonRecord{"bench_stream"}
        .integer("houses", cfg.houses)
        .integer("hours", bench::hours_of(cfg))
        .integer("seed", cfg.seed)
        .integer("shards", cfg.shards)
        .fixed("gen_sec", gen_sec, 3)
        .fixed("stream_sec", stream_r.sec, 3)
        .fixed("batch_sec", batch_r.sec, 3)
        .integer("conns", conns)
        .integer("dns", dns)
        .fixed("stream_records_per_sec",
               stream_r.sec > 0.0 ? static_cast<double>(total) / stream_r.sec : 0.0, 0)
        .fixed("batch_records_per_sec",
               batch_r.sec > 0.0 ? static_cast<double>(total) / batch_r.sec : 0.0, 0)
        .integer("peak_rss_bytes", std::max(stream_r.rss, batch_r.rss))
        .integer("stream_peak_rss_bytes", stream_r.rss)
        .integer("batch_peak_rss_bytes", batch_r.rss)
        .integer("peak_reorder_records", peak_reorder)
        .integer("active_candidates", stream_r.active_candidates)
        .integer("active_records", stream_r.active_records)
        .integer("spool_bytes", spool_sz)
        .fixed("import_sec", import_sec, 3)
        .fixed("import_records_per_sec", import_rps, 0)
        .flag("match", match)
        .append_to(scale.json_path);
  }

  std::filesystem::remove_all(scale.spool_dir);
  return match ? 0 : 1;
}
