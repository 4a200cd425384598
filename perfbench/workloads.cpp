#include "workloads.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <variant>

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include "analysis/study.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "serve/ingest.hpp"
#include "serve/push.hpp"
#include "serve/server.hpp"
#include "serve/sockets.hpp"
#include "serve/tenant.hpp"
#include "stream/feed.hpp"
#include "stream/online_study.hpp"
#include "stream/spool.hpp"

namespace perfbench {

namespace {

using namespace dnsctx;
namespace fs = std::filesystem;

// ---- fixed workload sizes ---------------------------------------------------
// The benchmark's contract: changing any of these changes what every
// metric means, so they are constants, not flags.

constexpr std::size_t kNeighborhoodHouses = 80;
constexpr int kNeighborhoodMinutes = 120;

constexpr std::size_t kCityHouses = 2000;
constexpr int kCityMinutes = 5;
constexpr std::size_t kCityShards = 4;
constexpr unsigned kCityThreads = 4;

constexpr std::size_t kSpoolHouses = 40;
constexpr int kSpoolMinutes = 240;

constexpr std::size_t kServeHouses = 40;
constexpr int kServeMinutes = 180;
constexpr std::size_t kSegmentRecords = 512;
/// Open-loop offered rate: about half the closed-loop capacity measured on
/// a 4-core x86-64 host when the benchmark was defined (~750 k records/s,
/// i.e. ~1460 frames/s of 512 records). Fixed so the offered load never
/// depends on the code under test.
constexpr double kOpenLoopFramesPerS = 700.0;
/// Open-loop latency needs 1000 samples for p99 to leave 10 beyond it.
constexpr std::size_t kMinLatencySamples = 1000;

/// Repetitions run even when the time budget is already spent: the
/// warm-up and three counted ones.
constexpr std::size_t kMinRepetitions = 4;

/// Simulation set-ups per run for the workloads whose simulation is
/// set-up (spool, serve); setup_s is their median.
constexpr std::size_t kSetups = 3;

/// The DNS name universe (sites, CDNs, popularity) is the same for every
/// seed; the seed varies the households and their traffic. A per-seed
/// universe moves throughput and memory by ~10 % between seeds, which
/// would drown the effects the benchmark is meant to resolve.
constexpr std::uint64_t kZoneSeed = 2020;

const std::vector<std::string> kPlatforms = {"Local", "Google", "OpenDNS", "Cloudflare"};

// ---- metric tables ----------------------------------------------------------

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"records_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

std::vector<MetricDef> build_per_layer() {
  std::vector<MetricDef> v = {
      {"scenario.build_s", "s"},
      {"scenario.cores_busy", "cores"},
      {"scenario.rss_kib_per_house", "KiB"},
      {"scenario.sim_records_per_s", "1/s"},
      {"netsim.events", "count"},
      {"netsim.queue_peak", "count"},
      {"netsim.tap_observations", "count"},
      {"netsim.events_per_record", "ratio"},
      {"netsim.packets_per_record", "ratio"},
      {"netsim.ns_per_event", "ns"},
  };
  static const char* const kQueries[] = {"resolver.queries.Local", "resolver.queries.Google",
                                         "resolver.queries.OpenDNS",
                                         "resolver.queries.Cloudflare"};
  static const char* const kHitRates[] = {"resolver.hit_rate.Local", "resolver.hit_rate.Google",
                                          "resolver.hit_rate.OpenDNS",
                                          "resolver.hit_rate.Cloudflare"};
  for (const char* n : kQueries) v.push_back({n, "count"});
  for (const char* n : kHitRates) v.push_back({n, "frac"});
  const std::vector<MetricDef> rest = {
      {"traffic.fetches", "count"},
      {"traffic.prefetches", "count"},
      {"traffic.device_cache_hit_frac", "frac"},
      {"capture.conns", "count"},
      {"capture.dns", "count"},
      {"capture.encflows", "count"},
      {"capture.sink_ns_per_record", "ns"},
      {"analysis.pairing_s", "s"},
      {"analysis.blocking_s", "s"},
      {"analysis.classify_s", "s"},
      {"analysis.table1_s", "s"},
      {"analysis.isp_only_s", "s"},
      {"analysis.performance_s", "s"},
      {"analysis.platforms_s", "s"},
      {"analysis.candidates_scanned", "count"},
      {"analysis.paired_frac", "frac"},
      {"analysis.study_records_per_s", "1/s"},
      {"stream.reorder_s", "s"},
      {"stream.reorder_peak", "count"},
      {"stream.write_s", "s"},
      {"stream.segments", "count"},
      {"stream.conn_bytes_per_record", "B"},
      {"stream.dns_bytes_per_record", "B"},
      {"stream.enc_bytes_per_record", "B"},
      {"stream.spool_bytes_per_record", "B"},
      {"stream.replay_s", "s"},
      {"stream.ingest_s", "s"},
      {"stream.finalize_s", "s"},
      {"stream.evicted_per_dns", "ratio"},
      {"serve.send_s", "s"},
      {"serve.ack_wait_s", "s"},
      {"serve.queue_peak", "count"},
      {"serve.decode_ns_per_record", "ns"},
      {"serve.apply_ns_per_record", "ns"},
      {"serve.wire_bytes_per_record", "B"},
      {"serve.frames", "count"},
      {"serve.frame_errors", "count"},
      {"serve.sender_lag_p99_us", "us"},
      {"serve.ack_p50_us", "us"},
      {"serve.ack_p99_us", "us"},
      {"serve.ack_samples", "count"},
      {"scenario.self_frac", "frac"},
      {"netsim.self_frac", "frac"},
      {"capture.self_frac", "frac"},
      {"analysis.self_frac", "frac"},
      {"stream.self_frac", "frac"},
      {"serve.self_frac", "frac"},
      {"obs.unaccounted_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

/// Layers that own spans, in report order. The benchmark's own root spans
/// ("bench.<workload>.iteration" / ".setup") are the unaccounted remainder.
const std::vector<std::string> kSpanLayers = {"scenario", "netsim",  "capture",
                                              "analysis", "stream", "serve"};

// ---- run bookkeeping --------------------------------------------------------

class Run {
 public:
  explicit Run(const RunOptions& o) : opts{o} {}

  const RunOptions& opts;
  Tracer tracer;
  Outcome out;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> exact;
  std::vector<double> rps_traced;
  std::vector<double> rps_untraced;
  double houses_simulated = 0.0;

  void sample(const std::string& name, double v) { samples[name].push_back(v); }

  /// One attempted operation; a false `ok` counts it failed.
  void op(bool ok, const std::string& what) {
    ++out.attempted;
    if (ok) return;
    ++out.failed;
    if (out.errors.size() < 20) out.errors.push_back(what);
  }

  /// An exact count. Every repetition of a run simulates the same seed,
  /// so a count that changes between repetitions is a failure.
  void count(const std::string& name, double v) {
    const auto [it, fresh] = exact.emplace(name, v);
    if (!fresh && it->second != v) {
      op(false, "fingerprint: " + name + " changed between repetitions (" +
                    std::to_string(it->second) + " -> " + std::to_string(v) + ")");
    }
  }

  /// Repetition 0 warms caches and allocator and its throughput is not
  /// counted; after it, a traced run alternates traced and untraced
  /// repetitions.
  [[nodiscard]] bool traced(std::size_t k) const { return opts.trace && k % 2 == 1; }

  void set_tracing(bool on) {
    obs::set_enabled(on);
    tracer.set_enabled(on);
    if (on) obs::registry().reset();
  }

  [[nodiscard]] bool more(std::size_t k, Clock::time_point start) const {
    return k < kMinRepetitions || seconds_between(start, Clock::now()) < opts.seconds;
  }

  void throughput(std::size_t k, bool traced_now, double rps) {
    std::fprintf(stderr, "repetition %zu%s: %.0f records/s\n", k,
                 k == 0 ? " (warm-up)" : traced_now ? " (traced)" : "", rps);
    if (k == 0) return;
    (traced_now ? rps_traced : rps_untraced).push_back(rps);
  }

  [[nodiscard]] std::size_t houses(std::size_t fixed) const {
    return opts.houses != 0 ? opts.houses : fixed;
  }
  [[nodiscard]] SimDuration duration(int fixed_minutes) const {
    return SimDuration::min(opts.minutes != 0 ? opts.minutes : fixed_minutes);
  }
};

/// Time one call in its own span; the seconds become a sample of `metric`.
template <typename Fn>
void time_stage(Run& run, const char* metric, const char* span, Fn&& fn) {
  SpanScope scope{run.tracer, span};
  const auto t0 = Clock::now();
  fn();
  run.sample(metric, seconds_between(t0, Clock::now()));
}

/// Run `fn` as one operation: an exception fails it with the message.
template <typename Fn>
void guarded(Run& run, const char* what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    run.op(false, std::string{what} + ": " + e.what());
  }
}

[[nodiscard]] double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

[[nodiscard]] double obs_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  throw std::runtime_error{"obs metric not published: " + name};
}

[[nodiscard]] double obs_value(const std::string& name) {
  return obs_value(obs::registry().snapshot(), name);
}

[[nodiscard]] double obs_value_or_zero(const std::string& name) {
  try {
    return obs_value(name);
  } catch (const std::runtime_error&) {
    return 0.0;  // never incremented since the last reset
  }
}

/// Per-layer simulation numbers, read from Town's own telemetry after a
/// traced simulation (`sim_s` wall and `cpu_s` process CPU over its run
/// and harvest calls).
void record_simulation(Run& run, const scenario::Town& town, double sim_s, double cpu_s,
                       double records) {
  town.publish_metrics();
  const auto snap = obs::registry().snapshot();
  const double events = obs_value(snap, "sim_events_dispatched");
  const double packets = obs_value(snap, "net_packets_sent");
  run.count("netsim.events", events);
  run.count("netsim.queue_peak", obs_value(snap, "sim_event_queue_peak"));
  run.count("netsim.tap_observations", obs_value(snap, "net_tap_observations"));
  run.sample("netsim.events_per_record", safe_div(events, records));
  run.sample("netsim.packets_per_record", safe_div(packets, records));
  run.sample("netsim.ns_per_event", safe_div(sim_s * 1e9, events));
  run.sample("scenario.cores_busy", safe_div(cpu_s, sim_s));
  for (const auto& p : kPlatforms) {
    const std::string label = "{platform=\"" + p + "\"}";
    run.count("resolver.queries." + p, obs_value(snap, "resolver_queries" + label));
    run.count("resolver.hit_rate." + p, obs_value(snap, "resolver_cache_hit_rate" + label));
  }
  const auto& truth = town.ground_truth();
  run.count("traffic.fetches", static_cast<double>(truth.fetches));
  run.count("traffic.prefetches", static_cast<double>(truth.prefetches));
  run.count("traffic.device_cache_hit_frac", safe_div(static_cast<double>(truth.fetch_cache_hits),
                                                     static_cast<double>(truth.fetches)));
}

void record_capture_counts(Run& run, std::uint64_t conns, std::uint64_t dns, std::uint64_t enc) {
  run.count("capture.conns", static_cast<double>(conns));
  run.count("capture.dns", static_cast<double>(dns));
  run.count("capture.encflows", static_cast<double>(enc));
}

/// Fill the outcome's metric table from the run's samples.
Outcome finish(Run& run) {
  Outcome& out = run.out;
  const auto med = [&](const std::string& name) {
    const auto it = run.samples.find(name);
    return it == run.samples.end() || it->second.empty() ? 0.0 : median(it->second);
  };
  if (!run.opts.trace) {
    out.metrics.set("setup_s", med("setup_s"), "s");
    out.metrics.set("records_per_s", run.rps_untraced.empty() ? 0.0 : median(run.rps_untraced),
                    "1/s");
    out.metrics.set("peak_rss_mib", peak_rss_kib() / 1024.0, "MiB");
    return std::move(out);
  }

  // Layer shares of the traced wall time, excluding probe subtrees (calls
  // made only to time one layer in isolation, outside the timed unit).
  std::vector<Span> timed;
  std::map<std::uint32_t, bool> probe;
  for (const Span& s : run.tracer.spans()) {
    const bool in_probe = s.parent == 0 ? s.name.starts_with("probe") : probe.at(s.parent);
    probe[s.id] = in_probe;
    if (!in_probe) timed.push_back(s);
  }
  const LayerTimes lt = layer_times(timed);
  double accounted = 0.0;
  for (const auto& layer : kSpanLayers) {
    const auto it = lt.self_s.find(layer);
    const double share = it == lt.self_s.end() ? 0.0 : safe_div(it->second, lt.root_s);
    run.sample(layer + ".self_frac", share);
    accounted += share;
  }
  run.sample("obs.unaccounted_frac", lt.root_s > 0.0 ? 1.0 - accounted : 0.0);
  if (!run.rps_traced.empty() && !run.rps_untraced.empty()) {
    run.sample("obs.trace_overhead_frac",
               1.0 - median(run.rps_traced) / median(run.rps_untraced));
  }
  run.sample("scenario.rss_kib_per_house", safe_div(peak_rss_kib(), run.houses_simulated));

  for (const MetricDef& d : per_layer_metrics()) {
    const auto ex = run.exact.find(d.name);
    out.metrics.set(d.name, ex != run.exact.end() ? ex->second : med(d.name), d.unit);
  }
  out.spans = run.tracer.spans();
  return std::move(out);
}

// ---- sinks ------------------------------------------------------------------

/// Forwards records downstream, counting them and, when `timed`, the wall
/// time spent inside the downstream calls.
class MeteredSink final : public capture::RecordSink {
 public:
  MeteredSink(capture::RecordSink& down, bool timed) : down_{&down}, timed_{timed} {}

  void on_conn(const capture::ConnRecord& r) override {
    ++conns;
    forward([&] { down_->on_conn(r); });
  }
  void on_dns(const capture::DnsRecord& r) override {
    ++dns;
    forward([&] { down_->on_dns(r); });
  }
  void on_encflow(const capture::EncFlowRecord& r) override {
    ++enc;
    forward([&] { down_->on_encflow(r); });
  }

  [[nodiscard]] std::uint64_t total() const { return conns + dns + enc; }
  [[nodiscard]] double busy_s() const { return std::chrono::duration<double>(busy_).count(); }

  std::uint64_t conns = 0;
  std::uint64_t dns = 0;
  std::uint64_t enc = 0;

 private:
  template <typename Fn>
  void forward(Fn&& fn) {
    if (!timed_) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    busy_ += Clock::now() - t0;
  }

  capture::RecordSink* down_;
  bool timed_;
  Clock::duration busy_{};
};

class NullSink final : public capture::RecordSink {
 public:
  void on_conn(const capture::ConnRecord&) override {}
  void on_dns(const capture::DnsRecord&) override {}
  void on_encflow(const capture::EncFlowRecord&) override {}
};

using AnyRecord = std::variant<capture::ConnRecord, capture::DnsRecord, capture::EncFlowRecord>;

void deliver(const AnyRecord& rec, capture::RecordSink& sink) {
  if (const auto* c = std::get_if<capture::ConnRecord>(&rec)) {
    sink.on_conn(*c);
  } else if (const auto* d = std::get_if<capture::DnsRecord>(&rec)) {
    sink.on_dns(*d);
  } else {
    sink.on_encflow(std::get<capture::EncFlowRecord>(rec));
  }
}

/// Records in the order a sink receives them.
class RecordingSink final : public capture::RecordSink {
 public:
  void on_conn(const capture::ConnRecord& r) override { recs.emplace_back(r); }
  void on_dns(const capture::DnsRecord& r) override { recs.emplace_back(r); }
  void on_encflow(const capture::EncFlowRecord& r) override { recs.emplace_back(r); }
  std::vector<AnyRecord> recs;
};

/// A simulation's records in monitor finalization order, cut into the
/// chunks a live run would deliver: after each chunk the producer either
/// advanced the watermark or (last chunk) closed the feed.
struct Recording {
  std::vector<AnyRecord> recs;
  struct Chunk {
    std::size_t end = 0;
    SimTime watermark;
  };
  std::vector<Chunk> chunks;  ///< the last chunk ends in close()
  std::uint64_t conns = 0, dns = 0, enc = 0;

  /// Replay through a LiveFeed exactly as the live run drove it.
  void replay(stream::LiveFeed& feed) const {
    std::size_t i = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      for (; i < chunks[c].end; ++i) deliver(recs[i], feed);
      if (c + 1 == chunks.size()) {
        feed.close();
      } else {
        feed.drain(chunks[c].watermark);
      }
    }
  }
};

scenario::ScenarioConfig town_config(const Run& run, std::size_t houses, int minutes) {
  scenario::ScenarioConfig cfg;
  cfg.seed = run.opts.seed;
  cfg.houses = run.houses(houses);
  cfg.duration = run.duration(minutes);
  cfg.zones.seed = kZoneSeed;
  return cfg;
}

// ---- neighborhood -----------------------------------------------------------

[[nodiscard]] bool same_table1(const std::vector<analysis::Table1Row>& a,
                               const std::vector<analysis::Table1Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].platform != b[i].platform || a[i].pct_houses != b[i].pct_houses ||
        a[i].pct_lookups != b[i].pct_lookups || a[i].pct_conns != b[i].pct_conns ||
        a[i].pct_bytes != b[i].pct_bytes || a[i].lookups != b[i].lookups) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] bool same_classes(const analysis::ClassCounts& a, const analysis::ClassCounts& b) {
  return a.n == b.n && a.lc == b.lc && a.p == b.p && a.sc == b.sc && a.r == b.r;
}

/// The seven run_study stages called one by one, each in its own span;
/// checks the result equals run_study's.
void analysis_stages(Run& run, const capture::Dataset& ds, const analysis::Study& reference) {
  SpanScope probe{run.tracer, "probe.analysis"};
  const analysis::StudyConfig cfg;
  analysis::Study s;
  const double scanned0 = obs_value_or_zero("pairing_candidates_scanned_total");
  time_stage(run, "analysis.pairing_s", "analysis.pairing", [&] {
    s.pairing = analysis::pair_connections(ds, cfg.pairing_policy, cfg.pairing_seed, cfg.threads);
  });
  run.count("analysis.candidates_scanned",
            obs_value("pairing_candidates_scanned_total") - scanned0);
  time_stage(run, "analysis.blocking_s", "analysis.blocking",
        [&] { s.blocking = analysis::analyze_blocking(ds, s.pairing, 20.0, cfg.threads); });
  time_stage(run, "analysis.classify_s", "analysis.classify", [&] {
    s.classified = analysis::classify_connections(ds, s.pairing, cfg.classify, cfg.threads);
  });
  time_stage(run, "analysis.table1_s", "analysis.table1", [&] {
    s.table1 = analysis::build_table1(ds, s.pairing, cfg.directory, 0.01, cfg.threads);
  });
  time_stage(run, "analysis.isp_only_s", "analysis.isp_only", [&] {
    s.isp_only_houses = analysis::isp_only_house_frac(ds, cfg.directory, cfg.threads);
  });
  time_stage(run, "analysis.performance_s", "analysis.performance", [&] {
    s.performance = analysis::analyze_performance(ds, s.pairing, s.classified,
                                                  cfg.abs_significance_ms,
                                                  cfg.rel_significance_pct, cfg.threads);
  });
  time_stage(run, "analysis.platforms_s", "analysis.platforms", [&] {
    s.platforms = analysis::analyze_platforms(ds, s.pairing, s.classified, cfg.directory,
                                              "connectivitycheck.gstatic.com", cfg.threads);
  });
  run.sample("analysis.paired_frac",
             safe_div(static_cast<double>(s.pairing.paired), static_cast<double>(ds.conns.size())));
  const bool same = s.pairing.paired == reference.pairing.paired &&
                    s.pairing.unpaired == reference.pairing.unpaired &&
                    same_classes(s.classified.counts, reference.classified.counts) &&
                    same_table1(s.table1, reference.table1) &&
                    s.isp_only_houses == reference.isp_only_houses &&
                    s.platforms.size() == reference.platforms.size();
  run.op(same, "analysis stages called one by one differ from run_study");
}

Outcome run_neighborhood(const RunOptions& opts) {
  Run run{opts};
  const auto cfg = town_config(run, kNeighborhoodHouses, kNeighborhoodMinutes);
  run.houses_simulated = static_cast<double>(cfg.houses);
  const auto start = Clock::now();
  for (std::size_t k = 0; run.more(k, start); ++k) {
    const bool traced = run.traced(k);
    run.set_tracing(traced);
    guarded(run, "neighborhood", [&] {
      SpanScope root{run.tracer, "bench.neighborhood.iteration"};
      const auto t0 = Clock::now();
      std::unique_ptr<scenario::Town> town;
      {
        SpanScope s{run.tracer, "scenario.build"};
        town = std::make_unique<scenario::Town>(cfg);
      }
      const auto t1 = Clock::now();
      const double cpu0 = process_cpu_s();
      {
        SpanScope s{run.tracer, "netsim.run_for"};
        town->run_for(cfg.duration);
      }
      capture::Dataset ds;
      {
        SpanScope s{run.tracer, "capture.harvest"};
        ds = town->harvest();
      }
      const auto t2 = Clock::now();
      const double cpu1 = process_cpu_s();
      analysis::Study study;
      {
        SpanScope s{run.tracer, "analysis.run_study"};
        study = analysis::run_study(ds);
      }
      const auto t3 = Clock::now();

      const double records =
          static_cast<double>(ds.conns.size() + ds.dns.size() + ds.encflows.size());
      const double sim_s = seconds_between(t1, t2);
      run.sample("setup_s", seconds_between(t0, t1));
      run.sample("scenario.sim_records_per_s", records / sim_s);
      run.throughput(k, traced, records / seconds_between(t1, t3));
      record_capture_counts(run, ds.conns.size(), ds.dns.size(), ds.encflows.size());

      // Output check: the streaming engine fed the same dataset agrees.
      stream::OnlineStudy engine;
      const auto ti = Clock::now();
      {
        SpanScope s{run.tracer, "stream.ingest"};
        (void)stream::replay_dataset(ds, engine);
      }
      const auto tf = Clock::now();
      stream::OnlineStudyResult online;
      {
        SpanScope s{run.tracer, "stream.finalize"};
        online = engine.finalize();
      }
      const auto te = Clock::now();
      run.op(same_classes(online.classes, study.classified.counts) &&
                 same_table1(online.table1, study.table1),
             "neighborhood: run_study and OnlineStudy disagree on classes or Table 1");

      if (traced) {
        run.sample("scenario.build_s", seconds_between(t0, t1));
        run.sample("analysis.study_records_per_s",
                   static_cast<double>(ds.conns.size() + ds.dns.size()) / seconds_between(t2, t3));
        run.sample("stream.ingest_s", seconds_between(ti, tf));
        run.sample("stream.finalize_s", seconds_between(tf, te));
        run.sample("stream.evicted_per_dns",
                   safe_div(obs_value_or_zero("stream_evicted_candidates_total"),
                            static_cast<double>(ds.dns.size())));
        record_simulation(run, *town, sim_s, cpu1 - cpu0, records);
        root.end();
        analysis_stages(run, ds, study);
      }
    });
  }
  run.set_tracing(false);
  return finish(run);
}

// ---- city -------------------------------------------------------------------

Outcome run_city(const RunOptions& opts) {
  Run run{opts};
  auto cfg = town_config(run, kCityHouses, kCityMinutes);
  cfg.shards = kCityShards;
  cfg.threads = kCityThreads;
  run.houses_simulated = static_cast<double>(cfg.houses);
  const SimDuration chunk = SimDuration::min(1);
  const auto start = Clock::now();
  for (std::size_t k = 0; run.more(k, start); ++k) {
    const bool traced = run.traced(k);
    run.set_tracing(traced);
    guarded(run, "city", [&] {
      SpanScope root{run.tracer, "bench.city.iteration"};
      const auto t0 = Clock::now();
      std::unique_ptr<scenario::Town> town;
      {
        SpanScope s{run.tracer, "scenario.build"};
        town = std::make_unique<scenario::Town>(cfg);
      }
      stream::OnlineStudy engine;
      MeteredSink ingest{engine, traced};
      stream::LiveFeed feed{ingest};
      MeteredSink tap{feed, traced};
      town->attach_record_sink(&tap);

      const auto t1 = Clock::now();
      const double cpu0 = process_cpu_s();
      Clock::duration sim{};
      Clock::duration drain{};
      const auto timed = [](Clock::duration& acc, auto&& fn) {
        const auto a = Clock::now();
        fn();
        acc += Clock::now() - a;
      };
      for (SimDuration done; done < cfg.duration; done += chunk) {
        timed(sim, [&] {
          SpanScope s{run.tracer, "netsim.run_for"};
          town->run_for(std::min(chunk, cfg.duration - done));
        });
        timed(drain, [&] {
          SpanScope s{run.tracer, "stream.drain"};
          feed.drain(town->record_watermark());
        });
      }
      timed(sim, [&] {
        SpanScope s{run.tracer, "capture.harvest"};
        (void)town->harvest();
      });
      timed(drain, [&] {
        SpanScope s{run.tracer, "stream.drain"};
        feed.close();
      });
      const double cpu1 = process_cpu_s();
      const auto t2 = Clock::now();
      stream::OnlineStudyResult result;
      {
        SpanScope s{run.tracer, "stream.finalize"};
        result = engine.finalize();
      }
      const auto t3 = Clock::now();

      const double records = static_cast<double>(tap.total());
      const double sim_s = std::chrono::duration<double>(sim).count();
      run.sample("setup_s", seconds_between(t0, t1));
      run.sample("scenario.sim_records_per_s", records / sim_s);
      run.throughput(k, traced, records / seconds_between(t1, t3));
      record_capture_counts(run, tap.conns, tap.dns, tap.enc);
      run.op(result.conns == tap.conns && result.dns == tap.dns &&
                 result.classes.total() == result.conns && feed.buffered() == 0,
             "city: the engine did not see exactly the records the monitors emitted");

      if (traced) {
        const double drain_s = std::chrono::duration<double>(drain).count();
        run.sample("scenario.build_s", seconds_between(t0, t1));
        run.sample("capture.sink_ns_per_record", safe_div(tap.busy_s() * 1e9, records));
        run.sample("stream.reorder_s", drain_s - ingest.busy_s());
        run.sample("stream.ingest_s", ingest.busy_s());
        run.sample("stream.finalize_s", seconds_between(t2, t3));
        run.count("stream.reorder_peak", static_cast<double>(feed.peak_buffered()));
        run.sample("stream.evicted_per_dns",
                   safe_div(obs_value_or_zero("stream_evicted_candidates_total"),
                            static_cast<double>(tap.dns)));
        record_simulation(run, *town, seconds_between(t1, t2), cpu1 - cpu0, records);
      }
    });
  }
  run.set_tracing(false);
  return finish(run);
}

// ---- spool ------------------------------------------------------------------

struct SpoolInputs {
  Recording recording;
  std::vector<AnyRecord> canonical;  ///< LiveFeed output order
  std::string expected;              ///< result_json of replay_dataset → OnlineStudy
};

/// Simulate the DoT neighborhood, keeping its records in finalization
/// order with each chunk's watermark, plus the reference result.
SpoolInputs spool_setup(Run& run, bool traced) {
  SpanScope root{run.tracer, "bench.spool.setup"};
  auto cfg = town_config(run, kSpoolHouses, kSpoolMinutes);
  cfg.transport = netsim::Transport::kDoT;
  run.houses_simulated = static_cast<double>(cfg.houses);

  SpoolInputs in;
  RecordingSink rec;
  std::unique_ptr<scenario::Town> town;
  const auto t0 = Clock::now();
  {
    SpanScope s{run.tracer, "scenario.build"};
    town = std::make_unique<scenario::Town>(cfg);
  }
  if (traced) run.sample("scenario.build_s", seconds_between(t0, Clock::now()));
  town->attach_record_sink(&rec);
  const SimDuration chunk = SimDuration::min(5);
  const auto t1 = Clock::now();
  const double cpu0 = process_cpu_s();
  for (SimDuration done; done < cfg.duration; done += chunk) {
    {
      SpanScope s{run.tracer, "netsim.run_for"};
      town->run_for(std::min(chunk, cfg.duration - done));
    }
    in.recording.chunks.push_back({rec.recs.size(), town->record_watermark()});
  }
  {
    SpanScope s{run.tracer, "capture.harvest"};
    (void)town->harvest();
  }
  in.recording.chunks.push_back({rec.recs.size(), SimTime::max()});
  const double sim_s = seconds_between(t1, Clock::now());
  const double cpu_s = process_cpu_s() - cpu0;
  in.recording.recs = std::move(rec.recs);
  for (const auto& r : in.recording.recs) {
    if (std::holds_alternative<capture::ConnRecord>(r)) ++in.recording.conns;
    if (std::holds_alternative<capture::DnsRecord>(r)) ++in.recording.dns;
    if (std::holds_alternative<capture::EncFlowRecord>(r)) ++in.recording.enc;
  }
  const double records = static_cast<double>(in.recording.recs.size());
  run.sample("scenario.sim_records_per_s", records / sim_s);
  record_capture_counts(run, in.recording.conns, in.recording.dns, in.recording.enc);
  if (traced) record_simulation(run, *town, sim_s, cpu_s, records);

  // Reference: the canonical order as a dataset, through replay_dataset.
  RecordingSink ordered;
  stream::LiveFeed feed{ordered};
  in.recording.replay(feed);
  in.canonical = std::move(ordered.recs);
  capture::Dataset ds;
  for (const auto& r : in.canonical) {
    if (const auto* c = std::get_if<capture::ConnRecord>(&r)) ds.conns.push_back(*c);
    if (const auto* d = std::get_if<capture::DnsRecord>(&r)) ds.dns.push_back(*d);
    if (const auto* e = std::get_if<capture::EncFlowRecord>(&r)) ds.encflows.push_back(*e);
  }
  stream::OnlineStudy reference;
  (void)stream::replay_dataset(ds, reference);
  in.expected = serve::result_json(reference.finalize());
  return in;
}

[[nodiscard]] std::uint64_t bytes_of(const std::vector<std::string>& files) {
  std::uint64_t n = 0;
  for (const auto& f : files) n += fs::file_size(f);
  return n;
}

/// Each stream stage alone, for the per-layer times.
void spool_stages(Run& run, const SpoolInputs& in, const std::string& spool_dir,
                  const std::string& scratch_dir) {
  SpanScope probe{run.tracer, "probe.stream"};
  NullSink null;
  time_stage(run, "stream.reorder_s", "stream.reorder", [&] {
    stream::LiveFeed feed{null};
    in.recording.replay(feed);
    run.count("stream.reorder_peak", static_cast<double>(feed.peak_buffered()));
  });
  time_stage(run, "stream.write_s", "stream.write", [&] {
    fs::create_directories(scratch_dir);
    stream::SpoolWriter writer{scratch_dir};
    for (const auto& r : in.canonical) deliver(r, writer);
    writer.flush();
  });
  fs::remove_all(scratch_dir);
  time_stage(run, "stream.replay_s", "stream.replay",
             [&] { (void)stream::replay_spool(spool_dir, null); });
  stream::OnlineStudy engine;
  const double evicted0 = obs_value_or_zero("stream_evicted_candidates_total");
  time_stage(run, "stream.ingest_s", "stream.ingest", [&] {
    for (const auto& r : in.canonical) deliver(r, engine);
  });
  std::string result;
  time_stage(run, "stream.finalize_s", "stream.finalize",
             [&] { result = serve::result_json(engine.finalize()); });
  run.sample("stream.evicted_per_dns",
             safe_div(obs_value_or_zero("stream_evicted_candidates_total") - evicted0,
                      static_cast<double>(in.recording.dns)));
  run.op(result == in.expected, "spool: engine fed in memory differs from replay_dataset");
}

Outcome run_spool(const RunOptions& opts) {
  Run run{opts};
  SpoolInputs in;
  for (std::size_t i = 0; i < kSetups; ++i) {
    run.set_tracing(opts.trace);
    const auto t0 = Clock::now();
    SpoolInputs next = spool_setup(run, opts.trace);
    run.sample("setup_s", seconds_between(t0, Clock::now()));
    run.op(i == 0 || next.expected == in.expected,
           "spool: set-up simulations with one seed gave different results");
    in = std::move(next);
  }
  const double records = static_cast<double>(in.recording.recs.size());

  const auto start = Clock::now();
  for (std::size_t k = 0; run.more(k, start); ++k) {
    const bool traced = run.traced(k);
    run.set_tracing(traced);
    const std::string dir = run.opts.tmp_dir + "/spool-" + std::to_string(k);
    guarded(run, "spool", [&] {
      SpanScope root{run.tracer, "bench.spool.iteration"};
      fs::create_directories(dir);
      const auto t1 = Clock::now();
      {
        SpanScope s{run.tracer, "stream.feed_write"};
        stream::SpoolWriter writer{dir};
        stream::LiveFeed feed{writer};
        in.recording.replay(feed);
        writer.flush();
      }
      stream::OnlineStudy engine;
      stream::ReplayCounts counts;
      {
        SpanScope s{run.tracer, "stream.replay_ingest"};
        counts = stream::replay_spool(dir, engine);
      }
      stream::OnlineStudyResult result;
      {
        SpanScope s{run.tracer, "stream.finalize"};
        result = engine.finalize();
      }
      const auto t2 = Clock::now();
      run.throughput(k, traced, records / seconds_between(t1, t2));
      run.op(counts.conns == in.recording.conns && counts.dns == in.recording.dns &&
                 counts.encflows == in.recording.enc &&
                 serve::result_json(result) == in.expected,
             "spool: result read back from the spool differs from replay_dataset");

      if (traced) {
        const auto listing = stream::list_spool(dir);
        const double conn_b = static_cast<double>(bytes_of(listing.conn_segments));
        const double dns_b = static_cast<double>(bytes_of(listing.dns_segments));
        const double enc_b = static_cast<double>(bytes_of(listing.enc_segments));
        run.count("stream.segments", static_cast<double>(listing.total()));
        run.count("stream.conn_bytes_per_record",
                  safe_div(conn_b, static_cast<double>(in.recording.conns)));
        run.count("stream.dns_bytes_per_record",
                  safe_div(dns_b, static_cast<double>(in.recording.dns)));
        run.count("stream.enc_bytes_per_record",
                  safe_div(enc_b, static_cast<double>(in.recording.enc)));
        run.count("stream.spool_bytes_per_record", (conn_b + dns_b + enc_b) / records);
        root.end();
        spool_stages(run, in, dir, dir + "-probe");
      }
    });
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  run.set_tracing(false);
  return finish(run);
}

// ---- serve ------------------------------------------------------------------

/// CPUs this process may run on, in id order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pin the calling thread to cpus[i] (no-op when there are not that
/// many). The producer, the ack reader and the server's event loop each
/// get a core of their own, so a run's throughput does not depend on
/// where the scheduler happened to place the three threads.
void pin_thread(const std::vector<int>& cpus, std::size_t i) {
  if (i >= cpus.size()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i], &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

struct ServeInputs {
  std::vector<std::string> segments;  ///< v2 + lz wire segments, dns/conn interleaved
  std::uint64_t records = 0;
  std::uint64_t wire_bytes = 0;
  std::string expected;  ///< result_json of an offline OnlineStudy
};

template <typename Rec>
std::vector<std::string> cut(const std::vector<Rec>& recs) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < recs.size(); i += kSegmentRecords) {
    const std::size_t end = std::min(i + kSegmentRecords, recs.size());
    const std::vector<Rec> slice{recs.begin() + static_cast<std::ptrdiff_t>(i),
                                 recs.begin() + static_cast<std::ptrdiff_t>(end)};
    out.push_back(stream::build_segment_v2(slice, stream::SegmentCodec::kLz));
  }
  return out;
}

ServeInputs serve_setup(Run& run, bool traced) {
  SpanScope root{run.tracer, "bench.serve.setup"};
  const auto cfg = town_config(run, kServeHouses, kServeMinutes);
  run.houses_simulated = static_cast<double>(cfg.houses);
  std::unique_ptr<scenario::Town> town;
  const auto t0 = Clock::now();
  {
    SpanScope s{run.tracer, "scenario.build"};
    town = std::make_unique<scenario::Town>(cfg);
  }
  const auto t1 = Clock::now();
  if (traced) run.sample("scenario.build_s", seconds_between(t0, t1));
  const double cpu0 = process_cpu_s();
  {
    SpanScope s{run.tracer, "netsim.run_for"};
    town->run_for(cfg.duration);
  }
  capture::Dataset ds;
  {
    SpanScope s{run.tracer, "capture.harvest"};
    ds = town->harvest();
  }
  const double sim_s = seconds_between(t1, Clock::now());
  const double cpu_s = process_cpu_s() - cpu0;
  ServeInputs in;
  in.records = ds.conns.size() + ds.dns.size();
  run.sample("scenario.sim_records_per_s", static_cast<double>(in.records) / sim_s);
  record_capture_counts(run, ds.conns.size(), ds.dns.size(), ds.encflows.size());
  if (traced) record_simulation(run, *town, sim_s, cpu_s, static_cast<double>(in.records));
  {
    SpanScope s{run.tracer, "stream.encode"};
    auto conns = cut(ds.conns);
    auto dns = cut(ds.dns);
    for (std::size_t i = 0; i < std::max(conns.size(), dns.size()); ++i) {
      if (i < dns.size()) in.segments.push_back(std::move(dns[i]));
      if (i < conns.size()) in.segments.push_back(std::move(conns[i]));
    }
  }
  for (const auto& s : in.segments) in.wire_bytes += s.size();
  stream::OnlineStudy offline;
  (void)stream::replay_dataset(ds, offline);
  in.expected = serve::result_json(offline.finalize());
  return in;
}

/// Blocking HTTP GET over loopback; returns the body ("" on failure).
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = serve::connect_tcp("127.0.0.1", port);
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const auto n = ::write(fd, req.data() + off, req.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EINTR) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 10'000);
    } else {
      break;
    }
  }
  std::string resp;
  char buf[65536];
  for (;;) {
    const auto n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      resp.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10'000) <= 0) break;
      continue;
    }
    if (errno != EINTR) break;
  }
  ::close(fd);
  const auto split = resp.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : resp.substr(split + 4);
}

/// GET /results/<tenant> and compare it with the offline study.
void check_results(Run& run, const serve::Server& server, const std::string& tenant,
                   const ServeInputs& in) {
  run.op(http_get(server.http_port(), "/results/" + tenant) == in.expected + "\n",
         "serve: /results/" + tenant + " differs from the offline study");
}

/// Phase (a): one producer pushes every segment and a FLUSH, then reads
/// all acks. Returns the wall time from first byte to the final ack.
double closed_loop(Run& run, const serve::Server& server, const std::string& tenant,
                   const ServeInputs& in) {
  serve::PushClient client{"127.0.0.1", server.ingest_port(), serve::Handshake{tenant, true}};
  const auto t0 = Clock::now();
  {
    SpanScope s{run.tracer, "serve.send"};
    for (const auto& seg : in.segments) client.send_segment(seg);
    client.flush();
  }
  const auto t1 = Clock::now();
  std::uint64_t last = 0;
  {
    SpanScope s{run.tracer, "serve.ack_wait"};
    for (std::size_t i = 0; i <= in.segments.size(); ++i) last = client.read_ack();
  }
  const auto t2 = Clock::now();
  run.op(last == in.records, "serve: final ack of the closed-loop push is " +
                                 std::to_string(last) + ", not " + std::to_string(in.records));
  check_results(run, server, tenant, in);
  if (run.tracer.enabled()) {
    run.sample("serve.send_s", seconds_between(t0, t1));
    run.sample("serve.ack_wait_s", seconds_between(t1, t2));
    (void)http_get(server.http_port(), "/metrics");  // publishes the serve gauges
    run.sample("serve.queue_peak", obs_value("serve_tenant_queue_peak{tenant=\"" + tenant + "\"}"));
  }
  return seconds_between(t0, t2);
}

/// Phase (b): frames sent at a fixed rate by this thread while a second
/// thread reads one ack per frame.
std::vector<FrameTimes> open_loop(Run& run, const serve::Server& server,
                                  const std::string& tenant, const ServeInputs& in,
                                  const std::vector<int>& cpus) {
  SpanScope span{run.tracer, "serve.open_loop"};
  serve::PushClient client{"127.0.0.1", server.ingest_port(), serve::Handshake{tenant, true}};
  std::vector<FrameTimes> times(in.segments.size());
  std::uint64_t final_ack = 0;
  std::string reader_error;
  std::thread reader{[&] {
    pin_thread(cpus, 2);
    try {
      for (auto& t : times) {
        (void)client.read_ack();
        t.acked = Clock::now();
      }
      final_ack = client.read_ack();
    } catch (const std::exception& e) {
      reader_error = e.what();
    }
  }};
  std::string sender_error;
  try {
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < in.segments.size(); ++i) {
      times[i].due = due_time(t0, kOpenLoopFramesPerS, i);
      std::this_thread::sleep_until(times[i].due);
      times[i].sent = Clock::now();
      client.send_segment(in.segments[i]);
    }
    client.flush();
  } catch (const std::exception& e) {
    sender_error = e.what();
    ::shutdown(client.fd(), SHUT_RDWR);  // unblock the reader
  }
  reader.join();
  const bool ok = sender_error.empty() && reader_error.empty() && final_ack == in.records;
  run.op(ok, "serve: open-loop push failed (" + sender_error + reader_error + ", final ack " +
                 std::to_string(final_ack) + ")");
  if (!ok) return {};
  check_results(run, server, tenant, in);
  return times;
}

/// A fresh in-process Server per repetition, its event loop on a thread
/// pinned to cpus[1]; stopped and joined on destruction. A new server per
/// repetition keeps memory independent of when idle tenants are evicted.
class LiveServer {
 public:
  explicit LiveServer(const std::vector<int>& cpus) : server_{loop_, serve::ServeConfig{}} {
    server_.start();
    thread_ = std::thread{[this, &cpus] {
      pin_thread(cpus, 1);
      loop_.run();
    }};
  }
  ~LiveServer() {
    loop_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] const serve::Server& server() const { return server_; }

 private:
  serve::EventLoop loop_;
  serve::Server server_;
  std::thread thread_;
};

/// The same wire bytes through FrameDecoder and a Tenant, no sockets.
void serve_stages(Run& run, const ServeInputs& in) {
  SpanScope probe{run.tracer, "probe.serve"};
  std::string wire = serve::encode_handshake(serve::Handshake{"probe", false});
  for (const auto& seg : in.segments) serve::append_data_frame(wire, seg);
  serve::append_flush_frame(wire);

  std::vector<stream::SegmentView> views;
  const auto t0 = Clock::now();
  {
    SpanScope s{run.tracer, "serve.decode"};
    serve::FrameDecoder decoder{"probe"};
    decoder.feed(wire);
    for (auto ev = decoder.next(); ev != serve::FrameDecoder::Event::kNeedMore;
         ev = decoder.next()) {
      if (ev == serve::FrameDecoder::Event::kError) throw std::runtime_error{decoder.error()};
      if (ev == serve::FrameDecoder::Event::kSegment) views.push_back(std::move(decoder.segment()));
    }
  }
  const auto t1 = Clock::now();
  serve::Tenant tenant{"probe", stream::OnlineStudyConfig{}};
  {
    SpanScope s{run.tracer, "serve.apply"};
    for (auto& v : views) {
      tenant.enqueue(std::move(v));
      (void)tenant.process_one();
    }
    tenant.flush();
  }
  const auto t2 = Clock::now();
  const double records = static_cast<double>(in.records);
  run.sample("serve.decode_ns_per_record", seconds_between(t0, t1) * 1e9 / records);
  run.sample("serve.apply_ns_per_record", seconds_between(t1, t2) * 1e9 / records);
  run.op(views.size() == in.segments.size() && tenant.results() == in.expected,
         "serve: decoder + tenant without sockets differ from the offline study");
}

Outcome run_serve(const RunOptions& opts) {
  Run run{opts};
  const std::vector<int> cpus = allowed_cpus();
  ServeInputs in;
  for (std::size_t i = 0; i < kSetups; ++i) {
    run.set_tracing(opts.trace);
    const auto t0 = Clock::now();
    ServeInputs next = serve_setup(run, opts.trace);
    run.sample("setup_s", seconds_between(t0, Clock::now()));
    run.op(i == 0 || (next.expected == in.expected && next.segments == in.segments),
           "serve: set-up simulations with one seed gave different inputs");
    in = std::move(next);
  }
  run.count("serve.frames", static_cast<double>(in.segments.size()));
  run.count("serve.wire_bytes_per_record",
            static_cast<double>(in.wire_bytes) / static_cast<double>(in.records));

  pin_thread(cpus, 0);

  std::vector<double> latency_us;
  std::vector<double> lag_us;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(3.0 * opts.seconds + 30.0);
  for (std::size_t k = 0;
       run.more(k, start) || (latency_us.size() < kMinLatencySamples && Clock::now() < deadline);
       ++k) {
    const bool traced = run.traced(k);
    run.set_tracing(traced);
    guarded(run, "serve", [&] {
      SpanScope root{run.tracer, "bench.serve.iteration"};
      const LiveServer live{cpus};
      const double push_s = closed_loop(run, live.server(), "closed", in);
      run.throughput(k, traced, static_cast<double>(in.records) / push_s);
      const auto frames = open_loop(run, live.server(), "open", in, cpus);
      if (k > 0) {
        const auto samples = open_loop_samples(frames);
        latency_us.insert(latency_us.end(), samples.latency_us.begin(),
                          samples.latency_us.end());
        lag_us.insert(lag_us.end(), samples.lag_us.begin(), samples.lag_us.end());
      }

      if (traced) {
        run.count("serve.frame_errors", obs_value_or_zero("serve_frame_errors_total"));
        run.op(obs_value("serve_frames_total") == 2.0 * static_cast<double>(in.segments.size()),
               "serve: server counted a different number of frames than were sent");
        root.end();
        serve_stages(run, in);
      }
    });
  }
  run.set_tracing(false);

  if (const auto p = highest_supported_percentile(latency_us.size()); p && *p >= 99.0) {
    run.sample("serve.ack_p50_us", percentile(latency_us, 50.0));
    run.sample("serve.ack_p99_us", percentile(latency_us, 99.0));
    run.sample("serve.sender_lag_p99_us", percentile(lag_us, 99.0));
    run.sample("serve.ack_samples", static_cast<double>(latency_us.size()));
  } else {
    run.op(false, "serve: only " + std::to_string(latency_us.size()) +
                      " open-loop samples, too few for p99");
  }
  return finish(run);
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() { return kEndToEnd; }

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

bool is_exact_metric(std::string_view name) {
  static const std::set<std::string_view> kExact = {
      "capture.conns",     "capture.dns",        "capture.encflows",
      "netsim.events",     "netsim.queue_peak",  "netsim.tap_observations",
      "traffic.fetches",   "traffic.prefetches", "traffic.device_cache_hit_frac",
      "analysis.candidates_scanned",             "serve.frames"};
  return kExact.contains(name) || name.starts_with("resolver.");
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"neighborhood", "city", "spool", "serve"};
  return names;
}

Outcome run_workload(const std::string& name, const RunOptions& opts) {
  if (name == "neighborhood") return run_neighborhood(opts);
  if (name == "city") return run_city(opts);
  if (name == "spool") return run_spool(opts);
  if (name == "serve") return run_serve(opts);
  throw std::invalid_argument{"unknown workload: " + name};
}

}  // namespace perfbench
