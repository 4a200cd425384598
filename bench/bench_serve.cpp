// dnsctx — online telemetry server bench: sustained ingest throughput
// and ingest-to-visible latency over loopback.
//
// The bench simulates a neighborhood once, chops the dataset into wire
// segments, and pushes them through a real in-process Server (epoll
// loop on its own thread, TCP over 127.0.0.1) three ways:
//
//   throughput  one producer, acks read only at the end — measures
//               sustained records/sec from first byte to the final
//               flush ack (i.e. everything visible to /results)
//   latency     one producer, one ack read per frame — each round trip
//               is the ingest-to-visible latency for that segment;
//               reported as p50/p99
//   impaired    the same push over a dataset simulated under a fault
//               plan (packet loss + a resolver outage): the server must
//               ingest it at full rate without dropping the connection
//
// The run also asserts the headline correctness contract end to end:
// GET /results/<tenant> must be byte-identical to the offline
// OnlineStudy over the same records. `match` and `survived_faults`
// land in the JSON record and the process exits nonzero when either
// fails, so a perf-smoke CI leg gates on more than speed.
//
//   bench_serve [--houses N] [--hours H] [--seed S] [--faults SPEC]
//               [--segment-records N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "serve/push.hpp"
#include "serve/server.hpp"
#include "serve/sockets.hpp"
#include "stream/online_study.hpp"
#include "stream/segment_v2.hpp"
#include "stream/spool.hpp"

namespace {

using namespace dnsctx;
using Clock = std::chrono::steady_clock;

constexpr const char* kDefaultFaults = "loss=0.01,outage=upstream1:600-1200";

struct ServeScale {
  /// The impaired run's scenario: --houses/--hours/--seed and --faults
  /// via the knob table. The clean run is the same without the faults.
  scenario::ScenarioConfig impaired;
  std::string faults = kDefaultFaults;  ///< the impaired run's plan, as given
  std::size_t segment_records = 512;
  std::string json_path;
};

ServeScale parse_args(int argc, char** argv) {
  ServeScale s;
  s.impaired.duration = SimDuration::hours(4);
  s.impaired.faults = faults::FaultPlan::parse(kDefaultFaults);
  const CliArgs args = bench::parse_bench_args(
      argc, argv, {"houses", "hours", "seed", "faults", "segment-records", "json"}, {}, 0,
      [&s](const CliArgs& a) {
        scenario::set_flag_knobs(s.impaired, a);
        // The latency push sends quarter-size segments, which must hold a record.
        const long long per = a.int_option_or("segment-records", 512);
        if (per < 4) throw std::runtime_error{"--segment-records must be >= 4"};
        s.segment_records = static_cast<std::size_t>(per);
      });
  s.faults = args.option_or("faults", kDefaultFaults);
  s.json_path = bench::json_path_from(args);
  return s;
}

capture::Dataset simulate(const scenario::ScenarioConfig& cfg) {
  scenario::Town town{cfg};
  town.run();
  return town.dataset();
}

/// Cut `recs` into v2 + lz segments of `per` records (what a current tap
/// sends), appending them to `out` and their size to `wire_bytes`.
template <typename Rec>
void chunk_into(std::vector<std::string>& out, const std::vector<Rec>& recs, std::size_t per,
                std::uint64_t& wire_bytes) {
  for (std::size_t i = 0; i < recs.size(); i += per) {
    const std::size_t end = std::min(i + per, recs.size());
    const std::vector<Rec> slice{recs.begin() + static_cast<std::ptrdiff_t>(i),
                                 recs.begin() + static_cast<std::ptrdiff_t>(end)};
    out.push_back(stream::build_segment_v2(slice, stream::SegmentCodec::kLz));
    wire_bytes += out.back().size();
  }
}

/// Conn and dns segments interleaved roughly by time, as a live tap
/// would deliver them. Frames are v2 columnar (lz), matching what the
/// current SpoolWriter and push tooling emit by default.
std::vector<std::string> wire_segments(const capture::Dataset& ds, std::size_t per,
                                       std::uint64_t& wire_bytes) {
  std::vector<std::string> conns, dns, out;
  chunk_into(conns, ds.conns, per, wire_bytes);
  chunk_into(dns, ds.dns, per, wire_bytes);
  for (std::size_t i = 0; i < std::max(conns.size(), dns.size()); ++i) {
    if (i < dns.size()) out.push_back(std::move(dns[i]));
    if (i < conns.size()) out.push_back(std::move(conns[i]));
  }
  return out;
}

struct PushResult {
  double sec = 0.0;
  std::uint64_t released = 0;
  bool survived = true;
};

/// Push every segment then FLUSH; read all acks at the end. The elapsed
/// time covers first byte to final flush ack — every record visible.
PushResult timed_push(std::uint16_t port, const std::string& tenant,
                      const std::vector<std::string>& segments) {
  PushResult res;
  try {
    serve::PushClient client{"127.0.0.1", port, serve::Handshake{tenant, true}};
    const auto t0 = Clock::now();
    for (const auto& seg : segments) client.send_segment(seg);
    client.flush();
    for (std::size_t i = 0; i + 1 < segments.size() + 1; ++i) (void)client.read_ack();
    res.released = client.read_ack();
    res.sec = std::chrono::duration<double>(Clock::now() - t0).count();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: push '%s' failed: %s\n", tenant.c_str(), e.what());
    res.survived = false;
  }
  return res;
}

/// One synchronous round trip per frame; each is an ingest-to-visible
/// latency sample in microseconds.
std::vector<double> ack_latencies(std::uint16_t port, const std::string& tenant,
                                  const std::vector<std::string>& segments) {
  std::vector<double> us;
  us.reserve(segments.size());
  serve::PushClient client{"127.0.0.1", port, serve::Handshake{tenant, true}};
  for (const auto& seg : segments) {
    const auto t0 = Clock::now();
    client.send_segment(seg);
    (void)client.read_ack();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  client.flush();
  (void)client.read_ack();
  return us;
}

[[nodiscard]] double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Minimal blocking GET over the nonblocking client socket.
std::string http_get_body(std::uint16_t port, const std::string& target) {
  const int fd = serve::connect_tcp("127.0.0.1", port);
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const auto n = ::write(fd, req.data() + off, req.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno != EAGAIN && errno != EINTR) {
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

}  // namespace

int main(int argc, char** argv) {
  const ServeScale scale = parse_args(argc, argv);
  const scenario::ScenarioConfig& cfg = scale.impaired;

  std::printf("Simulating %zu houses x %dh (seed %llu)...\n", cfg.houses,
              bench::hours_of(cfg), static_cast<unsigned long long>(cfg.seed));
  scenario::ScenarioConfig clean = cfg;
  clean.faults = {};
  const auto ds = simulate(clean);
  const auto ds_faulty = simulate(cfg);
  const std::uint64_t records = ds.conns.size() + ds.dns.size();
  const std::uint64_t faulty_records = ds_faulty.conns.size() + ds_faulty.dns.size();

  stream::OnlineStudy offline;
  stream::replay_dataset(ds, offline);
  const std::string expected = serve::result_json(offline.finalize());

  std::uint64_t wire_bytes = 0;
  std::uint64_t scratch = 0;
  const auto segments = wire_segments(ds, scale.segment_records, wire_bytes);
  const auto lat_segments = wire_segments(ds, scale.segment_records / 4, scratch);
  const auto faulty_segments = wire_segments(ds_faulty, scale.segment_records, scratch);

  serve::EventLoop loop;
  serve::Server server{loop, serve::ServeConfig{}};
  server.start();
  std::thread loop_thread{[&loop] { loop.run(); }};

  const auto throughput = timed_push(server.ingest_port(), "clean", segments);
  const auto latencies = ack_latencies(server.ingest_port(), "latency", lat_segments);
  const auto impaired = timed_push(server.ingest_port(), "impaired", faulty_segments);

  const std::string served = http_get_body(server.http_port(), "/results/clean");
  const bool match = served == expected + "\n";
  const bool survived = impaired.survived && impaired.released == faulty_records &&
                        throughput.released == records;

  loop.stop();
  loop_thread.join();

  const double rps =
      throughput.sec > 0.0 ? static_cast<double>(records) / throughput.sec : 0.0;
  const double imp_rps =
      impaired.sec > 0.0 ? static_cast<double>(impaired.released) / impaired.sec : 0.0;
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);

  std::printf("\nbench_serve: %llu records over loopback\n",
              static_cast<unsigned long long>(records));
  std::printf("  throughput   %10.0f records/sec  (%.3fs)\n", rps, throughput.sec);
  std::printf("  ack latency  p50 %.0fus  p99 %.0fus  (%zu segments of %zu records)\n",
              p50, p99, lat_segments.size(), scale.segment_records / 4);
  std::printf("  impaired     %10.0f records/sec  (faults \"%s\", %llu records)\n",
              imp_rps, scale.faults.c_str(),
              static_cast<unsigned long long>(faulty_records));
  std::printf("  wire         %.2f MiB in v2+lz frames (%.1f bytes/record)\n",
              static_cast<double>(wire_bytes) / (1024.0 * 1024.0),
              records > 0 ? static_cast<double>(wire_bytes) / static_cast<double>(records)
                          : 0.0);
  std::printf("  results match offline study: %s\n", match ? "yes" : "NO");
  std::printf("  fault plan survived:         %s\n", survived ? "yes" : "NO");

  if (!scale.json_path.empty()) {
    bench::JsonRecord{"bench_serve"}
        .integer("houses", cfg.houses)
        .integer("hours", bench::hours_of(cfg))
        .integer("seed", cfg.seed)
        .integer("records", records)
        .fixed("push_sec", throughput.sec, 3)
        .fixed("records_per_sec", rps, 0)
        .fixed("ack_p50_us", p50, 1)
        .fixed("ack_p99_us", p99, 1)
        .integer("impaired_records", faulty_records)
        .fixed("impaired_records_per_sec", imp_rps, 0)
        .integer("wire_bytes", wire_bytes)
        .flag("match", match)
        .flag("survived_faults", survived)
        .integer("peak_rss_bytes", bench::peak_rss_bytes())
        .append_to(scale.json_path);
  }
  return match && survived ? 0 : 1;
}
