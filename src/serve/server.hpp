// dnsctx — the online telemetry server: epoll loop + ingest + tenants
// + HTTP, assembled.
//
// One Server owns two listening sockets on one EventLoop:
//
//   ingest  length-prefixed frame protocol (serve/ingest.hpp); each
//           accepted connection handshakes into a tenant and streams
//           segments into it
//   http    GET /metrics (Prometheus), /results/<tenant> (the study
//           JSON), /healthz
//
// A ready connection reads one chunk per loop iteration and applies
// every complete frame in it — each segment to its tenant's engine, as
// soon as it is decoded — before the loop serves the next event; other
// connections and HTTP requests get their turn between two chunks.
// While a connection applies, nothing more is read from it: kernel
// socket buffers fill and TCP pushes back on the producer, and nothing
// is dropped (the backpressure contract in docs/SERVE.md).
//
// A malformed frame (bad magic, oversized length, CRC mismatch,
// truncated segment) closes ONLY the offending connection, with a
// stderr diagnostic naming the peer; every other connection and tenant
// keeps flowing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "serve/event_loop.hpp"
#include "serve/http.hpp"
#include "serve/ingest.hpp"
#include "serve/tenant.hpp"

namespace dnsctx::serve {

struct ServeConfig {
  std::string ingest_host = "127.0.0.1";
  std::uint16_t ingest_port = 0;  ///< 0 = ephemeral (tests)
  std::string http_host = "127.0.0.1";
  std::uint16_t http_port = 0;

  TenantConfig tenant;
  std::size_t max_frame_bytes = 16u << 20;
  /// When nonempty, graceful shutdown writes <dir>/<tenant>.json for
  /// every live tenant.
  std::string results_dir;
};

class Server {
 public:
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_errored = 0;  ///< closed on a protocol violation
    std::uint64_t frames = 0;
    std::uint64_t flushes = 0;
    std::uint64_t records_ingested = 0;  ///< record_count summed over accepted frames
    std::uint64_t http_requests = 0;
  };

  Server(EventLoop& loop, ServeConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + register with the loop. Throws on bind failure.
  void start();

  /// Bound ports (after start(); meaningful with port 0).
  [[nodiscard]] std::uint16_t ingest_port() const { return ingest_port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }

  /// Graceful completion: flush every tenant's reorder window, write
  /// per-tenant results files when `results_dir` is set, publish final
  /// metrics. Call after run() returns (or before reading results in
  /// loop-driving tests).
  void finish();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] TenantRegistry& tenants() { return tenants_; }
  [[nodiscard]] std::size_t connections_active() const { return ingest_conns_.size(); }

  /// Refresh the obs gauges (connections, tenant queue peaks). Runs on
  /// every /metrics scrape and on finish().
  void publish_metrics();

 private:
  class Listener;
  class IngestConnection;

  void accept_ingest();
  void accept_http();
  [[nodiscard]] HttpResponse route(const HttpRequest& req);
  void close_ingest(int fd);
  void close_http(int fd);
  void arm_idle_evict();

  EventLoop& loop_;
  ServeConfig cfg_;
  TenantRegistry tenants_;
  Stats stats_;

  int ingest_listen_fd_ = -1;
  int http_listen_fd_ = -1;
  std::uint16_t ingest_port_ = 0;
  std::uint16_t http_port_ = 0;
  std::unique_ptr<Listener> ingest_listener_;
  std::unique_ptr<Listener> http_listener_;

  std::map<int, std::unique_ptr<IngestConnection>> ingest_conns_;
  std::map<int, std::unique_ptr<HttpConnection>> http_conns_;

  /// The idle-eviction timer; 0 while none is armed (idle_evict == 0).
  EventLoop::TimerId idle_timer_ = 0;
  bool finished_ = false;
};

}  // namespace dnsctx::serve
