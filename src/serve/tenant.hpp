// dnsctx — multi-tenant session layer: tenant name → OnlineStudy.
//
// Each tenant owns one stream::OnlineStudy fronted by a
// stream::SegmentFeed, so producers may deliver conn and dns segments in
// any interleaving: records buffer in the reorder window and are
// released in the canonical (key time, dns-before-conn, arrival) order
// as the segments' watermark advances — the same rule `stream --follow`
// applies, which is what makes /results byte-identical to a batch run
// over the same records.
//
// A connection hands each decoded segment to its tenant and applies it
// at once (enqueue, then process_one), so at most one segment is ever
// held. Backpressure is TCP's: while the loop applies what it has read
// it reads nothing more, the socket buffers fill and the producer
// blocks. See docs/SERVE.md.
//
// Tenants are created by the handshake (capped at max_tenants) and
// evicted after `idle_evict` with no frames and no attached
// connections; one that no segment reached goes at once when its only
// connection is closed for a protocol violation. Each engine evicts the candidates the shadow rule
// retires as records arrive, but the rule keeps every (house, address)
// list's newest candidate and its DNS record, so a tenant's memory
// grows with the distinct pairs it has ever seen answered.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "stream/feed.hpp"
#include "stream/online_study.hpp"
#include "stream/segment_view.hpp"

namespace dnsctx::serve {

/// Deterministic JSON rendering of a finalized online study — the
/// /results/<tenant> payload. Doubles print with %.17g, so two engines
/// that ingested identical record sequences render byte-identical
/// documents (the loopback-equivalence contract in tests/serve).
[[nodiscard]] std::string result_json(const stream::OnlineStudyResult& r);

struct TenantConfig {
  std::size_t max_tenants = 64;
  /// Evict a tenant this long after its last frame (zero = never).
  std::chrono::milliseconds idle_evict{0};
  stream::OnlineStudyConfig study;
};

class Tenant {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tenant(std::string name, const stream::OnlineStudyConfig& cfg);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Hold one validated segment (zero-copy: the view owns the frame
  /// bytes; records decode when process_one() applies it). A segment
  /// still held is applied first, so nothing is dropped.
  void enqueue(stream::SegmentView&& seg);
  /// Most segments held at once: 1 after the first frame, because the
  /// server applies each segment as soon as it is decoded.
  [[nodiscard]] std::size_t queue_peak() const { return queue_peak_; }

  /// Apply the held segment to the feed and advance the watermark.
  /// Returns false when no segment was held.
  bool process_one();

  /// Release everything still buffered in the reorder window (FLUSH
  /// frame, or graceful shutdown).
  void flush();

  /// Records released to the engine so far (the ack value: exactly
  /// what /results would report at this instant).
  [[nodiscard]] std::uint64_t records_released() const { return released_.count; }

  [[nodiscard]] std::string results() const { return result_json(engine_.finalize()); }
  [[nodiscard]] const stream::OnlineStudy& engine() const { return engine_; }

  // ---- idle / eviction bookkeeping (driven by TenantRegistry) ----
  void touch(Clock::time_point now) { last_activity_ = now; }
  [[nodiscard]] Clock::time_point last_activity() const { return last_activity_; }
  void attach() { ++attached_; }
  void detach() { --attached_; }
  [[nodiscard]] std::size_t attached() const { return attached_; }

 private:
  /// Counts records crossing into the engine, so acks and gauges never
  /// pay for a finalize().
  struct CountingSink : capture::RecordSink {
    explicit CountingSink(stream::OnlineStudy& e) : engine{&e} {}
    void on_conn(const capture::ConnRecord& rec) override {
      ++count;
      engine->on_conn(rec);
    }
    void on_dns(const capture::DnsRecord& rec) override {
      ++count;
      engine->on_dns(rec);
    }
    stream::OnlineStudy* engine;
    std::uint64_t count = 0;
  };

  std::string name_;
  stream::OnlineStudy engine_;
  CountingSink released_;
  stream::SegmentFeed feed_;

  std::optional<stream::SegmentView> held_;
  std::size_t queue_peak_ = 0;

  Clock::time_point last_activity_;
  std::size_t attached_ = 0;
};

class TenantRegistry {
 public:
  explicit TenantRegistry(TenantConfig cfg) : cfg_{std::move(cfg)} {}

  /// Find-or-create for a handshake. Returns nullptr with `*error` set
  /// when the tenant table is full.
  [[nodiscard]] std::shared_ptr<Tenant> open(const std::string& name, std::string* error);

  /// Lookup only (HTTP results path). nullptr when absent/evicted.
  [[nodiscard]] std::shared_ptr<Tenant> find(const std::string& name) const;

  /// Remove `tenant` when no segment ever reached it and the caller's
  /// connection, closing for a protocol violation, is its only one: the
  /// handshake alone must not hold a max_tenants slot for good.
  void drop_unfed(const Tenant& tenant);

  /// Remove the tenants idle for `idle_evict` (no frames and no
  /// attached connection). `now` is passed in so tests can drive time
  /// explicitly.
  void evict_idle(Tenant::Clock::time_point now);

  /// Flush every tenant's reorder window (graceful shutdown).
  void flush_all();

  [[nodiscard]] std::size_t size() const { return tenants_.size(); }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }
  [[nodiscard]] const TenantConfig& config() const { return cfg_; }

  /// Iterate tenants in name order (results snapshot on shutdown).
  void for_each(const std::function<void(const Tenant&)>& fn) const;

 private:
  TenantConfig cfg_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::uint64_t evicted_ = 0;
  std::uint64_t last_published_evicted_ = 0;  ///< obs counter high-water
};

}  // namespace dnsctx::serve
