// dnsctx — multi-tenant session layer: tenant name → OnlineStudy.
//
// Each tenant owns one bounded-memory stream::OnlineStudy fronted by a
// stream::LiveFeed, so producers may deliver conn and dns segments in
// any interleaving: records buffer in the reorder window and are
// released in the canonical (key time, dns-before-conn, arrival) order
// whenever the watermark advances — exactly the `stream --follow`
// discipline, which is what makes /results byte-identical to a batch
// run over the same records.
//
// Watermark rule (per tenant): track the newest `last_ts` seen per
// record kind; once both kinds have appeared, every record strictly
// below min(conn_front, dns_front) is safe to release, because segment
// streams are time-ordered per kind (future segments of a kind never
// start before that kind's newest last_ts — they may start AT it, so
// the frontier itself stays buffered until FLUSH).
//
// Backpressure: incoming segments land in a bounded per-tenant queue
// drained by the event loop's idle-work pump (a few segments per
// iteration, so one firehose producer cannot starve HTTP). When the
// queue is full the ingest connections feeding the tenant pause reads
// (EPOLLIN off) and resume when it drains — TCP then pushes back on
// the producer. See docs/SERVE.md.
//
// Tenants are created by the handshake (capped at max_tenants) and
// evicted after `idle_evict` with no frames and no attached
// connections. Each engine evicts its own dead candidates as records
// arrive, so a live tenant needs no timer to stay within its window.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
  /// Bounded ingest queue depth, in segments, per tenant.
  std::size_t max_queued_segments = 64;
  stream::OnlineStudyConfig study;
};

class Tenant {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tenant(std::string name, const stream::OnlineStudyConfig& cfg);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Queue one validated segment view (zero-copy: the view owns the
  /// frame bytes; records decode when the pump applies it). Callers
  /// must check !queue_full() first.
  void enqueue(stream::SegmentView&& seg);
  [[nodiscard]] bool queue_full() const { return queue_.size() >= max_queued_; }
  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_peak() const { return queue_peak_; }
  void set_queue_limit(std::size_t n) { max_queued_ = n; }

  /// Apply one queued segment to the feed and advance the watermark.
  /// Returns false when the queue was empty.
  bool process_one();

  /// Release everything still buffered in the reorder window (FLUSH
  /// frame, or graceful shutdown).
  void flush();

  /// Records released to the engine so far (the ack value: exactly
  /// what /results would report at this instant).
  [[nodiscard]] std::uint64_t records_released() const { return released_.count; }
  [[nodiscard]] std::uint64_t records_queued() const { return records_queued_; }

  [[nodiscard]] std::string results() const { return result_json(engine_.finalize()); }
  [[nodiscard]] const stream::OnlineStudy& engine() const { return engine_; }

  // ---- idle / eviction bookkeeping (driven by TenantRegistry) ----
  void touch(Clock::time_point now) { last_activity_ = now; }
  [[nodiscard]] Clock::time_point last_activity() const { return last_activity_; }
  void attach() { ++attached_; }
  void detach() { --attached_; }
  [[nodiscard]] std::size_t attached() const { return attached_; }

  /// Connections paused on this tenant's full queue; the registry pump
  /// invokes and clears them once the queue has drained.
  void on_drained(std::function<void()> resume) { waiters_.push_back(std::move(resume)); }

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

  void maybe_drain();

  std::string name_;
  stream::OnlineStudy engine_;
  CountingSink released_;
  stream::LiveFeed feed_;

  std::deque<stream::SegmentView> queue_;
  std::size_t max_queued_;
  std::size_t queue_peak_ = 0;
  std::uint64_t records_queued_ = 0;

  SimTime conn_front_;
  SimTime dns_front_;
  bool any_conn_ = false;
  bool any_dns_ = false;

  Clock::time_point last_activity_;
  std::size_t attached_ = 0;
  std::vector<std::function<void()>> waiters_;
};

class TenantRegistry {
 public:
  explicit TenantRegistry(TenantConfig cfg) : cfg_{std::move(cfg)} {}

  /// Find-or-create for a handshake. Returns nullptr with `*error` set
  /// when the tenant table is full.
  [[nodiscard]] std::shared_ptr<Tenant> open(const std::string& name, std::string* error);

  /// Lookup only (HTTP results path). nullptr when absent/evicted.
  [[nodiscard]] std::shared_ptr<Tenant> find(const std::string& name) const;

  /// Drain queued segments, up to `budget` across all tenants (round-
  /// robin). Returns true while segments remain queued.
  bool pump(std::size_t budget);

  /// Remove the tenants idle for `idle_evict` (no frames, nothing
  /// queued, no attached connection). `now` is passed in so tests can
  /// drive time explicitly.
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
