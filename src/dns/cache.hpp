// dnsctx — TTL-aware DNS cache used by stub resolvers (per device), the
// §8 whole-house forwarder, and recursive resolver platforms.
//
// The cache supports the behaviours the paper observes in the wild:
//   * strict RFC 1035 TTL expiry,
//   * TTL *violations* — entries held past expiry (§5.2 finds 22.2% of
//     local-cache connections use expired records, median 890 s late),
//     modelled as a per-entry extra hold time assigned at insert,
//   * TTL clamping (public resolvers cap or floor TTLs),
//   * bounded capacity with LRU eviction,
//   * negative caching (RFC 2308) keyed by rcode.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dns/message.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace dnsctx::dns {

/// A (name, type) question: the key of the cache and of a stub's
/// in-flight table.
using CacheKey = std::pair<DomainName, RrType>;

/// Packs both fields into one word, so each reaches the low bits
/// util::FlatMap indexes with.
struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
    return hash_combine(0, static_cast<std::uint64_t>(k.first.id()) << 16 |
                               static_cast<std::uint64_t>(k.second));
  }
};

/// Cache configuration knobs.
struct CacheConfig {
  std::size_t capacity = 10'000;       ///< max entries before LRU eviction
  std::uint32_t min_ttl_sec = 0;       ///< clamp floor applied at insert
  std::uint32_t max_ttl_sec = 0;       ///< clamp ceiling (0 = none)
  /// If > 0, entries remain servable for this long past TTL expiry
  /// ("serve stale"); the lookup result is flagged `expired`.
  SimDuration max_stale = SimDuration::zero();
};

/// How an entry got into the cache — ground truth for the paper's
/// LC-vs-P split (§5.2) and for resolver-less server pushes: a query
/// answer, a speculative (prefetch) answer, or a server-pushed record
/// that involved no lookup at all.
enum class CacheOrigin : std::uint8_t {
  kQuery = 0,
  kSpeculative = 1,
  kPushed = 2,
};

/// Result of a successful cache lookup.
struct CacheHit {
  std::vector<ResourceRecord> answers;  ///< empty for negative entries
  Rcode rcode = Rcode::kNoError;
  SimTime inserted_at;
  SimTime expires_at;   ///< TTL expiry (not including stale window)
  bool expired = false; ///< true when served from the stale window
  CacheOrigin origin = CacheOrigin::kQuery;
  bool first_use = false;  ///< this counting lookup is the entry's first hit
};

/// Borrowed counterpart of CacheHit: `answers` points into the cache
/// entry and is valid only until the next cache mutation. For callers
/// that read the answer set in place instead of re-serving it.
struct CacheHitView {
  const std::vector<ResourceRecord>* answers = nullptr;
  Rcode rcode = Rcode::kNoError;
  SimTime inserted_at;
  SimTime expires_at;
  bool expired = false;
  CacheOrigin origin = CacheOrigin::kQuery;
  bool first_use = false;
};

/// Running hit/miss counters (for Table 3-style accounting).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t expired_hits = 0;  ///< subset of hits served stale
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// The cache proper. Not thread-safe (the simulation is single-threaded
/// by design; determinism requires a single event order).
class DnsCache {
 public:
  explicit DnsCache(CacheConfig cfg = {});

  /// Insert/replace the entry for (qname, qtype). `extra_hold` extends
  /// the servable lifetime beyond the TTL for this entry only — the
  /// mechanism behind modelled TTL violations. Records the min answer
  /// TTL as the entry TTL, clamped per config.
  void insert(const DomainName& qname, RrType qtype, std::vector<ResourceRecord> answers,
              Rcode rcode, SimTime now, SimDuration extra_hold = SimDuration::zero(),
              CacheOrigin origin = CacheOrigin::kQuery);

  /// Look up (qname, qtype). Counts a hit or miss. Entries past their
  /// servable lifetime are treated as absent (and dropped lazily).
  [[nodiscard]] std::optional<CacheHit> lookup(const DomainName& qname, RrType qtype,
                                               SimTime now);

  /// lookup() without copying the answer set: same counters, LRU touch
  /// and lazy expiry; the returned view borrows from the entry and must
  /// be consumed before the next cache call.
  [[nodiscard]] std::optional<CacheHitView> lookup_view(const DomainName& qname, RrType qtype,
                                                        SimTime now);

  /// Non-counting, non-mutating probe (used by analysis/simulators).
  [[nodiscard]] std::optional<CacheHit> peek(const DomainName& qname, RrType qtype,
                                             SimTime now) const;

  /// Drop every entry whose servable lifetime has passed.
  void purge_expired(SimTime now);

  /// Remove a single entry if present.
  void erase(const DomainName& qname, RrType qtype);

  void clear();

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Visit every live entry: fn(qname, qtype, expires_at). Used by the
  /// refresh simulator to find entries nearing expiry. Visits in
  /// most-recently-used-first order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t idx = lru_head_; idx != kNil; idx = slab_[idx].lru_next) {
      const Entry& e = slab_[idx];
      fn(e.key.first, e.key.second, e.expires_at);
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;
  /// Entries live in a recycled slab so the LRU chain is intrusive
  /// (index links, no per-touch list-node allocation) and survives map
  /// rehashes, which move only (key, index) pairs.
  struct Entry {
    CacheKey key;
    std::vector<ResourceRecord> answers;
    Rcode rcode = Rcode::kNoError;
    SimTime inserted_at;
    SimTime expires_at;      ///< TTL boundary
    SimTime servable_until;  ///< TTL + per-entry hold + config stale window
    CacheOrigin origin = CacheOrigin::kQuery;
    std::uint64_t uses = 0;  ///< counting lookups served by this entry
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };

  void touch(std::uint32_t idx);
  void evict_lru();
  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);
  /// Unlink + map-erase + return the slot to the free list.
  void remove_at(std::uint32_t idx);

  CacheConfig cfg_;
  util::FlatMap<CacheKey, std::uint32_t, CacheKeyHash> map_;
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t lru_head_ = kNil;  ///< most recently used
  std::uint32_t lru_tail_ = kNil;  ///< least recently used
  CacheStats stats_;
};

}  // namespace dnsctx::dns
