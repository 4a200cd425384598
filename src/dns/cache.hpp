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
//
// Layout. Held entries are most of a long run's memory (device caches
// keep records well past their TTL), so each entry is one 64-byte slab
// slot that holds its own answer set:
//   * the index maps a packed (name id, type) word to a slab slot;
//   * a slot keeps the insert time, the servable deadline, its LRU links
//     (slot numbers), the key, rcode, origin and a used flag; the TTL
//     boundary is recomputed from the set's TTL and the config's clamps;
//   * the answer set (AnswerSet) keeps one TTL for the whole set, each
//     A record as its 4-byte address, each AAAA as its 16 bytes and each
//     CNAME target as a DomainName handle. Owners are implied: the chain
//     starts at the queried name and each CNAME moves it to its target.
//     Up to 20 bytes of that sit inside the slot (one A to five A, one
//     AAAA, CNAME then A); a longer set takes one out-of-line block;
//   * a set outside that form (mixed TTLs, an owner off the chain,
//     another type or class, a CNAME after an address) is kept as given,
//     in one out-of-line block of ResourceRecords.
// Reads (lookup, peek) copy nothing: the hit borrows the entry's set as
// an AnswerView, which rebuilds ResourceRecords only when a caller asks
// for them, from stored handles: no read takes the name table's lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dns/message.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace dnsctx::dns {

/// A (name, type) question: the key of a stub's in-flight table.
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

/// One cached answer set in the compact form described at the top of
/// this file. Owns its out-of-line block, if any; move-only.
class AnswerSet {
 public:
  AnswerSet() = default;
  /// Encode `answers`, whose chain starts at `qname`.
  AnswerSet(std::span<const ResourceRecord> answers, const DomainName& qname);
  AnswerSet(AnswerSet&& other) noexcept;
  AnswerSet& operator=(AnswerSet&& other) noexcept;
  AnswerSet(const AnswerSet&) = delete;
  AnswerSet& operator=(const AnswerSet&) = delete;
  ~AnswerSet() { clear(); }

  /// Drop the set and its block; leaves the empty set.
  void clear();

  /// Records in the set.
  [[nodiscard]] std::size_t size() const;
  /// The smallest record TTL; 0 for the empty set.
  [[nodiscard]] std::uint32_t min_ttl() const { return ttl_; }
  /// Append the address of every A record, in answer order.
  void append_addresses(std::vector<Ipv4Addr>& out) const;
  /// The records as inserted, owners rebuilt from `qname`.
  [[nodiscard]] std::vector<ResourceRecord> records(const DomainName& qname) const;
  /// Bytes of the out-of-line block (0 when the set sits in its slot).
  [[nodiscard]] std::size_t block_bytes() const;

 private:
  /// Low two bits of shape_: the address type after the CNAME hops, or
  /// kRecords for a set kept as given.
  enum Kind : std::uint8_t { kNone = 0, kA = 1, kAaaa = 2, kRecords = 3 };
  static constexpr std::size_t kInline = 20;

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(shape_ & 3); }
  [[nodiscard]] std::size_t hops() const { return shape_ >> 2; }
  [[nodiscard]] std::size_t compact_bytes() const;
  [[nodiscard]] bool out_of_line() const;
  /// The compact bytes, inline or in the block.
  [[nodiscard]] const std::byte* data() const;
  [[nodiscard]] void* block() const;

  std::uint32_t ttl_ = 0;
  std::uint16_t count_ = 0;  ///< addresses (compact form) or records (kRecords)
  std::uint8_t shape_ = 0;   ///< Kind | hops << 2
  /// Compact bytes (CNAME handles, then addresses), or the block pointer.
  std::byte data_[kInline] = {};
};

/// A cached answer set read in place, bound to the name it answers.
/// Borrowed: valid until the next call that changes the cache.
class AnswerView {
 public:
  AnswerView(const AnswerSet& set, const DomainName& qname) : set_{&set}, qname_{qname} {}

  [[nodiscard]] std::size_t size() const { return set_->size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  void append_addresses(std::vector<Ipv4Addr>& out) const { set_->append_addresses(out); }
  [[nodiscard]] std::vector<ResourceRecord> records() const { return set_->records(qname_); }

 private:
  const AnswerSet* set_;
  DomainName qname_;
};

/// Result of a successful cache lookup. Borrowed: `answers` reads the
/// entry in place and is valid only until the next call that changes
/// the cache. Callers read addresses from it, or rebuild records
/// (`answers.records()`) only for what they send.
struct CacheHit {
  AnswerView answers;  ///< empty for negative entries
  Rcode rcode = Rcode::kNoError;
  SimTime inserted_at;
  SimTime expires_at;   ///< TTL expiry (not including stale window)
  bool expired = false; ///< true when served from the stale window
  CacheOrigin origin = CacheOrigin::kQuery;
  bool first_use = false;  ///< this counting lookup is the entry's first hit
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

/// Heap bytes a cache's own containers hold, counted from their
/// capacities.
struct CacheBytes {
  std::size_t entries = 0;  ///< the slab of 64-byte slots
  std::size_t index = 0;    ///< the (name id, type) → slot table
  /// Out-of-line answer blocks; not the heap that the rdata of a set
  /// kept as given owns (TXT text, raw bytes).
  std::size_t blocks = 0;
  [[nodiscard]] std::size_t total() const { return entries + index + blocks; }
};

/// The cache proper. Not thread-safe: each simulation shard's caches are
/// touched only by the thread running that shard.
class DnsCache {
 public:
  explicit DnsCache(CacheConfig cfg = {});

  /// Insert/replace the entry for (qname, qtype). `extra_hold` extends
  /// the servable lifetime beyond the TTL for this entry only — the
  /// mechanism behind modelled TTL violations. Records the min answer
  /// TTL as the entry TTL, clamped per config. The set is copied in its
  /// compact form; at most 65 535 records.
  void insert(const DomainName& qname, RrType qtype, std::span<const ResourceRecord> answers,
              Rcode rcode, SimTime now, SimDuration extra_hold = SimDuration::zero(),
              CacheOrigin origin = CacheOrigin::kQuery);

  /// Look up (qname, qtype). Counts a hit or miss and moves a hit to the
  /// front of the LRU order. Entries past their servable lifetime are
  /// treated as absent (and dropped lazily). The hit borrows from the
  /// entry: read it before the next cache call.
  [[nodiscard]] std::optional<CacheHit> lookup(const DomainName& qname, RrType qtype,
                                               SimTime now);

  /// Non-counting, non-mutating probe; borrows like lookup().
  [[nodiscard]] std::optional<CacheHit> peek(const DomainName& qname, RrType qtype,
                                             SimTime now) const;

  /// Drop every entry whose servable lifetime has passed.
  void purge_expired(SimTime now);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] CacheBytes bytes() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;
  /// One slab slot. The LRU chain is intrusive (slot links, no per-touch
  /// node allocation) and survives index rehashes, which move only
  /// (key, slot) pairs. Free slots chain through `lru_next`.
  struct Entry {
    SimTime inserted_at;
    SimTime servable_until;  ///< TTL + per-entry hold + config stale window
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    util::NameId name = 0;
    RrType type = RrType::kA;
    Rcode rcode = Rcode::kNoError;
    CacheOrigin origin = CacheOrigin::kQuery;
    bool used = false;  ///< a counting lookup has hit it
    AnswerSet answers;
  };
  static_assert(sizeof(Entry) == 64);

  [[nodiscard]] static std::uint64_t key_of(util::NameId name, RrType type) {
    return static_cast<std::uint64_t>(name) << 16 | static_cast<std::uint16_t>(type);
  }
  /// The TTL boundary: the set's TTL, clamped per config.
  [[nodiscard]] SimTime expires_at(const Entry& e) const;
  [[nodiscard]] CacheHit view(const Entry& e, const DomainName& qname, SimTime now) const;
  void touch(std::uint32_t idx);
  void evict_lru();
  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);
  /// Unlink + index-erase + return the slot to the free list.
  void remove_at(std::uint32_t idx);

  CacheConfig cfg_;
  util::FlatMap<std::uint64_t, std::uint32_t> index_;
  std::vector<Entry> slab_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t lru_head_ = kNil;  ///< most recently used
  std::uint32_t lru_tail_ = kNil;  ///< least recently used
  std::size_t block_bytes_ = 0;    ///< sum of the held sets' block_bytes()
  CacheStats stats_;
};

}  // namespace dnsctx::dns
