// dnsctx — the paper's five-way connection taxonomy (Table 2, §5).
//
//   N  — no DNS pairing at all,
//   LC — local cache: gap > threshold, lookup previously used,
//   P  — prefetched: gap > threshold, first use of the lookup,
//   SC — blocked, answered from the shared resolver's cache (lookup
//        duration within the per-resolver RTT-derived threshold),
//   R  — blocked, required authoritative resolution.
//
// The SC/R split uses §5.3's procedure: for every resolver handling
// enough lookups, read the cache-hit mode off the lookup-duration
// distribution (≈ the network RTT) and set the cutoff just above it.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pairing.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace dnsctx::analysis {

enum class ConnClass : std::uint8_t { kN, kLC, kP, kSC, kR };

[[nodiscard]] std::string_view to_string(ConnClass c);

struct ClassifyConfig {
  SimDuration blocked_threshold = SimDuration::ms(100);  ///< §4's conservative cut
  /// Resolvers with at least this many answered lookups get their own
  /// SC/R threshold; the rest use `default_threshold_ms` (§5.3 uses
  /// 1000 lookups and 5 ms at paper scale).
  std::uint64_t per_resolver_min_lookups = 1'000;
  double default_threshold_ms = 5.0;
};

struct ClassCounts {
  std::uint64_t n = 0, lc = 0, p = 0, sc = 0, r = 0;

  void add(ConnClass c) {
    switch (c) {
      case ConnClass::kN: ++n; break;
      case ConnClass::kLC: ++lc; break;
      case ConnClass::kP: ++p; break;
      case ConnClass::kSC: ++sc; break;
      case ConnClass::kR: ++r; break;
    }
  }
  void merge(const ClassCounts& o) {
    n += o.n;
    lc += o.lc;
    p += o.p;
    sc += o.sc;
    r += o.r;
  }

  [[nodiscard]] std::uint64_t total() const { return n + lc + p + sc + r; }
  [[nodiscard]] std::uint64_t blocked() const { return sc + r; }
  [[nodiscard]] double share(std::uint64_t part) const {
    return total() ? static_cast<double>(part) / static_cast<double>(total()) : 0.0;
  }
  /// §5.3's shared-cache hit rate: SC / (SC + R).
  [[nodiscard]] double shared_cache_hit_rate() const {
    return blocked() ? static_cast<double>(sc) / static_cast<double>(blocked()) : 0.0;
  }
};

struct Classified {
  std::vector<ConnClass> classes;  ///< parallel to Dataset::conns
  ClassCounts counts;
  util::FlatMap<Ipv4Addr, double> resolver_threshold_ms;

  // §5.2 companion statistics.
  std::uint64_t lc_expired = 0;      ///< LC connections using expired records
  std::uint64_t p_expired = 0;       ///< P connections using expired records
  Cdf lc_gap_sec;                    ///< lookup→use gap for LC (median 1033 s in paper)
  Cdf p_gap_sec;                     ///< ... for P (median 310 s in paper)
  Cdf lc_violation_late_sec;         ///< how long past expiry LC records are used

  [[nodiscard]] double lc_expired_frac() const {
    return counts.lc ? static_cast<double>(lc_expired) / static_cast<double>(counts.lc) : 0.0;
  }
  [[nodiscard]] double p_expired_frac() const {
    return counts.p ? static_cast<double>(p_expired) / static_cast<double>(counts.p) : 0.0;
  }
};

/// One resolver's §5.3 material: how many answered lookups it had, and
/// their durations within the 40 ms mode window [min, min + 40 ms],
/// which is all the threshold derivation reads of them. Shared verbatim
/// by derive_resolver_thresholds and stream::OnlineStudy.
///
/// The durations start as a plain list (8 B a sample); once the list
/// would take more bytes than counters, they become 40 001 32-bit
/// counters, one per µs above the minimum (156 KiB). Memory thus grows
/// with the samples, so a flood of one-lookup resolvers costs a list
/// entry each, and a busy resolver's lookup costs one indexed,
/// overflow-checked increment. A falling minimum shifts the counters.
/// Every form reads the same multiset, so the threshold is exact.
class ModeWindow {
 public:
  void add(SimDuration duration);
  /// Add every sample of `other`.
  void merge(ModeWindow&& other);
  /// Answered lookups added, in the window or not.
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// §5.3's SC/R cutoff: the cache-hit mode (the midpoint of the most
  /// populated 0.5 ms bin over the window) plus the paper's "small
  /// amount of rounding" (2 ms RTT → 5 ms threshold).
  [[nodiscard]] double threshold_ms() const;

 private:
  /// Put one duration in the window (or nowhere, above it).
  void place(std::int64_t us);
  void lower_to(std::int64_t us);

  std::uint64_t count_ = 0;
  std::int64_t min_us_ = std::numeric_limits<std::int64_t>::max();
  /// Samples, while they take fewer bytes than counters (20 000); a
  /// falling minimum leaves stale ones behind, which reads skip.
  std::vector<std::int64_t> listed_;
  /// Once the list is full: counts_[i] counts durations of min_us_ + i µs
  /// for i in [0, 40 000]; shifted when the minimum falls, so samples
  /// that leave the window drop off the top.
  std::vector<std::uint32_t> counts_;
};

/// Derive per-resolver SC/R duration thresholds from the DNS log alone
/// (exposed separately for tests and the ablation bench).
[[nodiscard]] util::FlatMap<Ipv4Addr, double> derive_resolver_thresholds(
    const capture::Dataset& ds, const ClassifyConfig& cfg, unsigned threads = 1);

/// Classify every connection. Map-reduce over fixed connection chunks:
/// identical output for any `threads`.
[[nodiscard]] Classified classify_connections(const capture::Dataset& ds,
                                              const PairingResult& pairing,
                                              const ClassifyConfig& cfg = {},
                                              unsigned threads = 1);

}  // namespace dnsctx::analysis
