// dnsctx — failure & recovery analysis over the passive datasets.
//
// Impaired runs (packet loss, resolver outages, injected SERVFAIL)
// leave fingerprints the monitor CAN see: unanswered dns.log entries,
// SERVFAIL rcodes, bursts of same-name lookups as stubs retry and fail
// over, and S0/REJ connection attempts. This module rolls those up into
// a FailureReport: per-outcome lookup tallies, observable retry chains
// (consecutive lookups for the same (house, qname, qtype) separated by
// failed attempts), and recovery/failure timing distributions.
//
// The ChainTracker is shared verbatim between batch analysis and
// stream::OnlineStudy. Every aggregate in FailureCounts is an integer
// (durations are summed microseconds), so batch and stream produce
// bit-identical counters under every fault plan regardless of
// accumulation order — the same argument that makes the rest of the
// online engine equivalent to batch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "capture/records.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace dnsctx::analysis {

struct ClassCounts;  // classify.hpp

/// Integer-only failure aggregates (directly comparable batch ≡ stream).
struct FailureCounts {
  // Per-lookup outcomes, one per dns.log record.
  std::uint64_t lookups = 0;
  std::uint64_t answered_ok = 0;  ///< NOERROR with at least one address
  std::uint64_t nodata = 0;       ///< NOERROR, empty answer (e.g. AAAA on v4-only)
  std::uint64_t nxdomain = 0;
  std::uint64_t servfail = 0;
  std::uint64_t other_rcode = 0;
  std::uint64_t unanswered = 0;  ///< query seen, no response before the monitor flush

  // Observable retry chains. A chain opens at a failed attempt
  // (unanswered or SERVFAIL) and extends while follow-up lookups for
  // the same (house, qname, qtype) arrive within the chain gap; it
  // closes on a definitive answer (NOERROR/NXDOMAIN — recovered) or
  // when the client stops retrying (failed).
  std::uint64_t retry_chains = 0;      ///< closed chains with >= 2 lookups
  std::uint64_t retry_lookups = 0;     ///< lookups beyond the first in those chains
  std::uint64_t recovered_chains = 0;  ///< >= 2 lookups, ended in a definitive answer
  std::uint64_t failed_chains = 0;     ///< ended without one (any length)
  /// Closed-chain length histogram: index min(len, 8) - 1.
  std::array<std::uint64_t, 8> chain_len_hist{};
  std::int64_t recovered_wait_us = 0;  ///< Σ first query → definitive answer
  std::int64_t failed_wait_us = 0;     ///< Σ first query → last failed attempt end

  // Connection-side failure signals.
  std::uint64_t s0_conns = 0;   ///< SYN, no reply
  std::uint64_t rej_conns = 0;  ///< SYN answered by RST

  bool operator==(const FailureCounts&) const = default;
};

/// Incremental retry-chain state machine. Feed records in canonical
/// (timestamp, merge-order) order — the order both the batch dataset
/// and the streaming feed deliver. Bounded memory: evict_before()
/// closes the chains the DNS frontier has passed, taking them from a
/// min-heap on each chain's due time last_end + gap, so a streaming
/// caller may advance the frontier on every record.
class ChainTracker {
 public:
  ChainTracker() = default;
  /// `keep_samples` additionally records per-chain timing samples into
  /// recovered_ms()/failed_ms() — batch-only (the streaming engine
  /// keeps counters, mirroring its treatment of the figure CDFs).
  explicit ChainTracker(SimDuration gap, bool keep_samples = false)
      : gap_{gap}, keep_samples_{keep_samples} {}

  void on_dns(const capture::DnsRecord& rec);
  void on_conn(const capture::ConnRecord& rec);

  /// Close every chain that can no longer extend: no record at or after
  /// `dns_frontier` can land within its gap. SimTime::max() closes all.
  /// Costs O(log chains) per chain closed, nothing when none is due.
  void evict_before(SimTime dns_frontier);

  /// Copy accumulated counters into `out`, folding still-open chains in
  /// as failed (non-destructive: callable repeatedly, e.g. from the
  /// online engine's const finalize()).
  void fold_into(FailureCounts& out) const;

  /// Merge another tracker covering a DISJOINT set of houses (shard
  /// absorb). Throws std::logic_error on a house collision.
  void absorb(ChainTracker&& other);

  [[nodiscard]] const Cdf& recovered_ms() const { return recovered_ms_; }
  [[nodiscard]] const Cdf& failed_ms() const { return failed_ms_; }

 private:
  struct Chain {
    std::int64_t first_us = 0;     ///< ts of the opening failed attempt
    std::int64_t last_end_us = 0;  ///< max(ts + duration) across members
    std::uint32_t len = 1;
  };
  struct House {
    util::FlatMap<std::uint64_t, Chain> chains;  ///< key: (NameId << 16) | qtype
  };
  /// A chain's place in the due heap. Lazy: an entry whose chain has
  /// closed or extended since (its last_end_us + gap moved) is skipped.
  struct DueChain {
    std::int64_t due_us;  ///< last_end_us + gap when pushed
    Ipv4Addr house;
    std::uint64_t key;
  };

  void schedule(Ipv4Addr house, std::uint64_t key, const Chain& chain);
  void close_recovered(const Chain& chain, std::int64_t answer_us);
  void close_failed(const Chain& chain);
  static void fold_failed(FailureCounts& out, const Chain& chain);

  SimDuration gap_ = SimDuration::sec(15);
  bool keep_samples_ = false;
  util::FlatMap<Ipv4Addr, House> houses_;
  std::vector<DueChain> due_chains_;  ///< min-heap on due_us
  FailureCounts counts_;
  Cdf recovered_ms_;
  Cdf failed_ms_;
};

struct FailureReportConfig {
  /// Max spacing between chain members. Covers the stub's worst
  /// observable gap (two 3 s attempts per resolver before failover,
  /// stretched by plan backoff) with slack for queue delay.
  SimDuration chain_gap = SimDuration::sec(15);
};

struct FailureReport {
  FailureCounts counts;
  Cdf recovered_ms;  ///< time from first query to the recovering answer
  Cdf failed_ms;     ///< span of chains that never recovered
};

[[nodiscard]] FailureReport build_failure_report(const capture::Dataset& ds,
                                                 FailureReportConfig cfg = {});

[[nodiscard]] std::string format_failure_report(const FailureReport& report);

/// Side-by-side {N, LC, P, SC, R} shares for an impaired run against
/// its unimpaired baseline — the per-class shift the fault plan caused.
[[nodiscard]] std::string format_class_shift(const ClassCounts& baseline,
                                             const ClassCounts& impaired);

}  // namespace dnsctx::analysis
