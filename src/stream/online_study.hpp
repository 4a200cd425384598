// dnsctx — streaming online study engine.
//
// OnlineStudy is a RecordSink that ingests a single time-sorted stream of
// conn/dns records (from replay_spool, replay_dataset, or a LiveFeed) and
// incrementally computes the paper's headline results: DN-Hunter pairing
// statistics (§4), the N/LC/P/SC/R taxonomy (Table 2, §5), Table 1's
// platform usage shares, the §6 significance quadrants, and the §7
// per-platform counters — without keeping the stream. Memory is not
// proportional to the active window, though: shadow eviction (below)
// never drops a (house, address) list's newest candidate or its DNS
// record, so the engine holds one candidate per (house, address) pair
// ever answered, plus its house/resolver/platform keys. On city's shape
// (2000 houses × 5 min) 226 337 of the ~227 000 candidates inserted are
// still held at the end.
//
// Determinism contract: for a stream delivered in the canonical order
// (nondecreasing key time, DNS before conn at ties, harvest order within
// ties) `finalize()` is bit-identical to the batch pipeline
// (analysis::run_study) on the same records — every double is produced by
// the same arithmetic on the same operands in the same order. The
// batch distribution outputs that inherently require retaining every
// sample (Fig 1/2/3 CDFs, knee detection) are the one deliberate
// omission; every count, share, threshold, and fraction streams.
//
// Three mechanisms keep memory small without giving up bit-exactness:
//
//  * Shadow eviction. Within one (house, address) candidate list sorted
//    by (response, seq), candidate cᵢ can never again be chosen once the
//    watermark reaches max(cᵢ.expires, cᵢ₊₁.response): future
//    connections start at/after the watermark, so cᵢ is dead for the
//    live scan and shadowed by cᵢ₊₁ for the most-recent-expired
//    fallback. The newest candidate of a list is never evicted — the
//    fallback may always reach it. A list therefore falls due at the
//    minimum of that time over its neighbour pairs; every list with a
//    finite due time sits in one min-heap keyed by it, and each ingest
//    compacts exactly the lists the watermark has reached. After every
//    record the engine holds exactly the candidates the rule keeps.
//    Retry chains (analysis::ChainTracker) close the same way.
//
//  * Deferred SC/R split. §5.3's per-resolver thresholds depend on the
//    full run, so blocked connections bank their lookup duration into a
//    per-resolver ceil-millisecond bin map; `finalize()` re-derives the
//    thresholds (replicating derive_resolver_thresholds exactly from the
//    low-end duration counts) and splits SC/R from the bins.
//    ceil(us/1000) <= T is provably equivalent to the batch double
//    compare us/1000.0 <= T for the integral thresholds §5.3 produces.
//
//  * Commutative cross-house state. Everything not under a single house
//    key (resolver accumulators, platform tallies, quadrant counters) is
//    a sum/min/union, so cross-house interleaving — and hence shard
//    count — cannot affect results.
//
// `absorb()` merges engines that ingested house-disjoint partitions,
// enabling sharded streaming with the same guarantees.
//
// Hot-path layout: houses, per-house candidate indexes, and resolver
// accumulators live in util::FlatMap (open addressing, no per-node
// allocation); platform tallies are dense vectors indexed by
// analysis::PlatformId; the conncheck hostname is interned once so the
// per-record test is an integer compare. Each resolver's §5.3 material
// is a ModeWindow: its answered-lookup durations within 40 ms of the
// smallest. They start as a plain list (8 B a sample); once the list
// would take more bytes than counters, they become 40 001 32-bit
// counters, one per µs above the minimum (156 KiB). A resolver's memory
// thus grows with its samples, so a flood of one-lookup resolvers costs
// a list entry each, and a busy resolver's answered lookup costs one
// indexed, overflow-checked increment. A falling minimum shifts the
// counters. finalize() reads the window in ascending µs, so the
// thresholds stay bit-identical to derive_resolver_thresholds.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/failures.hpp"
#include "analysis/tables.hpp"
#include "capture/records.hpp"
#include "util/flat_map.hpp"
#include "util/names.hpp"

namespace dnsctx::stream {

struct OnlineStudyConfig {
  analysis::ClassifyConfig classify;
  double abs_significance_ms = 20.0;  ///< §6 absolute criterion
  double rel_significance_pct = 1.0;  ///< §6 relative criterion
  analysis::PlatformDirectory directory = analysis::PlatformDirectory::standard();
  std::string conncheck_name = "connectivitycheck.gstatic.com";
  /// Retry-chain gap for the failure counters (matches
  /// analysis::FailureReportConfig::chain_gap).
  SimDuration chain_gap = SimDuration::sec(15);
};

struct OnlinePairingStats {
  std::uint64_t paired = 0;
  std::uint64_t unpaired = 0;
  std::uint64_t paired_expired = 0;
  std::uint64_t unique_candidate = 0;
  std::uint64_t multiple_candidates = 0;

  [[nodiscard]] double unique_candidate_frac() const {
    const auto total = unique_candidate + multiple_candidates;
    return total ? static_cast<double>(unique_candidate) / static_cast<double>(total) : 0.0;
  }
};

/// §6 quadrant fractions over SC ∪ R connections.
struct OnlineQuadrants {
  double insignificant_both = 0.0;
  double relative_only = 0.0;
  double absolute_only = 0.0;
  double significant_both = 0.0;
  double significant_overall = 0.0;  ///< q_sig over ALL connections
};

/// §7 per-platform counters (the streaming subset of PlatformPerf).
struct OnlinePlatformRow {
  std::string platform;
  std::uint64_t sc = 0;
  std::uint64_t r = 0;
  std::uint64_t conncheck_conns = 0;
  std::uint64_t total_conns = 0;

  [[nodiscard]] double hit_rate() const {
    const auto blocked = sc + r;
    return blocked ? static_cast<double>(sc) / static_cast<double>(blocked) : 0.0;
  }
  [[nodiscard]] double conncheck_frac() const {
    return total_conns
               ? static_cast<double>(conncheck_conns) / static_cast<double>(total_conns)
               : 0.0;
  }
};

struct OnlineStudyResult {
  std::uint64_t conns = 0;
  std::uint64_t dns = 0;

  OnlinePairingStats pairing;
  double unused_lookup_frac = 0.0;

  analysis::ClassCounts classes;
  std::uint64_t lc_expired = 0;
  std::uint64_t p_expired = 0;
  util::FlatMap<Ipv4Addr, double> resolver_threshold_ms;

  std::vector<analysis::Table1Row> table1;
  double isp_only_houses = 0.0;

  OnlineQuadrants quadrants;
  std::vector<OnlinePlatformRow> platforms;

  /// Failure/recovery counters (bit-identical to the batch
  /// build_failure_report counts under every fault plan; the batch-only
  /// timing CDFs are omitted like the other distribution outputs).
  analysis::FailureCounts failures;
};

class OnlineStudy : public capture::RecordSink {
 public:
  explicit OnlineStudy(OnlineStudyConfig cfg = {});

  /// Ingest. Records must arrive with nondecreasing key time per kind
  /// (conn keyed by `start`, dns by `ts`); regressions throw.
  void on_conn(const capture::ConnRecord& rec) override;
  void on_dns(const capture::DnsRecord& rec) override;

  /// Compute every derived result from the accumulators. Non-destructive
  /// — ingestion may continue and finalize() may be called again.
  [[nodiscard]] OnlineStudyResult finalize() const;

  /// Merge another engine that ingested a HOUSE-DISJOINT partition of
  /// the stream (same config). Throws if a house appears in both.
  void absorb(OnlineStudy&& other);

  // ---- memory introspection (the bounded-memory story, measurable) ----
  [[nodiscard]] std::uint64_t active_candidates() const { return active_candidates_; }
  [[nodiscard]] std::uint64_t active_records() const { return active_records_; }
  [[nodiscard]] std::size_t tracked_houses() const { return houses_.size(); }
  [[nodiscard]] SimTime watermark() const { return watermark_; }

 private:
  /// One DNS answer's candidacy for an address, ordered by
  /// (response, seq) — exactly the batch index order after its
  /// (response, dns_idx) sort.
  struct Candidate {
    SimTime response;
    SimTime expires;
    std::uint64_t seq;
  };

  /// Everything pairing/classification later needs from a DNS record,
  /// kept while any candidate still references it.
  struct RecordUse {
    std::uint32_t refs = 0;  ///< live candidates pointing here
    std::uint32_t uses = 0;  ///< connections paired to it so far
    SimDuration duration;
    Ipv4Addr resolver_ip;
    bool conncheck = false;
  };

  /// One (house, address) list's candidates, in (response, seq) order.
  struct CandidateList {
    std::vector<Candidate> cands;
    /// Watermark at which the shadow rule first evicts a candidate;
    /// SimTime::max() while none can go (fewer than two candidates).
    SimTime due = SimTime::max();
  };

  struct House {
    util::FlatMap<Ipv4Addr, CandidateList> index;
    util::FlatMap<std::uint64_t, RecordUse> records;
  };

  /// A list's place in the due heap. Lazy: an entry whose `due` no
  /// longer equals its list's is stale and skipped when popped.
  struct DueList {
    SimTime due;
    Ipv4Addr house;
    Ipv4Addr addr;
  };

  /// One resolver's answered-lookup durations within §5.3's 40 ms mode
  /// window [min, min + 40 ms], which is all the threshold derivation
  /// reads of them.
  class ModeWindow {
   public:
    void add(std::int64_t us);
    /// Add every sample of `other` (absorb()).
    void merge(ModeWindow&& other);
    /// Midpoint of the window's most populated bin in
    /// derive_resolver_thresholds' 80-bin histogram.
    [[nodiscard]] double mode_ms() const;

   private:
    void lower_to(std::int64_t us);
    void densify();

    std::int64_t min_us_ = std::numeric_limits<std::int64_t>::max();
    /// Samples, while they take fewer bytes than counters (20 000); a
    /// falling minimum leaves stale ones behind, which reads skip.
    std::vector<std::int64_t> listed_;
    /// After densify(): counts_[i] counts durations of min_us_ + i µs
    /// for i in [0, 40 000]; shifted when the minimum falls, so samples
    /// that leave the window drop off the top.
    std::vector<std::uint32_t> counts_;
  };

  /// §5.3 threshold derivation + deferred SC/R split state, per resolver.
  struct ResolverAcc {
    std::uint64_t answered = 0;
    ModeWindow window;
    /// Blocked-connection lookup durations as ceil-milliseconds bins.
    std::map<std::int64_t, std::uint64_t> blocked_ceil;
    std::uint64_t blocked_total = 0;
    std::uint64_t blocked_le_default = 0;
  };

  struct PlatTally {
    util::FlatSet<Ipv4Addr> houses;
    std::uint64_t lookups = 0;
    std::uint64_t conns = 0;
    std::uint64_t bytes = 0;
  };

  struct PlatConns {
    std::uint64_t total = 0;
    std::uint64_t conncheck = 0;
  };

  void note_time(SimTime& last, SimTime t, const char* kind);
  void schedule(CandidateList& list, SimTime due, Ipv4Addr house, Ipv4Addr addr);
  /// Compact every list the watermark has reached.
  void evict_due();
  void drop_candidate(House& house, const Candidate& cand);

  OnlineStudyConfig cfg_;
  /// cfg_.conncheck_name interned once; the per-record test is an id
  /// compare instead of a string compare.
  util::InternedName conncheck_name_;
  /// Id of the "Local" platform (a never-matching sentinel when the
  /// directory has no such platform — same semantics as the old string
  /// compare).
  analysis::PlatformId local_id_ = 0;

  // Pairing state.
  util::FlatMap<Ipv4Addr, House> houses_;
  std::uint64_t next_seq_ = 0;

  // Ordering / eviction bookkeeping.
  SimTime last_conn_;
  SimTime last_dns_;
  SimTime watermark_;
  bool any_conn_ = false;
  bool any_dns_ = false;
  /// Min-heap on `due` over the lists that can lose a candidate.
  std::vector<DueList> due_lists_;
  std::uint64_t active_candidates_ = 0;
  std::uint64_t active_records_ = 0;

  // Stream-wide counters.
  std::uint64_t conns_total_ = 0;
  std::uint64_t dns_total_ = 0;
  OnlinePairingStats pairing_;
  std::uint64_t eligible_lookups_ = 0;
  std::uint64_t used_lookups_ = 0;

  // Taxonomy (SC/R deferred to finalize).
  std::uint64_t n_ = 0, lc_ = 0, p_ = 0;
  std::uint64_t lc_expired_ = 0, p_expired_ = 0;
  util::FlatMap<Ipv4Addr, ResolverAcc> resolvers_;

  // §6 quadrants.
  std::uint64_t q_ins_ = 0, q_rel_ = 0, q_abs_ = 0, q_sig_ = 0;

  // Table 1 + isp-only (dense per-platform tallies, PlatformId-indexed).
  std::vector<PlatTally> tallies_;
  util::FlatSet<Ipv4Addr> all_houses_;
  std::uint64_t total_lookups_ = 0;
  std::uint64_t paired_conns_ = 0;
  std::uint64_t paired_bytes_ = 0;
  util::FlatMap<Ipv4Addr, bool> only_local_;

  // §7.
  std::vector<PlatConns> platform_conns_;

  // Failure report counters (self-contained per-house chain state,
  // closed as the DNS frontier passes each chain's gap).
  analysis::ChainTracker chains_;
};

}  // namespace dnsctx::stream
