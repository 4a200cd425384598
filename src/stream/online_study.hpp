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
// (analysis::run_study) on the same records. That follows from shared
// code, not from a second copy kept in step: the engine applies each
// per-record rule through the same type the batch stage folds its
// chunks through — analysis::CandidateList and PairingCounts (§4),
// ModeWindow (§5.3's thresholds), Table1Tally and IspOnlyHouses
// (Table 1), QuadrantCounts (§6), PlatformCounts (§7) and ChainTracker
// (failures) — and their merges are exact. The goldens (seeds {1,7} ×
// shards {1,4}) pin both sides. The batch distribution outputs that
// inherently require retaining every sample (Fig 1/2/3 CDFs, knee
// detection) are the one deliberate omission; every count, share,
// threshold, and fraction streams.
//
// What is the engine's own is what streaming needs:
//
//  * Shadow eviction. Each (house, address) CandidateList falls due
//    when the shadow rule (CandidateList::compact) can first drop a
//    candidate; every list with a finite due time sits in one min-heap
//    keyed by it, and each ingest compacts exactly the lists the
//    watermark has reached. After every record the engine holds exactly
//    the candidates the rule keeps. A DNS record's pairing material
//    (RecordUse) lives while a candidate references it. Retry chains
//    (analysis::ChainTracker) close the same way.
//
//  * Deferred SC/R split. §5.3's per-resolver thresholds depend on the
//    full run, so blocked connections bank their lookup duration into a
//    per-resolver ceil-millisecond bin map; `finalize()` derives each
//    threshold from the resolver's ModeWindow and splits SC/R from the
//    bins. ceil(us/1000) <= T is provably equivalent to the batch double
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
// Houses, their candidate lists and the resolver accumulators live in
// util::FlatMap; platform tallies are dense, PlatformId-indexed vectors.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/failures.hpp"
#include "analysis/performance.hpp"
#include "analysis/resolvers.hpp"
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

struct OnlineStudyResult {
  std::uint64_t conns = 0;
  std::uint64_t dns = 0;

  analysis::PairingCounts pairing;

  analysis::ClassCounts classes;
  std::uint64_t lc_expired = 0;
  std::uint64_t p_expired = 0;
  util::FlatMap<Ipv4Addr, double> resolver_threshold_ms;

  std::vector<analysis::Table1Row> table1;
  double isp_only_houses = 0.0;

  analysis::Quadrants quadrants;
  std::vector<analysis::PlatformCounts> platforms;  ///< §7 rows, directory order

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
  /// Everything pairing/classification later needs from a DNS record,
  /// kept while any candidate still references it.
  struct RecordUse {
    std::uint32_t refs = 0;  ///< live candidates pointing here
    std::uint32_t uses = 0;  ///< connections paired to it so far
    SimDuration duration;
    Ipv4Addr resolver_ip;
    bool conncheck = false;
  };

  struct House {
    util::FlatMap<Ipv4Addr, analysis::CandidateList> index;
    util::FlatMap<std::uint64_t, RecordUse> records;
  };

  /// A list's place in the due heap. Lazy: an entry whose `due` no
  /// longer equals its list's is stale and skipped when popped.
  struct DueList {
    SimTime due;
    Ipv4Addr house;
    Ipv4Addr addr;
  };

  /// §5.3 threshold material + deferred SC/R split state, per resolver.
  struct ResolverAcc {
    analysis::ModeWindow window;
    /// Blocked-connection lookup durations as ceil-milliseconds bins.
    std::map<std::int64_t, std::uint64_t> blocked_ceil;
    std::uint64_t blocked_total = 0;
    std::uint64_t blocked_le_default = 0;
  };

  void note_time(SimTime& last, SimTime t, const char* kind);
  void schedule(SimTime due, Ipv4Addr house, Ipv4Addr addr);
  /// Compact every list the watermark has reached.
  void evict_due();
  void drop_candidate(House& house, const analysis::Candidate& cand);

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
  /// Key time of the last record of each kind; the earliest time there
  /// is before the first.
  SimTime last_conn_ = SimTime::from_us(std::numeric_limits<std::int64_t>::min());
  SimTime last_dns_ = last_conn_;
  SimTime watermark_;
  /// Min-heap on `due` over the lists that can lose a candidate.
  std::vector<DueList> due_lists_;
  std::uint64_t active_candidates_ = 0;
  std::uint64_t active_records_ = 0;

  // Stream-wide counters.
  std::uint64_t conns_total_ = 0;
  std::uint64_t dns_total_ = 0;
  analysis::PairingCounts pairing_;

  // Taxonomy (SC/R deferred to finalize).
  analysis::ClassCounts classes_;
  std::uint64_t lc_expired_ = 0, p_expired_ = 0;
  util::FlatMap<Ipv4Addr, ResolverAcc> resolvers_;

  analysis::QuadrantCounts quadrants_;
  analysis::Table1Tally table1_;
  analysis::IspOnlyHouses isp_only_;
  /// §7 counters by PlatformId; SC/R are added at finalize().
  std::vector<analysis::PlatformCounts> platforms_;

  // Failure report counters (self-contained per-house chain state,
  // closed as the DNS frontier passes each chain's gap).
  analysis::ChainTracker chains_;
};

}  // namespace dnsctx::stream
