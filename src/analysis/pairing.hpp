// dnsctx — DN-Hunter connection↔DNS pairing (§4, after Bermudez et al.).
//
// Every application connection from local address L to remote address R
// is paired with the most recent non-expired DNS transaction by L whose
// answer contains R; if every candidate is expired, the most recent
// expired one is used. The paper's footnoted robustness check — pairing
// with a *random* non-expired candidate instead — is a first-class
// policy here (the bench_ablation binary exercises it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "capture/records.hpp"
#include "util/rng.hpp"

namespace dnsctx::analysis {

enum class PairingPolicy {
  kMostRecent,  ///< the paper's primary analysis
  kRandom,      ///< §4's robustness variant
};

/// One DNS answer's candidacy for an address (the list holding it
/// names the house and the address).
struct Candidate {
  SimTime response;  ///< when the answer reached the house
  SimTime expires;   ///< response + the answer's TTL
  /// The lookup, increasing in arrival order: its dns.log index in
  /// batch, its arrival number in the streaming engine.
  std::uint64_t seq;

  /// The list order: by response, then by seq.
  [[nodiscard]] friend bool operator<(const Candidate& a, const Candidate& b) {
    return a.response != b.response ? a.response < b.response : a.seq < b.seq;
  }
};

/// What CandidateList::pick found for one connection.
struct Pick {
  const Candidate* chosen = nullptr;  ///< nullptr: no answer preceded the connection (N)
  std::uint32_t live = 0;             ///< candidates unexpired at the connection's start
  std::uint32_t scanned = 0;          ///< candidates the liveness scan visited

  /// The choice is the most recent expired candidate (none was live).
  [[nodiscard]] bool expired() const { return chosen != nullptr && live == 0; }
};

/// The DN-Hunter candidate list of one (house, address): every answer
/// naming the address, in Candidate order. Shared verbatim by
/// pair_connections, which sorts a house's lists in one pass and picks
/// from each run, and stream::OnlineStudy, which keeps one list per
/// (house, address) and compacts it; so both pick the same pair.
class CandidateList {
 public:
  /// Add a candidate whose seq exceeds every stored one. Returns true
  /// when it brings due() forward.
  bool insert(const Candidate& c);

  /// §4's choice for a connection starting at `start` among the
  /// candidates of `list` (one (house, address) run in Candidate order)
  /// that arrived by then: the most recent unexpired one (or, given
  /// `random`, a uniform draw among the unexpired ones); with none
  /// unexpired, the most recent expired one.
  [[nodiscard]] static Pick pick(std::span<const Candidate> list, SimTime start,
                                 Rng* random = nullptr);
  [[nodiscard]] Pick pick(SimTime start) const { return pick(cands_, start); }

  /// The shadow rule: once no connection can start before `watermark`,
  /// candidate cᵢ can never be chosen again if watermark ≥
  /// max(cᵢ.expires, cᵢ₊₁.response) — it is dead for the live scan and
  /// shadowed by cᵢ₊₁ for the expired fallback. Drops every such
  /// candidate, handing each to `drop`; the newest always stays.
  template <typename Drop>
  void compact(SimTime watermark, Drop&& drop);

  /// Earliest watermark at which compact() drops a candidate;
  /// SimTime::max() while none can go (fewer than two candidates).
  [[nodiscard]] SimTime due() const { return due_; }

  /// Add `offset` to every seq (merging engines' seq spaces).
  void shift_seq(std::uint64_t offset) {
    for (Candidate& c : cands_) c.seq += offset;
  }

 private:
  [[nodiscard]] static SimTime retired_at(const Candidate& c, const Candidate& next) {
    return std::max(c.expires, next.response);
  }

  std::vector<Candidate> cands_;
  SimTime due_ = SimTime::max();
};

template <typename Drop>
void CandidateList::compact(SimTime watermark, Drop&& drop) {
  // The survivors' new neighbour pairs give the next due time.
  std::size_t kept = 0;
  SimTime due = SimTime::max();
  for (std::size_t i = 0; i < cands_.size(); ++i) {
    if (i + 1 < cands_.size() && retired_at(cands_[i], cands_[i + 1]) <= watermark) {
      drop(cands_[i]);
      continue;
    }
    if (kept > 0) due = std::min(due, retired_at(cands_[kept - 1], cands_[i]));
    cands_[kept++] = cands_[i];
  }
  cands_.resize(kept);
  due_ = due;
}

/// §4's pairing counters. Shared verbatim with stream::OnlineStudy,
/// whose result carries them as `pairing`.
struct PairingCounts {
  std::uint64_t paired = 0;
  std::uint64_t unpaired = 0;
  std::uint64_t paired_expired = 0;
  /// §4 ambiguity accounting over paired connections.
  std::uint64_t unique_candidate = 0;
  std::uint64_t multiple_candidates = 0;
  /// Answered, A-bearing lookups, and those paired with a connection.
  std::uint64_t lookups = 0;
  std::uint64_t used_lookups = 0;

  /// Count one connection's pick.
  void add(const Pick& pick) {
    if (pick.chosen == nullptr) {
      ++unpaired;
      return;
    }
    ++paired;
    if (pick.expired()) ++paired_expired;
    if (pick.live <= 1) {
      ++unique_candidate;  // paper counts "only a single non-expired" (incl. expired fallback)
    } else {
      ++multiple_candidates;
    }
  }
  void merge(const PairingCounts& other);

  [[nodiscard]] double unique_candidate_frac() const {
    const auto total = unique_candidate + multiple_candidates;
    return total ? static_cast<double>(unique_candidate) / static_cast<double>(total) : 0.0;
  }
  /// Share of the lookups never paired with any connection (§5.2's
  /// "unused lookups").
  [[nodiscard]] double unused_lookup_frac() const {
    return lookups ? static_cast<double>(lookups - used_lookups) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Pairing outcome for one connection (parallel to Dataset::conns).
struct PairedConn {
  std::int64_t dns_idx = -1;    ///< into Dataset::dns; -1 = no pairing (class N)
  bool expired_pairing = false; ///< paired record was past its TTL at conn start
  bool first_use = false;       ///< first connection to use this DNS transaction
  SimDuration gap;              ///< conn start − DNS response (valid when paired)
  std::uint32_t live_candidates = 0;  ///< non-expired answers containing the address
};

struct PairingResult : PairingCounts {
  std::vector<PairedConn> conns;            ///< same order as Dataset::conns
  std::vector<std::uint32_t> dns_use_count; ///< per DNS record: connections paired to it
};

/// Run the pairing over a dataset (logs must be timestamp-sorted, as the
/// Monitor produces them). `seed` only matters for PairingPolicy::kRandom.
/// Work partitions per house (a connection only pairs with its own
/// house's lookups), so `threads` workers pair houses concurrently with
/// results identical to the sequential run; kRandom draws come from one
/// stream per house derived from (seed, house address).
[[nodiscard]] PairingResult pair_connections(const capture::Dataset& ds,
                                             PairingPolicy policy = PairingPolicy::kMostRecent,
                                             std::uint64_t seed = 0, unsigned threads = 1);

}  // namespace dnsctx::analysis
