// dnsctx — Table 1: resolver platform usage (houses, lookups, paired
// connections, traffic volume per platform).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/pairing.hpp"
#include "util/flat_map.hpp"

namespace dnsctx::analysis {

/// Dense index of a platform within a PlatformDirectory. The hot
/// per-record loops tally into a plain vector indexed by PlatformId;
/// strings only reappear at the report/export boundary via name_of().
using PlatformId = std::uint32_t;

/// Maps resolver service addresses to platform labels. The default
/// directory covers the paper's four platforms; unknown resolvers group
/// under "other" (always the last id).
class PlatformDirectory {
 public:
  /// Local / Google / OpenDNS / Cloudflare with their well-known
  /// addresses (and our simulated ISP resolver addresses).
  [[nodiscard]] static PlatformDirectory standard();

  void add(Ipv4Addr addr, std::string platform);

  [[nodiscard]] const std::string& label(Ipv4Addr addr) const { return name_of(id_of(addr)); }
  /// Display order (insertion order of first appearance, then "other").
  [[nodiscard]] const std::vector<std::string>& platforms() const { return order_; }

  /// Dense id of the platform serving `addr` (other_id() when unknown).
  [[nodiscard]] PlatformId id_of(Ipv4Addr addr) const {
    const auto it = ids_.find(addr);
    return it == ids_.end() ? other_id() : it->second;
  }
  /// The "other" bucket: one past the named platforms.
  [[nodiscard]] PlatformId other_id() const { return static_cast<PlatformId>(order_.size()); }
  /// Number of distinct ids (named platforms + "other").
  [[nodiscard]] std::size_t platform_count() const { return order_.size() + 1; }
  [[nodiscard]] const std::string& name_of(PlatformId id) const {
    return id < order_.size() ? order_[id] : other_;
  }
  /// Id of a platform by label; other_id() + 1 (an id never returned by
  /// id_of) when no platform carries that label.
  [[nodiscard]] PlatformId id_of_label(std::string_view platform) const;

 private:
  util::FlatMap<Ipv4Addr, PlatformId> ids_;
  std::vector<std::string> order_;
  std::string other_ = "other";
};

struct Table1Row {
  std::string platform;
  double pct_houses = 0.0;   ///< houses with ≥1 lookup to the platform
  double pct_lookups = 0.0;
  double pct_conns = 0.0;    ///< of paired connections
  double pct_bytes = 0.0;    ///< of paired connections' bytes
  std::uint64_t lookups = 0;
};

/// Table 1's tallies: per platform, the houses that looked up through
/// it, its lookups, and the paired connections (and their bytes) whose
/// lookup it answered. Shared verbatim by build_table1 and
/// stream::OnlineStudy. Merges are set unions and integer sums, so the
/// rows do not depend on how the records were split.
class Table1Tally {
 public:
  explicit Table1Tally(std::size_t platforms = 0) : platforms_(platforms) {}

  /// One dns.log record, answered or not, sent by `house` to platform `id`.
  void add_lookup(PlatformId id, Ipv4Addr house) {
    ++platforms_[id].lookups;
    platforms_[id].houses.insert(house);
    houses_.insert(house);
  }
  /// One paired connection whose lookup platform `id` answered.
  void add_conn(PlatformId id, std::uint64_t bytes) {
    ++platforms_[id].conns;
    platforms_[id].bytes += bytes;
  }
  void merge(const Table1Tally& other);

  /// Rows in the directory's platform order, "other" last. A named
  /// platform below `min_lookup_share` of the lookups, or one never
  /// touched, has no row.
  [[nodiscard]] std::vector<Table1Row> rows(const PlatformDirectory& dir,
                                            double min_lookup_share = 0.01) const;

 private:
  struct Platform {
    util::FlatSet<Ipv4Addr> houses;
    std::uint64_t lookups = 0;
    std::uint64_t conns = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Platform> platforms_;  ///< indexed by PlatformId
  util::FlatSet<Ipv4Addr> houses_;   ///< every house that looked anything up
};

/// The houses that sent every lookup to the "Local" platform (the
/// paper's ~16% forwarder-style households). Shared verbatim by
/// isp_only_house_frac and stream::OnlineStudy.
class IspOnlyHouses {
 public:
  /// One lookup by `house`; `local` when it went to the Local platform.
  void add_lookup(Ipv4Addr house, bool local) {
    const auto [it, inserted] = only_local_.try_emplace(house, local);
    if (!inserted) it->second = it->second && local;
  }
  void merge(const IspOnlyHouses& other);
  /// Share of the houses seen whose every lookup was local.
  [[nodiscard]] double frac() const;

 private:
  util::FlatMap<Ipv4Addr, bool> only_local_;  ///< house → every lookup so far local
};

/// Build Table 1. Rows follow the directory's platform order; named
/// platforms below `min_lookup_share` (1% in the paper) are left out.
/// Both log passes are map-reduce over fixed chunks: identical output
/// for any `threads`.
[[nodiscard]] std::vector<Table1Row> build_table1(const capture::Dataset& ds,
                                                  const PairingResult& pairing,
                                                  const PlatformDirectory& dir,
                                                  double min_lookup_share = 0.01,
                                                  unsigned threads = 1);

/// Fraction of houses whose every lookup goes to the "Local" platform
/// (the paper's ~16% forwarder-style households).
[[nodiscard]] double isp_only_house_frac(const capture::Dataset& ds,
                                         const PlatformDirectory& dir,
                                         unsigned threads = 1);

}  // namespace dnsctx::analysis
