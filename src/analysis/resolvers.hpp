// dnsctx — performance versus resolver platform (§7, Figure 3).
//
// Per platform: the shared-cache hit rate (SC over SC∪R), the lookup
// delay distribution for R connections (Fig 3 top), and the application
// throughput distribution for blocked connections (Fig 3 bottom) —
// including the Android connectivity-check artifact the paper isolates
// for Google (23.5% of Google-paired connections).
#pragma once

#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/tables.hpp"

namespace dnsctx::analysis {

/// §7's per-platform counters. Shared verbatim with stream::OnlineStudy,
/// whose result carries them as its platform rows.
struct PlatformCounts {
  std::string platform;
  std::uint64_t sc = 0;
  std::uint64_t r = 0;
  std::uint64_t conncheck_conns = 0;
  std::uint64_t total_conns = 0;  ///< all paired conns attributed to the platform

  /// Count one paired connection; `conncheck` when its lookup was the
  /// connectivity check.
  void add_paired(bool conncheck) {
    ++total_conns;
    if (conncheck) ++conncheck_conns;
  }
  void merge(const PlatformCounts& other) {
    sc += other.sc;
    r += other.r;
    conncheck_conns += other.conncheck_conns;
    total_conns += other.total_conns;
  }

  [[nodiscard]] double hit_rate() const {
    const auto blocked = sc + r;
    return blocked ? static_cast<double>(sc) / static_cast<double>(blocked) : 0.0;
  }
  [[nodiscard]] double conncheck_frac() const {
    return total_conns ? static_cast<double>(conncheck_conns) /
                             static_cast<double>(total_conns)
                       : 0.0;
  }
};

/// The rows of per-PlatformId tallies: directory order, "other" last,
/// each named, the platforms no paired connection touched left out.
template <typename Row>
[[nodiscard]] std::vector<Row> platform_rows(std::vector<Row>&& by_id,
                                             const PlatformDirectory& dir) {
  std::vector<Row> out;
  for (PlatformId id = 0; id < by_id.size(); ++id) {
    if (by_id[id].total_conns == 0) continue;
    by_id[id].platform = dir.name_of(id);
    out.push_back(std::move(by_id[id]));
  }
  return out;
}

struct PlatformPerf : PlatformCounts {
  Cdf r_lookup_ms;                ///< Fig 3 top: R lookup delays
  Cdf throughput_bps;             ///< Fig 3 bottom: SC∪R connection throughput
  Cdf throughput_bps_filtered;    ///< same, minus connectivity-check connections
};

/// Per-platform §7 metrics, in directory order. Map-reduce over fixed
/// connection chunks: identical output for any `threads`.
[[nodiscard]] std::vector<PlatformPerf> analyze_platforms(
    const capture::Dataset& ds, const PairingResult& pairing, const Classified& classified,
    const PlatformDirectory& dir,
    const std::string& conncheck_name = "connectivitycheck.gstatic.com",
    unsigned threads = 1);

}  // namespace dnsctx::analysis
