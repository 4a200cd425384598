#include "analysis/perhouse.hpp"

#include <algorithm>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dnsctx::analysis {

PerHouseAnalysis analyze_per_house(const capture::Dataset& ds, const Classified& classified) {
  PerHouseAnalysis out;
  // Accumulate per house in first-seen order: combined with the stable
  // sort below, the houses list (and therefore the bootstrap draws) is
  // fully deterministic — no dependence on hash iteration order.
  util::FlatMap<Ipv4Addr, std::uint32_t> slot_of;
  std::vector<HouseSummary> summaries;
  const auto summary_for = [&](Ipv4Addr addr) -> HouseSummary& {
    const auto [it, inserted] =
        slot_of.try_emplace(addr, static_cast<std::uint32_t>(summaries.size()));
    if (inserted) {
      summaries.emplace_back();
      summaries.back().house = addr;
    }
    return summaries[it->second];
  };

  for (std::size_t i = 0; i < ds.conns.size(); ++i) {
    HouseSummary& h = summary_for(ds.conns[i].orig_ip);
    ++h.conns;
    if (i < classified.classes.size()) h.counts.add(classified.classes[i]);
  }
  for (const auto& d : ds.dns) {
    ++summary_for(d.client_ip).lookups;
  }

  out.houses = std::move(summaries);
  std::stable_sort(out.houses.begin(), out.houses.end(),
                   [](const HouseSummary& a, const HouseSummary& b) { return a.conns > b.conns; });

  for (const auto& h : out.houses) {
    if (h.conns == 0) continue;  // DNS-only houses have no class shares
    out.blocked_share.add(h.blocked_share());
    out.no_dns_share.add(h.no_dns_share());
    out.lookups_per_conn.add(h.lookups_per_conn());
    out.conns_per_house.add(static_cast<double>(h.conns));
  }
  // Sort now so concurrent report/export readers stay lock-free.
  out.blocked_share.seal();
  out.no_dns_share.seal();
  out.lookups_per_conn.seal();
  out.conns_per_house.seal();
  return out;
}

Table2Ci bootstrap_table2_ci(const PerHouseAnalysis& per_house, std::size_t replicates,
                             double confidence, std::uint64_t seed) {
  Table2Ci out;
  out.replicates = replicates;
  out.confidence = confidence;
  const auto& houses = per_house.houses;
  if (houses.empty() || replicates == 0) return out;

  Rng rng{derive_seed(seed, "bootstrap-table2")};
  Cdf n_shares, lc_shares, p_shares, sc_shares, r_shares;
  for (std::size_t rep = 0; rep < replicates; ++rep) {
    ClassCounts total;
    for (std::size_t draw = 0; draw < houses.size(); ++draw) {
      const auto& h = houses[rng.bounded(houses.size())];
      total.n += h.counts.n;
      total.lc += h.counts.lc;
      total.p += h.counts.p;
      total.sc += h.counts.sc;
      total.r += h.counts.r;
    }
    if (total.total() == 0) continue;
    n_shares.add(total.share(total.n));
    lc_shares.add(total.share(total.lc));
    p_shares.add(total.share(total.p));
    sc_shares.add(total.share(total.sc));
    r_shares.add(total.share(total.r));
  }
  const double alpha = (1.0 - confidence) / 2.0;
  auto ci = [&](const Cdf& c) {
    return c.empty() ? ShareCi{} : ShareCi{c.quantile(alpha), c.quantile(1.0 - alpha)};
  };
  out.n = ci(n_shares);
  out.lc = ci(lc_shares);
  out.p = ci(p_shares);
  out.sc = ci(sc_shares);
  out.r = ci(r_shares);
  return out;
}

double PerHouseAnalysis::top_decile_conn_share() const {
  if (houses.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const auto& h : houses) total += h.conns;
  if (total == 0) return 0.0;
  const std::size_t decile = std::max<std::size_t>(1, houses.size() / 10);
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < decile; ++i) top += houses[i].conns;
  return static_cast<double>(top) / static_cast<double>(total);
}

}  // namespace dnsctx::analysis
