#include "analysis/tables.hpp"

#include <algorithm>

#include "resolver/recursive.hpp"
#include "util/parallel.hpp"

namespace dnsctx::analysis {

PlatformDirectory PlatformDirectory::standard() {
  using namespace resolver::well_known;
  PlatformDirectory dir;
  dir.add(kIspResolver1, "Local");
  dir.add(kIspResolver2, "Local");
  dir.add(kGoogle1, "Google");
  dir.add(kGoogle2, "Google");
  dir.add(kOpenDns1, "OpenDNS");
  dir.add(kOpenDns2, "OpenDNS");
  dir.add(kCloudflare1, "Cloudflare");
  dir.add(kCloudflare2, "Cloudflare");
  return dir;
}

void PlatformDirectory::add(Ipv4Addr addr, std::string platform) {
  const auto pos = std::find(order_.begin(), order_.end(), platform);
  PlatformId id;
  if (pos == order_.end()) {
    id = static_cast<PlatformId>(order_.size());
    order_.push_back(std::move(platform));
  } else {
    id = static_cast<PlatformId>(pos - order_.begin());
  }
  ids_[addr] = id;
}

PlatformId PlatformDirectory::id_of_label(std::string_view platform) const {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (order_[i] == platform) return static_cast<PlatformId>(i);
  }
  if (platform == other_) return other_id();
  return static_cast<PlatformId>(order_.size() + 1);  // matches no id_of() result
}

void Table1Tally::merge(const Table1Tally& other) {
  if (platforms_.size() < other.platforms_.size()) platforms_.resize(other.platforms_.size());
  for (std::size_t id = 0; id < other.platforms_.size(); ++id) {
    Platform& dst = platforms_[id];
    const Platform& src = other.platforms_[id];
    dst.lookups += src.lookups;
    dst.conns += src.conns;
    dst.bytes += src.bytes;
    src.houses.for_each([&](Ipv4Addr h) { dst.houses.insert(h); });
  }
  other.houses_.for_each([&](Ipv4Addr h) { houses_.insert(h); });
}

std::vector<Table1Row> Table1Tally::rows(const PlatformDirectory& dir,
                                         double min_lookup_share) const {
  std::uint64_t lookups = 0, conns = 0, bytes = 0;
  for (const Platform& p : platforms_) {
    lookups += p.lookups;
    conns += p.conns;
    bytes += p.bytes;
  }
  std::vector<Table1Row> rows;
  // Ids follow the directory's order, and "other" is the last.
  for (PlatformId id = 0; id < platforms_.size(); ++id) {
    const Platform& p = platforms_[id];
    if (p.lookups == 0 && p.conns == 0) continue;
    const double lookup_share =
        lookups ? static_cast<double>(p.lookups) / static_cast<double>(lookups) : 0.0;
    if (id != dir.other_id() && lookup_share < min_lookup_share) continue;
    Table1Row row;
    row.platform = dir.name_of(id);
    row.lookups = p.lookups;
    row.pct_houses = houses_.empty() ? 0.0
                                     : 100.0 * static_cast<double>(p.houses.size()) /
                                           static_cast<double>(houses_.size());
    row.pct_lookups = 100.0 * lookup_share;
    row.pct_conns =
        conns ? 100.0 * static_cast<double>(p.conns) / static_cast<double>(conns) : 0.0;
    row.pct_bytes =
        bytes ? 100.0 * static_cast<double>(p.bytes) / static_cast<double>(bytes) : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

void IspOnlyHouses::merge(const IspOnlyHouses& other) {
  for (const auto& [house, local] : other.only_local_) add_lookup(house, local);
}

double IspOnlyHouses::frac() const {
  if (only_local_.empty()) return 0.0;
  std::size_t count = 0;
  for (const auto& [house, local] : only_local_) {
    if (local) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(only_local_.size());
}

std::vector<Table1Row> build_table1(const capture::Dataset& ds, const PairingResult& pairing,
                                    const PlatformDirectory& dir, double min_lookup_share,
                                    unsigned threads) {
  const std::size_t nplatforms = dir.platform_count();
  const auto merge = [](Table1Tally& into, Table1Tally&& part) { into.merge(part); };
  Table1Tally tally = util::parallel_map_reduce<Table1Tally>(
      threads, ds.dns.size(), util::kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        Table1Tally part{nplatforms};
        for (std::size_t i = begin; i < end; ++i) {
          part.add_lookup(dir.id_of(ds.dns[i].resolver_ip), ds.dns[i].client_ip);
        }
        return part;
      },
      merge);
  tally.merge(util::parallel_map_reduce<Table1Tally>(
      threads, ds.conns.size(), util::kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        Table1Tally part{nplatforms};
        for (std::size_t i = begin; i < end; ++i) {
          const auto& pc = pairing.conns[i];
          if (pc.dns_idx < 0) continue;
          const auto& dns = ds.dns[static_cast<std::size_t>(pc.dns_idx)];
          const auto& conn = ds.conns[i];
          part.add_conn(dir.id_of(dns.resolver_ip), conn.orig_bytes + conn.resp_bytes);
        }
        return part;
      },
      merge));
  return tally.rows(dir, min_lookup_share);
}

double isp_only_house_frac(const capture::Dataset& ds, const PlatformDirectory& dir,
                           unsigned threads) {
  const PlatformId local_id = dir.id_of_label("Local");
  return util::parallel_map_reduce<IspOnlyHouses>(
             threads, ds.dns.size(), util::kDefaultGrain,
             [&](std::size_t begin, std::size_t end) {
               IspOnlyHouses part;
               for (std::size_t i = begin; i < end; ++i) {
                 const auto& d = ds.dns[i];
                 part.add_lookup(d.client_ip, dir.id_of(d.resolver_ip) == local_id);
               }
               return part;
             },
             [](IspOnlyHouses& into, IspOnlyHouses&& part) { into.merge(part); })
      .frac();
}

}  // namespace dnsctx::analysis
