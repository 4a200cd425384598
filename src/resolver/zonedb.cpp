#include "resolver/zonedb.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace dnsctx::resolver {

std::string_view to_string(ServiceClass s) {
  switch (s) {
    case ServiceClass::kWebOrigin: return "web";
    case ServiceClass::kCdnAsset: return "cdn";
    case ServiceClass::kAdNetwork: return "ad";
    case ServiceClass::kTracker: return "tracker";
    case ServiceClass::kApi: return "api";
    case ServiceClass::kVideo: return "video";
    case ServiceClass::kConnCheck: return "conncheck";
    case ServiceClass::kOther: return "other";
  }
  return "?";
}

namespace {

/// TTL menus per service, weighted toward the regimes seen in edge
/// measurements (CDNs 60–300 s; origins minutes–hours).
[[nodiscard]] std::uint32_t sample_ttl(ServiceClass s, Rng& rng) {
  switch (s) {
    case ServiceClass::kCdnAsset:
    case ServiceClass::kAdNetwork: {
      static constexpr std::uint32_t menu[] = {120, 300, 300, 600, 900, 1800};
      return menu[rng.bounded(std::size(menu))];
    }
    case ServiceClass::kTracker: {
      static constexpr std::uint32_t menu[] = {300, 600, 600, 900, 1800};
      return menu[rng.bounded(std::size(menu))];
    }
    case ServiceClass::kVideo: {
      static constexpr std::uint32_t menu[] = {60, 120, 300, 300, 600};
      return menu[rng.bounded(std::size(menu))];
    }
    case ServiceClass::kApi: {
      static constexpr std::uint32_t menu[] = {600, 900, 1800, 1800, 3600};
      return menu[rng.bounded(std::size(menu))];
    }
    case ServiceClass::kWebOrigin: {
      static constexpr std::uint32_t menu[] = {60, 120, 300, 300, 600, 1800, 3600, 14400};
      return menu[rng.bounded(std::size(menu))];
    }
    case ServiceClass::kConnCheck:
      return 300;
    case ServiceClass::kOther: {
      static constexpr std::uint32_t menu[] = {300, 3600, 3600, 14400, 86400};
      return menu[rng.bounded(std::size(menu))];
    }
  }
  return 300;
}

constexpr const char* kTlds[] = {"com", "com", "com", "net", "org", "io"};

}  // namespace

ZoneDb::ZoneDb(const ZoneDbConfig& cfg) {
  Rng rng{derive_seed(cfg.seed, "zonedb")};

  // Shared hosting pool: many origin names map into these addresses, so
  // DN-Hunter faces genuine multi-candidate ambiguity.
  hosting_pool_.reserve(cfg.hosting_pool_ips);
  for (std::size_t i = 0; i < cfg.hosting_pool_ips; ++i) {
    hosting_pool_.push_back(alloc_ip(185, rng));
  }

  const ZipfSampler site_pop{std::max<std::size_t>(cfg.web_sites, 1), cfg.zipf_exponent};

  // --- web origins -------------------------------------------------------
  for (std::size_t i = 0; i < cfg.web_sites; ++i) {
    HostRecord rec;
    rec.name = dns::DomainName::must(
        strfmt("www.site%04zu.%s", i, kTlds[rng.bounded(std::size(kTlds))]));
    rec.service = ServiceClass::kWebOrigin;
    rec.ttl_sec = sample_ttl(rec.service, rng);
    const std::size_t n_addrs = 1 + rng.bounded(3);
    for (std::size_t a = 0; a < n_addrs; ++a) {
      // 70% of origins live in the shared hosting pool.
      if (rng.bernoulli(0.7)) {
        rec.addrs.push_back(hosting_pool_[rng.bounded(hosting_pool_.size())]);
      } else {
        rec.addrs.push_back(alloc_ip(34, rng));
      }
    }
    rec.popularity = site_pop.pmf(i) / site_pop.pmf(0);
    rec.has_ipv6 = rng.bernoulli(0.45);
    web_site_ids_.push_back(static_cast<NameId>(records_.size()));
    add_record(std::move(rec));
  }
  web_zipf_.emplace(std::max<std::size_t>(cfg.web_sites, 1), cfg.zipf_exponent);

  // --- shared infrastructure domains -------------------------------------
  auto make_family = [&](std::size_t count, ServiceClass service, const char* fmt,
                         bool cdn_backed, double cdn_prob, std::uint8_t octet) {
    const ZipfSampler pop{std::max<std::size_t>(count, 1), 0.9};
    for (std::size_t i = 0; i < count; ++i) {
      HostRecord rec;
      rec.name = dns::DomainName::must(strfmt(fmt, i));
      rec.service = service;
      rec.ttl_sec = sample_ttl(service, rng);
      rec.cdn = cdn_backed && rng.bernoulli(cdn_prob);
      if (rec.cdn) {
        // Most CDN-backed names resolve through a CNAME into the
        // provider's zone before the per-edge A record.
        if (rng.bernoulli(0.7)) {
          rec.cname_target = dns::DomainName::must(
              strfmt("e%zu.g%02zu.cdnprovider.net", i % 9, i));
        }
        // Edge set ordered best-first; quality decays with edge rank.
        const std::size_t edges = std::max<std::size_t>(cfg.edges_per_cdn, 2);
        for (std::size_t e = 0; e < edges; ++e) {
          const Ipv4Addr edge = alloc_ip(octet, rng);
          rec.addrs.push_back(edge);
          const double quality =
              std::max(0.15, 1.0 - 0.28 * static_cast<double>(e) + rng.uniform(-0.05, 0.05));
          throughput_[edge] = quality;
        }
      } else {
        // A few services publish wide anycast pools (dozens of A
        // records): their answers exceed the 512-byte UDP limit and
        // exercise the TCP truncation fallback.
        const std::size_t n_addrs = (service == ServiceClass::kApi && rng.bernoulli(0.05))
                                        ? 30 + rng.bounded(10)
                                        : 1 + rng.bounded(2);
        for (std::size_t a = 0; a < n_addrs; ++a) rec.addrs.push_back(alloc_ip(octet, rng));
      }
      rec.popularity = pop.pmf(i) / pop.pmf(0);
      rec.has_ipv6 = rng.bernoulli(0.6);  // big infrastructure is mostly dual-stack
      add_record(std::move(rec));
    }
  };

  make_family(cfg.cdn_domains, ServiceClass::kCdnAsset, "cdn.edge%02zu-net.com", true, 0.95, 104);
  make_family(cfg.ad_domains, ServiceClass::kAdNetwork, "serve.adnet%02zu.com", true, 0.5, 151);
  make_family(cfg.tracker_domains, ServiceClass::kTracker, "t.metrics%02zu.net", false, 0.0, 52);
  make_family(cfg.api_domains, ServiceClass::kApi, "api.svc%03zu.io", false, 0.0, 35);

  // --- video (always CDN-backed, short TTLs, big transfers) --------------
  {
    const ZipfSampler pop{std::max<std::size_t>(cfg.video_sites, 1), 0.9};
    for (std::size_t i = 0; i < cfg.video_sites; ++i) {
      HostRecord rec;
      rec.name = dns::DomainName::must(strfmt("v%zu.video%02zu.tv", i % 4, i));
      rec.service = ServiceClass::kVideo;
      rec.ttl_sec = sample_ttl(rec.service, rng);
      rec.cdn = true;
      const std::size_t edges = std::max<std::size_t>(cfg.edges_per_cdn, 2);
      for (std::size_t e = 0; e < edges; ++e) {
        const Ipv4Addr edge = alloc_ip(198, rng);
        rec.addrs.push_back(edge);
        throughput_[edge] =
            std::max(0.15, 1.0 - 0.25 * static_cast<double>(e) + rng.uniform(-0.05, 0.05));
      }
      rec.popularity = pop.pmf(i) / pop.pmf(0);
      video_site_ids_.push_back(static_cast<NameId>(records_.size()));
      add_record(std::move(rec));
    }
    video_zipf_.emplace(std::max<std::size_t>(cfg.video_sites, 1), 0.9);
  }

  // --- the Android connectivity-check name (§7 artifact) ------------------
  {
    HostRecord rec;
    rec.name = dns::DomainName::must("connectivitycheck.gstatic.com");
    rec.service = ServiceClass::kConnCheck;
    rec.ttl_sec = 300;
    rec.addrs.push_back(alloc_ip(142, rng));
    rec.addrs.push_back(alloc_ip(142, rng));
    rec.popularity = 1.0;
    conn_check_id_ = static_cast<NameId>(records_.size());
    add_record(std::move(rec));
  }

  // --- long tail ----------------------------------------------------------
  for (std::size_t i = 0; i < cfg.other_names; ++i) {
    HostRecord rec;
    rec.name = dns::DomainName::must(
        strfmt("host%zu.misc%03zu.%s", i % 7, i, kTlds[rng.bounded(std::size(kTlds))]));
    rec.service = ServiceClass::kOther;
    rec.ttl_sec = sample_ttl(rec.service, rng);
    rec.addrs.push_back(rng.bernoulli(0.5) ? hosting_pool_[rng.bounded(hosting_pool_.size())]
                                           : alloc_ip(45, rng));
    rec.popularity = 0.002;
    add_record(std::move(rec));
  }
}

void ZoneDb::add_record(HostRecord rec) {
  const auto id = static_cast<NameId>(records_.size());
  if (!by_name_.try_emplace(rec.name, id).second) {
    throw std::logic_error{"ZoneDb: duplicate name " + rec.name.text()};
  }
  by_service_[static_cast<std::uint8_t>(rec.service)].push_back(id);
  records_.push_back(std::move(rec));
}

Ipv4Addr ZoneDb::alloc_ip(std::uint8_t first_octet, Rng& rng) {
  for (int attempts = 0; attempts < 1'000; ++attempts) {
    const Ipv4Addr candidate{
        first_octet, static_cast<std::uint8_t>(rng.bounded(256)),
        static_cast<std::uint8_t>(rng.bounded(256)),
        static_cast<std::uint8_t>(1 + rng.bounded(254))};
    if (!throughput_.contains(candidate)) {
      throughput_.emplace(candidate, 1.0);
      return candidate;
    }
  }
  throw std::runtime_error{"ZoneDb: address space exhausted"};
}

std::optional<NameId> ZoneDb::find(const dns::DomainName& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::vector<dns::ResourceRecord> ZoneDb::authoritative_answer(const dns::DomainName& name,
                                                              const GeoQuality& geo,
                                                              Rng& rng) const {
  const auto id = find(name);
  if (!id) return {};
  const HostRecord& rec = records_[*id];
  std::vector<dns::ResourceRecord> out;
  if (rec.cdn) {
    // Resolver geolocation decides edge quality: best edge with the
    // platform's accuracy, otherwise a uniformly chosen farther edge.
    std::size_t edge = 0;
    if (!rng.bernoulli(geo.best_edge_prob) && rec.addrs.size() > 1) {
      edge = 1 + rng.bounded(rec.addrs.size() - 1);
    }
    if (!rec.cname_target.is_root()) {
      // CNAME chain: owner → provider name → edge address. The chain's
      // effective lifetime is the minimum TTL, like real caches compute.
      out.push_back(dns::ResourceRecord::cname(rec.name, rec.cname_target, rec.ttl_sec));
      out.push_back(dns::ResourceRecord::a(rec.cname_target, rec.addrs[edge], rec.ttl_sec));
    } else {
      out.push_back(dns::ResourceRecord::a(rec.name, rec.addrs[edge], rec.ttl_sec));
    }
  } else {
    // Rotate the full set (authoritative round-robin). Wide pools are
    // returned whole — that is what overflows UDP and forces TCP.
    const std::size_t start = rng.bounded(rec.addrs.size());
    for (std::size_t i = 0; i < rec.addrs.size(); ++i) {
      out.push_back(dns::ResourceRecord::a(rec.name, rec.addrs[(start + i) % rec.addrs.size()],
                                           rec.ttl_sec));
    }
  }
  return out;
}

std::vector<dns::ResourceRecord> ZoneDb::authoritative_answer_typed(
    const dns::DomainName& name, dns::RrType qtype, const GeoQuality& geo, Rng& rng) const {
  if (qtype == dns::RrType::kA) return authoritative_answer(name, geo, rng);
  if (qtype != dns::RrType::kAaaa) return {};
  const auto id = find(name);
  if (!id || !records_[*id].has_ipv6) return {};  // NODATA
  const HostRecord& rec = records_[*id];
  // Synthetic but deterministic v6 rdata derived from the v4 address
  // (this study never routes v6 traffic; the record only feeds the DNS
  // transaction stream the monitor observes).
  const Ipv4Addr v4 = rec.addrs[rng.bounded(rec.addrs.size())];
  std::vector<std::uint8_t> v6(16, 0);
  v6[0] = 0x20;
  v6[1] = 0x01;
  v6[2] = 0x0d;
  v6[3] = 0xb8;
  for (int i = 0; i < 4; ++i) {
    v6[static_cast<std::size_t>(12 + i)] =
        static_cast<std::uint8_t>(v4.to_u32() >> (24 - 8 * i));
  }
  std::vector<dns::ResourceRecord> out;
  out.push_back(dns::ResourceRecord{rec.name, dns::RrType::kAaaa, dns::RrClass::kIn,
                                    rec.ttl_sec, std::move(v6)});
  return out;
}

double ZoneDb::throughput_factor(Ipv4Addr addr) const {
  const auto it = throughput_.find(addr);
  return it == throughput_.end() ? 1.0 : it->second;
}

const std::vector<NameId>& ZoneDb::ids_of(ServiceClass s) const {
  static const std::vector<NameId> kEmpty;
  const auto it = by_service_.find(static_cast<std::uint8_t>(s));
  return it == by_service_.end() ? kEmpty : it->second;
}

NameId ZoneDb::sample_web_site(Rng& rng) const {
  return web_site_ids_.at(web_zipf_->sample(rng));
}

NameId ZoneDb::sample_video_site(Rng& rng) const {
  return video_site_ids_.at(video_zipf_->sample(rng));
}

}  // namespace dnsctx::resolver
