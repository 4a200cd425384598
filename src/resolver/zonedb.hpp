// dnsctx — the authoritative DNS universe for the simulation.
//
// ZoneDb deterministically generates a population of resolvable hostnames
// with the properties the paper's analysis is sensitive to:
//   * Zipf name popularity (drives shared-resolver cache hit rates),
//   * per-service TTL regimes (CDN assets are short-lived, origins long),
//   * shared hosting pools (multiple names per IP → DN-Hunter ambiguity,
//     §4 reports 82% of connections have a unique candidate),
//   * CDN zones whose answer depends on the querying resolver platform's
//     geolocation quality (drives the §7/Fig 3 throughput differences),
//   * per-address throughput factors consumed by the traffic model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "util/flat_map.hpp"
#include "util/ip.hpp"
#include "util/rng.hpp"

namespace dnsctx::resolver {

/// Stable index of a hostname within the ZoneDb.
using NameId = std::uint32_t;

/// What a hostname is used for; drives TTLs, address pools and the
/// traffic model's transfer profiles.
enum class ServiceClass : std::uint8_t {
  kWebOrigin,   ///< primary site hostname (www.*)
  kCdnAsset,    ///< shared CDN asset host (images/js), short TTL
  kAdNetwork,   ///< advertising, short TTL, many tiny transfers
  kTracker,     ///< analytics beacons
  kApi,         ///< service APIs / backend endpoints
  kVideo,       ///< streaming manifests + segments
  kConnCheck,   ///< connectivitycheck.gstatic.com analog (§7 artifact)
  kOther,       ///< long-tail misc names
};

[[nodiscard]] std::string_view to_string(ServiceClass s);

/// One resolvable hostname and its authoritative data.
struct HostRecord {
  dns::DomainName name;
  ServiceClass service = ServiceClass::kOther;
  std::uint32_t ttl_sec = 300;
  /// Non-CDN: the full authoritative address set. CDN: the union of all
  /// edges (per-query answers pick a subset based on resolver geo).
  std::vector<Ipv4Addr> addrs;
  bool cdn = false;
  /// CDN names usually answer through a CNAME into the CDN's own zone
  /// ("assets.site.com CNAME site.cdnprovider.net" then an A record).
  /// Empty = answer with bare A records.
  dns::DomainName cname_target;
  /// Popularity weight in (0, 1], 1 = most popular. Used by resolver
  /// platforms to model ambient cache warmth from their global user base.
  double popularity = 0.01;
  /// Dual-stack names answer AAAA queries; the rest return NODATA.
  bool has_ipv6 = false;
};

/// Identifies a resolver platform's geolocation quality when asking for
/// a CDN answer: probability the best (nearest/fastest) edge is chosen.
struct GeoQuality {
  double best_edge_prob = 0.9;
};

struct ZoneDbConfig {
  std::uint64_t seed = 1;
  std::size_t web_sites = 600;
  std::size_t cdn_domains = 50;       ///< shared asset hosts
  std::size_t ad_domains = 90;
  std::size_t tracker_domains = 60;
  std::size_t api_domains = 120;
  std::size_t video_sites = 25;
  std::size_t other_names = 150;
  double zipf_exponent = 0.95;        ///< site popularity skew
  std::size_t edges_per_cdn = 4;      ///< CDN edge pool size per domain
  std::size_t hosting_pool_ips = 200; ///< shared-hosting address pool
};

/// The generated universe. Immutable after construction.
class ZoneDb {
 public:
  explicit ZoneDb(const ZoneDbConfig& cfg);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const HostRecord& record(NameId id) const { return records_.at(id); }
  [[nodiscard]] std::optional<NameId> find(const dns::DomainName& name) const;

  /// Authoritative answer for a query, as a ready answer section.
  /// For CDN names, `geo` picks between near and far edges; each call
  /// re-samples (real CDNs rotate answers), hence `rng`.
  /// Unknown names return an empty vector (callers emit NXDOMAIN).
  [[nodiscard]] std::vector<dns::ResourceRecord> authoritative_answer(
      const dns::DomainName& name, const GeoQuality& geo, Rng& rng) const;

  /// Typed variant: A behaves like authoritative_answer; AAAA returns
  /// synthetic v6 records for dual-stack names and an empty set (NODATA)
  /// otherwise; all other types yield an empty set.
  [[nodiscard]] std::vector<dns::ResourceRecord> authoritative_answer_typed(
      const dns::DomainName& name, dns::RrType qtype, const GeoQuality& geo, Rng& rng) const;

  /// Relative delivery quality of an address in (0, 1]; the traffic model
  /// divides transfer times by this. 1.0 for addresses we don't track.
  [[nodiscard]] double throughput_factor(Ipv4Addr addr) const;

  /// All ids of a service class (traffic model samples from these).
  [[nodiscard]] const std::vector<NameId>& ids_of(ServiceClass s) const;

  /// Zipf sampler over web-site ids, shared by all houses (global
  /// popularity is a property of the web, not of a household).
  [[nodiscard]] NameId sample_web_site(Rng& rng) const;
  [[nodiscard]] NameId sample_video_site(Rng& rng) const;

  /// The connectivity-check hostname (kConnCheck singleton).
  [[nodiscard]] NameId conn_check_id() const { return conn_check_id_; }

 private:
  void add_record(HostRecord rec);
  [[nodiscard]] Ipv4Addr alloc_ip(std::uint8_t first_octet, Rng& rng);

  std::vector<HostRecord> records_;
  util::FlatMap<dns::DomainName, NameId, dns::DomainNameHash> by_name_;
  std::unordered_map<Ipv4Addr, double, Ipv4Hash> throughput_;
  std::unordered_map<std::uint8_t, std::vector<NameId>> by_service_;
  std::vector<NameId> web_site_ids_;
  std::vector<NameId> video_site_ids_;
  std::optional<ZipfSampler> web_zipf_;
  std::optional<ZipfSampler> video_zipf_;
  NameId conn_check_id_ = 0;
  std::vector<Ipv4Addr> hosting_pool_;
};

}  // namespace dnsctx::resolver
