// dnsctx — recursive resolver platforms (the ISP's resolvers and the
// public anycast platforms: Google, Cloudflare, OpenDNS).
//
// Each platform models the behaviours behind the paper's §5.3/§7 results:
//   * a shared cache, possibly sharded across frontends — random load
//     balancing across many shards fragments the cache (low observed hit
//     rate, à la Google's 23.0%), while name-hashed sharding behaves as
//     one big cache (Cloudflare's 83.6%),
//   * "ambient warmth": a platform serving a large external user base
//     has popular names cached regardless of this neighborhood's history,
//   * authoritative fan-out delay on misses (1..3 upstream queries plus
//     occasional retransmission tails),
//   * TTL clamping, and CDN-geo quality of the answers it fetches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dns/cache.hpp"
#include "dns/codec.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "resolver/zonedb.hpp"

namespace dnsctx::resolver {

struct PlatformConfig {
  std::string name = "Local";
  std::vector<Ipv4Addr> addrs;
  netsim::SiteProfile site;              ///< distance from the aggregation point
  std::size_t frontends = 1;             ///< cache shards
  bool shard_by_name = false;            ///< true: queries for a name always hit the same shard
  bool shard_by_addr = false;            ///< true: shard = queried service address (discrete
                                         ///< resolver boxes, like the ISP's two resolvers)
  dns::CacheConfig cache;                ///< per-shard cache config
  GeoQuality geo;                        ///< CDN edge-selection quality
  double ambient_warmth = 0.0;           ///< miss→hit conversion scale for popular names
  double ambient_pop_exp = 0.3;          ///< popularity exponent for ambient conversion
  double auth_rtt_ms_mean = 25.0;        ///< mean per-authoritative-query delay
  double extra_auth_query_prob = 0.3;    ///< chance each additional upstream query is needed
  double slow_tail_prob = 0.02;          ///< chance of a retransmission-scale stall
  double slow_tail_ms_mean = 900.0;      ///< magnitude of such stalls
  double proc_ms = 0.2;                  ///< fixed per-query processing time
};

/// Ground-truth counters (the passive monitor cannot see these; tests
/// and EXPERIMENTS.md use them to validate the paper's heuristics).
struct PlatformStats {
  std::uint64_t queries = 0;
  std::uint64_t shard_hits = 0;
  std::uint64_t ambient_hits = 0;
  std::uint64_t auth_resolutions = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t truncated_udp = 0;  ///< responses that exceeded 512 B over UDP/53
  std::uint64_t servfail_injected = 0;  ///< failures injected by the fault plan
  std::uint64_t nxdomain_injected = 0;  ///< spurious NXDOMAINs from the fault plan
  std::uint64_t outage_dropped = 0;     ///< packets swallowed during a timed outage

  [[nodiscard]] double cache_hit_rate() const {
    return queries ? static_cast<double>(shard_hits + ambient_hits) /
                         static_cast<double>(queries)
                   : 0.0;
  }
};

/// One resolver platform attached to the WAN at its service addresses.
class RecursiveResolverPlatform : public netsim::Host {
 public:
  RecursiveResolverPlatform(netsim::Simulator& sim, netsim::Network& net, const ZoneDb& zones,
                            PlatformConfig cfg, std::uint64_t seed);

  void receive(const netsim::Packet& p) override;

  /// Arm plan-driven failures. The fault RNG is a dedicated stream so
  /// arming (or re-arming) never perturbs the platform's own draws;
  /// an inactive config keeps the baseline byte-identical.
  void set_faults(faults::ResolverFaultConfig cfg, std::uint64_t seed);

  [[nodiscard]] const PlatformConfig& config() const { return cfg_; }
  [[nodiscard]] const PlatformStats& stats() const { return stats_; }

  /// Total entries across shards (diagnostics).
  [[nodiscard]] std::size_t cached_entries() const;
  /// Heap bytes of the shards' caches (dns::DnsCache::bytes()).
  [[nodiscard]] std::size_t cached_bytes() const;

 private:
  void answer(const netsim::Packet& query, const dns::DnsMessage& msg);
  /// `truth_cache_hit` tags the response's sim-internal ground-truth
  /// annotation (shared-cache vs authoritative answer) for TruthTap.
  void respond(const netsim::Packet& query, const dns::DnsMessage& msg,
               std::vector<dns::ResourceRecord> answers, dns::Rcode rcode, SimDuration delay,
               bool truth_cache_hit = false);
  [[nodiscard]] std::size_t shard_for(const dns::DomainName& qname, Ipv4Addr service_addr);
  [[nodiscard]] SimDuration sample_auth_delay();

  netsim::Simulator& sim_;
  netsim::Network& net_;
  const ZoneDb& zones_;
  PlatformConfig cfg_;
  Rng rng_;
  std::vector<dns::DnsCache> shards_;
  PlatformStats stats_;
  faults::ResolverFaultConfig faults_;
  std::unique_ptr<Rng> fault_rng_;  ///< null until set_faults() arms a plan
};

/// Build the paper's four platforms (Table 1) with calibrated profiles:
/// Local ISP (RTT ≈ 2 ms), Google (≈ 20 ms), OpenDNS (≈ 20 ms),
/// Cloudflare (≈ 9 ms). Returned in that order.
[[nodiscard]] std::vector<PlatformConfig> default_platforms();

/// Well-known service addresses used by default_platforms().
namespace well_known {
inline constexpr Ipv4Addr kIspResolver1{100, 66, 250, 1};
inline constexpr Ipv4Addr kIspResolver2{100, 66, 250, 2};
inline constexpr Ipv4Addr kGoogle1{8, 8, 8, 8};
inline constexpr Ipv4Addr kGoogle2{8, 8, 4, 4};
inline constexpr Ipv4Addr kCloudflare1{1, 1, 1, 1};
inline constexpr Ipv4Addr kCloudflare2{1, 0, 0, 1};
inline constexpr Ipv4Addr kOpenDns1{208, 67, 222, 222};
inline constexpr Ipv4Addr kOpenDns2{208, 67, 220, 220};
}  // namespace well_known

}  // namespace dnsctx::resolver
