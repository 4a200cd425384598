// dnsctx — a whole-house caching DNS forwarder (§8 of the paper).
//
// The CCZ's supplied routers do NOT forward DNS; §8 asks what would
// change if they did. This component turns a HouseGateway into a caching
// forwarder: it transparently intercepts outbound UDP/53 queries from
// devices, answers from a house-wide cache when possible, and otherwise
// relays the query upstream (through the same NAT path, so the monitor
// still sees it). The §8/Table 3 *numbers* come from the trace-driven
// simulators in src/cachesim; this live component backs the what-if
// example and integration tests.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dns/cache.hpp"
#include "dns/codec.hpp"
#include "netsim/nat.hpp"

namespace dnsctx::resolver {

class WholeHouseForwarder : public netsim::Host {
 public:
  /// Installs itself as `gateway`'s DNS intercept and attaches as an
  /// in-home pseudo-device at `forwarder_ip` for upstream responses.
  WholeHouseForwarder(netsim::Simulator& sim, netsim::HouseGateway& gateway,
                      Ipv4Addr forwarder_ip, dns::CacheConfig cache_cfg);

  /// Upstream responses arrive here (via the gateway's NAT demux).
  void receive(const netsim::Packet& p) override;

  [[nodiscard]] const dns::CacheStats& cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const dns::DnsCache& cache() const { return cache_; }
  [[nodiscard]] std::uint64_t upstream_queries() const { return upstream_queries_; }

 private:
  /// The gateway intercept: true = consumed (answered or relayed).
  bool on_device_query(const netsim::Packet& p);
  void answer_device(const netsim::Packet& original_query, const dns::DnsMessage& query,
                     std::vector<dns::ResourceRecord> answers, dns::Rcode rcode,
                     std::uint32_t remaining_ttl_sec);

  netsim::Simulator& sim_;
  netsim::HouseGateway& gateway_;
  Ipv4Addr forwarder_ip_;
  dns::DnsCache cache_;

  struct Relayed {
    netsim::Packet original_query;  ///< pre-NAT packet from the device
    dns::DnsMessage query;
  };
  std::unordered_map<std::uint16_t, Relayed> upstream_;  // by our txid
  std::uint16_t next_txid_ = 1;
  std::uint16_t next_port_ = 30'000;
  std::uint64_t upstream_queries_ = 0;
};

}  // namespace dnsctx::resolver
