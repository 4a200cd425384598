// dnsctx — the per-house gateway: NAT between the in-home network and the
// WAN, matching the CCZ deployment (§3 of the paper: supplied routers do
// NAT but do NOT act as DNS forwarders — the monitor therefore sees one
// address per house and real device-issued DNS queries).
//
// An optional DNS intercept hook lets the §8 "whole-house cache" studies
// turn the same gateway into a caching forwarder without touching the
// rest of the stack.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/packet.hpp"
#include "netsim/sim.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dnsctx::netsim {

/// A NAT mapping's inside end: device address, source port, protocol.
struct NatInternalKey {
  Ipv4Addr ip;
  std::uint16_t port = 0;
  Proto proto = Proto::kTcp;
  bool operator==(const NatInternalKey&) const = default;
};

/// A NAT mapping's outside end (the house's one external address is
/// implied): external port, protocol.
struct NatExternalKey {
  std::uint16_t port = 0;
  Proto proto = Proto::kTcp;
  bool operator==(const NatExternalKey&) const = default;
};

/// Both hashes pack every field into one word before mixing, so the
/// port and the protocol reach the low bits util::FlatMap indexes with.
struct NatInternalKeyHash {
  [[nodiscard]] std::size_t operator()(const NatInternalKey& k) const noexcept {
    return hash_combine(0, static_cast<std::uint64_t>(k.ip.to_u32()) << 32 |
                               static_cast<std::uint64_t>(k.port) << 8 |
                               static_cast<std::uint64_t>(k.proto));
  }
};
struct NatExternalKeyHash {
  [[nodiscard]] std::size_t operator()(const NatExternalKey& k) const noexcept {
    return hash_combine(0, static_cast<std::uint64_t>(k.port) << 8 |
                               static_cast<std::uint64_t>(k.proto));
  }
};

/// NAT + in-home LAN for one house.
class HouseGateway : public Host {
 public:
  /// `lan_delay` is the one-way device↔gateway delay (WiFi/Ethernet).
  HouseGateway(Simulator& sim, Network& wan, Ipv4Addr external_ip, std::uint64_t seed,
               SimDuration lan_delay = SimDuration::from_ms(0.5));

  /// Attach a device at its in-home (RFC 1918) address.
  void attach_device(Ipv4Addr internal_ip, Host* device);

  /// Device-side entry point: translate source and forward to the WAN.
  void from_device(Packet p);

  /// WAN-side entry point (Host): translate destination and deliver to
  /// the owning device.
  void receive(const Packet& p) override;

  /// Optional intercept for outbound UDP/53. Returning true means the
  /// hook consumed the packet (the §8 forwarder answers from its cache);
  /// false forwards normally. The hook sees the *pre-NAT* packet.
  using DnsIntercept = std::function<bool(const Packet&)>;
  void set_dns_intercept(DnsIntercept hook) { dns_intercept_ = std::move(hook); }

  /// Deliver a packet straight to the device owning `p.dst_ip` after the
  /// in-home LAN delay (used by the DNS forwarder to answer locally).
  void deliver_to_device(Packet p);

  [[nodiscard]] Ipv4Addr external_ip() const { return external_ip_; }
  [[nodiscard]] std::size_t active_mappings() const { return by_external_.size(); }

 private:
  struct Mapping {
    NatInternalKey internal;
    std::uint16_t external_port;
    SimTime last_used;
  };

  [[nodiscard]] std::uint16_t map_outbound(const NatInternalKey& key);
  void sweep_stale();
  void release_mapping(std::uint32_t idx, const NatExternalKey& ext);

  Simulator& sim_;
  Network& wan_;
  Ipv4Addr external_ip_;
  SimDuration lan_delay_;
  Rng rng_;
  DnsIntercept dns_intercept_;

  util::FlatMap<Ipv4Addr, Host*> devices_;
  // Mappings live in a recycled slab; both indexes point into it, so the
  // outbound hot path costs exactly one hash lookup (internal key → slab
  // slot) and refreshes last_used in place.
  std::vector<Mapping> slab_;
  std::vector<std::uint32_t> free_slots_;
  util::FlatMap<NatInternalKey, std::uint32_t, NatInternalKeyHash> by_internal_;
  util::FlatMap<NatExternalKey, std::uint32_t, NatExternalKeyHash> by_external_;
  std::uint16_t next_port_ = 1024;
  bool sweep_armed_ = false;

  /// Mappings idle longer than this are reclaimable.
  static constexpr SimDuration kMappingIdleLimit = SimDuration::min(15);
};

}  // namespace dnsctx::netsim
