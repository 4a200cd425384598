#include "netsim/nat.hpp"

#include <stdexcept>
#include <vector>

namespace dnsctx::netsim {

HouseGateway::HouseGateway(Simulator& sim, Network& wan, Ipv4Addr external_ip,
                           std::uint64_t seed, SimDuration lan_delay)
    : sim_{sim}, wan_{wan}, external_ip_{external_ip}, lan_delay_{lan_delay}, rng_{seed} {
  wan_.attach(external_ip_, this);
  wan_.register_access_ip(external_ip_);
}

void HouseGateway::attach_device(Ipv4Addr internal_ip, Host* device) {
  devices_[internal_ip] = device;
}

void HouseGateway::release_mapping(std::uint32_t idx, const NatExternalKey& ext) {
  by_internal_.erase(slab_[idx].internal);
  by_external_.erase(ext);
  free_slots_.push_back(idx);
}

std::uint16_t HouseGateway::map_outbound(const NatInternalKey& key) {
  if (const auto it = by_internal_.find(key); it != by_internal_.end()) {
    Mapping& m = slab_[it->second];
    m.last_used = sim_.now();
    return m.external_port;
  }
  // Allocate the next free (or reclaimable) external port; one full scan
  // of the port space before declaring exhaustion.
  for (std::uint32_t attempts = 0; attempts < 64'512; ++attempts) {
    const std::uint16_t candidate = next_port_;
    next_port_ = next_port_ == 65'535 ? std::uint16_t{1024} : static_cast<std::uint16_t>(next_port_ + 1);
    const NatExternalKey ext{candidate, key.proto};
    const auto it = by_external_.find(ext);
    if (it != by_external_.end()) {
      if (sim_.now() - slab_[it->second].last_used < kMappingIdleLimit) continue;
      release_mapping(it->second, ext);
    }
    std::uint32_t idx;
    if (!free_slots_.empty()) {
      idx = free_slots_.back();
      free_slots_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    slab_[idx] = Mapping{key, candidate, sim_.now()};
    by_internal_[key] = idx;
    by_external_[ext] = idx;
    if (!sweep_armed_) {
      sweep_armed_ = true;
      sim_.after(kMappingIdleLimit, [this] { sweep_stale(); });
    }
    return candidate;
  }
  throw std::runtime_error{"HouseGateway: NAT port space exhausted"};
}

void HouseGateway::sweep_stale() {
  // Reclaim idle mappings in bulk so the tables track the active flow
  // count instead of growing for the whole run. Uses the same idle
  // threshold as the allocator's lazy reclaim, so port allocation is
  // unaffected: a mapping idle past the limit behaves exactly like an
  // absent one there.
  std::vector<std::pair<NatExternalKey, std::uint32_t>> dead;
  for (const auto& [ext, idx] : by_external_) {
    if (sim_.now() - slab_[idx].last_used >= kMappingIdleLimit) dead.emplace_back(ext, idx);
  }
  for (const auto& [ext, idx] : dead) release_mapping(idx, ext);
  if (by_external_.empty()) {
    // Nothing left to age out; re-arm on the next allocation so an idle
    // gateway holds no pending events (run_to_completion terminates).
    sweep_armed_ = false;
    return;
  }
  sim_.after(kMappingIdleLimit, [this] { sweep_stale(); });
}

void HouseGateway::from_device(Packet p) {
  if (dns_intercept_ && p.proto == Proto::kUdp && p.dst_port == 53) {
    if (dns_intercept_(p)) return;
  }
  const NatInternalKey key{p.src_ip, p.src_port, p.proto};
  const std::uint16_t ext_port = map_outbound(key);
  // Translate now (the values are already fixed), adopt into the WAN's
  // packet arena, and let the LAN-hop closure carry only the handle.
  const double lan_jitter_ms = rng_.exponential(0.1);
  p.src_ip = external_ip_;
  p.src_port = ext_port;
  PacketHandle h = wan_.arena().adopt(std::move(p));
  sim_.after(lan_delay_ + SimDuration::from_ms(lan_jitter_ms),
             [wan = &wan_, h = std::move(h)]() { wan->send(h); });
}

void HouseGateway::deliver_to_device(Packet p) {
  const auto dev = devices_.find(p.dst_ip);
  if (dev == devices_.end()) return;
  const double lan_jitter_ms = rng_.exponential(0.1);
  PacketHandle h = wan_.arena().adopt(std::move(p));
  sim_.after(lan_delay_ + SimDuration::from_ms(lan_jitter_ms),
             [host = dev->second, h = std::move(h)]() { host->receive(*h); });
}

void HouseGateway::receive(const Packet& p) {
  const auto it = by_external_.find(NatExternalKey{p.dst_port, p.proto});
  if (it == by_external_.end()) return;  // unsolicited inbound: dropped, like real NAT
  Mapping& m = slab_[it->second];
  m.last_used = sim_.now();
  const NatInternalKey target = m.internal;
  const auto dev = devices_.find(target.ip);
  if (dev == devices_.end()) return;
  Packet translated = p;
  translated.dst_ip = target.ip;
  translated.dst_port = target.port;
  const double lan_jitter_ms = rng_.exponential(0.1);
  PacketHandle h = wan_.arena().adopt(std::move(translated));
  sim_.after(lan_delay_ + SimDuration::from_ms(lan_jitter_ms),
             [host = dev->second, h = std::move(h)]() { host->receive(*h); });
}

}  // namespace dnsctx::netsim
