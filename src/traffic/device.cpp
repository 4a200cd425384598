#include "traffic/device.hpp"

namespace dnsctx::traffic {

Device::Device(netsim::Simulator& sim, netsim::HouseGateway& gateway, Ipv4Addr internal_ip,
               resolver::StubConfig stub_cfg, std::uint64_t seed)
    : sim_{sim},
      gateway_{gateway},
      ip_{internal_ip},
      rng_{derive_seed(seed, "device-rng")},
      stub_{sim, internal_ip, std::move(stub_cfg), derive_seed(seed, "device-stub"),
            [this](netsim::Packet p) { gateway_.from_device(std::move(p)); }} {
  gateway_.attach_device(internal_ip, this);
}

std::uint16_t Device::alloc_port() {
  for (int i = 0; i < 10'000; ++i) {
    const std::uint16_t candidate = next_port_;
    next_port_ = next_port_ >= 19'999 ? std::uint16_t{10'000}
                                      : static_cast<std::uint16_t>(next_port_ + 1);
    if (!tcp_.contains(candidate)) return candidate;
  }
  throw std::runtime_error{"Device: out of client ports"};
}

void Device::open_tcp(Ipv4Addr dst, std::uint16_t dst_port, netsim::TransferIntent intent,
                      ConnDone done) {
  if (truth_) ++truth_->no_dns_conns;  // public entry = address known a priori
  intent.true_class = netsim::TrueClass::kNoDns;
  open_tcp_impl(dst, dst_port, intent, std::move(done));
}

void Device::open_tcp_impl(Ipv4Addr dst, std::uint16_t dst_port, netsim::TransferIntent intent,
                           ConnDone done) {
  const std::uint16_t sport = alloc_port();
  ClientConn conn;
  conn.dst = dst;
  conn.dst_port = dst_port;
  conn.intent = intent;
  conn.done = std::move(done);
  tcp_.try_emplace(sport, std::move(conn));
  ++tcp_opened_;
  send_syn(sport);
  arm_syn_timer(sport, 1);
}

void Device::send_syn(std::uint16_t sport) {
  const auto it = tcp_.find(sport);
  if (it == tcp_.end()) return;
  netsim::Packet syn;
  syn.src_ip = ip_;
  syn.dst_ip = it->second.dst;
  syn.src_port = sport;
  syn.dst_port = it->second.dst_port;
  syn.proto = Proto::kTcp;
  syn.tcp = netsim::TcpFlags{.syn = true};
  syn.intent = it->second.intent;
  gateway_.from_device(std::move(syn));
}

SimDuration Device::syn_timeout(int attempt) const {
  if (syn_backoff_ == 1.0) return kSynTimeout;
  double scale = 1.0;
  for (int i = 1; i < attempt; ++i) scale *= syn_backoff_;
  return SimDuration::us(
      static_cast<std::int64_t>(static_cast<double>(kSynTimeout.count_us()) * scale));
}

void Device::arm_syn_timer(std::uint16_t sport, int expected_attempts) {
  sim_.after(syn_timeout(expected_attempts), [this, sport, expected_attempts]() {
    const auto it = tcp_.find(sport);
    if (it == tcp_.end() || it->second.state != TcpState::kSynSent ||
        it->second.syn_attempts != expected_attempts) {
      return;
    }
    if (it->second.syn_attempts >= kMaxSynAttempts) {
      ++tcp_failed_;
      if (it->second.done) it->second.done(false);
      tcp_.erase(sport);
      return;
    }
    ++it->second.syn_attempts;
    send_syn(sport);
    arm_syn_timer(sport, it->second.syn_attempts);
  });
}

void Device::send_udp(Ipv4Addr dst, std::uint16_t dst_port, std::uint16_t src_port,
                      std::uint64_t payload, std::optional<netsim::TransferIntent> intent) {
  if (truth_ && intent) ++truth_->no_dns_conns;  // intent-bearing datagram opens a flow
  if (intent) intent->true_class = netsim::TrueClass::kNoDns;
  netsim::Packet p;
  p.src_ip = ip_;
  p.dst_ip = dst;
  p.src_port = src_port;
  p.dst_port = dst_port;
  p.proto = Proto::kUdp;
  p.payload_bytes = payload;
  p.intent = intent;
  gateway_.from_device(std::move(p));
}

void Device::receive(const netsim::Packet& p) {
  if (p.proto == Proto::kUdp) {
    if (p.src_port == 53) stub_.on_response(p);
    return;  // other inbound UDP (P2P/stream payloads) needs no client action
  }
  if (p.src_port == 53) {  // DNS truncation fallback runs over TCP
    stub_.on_tcp(p);
    return;
  }
  // Encrypted DNS channels (DoT/DoH). Port 443 is ambiguous — ordinary
  // web responses come from it too — so the stub's channel ports (20000+,
  // disjoint from client ports 10000..19999) are the demux key.
  if ((p.src_port == 853 || p.src_port == 443) && stub_.owns_secure_port(p.dst_port)) {
    stub_.on_secure(p);
    return;
  }
  const auto it = tcp_.find(p.dst_port);
  if (it == tcp_.end()) {
    // No such connection (late SYN-ACK after give-up): reset.
    if (!p.tcp.rst) {
      netsim::Packet rst;
      rst.src_ip = ip_;
      rst.dst_ip = p.src_ip;
      rst.src_port = p.dst_port;
      rst.dst_port = p.src_port;
      rst.proto = Proto::kTcp;
      rst.tcp = netsim::TcpFlags{.rst = true};
      gateway_.from_device(std::move(rst));
    }
    return;
  }
  ClientConn& conn = it->second;
  if (p.tcp.rst) {
    if (conn.state == TcpState::kSynSent) {
      ++tcp_failed_;
      if (conn.done) conn.done(false);
    }
    tcp_.erase(p.dst_port);
    return;
  }
  if (conn.state == TcpState::kSynSent && p.tcp.syn && p.tcp.ack) {
    conn.state = TcpState::kEstablished;
    // Send the request; the farm animates the rest.
    netsim::Packet req;
    req.src_ip = ip_;
    req.dst_ip = conn.dst;
    req.src_port = p.dst_port;
    req.dst_port = conn.dst_port;
    req.proto = Proto::kTcp;
    req.tcp = netsim::TcpFlags{.ack = true};
    req.payload_bytes = conn.intent.request_bytes;
    gateway_.from_device(std::move(req));
    if (conn.done) conn.done(true);
    return;
  }
  if (p.tcp.fin) {
    // Server closed: acknowledge with our FIN half and forget.
    netsim::Packet fin;
    fin.src_ip = ip_;
    fin.dst_ip = conn.dst;
    fin.src_port = p.dst_port;
    fin.dst_port = conn.dst_port;
    fin.proto = Proto::kTcp;
    fin.tcp = netsim::TcpFlags{.ack = true, .fin = true};
    gateway_.from_device(std::move(fin));
    tcp_.erase(p.dst_port);
    return;
  }
  // Plain data segments need no client response in this model.
}

void Device::fetch(const dns::DomainName& name, std::uint16_t dst_port,
                   netsim::TransferIntent intent, std::function<void(const FetchResult&)> cb,
                   std::optional<SimDuration> connect_delay) {
  if (truth_) ++truth_->fetches;
  stub_.resolve(name, [this, dst_port, intent, cb = std::move(cb), connect_delay](
                          const resolver::ResolveResult& dns_res) {
    if (truth_ && dns_res.success) {
      if (dns_res.from_cache) {
        ++truth_->fetch_cache_hits;
        if (dns_res.used_expired) ++truth_->fetch_cache_expired;
        if (dns_res.origin == dns::CacheOrigin::kPushed) ++truth_->fetch_pushed_hits;
      } else {
        ++truth_->fetch_blocked;
      }
    }
    if (!dns_res.success || dns_res.addrs.empty()) {
      if (cb) cb(FetchResult{false, dns_res});
      return;
    }
    // Tag the connection's ground-truth class (per the vantage-point
    // rule the monitor never reads this; TruthTap collects it).
    netsim::TransferIntent tagged = intent;
    if (dns_res.from_cache) {
      switch (dns_res.origin) {
        case dns::CacheOrigin::kPushed:
          tagged.true_class = netsim::TrueClass::kPushed;
          break;
        case dns::CacheOrigin::kSpeculative:
          // First use of a prefetched entry is the paper's P class;
          // re-use afterwards is indistinguishable from LC truth-wise.
          tagged.true_class = dns_res.first_use ? netsim::TrueClass::kPrefetched
                                                : netsim::TrueClass::kLocalCache;
          break;
        case dns::CacheOrigin::kQuery:
          tagged.true_class = netsim::TrueClass::kLocalCache;
          break;
      }
    } else {
      tagged.true_class = dns_res.upstream_cache_hit ? netsim::TrueClass::kSharedCache
                                                     : netsim::TrueClass::kRequired;
    }
    // Application think time between learning the address and connecting:
    // fractions of a millisecond to a few milliseconds (socket setup,
    // script execution). This gap is what the blocked region of Fig 1
    // is made of.
    const SimDuration delay =
        connect_delay.value_or(SimDuration::from_ms(1.0 + rng_.exponential(3.5)));
    const Ipv4Addr target = dns_res.addrs.front();
    sim_.after(delay,
               [this, target, dst_port, tagged, dns_res, cb = std::move(cb)]() {
                 open_tcp_impl(target, dst_port, tagged, [dns_res, cb](bool ok) {
                   if (cb) cb(FetchResult{ok, dns_res});
                 });
               });
  });
}

void Device::prefetch(const dns::DomainName& name) {
  if (truth_) ++truth_->prefetches;
  stub_.resolve(name, [](const resolver::ResolveResult&) {}, /*speculative=*/true);
}

}  // namespace dnsctx::traffic
