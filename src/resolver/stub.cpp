#include "resolver/stub.hpp"

#include <utility>

namespace dnsctx::resolver {

StubResolver::StubResolver(netsim::Simulator& sim, Ipv4Addr device_ip, StubConfig cfg,
                           std::uint64_t seed, SendFn send)
    : sim_{sim},
      device_ip_{device_ip},
      cfg_{std::move(cfg)},
      rng_{seed},
      send_{std::move(send)},
      cache_{cfg_.cache} {}

void StubResolver::resolve(const dns::DomainName& name, Callback cb, bool speculative) {
  // 1. Device cache — including TTL-violating stale entries. The hit
  // reads the addresses straight from the entry.
  if (auto hit = cache_.lookup(name, dns::RrType::kA, sim_.now())) {
    ResolveResult res;
    res.success = !hit->answers.empty();
    hit->answers.append_addresses(res.addrs);
    res.from_cache = true;
    res.used_expired = hit->expired;
    res.origin = hit->origin;
    res.first_use = hit->first_use;
    // A cache probe is not free but is far below network scale.
    sim_.after(SimDuration::us(50),
               [cb = std::move(cb), res = std::move(res)]() { cb(res); });
    return;
  }

  // 2. Join an in-flight query for the same name.
  if (const auto it = inflight_.find(dns::CacheKey{name, dns::RrType::kA});
      it != inflight_.end()) {
    it->second->callbacks.push_back(std::move(cb));
    return;
  }

  // 3. New query.
  if (cfg_.resolver_addrs.empty()) {
    ResolveResult res;  // no resolver configured: immediate failure
    ++failures_;
    sim_.after(SimDuration::us(50),
               [cb = std::move(cb), res = std::move(res)]() { cb(res); });
    return;
  }
  auto pending = start_query(name, dns::RrType::kA, speculative);
  pending->callbacks.push_back(std::move(cb));

  // Happy eyeballs: dual-stack hosts race an AAAA query too.
  if (cfg_.aaaa_prob > 0.0 && rng_.bernoulli(cfg_.aaaa_prob) &&
      !inflight_.contains(dns::CacheKey{name, dns::RrType::kAaaa}) &&
      !cache_.peek(name, dns::RrType::kAaaa, sim_.now())) {
    (void)start_query(name, dns::RrType::kAaaa, speculative);
  }
}

std::shared_ptr<StubResolver::Pending> StubResolver::start_query(const dns::DomainName& name,
                                                                 dns::RrType qtype,
                                                                 bool speculative) {
  auto pending = std::make_shared<Pending>();
  pending->name = name;
  pending->qtype = qtype;
  pending->speculative = speculative;
  pending->txid = next_txid_ == 0 ? ++next_txid_ : next_txid_;
  ++next_txid_;
  pending->src_port = alloc_port();
  pending->first_sent = sim_.now();
  inflight_.try_emplace(dns::CacheKey{name, qtype}, pending);
  by_txid_.try_emplace(pending->txid, pending);
  send_query(pending);
  return pending;
}

void StubResolver::send_query(const std::shared_ptr<Pending>& pending) {
  ++pending->attempt_gen;  // invalidate timers armed for earlier attempts
  ++queries_sent_;
  if (netsim::traits_for(cfg_.transport).encrypted) {
    send_query_secure(pending);
  } else {
    send_query_udp(pending);
  }
  arm_timeout(pending);
}

void StubResolver::send_query_udp(const std::shared_ptr<Pending>& pending) {
  const Ipv4Addr resolver = cfg_.resolver_addrs[pending->resolver_idx];
  dns::DnsMessage q = dns::DnsMessage::query(pending->txid, pending->name, pending->qtype);
  netsim::Packet p;
  p.src_ip = device_ip_;
  p.dst_ip = resolver;
  p.src_port = pending->src_port;
  p.dst_port = 53;
  p.proto = Proto::kUdp;
  p.dns = dns::DnsPayload::from_message(std::move(q));
  send_(std::move(p));
}

// ---- encrypted channels (DoT/DoH) ------------------------------------------

std::uint16_t StubResolver::alloc_port() {
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 64'000 ? std::uint16_t{20'000}
                                    : static_cast<std::uint16_t>(next_port_ + 1);
  return port;
}

StubResolver::Channel& StubResolver::channel_for(Ipv4Addr resolver) {
  auto it = channels_.find(resolver);
  if (it == channels_.end()) {
    const auto& traits = netsim::traits_for(cfg_.transport);
    it = channels_
             .try_emplace(resolver, std::make_unique<Channel>(resolver, traits.idle_timeout))
             .first;
  }
  return *it->second;
}

void StubResolver::open_channel(Channel& ch) {
  ch.local_port = alloc_port();
  secure_by_port_[ch.local_port] = &ch;
  netsim::Packet syn;
  syn.src_ip = device_ip_;
  syn.dst_ip = ch.resolver;
  syn.src_port = ch.local_port;
  syn.dst_port = netsim::traits_for(cfg_.transport).port;
  syn.proto = Proto::kTcp;
  syn.tcp = netsim::TcpFlags{.syn = true};
  send_(std::move(syn));
}

void StubResolver::send_channel_ctrl(const Channel& ch, netsim::TcpFlags flags,
                                     std::uint64_t payload_bytes) {
  netsim::Packet p;
  p.src_ip = device_ip_;
  p.dst_ip = ch.resolver;
  p.src_port = ch.local_port;
  p.dst_port = netsim::traits_for(cfg_.transport).port;
  p.proto = Proto::kTcp;
  p.tcp = flags;
  p.payload_bytes = payload_bytes;
  send_(std::move(p));
}

void StubResolver::send_secure_data(Channel& ch, const Pending& pending) {
  const auto& traits = netsim::traits_for(cfg_.transport);
  dns::DnsMessage q = dns::DnsMessage::query(pending.txid, pending.name, pending.qtype);
  netsim::Packet p;
  p.src_ip = device_ip_;
  p.dst_ip = ch.resolver;
  p.src_port = ch.local_port;
  p.dst_port = traits.port;
  p.proto = Proto::kTcp;
  p.tcp = netsim::TcpFlags{.ack = true};
  p.dns = dns::DnsPayload::from_message(std::move(q));
  // The tap's view of this packet is header + payload_bytes + DNS wire
  // size; pad so the observable ciphertext is the RFC 8467 padded size
  // plus framing, never the true message size.
  const auto wire = static_cast<std::uint64_t>(p.dns.wire_size());
  p.payload_bytes =
      netsim::padded_payload(wire, traits.query_pad_block, traits.per_message_overhead) -
      wire;
  send_(std::move(p));
  ch.chan.touch(sim_.now());
  arm_idle(ch);
}

void StubResolver::arm_idle(Channel& ch) {
  const std::uint64_t gen = ++ch.idle_gen;
  sim_.after(ch.chan.idle_timeout(), [this, &ch, gen]() {
    if (ch.idle_gen != gen) return;
    if (!ch.chan.idle_expired(sim_.now())) return;
    // Close our half; the mapping stays until the peer's FIN-ACK so the
    // device still routes it to us.
    send_channel_ctrl(ch, netsim::TcpFlags{.ack = true, .fin = true}, 0);
    ch.chan.close();
    ch.queued.clear();
    ch.local_port = 0;
  });
}

void StubResolver::send_query_secure(const std::shared_ptr<Pending>& pending) {
  Channel& ch = channel_for(cfg_.resolver_addrs[pending->resolver_idx]);
  const SimTime now = sim_.now();
  if (ch.chan.acquire(now)) {
    // Cold (or idle-expired): TCP+TLS handshake first, query queued.
    open_channel(ch);
    ch.queued.push_back(pending->txid);
    return;
  }
  if (ch.chan.state() == netsim::SecureChannel::State::kHandshaking) {
    bool queued = false;
    for (const std::uint16_t txid : ch.queued) queued |= txid == pending->txid;
    if (queued) {
      // Retransmission while the handshake is still pending (e.g. the
      // resolver is in outage): re-fire the SYN from the same port.
      send_channel_ctrl(ch, netsim::TcpFlags{.syn = true}, 0);
    } else {
      ch.queued.push_back(pending->txid);
    }
    return;
  }
  send_secure_data(ch, *pending);
}

void StubResolver::on_secure(const netsim::Packet& p) {
  const auto it = secure_by_port_.find(p.dst_port);
  if (it == secure_by_port_.end()) return;  // late segment for a closed channel
  Channel& ch = *it->second;
  if (p.src_ip != ch.resolver) return;
  if (p.tcp.rst) {
    secure_by_port_.erase(p.dst_port);
    if (ch.local_port == p.dst_port) {
      ch.chan.close();
      ch.queued.clear();
      ch.local_port = 0;
    }
    return;
  }
  if (p.tcp.syn && p.tcp.ack) {
    // TCP established: second handshake RTT carries the TLS ClientHello.
    send_channel_ctrl(ch, netsim::TcpFlags{.ack = true},
                      netsim::traits_for(cfg_.transport).client_hello_bytes);
    return;
  }
  if (p.tcp.fin) {
    // Peer's half of a close we initiated (or a server-side teardown).
    secure_by_port_.erase(p.dst_port);
    if (ch.local_port == p.dst_port) {
      ch.chan.close();
      ch.queued.clear();
      ch.local_port = 0;
    }
    return;
  }
  if (p.dns.empty()) {
    if (p.payload_bytes == 0) return;
    // ServerHello..Finished: the channel is up — flush queued queries.
    if (ch.chan.state() != netsim::SecureChannel::State::kHandshaking) return;
    ch.chan.established(sim_.now());
    const std::vector<std::uint16_t> queued = std::move(ch.queued);
    ch.queued.clear();
    for (const std::uint16_t txid : queued) {
      const auto pit = by_txid_.find(txid);
      if (pit == by_txid_.end()) continue;
      const auto& pending = pit->second;
      if (pending->done) continue;
      if (cfg_.resolver_addrs[pending->resolver_idx] != ch.resolver) continue;
      send_secure_data(ch, *pending);
    }
    arm_idle(ch);
    return;
  }
  const dns::DnsMessage* msg = p.dns.message();
  if (msg == nullptr || !msg->flags.qr) return;
  const auto pit = by_txid_.find(msg->id);
  if (pit == by_txid_.end()) return;
  const auto pending = pit->second;
  if (pending->done) return;
  if (cfg_.resolver_addrs[pending->resolver_idx] != ch.resolver) return;
  ch.chan.touch(sim_.now());
  arm_idle(ch);
  if (msg->flags.rcode == dns::Rcode::kServFail &&
      pending->resolver_idx + 1 < cfg_.resolver_addrs.size()) {
    // Same fast failover as the UDP path; the retry rides (or opens)
    // the next resolver's channel.
    ++servfail_failovers_;
    ++pending->resolver_idx;
    pending->attempts_on_resolver = 0;
    send_query(pending);
    return;
  }
  // No TC handling: stream transports never truncate (RFC 7858 §3.3).
  deliver_response(pending, *msg);
}

std::uint64_t StubResolver::secure_handshakes() const {
  std::uint64_t total = 0;
  for (const auto& [addr, ch] : channels_) total += ch->chan.handshakes();
  return total;
}

std::uint64_t StubResolver::secure_reuses() const {
  std::uint64_t total = 0;
  for (const auto& [addr, ch] : channels_) total += ch->chan.reuses();
  return total;
}

void StubResolver::insert_pushed(const dns::DomainName& name,
                                 std::vector<dns::ResourceRecord> answers, SimTime now) {
  ++pushed_inserts_;
  cache_.insert(name, dns::RrType::kA, answers, dns::Rcode::kNoError, now,
                SimDuration::zero(), dns::CacheOrigin::kPushed);
}

SimDuration StubResolver::attempt_timeout(const Pending& pending) const {
  if (cfg_.retry_backoff == 1.0) return cfg_.query_timeout;
  // Multiply out instead of pow(): bit-exact across libm versions.
  double scale = 1.0;
  for (int i = 0; i < pending.timeouts; ++i) scale *= cfg_.retry_backoff;
  const double us = static_cast<double>(cfg_.query_timeout.count_us()) * scale;
  const double cap = static_cast<double>(cfg_.max_query_timeout.count_us());
  return SimDuration::us(static_cast<std::int64_t>(us < cap ? us : cap));
}

bool StubResolver::try_next_attempt(const std::shared_ptr<Pending>& pending) {
  if (pending->attempts_on_resolver < cfg_.retries_per_resolver) {
    ++pending->attempts_on_resolver;
    send_query(pending);
    return true;
  }
  if (pending->resolver_idx + 1 < cfg_.resolver_addrs.size()) {
    ++pending->resolver_idx;
    pending->attempts_on_resolver = 0;
    send_query(pending);
    return true;
  }
  return false;
}

void StubResolver::arm_timeout(const std::shared_ptr<Pending>& pending) {
  const std::uint32_t gen = pending->attempt_gen;
  sim_.after(attempt_timeout(*pending), [this, pending, gen]() {
    if (pending->done || pending->attempt_gen != gen) return;
    if (pending->via_tcp) {
      // The TCP retry itself stalled: give up (terminal failure).
      tcp_by_port_.erase(pending->tcp_port);
      ++failures_;
      finish(pending, ResolveResult{});
      return;
    }
    ++pending->timeouts;
    if (try_next_attempt(pending)) return;
    ++failures_;
    finish(pending, ResolveResult{});  // terminal failure
  });
}

void StubResolver::on_response(const netsim::Packet& p) {
  if (p.dns.empty()) return;
  const dns::DnsMessage* msg = p.dns.message();
  if (msg == nullptr || !msg->flags.qr) return;
  const auto it = by_txid_.find(msg->id);
  if (it == by_txid_.end()) return;
  const auto pending = it->second;
  if (pending->done) return;
  // Anti-spoofing checks a real stub performs: source and port match.
  if (p.src_ip != cfg_.resolver_addrs[pending->resolver_idx] ||
      p.dst_port != pending->src_port) {
    return;
  }

  if (msg->flags.rcode == dns::Rcode::kServFail && !pending->via_tcp &&
      pending->resolver_idx + 1 < cfg_.resolver_addrs.size()) {
    // Real stubs fail over on SERVFAIL right away instead of burning
    // the retransmission budget on a resolver that answered "broken"
    // (glibc / systemd-resolved behaviour). The timer armed for this
    // attempt goes stale: send_query bumps attempt_gen past it.
    ++servfail_failovers_;
    ++pending->resolver_idx;
    pending->attempts_on_resolver = 0;
    send_query(pending);
    return;
  }

  if (msg->flags.tc && !pending->via_tcp) {
    // Truncated: the answer did not fit in a 512-byte UDP payload.
    // Re-ask the same resolver over TCP (RFC 1035 §4.2.2).
    begin_tcp_fallback(pending);
    return;
  }
  deliver_response(pending, *msg);
}

void StubResolver::deliver_response(const std::shared_ptr<Pending>& pending,
                                    const dns::DnsMessage& msg) {
  ResolveResult res;
  res.resolver = cfg_.resolver_addrs[pending->resolver_idx];
  res.lookup_time = sim_.now() - pending->first_sent;
  res.success = msg.flags.rcode == dns::Rcode::kNoError && !msg.answers.empty();
  res.addrs = msg.answer_addresses();
  res.origin = pending->speculative ? dns::CacheOrigin::kSpeculative : dns::CacheOrigin::kQuery;
  res.upstream_cache_hit = msg.truth_cache_hit;

  // Cache the outcome. Some entries get a TTL-violating extra hold —
  // applications and OS caches holding bindings past expiry.
  SimDuration extra = SimDuration::zero();
  if (rng_.bernoulli(cfg_.ttl_violation_prob)) {
    extra = SimDuration::from_sec(rng_.lognormal(cfg_.hold_mu, cfg_.hold_sigma));
  }
  if (pending->speculative) {
    const auto browser_hold = SimDuration::from_sec(
        rng_.uniform(cfg_.speculative_hold_min_sec, cfg_.speculative_hold_max_sec));
    extra = std::max(extra, browser_hold);
  }
  if (res.success || pending->qtype != dns::RrType::kA) {
    cache_.insert(pending->name, pending->qtype, msg.answers, msg.flags.rcode, sim_.now(),
                  extra,
                  pending->speculative ? dns::CacheOrigin::kSpeculative
                                       : dns::CacheOrigin::kQuery);
  } else {
    // Negative caching (RFC 2308): hold NXDOMAIN/NODATA for a few
    // minutes so repeated misses don't re-query immediately. SERVFAIL
    // marks a transient server problem and is held much shorter
    // (RFC 2308 §7.1), so recovery retries aren't suppressed.
    const SimDuration neg_hold = msg.flags.rcode == dns::Rcode::kServFail
                                     ? SimDuration::sec(30)
                                     : SimDuration::sec(300);
    cache_.insert(pending->name, dns::RrType::kA, {}, msg.flags.rcode, sim_.now(), neg_hold);
  }
  if (!res.success && pending->qtype == dns::RrType::kA) ++failures_;
  finish(pending, std::move(res));
}

void StubResolver::send_tcp(const std::shared_ptr<Pending>& pending, netsim::TcpFlags flags,
                            dns::DnsPayload payload) {
  netsim::Packet p;
  p.src_ip = device_ip_;
  p.dst_ip = cfg_.resolver_addrs[pending->resolver_idx];
  p.src_port = pending->tcp_port;
  p.dst_port = 53;
  p.proto = Proto::kTcp;
  p.tcp = flags;
  p.dns = std::move(payload);
  send_(std::move(p));
}

void StubResolver::begin_tcp_fallback(const std::shared_ptr<Pending>& pending) {
  ++tcp_fallbacks_;
  pending->via_tcp = true;
  pending->tcp_port = alloc_port();
  tcp_by_port_[pending->tcp_port] = pending;
  send_tcp(pending, netsim::TcpFlags{.syn = true});
  arm_timeout(pending);  // TCP retries time out through the same machinery
}

void StubResolver::on_tcp(const netsim::Packet& p) {
  const auto it = tcp_by_port_.find(p.dst_port);
  if (it == tcp_by_port_.end()) return;  // late segment for a done exchange
  const auto pending = it->second;
  if (pending->done) {
    tcp_by_port_.erase(p.dst_port);
    return;
  }
  if (p.tcp.rst) return;
  if (p.tcp.syn && p.tcp.ack) {
    // Connection up: ship the query bytes.
    dns::DnsMessage q = dns::DnsMessage::query(pending->txid, pending->name, pending->qtype);
    send_tcp(pending, netsim::TcpFlags{.ack = true}, dns::DnsPayload::from_message(std::move(q)));
    return;
  }
  if (!p.dns.empty()) {
    const dns::DnsMessage* msg = p.dns.message();
    if (msg == nullptr || !msg->flags.qr || msg->id != pending->txid) return;
    send_tcp(pending, netsim::TcpFlags{.ack = true, .fin = true});  // close our half
    tcp_by_port_.erase(pending->tcp_port);
    deliver_response(pending, *msg);
  }
}

void StubResolver::finish(const std::shared_ptr<Pending>& pending, ResolveResult result) {
  pending->done = true;
  by_txid_.erase(pending->txid);
  inflight_.erase(dns::CacheKey{pending->name, pending->qtype});
  for (auto& cb : pending->callbacks) cb(result);
  pending->callbacks.clear();
}

}  // namespace dnsctx::resolver
