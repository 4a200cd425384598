#include "resolver/recursive.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "netsim/transport.hpp"

namespace dnsctx::resolver {

namespace {

/// Transport traits for an encrypted service port (853 = DoT, 443 = DoH).
const netsim::TransportTraits& secure_traits(std::uint16_t port) {
  return netsim::traits_for(port == 853 ? netsim::Transport::kDoT : netsim::Transport::kDoH);
}

}  // namespace

RecursiveResolverPlatform::RecursiveResolverPlatform(netsim::Simulator& sim,
                                                     netsim::Network& net, const ZoneDb& zones,
                                                     PlatformConfig cfg, std::uint64_t seed)
    : sim_{sim}, net_{net}, zones_{zones}, cfg_{std::move(cfg)}, rng_{seed} {
  if (cfg_.frontends == 0) cfg_.frontends = 1;
  shards_.reserve(cfg_.frontends);
  for (std::size_t i = 0; i < cfg_.frontends; ++i) shards_.emplace_back(cfg_.cache);
  for (const auto addr : cfg_.addrs) net_.attach(addr, this);
}

void RecursiveResolverPlatform::set_faults(faults::ResolverFaultConfig cfg,
                                           std::uint64_t seed) {
  faults_ = std::move(cfg);
  fault_rng_ = faults_.active() ? std::make_unique<Rng>(seed) : nullptr;
}

void RecursiveResolverPlatform::receive(const netsim::Packet& p) {
  // Port 53 is classic DNS; 853 (DoT) and 443 (DoH) are the encrypted
  // transports: same semantics, but the monitor cannot parse what it
  // cannot read.
  if (p.dst_port != 53 && p.dst_port != 853 && p.dst_port != 443) return;
  if (fault_rng_ && faults_.in_outage(p.dst_ip, sim_.now())) {
    // The service address is dark: no SYN-ACK, no answer — clients see
    // pure timeouts, exactly like a dead or overloaded box.
    ++stats_.outage_dropped;
    return;
  }
  if (p.proto == Proto::kTcp) {
    // Minimal TCP/53 service for truncation fallback (RFC 1035 §4.2.2).
    if (p.tcp.rst) return;
    if (p.tcp.syn && !p.tcp.ack) {
      netsim::Packet synack;
      synack.src_ip = p.dst_ip;
      synack.dst_ip = p.src_ip;
      synack.src_port = p.dst_port;
      synack.dst_port = p.src_port;
      synack.proto = Proto::kTcp;
      synack.tcp = netsim::TcpFlags{.syn = true, .ack = true};
      net_.send(std::move(synack));
      return;
    }
    if (p.dns.empty()) {
      if (p.tcp.fin) {
        netsim::Packet finack;
        finack.src_ip = p.dst_ip;
        finack.dst_ip = p.src_ip;
        finack.src_port = p.dst_port;
        finack.dst_port = p.src_port;
        finack.proto = Proto::kTcp;
        finack.tcp = netsim::TcpFlags{.ack = true, .fin = true};
        net_.send(std::move(finack));
        return;
      }
      if (p.payload_bytes > 0 && !p.tcp.syn && (p.dst_port == 853 || p.dst_port == 443)) {
        // TLS ClientHello on an encrypted-DNS port: answer with the
        // ServerHello..Finished flight, completing the 2-RTT handshake.
        netsim::Packet hello;
        hello.src_ip = p.dst_ip;
        hello.dst_ip = p.src_ip;
        hello.src_port = p.dst_port;
        hello.dst_port = p.src_port;
        hello.proto = Proto::kTcp;
        hello.tcp = netsim::TcpFlags{.ack = true};
        hello.payload_bytes = secure_traits(p.dst_port).server_hello_bytes;
        net_.send(std::move(hello));
      }
      return;
    }
  }
  if (p.dns.empty()) return;
  const dns::DnsMessage* msg = p.dns.message();
  if (msg == nullptr || msg->flags.qr || msg->questions.empty()) return;
  answer(p, *msg);
}

std::size_t RecursiveResolverPlatform::shard_for(const dns::DomainName& qname,
                                                 Ipv4Addr service_addr) {
  if (shards_.size() == 1) return 0;
  if (cfg_.shard_by_addr) {
    for (std::size_t i = 0; i < cfg_.addrs.size(); ++i) {
      if (cfg_.addrs[i] == service_addr) return i % shards_.size();
    }
    return 0;
  }
  if (cfg_.shard_by_name) {
    // The text, never the id: NameIds depend on thread interleaving,
    // and the shard decides which cache answers.
    return std::hash<std::string>{}(qname.text()) % shards_.size();
  }
  // Random load balancing: repeated queries land on arbitrary shards,
  // fragmenting the cache exactly as large multi-frontend PoPs do.
  return rng_.bounded(shards_.size());
}

SimDuration RecursiveResolverPlatform::sample_auth_delay() {
  // 1..3 upstream queries: the TLD referral is usually cached, the
  // authoritative query itself is usually all that remains.
  std::size_t queries = 1;
  if (rng_.bernoulli(cfg_.extra_auth_query_prob)) ++queries;
  if (rng_.bernoulli(cfg_.extra_auth_query_prob * 0.4)) ++queries;
  double total_ms = 0.0;
  for (std::size_t i = 0; i < queries; ++i) {
    total_ms += 2.0 + rng_.exponential(cfg_.auth_rtt_ms_mean);
  }
  if (rng_.bernoulli(cfg_.slow_tail_prob)) {
    total_ms += rng_.exponential(cfg_.slow_tail_ms_mean);
  }
  return SimDuration::from_ms(total_ms);
}

void RecursiveResolverPlatform::answer(const netsim::Packet& query,
                                       const dns::DnsMessage& msg) {
  ++stats_.queries;
  const dns::Question& q = msg.questions.front();

  if (fault_rng_) {
    // Injected failures fire before the cache: a platform melting down
    // fails queries it could otherwise have answered from cache.
    if (faults_.servfail_rate > 0.0 && fault_rng_->bernoulli(faults_.servfail_rate)) {
      ++stats_.servfail_injected;
      respond(query, msg, {}, dns::Rcode::kServFail,
              SimDuration::from_ms(cfg_.proc_ms));
      return;
    }
    if (faults_.nxdomain_rate > 0.0 && fault_rng_->bernoulli(faults_.nxdomain_rate)) {
      ++stats_.nxdomain_injected;
      ++stats_.nxdomain;
      respond(query, msg, {}, dns::Rcode::kNxDomain,
              SimDuration::from_ms(cfg_.proc_ms));
      return;
    }
  }
  const std::size_t shard = shard_for(q.qname, query.dst_ip);
  dns::DnsCache& cache = shards_[shard];

  SimDuration delay = SimDuration::from_ms(cfg_.proc_ms);
  std::vector<dns::ResourceRecord> answers;
  dns::Rcode rcode = dns::Rcode::kNoError;
  bool truth_cache_hit = false;

  if (auto hit = cache.lookup(q.qname, q.qtype, sim_.now()); hit && !hit->expired) {
    ++stats_.shard_hits;
    truth_cache_hit = true;
    answers = hit->answers.records();
    rcode = hit->rcode;
    // Served TTLs count down in the shared cache (RFC 1035 §4.2 behaviour
    // every recursive resolver implements).
    const auto remaining =
        std::max<std::int64_t>(1, (hit->expires_at - sim_.now()).count_us() / 1'000'000);
    for (auto& rr : answers) rr.ttl = static_cast<std::uint32_t>(remaining);
  } else {
    const auto id = zones_.find(q.qname);
    const double pop = id ? zones_.record(*id).popularity : 0.0;
    // Ambient warmth: the platform's worldwide user base keeps popular
    // names cached. Sub-linear in popularity — even mid-tail names are
    // warm somewhere on a busy platform.
    const double p_ambient =
        cfg_.ambient_warmth > 0.0 && pop > 0.0
            ? std::min(1.0, cfg_.ambient_warmth * std::pow(pop, cfg_.ambient_pop_exp))
            : 0.0;
    const bool ambient = id && p_ambient > 0.0 && rng_.bernoulli(p_ambient);
    if (ambient) {
      // Another user of this platform fetched the name recently: answer
      // at cache-hit speed with a partially decayed TTL.
      ++stats_.ambient_hits;
      truth_cache_hit = true;
      Rng& rng = rng_;
      answers = zones_.authoritative_answer_typed(q.qname, q.qtype, cfg_.geo, rng);
      const double decay = rng.uniform(0.1, 0.9);
      for (auto& rr : answers) {
        rr.ttl = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(static_cast<double>(rr.ttl) * decay));
      }
      cache.insert(q.qname, q.qtype, answers, rcode, sim_.now());
    } else {
      ++stats_.auth_resolutions;
      delay += sample_auth_delay();
      answers = zones_.authoritative_answer_typed(q.qname, q.qtype, cfg_.geo, rng_);
      if (answers.empty()) {
        // Unknown names are NXDOMAIN; known names without records of the
        // requested type (v4-only hosts asked for AAAA) are NODATA.
        if (!zones_.find(q.qname)) {
          rcode = dns::Rcode::kNxDomain;
          ++stats_.nxdomain;
        }
      }
      cache.insert(q.qname, q.qtype, answers, rcode, sim_.now() + delay);
    }
  }

  respond(query, msg, std::move(answers), rcode, delay, truth_cache_hit);
}

void RecursiveResolverPlatform::respond(const netsim::Packet& query,
                                        const dns::DnsMessage& msg,
                                        std::vector<dns::ResourceRecord> answers,
                                        dns::Rcode rcode, SimDuration delay,
                                        bool truth_cache_hit) {
  const dns::Question& q = msg.questions.front();
  dns::DnsMessage resp = dns::DnsMessage::response(msg, std::move(answers), rcode);
  resp.truth_cache_hit = truth_cache_hit;
  // SERVFAIL means the resolution machinery broke, not that the name is
  // absent — no SOA accompanies it.
  if (resp.answers.empty() && rcode != dns::Rcode::kServFail) {
    // RFC 2308: negative responses carry the zone SOA in the authority
    // section; its MINIMUM bounds the negative-caching time.
    static const dns::SoaData kSoa{.mname = dns::DomainName::must("a.auth-servers.net"),
                                   .rname = dns::DomainName::must("hostmaster.auth-servers.net"),
                                   .serial = 2019'02'06,
                                   .refresh = 7'200,
                                   .retry = 900,
                                   .expire = 1'209'600,
                                   .minimum = 300};
    resp.authorities.push_back(dns::ResourceRecord{q.qname.registrable(), dns::RrType::kSoa,
                                                   dns::RrClass::kIn, 300, kSoa});
  }
  // Classic UDP/53 responses must fit 512 bytes (no EDNS in this study):
  // oversized answers go out truncated and the client re-asks over TCP.
  // TCP responses (that retry, DoT and DoH) are never truncated.
  if (query.proto == Proto::kUdp) {
    const dns::DnsMessage trimmed = dns::truncate_for_udp(resp);
    if (trimmed.flags.tc) ++stats_.truncated_udp;
    resp = trimmed;
  }
  netsim::Packet out;
  out.src_ip = query.dst_ip;
  out.dst_ip = query.src_ip;
  out.src_port = query.dst_port;  // answer from the port that was asked
  out.dst_port = query.src_port;
  out.proto = query.proto;
  if (query.proto == Proto::kTcp) out.tcp = netsim::TcpFlags{.ack = true};
  out.dns = dns::DnsPayload::from_message(std::move(resp));
  if (query.proto == Proto::kTcp && (query.dst_port == 853 || query.dst_port == 443)) {
    // Encrypted channel: what crosses the wire is the RFC 8467-padded
    // ciphertext, not the DNS message — account the padding + framing so
    // the tap sees only the padded size.
    const auto& traits = secure_traits(query.dst_port);
    const auto wire = static_cast<std::uint64_t>(out.dns.wire_size());
    out.payload_bytes =
        netsim::padded_payload(wire, traits.response_pad_block, traits.per_message_overhead) -
        wire;
  }
  // Adopt now so the delay closure carries an 8-byte handle, not a
  // heap-allocated Packet copy.
  netsim::PacketHandle h = net_.arena().adopt(std::move(out));
  sim_.after(delay, [this, h = std::move(h)]() { net_.send(h); });
}

std::size_t RecursiveResolverPlatform::cached_entries() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.size();
  return n;
}

std::size_t RecursiveResolverPlatform::cached_bytes() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.bytes().total();
  return n;
}

std::vector<PlatformConfig> default_platforms() {
  using namespace well_known;
  std::vector<PlatformConfig> out;

  {
    PlatformConfig isp;
    isp.name = "Local";
    isp.addrs = {kIspResolver1, kIspResolver2};
    isp.site = {SimDuration::from_ms(0.5), 0.15};  // ~2 ms RTT from houses
    isp.frontends = 2;     // two independent resolver boxes
    isp.shard_by_addr = true;
    isp.cache.capacity = 200'000;
    isp.geo = {0.92};           // resolver sits next to the clients: near-perfect CDN geo
    isp.ambient_warmth = 0.28;  // campus-adjacent user base beyond the monitored houses
    isp.auth_rtt_ms_mean = 17.0;
    isp.extra_auth_query_prob = 0.22;
    isp.slow_tail_prob = 0.045;
    isp.slow_tail_ms_mean = 1100.0;
    out.push_back(std::move(isp));
  }
  {
    PlatformConfig google;
    google.name = "Google";
    google.addrs = {kGoogle1, kGoogle2};
    google.site = {SimDuration::from_ms(9.5), 0.25};  // ~20 ms RTT
    google.frontends = 64;                            // random LB across a large PoP
    google.shard_by_name = false;
    google.cache.capacity = 200'000;
    google.cache.max_ttl_sec = 21'600;
    google.geo = {0.85};  // ECS keeps edge mapping decent despite distance
    google.ambient_warmth = 0.05;
    google.auth_rtt_ms_mean = 30.0;  // slower median resolution than others (§7)
    google.extra_auth_query_prob = 0.35;
    google.slow_tail_prob = 0.006;   // but the shortest tail (§7, Fig 3 top)
    google.slow_tail_ms_mean = 350.0;
    out.push_back(std::move(google));
  }
  {
    PlatformConfig opendns;
    opendns.name = "OpenDNS";
    opendns.addrs = {kOpenDns1, kOpenDns2};
    opendns.site = {SimDuration::from_ms(9.5), 0.25};  // ~20 ms RTT (same PoP metro as Google)
    opendns.frontends = 4;
    opendns.shard_by_name = false;
    opendns.cache.capacity = 200'000;
    opendns.geo = {0.8};
    opendns.ambient_warmth = 0.55;
    opendns.auth_rtt_ms_mean = 19.0;
    opendns.extra_auth_query_prob = 0.22;
    opendns.slow_tail_prob = 0.045;
    opendns.slow_tail_ms_mean = 1100.0;
    out.push_back(std::move(opendns));
  }
  {
    PlatformConfig cf;
    cf.name = "Cloudflare";
    cf.addrs = {kCloudflare1, kCloudflare2};
    cf.site = {SimDuration::from_ms(4.3), 0.2};  // ~9 ms RTT
    cf.frontends = 8;
    cf.shard_by_name = true;  // name-keyed shards behave as one big cache
    cf.cache.capacity = 400'000;
    cf.geo = {0.45};  // no ECS: CDNs see the resolver, not the client (§7 Fig 3 bottom)
    cf.ambient_warmth = 1.6;
    cf.ambient_pop_exp = 0.3;
    cf.auth_rtt_ms_mean = 17.0;
    cf.extra_auth_query_prob = 0.2;
    cf.slow_tail_prob = 0.045;
    cf.slow_tail_ms_mean = 1100.0;
    out.push_back(std::move(cf));
  }
  return out;
}

}  // namespace dnsctx::resolver
