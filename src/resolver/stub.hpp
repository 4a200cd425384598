// dnsctx — the per-device stub resolver.
//
// Models what the OS + applications do on a real device in the monitored
// neighborhood: an on-device cache (whose entries are the "local cache"
// the paper's LC class leverages), TTL-violating retention (§5.2: 22.2%
// of LC connections use expired records, median 890 s past expiry),
// query de-duplication, retransmission timeouts, and multi-resolver
// failover. The stub does NOT see the network directly — it emits
// packets through the device, which sits behind the house NAT.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dns/cache.hpp"
#include "dns/codec.hpp"
#include "netsim/packet.hpp"
#include "netsim/sim.hpp"
#include "netsim/transport.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dnsctx::resolver {

struct StubConfig {
  /// Resolvers in preference order; retries exhaust one before failover.
  std::vector<Ipv4Addr> resolver_addrs;
  dns::CacheConfig cache{.capacity = 2'000};
  /// Probability a cached entry is retained (servable) past its TTL —
  /// the mechanism behind observed TTL violations.
  double ttl_violation_prob = 0.2; 
  /// Lognormal parameters (seconds) of the extra hold beyond the TTL.
  /// Defaults give a median ≈ 900 s and a long tail, matching §5.2.
  double hold_mu = 6.3;
  double hold_sigma = 2.1;
  /// Minimum extra hold (seconds, uniform up to max) applied to
  /// speculative lookups' cache entries.
  double speculative_hold_min_sec = 60.0;
  double speculative_hold_max_sec = 600.0;
  SimDuration query_timeout = SimDuration::sec(3);
  int retries_per_resolver = 1;
  /// Timeout multiplier applied per successive timeout of one lookup
  /// (exponential backoff). 1.0 = fixed timeout — the historical
  /// behaviour, byte-identical to builds without the knob.
  double retry_backoff = 1.0;
  /// Backoff ceiling: no single attempt waits longer than this.
  SimDuration max_query_timeout = SimDuration::sec(30);
  /// Dual-stack hosts fire a parallel AAAA query alongside fresh A
  /// queries (happy eyeballs). The result is cached but never drives a
  /// connection in this v4-only study — it thickens the visible DNS
  /// transaction stream exactly as real captures show.
  double aaaa_prob = 0.0;
  /// Upstream transport. kDo53 (and kResolverless, which changes how
  /// records *arrive*, not how lookups travel) keeps classic UDP/53,
  /// retried over TCP when the answer comes back truncated (RFC 1035
  /// §4.2.2) — byte-identical to builds without the knob. kDoT/kDoH
  /// move every query onto one padded, connection-reused encrypted
  /// channel per resolver (netsim/transport.hpp).
  netsim::Transport transport = netsim::Transport::kDo53;
};

/// Outcome of a resolve() call.
struct ResolveResult {
  bool success = false;
  std::vector<Ipv4Addr> addrs;
  bool from_cache = false;    ///< answered from the device cache
  bool used_expired = false;  ///< the cache entry had outlived its TTL
  Ipv4Addr resolver;          ///< resolver that answered (unset for cache hits)
  SimDuration lookup_time = SimDuration::zero();  ///< request→response, 0 for cache
  /// Ground-truth provenance (sim-internal; feeds capture::TruthTap):
  /// how the cache entry got there, whether this was its first hit, and
  /// — for fresh lookups — whether the recursive answered from its
  /// shared cache (truth for the paper's SC-vs-R split).
  dns::CacheOrigin origin = dns::CacheOrigin::kQuery;
  bool first_use = false;
  bool upstream_cache_hit = false;
};

/// The stub resolver. One per device; single-threaded like the rest of
/// the simulation.
class StubResolver {
 public:
  using SendFn = std::function<void(netsim::Packet)>;
  using Callback = std::function<void(const ResolveResult&)>;

  StubResolver(netsim::Simulator& sim, Ipv4Addr device_ip, StubConfig cfg, std::uint64_t seed,
               SendFn send);

  /// Resolve a name to addresses. The callback fires exactly once — from
  /// cache after a negligible delay, or when a response/terminal timeout
  /// arrives. Concurrent resolves of the same name share one query.
  /// `speculative` marks browser-prefetch-style lookups: browsers hold
  /// those results for a while regardless of TTL (Chrome's host cache),
  /// so the entry gets a minimum extra hold beyond its TTL.
  void resolve(const dns::DomainName& name, Callback cb, bool speculative = false);

  /// Feed an inbound UDP/53 response (the device demuxes to us).
  void on_response(const netsim::Packet& p);

  /// Feed an inbound TCP segment from a resolver (truncation fallback).
  void on_tcp(const netsim::Packet& p);

  /// Feed an inbound TCP segment belonging to an encrypted DNS channel
  /// (DoT/DoH). The device demuxes by owns_secure_port().
  void on_secure(const netsim::Packet& p);

  /// True when `local_port` is an open encrypted-channel port — the
  /// device's demux key for src-port-443 packets, which otherwise belong
  /// to ordinary web connections.
  [[nodiscard]] bool owns_secure_port(std::uint16_t local_port) const {
    return secure_by_port_.contains(local_port);
  }

  /// Resolver-less DNS (Sy et al.): a content server pushes an address
  /// record for a related name straight into the device cache — no
  /// lookup, no DNS packet, nothing for the monitor to see. Pushed
  /// entries surface as CacheOrigin::kPushed on later hits.
  void insert_pushed(const dns::DomainName& name,
                     std::vector<dns::ResourceRecord> answers, SimTime now);

  [[nodiscard]] std::uint64_t tcp_fallbacks() const { return tcp_fallbacks_; }
  [[nodiscard]] std::uint64_t servfail_failovers() const { return servfail_failovers_; }
  [[nodiscard]] std::uint64_t pushed_inserts() const { return pushed_inserts_; }
  /// TLS handshakes performed / queries that reused a warm channel,
  /// summed over every resolver channel (0 on cleartext transports).
  [[nodiscard]] std::uint64_t secure_handshakes() const;
  [[nodiscard]] std::uint64_t secure_reuses() const;

  [[nodiscard]] const dns::DnsCache& cache() const { return cache_; }
  [[nodiscard]] std::uint64_t queries_sent() const { return queries_sent_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

 private:
  struct Pending {
    dns::DomainName name;
    dns::RrType qtype = dns::RrType::kA;
    bool speculative = false;
    bool via_tcp = false;        ///< fallback in progress
    std::uint16_t tcp_port = 0;  ///< local port of the TCP retry
    std::vector<Callback> callbacks;
    std::uint16_t txid = 0;
    std::uint16_t src_port = 0;
    std::size_t resolver_idx = 0;
    int attempts_on_resolver = 0;
    int timeouts = 0;  ///< drives the exponential-backoff exponent
    /// Bumped by every (re)transmission; timeout closures capture the
    /// value they armed against and no-op when a SERVFAIL-triggered
    /// early retry has already moved the query past them.
    std::uint32_t attempt_gen = 0;
    SimTime first_sent;
    bool done = false;
  };

  /// One encrypted channel to one resolver. Owned via unique_ptr so the
  /// address stays stable across FlatMap rehashes (secure_by_port_ and
  /// idle-timer closures hold raw pointers).
  struct Channel {
    explicit Channel(Ipv4Addr r, SimDuration idle) : resolver{r}, chan{idle} {}
    Ipv4Addr resolver;
    std::uint16_t local_port = 0;  ///< 0 when no TCP connection is open
    netsim::SecureChannel chan;
    std::vector<std::uint16_t> queued;  ///< txids awaiting the handshake
    std::uint64_t idle_gen = 0;         ///< invalidates stale idle timers
  };

  void send_query(const std::shared_ptr<Pending>& pending);
  void send_query_udp(const std::shared_ptr<Pending>& pending);
  void send_query_secure(const std::shared_ptr<Pending>& pending);
  [[nodiscard]] Channel& channel_for(Ipv4Addr resolver);
  void open_channel(Channel& ch);
  void send_secure_data(Channel& ch, const Pending& pending);
  void send_channel_ctrl(const Channel& ch, netsim::TcpFlags flags,
                         std::uint64_t payload_bytes);
  void arm_idle(Channel& ch);
  [[nodiscard]] std::uint16_t alloc_port();
  void arm_timeout(const std::shared_ptr<Pending>& pending);
  /// Advance to the next retransmission or failover target; false when
  /// every configured attempt is exhausted.
  bool try_next_attempt(const std::shared_ptr<Pending>& pending);
  [[nodiscard]] SimDuration attempt_timeout(const Pending& pending) const;
  void finish(const std::shared_ptr<Pending>& pending, ResolveResult result);
  [[nodiscard]] std::shared_ptr<Pending> start_query(const dns::DomainName& name,
                                                     dns::RrType qtype, bool speculative);
  void begin_tcp_fallback(const std::shared_ptr<Pending>& pending);
  void deliver_response(const std::shared_ptr<Pending>& pending, const dns::DnsMessage& msg);
  void send_tcp(const std::shared_ptr<Pending>& pending, netsim::TcpFlags flags,
                dns::DnsPayload payload = {});

  netsim::Simulator& sim_;
  Ipv4Addr device_ip_;
  StubConfig cfg_;
  Rng rng_;
  SendFn send_;
  dns::DnsCache cache_;
  util::FlatMap<std::uint16_t, std::shared_ptr<Pending>> by_txid_;
  util::FlatMap<dns::CacheKey, std::shared_ptr<Pending>, dns::CacheKeyHash> inflight_;
  util::FlatMap<std::uint16_t, std::shared_ptr<Pending>> tcp_by_port_;
  util::FlatMap<Ipv4Addr, std::unique_ptr<Channel>> channels_;
  util::FlatMap<std::uint16_t, Channel*> secure_by_port_;
  std::uint64_t tcp_fallbacks_ = 0;
  std::uint64_t servfail_failovers_ = 0;
  std::uint64_t pushed_inserts_ = 0;
  std::uint16_t next_txid_ = 1;
  std::uint16_t next_port_ = 20'000;
  std::uint64_t queries_sent_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace dnsctx::resolver
