// dnsctx — an end device inside a house (laptop, phone, TV, IoT box).
//
// The device terminates its own transport: a client-side TCP state
// machine (SYN retransmits, request/response, FIN teardown), one-shot
// and streaming UDP flows, and a stub resolver whose cache is exactly
// the "local cache" the paper's LC class measures. Apps drive devices
// through resolve/fetch; everything leaves through the house NAT.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "dns/name.hpp"
#include "netsim/nat.hpp"
#include "resolver/stub.hpp"
#include "util/flat_map.hpp"

namespace dnsctx::traffic {

/// Outcome handed to fetch() callbacks.
struct FetchResult {
  bool connected = false;
  resolver::ResolveResult dns;  ///< how the name resolved (or failed)
};

/// Ground truth the passive monitor cannot see. Devices increment these
/// as they act; tests validate the paper's inference heuristics against
/// them.
struct GroundTruth {
  std::uint64_t fetches = 0;             ///< name-driven connection attempts
  std::uint64_t fetch_cache_hits = 0;    ///< served by the device cache
  std::uint64_t fetch_cache_expired = 0; ///< ... using a TTL-expired entry
  std::uint64_t fetch_blocked = 0;       ///< had to wait for a network lookup
  std::uint64_t prefetches = 0;          ///< speculative resolutions
  std::uint64_t no_dns_conns = 0;        ///< flows opened without any lookup
  std::uint64_t fetch_pushed_hits = 0;   ///< served by a server-pushed record
};

class Device : public netsim::Host {
 public:
  Device(netsim::Simulator& sim, netsim::HouseGateway& gateway, Ipv4Addr internal_ip,
         resolver::StubConfig stub_cfg, std::uint64_t seed);

  // Host: inbound demux (UDP/53 → stub, TCP → client connections).
  void receive(const netsim::Packet& p) override;

  using ConnDone = std::function<void(bool established)>;

  /// Open a TCP connection to an address; the TransferIntent scripts the
  /// far side. `done` fires on establish (true) or give-up/reject.
  void open_tcp(Ipv4Addr dst, std::uint16_t dst_port, netsim::TransferIntent intent,
                ConnDone done = {});

  /// Send a UDP datagram; with an intent the farm animates a response
  /// flow, without one it is a fire-and-forget beacon.
  void send_udp(Ipv4Addr dst, std::uint16_t dst_port, std::uint16_t src_port,
                std::uint64_t payload, std::optional<netsim::TransferIntent> intent = {});

  /// Resolve a hostname and, on success, connect to the first returned
  /// address. By default the connection follows after a small
  /// application think delay (the delay that produces the paper's Fig 1
  /// "blocked" region); pass `connect_delay` for resolve-early /
  /// connect-later patterns (app wake-ups, speculative resolution).
  void fetch(const dns::DomainName& name, std::uint16_t dst_port,
             netsim::TransferIntent intent, std::function<void(const FetchResult&)> cb = {},
             std::optional<SimDuration> connect_delay = {});

  /// Resolve without using the result — browser-style prefetch.
  void prefetch(const dns::DomainName& name);

  /// Attach shared ground-truth counters (optional; non-owning).
  void set_ground_truth(GroundTruth* truth) { truth_ = truth; }

  /// Scale successive SYN retransmission timeouts (real TCP doubles;
  /// 1.0 keeps the historical fixed 3 s timer, byte-identical).
  void set_syn_backoff(double factor) { syn_backoff_ = factor; }

  [[nodiscard]] resolver::StubResolver& stub() { return stub_; }
  [[nodiscard]] const resolver::StubResolver& stub() const { return stub_; }
  [[nodiscard]] netsim::Simulator& sim() { return sim_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Ipv4Addr ip() const { return ip_; }
  [[nodiscard]] std::uint64_t tcp_opened() const { return tcp_opened_; }
  [[nodiscard]] std::uint64_t tcp_failed() const { return tcp_failed_; }

 private:
  enum class TcpState { kSynSent, kEstablished };
  struct ClientConn {
    Ipv4Addr dst;
    std::uint16_t dst_port = 0;
    TcpState state = TcpState::kSynSent;
    netsim::TransferIntent intent;
    ConnDone done;
    int syn_attempts = 1;
  };

  void send_syn(std::uint16_t sport);
  void arm_syn_timer(std::uint16_t sport, int expected_attempts);
  [[nodiscard]] SimDuration syn_timeout(int attempt) const;
  void open_tcp_impl(Ipv4Addr dst, std::uint16_t dst_port, netsim::TransferIntent intent,
                     ConnDone done);
  [[nodiscard]] std::uint16_t alloc_port();

  GroundTruth* truth_ = nullptr;

  netsim::Simulator& sim_;
  netsim::HouseGateway& gateway_;
  Ipv4Addr ip_;
  Rng rng_;
  resolver::StubResolver stub_;
  util::FlatMap<std::uint16_t, ClientConn> tcp_;
  std::uint16_t next_port_ = 10'000;
  std::uint64_t tcp_opened_ = 0;
  std::uint64_t tcp_failed_ = 0;
  double syn_backoff_ = 1.0;

  static constexpr int kMaxSynAttempts = 3;
  static constexpr SimDuration kSynTimeout = SimDuration::sec(3);
};

}  // namespace dnsctx::traffic
