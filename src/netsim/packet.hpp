// dnsctx — the packet record exchanged between simulated hosts.
//
// Packets are abstract transport events, not byte-accurate frames. A
// DNS payload is a shared DnsMessage (dns/lazy.hpp) that the passive
// monitor reads as the message Bro/Zeek would have parsed from the wire;
// the RFC 1035 codec only sizes it (wire_bytes(), encrypted padding).
//
// VANTAGE-POINT RULE: the `intent` field is simulation-internal routing
// metadata (the client tells the generic server farm how to animate the
// transfer). The passive monitor MUST NOT read it; monitors only consume
// the observable header fields, payload sizes and DNS messages.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "dns/lazy.hpp"
#include "util/ip.hpp"
#include "util/time.hpp"

namespace dnsctx::netsim {

/// TCP control flags relevant to Bro-style connection tracking.
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;

  bool operator==(const TcpFlags&) const = default;
};

/// Ground-truth provenance of the name-to-address mapping behind a
/// connection — the simulator-side answer to the question the paper's
/// N/LC/P/SC/R taxonomy infers from passive logs. Subject to the
/// VANTAGE-POINT RULE above: carried on `TransferIntent`, readable only
/// by ground-truth collectors (capture::TruthTap), never by monitors.
enum class TrueClass : std::uint8_t {
  kUnknown = 0,       ///< provenance not tracked for this flow
  kNoDns = 1,         ///< no DNS used (P2P, hard-coded IPs) — truth for N
  kLocalCache = 2,    ///< served by the device/home cache — truth for LC
  kPrefetched = 3,    ///< first use of a speculative lookup — truth for P
  kSharedCache = 4,   ///< blocked; resolver answered from its cache — truth for SC
  kRequired = 5,      ///< blocked; resolver resolved authoritatively — truth for R
  kPushed = 6,        ///< resolver-less: record was server-pushed, no lookup at all
  kDnsTransport = 7,  ///< the flow IS a DNS channel (DoT/DoH)
};

[[nodiscard]] std::string_view to_string(TrueClass c);
inline constexpr std::size_t kTrueClassCount = 8;

/// How the generic server farm should animate a client-initiated
/// transfer: sizes, how long the response takes, and whether the server
/// answers at all (dead IPs yield Bro "S0" attempts).
struct TransferIntent {
  std::uint64_t request_bytes = 300;
  std::uint64_t response_bytes = 10'000;
  /// Application transfer time A: first request byte to last response
  /// byte, as the paper's §6 defines the non-DNS part of a transaction.
  SimDuration transfer_time = SimDuration::ms(100);
  /// Server-side think time before the first response byte.
  SimDuration server_delay = SimDuration::ms(5);
  /// Ground truth for taxonomy validation (sim-internal, see above).
  TrueClass true_class = TrueClass::kUnknown;
};

/// A packet in flight. `src`/`dst` are the on-the-wire addresses at the
/// observation point the packet currently traverses (the NAT rewrites
/// them at the home gateway, exactly like real address translation).
struct Packet {
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Proto proto = Proto::kTcp;

  TcpFlags tcp;                      ///< meaningful only when proto == kTcp
  std::uint64_t payload_bytes = 0;   ///< application payload size this packet carries

  /// DNS payload when this packet is a DNS query/response. Shared
  /// lazily-materializing handle: fan-out through gateway/tap without
  /// copies, and no wire encode/decode unless someone asks for bytes.
  dns::DnsPayload dns;

  /// Sim-internal, invisible to monitors (see file header).
  std::optional<TransferIntent> intent;

  [[nodiscard]] FiveTuple tuple() const {
    return FiveTuple{src_ip, dst_ip, src_port, dst_port, proto};
  }

  /// Approximate on-the-wire size for volume accounting: header estimate
  /// plus payload/DNS bytes.
  [[nodiscard]] std::uint64_t wire_bytes() const {
    const std::uint64_t header = proto == Proto::kTcp ? 54 : 42;
    return header + payload_bytes + static_cast<std::uint64_t>(dns.wire_size());
  }
};

}  // namespace dnsctx::netsim
