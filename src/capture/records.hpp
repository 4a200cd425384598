// dnsctx — the two passive datasets the paper's analysis consumes,
// mirroring Bro/Zeek's conn.log and dns.log summaries (§3).
//
// These records contain ONLY information observable at the ISP
// aggregation point: post-NAT house addresses, ports, timestamps, byte
// counts, and DNS payload summaries. No device identity, no ground truth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dns/rr.hpp"
#include "util/ip.hpp"
#include "util/names.hpp"
#include "util/time.hpp"

namespace dnsctx::capture {

/// Bro-style connection terminal state (subset we model).
enum class ConnState : std::uint8_t {
  kS0,   ///< attempt: originator SYN, no reply
  kSf,   ///< normal establish + close
  kRej,  ///< rejected (SYN answered by RST)
  kRst,  ///< established then reset
  kOth,  ///< anything else (mid-stream, timeout, UDP without close)
};

[[nodiscard]] std::string_view to_string(ConnState s);

/// One application "connection" (TCP connection or UDP flow).
struct ConnRecord {
  SimTime start;              ///< first packet at the tap
  SimDuration duration;       ///< last packet − first packet
  Ipv4Addr orig_ip;           ///< initiator (always the house side here)
  Ipv4Addr resp_ip;
  std::uint16_t orig_port = 0;
  std::uint16_t resp_port = 0;
  Proto proto = Proto::kTcp;
  std::uint64_t orig_bytes = 0;  ///< payload bytes house → remote
  std::uint64_t resp_bytes = 0;  ///< payload bytes remote → house
  ConnState state = ConnState::kOth;

  /// §5.1 heuristic: both ports outside the reserved range.
  [[nodiscard]] bool both_high_ports() const {
    return orig_port >= kReservedPortLimit && resp_port >= kReservedPortLimit;
  }

  /// Application throughput (resp bytes over duration), B/s; 0 for
  /// instantaneous or empty flows. §7/Fig 3 bottom metric.
  [[nodiscard]] double throughput_bps() const {
    const double secs = duration.to_sec();
    return secs > 0.0 ? static_cast<double>(resp_bytes) / secs : 0.0;
  }
};

/// One A-record answer within a DNS transaction.
struct DnsAnswer {
  Ipv4Addr addr;
  std::uint32_t ttl = 0;
  bool operator==(const DnsAnswer&) const = default;
};

/// One DNS transaction (query + matched response) seen at the tap.
struct DnsRecord {
  SimTime ts;                ///< query crossing time
  SimDuration duration;      ///< response − query; 0 when unanswered
  Ipv4Addr client_ip;        ///< house external address
  std::uint16_t client_port = 0;
  Ipv4Addr resolver_ip;
  util::InternedName query;  ///< qname, interned (see util/names.hpp)
  dns::RrType qtype = dns::RrType::kA;
  dns::Rcode rcode = dns::Rcode::kNoError;
  bool answered = false;
  std::vector<DnsAnswer> answers;

  [[nodiscard]] SimTime response_time() const { return ts + duration; }

  /// Effective TTL of the answer set (minimum across answers; 0 when
  /// there are no answers).
  [[nodiscard]] std::uint32_t min_ttl() const {
    std::uint32_t ttl = answers.empty() ? 0 : answers.front().ttl;
    for (const auto& a : answers) ttl = std::min(ttl, a.ttl);
    return ttl;
  }

  /// Expiry instant of the answer set per the served TTL.
  [[nodiscard]] SimTime expires_at() const {
    return response_time() + SimDuration::sec(min_ttl());
  }

  [[nodiscard]] bool contains(Ipv4Addr addr) const {
    for (const auto& a : answers) {
      if (a.addr == addr) return true;
    }
    return false;
  }
};

/// Metadata of one encrypted flow to a TLS port (853/443), as a passive
/// monitor that cannot decrypt sees it: endpoints, timing, per-direction
/// message counts/sizes, and how many data messages are padded-size
/// aligned (RFC 8467 leaves that much visible). This is what traffic-
/// analysis classifiers (Siby et al.) get to work with — regular HTTPS
/// flows produce these records too; telling DoT/DoH apart from them is
/// the classifier's whole job.
struct EncFlowRecord {
  SimTime start;
  SimDuration duration;
  Ipv4Addr client_ip;   ///< initiator (house side, post-NAT)
  Ipv4Addr server_ip;
  std::uint16_t client_port = 0;
  std::uint16_t server_port = 0;        ///< 853 or 443
  std::uint32_t up_msgs = 0;            ///< data messages client → server
  std::uint32_t down_msgs = 0;
  std::uint64_t up_bytes = 0;           ///< ciphertext bytes client → server
  std::uint64_t down_bytes = 0;
  std::uint64_t first_up_bytes = 0;     ///< first data message each way —
  std::uint64_t first_down_bytes = 0;   ///< the TLS hello exchange
  std::uint32_t pad_aligned_up = 0;     ///< post-hello messages sized on a
  std::uint32_t pad_aligned_down = 0;   ///< DNS padding-block boundary
};

/// The paired passive datasets for one monitoring run. `encflows` is
/// empty unless MonitorConfig::observe_encrypted_metadata is on.
struct Dataset {
  std::vector<ConnRecord> conns;
  std::vector<DnsRecord> dns;
  std::vector<EncFlowRecord> encflows;
};

/// Consumer of finalized records. scenario::Town (and the streaming
/// layer's reorder/replay helpers) push every completed record here
/// instead of materializing them, so arbitrarily long runs never hold
/// the full log in memory. Implementations state their ordering
/// expectations: Town delivers each kind in FINALIZATION order (a conn
/// at its close, a DNS transaction at its response or timeout), which
/// is not timestamp order, and does not interleave kinds as they
/// finalized — see stream::LiveFeed for watermark-based re-sorting.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void on_conn(const ConnRecord& rec) = 0;
  virtual void on_dns(const DnsRecord& rec) = 0;
  /// Default no-op: sinks predating encrypted-transport capture ignore
  /// the metadata stream.
  virtual void on_encflow(const EncFlowRecord& rec) { (void)rec; }
};

}  // namespace dnsctx::capture
