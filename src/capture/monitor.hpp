// dnsctx — the passive monitor at the ISP aggregation point (§3).
//
// Reimplements the Bro/Zeek behaviours the paper relies on:
//   * TCP connections delineated by SYN/FIN/RST tracking,
//   * UDP "connections" = all packets sharing addresses+ports, closed by
//     a 60 s inactivity timeout,
//   * DNS transaction logging by parsing UDP/53 payload bytes (real
//     RFC 1035 wire format via dns::decode) and matching responses to
//     queries by (addresses, ports, transaction id),
//   * port-53 flows are summarised in the DNS log only, not conn.log
//     (the paper's 11.2M-connection corpus is application traffic).
//
// The monitor consumes ONLY observable packet fields (see packet.hpp's
// vantage-point rule) and never touches simulation ground truth.
#pragma once

#include <cstdint>
#include <queue>

#include "capture/records.hpp"
#include "netsim/network.hpp"
#include "util/flat_map.hpp"

namespace dnsctx::capture {

struct MonitorConfig {
  SimDuration udp_timeout = SimDuration::sec(60);   ///< Bro's UDP inactivity close
  SimDuration tcp_attempt_timeout = SimDuration::sec(30);  ///< S0 flush
  SimDuration tcp_idle_timeout = SimDuration::min(15);     ///< stuck-TCP flush
  SimDuration dns_query_timeout = SimDuration::sec(10);    ///< unanswered query flush
  /// The monitored access network (Bro's local_nets). The paper's corpus
  /// is "connections originated by hosts within the CCZ"; harvest()
  /// keeps only conns whose originator falls in this prefix.
  Ipv4Addr local_net{100, 66, 0, 0};
  std::uint32_t local_prefix_bits = 16;
  bool keep_only_local_orig = true;
  /// Also summarise encrypted-flow metadata (EncFlowRecord) for TCP
  /// flows to TLS ports 853/443 — sizes, timing, message counts; never
  /// payload. Off by default: the classic study has no use for it and
  /// the datasets stay byte-identical.
  bool observe_encrypted_metadata = false;
};

/// Operational counters, in the spirit of Zeek's weird.log: everything
/// the monitor saw but could not fully account for.
struct MonitorStats {
  std::uint64_t packets = 0;
  std::uint64_t malformed_dns = 0;         ///< unparseable port-53 payloads
  std::uint64_t dns_retransmissions = 0;   ///< repeated (client,txid) queries
  std::uint64_t unsolicited_dns = 0;       ///< responses with no pending query
  std::uint64_t midstream_tcp = 0;         ///< non-SYN packets for unknown flows
  std::uint64_t conns_closed = 0;          ///< FIN/RST-delineated closes
  std::uint64_t conns_timed_out = 0;       ///< idle/attempt-timeout flushes
  std::uint64_t conns_flushed_at_harvest = 0;
  std::uint64_t dns_unanswered = 0;        ///< queries that never saw a response
};

class Monitor : public netsim::PacketTap {
 public:
  explicit Monitor(MonitorConfig cfg = {});

  void observe(SimTime at_tap, const netsim::Packet& p) override;

  /// Flush every open flow/query as of `end` and return the datasets,
  /// time-sorted. The monitor is reusable afterwards (state cleared;
  /// stats persist).
  [[nodiscard]] Dataset harvest(SimTime end);

  /// Finalize every open flow/query as of `end`, as harvest() does, but
  /// leave the records for take_finalized().
  void flush(SimTime end);

  /// Move out the records finalized since the last take (or harvest) in
  /// FINALIZATION order, not timestamp order, with harvest()'s
  /// local-originator conn filter applied. Open flows and pending
  /// queries stay open; pair with stream::LiveFeed and open_watermark()
  /// to recover the canonical order.
  [[nodiscard]] Dataset take_finalized();

  /// Safe reordering bound for a LiveFeed: every record finalized after
  /// this call has key time (conn start / dns query ts) at or after the
  /// returned instant. Computed as the minimum over open flows' starts,
  /// pending queries' timestamps, and `now`.
  [[nodiscard]] SimTime open_watermark(SimTime now) const;

  [[nodiscard]] const MonitorStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t packets_seen() const { return stats_.packets; }
  [[nodiscard]] std::uint64_t malformed_dns() const { return stats_.malformed_dns; }

 private:
  /// Per-flow encrypted-metadata accumulator (observe_encrypted_metadata
  /// only; tracks the data messages a TLS flow exchanges).
  struct EncMeta {
    std::uint32_t up_msgs = 0;
    std::uint32_t down_msgs = 0;
    std::uint64_t up_bytes = 0;
    std::uint64_t down_bytes = 0;
    std::uint64_t first_up = 0;
    std::uint64_t first_down = 0;
    std::uint32_t pad_up = 0;
    std::uint32_t pad_down = 0;
  };
  struct Flow {
    ConnRecord rec;
    SimTime last_packet;
    bool saw_syn = false;
    bool saw_syn_ack = false;
    int fin_halves = 0;
    bool saw_rst = false;
    bool closed = false;
    std::uint64_t generation = 0;
    EncMeta enc;
  };
  struct PendingDns {
    DnsRecord rec;
    std::uint16_t txid = 0;
    std::uint64_t generation = 0;
  };
  struct DnsKey {
    Ipv4Addr client_ip;
    std::uint16_t client_port;
    Ipv4Addr resolver_ip;
    std::uint16_t txid;
    bool operator==(const DnsKey&) const = default;
  };
  struct DnsKeyHash {
    [[nodiscard]] std::size_t operator()(const DnsKey& k) const noexcept {
      std::size_t h = Ipv4Hash{}(k.client_ip);
      h = hash_combine(h, k.resolver_ip.to_u32());
      return hash_combine(h, (static_cast<std::uint64_t>(k.client_port) << 16) | k.txid);
    }
  };

  void handle_dns(SimTime at_tap, const netsim::Packet& p);
  void handle_conn(SimTime at_tap, const netsim::Packet& p);
  void track_enc(Flow& flow, const netsim::Packet& p, bool is_orig);
  [[nodiscard]] static bool enc_candidate(const ConnRecord& rec);
  void expire_state(SimTime now);
  void finalize_flow(Flow& flow, SimTime now);
  [[nodiscard]] SimDuration flow_timeout(const Flow& flow) const;
  [[nodiscard]] bool local_orig(Ipv4Addr ip) const;
  void emit_encflow(const Flow& flow);

  MonitorConfig cfg_;
  // Open-addressing tables: one find per packet on the tap hot path, so
  // avoid per-node allocation and bucket-chain pointer chasing.
  util::FlatMap<FiveTuple, Flow, FiveTupleHash> flows_;
  util::FlatMap<DnsKey, PendingDns, DnsKeyHash> pending_dns_;
  // Expiry wheel: lazy re-checked (entry's generation must still match).
  struct Expiry {
    SimTime when;
    FiveTuple tuple;
    DnsKey dns_key;
    bool is_dns;
    std::uint64_t generation;
  };
  struct ExpiryLater {
    [[nodiscard]] bool operator()(const Expiry& a, const Expiry& b) const {
      return a.when > b.when;
    }
  };
  std::priority_queue<Expiry, std::vector<Expiry>, ExpiryLater> expiries_;
  std::uint64_t next_generation_ = 1;

  Dataset out_;
  MonitorStats stats_;
};

}  // namespace dnsctx::capture
