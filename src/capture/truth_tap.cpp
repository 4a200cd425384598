#include "capture/truth_tap.hpp"

namespace dnsctx::capture {

TruthTap::TruthTap(std::vector<Ipv4Addr> dns_servers) {
  servers_.reserve(dns_servers.size());
  for (const auto a : dns_servers) servers_.insert(a);
}

void TruthTap::observe(SimTime at_tap, const netsim::Packet& p) {
  // Port-53 traffic is summarised in the DNS log, never in conn.log —
  // same corpus rule the Monitor applies.
  if (p.src_port == 53 || p.dst_port == 53) return;
  // TCP flows are keyed by their opening SYN (the originator's first
  // packet); UDP flows by their first datagram in either direction.
  if (p.proto == Proto::kTcp && (!p.tcp.syn || p.tcp.ack)) return;
  const FiveTuple tuple = p.tuple();
  if (seen_.contains(tuple) || seen_.contains(tuple.reversed())) return;
  seen_.insert(tuple);

  TruthFlow flow;
  flow.start = at_tap;
  flow.tuple = tuple;
  if (p.intent) {
    flow.cls = p.intent->true_class;
  } else if (servers_.contains(p.dst_ip) &&
             (p.dst_port == 853 || p.dst_port == 443)) {
    // The stub's encrypted channel: not an application connection at
    // all — it IS the DNS.
    flow.cls = netsim::TrueClass::kDnsTransport;
  } else {
    // Intent-less traffic (beacons, control chatter) opened no lookup.
    flow.cls = netsim::TrueClass::kNoDns;
  }
  flows_.push_back(flow);
}

}  // namespace dnsctx::capture
