#include "capture/monitor.hpp"

#include <algorithm>
#include <utility>

#include "dns/codec.hpp"
#include "netsim/transport.hpp"

namespace dnsctx::capture {

std::string_view to_string(ConnState s) {
  switch (s) {
    case ConnState::kS0: return "S0";
    case ConnState::kSf: return "SF";
    case ConnState::kRej: return "REJ";
    case ConnState::kRst: return "RST";
    case ConnState::kOth: return "OTH";
  }
  return "?";
}

Monitor::Monitor(MonitorConfig cfg) : cfg_{cfg} {}

bool Monitor::local_orig(Ipv4Addr ip) const {
  if (!cfg_.keep_only_local_orig) return true;
  const std::uint32_t mask =
      cfg_.local_prefix_bits == 0 ? 0 : ~std::uint32_t{0} << (32 - cfg_.local_prefix_bits);
  return (ip.to_u32() & mask) == (cfg_.local_net.to_u32() & mask);
}

bool Monitor::enc_candidate(const ConnRecord& rec) {
  return rec.proto == Proto::kTcp && (rec.resp_port == 853 || rec.resp_port == 443);
}

void Monitor::track_enc(Flow& flow, const netsim::Packet& p, bool is_orig) {
  // Data messages only: pure SYN/FIN/ACK control segments carry nothing.
  // The observable message size is everything above the TCP/IP headers —
  // from this vantage point DNS payload bytes are ciphertext like any
  // other; wire_bytes() already accounts them uniformly.
  if (p.tcp.syn || p.tcp.rst) return;
  const std::uint64_t msg = p.wire_bytes() - 54;
  if (msg == 0) return;
  const auto& traits = netsim::traits_for(
      flow.rec.resp_port == 853 ? netsim::Transport::kDoT : netsim::Transport::kDoH);
  EncMeta& m = flow.enc;
  if (is_orig) {
    ++m.up_msgs;
    m.up_bytes += msg;
    if (m.up_msgs == 1) {
      m.first_up = msg;
    } else if (msg > traits.per_message_overhead &&
               (msg - traits.per_message_overhead) % traits.query_pad_block == 0) {
      ++m.pad_up;
    }
  } else {
    ++m.down_msgs;
    m.down_bytes += msg;
    if (m.down_msgs == 1) {
      m.first_down = msg;
    } else if (msg > traits.per_message_overhead &&
               (msg - traits.per_message_overhead) % traits.response_pad_block == 0) {
      ++m.pad_down;
    }
  }
}

void Monitor::emit_encflow(const Flow& flow) {
  if (!local_orig(flow.rec.orig_ip)) return;
  EncFlowRecord rec;
  rec.start = flow.rec.start;
  rec.duration = flow.rec.duration;
  rec.client_ip = flow.rec.orig_ip;
  rec.server_ip = flow.rec.resp_ip;
  rec.client_port = flow.rec.orig_port;
  rec.server_port = flow.rec.resp_port;
  rec.up_msgs = flow.enc.up_msgs;
  rec.down_msgs = flow.enc.down_msgs;
  rec.up_bytes = flow.enc.up_bytes;
  rec.down_bytes = flow.enc.down_bytes;
  rec.first_up_bytes = flow.enc.first_up;
  rec.first_down_bytes = flow.enc.first_down;
  rec.pad_aligned_up = flow.enc.pad_up;
  rec.pad_aligned_down = flow.enc.pad_down;
  out_.encflows.push_back(rec);
}

SimTime Monitor::open_watermark(SimTime now) const {
  SimTime w = now;
  for (const auto& [tuple, flow] : flows_) w = std::min(w, flow.rec.start);
  for (const auto& [key, pd] : pending_dns_) w = std::min(w, pd.rec.ts);
  return w;
}

void Monitor::observe(SimTime at_tap, const netsim::Packet& p) {
  ++stats_.packets;
  expire_state(at_tap);
  if (p.dst_port == 53 || p.src_port == 53) {
    // Both UDP and (truncation-fallback) TCP DNS are summarised in the
    // DNS log; port-53 flows never become conn records (see header).
    handle_dns(at_tap, p);
    return;
  }
  handle_conn(at_tap, p);
}

void Monitor::handle_dns(SimTime at_tap, const netsim::Packet& p) {
  if (p.dns.empty()) return;
  // Lazy payload: message-origin packets hand us the struct the codec
  // round-trips to byte-identically; wire-origin packets decode here,
  // on first observation, and malformed ones surface as before.
  const dns::DnsMessage* msg = p.dns.message();
  if (msg == nullptr) {
    ++stats_.malformed_dns;
    return;
  }
  if (!msg->flags.qr && p.dst_port == 53) {
    // Query house → resolver.
    const DnsKey key{p.src_ip, p.src_port, p.dst_ip, msg->id};
    if (pending_dns_.contains(key)) {
      ++stats_.dns_retransmissions;  // keep the first timestamp
      return;
    }
    PendingDns pd;
    pd.rec.ts = at_tap;
    pd.rec.client_ip = p.src_ip;
    pd.rec.client_port = p.src_port;
    pd.rec.resolver_ip = p.dst_ip;
    if (!msg->questions.empty()) {
      // DomainName ids live in the same table: copy, don't re-intern.
      pd.rec.query = util::InternedName::from_id(msg->questions.front().qname.id());
      pd.rec.qtype = msg->questions.front().qtype;
    }
    pd.txid = msg->id;
    pd.generation = next_generation_++;
    expiries_.push(
        Expiry{at_tap + cfg_.dns_query_timeout, FiveTuple{}, key, true, pd.generation});
    pending_dns_.try_emplace(key, std::move(pd));
    return;
  }
  if (msg->flags.qr && p.src_port == 53) {
    // Response resolver → house.
    const DnsKey key{p.dst_ip, p.dst_port, p.src_ip, msg->id};
    const auto it = pending_dns_.find(key);
    if (it == pending_dns_.end()) {
      ++stats_.unsolicited_dns;  // late duplicate or spoof attempt
      return;
    }
    DnsRecord rec = std::move(it->second.rec);
    pending_dns_.erase(key);
    rec.duration = at_tap - rec.ts;
    rec.answered = true;
    rec.rcode = msg->flags.rcode;
    for (const auto& rr : msg->answers) {
      if (rr.type == dns::RrType::kA) {
        rec.answers.push_back(DnsAnswer{std::get<Ipv4Addr>(rr.rdata), rr.ttl});
      }
    }
    out_.dns.push_back(std::move(rec));
  }
}

void Monitor::handle_conn(SimTime at_tap, const netsim::Packet& p) {
  const FiveTuple forward = p.tuple();
  const FiveTuple reverse = forward.reversed();

  auto it = flows_.find(forward);
  bool is_orig = true;
  if (it == flows_.end()) {
    it = flows_.find(reverse);
    is_orig = false;
  }
  if (it == flows_.end()) {
    // New flow. For TCP we require a SYN: stray RSTs/FINs/data for
    // already-forgotten connections must not fabricate flows with an
    // inverted originator.
    if (p.proto == Proto::kTcp && !p.tcp.syn) {
      ++stats_.midstream_tcp;
      return;
    }
    Flow flow;
    flow.rec.start = at_tap;
    flow.rec.orig_ip = p.src_ip;
    flow.rec.resp_ip = p.dst_ip;
    flow.rec.orig_port = p.src_port;
    flow.rec.resp_port = p.dst_port;
    flow.rec.proto = p.proto;
    flow.last_packet = at_tap;
    flow.generation = next_generation_++;
    it = flows_.try_emplace(forward, std::move(flow)).first;
    is_orig = true;
    expiries_.push(Expiry{at_tap + flow_timeout(it->second), it->first, DnsKey{}, false,
                          it->second.generation});
  }

  Flow& flow = it->second;
  flow.last_packet = at_tap;
  if (is_orig) {
    flow.rec.orig_bytes += p.payload_bytes;
  } else {
    flow.rec.resp_bytes += p.payload_bytes;
  }
  if (cfg_.observe_encrypted_metadata && enc_candidate(flow.rec)) {
    track_enc(flow, p, is_orig);
  }

  if (p.proto == Proto::kTcp) {
    if (p.tcp.syn && !p.tcp.ack && is_orig) flow.saw_syn = true;
    if (p.tcp.syn && p.tcp.ack && !is_orig) flow.saw_syn_ack = true;
    if (p.tcp.fin) ++flow.fin_halves;
    if (p.tcp.rst) flow.saw_rst = true;
    if (flow.saw_rst || flow.fin_halves >= 2) {
      ++stats_.conns_closed;
      const FiveTuple key = it->first;  // erase moves slots; copy first
      finalize_flow(flow, at_tap);
      flows_.erase(key);
      return;
    }
  }
  // No per-packet expiry refresh: the entry pushed at flow creation is
  // re-checked lazily against last_packet when it pops (expire_state),
  // so the heap holds one live entry per flow instead of one per packet.
}

SimDuration Monitor::flow_timeout(const Flow& flow) const {
  if (flow.rec.proto == Proto::kUdp) return cfg_.udp_timeout;
  if (!flow.saw_syn_ack) return cfg_.tcp_attempt_timeout;
  return cfg_.tcp_idle_timeout;
}

void Monitor::finalize_flow(Flow& flow, SimTime now) {
  if (flow.closed) return;
  flow.closed = true;
  flow.rec.duration = flow.last_packet - flow.rec.start;
  if (flow.rec.proto == Proto::kUdp) {
    flow.rec.state = ConnState::kOth;
  } else if (flow.saw_rst && !flow.saw_syn_ack) {
    flow.rec.state = ConnState::kRej;
  } else if (flow.saw_rst) {
    flow.rec.state = ConnState::kRst;
  } else if (flow.saw_syn && !flow.saw_syn_ack) {
    flow.rec.state = ConnState::kS0;
  } else if (flow.saw_syn_ack && flow.fin_halves >= 2) {
    flow.rec.state = ConnState::kSf;
  } else {
    flow.rec.state = ConnState::kOth;
  }
  (void)now;
  out_.conns.push_back(flow.rec);
  if (cfg_.observe_encrypted_metadata && enc_candidate(flow.rec)) emit_encflow(flow);
}

void Monitor::expire_state(SimTime now) {
  while (!expiries_.empty() && expiries_.top().when <= now) {
    const Expiry e = expiries_.top();
    expiries_.pop();
    if (e.is_dns) {
      const auto it = pending_dns_.find(e.dns_key);
      if (it != pending_dns_.end() && it->second.generation == e.generation) {
        ++stats_.dns_unanswered;
        DnsRecord rec = std::move(it->second.rec);
        pending_dns_.erase(e.dns_key);
        rec.answered = false;
        rec.duration = SimDuration::zero();
        out_.dns.push_back(std::move(rec));
      }
    } else {
      const auto it = flows_.find(e.tuple);
      if (it != flows_.end() && it->second.generation == e.generation) {
        // Lazy deadline: packets only update last_packet, so recompute
        // the true timeout here and re-arm if the flow is still fresh.
        const SimTime deadline = it->second.last_packet + flow_timeout(it->second);
        if (deadline > now) {
          expiries_.push(Expiry{deadline, e.tuple, DnsKey{}, false, e.generation});
        } else {
          ++stats_.conns_timed_out;
          finalize_flow(it->second, now);
          flows_.erase(e.tuple);
        }
      }
    }
  }
}

namespace {

/// Stable timestamp sort via key extraction: pull the (SoA-style) key
/// column out of the records, argsort indices, then gather. Equivalent
/// to std::stable_sort on `key(rec)` but each record is moved exactly
/// once regardless of how deep the sort recursion goes.
template <typename Rec, typename KeyFn>
void sort_by_time(std::vector<Rec>& recs, KeyFn key) {
  const std::size_t n = recs.size();
  if (n < 2) return;
  std::vector<std::int64_t> ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = key(recs[i]).count_us();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&ts](std::uint32_t a, std::uint32_t b) { return ts[a] < ts[b]; });
  std::vector<Rec> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sorted.push_back(std::move(recs[order[i]]));
  recs = std::move(sorted);
}

/// The table's open entries in creation order. FlatMap iteration order
/// follows the hash function and the table's growth history, and
/// equal-time records keep their finalization order downstream
/// (harvest()'s stable sort, LiveFeed's arrival tie-break).
template <typename Table>
[[nodiscard]] std::vector<typename Table::value_type::second_type*> by_generation(Table& table) {
  std::vector<typename Table::value_type::second_type*> out;
  out.reserve(table.size());
  for (auto& kv : table) out.push_back(&kv.second);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->generation < b->generation; });
  return out;
}

}  // namespace

void Monitor::flush(SimTime end) {
  expire_state(end);
  for (Flow* flow : by_generation(flows_)) {
    ++stats_.conns_flushed_at_harvest;
    finalize_flow(*flow, end);
  }
  flows_.clear();
  for (PendingDns* pd : by_generation(pending_dns_)) {
    ++stats_.dns_unanswered;
    DnsRecord rec = std::move(pd->rec);
    rec.answered = false;
    out_.dns.push_back(std::move(rec));
  }
  pending_dns_.clear();
  while (!expiries_.empty()) expiries_.pop();
}

Dataset Monitor::take_finalized() {
  // Keep only locally-originated connections, matching the paper's
  // corpus definition (§3).
  std::erase_if(out_.conns, [&](const ConnRecord& c) { return !local_orig(c.orig_ip); });
  return std::exchange(out_, Dataset{});
}

Dataset Monitor::harvest(SimTime end) {
  flush(end);
  Dataset result = take_finalized();
  // Timestamp-sort the logs: finalisation order (timeouts, harvest) is
  // not emission order, and the analysis pipeline assumes sorted logs.
  // The sort runs over an extracted timestamp column + index permutation
  // (records move once, in one gather pass, instead of O(n log n) times)
  // and is stable so that equal-timestamp records keep finalization
  // order — the order a LiveFeed delivers them in — keeping batch and
  // streaming runs record-for-record identical.
  sort_by_time(result.conns, [](const ConnRecord& c) { return c.start; });
  sort_by_time(result.dns, [](const DnsRecord& d) { return d.ts; });
  sort_by_time(result.encflows, [](const EncFlowRecord& e) { return e.start; });
  return result;
}

}  // namespace dnsctx::capture
