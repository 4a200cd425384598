#include "resolver/forwarder.hpp"

#include <algorithm>

namespace dnsctx::resolver {

WholeHouseForwarder::WholeHouseForwarder(netsim::Simulator& sim, netsim::HouseGateway& gateway,
                                         Ipv4Addr forwarder_ip, dns::CacheConfig cache_cfg)
    : sim_{sim}, gateway_{gateway}, forwarder_ip_{forwarder_ip}, cache_{cache_cfg} {
  gateway_.attach_device(forwarder_ip_, this);
  gateway_.set_dns_intercept([this](const netsim::Packet& p) { return on_device_query(p); });
}

bool WholeHouseForwarder::on_device_query(const netsim::Packet& p) {
  if (p.src_ip == forwarder_ip_) return false;  // our own upstream relay
  if (p.dns.empty()) return false;
  const dns::DnsMessage* msg = p.dns.message();
  if (msg == nullptr || msg->flags.qr || msg->questions.empty()) return false;
  const dns::Question& q = msg->questions.front();

  if (auto hit = cache_.lookup(q.qname, q.qtype, sim_.now()); hit && !hit->expired) {
    const auto remaining = std::max<std::int64_t>(
        1, (hit->expires_at - sim_.now()).count_us() / 1'000'000);
    answer_device(p, *msg, hit->answers.records(), hit->rcode,
                  static_cast<std::uint32_t>(remaining));
    return true;
  }

  // Miss: relay upstream with our own transaction id and source port so
  // the response routes back through the NAT to us, not the device.
  const std::uint16_t txid = next_txid_ == 0 ? ++next_txid_ : next_txid_;
  ++next_txid_;
  upstream_.emplace(txid, Relayed{p, *msg});

  dns::DnsMessage relay = dns::DnsMessage::query(txid, q.qname, q.qtype);
  netsim::Packet up;
  up.src_ip = forwarder_ip_;
  up.dst_ip = p.dst_ip;  // same upstream resolver the device chose
  up.src_port = next_port_;
  next_port_ = next_port_ >= 64'000 ? std::uint16_t{30'000}
                                    : static_cast<std::uint16_t>(next_port_ + 1);
  up.dst_port = 53;
  up.proto = Proto::kUdp;
  up.dns = dns::DnsPayload::from_message(std::move(relay));
  ++upstream_queries_;
  gateway_.from_device(std::move(up));
  return true;
}

void WholeHouseForwarder::receive(const netsim::Packet& p) {
  if (p.dns.empty() || p.proto != Proto::kUdp || p.src_port != 53) return;
  const dns::DnsMessage* msg = p.dns.message();
  if (msg == nullptr || !msg->flags.qr) return;
  const auto it = upstream_.find(msg->id);
  if (it == upstream_.end()) return;
  const Relayed relayed = std::move(it->second);
  upstream_.erase(it);

  cache_.insert(relayed.query.questions.front().qname, relayed.query.questions.front().qtype,
                msg->answers, msg->flags.rcode, sim_.now());
  const std::uint32_t ttl = msg->min_answer_ttl();
  answer_device(relayed.original_query, relayed.query, msg->answers, msg->flags.rcode,
                std::max<std::uint32_t>(ttl, 1));
}

void WholeHouseForwarder::answer_device(const netsim::Packet& original_query,
                                        const dns::DnsMessage& query,
                                        std::vector<dns::ResourceRecord> answers,
                                        dns::Rcode rcode, std::uint32_t remaining_ttl_sec) {
  for (auto& rr : answers) rr.ttl = remaining_ttl_sec;
  dns::DnsMessage resp = dns::DnsMessage::response(query, std::move(answers), rcode);

  netsim::Packet out;
  // Answer as the resolver the device addressed: the device's stub
  // accepts it, exactly as with a transparent middlebox.
  out.src_ip = original_query.dst_ip;
  out.dst_ip = original_query.src_ip;
  out.src_port = 53;
  out.dst_port = original_query.src_port;
  out.proto = Proto::kUdp;
  out.dns = dns::DnsPayload::from_message(std::move(resp));
  gateway_.deliver_to_device(std::move(out));
}

}  // namespace dnsctx::resolver
