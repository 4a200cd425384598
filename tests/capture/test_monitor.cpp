// Unit tests for the Bro-style passive monitor, fed hand-crafted packet
// observations.
#include <gtest/gtest.h>

#include <vector>

#include "capture/monitor.hpp"
#include "dns/codec.hpp"

namespace dnsctx::capture {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kServer{34, 1, 1, 1};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

[[nodiscard]] netsim::Packet tcp(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                                 std::uint16_t dport, netsim::TcpFlags flags,
                                 std::uint64_t payload = 0) {
  netsim::Packet p;
  p.src_ip = src;
  p.src_port = sport;
  p.dst_ip = dst;
  p.dst_port = dport;
  p.proto = Proto::kTcp;
  p.tcp = flags;
  p.payload_bytes = payload;
  return p;
}

[[nodiscard]] netsim::Packet udp(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                                 std::uint16_t dport, std::uint64_t payload = 0) {
  netsim::Packet p;
  p.src_ip = src;
  p.src_port = sport;
  p.dst_ip = dst;
  p.dst_port = dport;
  p.proto = Proto::kUdp;
  p.payload_bytes = payload;
  return p;
}

[[nodiscard]] SimTime at_ms(std::int64_t ms) { return SimTime::origin() + SimDuration::ms(ms); }

class MonitorTest : public ::testing::Test {
 protected:
  Monitor monitor;

  void play_handshake_and_close(std::int64_t t0_ms, std::uint64_t up = 500,
                                std::uint64_t down = 10'000, std::int64_t close_ms = 1'000) {
    monitor.observe(at_ms(t0_ms), tcp(kHouse, 10'000, kServer, 443, {.syn = true}));
    monitor.observe(at_ms(t0_ms + 10), tcp(kServer, 443, kHouse, 10'000, {.syn = true, .ack = true}));
    monitor.observe(at_ms(t0_ms + 20), tcp(kHouse, 10'000, kServer, 443, {.ack = true}, up));
    monitor.observe(at_ms(t0_ms + 100), tcp(kServer, 443, kHouse, 10'000, {.ack = true}, down));
    monitor.observe(at_ms(t0_ms + close_ms),
                    tcp(kServer, 443, kHouse, 10'000, {.ack = true, .fin = true}));
    monitor.observe(at_ms(t0_ms + close_ms + 10),
                    tcp(kHouse, 10'000, kServer, 443, {.ack = true, .fin = true}));
  }
};

TEST_F(MonitorTest, NormalTcpConnectionSummarised) {
  play_handshake_and_close(0);
  const Dataset ds = monitor.harvest(at_ms(5'000));
  ASSERT_EQ(ds.conns.size(), 1u);
  const ConnRecord& c = ds.conns[0];
  EXPECT_EQ(c.orig_ip, kHouse);
  EXPECT_EQ(c.resp_ip, kServer);
  EXPECT_EQ(c.orig_port, 10'000);
  EXPECT_EQ(c.resp_port, 443);
  EXPECT_EQ(c.state, ConnState::kSf);
  EXPECT_EQ(c.orig_bytes, 500u);
  EXPECT_EQ(c.resp_bytes, 10'000u);
  EXPECT_EQ(c.start, at_ms(0));
  EXPECT_EQ(c.duration, SimDuration::ms(1'010));
}

TEST_F(MonitorTest, SynOnlyBecomesS0AfterTimeout) {
  monitor.observe(at_ms(0), tcp(kHouse, 10'000, kServer, 123, {.syn = true}));
  monitor.observe(at_ms(3'000), tcp(kHouse, 10'000, kServer, 123, {.syn = true}));  // retx
  const Dataset ds = monitor.harvest(at_ms(120'000));
  ASSERT_EQ(ds.conns.size(), 1u);
  EXPECT_EQ(ds.conns[0].state, ConnState::kS0);
  EXPECT_EQ(ds.conns[0].resp_bytes, 0u);
}

TEST_F(MonitorTest, SynRstIsRejected) {
  monitor.observe(at_ms(0), tcp(kHouse, 10'000, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(10), tcp(kServer, 443, kHouse, 10'000, {.rst = true}));
  const Dataset ds = monitor.harvest(at_ms(1'000));
  ASSERT_EQ(ds.conns.size(), 1u);
  EXPECT_EQ(ds.conns[0].state, ConnState::kRej);
}

TEST_F(MonitorTest, EstablishedThenRst) {
  monitor.observe(at_ms(0), tcp(kHouse, 10'000, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(10), tcp(kServer, 443, kHouse, 10'000, {.syn = true, .ack = true}));
  monitor.observe(at_ms(500), tcp(kHouse, 10'000, kServer, 443, {.rst = true}));
  const Dataset ds = monitor.harvest(at_ms(1'000));
  ASSERT_EQ(ds.conns.size(), 1u);
  EXPECT_EQ(ds.conns[0].state, ConnState::kRst);
}

TEST_F(MonitorTest, HalfCloseAloneDoesNotFinalise) {
  monitor.observe(at_ms(0), tcp(kHouse, 10'000, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(10), tcp(kServer, 443, kHouse, 10'000, {.syn = true, .ack = true}));
  monitor.observe(at_ms(100), tcp(kServer, 443, kHouse, 10'000, {.ack = true, .fin = true}));
  // Harvest before any timeout: the flow is still open and flushed as OTH.
  const Dataset ds = monitor.harvest(at_ms(200));
  ASSERT_EQ(ds.conns.size(), 1u);
  EXPECT_EQ(ds.conns[0].state, ConnState::kOth);
}

TEST_F(MonitorTest, ConcurrentConnectionsTrackedSeparately) {
  monitor.observe(at_ms(0), tcp(kHouse, 10'000, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(1), tcp(kHouse, 10'001, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(10), tcp(kServer, 443, kHouse, 10'000, {.syn = true, .ack = true}));
  monitor.observe(at_ms(11), tcp(kServer, 443, kHouse, 10'001, {.syn = true, .ack = true}));
  const Dataset ds = monitor.harvest(at_ms(2'000));
  EXPECT_EQ(ds.conns.size(), 2u);
}

TEST_F(MonitorTest, UdpFlowClosesAfterInactivity) {
  monitor.observe(at_ms(0), udp(kHouse, 50'000, kServer, 9'999, 100));
  monitor.observe(at_ms(30'000), udp(kServer, 9'999, kHouse, 50'000, 400));
  monitor.observe(at_ms(59'000), udp(kHouse, 50'000, kServer, 9'999, 100));
  // 60 s of silence, then more packets: a NEW flow.
  monitor.observe(at_ms(200'000), udp(kHouse, 50'000, kServer, 9'999, 50));
  const Dataset ds = monitor.harvest(at_ms(400'000));
  ASSERT_EQ(ds.conns.size(), 2u);
  EXPECT_EQ(ds.conns[0].orig_bytes, 200u);
  EXPECT_EQ(ds.conns[0].resp_bytes, 400u);
  EXPECT_EQ(ds.conns[0].duration, SimDuration::ms(59'000));
  EXPECT_EQ(ds.conns[1].orig_bytes, 50u);
}

TEST_F(MonitorTest, DnsTransactionMatched) {
  const auto query = dns::DnsMessage::query(0xbeef, dns::DomainName::must("www.example.com"));
  auto qp = udp(kHouse, 40'000, kResolver, 53);
  qp.dns = dns::DnsPayload::from_message(query);
  monitor.observe(at_ms(100), qp);

  auto resp = dns::DnsMessage::response(
      query, {dns::ResourceRecord::a(dns::DomainName::must("www.example.com"),
                                     Ipv4Addr{93, 184, 216, 34}, 300)});
  auto rp = udp(kResolver, 53, kHouse, 40'000);
  rp.dns = dns::DnsPayload::from_message(resp);
  monitor.observe(at_ms(108), rp);

  const Dataset ds = monitor.harvest(at_ms(1'000));
  EXPECT_TRUE(ds.conns.empty());  // port-53 flows are not conn records
  ASSERT_EQ(ds.dns.size(), 1u);
  const DnsRecord& d = ds.dns[0];
  EXPECT_EQ(d.query, "www.example.com");
  EXPECT_EQ(d.client_ip, kHouse);
  EXPECT_EQ(d.resolver_ip, kResolver);
  EXPECT_TRUE(d.answered);
  EXPECT_EQ(d.duration, SimDuration::ms(8));
  ASSERT_EQ(d.answers.size(), 1u);
  EXPECT_EQ(d.answers[0].ttl, 300u);
  EXPECT_EQ(d.min_ttl(), 300u);
  EXPECT_EQ(d.expires_at(), at_ms(108) + SimDuration::sec(300));
}

TEST_F(MonitorTest, UnansweredDnsFlushedAsUnanswered) {
  const auto query = dns::DnsMessage::query(1, dns::DomainName::must("lost.example.com"));
  auto qp = udp(kHouse, 40'000, kResolver, 53);
  qp.dns = dns::DnsPayload::from_message(query);
  monitor.observe(at_ms(0), qp);
  const Dataset ds = monitor.harvest(at_ms(60'000));
  ASSERT_EQ(ds.dns.size(), 1u);
  EXPECT_FALSE(ds.dns[0].answered);
  EXPECT_TRUE(ds.dns[0].answers.empty());
}

TEST_F(MonitorTest, DnsRetransmissionKeepsFirstTimestamp) {
  const auto query = dns::DnsMessage::query(7, dns::DomainName::must("slow.example.com"));
  auto qp = udp(kHouse, 40'000, kResolver, 53);
  qp.dns = dns::DnsPayload::from_wire(dns::encode(query));
  monitor.observe(at_ms(0), qp);
  monitor.observe(at_ms(3'000), qp);  // retransmission

  auto resp = dns::DnsMessage::response(
      query, {dns::ResourceRecord::a(dns::DomainName::must("slow.example.com"),
                                     Ipv4Addr{1, 1, 1, 1}, 60)});
  auto rp = udp(kResolver, 53, kHouse, 40'000);
  rp.dns = dns::DnsPayload::from_message(resp);
  monitor.observe(at_ms(3'050), rp);

  const Dataset ds = monitor.harvest(at_ms(60'000));
  ASSERT_EQ(ds.dns.size(), 1u);
  EXPECT_EQ(ds.dns[0].ts, at_ms(0));
  EXPECT_EQ(ds.dns[0].duration, SimDuration::ms(3'050));  // includes the retry wait
}

TEST_F(MonitorTest, MalformedDnsCounted) {
  auto qp = udp(kHouse, 40'000, kResolver, 53);
  qp.dns = dns::DnsPayload::from_wire({1, 2, 3});
  monitor.observe(at_ms(0), qp);
  EXPECT_EQ(monitor.malformed_dns(), 1u);
  const Dataset ds = monitor.harvest(at_ms(1'000));
  EXPECT_TRUE(ds.dns.empty());
}

TEST_F(MonitorTest, UnsolicitedDnsResponseIgnored) {
  const auto query = dns::DnsMessage::query(9, dns::DomainName::must("x.example.com"));
  auto resp = dns::DnsMessage::response(query, {});
  auto rp = udp(kResolver, 53, kHouse, 40'000);
  rp.dns = dns::DnsPayload::from_message(resp);
  monitor.observe(at_ms(0), rp);
  const Dataset ds = monitor.harvest(at_ms(1'000));
  EXPECT_TRUE(ds.dns.empty());
}

TEST_F(MonitorTest, HarvestSortsByTimestamp) {
  // Second conn starts first but closes later; order in log must be by start.
  monitor.observe(at_ms(50), tcp(kHouse, 10'001, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(60), tcp(kServer, 443, kHouse, 10'001, {.syn = true, .ack = true}));
  play_handshake_and_close(100, 1, 1, 200);  // starts later, closes at 400
  monitor.observe(at_ms(5'000), tcp(kServer, 443, kHouse, 10'001, {.ack = true, .fin = true}));
  monitor.observe(at_ms(5'010), tcp(kHouse, 10'001, kServer, 443, {.ack = true, .fin = true}));
  const Dataset ds = monitor.harvest(at_ms(10'000));
  ASSERT_EQ(ds.conns.size(), 2u);
  EXPECT_LT(ds.conns[0].start, ds.conns[1].start);
}

TEST_F(MonitorTest, HarvestResetsState) {
  play_handshake_and_close(0);
  (void)monitor.harvest(at_ms(5'000));
  const Dataset ds2 = monitor.harvest(at_ms(6'000));
  EXPECT_TRUE(ds2.conns.empty());
  EXPECT_TRUE(ds2.dns.empty());
}

TEST_F(MonitorTest, BothHighPortsHeuristic) {
  ConnRecord c;
  c.orig_port = 51'413;
  c.resp_port = 38'112;
  EXPECT_TRUE(c.both_high_ports());
  c.resp_port = 443;
  EXPECT_FALSE(c.both_high_ports());
}

TEST_F(MonitorTest, StatsCountersTrackWeirdness) {
  // Retransmitted DNS query.
  const auto query = dns::DnsMessage::query(5, dns::DomainName::must("x.example.com"));
  auto qp = udp(kHouse, 40'000, kResolver, 53);
  qp.dns = dns::DnsPayload::from_message(query);
  monitor.observe(at_ms(0), qp);
  monitor.observe(at_ms(1'000), qp);
  EXPECT_EQ(monitor.stats().dns_retransmissions, 1u);

  // Unsolicited DNS response.
  auto resp = dns::DnsMessage::response(query, {});
  auto rp = udp(kResolver, 53, kHouse, 41'111);
  rp.dns = dns::DnsPayload::from_message(resp);
  monitor.observe(at_ms(2'000), rp);
  EXPECT_EQ(monitor.stats().unsolicited_dns, 1u);

  // Mid-stream TCP for an unknown flow.
  monitor.observe(at_ms(3'000), tcp(kHouse, 12'000, kServer, 443, {.ack = true}, 100));
  EXPECT_EQ(monitor.stats().midstream_tcp, 1u);

  // A normal close and an idle timeout.
  play_handshake_and_close(4'000);
  EXPECT_EQ(monitor.stats().conns_closed, 1u);
  monitor.observe(at_ms(10'000), udp(kHouse, 50'000, kServer, 9'999, 10));
  (void)monitor.harvest(at_ms(500'000));
  EXPECT_EQ(monitor.stats().conns_timed_out, 1u);   // the UDP flow
  EXPECT_EQ(monitor.stats().dns_unanswered, 1u);    // the retransmitted query
  EXPECT_GT(monitor.stats().packets, 5u);
}

TEST_F(MonitorTest, NonLocalOriginatorsFilteredAtHarvest) {
  // A server-originated flow (e.g. UDP probe toward the house) would
  // carry a non-local originator; the paper's corpus keeps only
  // locally-originated connections.
  monitor.observe(at_ms(0), udp(kServer, 9'999, kHouse, 50'000, 64));
  const Dataset ds = monitor.harvest(at_ms(200'000));
  EXPECT_TRUE(ds.conns.empty());
}

TEST_F(MonitorTest, TakeFinalizedKeepsFinalizationOrderPerKind) {
  // Two lookups answered in reverse order of their queries.
  constexpr std::uint16_t kIds[] = {1, 2};
  for (const std::uint16_t id : kIds) {
    auto qp = udp(kHouse, static_cast<std::uint16_t>(40'000 + id), kResolver, 53);
    qp.dns = dns::DnsPayload::from_message(
        dns::DnsMessage::query(id, dns::DomainName::must("a.example.com")));
    monitor.observe(at_ms(id * 10), qp);
  }
  for (const std::uint16_t id : {kIds[1], kIds[0]}) {
    const auto query = dns::DnsMessage::query(id, dns::DomainName::must("a.example.com"));
    auto rp = udp(kResolver, 53, kHouse, static_cast<std::uint16_t>(40'000 + id));
    rp.dns = dns::DnsPayload::from_message(dns::DnsMessage::response(query, {}));
    monitor.observe(at_ms(30 + id), rp);
  }
  // The conn that starts first closes last.
  monitor.observe(at_ms(50), tcp(kHouse, 10'001, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(60), tcp(kServer, 443, kHouse, 10'001, {.syn = true, .ack = true}));
  play_handshake_and_close(100, 1, 1, 200);
  monitor.observe(at_ms(5'000), tcp(kServer, 443, kHouse, 10'001, {.ack = true, .fin = true}));
  monitor.observe(at_ms(5'010), tcp(kHouse, 10'001, kServer, 443, {.ack = true, .fin = true}));

  const Dataset ds = monitor.take_finalized();
  ASSERT_EQ(ds.conns.size(), 2u);
  EXPECT_EQ(ds.conns[0].start, at_ms(100));
  EXPECT_EQ(ds.conns[1].start, at_ms(50));
  ASSERT_EQ(ds.dns.size(), 2u);
  EXPECT_EQ(ds.dns[0].ts, at_ms(20));
  EXPECT_EQ(ds.dns[1].ts, at_ms(10));

  const Dataset again = monitor.take_finalized();
  EXPECT_TRUE(again.conns.empty());
  EXPECT_TRUE(again.dns.empty());
}

TEST_F(MonitorTest, FlushFinalizesOpenStateInCreationOrder) {
  // 64 flows and 64 queries opened at the same instant, in an order that
  // is neither port order nor address order, all still open at harvest.
  // Equal key times keep finalization order, which must be creation
  // order rather than the flow table's hash order.
  constexpr int kOpen = 64;
  const SimTime t = at_ms(1'000);
  std::vector<std::uint16_t> conn_ports;
  std::vector<std::uint16_t> dns_ports;
  for (int i = 0; i < kOpen; ++i) {
    const auto k = static_cast<std::uint8_t>(i * 37 % kOpen);
    const auto port = static_cast<std::uint16_t>(10'000 + k);
    monitor.observe(t, tcp(kHouse, port, Ipv4Addr{34, 1, 1, static_cast<std::uint8_t>(k + 1)},
                           443, {.syn = true}));
    conn_ports.push_back(port);

    const auto qport = static_cast<std::uint16_t>(40'000 + k);
    auto qp = udp(kHouse, qport, kResolver, 53);
    qp.dns = dns::DnsPayload::from_message(
        dns::DnsMessage::query(static_cast<std::uint16_t>(k + 1),
                               dns::DomainName::must("open.example.com")));
    monitor.observe(t, qp);
    dns_ports.push_back(qport);
  }
  const Dataset ds = monitor.harvest(at_ms(2'000));
  ASSERT_EQ(ds.conns.size(), conn_ports.size());
  ASSERT_EQ(ds.dns.size(), dns_ports.size());
  for (std::size_t i = 0; i < conn_ports.size(); ++i) {
    EXPECT_EQ(ds.conns[i].orig_port, conn_ports[i]) << "conn " << i;
    EXPECT_EQ(ds.dns[i].client_port, dns_ports[i]) << "dns " << i;
  }
}

TEST_F(MonitorTest, DnsQueryCopiesTheNameId) {
  // Message-origin and wire-origin queries both record the interned
  // qname without re-interning it.
  const auto name = dns::DomainName::must("Copy.Example.COM");
  const auto query = dns::DnsMessage::query(9, name);
  auto from_msg = udp(kHouse, 40'001, kResolver, 53);
  from_msg.dns = dns::DnsPayload::from_message(query);
  monitor.observe(at_ms(0), from_msg);
  auto from_wire = udp(kHouse, 40'002, kResolver, 53);
  from_wire.dns = dns::DnsPayload::from_wire(dns::encode(query));
  monitor.observe(at_ms(1), from_wire);

  const Dataset ds = monitor.harvest(at_ms(60'000));
  ASSERT_EQ(ds.dns.size(), 2u);
  for (const DnsRecord& d : ds.dns) {
    EXPECT_EQ(d.query, util::InternedName{name.text()});
    EXPECT_EQ(d.query.id(), name.id());
    EXPECT_EQ(d.query.view(), "copy.example.com");
  }
}

TEST_F(MonitorTest, TakeFinalizedFiltersAndLeavesOpenStateAlone) {
  monitor.observe(at_ms(0), udp(kServer, 9'999, kHouse, 50'000, 64));  // non-local originator
  monitor.observe(at_ms(0), udp(kHouse, 50'001, kServer, 9'998, 64));
  // 70 s later both UDP flows have timed out; this TCP flow and lookup stay open.
  monitor.observe(at_ms(70'000), tcp(kHouse, 10'000, kServer, 443, {.syn = true}));
  monitor.observe(at_ms(70'010), tcp(kServer, 443, kHouse, 10'000, {.syn = true, .ack = true}));
  auto qp = udp(kHouse, 40'000, kResolver, 53);
  qp.dns = dns::DnsPayload::from_message(
      dns::DnsMessage::query(3, dns::DomainName::must("open.example.com")));
  monitor.observe(at_ms(70'020), qp);

  const Dataset ds = monitor.take_finalized();
  ASSERT_EQ(ds.conns.size(), 1u);
  EXPECT_EQ(ds.conns[0].orig_ip, kHouse);
  EXPECT_EQ(ds.conns[0].proto, Proto::kUdp);
  EXPECT_TRUE(ds.dns.empty());
  EXPECT_EQ(monitor.open_watermark(at_ms(80'000)), at_ms(70'000));

  const Dataset again = monitor.take_finalized();
  EXPECT_TRUE(again.conns.empty());
  EXPECT_TRUE(again.dns.empty());

  // The open flow and lookup are still there for harvest to flush.
  const Dataset rest = monitor.harvest(at_ms(75'000));
  ASSERT_EQ(rest.conns.size(), 1u);
  EXPECT_EQ(rest.conns[0].proto, Proto::kTcp);
  ASSERT_EQ(rest.dns.size(), 1u);
  EXPECT_FALSE(rest.dns[0].answered);
}

TEST_F(MonitorTest, ThroughputComputation) {
  ConnRecord c;
  c.resp_bytes = 1'000'000;
  c.duration = SimDuration::sec(10);
  EXPECT_DOUBLE_EQ(c.throughput_bps(), 100'000.0);
  c.duration = SimDuration::zero();
  EXPECT_DOUBLE_EQ(c.throughput_bps(), 0.0);
}

}  // namespace
}  // namespace dnsctx::capture
