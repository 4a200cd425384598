// Tests for DNS truncation + TCP fallback (RFC 1035 §4.2.2), end to end
// through stub → NAT → platform and back.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "capture/monitor.hpp"
#include "dns/codec.hpp"
#include "resolver/recursive.hpp"
#include "traffic/device.hpp"

namespace dnsctx::resolver {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kDeviceIp{192, 168, 1, 10};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

TEST(TruncateForUdp, SmallMessagesUntouched) {
  const auto msg = dns::DnsMessage::query(1, dns::DomainName::must("a.com"));
  const auto out = dns::truncate_for_udp(msg);
  EXPECT_EQ(out, msg);
  EXPECT_FALSE(out.flags.tc);
}

TEST(TruncateForUdp, OversizedMessagesLoseRecordsAndGainTc) {
  auto q = dns::DnsMessage::query(7, dns::DomainName::must("wide.example.com"));
  std::vector<dns::ResourceRecord> answers;
  for (int i = 0; i < 40; ++i) {
    answers.push_back(dns::ResourceRecord::a(
        dns::DomainName::must("wide.example.com"),
        Ipv4Addr{35, 0, 0, static_cast<std::uint8_t>(1 + i)}, 300));
  }
  const auto resp = dns::DnsMessage::response(q, std::move(answers));
  ASSERT_GT(dns::encoded_size(resp), dns::kUdpPayloadLimit);
  const auto out = dns::truncate_for_udp(resp);
  EXPECT_TRUE(out.flags.tc);
  EXPECT_TRUE(out.answers.empty());
  EXPECT_EQ(out.questions, resp.questions);
  EXPECT_EQ(out.id, resp.id);
  EXPECT_LE(dns::encoded_size(out), dns::kUdpPayloadLimit);
}

/// Find a ZoneDb name whose full answer set overflows UDP.
[[nodiscard]] const HostRecord* find_wide_record(const ZoneDb& zones) {
  for (NameId id = 0; id < zones.size(); ++id) {
    if (zones.record(id).addrs.size() >= 30) return &zones.record(id);
  }
  return nullptr;
}

class TcpFallbackTest : public ::testing::Test {
 protected:
  TcpFallbackTest()
      : net{sim, make_latency(), 3},
        gateway{sim, net, kHouse, 5, SimDuration::from_ms(0.2)},
        zones{make_zone_config()},
        platform{sim, net, zones, platform_config(), 7},
        device{sim, gateway, kDeviceIp, stub_config(), 11} {
    net.set_tap(&monitor);
  }

  static netsim::LatencyModel make_latency() {
    netsim::LatencyModel lat;
    lat.set_site(kHouse, {SimDuration::from_ms(0.5), 0.0});
    lat.set_site(kResolver, {SimDuration::from_ms(0.5), 0.0});
    return lat;
  }
  static ZoneDbConfig make_zone_config() {
    ZoneDbConfig cfg;
    cfg.seed = 12;  // chosen so the API family contains a wide pool
    cfg.web_sites = 10;
    cfg.cdn_domains = 2;
    cfg.ad_domains = 2;
    cfg.tracker_domains = 2;
    cfg.api_domains = 60;
    cfg.video_sites = 2;
    cfg.other_names = 2;
    return cfg;
  }
  static PlatformConfig platform_config() {
    PlatformConfig cfg;
    cfg.addrs = {kResolver};
    cfg.site = {SimDuration::from_ms(0.5), 0.0};
    cfg.slow_tail_prob = 0.0;
    return cfg;
  }
  static StubConfig stub_config() {
    StubConfig cfg;
    cfg.resolver_addrs = {kResolver};
    cfg.ttl_violation_prob = 0.0;
    cfg.aaaa_prob = 0.0;
    return cfg;
  }

  netsim::Simulator sim;
  netsim::Network net;
  netsim::HouseGateway gateway;
  ZoneDb zones;
  RecursiveResolverPlatform platform;
  capture::Monitor monitor;
  traffic::Device device;
};

TEST_F(TcpFallbackTest, WideAnswerResolvesViaTcp) {
  const HostRecord* wide = find_wide_record(zones);
  ASSERT_NE(wide, nullptr) << "zone seed produced no wide pool; adjust make_zone_config";

  ResolveResult result;
  device.stub().resolve(wide->name, [&](const ResolveResult& r) { result = r; });
  sim.run_until(sim.now() + SimDuration::sec(2));

  EXPECT_TRUE(result.success);
  EXPECT_GE(result.addrs.size(), 30u);  // the full pool, not a truncated subset
  EXPECT_EQ(device.stub().tcp_fallbacks(), 1u);
  EXPECT_EQ(platform.stats().truncated_udp, 1u);
  EXPECT_EQ(platform.stats().queries, 2u);  // UDP attempt + TCP retry
}

TEST_F(TcpFallbackTest, FallbackResultIsCached) {
  const HostRecord* wide = find_wide_record(zones);
  ASSERT_NE(wide, nullptr);
  ResolveResult first;
  device.stub().resolve(wide->name, [&](const ResolveResult& r) { first = r; });
  sim.run_until(sim.now() + SimDuration::sec(2));
  ASSERT_FALSE(first.from_cache);
  ASSERT_GE(first.addrs.size(), 30u);  // the TCP answer carries the whole pool
  ResolveResult again;
  device.stub().resolve(wide->name, [&](const ResolveResult& r) { again = r; });
  sim.run_until(sim.now() + SimDuration::sec(1));
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.addrs, first.addrs);  // every address, in the answer's order
  EXPECT_EQ(device.stub().tcp_fallbacks(), 1u);  // no second fallback
}

TEST_F(TcpFallbackTest, NarrowAnswersNeverFallBack) {
  const auto& narrow = zones.record(zones.ids_of(ServiceClass::kWebOrigin)[0]);
  ResolveResult result;
  device.stub().resolve(narrow.name, [&](const ResolveResult& r) { result = r; });
  sim.run_until(sim.now() + SimDuration::sec(2));
  EXPECT_TRUE(result.success);
  EXPECT_EQ(device.stub().tcp_fallbacks(), 0u);
  EXPECT_EQ(platform.stats().truncated_udp, 0u);
}

TEST_F(TcpFallbackTest, MonitorLogsBothTransactions) {
  const HostRecord* wide = find_wide_record(zones);
  ASSERT_NE(wide, nullptr);
  device.stub().resolve(wide->name, [](const ResolveResult&) {});
  sim.run_until(sim.now() + SimDuration::sec(2));
  const auto ds = monitor.harvest(sim.now());

  // Port-53 traffic (UDP and TCP) must not appear as connections.
  EXPECT_TRUE(ds.conns.empty());

  // Two DNS records for the name: the truncated UDP one (no A answers)
  // and the TCP one carrying the full pool.
  std::size_t with_answers = 0, without = 0;
  for (const auto& d : ds.dns) {
    if (d.query != wide->name.text()) continue;
    if (d.answers.size() >= 30) {
      ++with_answers;
      EXPECT_GT(d.duration, SimDuration::zero());
    } else {
      ++without;
    }
  }
  EXPECT_EQ(with_answers, 1u);
  EXPECT_EQ(without, 1u);
}

/// Every DNS message that crosses the tap, with its transport.
struct DnsRecorder final : netsim::PacketTap {
  std::vector<std::pair<Proto, dns::DnsMessage>> seen;
  void observe(SimTime, const netsim::Packet& p) override {
    if (const dns::DnsMessage* msg = p.dns.message()) seen.emplace_back(p.proto, *msg);
  }
};

TEST_F(TcpFallbackTest, RetryRepeatsTheQueryAndDeliversTheWholePool) {
  const HostRecord* wide = find_wide_record(zones);
  ASSERT_NE(wide, nullptr);
  DnsRecorder tap;
  net.set_tap(&tap);
  ResolveResult result;
  device.stub().resolve(wide->name, [&](const ResolveResult& r) { result = r; });
  sim.run_until(sim.now() + SimDuration::sec(2));

  // UDP query, truncated UDP response, TCP query, TCP response.
  ASSERT_EQ(tap.seen.size(), 4u);
  const auto& [udp_proto, udp_query] = tap.seen[0];
  const auto& [tc_proto, tc_response] = tap.seen[1];
  const auto& [tcp_proto, tcp_query] = tap.seen[2];
  const auto& [full_proto, full_response] = tap.seen[3];
  EXPECT_EQ(udp_proto, Proto::kUdp);
  EXPECT_EQ(tc_proto, Proto::kUdp);
  EXPECT_EQ(tcp_proto, Proto::kTcp);
  EXPECT_EQ(full_proto, Proto::kTcp);
  EXPECT_FALSE(udp_query.flags.qr);
  EXPECT_EQ(udp_query.questions,
            (std::vector<dns::Question>{{wide->name, dns::RrType::kA, dns::RrClass::kIn}}));

  EXPECT_TRUE(tc_response.flags.qr);
  EXPECT_TRUE(tc_response.flags.tc);
  EXPECT_EQ(tc_response.id, udp_query.id);
  EXPECT_TRUE(tc_response.answers.empty());
  EXPECT_TRUE(tc_response.authorities.empty());
  EXPECT_TRUE(tc_response.additionals.empty());

  // The retry asks the same question under the same id.
  EXPECT_FALSE(tcp_query.flags.qr);
  EXPECT_EQ(tcp_query.id, udp_query.id);
  EXPECT_EQ(tcp_query.questions, udp_query.questions);

  EXPECT_TRUE(full_response.flags.qr);
  EXPECT_FALSE(full_response.flags.tc);
  EXPECT_EQ(full_response.id, udp_query.id);

  // Delivered: every address of the zone's pool, in the answer's order.
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.addrs, full_response.answer_addresses());
  EXPECT_EQ(result.addrs.size(), wide->addrs.size());
  EXPECT_TRUE(std::is_permutation(result.addrs.begin(), result.addrs.end(),
                                  wide->addrs.begin(), wide->addrs.end()));
}

}  // namespace
}  // namespace dnsctx::resolver
