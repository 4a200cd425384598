// Unit tests for the whole-house caching forwarder (§8 live component).
#include <gtest/gtest.h>

#include "dns/codec.hpp"
#include "resolver/forwarder.hpp"
#include "resolver/recursive.hpp"

namespace dnsctx::resolver {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 3, 1};
constexpr Ipv4Addr kDevice{192, 168, 1, 10};
constexpr Ipv4Addr kDevice2{192, 168, 1, 11};
constexpr Ipv4Addr kForwarderIp{192, 168, 1, 253};
constexpr Ipv4Addr kUpstream{100, 66, 250, 1};

struct DeviceProbe : netsim::Host {
  std::vector<dns::DnsMessage> responses;
  void receive(const netsim::Packet& p) override {
    if (p.dns.empty()) return;
    const dns::DnsMessage* msg = p.dns.message();
    ASSERT_TRUE(msg != nullptr);
    if (msg->flags.qr) responses.push_back(*msg);
  }
};

class ForwarderTest : public ::testing::Test {
 protected:
  ForwarderTest()
      : net{sim, make_latency(), 3},
        gateway{sim, net, kHouse, 11, SimDuration::from_ms(0.2)},
        zones{make_zone_config()},
        platform{sim, net, zones, platform_config(), 13},
        forwarder{sim, gateway, kForwarderIp, dns::CacheConfig{}} {
    gateway.attach_device(kDevice, &probe);
    gateway.attach_device(kDevice2, &probe2);
  }

  static netsim::LatencyModel make_latency() {
    netsim::LatencyModel lat;
    lat.set_site(kHouse, {SimDuration::from_ms(0.5), 0.0});
    lat.set_site(kUpstream, {SimDuration::from_ms(0.5), 0.0});
    return lat;
  }

  static ZoneDbConfig make_zone_config() {
    ZoneDbConfig cfg;
    cfg.seed = 4;
    cfg.web_sites = 10;
    cfg.cdn_domains = 2;
    cfg.ad_domains = 2;
    cfg.tracker_domains = 2;
    cfg.api_domains = 2;
    cfg.video_sites = 2;
    cfg.other_names = 2;
    return cfg;
  }

  static PlatformConfig platform_config() {
    PlatformConfig cfg;
    cfg.name = "Local";
    cfg.addrs = {kUpstream};
    cfg.site = {SimDuration::from_ms(0.5), 0.0};
    cfg.slow_tail_prob = 0.0;
    return cfg;
  }

  void device_query(Ipv4Addr device, const dns::DomainName& name, std::uint16_t txid,
                    std::uint16_t sport = 20'000) {
    netsim::Packet p;
    p.src_ip = device;
    p.dst_ip = kUpstream;
    p.src_port = sport;
    p.dst_port = 53;
    p.proto = Proto::kUdp;
    p.dns = dns::DnsPayload::from_message(dns::DnsMessage::query(txid, name));
    gateway.from_device(std::move(p));
  }

  [[nodiscard]] const dns::DomainName& some_name() {
    return zones.record(zones.ids_of(ServiceClass::kWebOrigin)[0]).name;
  }

  netsim::Simulator sim;
  netsim::Network net;
  netsim::HouseGateway gateway;
  ZoneDb zones;
  RecursiveResolverPlatform platform;
  WholeHouseForwarder forwarder;
  DeviceProbe probe;
  DeviceProbe probe2;
};

TEST_F(ForwarderTest, FirstQueryRelaysUpstream) {
  device_query(kDevice, some_name(), 1);
  sim.run_to_completion();
  ASSERT_EQ(probe.responses.size(), 1u);
  EXPECT_EQ(probe.responses[0].id, 1);  // original txid restored
  EXPECT_FALSE(probe.responses[0].answers.empty());
  EXPECT_EQ(forwarder.upstream_queries(), 1u);
  EXPECT_EQ(platform.stats().queries, 1u);
}

TEST_F(ForwarderTest, SecondDeviceIsServedFromHouseCache) {
  device_query(kDevice, some_name(), 1);
  sim.run_to_completion();
  device_query(kDevice2, some_name(), 2, 21'000);
  sim.run_to_completion();
  ASSERT_EQ(probe2.responses.size(), 1u);
  EXPECT_EQ(forwarder.upstream_queries(), 1u);  // no extra upstream traffic
  EXPECT_EQ(platform.stats().queries, 1u);
  EXPECT_EQ(forwarder.cache_stats().hits, 1u);
}

TEST_F(ForwarderTest, CacheRespectsTtl) {
  device_query(kDevice, some_name(), 1);
  sim.run_to_completion();
  const auto ttl = zones.record(zones.ids_of(ServiceClass::kWebOrigin)[0]).ttl_sec;
  sim.run_until(sim.now() + SimDuration::sec(ttl + 1));
  device_query(kDevice, some_name(), 2);
  sim.run_to_completion();
  EXPECT_EQ(forwarder.upstream_queries(), 2u);
}

TEST_F(ForwarderTest, ServedTtlDecaysFromHouseCache) {
  device_query(kDevice, some_name(), 1);
  sim.run_to_completion();
  const auto first_ttl = probe.responses[0].answers[0].ttl;
  sim.run_until(sim.now() + SimDuration::sec(20));
  device_query(kDevice, some_name(), 2);
  sim.run_to_completion();
  ASSERT_EQ(probe.responses.size(), 2u);
  EXPECT_LE(probe.responses[1].answers[0].ttl, first_ttl - 19);
}

TEST_F(ForwarderTest, AnswersAppearToComeFromQueriedResolver) {
  device_query(kDevice, some_name(), 1);
  sim.run_to_completion();
  device_query(kDevice2, some_name(), 9, 21'000);
  sim.run_to_completion();
  // Both paths produced well-formed responses matched by txid; the
  // cached answer spoofs the upstream resolver address, which the
  // devices' stub anti-spoofing accepts by construction.
  ASSERT_EQ(probe2.responses.size(), 1u);
  EXPECT_EQ(probe2.responses[0].id, 9);
}

TEST_F(ForwarderTest, NonDnsTrafficPassesThrough) {
  netsim::Packet p;
  p.src_ip = kDevice;
  p.dst_ip = Ipv4Addr{34, 1, 1, 1};
  p.src_port = 10'000;
  p.dst_port = 443;
  p.proto = Proto::kTcp;
  p.tcp.syn = true;
  gateway.from_device(std::move(p));
  sim.run_to_completion();
  EXPECT_EQ(forwarder.upstream_queries(), 0u);
}

}  // namespace
}  // namespace dnsctx::resolver
