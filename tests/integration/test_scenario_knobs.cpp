// Integration tests for the scenario knobs that extend the paper:
// encrypted DNS transport, live whole-house forwarders, stratified
// profile assignment, dual-stack lookups and junk probes.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>

#include "analysis/study.hpp"
#include "scenario/scenario.hpp"

namespace dnsctx::scenario {
namespace {

[[nodiscard]] ScenarioConfig base_config(std::uint64_t seed = 77) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.houses = 10;
  cfg.duration = SimDuration::hours(2);
  cfg.zones.web_sites = 120;
  return cfg;
}

TEST(ScenarioKnobs, ProfileMixIsStratified) {
  ScenarioConfig cfg = base_config();
  cfg.houses = 40;
  Town town{cfg};
  std::map<std::string, int> counts;
  for (const auto& h : town.houses()) ++counts[h.profile];
  // Quotas hold exactly at any size (rounding aside).
  EXPECT_EQ(counts["isp_only"], 5);    // 0.12 * 40 ≈ 5
  EXPECT_EQ(counts["cloudflare"], 2);  // 0.045 * 40 ≈ 2
  EXPECT_EQ(counts["no_isp"], 2);      // 0.05 * 40 = 2
  EXPECT_EQ(counts["mixed"], 31);
}

TEST(ScenarioKnobs, AaaaLookupsAppearInTheDnsLog) {
  Town town{base_config()};
  town.run();
  std::size_t a = 0, aaaa = 0;
  for (const auto& d : town.dataset().dns) {
    if (d.qtype == dns::RrType::kA) ++a;
    if (d.qtype == dns::RrType::kAaaa) ++aaaa;
  }
  EXPECT_GT(aaaa, 0u);
  EXPECT_GT(a, aaaa);  // AAAA races only a fraction of fresh A queries
}

TEST(ScenarioKnobs, JunkProbesYieldNxDomain) {
  Town town{base_config()};
  town.run();
  std::size_t nxdomain = 0;
  for (const auto& d : town.dataset().dns) {
    if (d.answered && d.rcode == dns::Rcode::kNxDomain) ++nxdomain;
  }
  EXPECT_GT(nxdomain, 0u);  // Chromium-style interception probes
}

TEST(ScenarioKnobs, EncryptedDnsShrinksTheVisibleDnsLog) {
  Town plain{base_config(5)};
  plain.run();
  auto cfg = base_config(5);
  cfg.transport = netsim::Transport::kDoT;
  Town encrypted{cfg};
  encrypted.run();
  EXPECT_LT(encrypted.dataset().dns.size(), plain.dataset().dns.size() / 2);

  // The encrypted flows surface as port-853 connections instead.
  std::size_t port853 = 0;
  for (const auto& c : encrypted.dataset().conns) port853 += c.resp_port == 853 ? 1 : 0;
  EXPECT_GT(port853, 0u);
}

TEST(ScenarioKnobs, EncryptedDnsInflatesTheNClass) {
  auto cfg = base_config(5);
  cfg.transport = netsim::Transport::kDoT;
  Town town{cfg};
  town.run();
  const auto study = analysis::run_study(town.dataset());
  const auto& c = study.classified.counts;
  EXPECT_GT(c.share(c.n), 0.4);  // most conns lose their pairing
}

TEST(ScenarioKnobs, WholeHouseForwarderCollapsesDeviceLookups) {
  Town plain{base_config(9)};
  plain.run();
  auto cfg = base_config(9);
  cfg.whole_house_cache_frac = 1.0;
  Town cached{cfg};
  cached.run();
  // The router answers repeat lookups in-house: fewer visible DNS
  // transactions for the same traffic.
  EXPECT_LT(cached.dataset().dns.size(), plain.dataset().dns.size());
  // And resolution still works: the vast majority of lookups answered.
  std::size_t answered = 0;
  for (const auto& d : cached.dataset().dns) answered += d.answered ? 1 : 0;
  EXPECT_GT(static_cast<double>(answered) /
                static_cast<double>(cached.dataset().dns.size()),
            0.95);
}

TEST(ScenarioKnobs, ActivityScaleScalesTraffic) {
  Town slow{base_config(11)};
  slow.run();
  auto cfg = base_config(11);
  cfg.activity_scale = 2.0;
  Town fast{cfg};
  fast.run();
  EXPECT_GT(fast.dataset().conns.size(),
            static_cast<std::size_t>(1.3 * static_cast<double>(slow.dataset().conns.size())));
}

/// Seed-stability property: the headline shares must not be a lucky
/// seed. Across seeds the class shares stay within broad bands.
class SeedStabilityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStabilityTest, Table2SharesStayInBand) {
  ScenarioConfig cfg = base_config(GetParam());
  cfg.houses = 15;
  cfg.duration = SimDuration::hours(3);
  Town town{cfg};
  town.run();
  const auto study = analysis::run_study(town.dataset());
  const auto& c = study.classified.counts;
  EXPECT_NEAR(c.share(c.n), 0.075, 0.06);
  EXPECT_NEAR(c.share(c.lc), 0.44, 0.10);
  EXPECT_NEAR(c.share(c.sc) + c.share(c.r), 0.42, 0.10);
  const double no_block = 1.0 - c.share(c.blocked());
  EXPECT_GT(no_block, 0.45);
  EXPECT_LT(no_block, 0.75);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStabilityTest, ::testing::Values(101u, 202u, 303u));

TEST(ScenarioKnobs, BrokenProfileMixFailsAtBuildTime) {
  // Regression: probabilities that individually pass but jointly claim
  // more than the whole population used to produce a negative "mixed"
  // remainder and a nonsense stratification. The Town constructor must
  // refuse before building anything.
  ScenarioConfig cfg = base_config();
  cfg.mix.isp_only = 0.6;
  cfg.mix.cloudflare = 0.3;
  cfg.mix.no_isp = 0.2;  // sum 1.1 > 1.0
  EXPECT_THROW((Town{cfg}), std::runtime_error);

  cfg = base_config();
  cfg.mix.cloudflare = 1.2;  // single field out of [0, 1]
  EXPECT_THROW((Town{cfg}), std::runtime_error);

  cfg = base_config();
  cfg.mix.opendns_in_mixed = -0.1;
  EXPECT_THROW((Town{cfg}), std::runtime_error);

  // Exactly 1.0 is legal: a town with no mixed houses at all.
  cfg = base_config();
  cfg.houses = 4;
  cfg.mix.isp_only = 0.5;
  cfg.mix.cloudflare = 0.3;
  cfg.mix.no_isp = 0.2;
  EXPECT_NO_THROW((Town{cfg}));
}

TEST(ScenarioKnobs, BrokenTuningFailsAtBuildTime) {
  ScenarioConfig cfg = base_config();
  cfg.tuning.iot_min = 5;
  cfg.tuning.iot_max = 2;  // inverted range
  EXPECT_THROW((Town{cfg}), std::invalid_argument);

  cfg = base_config();
  cfg.tuning.computers_min = 0;  // every house needs a computer
  EXPECT_THROW((Town{cfg}), std::invalid_argument);

  cfg = base_config();
  cfg.tuning.background_poll_scale = 0.0;  // divides a poll period
  EXPECT_THROW((Town{cfg}), std::invalid_argument);

  cfg = base_config();
  cfg.tuning.prefetch_prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((Town{cfg}), std::invalid_argument);

  cfg = base_config();
  cfg.tuning.diurnal_hours.fill(0.0);  // would stall every app forever
  EXPECT_THROW((Town{cfg}), std::invalid_argument);
}

TEST(ScenarioKnobs, SingleDeviceHousesRun) {
  // The smallest legal population: one computer, nothing else. (Only
  // isp_only houses can be android-free, so pin the whole mix there.)
  // The traffic layer must not assume TVs/phones/IoT exist.
  ScenarioConfig cfg = base_config();
  cfg.houses = 3;
  cfg.duration = SimDuration::hours(1);
  cfg.mix.isp_only = 1.0;
  cfg.mix.cloudflare = 0.0;
  cfg.mix.no_isp = 0.0;
  cfg.tuning.computers_min = 1;
  cfg.tuning.computers_max = 1;
  cfg.tuning.computers_light = 1;
  cfg.tuning.android_extra_prob = 0.0;
  cfg.tuning.apple_prob = 0.0;
  cfg.tuning.apple_prob_light = 0.0;
  cfg.tuning.tv_prob = 0.0;
  cfg.tuning.tv_prob_light = 0.0;
  cfg.tuning.iot_min = 0;
  cfg.tuning.iot_max = 0;
  cfg.tuning.alarm_prob = 0.0;
  Town town{cfg};
  town.run();
  for (const auto& h : town.houses()) EXPECT_EQ(h.devices, 1u);
  EXPECT_FALSE(town.dataset().dns.empty());
}

}  // namespace
}  // namespace dnsctx::scenario
