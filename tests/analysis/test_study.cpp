// Unit tests for the run_study convenience pipeline and its config.
#include <gtest/gtest.h>

#include "analysis/study.hpp"
#include "util/strings.hpp"

namespace dnsctx::analysis {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

[[nodiscard]] capture::Dataset tiny_dataset() {
  capture::Dataset ds;
  for (int i = 0; i < 30; ++i) {
    const Ipv4Addr server{34, 1, 1, static_cast<std::uint8_t>(1 + i)};
    capture::DnsRecord d;
    d.ts = SimTime::origin() + SimDuration::sec(i * 60);
    d.duration = SimDuration::from_ms(i % 2 ? 2.0 : 50.0);
    d.client_ip = kHouse;
    d.resolver_ip = kResolver;
    d.query = strfmt("n%d.com", i);
    d.answered = true;
    d.answers = {{server, 600}};
    ds.dns.push_back(d);
    capture::ConnRecord c;
    c.start = d.response_time() + SimDuration::ms(5);
    c.duration = SimDuration::sec(2);
    c.orig_ip = kHouse;
    c.resp_ip = server;
    c.orig_port = 10'000;
    c.resp_port = 443;
    ds.conns.push_back(c);
  }
  return ds;
}

TEST(Study, DefaultRunPopulatesEverySection) {
  const auto ds = tiny_dataset();
  const Study s = run_study(ds);
  EXPECT_EQ(s.pairing.conns.size(), ds.conns.size());
  EXPECT_EQ(s.classified.classes.size(), ds.conns.size());
  EXPECT_FALSE(s.blocking.gap_ms.empty());
  EXPECT_FALSE(s.table1.empty());
  EXPECT_FALSE(s.platforms.empty());
  EXPECT_EQ(s.classified.counts.total(), ds.conns.size());
}

TEST(Study, CustomSignificanceCriteriaPropagate) {
  const auto ds = tiny_dataset();
  StudyConfig cfg;
  cfg.abs_significance_ms = 1'000.0;  // everything is "fast"
  cfg.rel_significance_pct = 99.0;    // nothing contributes much
  const Study s = run_study(ds, cfg);
  EXPECT_DOUBLE_EQ(s.performance.significant_both, 0.0);
  EXPECT_DOUBLE_EQ(s.performance.insignificant_both, 1.0);
}

TEST(Study, CustomClassifyConfigPropagates) {
  const auto ds = tiny_dataset();
  StudyConfig strict;
  strict.classify.blocked_threshold = SimDuration::us(1);  // nothing is blocked
  const Study s = run_study(ds, strict);
  EXPECT_EQ(s.classified.counts.blocked(), 0u);
  EXPECT_EQ(s.classified.counts.p, ds.conns.size());  // all first-use, all late
}

TEST(Study, CustomDirectoryRelabelsPlatforms) {
  const auto ds = tiny_dataset();
  StudyConfig cfg;
  PlatformDirectory dir;
  dir.add(kResolver, "MyResolver");
  cfg.directory = dir;
  const Study s = run_study(ds, cfg);
  ASSERT_FALSE(s.table1.empty());
  EXPECT_EQ(s.table1[0].platform, "MyResolver");
}

TEST(Study, RandomPairingPolicyRuns) {
  const auto ds = tiny_dataset();
  StudyConfig cfg;
  cfg.pairing_policy = PairingPolicy::kRandom;
  cfg.pairing_seed = 3;
  const Study s = run_study(ds, cfg);
  EXPECT_EQ(s.pairing.paired, ds.conns.size());
}

TEST(Study, EmptyDatasetYieldsEmptyStudy) {
  const capture::Dataset ds;
  const Study s = run_study(ds);
  EXPECT_EQ(s.classified.counts.total(), 0u);
  EXPECT_TRUE(s.table1.empty());
  EXPECT_TRUE(s.platforms.empty());
  EXPECT_EQ(s.isp_only_houses, 0.0);
}

}  // namespace
}  // namespace dnsctx::analysis
