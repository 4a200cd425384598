// Unit tests for the blocking heuristic / Fig 1 analysis.
#include <gtest/gtest.h>

#include "analysis/blocking.hpp"
#include "util/strings.hpp"

namespace dnsctx::analysis {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

/// Build a dataset with controlled DNS→conn gaps (ms). Every conn gets a
/// dedicated lookup so first_use is always true unless repeated.
[[nodiscard]] capture::Dataset dataset_with_gaps(const std::vector<double>& gaps_ms,
                                                 int conns_per_lookup = 1) {
  capture::Dataset ds;
  std::int64_t cursor_us = 0;
  int idx = 0;
  for (const double gap : gaps_ms) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>(idx / 200),
                          static_cast<std::uint8_t>(1 + idx % 200)};
    capture::DnsRecord d;
    d.ts = SimTime::from_us(cursor_us);
    d.duration = SimDuration::ms(2);
    d.client_ip = kHouse;
    d.resolver_ip = kResolver;
    d.query = strfmt("h%d.com", idx);
    d.answered = true;
    d.answers = {{server, 86'400}};
    ds.dns.push_back(d);
    for (int c = 0; c < conns_per_lookup; ++c) {
      capture::ConnRecord conn;
      conn.start = d.response_time() + SimDuration::from_ms(gap) +
                   SimDuration::ms(c);  // subsequent conns slightly later
      conn.orig_ip = kHouse;
      conn.resp_ip = server;
      conn.orig_port = 10'000;
      conn.resp_port = 443;
      ds.conns.push_back(conn);
    }
    cursor_us += 60'000'000;  // lookups a minute apart
    ++idx;
  }
  std::sort(ds.conns.begin(), ds.conns.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  return ds;
}

TEST(Blocking, GapDistributionMatchesInput) {
  const auto ds = dataset_with_gaps({1.0, 5.0, 10.0, 5'000.0});
  const auto pairing = pair_connections(ds);
  const auto blocking = analyze_blocking(ds, pairing);
  EXPECT_EQ(blocking.gap_ms.count(), 4u);
  EXPECT_NEAR(blocking.gap_ms.min(), 1.0, 0.01);
  EXPECT_NEAR(blocking.gap_ms.max(), 5'000.0, 0.01);
}

TEST(Blocking, KneeDetectedBetweenBimodalModes) {
  // 60% of gaps around 2-10 ms, 40% around 10-1000 s.
  std::vector<double> gaps;
  for (int i = 0; i < 300; ++i) gaps.push_back(2.0 + (i % 9));
  for (int i = 0; i < 200; ++i) gaps.push_back(10'000.0 + i * 4'000.0);
  const auto ds = dataset_with_gaps(gaps);
  const auto pairing = pair_connections(ds);
  const auto blocking = analyze_blocking(ds, pairing);
  EXPECT_GT(blocking.knee_ms, 10.0);
  EXPECT_LT(blocking.knee_ms, 2'000.0);
}

TEST(Blocking, FirstUseSplitsAroundProbe) {
  // Blocked conns (small gap) are first users; a later conn re-uses.
  const auto ds = dataset_with_gaps({2.0, 3.0, 4.0, 300'000.0}, /*conns_per_lookup=*/2);
  const auto pairing = pair_connections(ds);
  const auto blocking = analyze_blocking(ds, pairing);
  // Below 20 ms: pairs of conns 1 ms apart — half are first use.
  EXPECT_NEAR(blocking.first_use_frac_below, 0.5, 0.01);
  EXPECT_NEAR(blocking.first_use_frac_above, 0.5, 0.01);
}

TEST(Blocking, FractionWithinThreshold) {
  const auto ds = dataset_with_gaps({10.0, 50.0, 150.0, 500.0});
  const auto pairing = pair_connections(ds);
  const auto blocking = analyze_blocking(ds, pairing);
  EXPECT_DOUBLE_EQ(blocking.frac_within_ms(100.0), 0.5);
}

TEST(Blocking, EmptyDatasetIsSafe) {
  const capture::Dataset ds;
  const auto pairing = pair_connections(ds);
  const auto blocking = analyze_blocking(ds, pairing);
  EXPECT_TRUE(blocking.gap_ms.empty());
  EXPECT_EQ(blocking.knee_ms, 0.0);
}

TEST(Blocking, ThresholdConstantMatchesPaper) {
  EXPECT_EQ(kBlockedThreshold, SimDuration::ms(100));
}

}  // namespace
}  // namespace dnsctx::analysis
