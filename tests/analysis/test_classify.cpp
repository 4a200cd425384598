// Unit tests for the five-way taxonomy and per-resolver thresholds.
#include <gtest/gtest.h>

#include "analysis/classify.hpp"
#include "util/strings.hpp"

namespace dnsctx::analysis {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kFastResolver{100, 66, 250, 1};
constexpr Ipv4Addr kRareResolver{203, 0, 113, 1};

struct Builder {
  capture::Dataset ds;
  int next_server = 0;
  std::int64_t cursor_ms = 0;

  /// Add a lookup and one conn at `gap_ms` after it; returns conn index.
  std::size_t add(double lookup_ms, double gap_ms, Ipv4Addr resolver = kFastResolver,
                  std::uint32_t ttl = 86'400, int extra_conns = 0) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>(next_server / 200),
                          static_cast<std::uint8_t>(1 + next_server % 200)};
    ++next_server;
    capture::DnsRecord d;
    d.ts = SimTime::origin() + SimDuration::ms(cursor_ms);
    d.duration = SimDuration::from_ms(lookup_ms);
    d.client_ip = kHouse;
    d.resolver_ip = resolver;
    d.query = strfmt("n%d.com", next_server);
    d.answered = true;
    d.answers = {{server, ttl}};
    ds.dns.push_back(d);
    const std::size_t first_conn = ds.conns.size();
    for (int i = 0; i <= extra_conns; ++i) {
      capture::ConnRecord c;
      c.start = d.response_time() + SimDuration::from_ms(gap_ms + i * 400.0);
      c.duration = SimDuration::sec(2);
      c.orig_ip = kHouse;
      c.resp_ip = server;
      c.orig_port = 10'000;
      c.resp_port = 443;
      ds.conns.push_back(c);
    }
    cursor_ms += 120'000;
    return first_conn;
  }

  void add_unpaired_conn() {
    capture::ConnRecord c;
    c.start = SimTime::origin() + SimDuration::ms(cursor_ms);
    c.orig_ip = kHouse;
    c.resp_ip = Ipv4Addr{66, 66, 66, 66};
    c.orig_port = 50'000;
    c.resp_port = 51'413;
    ds.conns.push_back(c);
    cursor_ms += 1'000;
  }

  /// Sort conns by start (dataset invariant) and classify.
  [[nodiscard]] Classified run(ClassifyConfig cfg = fast_cfg()) {
    std::sort(ds.conns.begin(), ds.conns.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    pairing = pair_connections(ds);
    return classify_connections(ds, pairing, cfg);
  }

  [[nodiscard]] static ClassifyConfig fast_cfg() {
    ClassifyConfig cfg;
    cfg.per_resolver_min_lookups = 4;  // tiny datasets
    return cfg;
  }

  PairingResult pairing;
};

TEST(Classify, UnpairedIsN) {
  Builder b;
  b.add_unpaired_conn();
  const auto out = b.run();
  EXPECT_EQ(out.classes[0], ConnClass::kN);
  EXPECT_EQ(out.counts.n, 1u);
}

TEST(Classify, BlockedFastLookupIsSC) {
  Builder b;
  for (int i = 0; i < 6; ++i) b.add(2.0, 5.0);  // fast lookups, blocked conns
  const auto out = b.run();
  EXPECT_EQ(out.counts.sc, 6u);
  EXPECT_EQ(out.counts.r, 0u);
}

TEST(Classify, BlockedSlowLookupIsR) {
  Builder b;
  for (int i = 0; i < 6; ++i) b.add(2.0, 5.0);   // establish the 2 ms mode
  const auto idx = b.add(80.0, 5.0);             // slow lookup, blocked
  const auto out = b.run();
  EXPECT_EQ(out.classes[idx], ConnClass::kR);
  EXPECT_EQ(out.counts.r, 1u);
}

TEST(Classify, LateFirstUseIsP) {
  Builder b;
  const auto idx = b.add(2.0, 5'000.0);  // used 5 s after the lookup, first use
  const auto out = b.run();
  EXPECT_EQ(out.classes[idx], ConnClass::kP);
}

TEST(Classify, LateRepeatUseIsLC) {
  Builder b;
  const auto idx = b.add(2.0, 1'000.0, kFastResolver, 86'400, /*extra_conns=*/1);
  const auto out = b.run();
  EXPECT_EQ(out.classes[idx], ConnClass::kP);       // first use
  EXPECT_EQ(out.classes[idx + 1], ConnClass::kLC);  // repeat
  EXPECT_EQ(out.counts.lc, 1u);
  EXPECT_EQ(out.counts.p, 1u);
}

TEST(Classify, BoundaryGapExactlyAtThresholdIsBlocked) {
  Builder b;
  for (int i = 0; i < 6; ++i) b.add(2.0, 100.0);  // gap == 100 ms
  const auto out = b.run();
  EXPECT_EQ(out.counts.blocked(), 6u);  // > threshold is required for LC/P
}

TEST(Classify, ExpiredPairingsCounted) {
  Builder b;
  // TTL 1 s, used 5 s later: expired LC/P territory.
  const auto p_idx = b.add(2.0, 5'000.0, kFastResolver, 1);
  const auto lc_first = b.add(2.0, 5'000.0, kFastResolver, 1, /*extra_conns=*/1);
  const auto out = b.run();
  EXPECT_EQ(out.classes[p_idx], ConnClass::kP);
  EXPECT_EQ(out.p_expired, 2u);  // both first-uses were past TTL
  EXPECT_EQ(out.classes[lc_first + 1], ConnClass::kLC);
  EXPECT_EQ(out.lc_expired, 1u);
  EXPECT_GT(out.lc_expired_frac(), 0.99);
}

TEST(Classify, GapCdfsPopulated) {
  Builder b;
  b.add(2.0, 30'000.0, kFastResolver, 86'400, /*extra_conns=*/1);
  const auto out = b.run();
  ASSERT_FALSE(out.p_gap_sec.empty());
  EXPECT_NEAR(out.p_gap_sec.median(), 30.0, 0.1);
  ASSERT_FALSE(out.lc_gap_sec.empty());
  EXPECT_NEAR(out.lc_gap_sec.median(), 30.4, 0.1);
}

TEST(Classify, CountsSumToTotal) {
  Builder b;
  b.add_unpaired_conn();
  b.add(2.0, 5.0);
  b.add(60.0, 5.0);
  b.add(2.0, 9'000.0);
  b.add(2.0, 2'000.0, kFastResolver, 86'400, 1);
  const auto out = b.run();
  EXPECT_EQ(out.counts.total(), b.ds.conns.size());
  EXPECT_EQ(out.counts.total(),
            out.counts.n + out.counts.lc + out.counts.p + out.counts.sc + out.counts.r);
}

TEST(ResolverThresholds, DerivedFromCacheHitMode) {
  Builder b;
  // 20 fast lookups at ~2 ms and a few slow ones at 60–80 ms.
  for (int i = 0; i < 20; ++i) b.add(2.0 + 0.1 * i, 5.0);
  for (int i = 0; i < 4; ++i) b.add(60.0 + 5 * i, 5.0);
  std::sort(b.ds.conns.begin(), b.ds.conns.end(),
            [](const auto& x, const auto& y) { return x.start < y.start; });
  ClassifyConfig cfg;
  cfg.per_resolver_min_lookups = 10;
  const auto thresholds = derive_resolver_thresholds(b.ds, cfg);
  ASSERT_TRUE(thresholds.contains(kFastResolver));
  const double t = thresholds.at(kFastResolver);
  EXPECT_GE(t, 4.0);   // mode ~2 ms + margin
  EXPECT_LE(t, 10.0);  // but nowhere near the slow tail
}

TEST(ResolverThresholds, RareResolversFallBackToDefault) {
  Builder b;
  for (int i = 0; i < 6; ++i) b.add(2.0, 5.0);
  const auto blocked_idx = b.add(30.0, 5.0, kRareResolver);  // only lookup to this resolver
  ClassifyConfig cfg;
  cfg.per_resolver_min_lookups = 5;
  cfg.default_threshold_ms = 5.0;
  const auto out = b.run(cfg);
  EXPECT_FALSE(out.resolver_threshold_ms.contains(kRareResolver));
  EXPECT_EQ(out.classes[blocked_idx], ConnClass::kR);  // 30 ms > default 5 ms
}

TEST(ResolverThresholds, HigherRttResolverGetsHigherThreshold) {
  Builder b;
  for (int i = 0; i < 12; ++i) b.add(2.0, 5.0, kFastResolver);
  for (int i = 0; i < 12; ++i) b.add(20.0, 5.0, kRareResolver);
  std::sort(b.ds.conns.begin(), b.ds.conns.end(),
            [](const auto& x, const auto& y) { return x.start < y.start; });
  ClassifyConfig cfg;
  cfg.per_resolver_min_lookups = 10;
  const auto thresholds = derive_resolver_thresholds(b.ds, cfg);
  ASSERT_TRUE(thresholds.contains(kFastResolver));
  ASSERT_TRUE(thresholds.contains(kRareResolver));
  EXPECT_GT(thresholds.at(kRareResolver), thresholds.at(kFastResolver));
}

TEST(Classify, SharedCacheHitRate) {
  ClassCounts c;
  c.sc = 60;
  c.r = 40;
  EXPECT_DOUBLE_EQ(c.shared_cache_hit_rate(), 0.6);
  EXPECT_EQ(c.blocked(), 100u);
}

TEST(Classify, ClassNames) {
  EXPECT_EQ(to_string(ConnClass::kN), "N");
  EXPECT_EQ(to_string(ConnClass::kLC), "LC");
  EXPECT_EQ(to_string(ConnClass::kP), "P");
  EXPECT_EQ(to_string(ConnClass::kSC), "SC");
  EXPECT_EQ(to_string(ConnClass::kR), "R");
}

/// Property (paper footnote 5): enlarging the blocked threshold can only
/// move connections from LC/P into the blocked classes — the bigger the
/// threshold, the more important DNS appears.
class ThresholdSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweepTest, BlockedShareIsMonotoneInThreshold) {
  Builder b;
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int i = 0; i < 120; ++i) {
    b.add(2.0 + rng.uniform() * 40.0, rng.uniform() * 400.0, kFastResolver, 86'400,
          rng.bernoulli(0.3) ? 1 : 0);
  }
  std::sort(b.ds.conns.begin(), b.ds.conns.end(),
            [](const auto& x, const auto& y) { return x.start < y.start; });
  const auto pairing = pair_connections(b.ds);
  std::uint64_t prev_blocked = 0;
  for (const int threshold_ms : {20, 50, 100, 250, 500}) {
    ClassifyConfig cfg;
    cfg.per_resolver_min_lookups = 10;
    cfg.blocked_threshold = SimDuration::ms(threshold_ms);
    const auto out = classify_connections(b.ds, pairing, cfg);
    EXPECT_GE(out.counts.blocked(), prev_blocked);
    prev_blocked = out.counts.blocked();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdSweepTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace dnsctx::analysis
