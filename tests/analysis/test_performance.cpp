// Unit tests for §6 performance analysis (Fig 2 + significance quadrants).
#include <gtest/gtest.h>

#include "analysis/performance.hpp"
#include "util/strings.hpp"

namespace dnsctx::analysis {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

struct Case {
  double lookup_ms;
  double conn_sec;
};

/// Build a dataset of blocked connections with given (D, A) pairs; all
/// become SC or R depending on lookup duration vs the derived threshold.
[[nodiscard]] capture::Dataset build(const std::vector<Case>& cases) {
  capture::Dataset ds;
  std::int64_t cursor_ms = 0;
  int idx = 0;
  for (const auto& c : cases) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>(idx / 200),
                          static_cast<std::uint8_t>(1 + idx % 200)};
    capture::DnsRecord d;
    d.ts = SimTime::origin() + SimDuration::ms(cursor_ms);
    d.duration = SimDuration::from_ms(c.lookup_ms);
    d.client_ip = kHouse;
    d.resolver_ip = kResolver;
    d.query = strfmt("q%d.com", idx);
    d.answered = true;
    d.answers = {{server, 86'400}};
    ds.dns.push_back(d);
    capture::ConnRecord conn;
    conn.start = d.response_time() + SimDuration::ms(5);  // blocked
    conn.duration = SimDuration::from_sec(c.conn_sec);
    conn.orig_ip = kHouse;
    conn.resp_ip = server;
    conn.orig_port = 10'000;
    conn.resp_port = 443;
    conn.resp_bytes = 1'000;
    ds.conns.push_back(conn);
    cursor_ms += 60'000;
    ++idx;
  }
  return ds;
}

[[nodiscard]] PerformanceAnalysis analyze(const capture::Dataset& ds) {
  const auto pairing = pair_connections(ds);
  ClassifyConfig cfg;
  cfg.per_resolver_min_lookups = 1'000'000;  // always use the 5 ms default
  const auto classified = classify_connections(ds, pairing, cfg);
  return analyze_performance(ds, pairing, classified);
}

TEST(Performance, QuadrantAssignment) {
  // D=2ms,A=10s → insignificant. D=2ms,A=0.1s → relative only (2/102=2%).
  // D=50ms,A=60s → absolute only. D=50ms,A=1s → significant.
  const auto ds = build({{2.0, 10.0}, {2.0, 0.1}, {50.0, 60.0}, {50.0, 1.0}});
  const auto perf = analyze(ds);
  EXPECT_DOUBLE_EQ(perf.insignificant_both, 0.25);
  EXPECT_DOUBLE_EQ(perf.relative_only, 0.25);
  EXPECT_DOUBLE_EQ(perf.absolute_only, 0.25);
  EXPECT_DOUBLE_EQ(perf.significant_both, 0.25);
  EXPECT_DOUBLE_EQ(perf.significant_overall, 0.25);
}

TEST(Performance, QuadrantsSumToOne) {
  std::vector<Case> cases;
  Rng rng{3};
  for (int i = 0; i < 200; ++i) {
    cases.push_back(Case{rng.uniform(0.5, 200.0), rng.uniform(0.05, 120.0)});
  }
  const auto perf = analyze(build(cases));
  EXPECT_NEAR(perf.insignificant_both + perf.relative_only + perf.absolute_only +
                  perf.significant_both,
              1.0, 1e-9);
}

TEST(Performance, ContributionFormula) {
  // D = 1000 ms, A = 9 s → contribution = 10%.
  const auto perf = analyze(build({{1'000.0, 9.0}}));
  ASSERT_EQ(perf.contrib_all.count(), 1u);
  EXPECT_NEAR(perf.contrib_all.max(), 10.0, 1e-9);
}

TEST(Performance, LookupCdfSplitsByClass) {
  // Default threshold is 5 ms: 2 ms → SC, 50 ms → R.
  const auto perf = analyze(build({{2.0, 10.0}, {50.0, 10.0}}));
  EXPECT_EQ(perf.lookup_ms_sc.count(), 1u);
  EXPECT_EQ(perf.lookup_ms_r.count(), 1u);
  EXPECT_EQ(perf.lookup_ms_all.count(), 2u);
  EXPECT_NEAR(perf.lookup_ms_sc.max(), 2.0, 1e-9);
  EXPECT_NEAR(perf.lookup_ms_r.min(), 50.0, 1e-9);
}

TEST(Performance, FractionHelpers) {
  const auto perf = analyze(build({{2.0, 10.0}, {30.0, 10.0}, {150.0, 10.0}}));
  EXPECT_NEAR(perf.frac_lookup_over_ms(100.0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(perf.frac_lookup_over_ms(20.0), 2.0 / 3.0, 1e-9);
}

TEST(Performance, NonBlockedConnectionsExcluded) {
  auto ds = build({{2.0, 10.0}});
  // Add an LC-style conn far after its lookup: must not appear in Fig 2.
  capture::DnsRecord d = ds.dns[0];
  d.ts = SimTime::origin() + SimDuration::sec(600);
  d.query = "other.com";
  d.answers = {{Ipv4Addr{35, 1, 1, 1}, 86'400}};
  ds.dns.push_back(d);
  capture::ConnRecord late;
  late.start = d.response_time() + SimDuration::sec(30);
  late.duration = SimDuration::sec(1);
  late.orig_ip = kHouse;
  late.resp_ip = Ipv4Addr{35, 1, 1, 1};
  late.orig_port = 10'000;
  late.resp_port = 443;
  ds.conns.push_back(late);
  const auto perf = analyze(ds);
  EXPECT_EQ(perf.lookup_ms_all.count(), 1u);
}

TEST(Performance, CustomCriteria) {
  const auto ds = build({{30.0, 10.0}});
  const auto pairing = pair_connections(ds);
  ClassifyConfig ccfg;
  ccfg.per_resolver_min_lookups = 1'000'000;
  const auto classified = classify_connections(ds, pairing, ccfg);
  // With a 50 ms absolute criterion this lookup becomes insignificant.
  const auto perf = analyze_performance(ds, pairing, classified, 50.0, 1.0);
  EXPECT_DOUBLE_EQ(perf.insignificant_both, 1.0);
}

TEST(Performance, EmptyDatasetSafe) {
  const capture::Dataset ds;
  const auto pairing = pair_connections(ds);
  const auto classified = classify_connections(ds, pairing);
  const auto perf = analyze_performance(ds, pairing, classified);
  EXPECT_TRUE(perf.lookup_ms_all.empty());
  EXPECT_EQ(perf.significant_overall, 0.0);
}

}  // namespace
}  // namespace dnsctx::analysis
