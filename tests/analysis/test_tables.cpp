// Unit tests for Table 1 construction and the platform directory.
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "analysis/resolvers.hpp"
#include "analysis/tables.hpp"
#include "resolver/recursive.hpp"

namespace dnsctx::analysis {
namespace {

using resolver::well_known::kCloudflare1;
using resolver::well_known::kGoogle1;
using resolver::well_known::kIspResolver1;
using resolver::well_known::kIspResolver2;

constexpr Ipv4Addr kHouseA{100, 66, 1, 1};
constexpr Ipv4Addr kHouseB{100, 66, 1, 2};
constexpr Ipv4Addr kServer{34, 1, 1, 1};

[[nodiscard]] capture::DnsRecord lookup(Ipv4Addr house, Ipv4Addr resolver, std::int64_t ms,
                                        const char* query = "a.com",
                                        Ipv4Addr answer = kServer) {
  capture::DnsRecord d;
  d.ts = SimTime::origin() + SimDuration::ms(ms);
  d.duration = SimDuration::ms(2);
  d.client_ip = house;
  d.resolver_ip = resolver;
  d.query = query;
  d.answered = true;
  d.answers = {{answer, 3'600}};
  return d;
}

[[nodiscard]] capture::ConnRecord conn(Ipv4Addr house, Ipv4Addr server, std::int64_t ms,
                                       std::uint64_t bytes) {
  capture::ConnRecord c;
  c.start = SimTime::origin() + SimDuration::ms(ms);
  c.duration = SimDuration::sec(1);
  c.orig_ip = house;
  c.resp_ip = server;
  c.orig_port = 10'000;
  c.resp_port = 443;
  c.resp_bytes = bytes;
  return c;
}

TEST(PlatformDirectory, StandardMapping) {
  const auto dir = PlatformDirectory::standard();
  EXPECT_EQ(dir.label(kIspResolver1), "Local");
  EXPECT_EQ(dir.label(kIspResolver2), "Local");
  EXPECT_EQ(dir.label(kGoogle1), "Google");
  EXPECT_EQ(dir.label(kCloudflare1), "Cloudflare");
  EXPECT_EQ(dir.label(Ipv4Addr{9, 9, 9, 9}), "other");
  ASSERT_EQ(dir.platforms().size(), 4u);
  EXPECT_EQ(dir.platforms()[0], "Local");
}

TEST(PlatformDirectory, CustomAdditions) {
  PlatformDirectory dir;
  dir.add(Ipv4Addr{9, 9, 9, 9}, "Quad9");
  dir.add(Ipv4Addr{149, 112, 112, 112}, "Quad9");
  EXPECT_EQ(dir.label(Ipv4Addr{9, 9, 9, 9}), "Quad9");
  EXPECT_EQ(dir.platforms().size(), 1u);
}

TEST(Table1, SharesComputedPerPlatform) {
  capture::Dataset ds;
  // House A: 3 Local lookups; House B: 1 Local, 1 Google (distinct names
  // and addresses keep the pairing unambiguous).
  const Ipv4Addr server2{34, 1, 1, 2};
  ds.dns.push_back(lookup(kHouseA, kIspResolver1, 0));
  ds.dns.push_back(lookup(kHouseA, kIspResolver1, 100));
  ds.dns.push_back(lookup(kHouseA, kIspResolver2, 200));
  ds.dns.push_back(lookup(kHouseB, kIspResolver1, 300));
  ds.dns.push_back(lookup(kHouseB, kGoogle1, 400, "g.com", server2));
  // Conns: A→server (Local pairing, 1000 bytes), B→server2 (Google, 3000).
  ds.conns.push_back(conn(kHouseA, kServer, 500, 1'000));
  ds.conns.push_back(conn(kHouseB, server2, 600, 3'000));
  const auto pairing = pair_connections(ds);
  const auto rows = build_table1(ds, pairing, PlatformDirectory::standard(), 0.0);

  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].platform, "Local");
  EXPECT_DOUBLE_EQ(rows[0].pct_houses, 100.0);  // both houses used Local
  EXPECT_DOUBLE_EQ(rows[0].pct_lookups, 80.0);
  EXPECT_DOUBLE_EQ(rows[0].pct_conns, 50.0);
  EXPECT_DOUBLE_EQ(rows[0].pct_bytes, 25.0);
  EXPECT_EQ(rows[1].platform, "Google");
  EXPECT_DOUBLE_EQ(rows[1].pct_houses, 50.0);
  EXPECT_DOUBLE_EQ(rows[1].pct_lookups, 20.0);
  EXPECT_DOUBLE_EQ(rows[1].pct_bytes, 75.0);
}

TEST(Table1, MinShareFoldsRarePlatforms) {
  capture::Dataset ds;
  for (int i = 0; i < 99; ++i) {
    ds.dns.push_back(lookup(kHouseA, kIspResolver1, i * 10));
  }
  ds.dns.push_back(lookup(kHouseA, kCloudflare1, 2'000));
  const auto pairing = pair_connections(ds);
  const auto rows = build_table1(ds, pairing, PlatformDirectory::standard(), 0.05);
  ASSERT_EQ(rows.size(), 1u);  // Cloudflare at 1% < 5% cut
  EXPECT_EQ(rows[0].platform, "Local");
}

TEST(Table1, IspOnlyHouseFraction) {
  capture::Dataset ds;
  ds.dns.push_back(lookup(kHouseA, kIspResolver1, 0));
  ds.dns.push_back(lookup(kHouseA, kIspResolver2, 10));
  ds.dns.push_back(lookup(kHouseB, kIspResolver1, 20));
  ds.dns.push_back(lookup(kHouseB, kGoogle1, 30));
  const auto dir = PlatformDirectory::standard();
  EXPECT_DOUBLE_EQ(isp_only_house_frac(ds, dir), 0.5);
}

TEST(Table1, EmptyDataset) {
  const capture::Dataset ds;
  const auto pairing = pair_connections(ds);
  EXPECT_TRUE(build_table1(ds, pairing, PlatformDirectory::standard()).empty());
  EXPECT_EQ(isp_only_house_frac(ds, PlatformDirectory::standard()), 0.0);
}

TEST(PlatformPerf, ConnCheckShareIsolated) {
  capture::Dataset ds;
  const Ipv4Addr cc_server{142, 250, 1, 1};
  // Two Google-paired conns: one conncheck, one regular.
  ds.dns.push_back(
      lookup(kHouseA, kGoogle1, 0, "connectivitycheck.gstatic.com", cc_server));
  ds.dns.push_back(lookup(kHouseA, kGoogle1, 10'000, "g.com", kServer));
  ds.conns.push_back(conn(kHouseA, cc_server, 5, 100));       // blocked conncheck
  ds.conns.push_back(conn(kHouseA, kServer, 10'005, 50'000)); // blocked regular
  const auto pairing = pair_connections(ds);
  ClassifyConfig cfg;
  cfg.per_resolver_min_lookups = 1'000'000;
  const auto classified = classify_connections(ds, pairing, cfg);
  const auto perf =
      analyze_platforms(ds, pairing, classified, PlatformDirectory::standard());
  ASSERT_EQ(perf.size(), 1u);
  EXPECT_EQ(perf[0].platform, "Google");
  EXPECT_DOUBLE_EQ(perf[0].conncheck_frac(), 0.5);
  EXPECT_EQ(perf[0].throughput_bps.count(), 2u);
  EXPECT_EQ(perf[0].throughput_bps_filtered.count(), 1u);
}

TEST(PlatformPerf, HitRateAndLookupSeries) {
  capture::Dataset ds;
  // Local: one fast (SC) and one slow (R) blocked lookup.
  ds.dns.push_back(lookup(kHouseA, kIspResolver1, 0, "a.com", kServer));
  auto slow = lookup(kHouseA, kIspResolver1, 60'000, "b.com", Ipv4Addr{34, 1, 1, 9});
  slow.duration = SimDuration::ms(80);
  ds.dns.push_back(slow);
  ds.conns.push_back(conn(kHouseA, kServer, 5, 100));
  ds.conns.push_back(conn(kHouseA, Ipv4Addr{34, 1, 1, 9}, 60'085, 100));
  const auto pairing = pair_connections(ds);
  ClassifyConfig cfg;
  cfg.per_resolver_min_lookups = 1'000'000;
  const auto classified = classify_connections(ds, pairing, cfg);
  const auto perf =
      analyze_platforms(ds, pairing, classified, PlatformDirectory::standard());
  ASSERT_EQ(perf.size(), 1u);
  EXPECT_EQ(perf[0].sc, 1u);
  EXPECT_EQ(perf[0].r, 1u);
  EXPECT_DOUBLE_EQ(perf[0].hit_rate(), 0.5);
  ASSERT_EQ(perf[0].r_lookup_ms.count(), 1u);
  EXPECT_NEAR(perf[0].r_lookup_ms.max(), 80.0, 1e-9);
}

TEST(Report, VsPaperFormatting) {
  const auto cell = vs_paper(12.34, 56.7);
  EXPECT_NE(cell.find("12.3"), std::string::npos);
  EXPECT_NE(cell.find("56.7"), std::string::npos);
  EXPECT_NE(cell.find("paper"), std::string::npos);
}

TEST(Report, FormatsHandleEmptyStudy) {
  const Study empty;
  EXPECT_FALSE(format_table1(empty).empty());
  EXPECT_FALSE(format_table2(empty).empty());
  EXPECT_FALSE(format_fig1(empty).empty());
  EXPECT_FALSE(format_fig2(empty).empty());
  EXPECT_FALSE(format_fig3(empty).empty());
}

}  // namespace
}  // namespace dnsctx::analysis
