// Unit tests for the Table 3 refresh simulator.
#include <gtest/gtest.h>

#include "cachesim/refresh.hpp"
#include "util/strings.hpp"

namespace dnsctx::cachesim {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

struct Builder {
  capture::Dataset ds;
  int idx = 0;

  void demand(const char* name, std::int64_t at_sec, std::uint32_t ttl,
              Ipv4Addr house = kHouse) {
    const Ipv4Addr server{34, 3, static_cast<std::uint8_t>(idx / 200),
                          static_cast<std::uint8_t>(1 + idx % 200)};
    ++idx;
    capture::DnsRecord d;
    d.ts = SimTime::origin() + SimDuration::sec(at_sec);
    d.duration = SimDuration::ms(2);
    d.client_ip = house;
    d.resolver_ip = kResolver;
    d.query = name;
    d.answered = true;
    d.answers = {{server, ttl}};
    ds.dns.push_back(d);
    capture::ConnRecord c;
    c.start = d.response_time() + SimDuration::ms(5);
    c.duration = SimDuration::sec(1);
    c.orig_ip = house;
    c.resp_ip = server;
    c.orig_port = 10'000;
    c.resp_port = 443;
    ds.conns.push_back(c);
  }

  void speculative(const char* name, std::int64_t at_sec, std::uint32_t ttl) {
    capture::DnsRecord d;
    d.ts = SimTime::origin() + SimDuration::sec(at_sec);
    d.duration = SimDuration::ms(2);
    d.client_ip = kHouse;
    d.resolver_ip = kResolver;
    d.query = name;
    d.answered = true;
    d.answers = {{Ipv4Addr{35, 9, 9, static_cast<std::uint8_t>(1 + idx % 200)}, ttl}};
    ++idx;
    ds.dns.push_back(d);
  }

  [[nodiscard]] RefreshResult run(bool refresh) {
    std::sort(ds.dns.begin(), ds.dns.end(),
              [](const auto& a, const auto& b) { return a.ts < b.ts; });
    std::sort(ds.conns.begin(), ds.conns.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    const auto pairing = analysis::pair_connections(ds);
    RefreshConfig cfg;
    cfg.policy = refresh ? RefreshPolicy::kRefreshAll : RefreshPolicy::kStandard;
    return simulate_refresh(ds, pairing, cfg);
  }
};

TEST(Refresh, StandardCacheHitsRepeatDemandsWithinTtl) {
  Builder b;
  b.demand("a.com", 0, 600);
  b.demand("a.com", 100, 600);  // within TTL → conn hit
  b.demand("a.com", 700, 600);  // expired → miss
  const auto r = b.run(false);
  EXPECT_EQ(r.conns, 3u);
  EXPECT_EQ(r.conn_hits, 1u);
  EXPECT_EQ(r.upstream_lookups, 2u);
  EXPECT_EQ(r.refresh_lookups, 0u);
}

TEST(Refresh, SpeculativeLookupsCountAsDemands) {
  Builder b;
  b.speculative("spec.com", 0, 600);
  b.speculative("spec.com", 100, 600);  // cache hit: no upstream
  b.speculative("other.com", 200, 600);
  const auto r = b.run(false);
  EXPECT_EQ(r.conns, 0u);
  EXPECT_EQ(r.upstream_lookups, 2u);
}

TEST(Refresh, RefreshModeKeepsEntriesWarm) {
  Builder b;
  b.demand("a.com", 0, 100);
  b.demand("a.com", 500, 100);    // far past TTL, but refreshed → hit
  b.demand("a.com", 1'000, 100);  // also hit
  const auto r = b.run(true);
  EXPECT_EQ(r.conn_hits, 2u);
  // 1 miss + refreshes over the ~1001 s trace at TTL 100 ≈ 10.
  EXPECT_EQ(r.upstream_lookups - r.refresh_lookups, 1u);
  EXPECT_NEAR(static_cast<double>(r.refresh_lookups), 10.0, 1.0);
}

TEST(Refresh, ShortTtlNamesAreNotRefreshed) {
  Builder b;
  b.demand("tiny.com", 0, 5);      // TTL below the 10 s floor
  b.demand("tiny.com", 100, 5);    // miss again
  const auto r = b.run(true);
  EXPECT_EQ(r.conn_hits, 0u);
  EXPECT_EQ(r.refresh_lookups, 0u);
  EXPECT_EQ(r.upstream_lookups, 2u);
}

TEST(Refresh, RefreshBeatsStandardHitRate) {
  Builder b;
  Rng rng{5};
  for (int i = 0; i < 400; ++i) {
    const auto name = strfmt("n%llu.com", static_cast<unsigned long long>(rng.bounded(30)));
    b.demand(name.c_str(), i * 30, 120);
  }
  Builder b2;
  b2.ds = b.ds;
  const auto standard = b.run(false);
  const auto refresh = b2.run(true);
  EXPECT_GT(refresh.conn_hit_rate(), standard.conn_hit_rate());
  EXPECT_GT(refresh.upstream_lookups, standard.upstream_lookups);
  EXPECT_GT(refresh.conn_hit_rate(), 0.9);  // nearly everything warm
}

TEST(Refresh, PerHouseCachesAreIndependent) {
  Builder b;
  b.demand("a.com", 0, 3'600, kHouse);
  b.demand("a.com", 100, 3'600, Ipv4Addr{100, 66, 1, 2});  // other house: miss
  const auto r = b.run(false);
  EXPECT_EQ(r.conn_hits, 0u);
  EXPECT_EQ(r.upstream_lookups, 2u);
  EXPECT_EQ(r.houses, 2u);
}

TEST(Refresh, AuthoritativeTtlIsMaxObserved) {
  Builder b;
  // First response advertises a low TTL (decayed shared-cache answer);
  // a later one shows the true 600 s. The simulator uses 600 everywhere.
  b.demand("a.com", 0, 60);
  b.demand("a.com", 1'000, 600);
  b.demand("a.com", 1'100, 60);  // within 600 of the 1'000 s insert → hit
  const auto r = b.run(false);
  EXPECT_EQ(r.conn_hits, 1u);
}

TEST(Refresh, LookupsPerSecondPerHouse) {
  Builder b;
  b.demand("a.com", 0, 50);
  b.demand("b.com", 1'000, 50);  // trace ≈ 1'001 s, one house
  const auto r = b.run(false);
  EXPECT_EQ(r.houses, 1u);
  EXPECT_NEAR(r.trace_seconds, 1'001.0, 1.0);
  EXPECT_NEAR(r.lookups_per_sec_per_house(), 2.0 / 1'001.0, 1e-4);
}

TEST(RefreshPolicies, RecentStopsRefreshingDormantNames) {
  Builder b;
  b.demand("hot.com", 0, 100);
  b.demand("hot.com", 500, 100);    // still inside the 1 h window → hit
  b.demand("cold.com", 0, 100);     // never demanded again
  std::sort(b.ds.dns.begin(), b.ds.dns.end(),
            [](const auto& x, const auto& y) { return x.ts < y.ts; });
  std::sort(b.ds.conns.begin(), b.ds.conns.end(),
            [](const auto& x, const auto& y) { return x.start < y.start; });
  const auto pairing = analysis::pair_connections(b.ds);
  RefreshConfig cfg;
  cfg.policy = RefreshPolicy::kRefreshRecent;
  cfg.recent_window = SimDuration::sec(600);
  const auto r = simulate_refresh(b.ds, pairing, cfg);
  EXPECT_EQ(r.conn_hits, 1u);  // hot.com's second demand
  // Coverage is capped at the trace end (~501 s): each name's initial
  // fetch covers 100 s and refreshing extends it to the cap, costing
  // (501-100)/100 ≈ 4 refreshes per name.
  EXPECT_NEAR(static_cast<double>(r.refresh_lookups), 8.0, 2.0);
  // Refresh-all on the same trace would cover both names to trace end.
  RefreshConfig all;
  all.policy = RefreshPolicy::kRefreshAll;
  const auto r_all = simulate_refresh(b.ds, pairing, all);
  EXPECT_GE(r_all.refresh_lookups, r.refresh_lookups);
}

TEST(RefreshPolicies, FrequentOnlyRefreshesRepeatedNames) {
  Builder b;
  // one-shot.com demanded once; popular.com three times.
  b.demand("one-shot.com", 0, 100);
  b.demand("popular.com", 0, 100);
  b.demand("popular.com", 50, 100);
  b.demand("popular.com", 2'000, 100);
  std::sort(b.ds.dns.begin(), b.ds.dns.end(),
            [](const auto& x, const auto& y) { return x.ts < y.ts; });
  std::sort(b.ds.conns.begin(), b.ds.conns.end(),
            [](const auto& x, const auto& y) { return x.start < y.start; });
  const auto pairing = analysis::pair_connections(b.ds);
  RefreshConfig cfg;
  cfg.policy = RefreshPolicy::kRefreshFrequent;
  cfg.frequent_threshold = 2;
  const auto r = simulate_refresh(b.ds, pairing, cfg);
  // popular.com starts refreshing at its 2nd demand (t=50) → the t=2000
  // demand hits; one-shot.com never refreshes.
  EXPECT_EQ(r.conn_hits, 2u);  // t=50 (TTL hit) and t=2000 (refresh hit)
  EXPECT_GT(r.refresh_lookups, 0u);
  // The one-shot name contributed no refresh traffic: total refreshes
  // cover only popular.com's span (~2000 s / 100 s ≈ 20).
  EXPECT_NEAR(static_cast<double>(r.refresh_lookups), 20.0, 3.0);
}

TEST(RefreshPolicies, CostOrderingHolds) {
  Builder b;
  Rng rng{9};
  for (int i = 0; i < 300; ++i) {
    const auto name = strfmt("n%llu.com", static_cast<unsigned long long>(rng.bounded(40)));
    b.demand(name.c_str(), i * 40, 120);
  }
  std::sort(b.ds.dns.begin(), b.ds.dns.end(),
            [](const auto& x, const auto& y) { return x.ts < y.ts; });
  std::sort(b.ds.conns.begin(), b.ds.conns.end(),
            [](const auto& x, const auto& y) { return x.start < y.start; });
  const auto pairing = analysis::pair_connections(b.ds);
  auto run_policy = [&](RefreshPolicy p) {
    RefreshConfig cfg;
    cfg.policy = p;
    return simulate_refresh(b.ds, pairing, cfg);
  };
  const auto standard = run_policy(RefreshPolicy::kStandard);
  const auto recent = run_policy(RefreshPolicy::kRefreshRecent);
  const auto frequent = run_policy(RefreshPolicy::kRefreshFrequent);
  const auto all = run_policy(RefreshPolicy::kRefreshAll);
  // Hit rate: standard ≤ {recent, frequent} ≤ all.
  EXPECT_LE(standard.conn_hit_rate(), recent.conn_hit_rate());
  EXPECT_LE(standard.conn_hit_rate(), frequent.conn_hit_rate());
  EXPECT_LE(recent.conn_hit_rate(), all.conn_hit_rate() + 1e-9);
  EXPECT_LE(frequent.conn_hit_rate(), all.conn_hit_rate() + 1e-9);
  // Cost: the selective policies stay below refresh-all.
  EXPECT_LT(recent.upstream_lookups, all.upstream_lookups);
  EXPECT_LT(frequent.upstream_lookups, all.upstream_lookups);
}

TEST(RefreshPolicies, Names) {
  EXPECT_EQ(to_string(RefreshPolicy::kStandard), "standard");
  EXPECT_EQ(to_string(RefreshPolicy::kRefreshAll), "refresh-all");
  EXPECT_EQ(to_string(RefreshPolicy::kRefreshRecent), "refresh-recent");
  EXPECT_EQ(to_string(RefreshPolicy::kRefreshFrequent), "refresh-frequent");
}

TEST(Refresh, EmptyDatasetSafe) {
  const capture::Dataset ds;
  const auto pairing = analysis::pair_connections(ds);
  const auto r = simulate_refresh(ds, pairing, RefreshConfig{});
  EXPECT_EQ(r.conns, 0u);
  EXPECT_EQ(r.upstream_lookups, 0u);
  EXPECT_EQ(r.lookups_per_sec_per_house(), 0.0);
}

}  // namespace
}  // namespace dnsctx::cachesim
