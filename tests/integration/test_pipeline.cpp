// End-to-end pipeline tests: run_study over a calibrated simulation and
// check the paper's headline results hold in shape (loose bands — exact
// values are the benches' job; these guard against regressions that
// break the reproduction qualitatively).
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "cachesim/refresh.hpp"
#include "cachesim/whole_house.hpp"
#include "scenario/scenario.hpp"

namespace dnsctx::scenario {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.houses = 25;
    cfg.duration = SimDuration::hours(5);
    town = new Town{cfg};
    town->run();
    study = new analysis::Study{analysis::run_study(town->dataset())};
  }
  static void TearDownTestSuite() {
    delete study;
    delete town;
    town = nullptr;
    study = nullptr;
  }
  static Town* town;
  static analysis::Study* study;
};

Town* PipelineTest::town = nullptr;
analysis::Study* PipelineTest::study = nullptr;

TEST_F(PipelineTest, Table2SharesInPaperBands) {
  const auto& c = study->classified.counts;
  EXPECT_NEAR(c.share(c.n), 0.072, 0.05);    // paper 7.2%
  EXPECT_NEAR(c.share(c.lc), 0.429, 0.10);   // paper 42.9%
  EXPECT_NEAR(c.share(c.p), 0.078, 0.05);    // paper 7.8%
  EXPECT_NEAR(c.share(c.sc), 0.263, 0.10);   // paper 26.3%
  EXPECT_NEAR(c.share(c.r), 0.157, 0.08);    // paper 15.7%
}

TEST_F(PipelineTest, MajorityOfConnectionsDoNotBlock) {
  const auto& c = study->classified.counts;
  const double no_block = c.share(c.n) + c.share(c.lc) + c.share(c.p);
  EXPECT_GT(no_block, 0.5);  // the paper's headline: ~58%
  EXPECT_LT(no_block, 0.7);
}

TEST_F(PipelineTest, SharedCacheServesMajorityOfBlockedLookups) {
  EXPECT_GT(study->classified.counts.shared_cache_hit_rate(), 0.5);  // paper 62.6%
  EXPECT_LT(study->classified.counts.shared_cache_hit_rate(), 0.8);
}

TEST_F(PipelineTest, Table1LocalDominates) {
  ASSERT_FALSE(study->table1.empty());
  const auto* local = &study->table1[0];
  ASSERT_EQ(local->platform, "Local");
  EXPECT_GT(local->pct_lookups, 60.0);
  EXPECT_GT(local->pct_houses, 80.0);
  double total_lookup_share = 0;
  for (const auto& row : study->table1) total_lookup_share += row.pct_lookups;
  EXPECT_LE(total_lookup_share, 100.01);
}

TEST_F(PipelineTest, SignificantDelayShareIsSmall) {
  // Paper: only 3.6% of ALL connections pay a significant DNS cost.
  EXPECT_LT(study->performance.significant_overall, 0.10);
  EXPECT_GT(study->performance.significant_overall, 0.005);
}

TEST_F(PipelineTest, LookupDelaysAreModest) {
  const auto& p = study->performance;
  ASSERT_FALSE(p.lookup_ms_all.empty());
  EXPECT_LT(p.lookup_ms_all.median(), 25.0);          // paper 8.5 ms
  EXPECT_LT(p.frac_lookup_over_ms(100.0), 0.10);      // paper 3.3%
  EXPECT_LT(p.frac_contrib_over_pct(1.0), 0.45);      // paper 20%
  EXPECT_GT(p.frac_contrib_over_pct(1.0),
            p.frac_contrib_over_pct(10.0));           // monotone by construction
}

TEST_F(PipelineTest, RContributesMoreThanSC) {
  const auto& p = study->performance;
  ASSERT_FALSE(p.contrib_sc.empty());
  ASSERT_FALSE(p.contrib_r.empty());
  EXPECT_GT(p.contrib_r.fraction_above(1.0), p.contrib_sc.fraction_above(1.0));
  EXPECT_GT(p.lookup_ms_r.median(), p.lookup_ms_sc.median());
}

TEST_F(PipelineTest, PlatformHitRateOrderingMatchesPaper) {
  double local = -1, google = -1, opendns = -1, cloudflare = -1;
  for (const auto& p : study->platforms) {
    if (p.platform == "Local") local = p.hit_rate();
    if (p.platform == "Google") google = p.hit_rate();
    if (p.platform == "OpenDNS") opendns = p.hit_rate();
    if (p.platform == "Cloudflare") cloudflare = p.hit_rate();
  }
  ASSERT_GE(local, 0.0);
  ASSERT_GE(google, 0.0);
  // Paper order: Cloudflare 83.6 > Local 71.2 > OpenDNS 58.8 > Google 23.
  EXPECT_GT(cloudflare, local);
  EXPECT_GT(local, opendns);
  EXPECT_GT(opendns, google);
  EXPECT_LT(google, 0.45);
}

TEST_F(PipelineTest, GoogleConnCheckArtifactPresent) {
  for (const auto& p : study->platforms) {
    if (p.platform != "Google") continue;
    EXPECT_GT(p.conncheck_frac(), 0.08);  // paper: 23.5% of Google conns
    ASSERT_FALSE(p.throughput_bps.empty());
    ASSERT_FALSE(p.throughput_bps_filtered.empty());
    // Removing the artifact raises the low quartile.
    EXPECT_GE(p.throughput_bps_filtered.quantile(0.25), p.throughput_bps.quantile(0.25));
  }
}

TEST_F(PipelineTest, WholeHouseCacheHelpsBlockedClasses) {
  const auto result =
      cachesim::simulate_whole_house(town->dataset(), study->pairing, study->classified);
  EXPECT_GT(result.moved_frac_of_all(), 0.02);  // paper: 9.8%
  EXPECT_LT(result.moved_frac_of_all(), 0.25);
  EXPECT_GT(result.sc_moved_frac(), 0.05);      // paper: ~22%
  EXPECT_GT(result.r_moved_frac(), 0.05);       // paper: ~25%
}

TEST_F(PipelineTest, RefreshSimulatorReproducesTable3Shape) {
  cachesim::RefreshConfig standard;
  const auto std_result = cachesim::simulate_refresh(town->dataset(), study->pairing, standard);
  cachesim::RefreshConfig refresh;
  refresh.policy = cachesim::RefreshPolicy::kRefreshAll;
  const auto ref_result = cachesim::simulate_refresh(town->dataset(), study->pairing, refresh);

  EXPECT_GT(std_result.conn_hit_rate(), 0.4);   // paper: 61.0%
  EXPECT_LT(std_result.conn_hit_rate(), 0.8);
  // Paper: 96.6% over a week; shorter traces pay proportionally more
  // first-touch misses, so the band is wider here.
  EXPECT_GT(ref_result.conn_hit_rate(), 0.8);
  EXPECT_GT(ref_result.conn_hit_rate(), std_result.conn_hit_rate() + 0.2);
  // Refresh costs at least an order of magnitude more lookups (paper 144x).
  EXPECT_GT(static_cast<double>(ref_result.upstream_lookups),
            10.0 * static_cast<double>(std_result.upstream_lookups));
}

TEST_F(PipelineTest, ReportsRenderWithoutError) {
  EXPECT_FALSE(analysis::format_table1(*study).empty());
  EXPECT_FALSE(analysis::format_table2(*study).empty());
  EXPECT_FALSE(analysis::format_fig1(*study).empty());
  EXPECT_FALSE(analysis::format_fig2(*study).empty());
  EXPECT_FALSE(analysis::format_fig3(*study).empty());
}

}  // namespace
}  // namespace dnsctx::scenario
