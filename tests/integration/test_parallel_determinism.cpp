// The parallel execution layer's core promise: for a fixed scenario
// (including its shard count), the captured dataset, the records a
// streaming sink receives, and every derived analysis result are
// identical for ANY thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "analysis/study.hpp"
#include "capture/logio.hpp"
#include "scenario/scenario.hpp"
#include "stream/feed.hpp"
#include "stream/spool.hpp"
#include "temp_dir.hpp"

namespace dnsctx {
namespace {

[[nodiscard]] scenario::ScenarioConfig small_sharded_config(unsigned threads) {
  scenario::ScenarioConfig cfg;
  cfg.houses = 16;
  cfg.duration = SimDuration::hours(2);
  cfg.seed = 2020;
  cfg.shards = 4;
  cfg.threads = threads;
  return cfg;
}

/// Serialize a dataset to one string — byte equality of these strings is
/// the determinism criterion.
[[nodiscard]] std::string serialize(const capture::Dataset& ds) {
  std::stringstream ss;
  capture::write_conn_log(ss, ds.conns);
  capture::write_dns_log(ss, ds.dns);
  capture::write_encflow_log(ss, ds.encflows);
  return ss.str();
}

/// Keeps every record it is handed, per kind, in arrival order.
struct RecordingSink final : capture::RecordSink {
  capture::Dataset got;
  void on_conn(const capture::ConnRecord& rec) override { got.conns.push_back(rec); }
  void on_dns(const capture::DnsRecord& rec) override { got.dns.push_back(rec); }
  void on_encflow(const capture::EncFlowRecord& rec) override {
    got.encflows.push_back(rec);
  }
};

/// Stream `town` into `sink` the way live callers do: chunked run_for(),
/// draining `feed` (when given) to the town's watermark after each
/// chunk, then harvest(), which must hand back nothing.
void stream_town(scenario::Town& town, capture::RecordSink& sink,
                 stream::LiveFeed* feed = nullptr) {
  town.attach_record_sink(&sink);
  const SimDuration total = town.config().duration;
  const SimDuration chunk = SimDuration::min(10);
  for (SimDuration done; done < total; done += chunk) {
    town.run_for(std::min(chunk, total - done));
    if (feed != nullptr) feed->drain(town.record_watermark());
  }
  const capture::Dataset leftover = town.harvest();
  EXPECT_TRUE(leftover.conns.empty());
  EXPECT_TRUE(leftover.dns.empty());
  EXPECT_TRUE(leftover.encflows.empty());
  if (feed != nullptr) feed->close();
}

/// Every file under `dir`, by name, with its bytes.
[[nodiscard]] std::map<std::string, std::string> read_tree(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream is{entry.path(), std::ios::binary};
    std::stringstream ss;
    ss << is.rdbuf();
    files[entry.path().filename().string()] = ss.str();
  }
  return files;
}

void expect_same_cdf(const Cdf& a, const Cdf& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.empty()) return;
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.quantile(0.9), b.quantile(0.9));
}

void expect_same_study(const analysis::Study& a, const analysis::Study& b) {
  EXPECT_EQ(a.pairing.paired, b.pairing.paired);
  EXPECT_EQ(a.pairing.unpaired, b.pairing.unpaired);
  EXPECT_EQ(a.pairing.paired_expired, b.pairing.paired_expired);
  EXPECT_EQ(a.pairing.unique_candidate, b.pairing.unique_candidate);
  EXPECT_EQ(a.pairing.multiple_candidates, b.pairing.multiple_candidates);
  ASSERT_EQ(a.pairing.conns.size(), b.pairing.conns.size());
  for (std::size_t i = 0; i < a.pairing.conns.size(); ++i) {
    EXPECT_EQ(a.pairing.conns[i].dns_idx, b.pairing.conns[i].dns_idx);
  }

  EXPECT_EQ(a.classified.counts.n, b.classified.counts.n);
  EXPECT_EQ(a.classified.counts.lc, b.classified.counts.lc);
  EXPECT_EQ(a.classified.counts.p, b.classified.counts.p);
  EXPECT_EQ(a.classified.counts.sc, b.classified.counts.sc);
  EXPECT_EQ(a.classified.counts.r, b.classified.counts.r);
  EXPECT_EQ(a.classified.lc_expired, b.classified.lc_expired);
  EXPECT_EQ(a.classified.p_expired, b.classified.p_expired);
  EXPECT_EQ(a.classified.classes, b.classified.classes);
  expect_same_cdf(a.classified.lc_gap_sec, b.classified.lc_gap_sec);
  expect_same_cdf(a.classified.p_gap_sec, b.classified.p_gap_sec);

  EXPECT_EQ(a.blocking.knee_ms, b.blocking.knee_ms);
  expect_same_cdf(a.blocking.gap_ms, b.blocking.gap_ms);
  EXPECT_EQ(a.blocking.first_use_frac_below, b.blocking.first_use_frac_below);
  EXPECT_EQ(a.blocking.first_use_frac_above, b.blocking.first_use_frac_above);

  EXPECT_EQ(a.performance.insignificant_both, b.performance.insignificant_both);
  EXPECT_EQ(a.performance.significant_both, b.performance.significant_both);
  EXPECT_EQ(a.performance.significant_overall, b.performance.significant_overall);
  expect_same_cdf(a.performance.lookup_ms_all, b.performance.lookup_ms_all);
  expect_same_cdf(a.performance.contrib_all, b.performance.contrib_all);

  EXPECT_EQ(a.isp_only_houses, b.isp_only_houses);
  ASSERT_EQ(a.table1.size(), b.table1.size());
  for (std::size_t i = 0; i < a.table1.size(); ++i) {
    EXPECT_EQ(a.table1[i].platform, b.table1[i].platform);
    EXPECT_EQ(a.table1[i].lookups, b.table1[i].lookups);
    EXPECT_EQ(a.table1[i].pct_houses, b.table1[i].pct_houses);
    EXPECT_EQ(a.table1[i].pct_conns, b.table1[i].pct_conns);
    EXPECT_EQ(a.table1[i].pct_bytes, b.table1[i].pct_bytes);
  }

  ASSERT_EQ(a.platforms.size(), b.platforms.size());
  for (std::size_t i = 0; i < a.platforms.size(); ++i) {
    EXPECT_EQ(a.platforms[i].platform, b.platforms[i].platform);
    EXPECT_EQ(a.platforms[i].sc, b.platforms[i].sc);
    EXPECT_EQ(a.platforms[i].r, b.platforms[i].r);
    EXPECT_EQ(a.platforms[i].total_conns, b.platforms[i].total_conns);
    EXPECT_EQ(a.platforms[i].conncheck_conns, b.platforms[i].conncheck_conns);
    expect_same_cdf(a.platforms[i].r_lookup_ms, b.platforms[i].r_lookup_ms);
    expect_same_cdf(a.platforms[i].throughput_bps, b.platforms[i].throughput_bps);
  }
}

TEST(ParallelDeterminism, DatasetIsByteIdenticalForAnyThreadCount) {
  scenario::Town baseline{small_sharded_config(1)};
  baseline.run();
  const std::string expected = serialize(baseline.dataset());
  EXPECT_FALSE(baseline.dataset().conns.empty());
  EXPECT_FALSE(baseline.dataset().dns.empty());

  for (const unsigned threads : {2u, 4u, 8u}) {
    scenario::Town town{small_sharded_config(threads)};
    town.run();
    EXPECT_EQ(serialize(town.dataset()), expected) << "threads = " << threads;
    EXPECT_EQ(town.ground_truth().fetches, baseline.ground_truth().fetches);
    EXPECT_EQ(town.ground_truth().fetch_blocked, baseline.ground_truth().fetch_blocked);
    EXPECT_EQ(town.ground_truth().no_dns_conns, baseline.ground_truth().no_dns_conns);
  }
}

TEST(ParallelDeterminism, SinkRecordsAreIdenticalForAnyThreadCount) {
  // DoT adds the encrypted-flow kind to the cleartext conn/dns kinds.
  for (const auto transport : {netsim::Transport::kDo53, netsim::Transport::kDoT}) {
    auto cfg = small_sharded_config(1);
    cfg.transport = transport;
    RecordingSink baseline;
    {
      scenario::Town town{cfg};
      stream_town(town, baseline);
    }
    EXPECT_FALSE(baseline.got.conns.empty());
    if (transport == netsim::Transport::kDoT) {
      EXPECT_FALSE(baseline.got.encflows.empty());
    }
    const std::string expected = serialize(baseline.got);

    for (const unsigned threads : {2u, 4u, 8u}) {
      cfg.threads = threads;
      RecordingSink sink;
      scenario::Town town{cfg};
      stream_town(town, sink);
      EXPECT_EQ(serialize(sink.got), expected)
          << "threads = " << threads << ", transport " << netsim::to_string(transport);
    }
  }
}

TEST(ParallelDeterminism, LiveSpoolIsByteIdenticalForAnyThreadCount) {
  const testutil::TempDir tmp{"dnsctx_det_spool"};
  std::map<unsigned, std::map<std::string, std::string>> spools;
  for (const unsigned threads : {1u, 4u}) {
    const std::string dir = tmp.file("threads" + std::to_string(threads));
    scenario::Town town{small_sharded_config(threads)};
    stream::SpoolWriter writer{dir};
    stream::LiveFeed feed{writer};
    stream_town(town, feed, &feed);
    writer.flush();
    spools[threads] = read_tree(dir);
  }
  EXPECT_FALSE(spools[1].empty());
  EXPECT_EQ(spools[1], spools[4]);
}

TEST(ParallelDeterminism, LiveFeedOutputMatchesHarvestedDataset) {
  scenario::Town batch{small_sharded_config(4)};
  batch.run();

  RecordingSink ordered;
  stream::LiveFeed feed{ordered};
  scenario::Town live{small_sharded_config(4)};
  stream_town(live, feed, &feed);
  EXPECT_EQ(feed.buffered(), 0u);
  EXPECT_EQ(serialize(ordered.got), serialize(batch.dataset()));
}

TEST(ParallelDeterminism, StudyIsIdenticalForAnyThreadCount) {
  scenario::Town town{small_sharded_config(4)};
  town.run();

  analysis::StudyConfig cfg1;
  cfg1.threads = 1;
  const analysis::Study base = analysis::run_study(town.dataset(), cfg1);

  for (const unsigned threads : {2u, 8u}) {
    analysis::StudyConfig cfgN;
    cfgN.threads = threads;
    const analysis::Study parallel = analysis::run_study(town.dataset(), cfgN);
    expect_same_study(base, parallel);
  }
}

TEST(ParallelDeterminism, RandomPairingPolicyIsThreadIndependent) {
  scenario::Town town{small_sharded_config(2)};
  town.run();
  const auto a = analysis::pair_connections(town.dataset(), analysis::PairingPolicy::kRandom,
                                            7, 1);
  const auto b = analysis::pair_connections(town.dataset(), analysis::PairingPolicy::kRandom,
                                            7, 8);
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t i = 0; i < a.conns.size(); ++i) {
    EXPECT_EQ(a.conns[i].dns_idx, b.conns[i].dns_idx);
  }
  EXPECT_EQ(a.paired, b.paired);
}

TEST(ParallelDeterminism, DiskRoundTripMatchesInMemoryStudy) {
  scenario::Town town{small_sharded_config(4)};
  town.run();

  const testutil::TempDir tmp{"dnsctx_det"};
  const std::string conn_path = tmp.file("conn.log");
  const std::string dns_path = tmp.file("dns.log");
  capture::save_dataset(town.dataset(), conn_path, dns_path);
  const capture::Dataset loaded = capture::load_dataset(conn_path, dns_path);
  EXPECT_EQ(serialize(loaded), serialize(town.dataset()));

  analysis::StudyConfig cfg;
  cfg.threads = 4;
  const analysis::Study mem = analysis::run_study(town.dataset(), cfg);
  const analysis::Study disk = analysis::run_study(loaded, cfg);
  expect_same_study(mem, disk);
}

TEST(ParallelDeterminism, SingleShardMatchesLegacySeedStream) {
  // shards = 1 must reproduce the pre-sharding byte stream for the same
  // seed: the shard-0 seed labels are the legacy ones.
  scenario::ScenarioConfig cfg;
  cfg.houses = 6;
  cfg.duration = SimDuration::hours(1);
  cfg.seed = 99;
  cfg.shards = 1;

  scenario::Town a{cfg};
  a.run();
  cfg.threads = 8;  // threads are irrelevant with one shard, but must not crash
  scenario::Town b{cfg};
  b.run();
  EXPECT_EQ(serialize(a.dataset()), serialize(b.dataset()));
}

}  // namespace
}  // namespace dnsctx
