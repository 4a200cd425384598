// Determinism and equivalence guarantees of the fault-injection layer:
// same seed + plan ⇒ byte-identical datasets (any shard count), the
// streaming failure counters match batch bit for bit under every plan,
// and the {N,LC,P,SC,R} taxonomy stays a partition of the connection log
// no matter what impairments are active.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/failures.hpp"
#include "analysis/study.hpp"
#include "capture/logio.hpp"
#include "scenario/scenario.hpp"
#include "stream/spool.hpp"
#include "stream/online_study.hpp"
#include "util/rng.hpp"

namespace dnsctx::scenario {
namespace {

struct RunResult {
  capture::Dataset ds;
  FaultStats stats;
};

[[nodiscard]] RunResult simulate(const faults::FaultPlan& plan, std::uint64_t seed,
                                 std::size_t shards, std::size_t houses = 6,
                                 SimDuration duration = SimDuration::hours(1)) {
  ScenarioConfig cfg;
  cfg.houses = houses;
  cfg.duration = duration;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.faults = plan;
  Town town{cfg};
  town.run();
  return RunResult{town.dataset(), town.fault_stats()};
}

[[nodiscard]] std::string render(const capture::Dataset& ds) {
  std::ostringstream os;
  capture::write_conn_log(os, ds.conns);
  capture::write_dns_log(os, ds.dns);
  return os.str();
}

const char* kHeavyPlan =
    "loss=0.02,dup=0.01,reorder=0.01,servfail=0.01,nxdomain=0.005,backoff=2,"
    "outage=upstream1:600-1200";

TEST(FaultInjection, ImpairedRunsAreByteIdentical) {
  const auto plan = faults::FaultPlan::parse(kHeavyPlan);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "shards " << shards);
    const RunResult a = simulate(plan, 7, shards);
    const RunResult b = simulate(plan, 7, shards);
    EXPECT_EQ(render(a.ds), render(b.ds));
    EXPECT_EQ(a.stats.packets_dropped, b.stats.packets_dropped);
    EXPECT_EQ(a.stats.servfail_injected, b.stats.servfail_injected);
    EXPECT_EQ(a.stats.outage_dropped, b.stats.outage_dropped);
    // The plan actually bit: every fault class left a mark.
    EXPECT_GT(a.stats.packets_dropped, 0u);
    EXPECT_GT(a.stats.packets_duplicated, 0u);
    EXPECT_GT(a.stats.packets_reordered, 0u);
    EXPECT_GT(a.stats.servfail_injected, 0u);
    EXPECT_GT(a.stats.outage_dropped, 0u);
  }
}

TEST(FaultInjection, DifferentSeedsDiverge) {
  const auto plan = faults::FaultPlan::parse("loss=0.02");
  const RunResult a = simulate(plan, 1, 1);
  const RunResult b = simulate(plan, 2, 1);
  EXPECT_NE(render(a.ds), render(b.ds));
}

TEST(FaultInjection, EmptyPlanLeavesNoTrace) {
  const RunResult impaired = simulate(faults::FaultPlan{}, 1, 1);
  EXPECT_EQ(impaired.stats.packets_dropped, 0u);
  EXPECT_EQ(impaired.stats.packets_duplicated, 0u);
  EXPECT_EQ(impaired.stats.packets_reordered, 0u);
  EXPECT_EQ(impaired.stats.servfail_injected, 0u);
  EXPECT_EQ(impaired.stats.nxdomain_injected, 0u);
  EXPECT_EQ(impaired.stats.outage_dropped, 0u);

  // And parse("") wires up exactly the same run as a default config.
  ScenarioConfig cfg;
  cfg.houses = 6;
  cfg.duration = SimDuration::hours(1);
  cfg.seed = 1;
  cfg.faults = faults::FaultPlan::parse("");
  Town town{cfg};
  town.run();
  EXPECT_EQ(render(town.dataset()), render(impaired.ds));
}

TEST(FaultInjection, StreamFailureCountersMatchBatchUnderEveryPlan) {
  const char* specs[] = {"", "loss=0.03", kHeavyPlan};
  for (const char* spec : specs) {
    const auto plan = faults::FaultPlan::parse(spec);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "plan '" << spec << "', shards " << shards);
      const RunResult run = simulate(plan, 7, shards);
      const analysis::FailureCounts batch =
          analysis::build_failure_report(run.ds).counts;

      stream::OnlineStudy engine;
      stream::replay_dataset(run.ds, engine);
      EXPECT_EQ(engine.finalize().failures, batch);

      // Eviction on every record must not change a single counter.
      stream::OnlineStudyConfig aggressive;
      stream::OnlineStudy swept{aggressive};
      stream::replay_dataset(run.ds, swept);
      EXPECT_EQ(swept.finalize().failures, batch);
    }
  }
}

TEST(FaultInjection, AbsorbMergesFailureCountersAcrossPartitions) {
  const RunResult run = simulate(faults::FaultPlan::parse(kHeavyPlan), 3, 1);
  const analysis::FailureCounts batch = analysis::build_failure_report(run.ds).counts;

  // Split the dataset by house into two disjoint partitions.
  capture::Dataset even, odd;
  for (const auto& rec : run.ds.conns) {
    ((rec.orig_ip.to_u32() % 2 == 0) ? even : odd).conns.push_back(rec);
  }
  for (const auto& rec : run.ds.dns) {
    ((rec.client_ip.to_u32() % 2 == 0) ? even : odd).dns.push_back(rec);
  }
  stream::OnlineStudy a, b;
  stream::replay_dataset(even, a);
  stream::replay_dataset(odd, b);
  a.absorb(std::move(b));
  EXPECT_EQ(a.finalize().failures, batch);
}

// Property suite: 50 random fault plans on small scenarios. Whatever the
// impairment, the taxonomy must partition the connection log and the
// streaming counters must equal batch.
TEST(FaultInjection, RandomPlansPreserveClassPartitionInvariant) {
  Rng rng{424242};
  for (int trial = 0; trial < 50; ++trial) {
    faults::FaultPlan plan;
    plan.loss = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.05) : 0.0;
    plan.dup = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.02) : 0.0;
    plan.reorder = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.02) : 0.0;
    plan.servfail_rate = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.02) : 0.0;
    plan.nxdomain_rate = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.01) : 0.0;
    plan.backoff = rng.bernoulli(0.3) ? rng.uniform(1.0, 4.0) : 1.0;
    if (rng.bernoulli(0.4)) {
      const std::int64_t begin = rng.uniform_int(0, 1200);
      plan.outages.push_back(
          faults::Outage{"upstream1", begin, begin + rng.uniform_int(60, 600)});
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << ": " << plan.to_string());

    const RunResult run = simulate(plan, 1000 + static_cast<std::uint64_t>(trial),
                                   /*shards=*/1, /*houses=*/4, SimDuration::min(30));
    const auto study = analysis::run_study(run.ds);
    const auto& c = study.classified.counts;
    // {N, LC, P, SC, R} partitions the connection log: every connection
    // lands in exactly one class, lost/duplicated/retried or not.
    EXPECT_EQ(c.total(), run.ds.conns.size());

    const analysis::FailureCounts batch = analysis::build_failure_report(run.ds).counts;
    EXPECT_EQ(batch.lookups, run.ds.dns.size());
    EXPECT_EQ(batch.answered_ok + batch.nodata + batch.nxdomain + batch.servfail +
                  batch.other_rcode + batch.unanswered,
              batch.lookups);
    EXPECT_EQ(batch.recovered_chains + batch.failed_chains,
              [&] {
                std::uint64_t sum = 0;
                for (const auto n : batch.chain_len_hist) sum += n;
                return sum;
              }());

    stream::OnlineStudy engine;
    stream::replay_dataset(run.ds, engine);
    EXPECT_EQ(engine.finalize().failures, batch);
  }
}

TEST(FaultInjection, OutageWindowSilencesTargetedResolver) {
  faults::FaultPlan plan;
  plan.outages.push_back(faults::Outage{"upstream1", 0, 3600});
  const RunResult run = simulate(plan, 5, 1);
  EXPECT_GT(run.stats.outage_dropped, 0u);
  EXPECT_EQ(run.stats.packets_dropped, 0u);  // no packet-level faults configured
}

TEST(FaultInjection, ResolveOutageTargetGrammar) {
  EXPECT_EQ(resolve_outage_target("isp").size(), 2u);
  EXPECT_EQ(resolve_outage_target("upstream1").size(), 1u);
  EXPECT_EQ(resolve_outage_target("google").size(), 2u);
  EXPECT_EQ(resolve_outage_target("1.2.3.4"),
            (std::vector<Ipv4Addr>{Ipv4Addr{1, 2, 3, 4}}));
  EXPECT_THROW((void)resolve_outage_target("mars"), std::runtime_error);
}

}  // namespace
}  // namespace dnsctx::scenario
