// dnsctx — online study engine equivalence tests.
//
// The determinism contract (online_study.hpp) promises bit-identical
// results to the batch pipeline for streams in canonical order. These
// tests enforce it with EXPECT_EQ on doubles — not near-equality — over
// full simulated neighborhoods across seeds, shard counts, live
// (Monitor → LiveFeed) delivery, and absorb() merges of house-disjoint
// partitions; and they check after every record that eviction keeps
// exactly what the shadow rule needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "analysis/study.hpp"
#include "scenario/scenario.hpp"
#include "stream/feed.hpp"
#include "stream/online_study.hpp"
#include "heap_in_use.hpp"
#include "stream/spool.hpp"

namespace dnsctx::stream {
namespace {

capture::Dataset simulate(std::size_t houses, int hours, std::uint64_t seed,
                          std::size_t shards = 1) {
  scenario::ScenarioConfig cfg;
  cfg.houses = houses;
  cfg.duration = SimDuration::hours(hours);
  cfg.seed = seed;
  cfg.shards = shards;
  scenario::Town town{cfg};
  town.run();
  return town.dataset();
}

void expect_equivalent(const OnlineStudyResult& s, const analysis::Study& b,
                       const capture::Dataset& ds) {
  EXPECT_EQ(s.conns, ds.conns.size());
  EXPECT_EQ(s.dns, ds.dns.size());

  EXPECT_EQ(s.pairing.paired, b.pairing.paired);
  EXPECT_EQ(s.pairing.unpaired, b.pairing.unpaired);
  EXPECT_EQ(s.pairing.paired_expired, b.pairing.paired_expired);
  EXPECT_EQ(s.pairing.unique_candidate, b.pairing.unique_candidate);
  EXPECT_EQ(s.pairing.multiple_candidates, b.pairing.multiple_candidates);
  EXPECT_EQ(s.pairing.unused_lookup_frac(), b.pairing.unused_lookup_frac());

  EXPECT_EQ(s.classes.n, b.classified.counts.n);
  EXPECT_EQ(s.classes.lc, b.classified.counts.lc);
  EXPECT_EQ(s.classes.p, b.classified.counts.p);
  EXPECT_EQ(s.classes.sc, b.classified.counts.sc);
  EXPECT_EQ(s.classes.r, b.classified.counts.r);
  EXPECT_EQ(s.lc_expired, b.classified.lc_expired);
  EXPECT_EQ(s.p_expired, b.classified.p_expired);

  ASSERT_EQ(s.resolver_threshold_ms.size(), b.classified.resolver_threshold_ms.size());
  for (const auto& [ip, threshold] : b.classified.resolver_threshold_ms) {
    const auto it = s.resolver_threshold_ms.find(ip);
    ASSERT_NE(it, s.resolver_threshold_ms.end()) << ip.to_string();
    EXPECT_EQ(it->second, threshold) << ip.to_string();
  }

  ASSERT_EQ(s.table1.size(), b.table1.size());
  for (std::size_t i = 0; i < b.table1.size(); ++i) {
    EXPECT_EQ(s.table1[i].platform, b.table1[i].platform);
    EXPECT_EQ(s.table1[i].pct_houses, b.table1[i].pct_houses);
    EXPECT_EQ(s.table1[i].pct_lookups, b.table1[i].pct_lookups);
    EXPECT_EQ(s.table1[i].pct_conns, b.table1[i].pct_conns);
    EXPECT_EQ(s.table1[i].pct_bytes, b.table1[i].pct_bytes);
    EXPECT_EQ(s.table1[i].lookups, b.table1[i].lookups);
  }
  EXPECT_EQ(s.isp_only_houses, b.isp_only_houses);

  EXPECT_EQ(s.quadrants.insignificant_both, b.performance.insignificant_both);
  EXPECT_EQ(s.quadrants.relative_only, b.performance.relative_only);
  EXPECT_EQ(s.quadrants.absolute_only, b.performance.absolute_only);
  EXPECT_EQ(s.quadrants.significant_both, b.performance.significant_both);
  EXPECT_EQ(s.quadrants.significant_overall, b.performance.significant_overall);

  ASSERT_EQ(s.platforms.size(), b.platforms.size());
  for (std::size_t i = 0; i < b.platforms.size(); ++i) {
    EXPECT_EQ(s.platforms[i].platform, b.platforms[i].platform);
    EXPECT_EQ(s.platforms[i].sc, b.platforms[i].sc);
    EXPECT_EQ(s.platforms[i].r, b.platforms[i].r);
    EXPECT_EQ(s.platforms[i].conncheck_conns, b.platforms[i].conncheck_conns);
    EXPECT_EQ(s.platforms[i].total_conns, b.platforms[i].total_conns);
  }
}

TEST(OnlineStudy, MatchesBatchAcrossSeedsAndShards) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", shards " << shards);
      const auto ds = simulate(10, 2, seed, shards);
      const auto batch = analysis::run_study(ds);
      OnlineStudy engine;
      replay_dataset(ds, engine);
      expect_equivalent(engine.finalize(), batch, ds);
    }
  }
}

TEST(OnlineStudy, MatchesBatchWithDerivedResolverThresholds) {
  // Low per_resolver_min_lookups forces §5.3 threshold DERIVATION (mode
  // of the 40 ms low window) instead of the 5 ms default, exercising the
  // deferred SC/R split against derive_resolver_thresholds proper.
  const auto ds = simulate(10, 2, 1);
  analysis::StudyConfig batch_cfg;
  batch_cfg.classify.per_resolver_min_lookups = 50;
  const auto batch = analysis::run_study(ds, batch_cfg);

  OnlineStudyConfig cfg;
  cfg.classify.per_resolver_min_lookups = 50;
  OnlineStudy engine{cfg};
  replay_dataset(ds, engine);
  expect_equivalent(engine.finalize(), batch, ds);
}

TEST(OnlineStudy, MatchesBatchUnderAggressiveEviction) {
  // The engine evicts every candidate as soon as the watermark lets it;
  // results must not move, and the active window must shrink below the
  // stream totals (the bounded-memory claim, observable).
  const auto ds = simulate(10, 2, 7);
  const auto batch = analysis::run_study(ds);
  OnlineStudyConfig cfg;
  OnlineStudy engine{cfg};
  replay_dataset(ds, engine);
  expect_equivalent(engine.finalize(), batch, ds);
  EXPECT_LT(engine.active_records(), ds.dns.size());
}

TEST(OnlineStudy, LiveMonitorFeedMatchesBatch) {
  scenario::ScenarioConfig cfg;
  cfg.houses = 8;
  cfg.duration = SimDuration::hours(2);
  cfg.seed = 3;
  cfg.shards = 2;

  scenario::Town batch_town{cfg};
  batch_town.run();
  const auto& ds = batch_town.dataset();
  const auto batch = analysis::run_study(ds);

  OnlineStudy engine;
  LiveFeed feed{engine};
  scenario::Town live_town{cfg};
  live_town.attach_record_sink(&feed);
  const SimDuration chunk = SimDuration::min(7);
  for (SimDuration done; done < cfg.duration; done += chunk) {
    live_town.run_for(std::min(chunk, cfg.duration - done));
    feed.drain(live_town.record_watermark());
  }
  const auto leftover = live_town.harvest();
  EXPECT_TRUE(leftover.conns.empty());
  EXPECT_TRUE(leftover.dns.empty());
  feed.close();
  expect_equivalent(engine.finalize(), batch, ds);
  // The reorder buffer held the open window, not the whole run.
  EXPECT_LT(feed.peak_buffered(), ds.conns.size() + ds.dns.size());
}

TEST(OnlineStudy, AbsorbMergesHouseDisjointPartitions) {
  const auto ds = simulate(10, 2, 7);
  const auto batch = analysis::run_study(ds);

  // Partition records by house (the NAT'd external address) parity.
  auto pick = [](Ipv4Addr house) { return house.to_u32() % 2 == 0; };
  capture::Dataset even, odd;
  for (const auto& c : ds.conns) {
    (pick(c.orig_ip) ? even : odd).conns.push_back(c);
  }
  for (const auto& d : ds.dns) {
    (pick(d.client_ip) ? even : odd).dns.push_back(d);
  }
  ASSERT_FALSE(even.conns.empty());
  ASSERT_FALSE(odd.conns.empty());

  OnlineStudy a, b;
  replay_dataset(even, a);
  replay_dataset(odd, b);
  a.absorb(std::move(b));
  expect_equivalent(a.finalize(), batch, ds);
}

TEST(OnlineStudy, AbsorbRejectsOverlappingHouses) {
  capture::Dataset ds;
  capture::DnsRecord d;
  d.ts = SimTime::from_us(1000);
  d.client_ip = Ipv4Addr{100, 64, 0, 1};
  d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
  d.query = "example.com";
  d.answered = true;
  d.answers = {{Ipv4Addr{1, 2, 3, 4}, 60}};
  ds.dns.push_back(d);

  OnlineStudy a, b;
  replay_dataset(ds, a);
  replay_dataset(ds, b);
  EXPECT_THROW(a.absorb(std::move(b)), std::logic_error);
}

TEST(OnlineStudy, RejectsTimestampRegressions) {
  OnlineStudy engine;
  capture::ConnRecord c;
  c.start = SimTime::from_us(5000);
  c.orig_ip = Ipv4Addr{100, 64, 0, 1};
  c.resp_ip = Ipv4Addr{1, 2, 3, 4};
  engine.on_conn(c);
  c.start = SimTime::from_us(4000);
  EXPECT_THROW(engine.on_conn(c), std::runtime_error);
}

// ---- due-driven shadow eviction --------------------------------------------
//
// After every record the engine must hold exactly the candidates (and
// the DNS records they point at) that the shadow rule keeps. The oracle
// keeps every candidate ever inserted and applies the rule from scratch,
// in its original form: a candidate goes once it has expired at the
// watermark and a later candidate of its list has already answered.

class ShadowOracle : public capture::RecordSink {
 public:
  void on_dns(const capture::DnsRecord& rec) override {
    watermark_ = std::max(watermark_, rec.ts);
    if (!rec.answered || rec.answers.empty()) return;
    const std::size_t record = records_++;
    const SimTime response = rec.response_time();
    for (const auto& a : rec.answers) {
      const auto [it, fresh] = index_.try_emplace({rec.client_ip.to_u32(), a.addr.to_u32()},
                                                  lists_.size());
      if (fresh) lists_.emplace_back();
      auto& list = lists_[it->second];
      const auto pos = std::upper_bound(list.begin(), list.end(), response,
                                        [](SimTime t, const Cand& c) { return t < c.response; });
      list.insert(pos, Cand{response, response + SimDuration::sec(a.ttl), record});
    }
  }

  void on_conn(const capture::ConnRecord& rec) override {
    watermark_ = std::max(watermark_, rec.start);
  }

  /// Take over a house-disjoint oracle, as OnlineStudy::absorb does.
  void absorb(ShadowOracle&& other) {
    for (const auto& [key, at] : other.index_) {
      auto list = other.lists_[at];
      for (Cand& c : list) c.record += records_;
      index_.emplace(key, lists_.size());
      lists_.push_back(std::move(list));
    }
    records_ += other.records_;
    watermark_ = std::max(watermark_, other.watermark_);
  }

  /// Every candidate inserted so far.
  [[nodiscard]] std::uint64_t inserted() const {
    std::uint64_t n = 0;
    for (const auto& list : lists_) n += list.size();
    return n;
  }

  /// (candidates, records) the rule keeps at the watermark.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> kept() {
    live_.assign(records_, false);
    std::uint64_t cands = 0;
    std::uint64_t recs = 0;
    for (const auto& list : lists_) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        const bool shadowed = i + 1 < list.size() && list[i + 1].response <= watermark_;
        if (shadowed && list[i].expires <= watermark_) continue;
        ++cands;
        if (!live_[list[i].record]) {
          live_[list[i].record] = true;
          ++recs;
        }
      }
    }
    return {cands, recs};
  }

 private:
  struct Cand {
    SimTime response;
    SimTime expires;
    std::size_t record;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> index_;  ///< (house, addr)
  std::vector<std::vector<Cand>> lists_;  ///< in (response, insertion) order
  std::size_t records_ = 0;
  SimTime watermark_;
  std::vector<bool> live_;
};

/// Feeds every record to the engine and the oracle, then compares what
/// each holds.
class CheckedFeed : public capture::RecordSink {
 public:
  CheckedFeed(OnlineStudy& engine, ShadowOracle& oracle) : engine_{engine}, oracle_{oracle} {}

  void on_dns(const capture::DnsRecord& rec) override {
    engine_.on_dns(rec);
    oracle_.on_dns(rec);
    check();
  }
  void on_conn(const capture::ConnRecord& rec) override {
    engine_.on_conn(rec);
    oracle_.on_conn(rec);
    check();
  }

  /// Compare now; reports the first mismatch only.
  void check() {
    ++records_;
    if (mismatched_) return;
    const auto [cands, recs] = oracle_.kept();
    mismatched_ = engine_.active_candidates() != cands || engine_.active_records() != recs;
    EXPECT_EQ(engine_.active_candidates(), cands) << "after record " << records_;
    EXPECT_EQ(engine_.active_records(), recs) << "after record " << records_;
  }

 private:
  OnlineStudy& engine_;
  ShadowOracle& oracle_;
  std::uint64_t records_ = 0;
  bool mismatched_ = false;
};

TEST(OnlineStudyEviction, HoldsExactlyWhatTheRuleKeepsOnAReplayedTown) {
  const auto ds = simulate(10, 2, 7);
  OnlineStudy engine;
  ShadowOracle oracle;
  CheckedFeed feed{engine, oracle};
  replay_dataset(ds, feed);
  // The rule must have had something to evict for the check to bite.
  EXPECT_LT(engine.active_candidates(), oracle.inserted());
  expect_equivalent(engine.finalize(), analysis::run_study(ds), ds);
}

TEST(OnlineStudyEviction, KeepsExactlyAfterAbsorb) {
  const auto ds = simulate(10, 2, 7);
  // Two house-disjoint engines take the first hour, one engine the rest.
  const SimTime split = SimTime::origin() + SimDuration::hours(1);
  auto pick = [](Ipv4Addr house) { return house.to_u32() % 2 == 0; };
  capture::Dataset even, odd, rest;
  for (const auto& c : ds.conns) {
    (c.start >= split ? rest : pick(c.orig_ip) ? even : odd).conns.push_back(c);
  }
  for (const auto& d : ds.dns) {
    (d.ts >= split ? rest : pick(d.client_ip) ? even : odd).dns.push_back(d);
  }
  ASSERT_FALSE(rest.dns.empty());

  OnlineStudy a, b;
  ShadowOracle oracle_a, oracle_b;
  CheckedFeed feed_a{a, oracle_a};
  CheckedFeed feed_b{b, oracle_b};
  replay_dataset(even, feed_a);
  replay_dataset(odd, feed_b);
  a.absorb(std::move(b));
  oracle_a.absorb(std::move(oracle_b));
  feed_a.check();
  replay_dataset(rest, feed_a);
  expect_equivalent(a.finalize(), analysis::run_study(ds), ds);
}

TEST(OnlineStudyEviction, ExactAtEveryDueTime) {
  const Ipv4Addr house{100, 64, 0, 1};
  const Ipv4Addr x{1, 2, 3, 4};
  const Ipv4Addr y{5, 6, 7, 8};
  const Ipv4Addr z{9, 9, 9, 9};
  capture::Dataset ds;
  const auto lookup = [&](std::int64_t ts_ms, std::int64_t duration_ms,
                          std::vector<capture::DnsAnswer> answers) {
    capture::DnsRecord d;
    d.ts = SimTime::from_us(ts_ms * 1000);
    d.duration = SimDuration::us(duration_ms * 1000);
    d.client_ip = house;
    d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
    d.query = "example.com";
    d.answered = true;
    d.answers = std::move(answers);
    ds.dns.push_back(d);
  };
  const auto connect = [&](std::int64_t start_ms, Ipv4Addr to) {
    capture::ConnRecord c;
    c.start = SimTime::from_us(start_ms * 1000);
    c.orig_ip = house;
    c.resp_ip = to;
    ds.conns.push_back(c);
  };
  // x: A answers at 1 ms and expires at 1.001 s; the record also answers
  // y, so it stays live after A goes.
  lookup(0, 1, {{x, 1}, {y, 300}});
  // A slow lookup answers x at 7 s: A falls due at 7 s ...
  lookup(2'000, 5'000, {{x, 60}});
  // ... until a later, faster one answers at 3.001 s. It lands between
  // A and the slow answer, and A now falls due at 3.001 s.
  lookup(3'000, 1, {{x, 60}});
  connect(3'001, x);  // the watermark reaches A's due time exactly
  connect(8'000, x);
  // TTL 0: z's first answer falls due the moment the second one arrives.
  lookup(10'000, 0, {{z, 0}});
  lookup(10'500, 0, {{z, 0}});
  connect(10'500, z);
  connect(63'001, x);  // the fast answer's expiry: it goes, the slow one stays
  connect(400'000, y);

  OnlineStudy engine;
  ShadowOracle oracle;
  CheckedFeed feed{engine, oracle};
  replay_dataset(ds, feed);
  EXPECT_EQ(engine.active_candidates(), 3u);  // the slow x, y, the second z
  expect_equivalent(engine.finalize(), analysis::run_study(ds), ds);
}

// ---- §5.3 mode window ------------------------------------------------------
//
// The engine keeps each resolver's answered-lookup durations only over
// the 40 ms window above its running minimum: as a list of samples at
// first and as per-µs counters once the list would take more memory
// (20 000 samples). These streams move the minimum mid-run and put
// samples on the window's edge, in both forms and across absorb();
// every derived threshold must still equal the one §5.3 gives over the
// whole log. That reference is computed here, from every sample, and
// shares no code with the engine or derive_resolver_thresholds, which
// are both held to it.

const Ipv4Addr kHouseA{100, 64, 0, 1};
const Ipv4Addr kHouseB{100, 64, 0, 2};

/// Enough lookups in the window to turn a resolver's samples into counters.
constexpr int kDense = 20'500;

/// Append `count` answered lookups of `duration_us`, 1 ms apart.
void add_lookups(capture::Dataset& ds, Ipv4Addr house, Ipv4Addr resolver,
                 std::int64_t duration_us, int count = 1) {
  for (int i = 0; i < count; ++i) {
    capture::DnsRecord d;
    d.ts = SimTime::from_us(static_cast<std::int64_t>(ds.dns.size()) * 1000);
    d.duration = SimDuration::us(duration_us);
    d.client_ip = house;
    d.resolver_ip = resolver;
    d.query = "example.com";
    d.answered = true;
    ds.dns.push_back(d);
  }
}

/// Derive a threshold for every resolver with at least one answer.
OnlineStudyConfig deriving_config() {
  OnlineStudyConfig cfg;
  cfg.classify.per_resolver_min_lookups = 1;
  return cfg;
}

/// §5.3 over the full sample, for every resolver with at least
/// `min_lookups` answered lookups: every answered duration in ms, an
/// 80-bin histogram over [min, min + 40 ms), the midpoint of its most
/// populated bin as the mode, and the threshold ceil(mode + max(2 ms,
/// 0.55 · mode)).
std::map<Ipv4Addr, double> full_sample_thresholds(const capture::Dataset& ds,
                                                  std::uint64_t min_lookups) {
  std::map<Ipv4Addr, std::vector<double>> durations;
  for (const auto& d : ds.dns) {
    if (d.answered) durations[d.resolver_ip].push_back(d.duration.to_ms());
  }
  std::map<Ipv4Addr, double> out;
  for (const auto& [resolver, samples] : durations) {
    if (samples.size() < min_lookups) continue;
    const double lo = *std::min_element(samples.begin(), samples.end());
    Histogram h{lo, lo + 40.0, 80};
    for (const double v : samples) {
      if (v < lo + 40.0) h.add(v);
    }
    const double mode_ms = h.bin_low(h.mode_bin()) + h.bin_width() / 2.0;
    out[resolver] = std::ceil(mode_ms + std::max(2.0, 0.55 * mode_ms));
  }
  return out;
}

void expect_thresholds(const util::FlatMap<Ipv4Addr, double>& actual,
                       const std::map<Ipv4Addr, double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [ip, threshold] : expected) {
    const auto it = actual.find(ip);
    ASSERT_NE(it, actual.end()) << ip.to_string();
    EXPECT_EQ(it->second, threshold) << ip.to_string();
  }
}

/// The engine's thresholds, and the batch derivation's over the same
/// log, both equal the full-sample reference.
void expect_batch_thresholds(const OnlineStudyResult& r, const capture::Dataset& ds) {
  const auto expected = full_sample_thresholds(ds, deriving_config().classify.per_resolver_min_lookups);
  {
    SCOPED_TRACE("OnlineStudy");
    expect_thresholds(r.resolver_threshold_ms, expected);
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "derive_resolver_thresholds, threads " << threads);
    expect_thresholds(analysis::derive_resolver_thresholds(ds, deriving_config().classify, threads),
                      expected);
  }
}

OnlineStudyResult online_thresholds(const capture::Dataset& ds) {
  OnlineStudy engine{deriving_config()};
  replay_dataset(ds, engine);
  return engine.finalize();
}

TEST(OnlineStudy, ModeWindowFollowsAFallingMinimum) {
  // At scale 1 every window stays a list; at scale 500 each resolver's
  // first run of lookups alone turns its window into counters, which the
  // falling minimum then shifts.
  for (const int scale : {1, 500}) {
    SCOPED_TRACE(scale);
    const Ipv4Addr small_fall{9, 9, 9, 1};
    const Ipv4Addr large_fall{9, 9, 9, 2};
    const Ipv4Addr onto_edge{9, 9, 9, 3};
    capture::Dataset ds;
    // Falls 23 ms: the 35 ms samples stay in the window and stay the mode.
    add_lookups(ds, kHouseA, small_fall, 35'000, 50 * scale);
    add_lookups(ds, kHouseA, small_fall, 12'000, scale);
    add_lookups(ds, kHouseA, small_fall, 12'300, 10 * scale);
    // Falls 60 ms: the 80 ms samples leave the window.
    add_lookups(ds, kHouseA, large_fall, 80'000, 50 * scale);
    add_lookups(ds, kHouseA, large_fall, 20'000, scale);
    add_lookups(ds, kHouseA, large_fall, 25'000, 5 * scale);
    add_lookups(ds, kHouseA, large_fall, 20'100, 3 * scale);
    // Falls exactly 40 ms: the first samples end on the window's top µs.
    add_lookups(ds, kHouseA, onto_edge, 41'096, 60 * scale);
    add_lookups(ds, kHouseA, onto_edge, 1'096, scale);
    add_lookups(ds, kHouseA, onto_edge, 5'000, 10 * scale);

    const auto r = online_thresholds(ds);
    expect_batch_thresholds(r, ds);
    EXPECT_EQ(r.resolver_threshold_ms.size(), 3u);
  }
}

TEST(OnlineStudy, ModeWindowDropsStaleSamplesWhenItTurnsIntoCounters) {
  // The minimum falls 60 ms while the window is still a list, leaving
  // the 80 ms samples in it; the lookups that then fill the list must
  // make counters of the in-window samples only, placed from the new
  // minimum. The 59 ms samples stay the mode only if the listed ones
  // are counted where they belong.
  const Ipv4Addr resolver{9, 9, 9, 9};
  capture::Dataset ds;
  add_lookups(ds, kHouseA, resolver, 80'000, 100);
  add_lookups(ds, kHouseA, resolver, 20'000);
  add_lookups(ds, kHouseA, resolver, 59'000, kDense);
  add_lookups(ds, kHouseA, resolver, 30'000, 1'000);

  const auto r = online_thresholds(ds);
  expect_batch_thresholds(r, ds);
  EXPECT_EQ(r.resolver_threshold_ms.find(resolver)->second, 92.0);
}

TEST(OnlineStudy, ModeWindowEdgesMatchBatch) {
  // Whether a duration of exactly min + 40 ms reaches the histogram is
  // decided by the batch's double compare v < min/1000 + 40: it does
  // for a 1096 µs minimum and does not for 1000 µs. min + 40.001 ms
  // never does. At scale 500 both windows hold counters.
  for (const int scale : {1, 500}) {
    SCOPED_TRACE(scale);
    const Ipv4Addr edge_in{9, 9, 9, 4};
    const Ipv4Addr edge_out{9, 9, 9, 5};
    capture::Dataset ds;
    add_lookups(ds, kHouseA, edge_in, 1'096, scale);
    add_lookups(ds, kHouseA, edge_in, 41'096, 30 * scale);
    add_lookups(ds, kHouseA, edge_in, 41'097, 40 * scale);
    add_lookups(ds, kHouseA, edge_in, 5'000, 10 * scale);
    add_lookups(ds, kHouseA, edge_out, 1'000, scale);
    add_lookups(ds, kHouseA, edge_out, 41'000, 30 * scale);
    add_lookups(ds, kHouseA, edge_out, 41'001, 40 * scale);
    add_lookups(ds, kHouseA, edge_out, 5'000, 10 * scale);

    const auto r = online_thresholds(ds);
    expect_batch_thresholds(r, ds);
    // The edge samples win the mode only where they are inside.
    EXPECT_EQ(r.resolver_threshold_ms.find(edge_in)->second, 64.0);
    EXPECT_EQ(r.resolver_threshold_ms.find(edge_out)->second, 9.0);
  }
}

TEST(OnlineStudy, AbsorbMergesModeWindowsWithDifferentMinimums) {
  // House A and house B see each resolver with different minimums; one
  // engine per house, merged in both orders. kDense lookups make a
  // house's window counters, so list + list, counters + list and
  // counters + counters all merge.
  const Ipv4Addr small_gap{9, 9, 9, 6};
  const Ipv4Addr large_gap{9, 9, 9, 7};
  const Ipv4Addr edge_gap{9, 9, 9, 8};
  const Ipv4Addr counters_and_list{9, 9, 9, 10};
  const Ipv4Addr counters_edge_gap{9, 9, 9, 11};
  const Ipv4Addr counters_large_gap{9, 9, 9, 12};
  capture::Dataset ds;
  add_lookups(ds, kHouseA, small_gap, 35'000, 30);
  add_lookups(ds, kHouseB, small_gap, 3'000);
  add_lookups(ds, kHouseB, small_gap, 3'500, 10);
  add_lookups(ds, kHouseB, small_gap, 42'000, 20);
  add_lookups(ds, kHouseA, large_gap, 80'000, 50);
  add_lookups(ds, kHouseB, large_gap, 10'000, 20);
  add_lookups(ds, kHouseB, large_gap, 5'000);
  add_lookups(ds, kHouseA, edge_gap, 41'096, 30);
  add_lookups(ds, kHouseB, edge_gap, 1'096);
  add_lookups(ds, kHouseB, edge_gap, 3'000, 5);
  // Counters 32 ms above a list's minimum: they shift, and the list's
  // 75 ms samples were stale before the merge.
  add_lookups(ds, kHouseA, counters_and_list, 35'000, kDense);
  add_lookups(ds, kHouseB, counters_and_list, 75'000, 40);
  add_lookups(ds, kHouseB, counters_and_list, 3'000);
  add_lookups(ds, kHouseB, counters_and_list, 4'000, 30);
  // Counters on both sides, minimums exactly 40 ms apart: A's lowest
  // count lands on B's top µs, where it is the mode.
  add_lookups(ds, kHouseA, counters_edge_gap, 41'096, kDense + 1'000);
  add_lookups(ds, kHouseB, counters_edge_gap, 1'096);
  add_lookups(ds, kHouseB, counters_edge_gap, 30'000, kDense);
  // Counters on both sides, minimums 70 ms apart: none of A's survive.
  add_lookups(ds, kHouseA, counters_large_gap, 80'000, kDense);
  add_lookups(ds, kHouseB, counters_large_gap, 10'000, kDense);
  add_lookups(ds, kHouseB, counters_large_gap, 15'000, 10);

  capture::Dataset part_a, part_b;
  for (const auto& d : ds.dns) (d.client_ip == kHouseA ? part_a : part_b).dns.push_back(d);

  for (const bool a_first : {true, false}) {
    SCOPED_TRACE(a_first ? "A absorbs B" : "B absorbs A");
    OnlineStudy a{deriving_config()}, b{deriving_config()};
    replay_dataset(part_a, a);
    replay_dataset(part_b, b);
    OnlineStudy& into = a_first ? a : b;
    into.absorb(std::move(a_first ? b : a));
    const auto r = into.finalize();
    expect_batch_thresholds(r, ds);
    EXPECT_EQ(r.resolver_threshold_ms.size(), 6u);
    EXPECT_EQ(r.resolver_threshold_ms.find(counters_edge_gap)->second, 64.0);
  }
}

#ifdef DNSCTX_HAVE_HEAP_IN_USE
TEST(OnlineStudy, ModeWindowMemoryGrowsWithSamplesNotResolvers) {
  // Thousands of resolvers, each seen once or twice — what one frame of
  // a misbehaving producer can carry — must cost the engine a few
  // hundred bytes a lookup, not a 40 ms window of counters each. The
  // second lookup of the pairs sits on the window's top µs.
  constexpr std::uint32_t kResolvers = 2'000;
  capture::Dataset ds;
  for (std::uint32_t i = 0; i < kResolvers; ++i) {
    const Ipv4Addr resolver{10, static_cast<std::uint8_t>(i >> 16),
                            static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i)};
    add_lookups(ds, kHouseA, resolver, 5'000);
    if (i % 2 == 1) add_lookups(ds, kHouseA, resolver, 45'000);
  }

  OnlineStudy engine{deriving_config()};
  const std::size_t before = testutil::heap_in_use();
  replay_dataset(ds, engine);
  const std::size_t used = testutil::heap_in_use() - before;
  if (used == 0) GTEST_SKIP() << "allocations are not visible to mallinfo2";
  EXPECT_LT(used, ds.dns.size() * 512) << used / ds.dns.size() << " B per lookup";

  // The windows still give every resolver its batch threshold.
  expect_batch_thresholds(engine.finalize(), ds);
}
#endif

}  // namespace
}  // namespace dnsctx::stream
