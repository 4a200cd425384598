// Tests for the benchmark's own logic: the tail-percentile rule, open-loop
// timing, span self-time arithmetic, metric-name validity, and the
// simulation fingerprint (same seed → same exact counts).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(1000), 99.0), 990.0);
  EXPECT_EQ(percentile(one_to(1000), 50.0), 500.0);
  EXPECT_EQ(percentile(one_to(1), 99.0), 1.0);
  EXPECT_EQ(percentile(one_to(10), 100.0), 10.0);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), std::nullopt);
  EXPECT_EQ(highest_supported_percentile(0), std::nullopt);
}

TEST(OpenLoop, DueTimesFollowTheOfferedRate) {
  const auto t0 = Clock::now();
  EXPECT_EQ(due_time(t0, 1000.0, 0), t0);
  EXPECT_EQ(due_time(t0, 1000.0, 3), t0 + milliseconds(3));
  EXPECT_EQ(due_time(t0, 250.0, 2), t0 + milliseconds(8));
}

TEST(OpenLoop, LatencyCountsFromTheDueTimeAndLagIsReported) {
  const auto t0 = Clock::now();
  // Frame 0 goes out on time; the generator then stalls until 5 ms, so
  // frames 1 and 2 leave late and their latency includes the stall.
  const std::vector<FrameTimes> frames = {
      {t0, t0, t0 + microseconds(100)},
      {t0 + milliseconds(1), t0 + milliseconds(5), t0 + microseconds(5100)},
      {t0 + milliseconds(2), t0 + milliseconds(5), t0 + microseconds(5200)},
  };
  const auto s = open_loop_samples(frames);
  ASSERT_EQ(s.latency_us.size(), 3u);
  EXPECT_DOUBLE_EQ(s.latency_us[0], 100.0);
  EXPECT_DOUBLE_EQ(s.latency_us[1], 4100.0);
  EXPECT_DOUBLE_EQ(s.latency_us[2], 3200.0);
  EXPECT_DOUBLE_EQ(s.lag_us[0], 0.0);
  EXPECT_DOUBLE_EQ(s.lag_us[1], 4000.0);
  EXPECT_DOUBLE_EQ(s.lag_us[2], 3000.0);
}

Span span(std::uint32_t id, std::uint32_t parent, std::string name, std::int64_t a,
          std::int64_t b) {
  return Span{id, parent, std::move(name), a, b};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const Span parent = span(1, 0, "w.iteration", 0, 100);
  // [10,30] and [20,50] overlap (union 40), [70,80] adds 10, and the
  // child running past the parent's end is clipped to [95,100].
  const std::vector<Span> kids = {span(2, 1, "a.x", 10, 30), span(3, 1, "a.y", 20, 50),
                                  span(4, 1, "b.z", 70, 80), span(5, 1, "b.w", 95, 120)};
  EXPECT_EQ(self_ns(parent, kids), 100 - 40 - 10 - 5);
  EXPECT_EQ(self_ns(parent, {}), 100);
}

TEST(Spans, LayerTimesSumSelfTimePerLayer) {
  const std::vector<Span> spans = {
      span(1, 0, "w.iteration", 0, 1'000'000'000),
      span(2, 1, "netsim.run_for", 0, 600'000'000),
      span(3, 2, "capture.harvest", 100'000'000, 200'000'000),
      span(4, 1, "analysis.run_study", 600'000'000, 900'000'000),
  };
  const LayerTimes lt = layer_times(spans);
  EXPECT_DOUBLE_EQ(lt.root_s, 1.0);
  EXPECT_DOUBLE_EQ(lt.self_s.at("netsim"), 0.5);
  EXPECT_DOUBLE_EQ(lt.self_s.at("capture"), 0.1);
  EXPECT_DOUBLE_EQ(lt.self_s.at("analysis"), 0.3);
  EXPECT_DOUBLE_EQ(lt.self_s.at("w"), 0.1);
}

TEST(Spans, TracerNestsAndIsSilentWhenDisabled) {
  Tracer t;
  { SpanScope s{t, "off.span"}; }
  EXPECT_TRUE(t.spans().empty());
  t.set_enabled(true);
  {
    SpanScope outer{t, "w.iteration"};
    { SpanScope inner{t, "netsim.run_for"}; }
    SpanScope second{t, "analysis.run_study"};
    second.end();
    SpanScope third{t, "stream.ingest"};
  }
  ASSERT_EQ(t.spans().size(), 4u);
  EXPECT_EQ(t.spans()[0].parent, 0u);
  EXPECT_EQ(t.spans()[1].parent, 1u);
  EXPECT_EQ(t.spans()[2].parent, 1u);
  EXPECT_EQ(t.spans()[3].parent, 1u);
  for (const Span& s : t.spans()) EXPECT_GE(s.end_ns, s.start_ns);
  EXPECT_EQ(layer_of("netsim.run_for"), "netsim");
  EXPECT_EQ(layer_of("plain"), "plain");
}

TEST(Metrics, NameValidity) {
  for (const char* ok : {"records_per_s", "resolver.hit_rate.Local", "a-b", "9lives", "x"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a{b}", "q\"", "a/b", "\xc3\xb6"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(Metrics, SetRejectsBadEntriesAndRendersJson) {
  MetricSet m;
  EXPECT_THROW(m.set("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.set("ok", 1.0, "bad unit"), std::invalid_argument);
  EXPECT_THROW(m.set("ok", std::nan(""), "s"), std::invalid_argument);
  m.set("setup_s", 0.8127, "s");
  m.set("records", 1000.0, "count");
  EXPECT_EQ(result_json(true, 3, 0, m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"
            "\"records\":{\"value\":1000,\"unit\":\"count\"},"
            "\"setup_s\":{\"value\":0.81269999999999998,\"unit\":\"s\"}}}");
}

TEST(Metrics, DeclaredMetricsAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(valid_unit(d.unit)) << d.unit;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
  }
  EXPECT_LE(per_layer_metrics().size(), 128u);
}

/// A tiny traced neighborhood run: every exact count it reports.
std::map<std::string, double> fingerprint(std::uint64_t seed) {
  RunOptions opts;
  opts.seed = seed;
  opts.seconds = 0.01;
  opts.trace = true;
  opts.houses = 4;
  opts.minutes = 20;  // the minimum repetitions include two traced ones, compared
  const Outcome out = run_workload("neighborhood", opts);
  EXPECT_TRUE(out.correct());
  for (const auto& e : out.errors) ADD_FAILURE() << e;
  std::map<std::string, double> exact;
  for (const auto& [name, m] : out.metrics.all()) {
    if (is_exact_metric(name)) exact[name] = m.value;
  }
  return exact;
}

TEST(Fingerprint, SameSeedSameCountsOtherSeedDiffers) {
  const auto a = fingerprint(1);
  const auto b = fingerprint(1);
  const auto c = fingerprint(2);
  EXPECT_GT(a.at("capture.conns"), 0.0);
  EXPECT_GT(a.at("netsim.events"), 0.0);
  EXPECT_GT(a.at("analysis.candidates_scanned"), 0.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW((void)run_workload("nope", RunOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
