// Exporter golden tests: both renderers are deterministic for a fixed
// snapshot, so the output is asserted byte for byte on hand-built
// snapshots (no registry involved — these never race with other tests).
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "temp_dir.hpp"

namespace dnsctx::obs {
namespace {

MetricsSnapshot tiny_snapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back({"net_packets_sent", 42});
  snap.counters.push_back({"stage_runs_total{stage=\"run_study\"}", 1});
  snap.gauges.push_back({"sim_seconds", 3.5});
  HistogramSample h;
  h.name = "span_wall_seconds{stage=\"run_study\"}";
  h.buckets = {{1e-6, 0}, {2e-6, 1}, {5e-6, 2}};
  h.count = 3;  // one observation landed past the last finite bucket
  h.sum_seconds = 0.25;
  snap.histograms.push_back(std::move(h));
  return snap;
}

TEST(ObsExportTest, PrometheusGolden) {
  const std::string expected =
      "# TYPE dnsctx_net_packets_sent counter\n"
      "dnsctx_net_packets_sent 42\n"
      "# TYPE dnsctx_stage_runs_total counter\n"
      "dnsctx_stage_runs_total{stage=\"run_study\"} 1\n"
      "# TYPE dnsctx_sim_seconds gauge\n"
      "dnsctx_sim_seconds 3.5\n"
      "# TYPE dnsctx_span_wall_seconds histogram\n"
      "dnsctx_span_wall_seconds_bucket{stage=\"run_study\",le=\"1e-06\"} 0\n"
      "dnsctx_span_wall_seconds_bucket{stage=\"run_study\",le=\"2e-06\"} 1\n"
      "dnsctx_span_wall_seconds_bucket{stage=\"run_study\",le=\"5e-06\"} 2\n"
      "dnsctx_span_wall_seconds_bucket{stage=\"run_study\",le=\"+Inf\"} 3\n"
      "dnsctx_span_wall_seconds_sum{stage=\"run_study\"} 0.25\n"
      "dnsctx_span_wall_seconds_count{stage=\"run_study\"} 3\n";
  EXPECT_EQ(to_prometheus(tiny_snapshot()), expected);
}

TEST(ObsExportTest, JsonGolden) {
  const std::string expected =
      "{\"counters\":{\"net_packets_sent\":42,"
      "\"stage_runs_total{stage=\\\"run_study\\\"}\":1},"
      "\"gauges\":{\"sim_seconds\":3.5},"
      "\"histograms\":{\"span_wall_seconds{stage=\\\"run_study\\\"}\":"
      "{\"count\":3,\"sum_seconds\":0.25,"
      "\"buckets\":[[1e-06,0],[2e-06,1],[5e-06,2]]}}}";
  EXPECT_EQ(to_json(tiny_snapshot()), expected);
}

TEST(ObsExportTest, FlatJsonGolden) {
  const std::string expected =
      "{\"net_packets_sent\":42,"
      "\"stage_runs_total{stage=\\\"run_study\\\"}\":1,"
      "\"sim_seconds\":3.5,"
      "\"span_wall_seconds{stage=\\\"run_study\\\"}_count\":3,"
      "\"span_wall_seconds{stage=\\\"run_study\\\"}_sum_seconds\":0.25}";
  EXPECT_EQ(to_flat_json(tiny_snapshot()), expected);
}

TEST(ObsExportTest, JsonEscapesControlCharacters) {
  // Metric names are normally tame, but names flow in from tenant
  // labels on the serve path — a stray control char must not produce
  // invalid JSON (RFC 8259 requires escaping everything below 0x20).
  MetricsSnapshot snap;
  snap.counters.push_back({"weird\nname\twith\x01"
                           "ctl",
                           1});
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"weird\\nname\\twith\\u0001ctl\":1"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(ObsExportTest, EmptySnapshotRenders) {
  const MetricsSnapshot empty;
  EXPECT_EQ(to_prometheus(empty), "");
  EXPECT_EQ(to_json(empty), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_EQ(to_flat_json(empty), "{}");
}

TEST(ObsExportTest, IntegerGaugeRendersWithoutDecimals) {
  MetricsSnapshot snap;
  snap.gauges.push_back({"g", 12345.0});
  EXPECT_EQ(to_prometheus(snap), "# TYPE dnsctx_g gauge\ndnsctx_g 12345\n");
}

TEST(ObsExportTest, WriteMetricsFileChoosesFormatByExtension) {
  const bool was = enabled();
  set_enabled(true);
  registry().counter("test_write_file_total").add(7);

  const testutil::TempDir tmp{"dnsctx_obs_export"};
  const auto& dir = tmp.path();
  const auto read = [](const std::filesystem::path& p) {
    std::ifstream is{p};
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };

  write_metrics_file((dir / "m.prom").string());
  EXPECT_NE(read(dir / "m.prom").find("dnsctx_test_write_file_total 7"),
            std::string::npos);

  write_metrics_file((dir / "m.json").string());
  const std::string json = read(dir / "m.json");
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"test_write_file_total\":7"), std::string::npos);

  registry().counter("test_write_file_total").reset();
  set_enabled(was);
}

}  // namespace
}  // namespace dnsctx::obs
