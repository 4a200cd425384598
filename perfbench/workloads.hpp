// dnsctx benchmark — the four workloads and the metrics they report.
//
// Each workload builds its inputs from the run seed, repeats its timed
// unit until the run's time budget is spent, checks every output, and
// reports medians over the repetitions. With tracing on, every other
// repetition runs traced (spans around each call into a layer, obs
// metrics enabled) and the rest untraced, so the per-layer numbers and
// the cost of tracing come from the same run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for this run (spool directories); the caller creates
  /// and removes it.
  std::string tmp_dir;
  /// Scale overrides for tests (0 = the workload's fixed size).
  std::size_t houses = 0;
  int minutes = 0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  MetricSet metrics;
  std::vector<Span> spans;
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (untraced runs) and per-layer metric (traced
/// runs), in report order. Each run reports every metric of its kind; a
/// layer a workload does not exercise reports 0.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// True for per-layer metrics that are exact simulation or protocol
/// counts: the same seed must reproduce them bit for bit.
[[nodiscard]] bool is_exact_metric(std::string_view name);

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name;
/// output-check failures are reported in the Outcome, not thrown.
[[nodiscard]] Outcome run_workload(const std::string& name, const RunOptions& opts);

}  // namespace perfbench
