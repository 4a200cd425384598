// dnsctx benchmark — workload-independent machinery: sample statistics
// (median, the tail-percentile rule), open-loop timing, the span recorder
// behind the traced run, the metric table the run prints, and process
// resource probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- statistics -------------------------------------------------------------

/// Median of `v` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least p % of the samples at or below it. Throws on an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The tail rule: of the percentiles 99.9, 99, 95, 90, 75 and 50, the
/// highest that leaves at least 10 samples beyond it; nullopt when even
/// the median does not (fewer than 20 samples).
[[nodiscard]] std::optional<double> highest_supported_percentile(std::size_t n);

// ---- open-loop timing -------------------------------------------------------

/// One open-loop frame: when it was due, when the generator actually
/// started sending it, and when its ack arrived.
struct FrameTimes {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point acked;
};

/// Per-frame latency measured from the DUE time (so a stalled generator
/// charges its stall to every frame queued behind it) and per-frame
/// sender lag (how late the generator ran), both in microseconds.
struct OpenLoopSamples {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
};
[[nodiscard]] OpenLoopSamples open_loop_samples(const std::vector<FrameTimes>& frames);

/// Due time of frame `i` for a fixed offered rate starting at `start`.
[[nodiscard]] Clock::time_point due_time(Clock::time_point start, double frames_per_s,
                                         std::size_t i);

// ---- spans ------------------------------------------------------------------

/// One traced call. `parent` is 0 for a root span; ids start at 1.
/// A span's layer is its name up to the first '.'.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

[[nodiscard]] std::string_view layer_of(std::string_view span_name);

/// Records spans in memory while enabled; a disabled tracer costs one
/// branch per scope. Single-threaded: spans nest on the caller's stack.
class Tracer {
 public:
  Tracer() : epoch_{Clock::now()} {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its id (0 when
  /// disabled).
  std::uint32_t open(std::string name);
  void close(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span around one call into a layer.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name) : tracer_{t}, id_{t.open(std::move(name))} {}
  ~SpanScope() { end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Close the span before the scope ends (idempotent).
  void end() {
    tracer_.close(id_);
    id_ = 0;
  }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Write every span as one JSON object per line, each carrying the run
/// id. Throws std::runtime_error when the file cannot be written.
void write_spans_jsonl(const std::string& path, const std::string& run_id,
                       const std::vector<Span>& spans);

/// Self time of one span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
[[nodiscard]] std::int64_t self_ns(const Span& span, const std::vector<Span>& children);

/// Self time summed per layer over every span, and the total duration of
/// the root spans (the traced wall time).
struct LayerTimes {
  std::map<std::string, double> self_s;
  double root_s = 0.0;
};
[[nodiscard]] LayerTimes layer_times(const std::vector<Span>& spans);

// ---- metrics ----------------------------------------------------------------

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters. Units: at most 16 of letters, digits, '_',
/// '/', '%', '.', '-'. Both charsets need no JSON escaping.
[[nodiscard]] bool valid_metric_name(std::string_view name);
[[nodiscard]] bool valid_unit(std::string_view unit);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Name-sorted metric table; set() rejects invalid names, units and
/// non-finite values with std::invalid_argument.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Values print with 17 significant digits (integral values exactly).
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const MetricSet& metrics);

// ---- process resources ------------------------------------------------------

[[nodiscard]] double peak_rss_kib();
[[nodiscard]] double process_cpu_s();

}  // namespace perfbench
