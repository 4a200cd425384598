#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument{"median of an empty sample"};
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

namespace {

/// Index of the nearest-rank percentile `p` among `n` sorted samples.
[[nodiscard]] std::size_t rank_index(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument{"percentile outside (0, 100]"};
  // Round before ceil so 99 % of 1000 is rank 990, not 991 from FP noise.
  const double exact = std::round(p / 100.0 * static_cast<double>(n) * 1e9) / 1e9;
  const auto rank = static_cast<std::size_t>(std::ceil(exact));
  return std::max<std::size_t>(rank, 1) - 1;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument{"percentile of an empty sample"};
  const std::size_t idx = rank_index(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - (rank_index(n, p) + 1);
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

OpenLoopSamples open_loop_samples(const std::vector<FrameTimes>& frames) {
  OpenLoopSamples out;
  out.latency_us.reserve(frames.size());
  out.lag_us.reserve(frames.size());
  for (const auto& f : frames) {
    out.latency_us.push_back(std::chrono::duration<double, std::micro>(f.acked - f.due).count());
    out.lag_us.push_back(
        std::max(0.0, std::chrono::duration<double, std::micro>(f.sent - f.due).count()));
  }
  return out;
}

Clock::time_point due_time(Clock::time_point start, double frames_per_s, std::size_t i) {
  const double offset_s = static_cast<double>(i) / frames_per_s;
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

std::string_view layer_of(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::uint32_t Tracer::open(std::string name) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  spans_.at(id - 1).end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  // Spans close innermost-first; tolerate a scope closed out of order.
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

void write_spans_jsonl(const std::string& path, const std::string& run_id,
                       const std::vector<Span>& spans) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"cannot write spans to " + path};
  for (const Span& s : spans) {
    // Span names and run ids are built from the metric-name charset and
    // need no escaping (checked here, not assumed).
    if (!valid_metric_name(s.name) || !valid_metric_name(run_id)) {
      throw std::runtime_error{"span name or run id outside [A-Za-z0-9_.-]: " + s.name};
    }
    os << "{\"run\":\"" << run_id << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  if (!os) throw std::runtime_error{"cannot write spans to " + path};
}

std::int64_t self_ns(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& c : children) {
    const std::int64_t a = std::max(c.start_ns, span.start_ns);
    const std::int64_t b = std::min(c.end_ns, span.end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (span.end_ns - span.start_ns) - covered;
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  LayerTimes out;
  static const std::vector<Span> kNone;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double self = static_cast<double>(self_ns(s, it == children.end() ? kNone : it->second));
    out.self_s[std::string{layer_of(s.name)}] += self / 1e9;
    if (s.parent == 0) out.root_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument{"invalid metric name: " + name};
  if (!valid_unit(unit)) throw std::invalid_argument{"invalid unit for " + name + ": " + unit};
  if (!std::isfinite(value)) throw std::invalid_argument{"non-finite value for " + name};
  metrics_[name] = Metric{value, unit};
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const MetricSet& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics.all()) {
    char num[64];
    if (m.value == std::floor(m.value) && std::fabs(m.value) < 1e15) {
      std::snprintf(num, sizeof num, "%.0f", m.value);
    } else {
      std::snprintf(num, sizeof num, "%.17g", m.value);
    }
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"value\":" + num + ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // Linux reports KiB
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace perfbench
