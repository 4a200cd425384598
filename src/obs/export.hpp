// dnsctx — metric exporters: Prometheus text exposition and JSON.
//
// Both render a MetricsSnapshot deterministically (series sorted by
// name, fixed number formatting), so the exporter output for a fixed
// snapshot is testable byte for byte.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace dnsctx::obs {

/// Prometheus text exposition format. Series are grouped into families
/// by the name before the label block and prefixed "dnsctx_";
/// histograms expand into `_bucket{le=...}` / `_sum` / `_count`.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap);

/// Structured JSON document:
///   {"counters":{...},"gauges":{...},
///    "histograms":{name:{"count":..,"sum_seconds":..,"buckets":[[le,c],..]}}}
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);

/// One flat JSON object {"name":value,...} merging counters, gauges,
/// and histogram `<name>_count` / `<name>_sum_seconds` — the shape the
/// bench `--json` records embed under their "metrics" key so
/// tools/bench_compare.py can gate on internal metrics.
[[nodiscard]] std::string to_flat_json(const MetricsSnapshot& snap);

/// `s` escaped for use inside a JSON string literal (RFC 8259: quote,
/// backslash and every control character), without the quotes.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Scrape the global registry and write it to `path` — JSON when the
/// path ends in ".json", Prometheus text otherwise. Throws
/// std::runtime_error when the file cannot be written.
void write_metrics_file(const std::string& path);

}  // namespace dnsctx::obs
