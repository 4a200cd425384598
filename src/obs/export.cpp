#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace dnsctx::obs {

namespace {

constexpr const char* kPrefix = "dnsctx_";

/// Family name = series name up to the label block.
[[nodiscard]] std::string family_of(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Label block of a series name ("" when unlabelled), without braces.
[[nodiscard]] std::string labels_of(const std::string& name) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return {};
  return name.substr(brace + 1, name.size() - brace - 2);
}

/// Shortest round-trip double rendering (%.17g is exact but noisy; %g at
/// 15 digits is stable across libcs for the values we export).
[[nodiscard]] std::string num(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return buf;
}

void emit_type_line(std::string& out, std::string& last_family, const std::string& name,
                    const char* type) {
  const std::string family = kPrefix + family_of(name);
  if (family != last_family) {
    out += "# TYPE " + family + " " + type + "\n";
    last_family = family;
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // Remaining control chars (RFC 8259 requires escaping < 0x20).
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_family;
  const auto line = [&out](const std::string& series, const std::string& value) {
    out += kPrefix;
    out += series;
    out += " ";
    out += value;
    out += "\n";
  };
  for (const auto& c : snap.counters) {
    emit_type_line(out, last_family, c.name, "counter");
    line(c.name, std::to_string(c.value));
  }
  for (const auto& g : snap.gauges) {
    emit_type_line(out, last_family, g.name, "gauge");
    line(g.name, num(g.value));
  }
  for (const auto& h : snap.histograms) {
    emit_type_line(out, last_family, h.name, "histogram");
    const std::string family = family_of(h.name);
    std::string labels = labels_of(h.name);
    if (!labels.empty()) labels += ",";
    for (const auto& [le, count] : h.buckets) {
      line(family + "_bucket{" + labels + "le=\"" + num(le) + "\"}", std::to_string(count));
    }
    line(family + "_bucket{" + labels + "le=\"+Inf\"}", std::to_string(h.count));
    const std::string raw = labels_of(h.name);
    const std::string suffix = raw.empty() ? std::string{} : "{" + raw + "}";
    line(family + "_sum" + suffix, num(h.sum_seconds));
    line(family + "_count" + suffix, std::to_string(h.count));
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":{";
  const auto key = [&out](const std::string& name) {
    out += "\"";
    out += json_escape(name);
    out += "\":";
  };
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) out += ",";
    key(snap.counters[i].name);
    out += std::to_string(snap.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) out += ",";
    key(snap.gauges[i].name);
    out += num(snap.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i) out += ",";
    key(h.name);
    out += "{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum_seconds\":";
    out += num(h.sum_seconds);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) out += ",";
      out += "[";
      out += num(h.buckets[b].first);
      out += ",";
      out += std::to_string(h.buckets[b].second);
      out += "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string to_flat_json(const MetricsSnapshot& snap) {
  std::string out = "{";
  bool first = true;
  const auto emit = [&](const std::string& name, const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(name);
    out += "\":";
    out += value;
  };
  for (const auto& c : snap.counters) emit(c.name, std::to_string(c.value));
  for (const auto& g : snap.gauges) emit(g.name, num(g.value));
  for (const auto& h : snap.histograms) {
    emit(h.name + "_count", std::to_string(h.count));
    emit(h.name + "_sum_seconds", num(h.sum_seconds));
  }
  out += "}";
  return out;
}

void write_metrics_file(const std::string& path) {
  const MetricsSnapshot snap = registry().snapshot();
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"cannot write metrics file: " + path};
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  os << (json ? to_json(snap) : to_prometheus(snap));
  if (!json) return;
  os << "\n";
}

}  // namespace dnsctx::obs
