#include "scenario/pack.hpp"

#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "scenario/config_io.hpp"
#include "util/strings.hpp"

namespace dnsctx::scenario {

namespace {

/// Optionally double-quoted string (quotes required when the value
/// could be mistaken for syntax; bare tokens are fine otherwise).
[[nodiscard]] std::string parse_string(std::string_view v) {
  if (!v.empty() && v.front() == '"') {
    if (v.size() < 2 || v.back() != '"') {
      throw std::runtime_error{"unterminated quoted string"};
    }
    const std::string_view inner = v.substr(1, v.size() - 2);
    if (inner.find('"') != std::string_view::npos) {
      throw std::runtime_error{"stray '\"' inside quoted string"};
    }
    return std::string{inner};
  }
  if (v.find('"') != std::string_view::npos) {
    throw std::runtime_error{"stray '\"' in unquoted value"};
  }
  return std::string{v};
}

[[nodiscard]] bool valid_pack_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

PackInfo apply_pack(std::string_view text, const std::string& source,
                    ScenarioConfig* cfg) {
  PackInfo info;
  EndOfFileChecks checks{source};

  // The pack grammar's own keys, keyed "section.key". Every other key is
  // a knob-table row (config_io.hpp) whose pack_key names it, so a value
  // gets the same rule here as in a config file.
  using Setter = std::function<void(std::string_view)>;
  const std::unordered_map<std::string, Setter> own_keys = {
      {"pack.name",
       [&](auto v) {
         const std::string name = parse_string(v);
         if (!valid_pack_name(name)) {
           throw std::runtime_error{
               "pack name must be 1-64 chars of [A-Za-z0-9._-]"};
         }
         info.name = name;
       }},
      {"pack.description", [&](auto v) { info.description = parse_string(v); }},
      {"diurnal.profile",
       [&](auto v) {
         const std::string p = parse_string(v);
         auto& hours = cfg->tuning.diurnal_hours;
         if (p == "residential") {
           hours = traffic::kResidentialHours;
         } else if (p == "office") {
           hours = traffic::kOfficeHours;
         } else if (p == "flat") {
           hours.fill(1.0);
         } else {
           throw std::runtime_error{
               "unknown diurnal profile '" + p +
               "' (expected residential, flat, or office)"};
         }
       }},
  };

  static const std::unordered_set<std::string> kSections = {
      "pack", "mix",     "scenario", "zones",  "devices",
      "apps", "web",     "diurnal",  "faults", "transport"};

  const auto fail = [&source](std::size_t line_no, const std::string& msg) {
    throw std::runtime_error{
        strfmt("%s line %zu: %s", source.c_str(), line_no, msg.c_str())};
  };

  std::string section;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                      : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const std::string_view stripped = trim(raw);
    if (stripped.empty() || stripped.front() == '#' || stripped.front() == ';') {
      continue;
    }
    if (stripped.front() == '[') {
      if (stripped.back() != ']') {
        fail(line_no, "malformed section header (expected [name])");
      }
      const std::string name{trim(stripped.substr(1, stripped.size() - 2))};
      if (kSections.find(name) == kSections.end()) {
        fail(line_no, "unknown section '[" + name + "]'");
      }
      section = name;
      continue;
    }
    const auto eq = stripped.find('=');
    if (eq == std::string_view::npos) {
      fail(line_no, "expected key = value");
    }
    const std::string key{trim(stripped.substr(0, eq))};
    const std::string_view value = trim(stripped.substr(eq + 1));
    if (section.empty()) {
      fail(line_no, "key '" + key + "' appears before any [section]");
    }
    const std::string section_key = section + "." + key;
    const Knob* knob = find_pack_knob(section_key);
    const auto own = own_keys.find(section_key);
    if (knob == nullptr && own == own_keys.end()) {
      fail(line_no, "unknown key '" + key + "' in section [" + section + "]");
    }
    const std::string where =
        strfmt("%s line %zu: key '%s'", source.c_str(), line_no, key.c_str());
    try {
      if (knob == nullptr) {
        own->second(value);
      } else {
        knob->parse(*cfg, knob->quoted ? parse_string(value) : std::string{value});
      }
    } catch (const std::exception& e) {
      throw std::runtime_error{where + ": " + e.what()};
    }
    if (knob != nullptr) checks.note(*knob, where);
  }

  if (info.name.empty()) {
    throw std::runtime_error{source + ": pack is missing required [pack] name"};
  }
  // Cross-key constraints last, so they see the final state no matter
  // the key order in the file.
  checks.run(*cfg);
  cfg->pack = info.name;
  return info;
}

PackInfo apply_pack_file(const std::string& path, ScenarioConfig* cfg) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"pack: cannot open " + path};
  std::ostringstream buf;
  buf << is.rdbuf();
  return apply_pack(buf.str(), path, cfg);
}

}  // namespace dnsctx::scenario
