#include "scenario/config_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/cli.hpp"
#include "util/strings.hpp"

namespace dnsctx::scenario {

namespace {

/// Leading/trailing blanks (and a trailing CR) of one line or value.
[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Strict numeric parse: the whole token must be consumed, values must
/// be representable, and doubles must be finite (std::from_chars'
/// general format happily accepts "inf"/"nan" — reject those here, a
/// NaN probability would silently disable every bernoulli draw).
template <typename T>
[[nodiscard]] T parse_number(std::string_view v) {
  T out{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc::result_out_of_range) {
    throw std::runtime_error{
        strfmt("number '%.*s' is out of range", static_cast<int>(v.size()), v.data())};
  }
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    throw std::runtime_error{
        strfmt("bad number '%.*s'", static_cast<int>(v.size()), v.data())};
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) {
      throw std::runtime_error{strfmt("number '%.*s' must be finite",
                                      static_cast<int>(v.size()), v.data())};
    }
  }
  return out;
}

/// Throws "<what> '<v>' must be <rule>" unless `ok`.
void require(bool ok, std::string_view v, const char* rule, const char* what = "value") {
  if (!ok) {
    throw std::runtime_error{
        strfmt("%s '%.*s' must be %s", what, static_cast<int>(v.size()), v.data(), rule)};
  }
}

[[nodiscard]] double parse_prob(std::string_view v) {
  const double p = parse_number<double>(v);
  require(p >= 0.0 && p <= 1.0, v, "in [0, 1]", "probability");
  return p;
}

[[nodiscard]] double parse_positive(std::string_view v) {
  const double x = parse_number<double>(v);
  require(x > 0.0, v, "> 0");
  return x;
}

[[nodiscard]] double parse_non_negative(std::string_view v) {
  const double x = parse_number<double>(v);
  require(x >= 0.0, v, ">= 0");
  return x;
}

template <typename T>
[[nodiscard]] T parse_min1(std::string_view v) {
  const T n = parse_number<T>(v);
  require(n >= 1, v, ">= 1");
  return n;
}

[[nodiscard]] SimDuration parse_duration_hours(std::string_view v) {
  return SimDuration::hours(parse_min1<int>(v));
}

[[nodiscard]] int parse_hour_of_day(std::string_view v) {
  const int h = parse_number<int>(v);
  if (h < 0 || h > 23) throw std::runtime_error{"start_hour must be in [0, 23]"};
  return h;
}

[[nodiscard]] netsim::Transport parse_transport(std::string_view v) {
  if (const auto t = netsim::parse_transport(v)) return *t;
  throw std::runtime_error{
      strfmt("unknown transport '%.*s' (expected do53, dot, doh, or resolverless)",
             static_cast<int>(v.size()), v.data())};
}

/// A fault plan whose outage targets all name a service, so a typo fails
/// here, with the flag or line named, rather than when the town is built.
[[nodiscard]] faults::FaultPlan parse_faults(std::string_view v) {
  faults::FaultPlan plan = faults::FaultPlan::parse(v);
  for (const faults::Outage& o : plan.outages) (void)resolve_outage_target(o.target);
  return plan;
}

[[nodiscard]] bool parse_switch(std::string_view v) { return parse_number<int>(v) != 0; }

/// A pack name: 1-64 chars of [A-Za-z0-9._-].
[[nodiscard]] std::string parse_pack_name(std::string_view v) {
  bool ok = !v.empty() && v.size() <= 64;
  for (const char c : v) {
    ok = ok && ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                c == '.' || c == '_' || c == '-');
  }
  if (!ok) throw std::runtime_error{"pack name must be 1-64 chars of [A-Za-z0-9._-]"};
  return std::string{v};
}

/// A named diurnal table (residential, office, flat) or 24 comma-separated
/// hour multipliers, checked as a diurnal table.
[[nodiscard]] std::array<double, 24> parse_hours(std::string_view v) {
  std::array<double, 24> out{};
  if (v == "residential") return traffic::kResidentialHours;
  if (v == "office") return traffic::kOfficeHours;
  if (v == "flat") {
    out.fill(1.0);
    return out;
  }
  if (v.find(',') == std::string_view::npos) {
    throw std::runtime_error{
        strfmt("unknown diurnal table '%.*s' (expected residential, office, flat, or 24 "
               "comma-separated hour values)",
               static_cast<int>(v.size()), v.data())};
  }
  std::size_t idx = 0;
  while (true) {
    const auto comma = v.find(',');
    const std::string_view tok = trim(v.substr(0, comma));
    if (idx >= out.size()) throw std::runtime_error{"expected exactly 24 hour values"};
    out[idx++] = parse_number<double>(tok);
    if (comma == std::string_view::npos) break;
    v.remove_prefix(comma + 1);
  }
  if (idx != out.size()) throw std::runtime_error{"expected exactly 24 hour values"};
  (void)traffic::DiurnalProfile::custom(out);
  return out;
}

/// Shortest text that parses back to the same number (doubles exactly).
template <typename T>
  requires std::is_arithmetic_v<T>
[[nodiscard]] std::string to_text(T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, res.ptr};
}
[[nodiscard]] std::string to_text(bool v) { return v ? "1" : "0"; }
[[nodiscard]] std::string to_text(const std::string& v) { return v; }
[[nodiscard]] std::string to_text(SimDuration d) {
  return to_text(d.count_us() / 3'600'000'000LL);
}
[[nodiscard]] std::string to_text(netsim::Transport t) {
  return std::string{netsim::to_string(t)};
}
[[nodiscard]] std::string to_text(const faults::FaultPlan& plan) { return plan.to_string(); }
[[nodiscard]] std::string to_text(const std::array<double, 24>& hours) {
  std::string out;
  for (const double h : hours) {
    if (!out.empty()) out += ',';
    out += to_text(h);
  }
  return out;
}

enum KnobFlags : unsigned { kAlways = 0, kIfChanged = 1, kRunShape = 2 };

/// A row for the field reached from ScenarioConfig by the member
/// pointers `Path`, stored as `Parse(value)` and written by to_text.
template <auto Parse, auto... Path>
[[nodiscard]] constexpr Knob knob(std::string_view key, unsigned flags = kAlways) {
  return Knob{key, [](ScenarioConfig& c, std::string_view v) { (c .* ... .* Path) = Parse(v); },
              [](const ScenarioConfig& c) { return to_text((c .* ... .* Path)); },
              (flags & kIfChanged) == 0, (flags & kRunShape) != 0};
}

/// A TrafficTuning row: written only when changed, so snapshots of
/// pre-pack configs keep their bytes.
template <auto Parse, auto... Path>
[[nodiscard]] constexpr Knob tuning_knob(std::string_view key) {
  return knob<Parse, &ScenarioConfig::tuning, Path...>(key, kIfChanged);
}

constexpr auto parse_count = parse_number<std::size_t>;
constexpr auto parse_count_min1 = parse_min1<std::size_t>;

using Cfg = ScenarioConfig;
using Mix = HouseProfileMix;
using Zones = resolver::ZoneDbConfig;
using Tun = traffic::TrafficTuning;
using Web = traffic::WebFanout;

/// Every ScenarioConfig field, in save_config order.
constexpr Knob kKnobs[] = {
    knob<parse_number<std::uint64_t>, &Cfg::seed>("seed", kRunShape),
    knob<parse_count_min1, &Cfg::houses>("houses", kRunShape),
    knob<parse_duration_hours, &Cfg::duration>("duration_hours", kRunShape),
    knob<parse_hour_of_day, &Cfg::start_hour>("start_hour"),
    knob<parse_count, &Cfg::shards>("shards", kRunShape),
    knob<parse_number<unsigned>, &Cfg::threads>("threads", kRunShape),
    knob<parse_positive, &Cfg::activity_scale>("activity_scale"),
    knob<parse_prob, &Cfg::ttl_violation_prob>("ttl_violation_prob"),
    knob<parse_prob, &Cfg::dead_ntp_frac>("dead_ntp_frac"),
    knob<parse_prob, &Cfg::p2p_house_frac>("p2p_house_frac"),
    knob<parse_prob, &Cfg::whole_house_cache_frac>("whole_house_cache_frac"),
    knob<parse_faults, &Cfg::faults>("faults", kIfChanged),
    knob<parse_transport, &Cfg::transport>("transport", kIfChanged),
    knob<parse_switch, &Cfg::collect_truth>("collect_truth", kIfChanged | kRunShape),
    knob<parse_pack_name, &Cfg::pack>("pack", kIfChanged),
    knob<parse_prob, &Cfg::mix, &Mix::isp_only>("mix.isp_only"),
    knob<parse_prob, &Cfg::mix, &Mix::cloudflare>("mix.cloudflare"),
    knob<parse_prob, &Cfg::mix, &Mix::no_isp>("mix.no_isp"),
    knob<parse_prob, &Cfg::mix, &Mix::opendns_in_mixed>("mix.opendns_in_mixed"),
    knob<parse_count_min1, &Cfg::zones, &Zones::web_sites>("zones.web_sites"),
    knob<parse_count_min1, &Cfg::zones, &Zones::cdn_domains>("zones.cdn_domains"),
    knob<parse_count, &Cfg::zones, &Zones::ad_domains>("zones.ad_domains"),
    knob<parse_count, &Cfg::zones, &Zones::tracker_domains>("zones.tracker_domains"),
    knob<parse_count, &Cfg::zones, &Zones::api_domains>("zones.api_domains"),
    knob<parse_count_min1, &Cfg::zones, &Zones::video_sites>("zones.video_sites"),
    knob<parse_count, &Cfg::zones, &Zones::other_names>("zones.other_names"),
    knob<parse_positive, &Cfg::zones, &Zones::zipf_exponent>("zones.zipf_exponent"),
    knob<parse_count_min1, &Cfg::zones, &Zones::edges_per_cdn>("zones.edges_per_cdn"),
    knob<parse_count_min1, &Cfg::zones, &Zones::hosting_pool_ips>("zones.hosting_pool_ips"),
    tuning_knob<parse_count_min1, &Tun::computers_min>("tuning.computers_min"),
    tuning_knob<parse_count, &Tun::computers_max>("tuning.computers_max"),
    tuning_knob<parse_count_min1, &Tun::computers_light>("tuning.computers_light"),
    tuning_knob<parse_prob, &Tun::android_extra_prob>("tuning.android_extra_prob"),
    tuning_knob<parse_prob, &Tun::apple_prob>("tuning.apple_prob"),
    tuning_knob<parse_prob, &Tun::apple_prob_light>("tuning.apple_prob_light"),
    tuning_knob<parse_prob, &Tun::tv_prob>("tuning.tv_prob"),
    tuning_knob<parse_prob, &Tun::tv_prob_light>("tuning.tv_prob_light"),
    tuning_knob<parse_count, &Tun::iot_min>("tuning.iot_min"),
    tuning_knob<parse_count, &Tun::iot_max>("tuning.iot_max"),
    tuning_knob<parse_prob, &Tun::alarm_prob>("tuning.alarm_prob"),
    tuning_knob<parse_positive, &Tun::browser_session_scale>("tuning.browser_session_scale"),
    tuning_knob<parse_positive, &Tun::video_session_scale>("tuning.video_session_scale"),
    tuning_knob<parse_positive, &Tun::background_poll_scale>("tuning.background_poll_scale"),
    tuning_knob<parse_positive, &Tun::pages_per_session_scale>("tuning.pages_per_session_scale"),
    tuning_knob<parse_positive, &Tun::conncheck_scale>("tuning.conncheck_scale"),
    tuning_knob<parse_prob, &Tun::prefetch_prob>("tuning.prefetch_prob"),
    tuning_knob<parse_prob, &Tun::household_site_prob>("tuning.household_site_prob"),
    tuning_knob<parse_prob, &Tun::junk_probe_prob>("tuning.junk_probe_prob"),
    tuning_knob<parse_non_negative, &Tun::junk_queries_per_hour>("tuning.junk_queries_per_hour"),
    tuning_knob<parse_count, &Tun::web, &Web::cdn_min>("tuning.web_cdn_min"),
    tuning_knob<parse_count, &Tun::web, &Web::cdn_max>("tuning.web_cdn_max"),
    tuning_knob<parse_count, &Tun::web, &Web::ad_min>("tuning.web_ad_min"),
    tuning_knob<parse_count, &Tun::web, &Web::ad_max>("tuning.web_ad_max"),
    tuning_knob<parse_count, &Tun::web, &Web::tracker_min>("tuning.web_tracker_min"),
    tuning_knob<parse_count, &Tun::web, &Web::tracker_max>("tuning.web_tracker_max"),
    tuning_knob<parse_count, &Tun::web, &Web::api_min>("tuning.web_api_min"),
    tuning_knob<parse_count, &Tun::web, &Web::api_max>("tuning.web_api_max"),
    tuning_knob<parse_count, &Tun::web, &Web::links_min>("tuning.web_links_min"),
    tuning_knob<parse_count, &Tun::web, &Web::links_max>("tuning.web_links_max"),
    tuning_knob<parse_hours, &Tun::diurnal_hours>("tuning.diurnal_hours"),
};

void set(const Knob& knob, ScenarioConfig& cfg, std::string_view value,
         const std::string& where) {
  try {
    knob.parse(cfg, value);
  } catch (const std::exception& e) {
    throw std::runtime_error{where + ": " + e.what()};
  }
}

/// A retired key: it sent cleartext DNS to port 853. Every snapshot
/// saved while it existed wrote it as 0, so 0 still loads and does
/// nothing; any other value is refused.
constexpr std::string_view kRetiredEncryptedFrac = "encrypted_dns_device_frac";

void check_retired_encrypted_frac(std::string_view value, const std::string& where) {
  double v = 1.0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc{} || ptr != value.data() + value.size() || v != 0.0) {
    throw std::runtime_error{where +
                             " is retired and loads only as 0 (encrypted DNS is now "
                             "transport = dot)"};
  }
}

/// The mix and tuning checks (HouseProfileMix::validate,
/// TrafficTuning::validate), each failure prefixed with the place that
/// last set a key of its group.
void check_groups(const ScenarioConfig& cfg, const std::string& mix_at,
                  const std::string& tuning_at) {
  const auto check = [](const std::string& at, const auto& part) {
    try {
      part.validate();
    } catch (const std::exception& e) {
      throw std::runtime_error{at + ": " + e.what()};
    }
  };
  check(mix_at, cfg.mix);
  check(tuning_at, cfg.tuning);
}

/// The config-key spelling of each section of the retired sectioned
/// pack grammar, for the error that refuses its header line.
constexpr std::pair<std::string_view, std::string_view> kSectionSpellings[] = {
    {"[pack]", "pack = NAME, the description as a # comment"},
    {"[scenario]", "KEY = VALUE"},
    {"[mix]", "mix.KEY = VALUE"},
    {"[zones]", "zones.KEY = VALUE"},
    {"[devices]", "tuning.KEY = VALUE"},
    {"[apps]", "tuning.KEY = VALUE"},
    {"[web]", "tuning.web_KEY = VALUE"},
    {"[diurnal]", "tuning.diurnal_hours = PROFILE or 24 hour values"},
    {"[faults]", "faults = PLAN"},
    {"[transport]", "transport = NAME"},
};

[[nodiscard]] std::string refuse_section(std::string_view line) {
  for (const auto& [section, spelling] : kSectionSpellings) {
    if (line == section) {
      return strfmt("sections are not read; write %.*s keys as %.*s",
                    static_cast<int>(section.size()), section.data(),
                    static_cast<int>(spelling.size()), spelling.data());
    }
  }
  return "sections are not read; write config keys, e.g. tuning.web_cdn_min = 3";
}

/// The one line loop behind config files and packs: `key = value` lines,
/// `#` comment lines and blank lines, each value set through its knob
/// row, the mix and tuning checks once the last line is in. A pack must
/// set `pack` and may not set a run-shape key.
void read_lines(std::istream& is, const std::string& source, bool is_pack,
                ScenarioConfig& cfg) {
  std::string mix_at = source;
  std::string tuning_at = source;
  bool named = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const std::string at = strfmt("%s line %zu", source.c_str(), line_no);
    if (stripped.front() == '[') throw std::runtime_error{at + ": " + refuse_section(stripped)};
    const auto eq = stripped.find('=');
    if (eq == std::string_view::npos) throw std::runtime_error{at + ": expected key = value"};
    const std::string key{trim(stripped.substr(0, eq))};
    const std::string_view value = trim(stripped.substr(eq + 1));
    const std::string where = at + ": key '" + key + "'";
    if (key == kRetiredEncryptedFrac) {
      check_retired_encrypted_frac(value, where);
      continue;
    }
    const Knob* knob = find_knob(key);
    if (knob == nullptr) throw std::runtime_error{at + ": unknown key '" + key + "'"};
    if (is_pack && knob->run_shape) {
      throw std::runtime_error{where + " is run shape, which a pack may not set"};
    }
    set(*knob, cfg, value, where);
    if (key.starts_with("mix.")) mix_at = where;
    if (key.starts_with("tuning.")) tuning_at = where;
    named = named || key == "pack";
  }
  if (is_pack && !named) throw std::runtime_error{source + ": a pack must set pack = NAME"};
  check_groups(cfg, mix_at, tuning_at);
}

}  // namespace

const Knob* find_knob(std::string_view key) {
  for (const Knob& k : kKnobs) {
    if (k.key == key) return &k;
  }
  return nullptr;
}

void set_knob(ScenarioConfig& cfg, std::string_view key, std::string_view value,
              const std::string& where) {
  const Knob* knob = find_knob(key);
  if (knob == nullptr) {
    throw std::logic_error{strfmt("set_knob: no knob '%.*s'", static_cast<int>(key.size()),
                                  key.data())};
  }
  set(*knob, cfg, value, where);
  check_groups(cfg, where, where);
}

void set_flag_knobs(ScenarioConfig& cfg, const CliArgs& args) {
  static constexpr std::pair<const char*, std::string_view> kFlagKnobs[] = {
      {"houses", "houses"},         {"hours", "duration_hours"}, {"seed", "seed"},
      {"start-hour", "start_hour"}, {"shards", "shards"},        {"threads", "threads"},
      {"transport", "transport"},   {"faults", "faults"}};
  for (const auto& [flag, key] : kFlagKnobs) {
    if (const auto value = args.option(flag)) {
      set_knob(cfg, key, *value, std::string{"--"} + flag);
    }
  }
}

void save_config(std::ostream& os, const ScenarioConfig& cfg) {
  static const ScenarioConfig kDefaults{};
  os << "# dnsctx scenario configuration\n";
  for (const Knob& k : kKnobs) {
    const std::string value = k.text(cfg);
    if (k.always || value != k.text(kDefaults)) os << k.key << " = " << value << "\n";
  }
}

void save_config_file(const std::string& path, const ScenarioConfig& cfg) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"save_config_file: cannot open " + path};
  save_config(os, cfg);
}

ScenarioConfig load_config(std::istream& is, const std::string& source) {
  ScenarioConfig cfg;
  read_lines(is, source, false, cfg);
  return cfg;
}

ScenarioConfig load_config_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"load_config_file: cannot open " + path};
  return load_config(is, path);
}

std::string apply_pack(std::string_view text, const std::string& source, ScenarioConfig* cfg) {
  std::istringstream is{std::string{text}};
  read_lines(is, source, true, *cfg);
  return cfg->pack;
}

std::string apply_pack_file(const std::string& path, ScenarioConfig* cfg) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"pack: cannot open " + path};
  read_lines(is, path, true, *cfg);
  return cfg->pack;
}

}  // namespace dnsctx::scenario
