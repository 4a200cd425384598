#include "scenario/config_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "util/cli.hpp"
#include "util/strings.hpp"

namespace dnsctx::scenario {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

namespace {

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

[[nodiscard]] std::string parse_text(std::string_view v) { return std::string{v}; }

/// 24 comma-separated hour multipliers, checked as a diurnal table.
[[nodiscard]] std::array<double, 24> parse_hours(std::string_view v) {
  std::array<double, 24> out{};
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

enum KnobFlags : unsigned { kAlways = 0, kIfChanged = 1, kQuoted = 2 };

/// A row for the field reached from ScenarioConfig by the member
/// pointers `Path`, stored as `Parse(value)` and written by to_text.
template <auto Parse, auto... Path>
[[nodiscard]] constexpr Knob knob(std::string_view key, std::string_view pack_key = {},
                                  unsigned flags = kAlways) {
  return Knob{key, pack_key,
              [](ScenarioConfig& c, std::string_view v) { (c .* ... .* Path) = Parse(v); },
              [](const ScenarioConfig& c) { return to_text((c .* ... .* Path)); },
              (flags & kIfChanged) == 0, (flags & kQuoted) != 0};
}

/// A TrafficTuning row: written only when changed, so snapshots of
/// pre-pack configs keep their bytes.
template <auto Parse, auto... Path>
[[nodiscard]] constexpr Knob tuning_knob(std::string_view key, std::string_view pack_key) {
  return knob<Parse, &ScenarioConfig::tuning, Path...>(key, pack_key, kIfChanged);
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
    knob<parse_number<std::uint64_t>, &Cfg::seed>("seed"),
    knob<parse_count_min1, &Cfg::houses>("houses"),
    knob<parse_duration_hours, &Cfg::duration>("duration_hours"),
    knob<parse_hour_of_day, &Cfg::start_hour>("start_hour", "scenario.start_hour"),
    knob<parse_count, &Cfg::shards>("shards"),
    knob<parse_number<unsigned>, &Cfg::threads>("threads"),
    knob<parse_positive, &Cfg::activity_scale>("activity_scale", "scenario.activity_scale"),
    knob<parse_prob, &Cfg::ttl_violation_prob>("ttl_violation_prob",
                                               "scenario.ttl_violation_prob"),
    knob<parse_prob, &Cfg::dead_ntp_frac>("dead_ntp_frac", "scenario.dead_ntp_frac"),
    knob<parse_prob, &Cfg::p2p_house_frac>("p2p_house_frac", "scenario.p2p_house_frac"),
    knob<parse_prob, &Cfg::whole_house_cache_frac>("whole_house_cache_frac",
                                                   "scenario.whole_house_cache_frac"),
    knob<parse_faults, &Cfg::faults>("faults", "faults.plan", kIfChanged | kQuoted),
    knob<parse_transport, &Cfg::transport>("transport", "transport.default",
                                           kIfChanged | kQuoted),
    knob<parse_switch, &Cfg::collect_truth>("collect_truth", {}, kIfChanged),
    knob<parse_text, &Cfg::pack>("pack", {}, kIfChanged),
    knob<parse_prob, &Cfg::mix, &Mix::isp_only>("mix.isp_only", "mix.isp_only"),
    knob<parse_prob, &Cfg::mix, &Mix::cloudflare>("mix.cloudflare", "mix.cloudflare"),
    knob<parse_prob, &Cfg::mix, &Mix::no_isp>("mix.no_isp", "mix.no_isp"),
    knob<parse_prob, &Cfg::mix, &Mix::opendns_in_mixed>("mix.opendns_in_mixed",
                                                        "mix.opendns_in_mixed"),
    knob<parse_count_min1, &Cfg::zones, &Zones::web_sites>("zones.web_sites", "zones.web_sites"),
    knob<parse_count_min1, &Cfg::zones, &Zones::cdn_domains>("zones.cdn_domains",
                                                             "zones.cdn_domains"),
    knob<parse_count, &Cfg::zones, &Zones::ad_domains>("zones.ad_domains", "zones.ad_domains"),
    knob<parse_count, &Cfg::zones, &Zones::tracker_domains>("zones.tracker_domains",
                                                            "zones.tracker_domains"),
    knob<parse_count, &Cfg::zones, &Zones::api_domains>("zones.api_domains",
                                                        "zones.api_domains"),
    knob<parse_count_min1, &Cfg::zones, &Zones::video_sites>("zones.video_sites",
                                                             "zones.video_sites"),
    knob<parse_count, &Cfg::zones, &Zones::other_names>("zones.other_names",
                                                        "zones.other_names"),
    knob<parse_positive, &Cfg::zones, &Zones::zipf_exponent>("zones.zipf_exponent",
                                                             "zones.zipf_exponent"),
    knob<parse_count_min1, &Cfg::zones, &Zones::edges_per_cdn>("zones.edges_per_cdn",
                                                               "zones.edges_per_cdn"),
    knob<parse_count_min1, &Cfg::zones, &Zones::hosting_pool_ips>("zones.hosting_pool_ips",
                                                                  "zones.hosting_pool_ips"),
    tuning_knob<parse_count_min1, &Tun::computers_min>("tuning.computers_min",
                                                       "devices.computers_min"),
    tuning_knob<parse_count, &Tun::computers_max>("tuning.computers_max",
                                                  "devices.computers_max"),
    tuning_knob<parse_count_min1, &Tun::computers_light>("tuning.computers_light",
                                                         "devices.computers_light"),
    tuning_knob<parse_prob, &Tun::android_extra_prob>("tuning.android_extra_prob",
                                                      "devices.android_extra_prob"),
    tuning_knob<parse_prob, &Tun::apple_prob>("tuning.apple_prob", "devices.apple_prob"),
    tuning_knob<parse_prob, &Tun::apple_prob_light>("tuning.apple_prob_light",
                                                    "devices.apple_prob_light"),
    tuning_knob<parse_prob, &Tun::tv_prob>("tuning.tv_prob", "devices.tv_prob"),
    tuning_knob<parse_prob, &Tun::tv_prob_light>("tuning.tv_prob_light",
                                                 "devices.tv_prob_light"),
    tuning_knob<parse_count, &Tun::iot_min>("tuning.iot_min", "devices.iot_min"),
    tuning_knob<parse_count, &Tun::iot_max>("tuning.iot_max", "devices.iot_max"),
    tuning_knob<parse_prob, &Tun::alarm_prob>("tuning.alarm_prob", "devices.alarm_prob"),
    tuning_knob<parse_positive, &Tun::browser_session_scale>("tuning.browser_session_scale",
                                                             "apps.browser_session_scale"),
    tuning_knob<parse_positive, &Tun::video_session_scale>("tuning.video_session_scale",
                                                           "apps.video_session_scale"),
    tuning_knob<parse_positive, &Tun::background_poll_scale>("tuning.background_poll_scale",
                                                             "apps.background_poll_scale"),
    tuning_knob<parse_positive, &Tun::pages_per_session_scale>(
        "tuning.pages_per_session_scale", "apps.pages_per_session_scale"),
    tuning_knob<parse_positive, &Tun::conncheck_scale>("tuning.conncheck_scale",
                                                       "apps.conncheck_scale"),
    tuning_knob<parse_prob, &Tun::prefetch_prob>("tuning.prefetch_prob", "apps.prefetch_prob"),
    tuning_knob<parse_prob, &Tun::household_site_prob>("tuning.household_site_prob",
                                                       "apps.household_site_prob"),
    tuning_knob<parse_prob, &Tun::junk_probe_prob>("tuning.junk_probe_prob",
                                                   "apps.junk_probe_prob"),
    tuning_knob<parse_non_negative, &Tun::junk_queries_per_hour>(
        "tuning.junk_queries_per_hour", "apps.junk_queries_per_hour"),
    tuning_knob<parse_count, &Tun::web, &Web::cdn_min>("tuning.web_cdn_min", "web.cdn_min"),
    tuning_knob<parse_count, &Tun::web, &Web::cdn_max>("tuning.web_cdn_max", "web.cdn_max"),
    tuning_knob<parse_count, &Tun::web, &Web::ad_min>("tuning.web_ad_min", "web.ad_min"),
    tuning_knob<parse_count, &Tun::web, &Web::ad_max>("tuning.web_ad_max", "web.ad_max"),
    tuning_knob<parse_count, &Tun::web, &Web::tracker_min>("tuning.web_tracker_min",
                                                           "web.tracker_min"),
    tuning_knob<parse_count, &Tun::web, &Web::tracker_max>("tuning.web_tracker_max",
                                                           "web.tracker_max"),
    tuning_knob<parse_count, &Tun::web, &Web::api_min>("tuning.web_api_min", "web.api_min"),
    tuning_knob<parse_count, &Tun::web, &Web::api_max>("tuning.web_api_max", "web.api_max"),
    tuning_knob<parse_count, &Tun::web, &Web::links_min>("tuning.web_links_min",
                                                         "web.links_min"),
    tuning_knob<parse_count, &Tun::web, &Web::links_max>("tuning.web_links_max",
                                                         "web.links_max"),
    tuning_knob<parse_hours, &Tun::diurnal_hours>("tuning.diurnal_hours", "diurnal.hours"),
};

void set(const Knob& knob, ScenarioConfig& cfg, std::string_view value,
         const std::string& where) {
  try {
    knob.parse(cfg, value);
  } catch (const std::exception& e) {
    throw std::runtime_error{where + ": " + e.what()};
  }
}

[[nodiscard]] const Knob* find_knob(std::string_view key) {
  for (const Knob& k : kKnobs) {
    if (k.key == key) return &k;
  }
  return nullptr;
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

}  // namespace

const Knob* find_pack_knob(std::string_view section_key) {
  for (const Knob& k : kKnobs) {
    if (!k.pack_key.empty() && k.pack_key == section_key) return &k;
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

void EndOfFileChecks::note(const Knob& knob, const std::string& where) {
  if (knob.key.starts_with("mix.")) mix_at_ = where;
  if (knob.key.starts_with("tuning.")) tuning_at_ = where;
}

void EndOfFileChecks::run(const ScenarioConfig& cfg) const {
  const auto check = [](const std::string& at, const auto& part) {
    try {
      part.validate();
    } catch (const std::exception& e) {
      throw std::runtime_error{at + ": " + e.what()};
    }
  };
  check(mix_at_, cfg.mix);
  check(tuning_at_, cfg.tuning);
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
  EndOfFileChecks checks{source};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error{
          strfmt("%s line %zu: expected key = value", source.c_str(), line_no)};
    }
    const std::string key{trim(stripped.substr(0, eq))};
    const std::string_view value = trim(stripped.substr(eq + 1));
    const std::string where = strfmt("%s line %zu: key '%s'", source.c_str(), line_no,
                                     key.c_str());
    if (key == kRetiredEncryptedFrac) {
      check_retired_encrypted_frac(value, where);
      continue;
    }
    const Knob* knob = find_knob(key);
    if (knob == nullptr) {
      throw std::runtime_error{
          strfmt("%s line %zu: unknown key '%s'", source.c_str(), line_no, key.c_str())};
    }
    set(*knob, cfg, value, where);
    checks.note(*knob, where);
  }
  checks.run(cfg);
  return cfg;
}

ScenarioConfig load_config_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"load_config_file: cannot open " + path};
  return load_config(is, path);
}

}  // namespace dnsctx::scenario
