// dnsctx — the scenario knob table and plain-text configuration files.
//
// Every ScenarioConfig field is one row of a knob table: its config-file
// key, its scenario-pack `section.key` when packs may set it, one
// parse-and-range rule, and how save_config writes it. Config files
// (`key = value` lines with `#` comments), scenario packs (pack.hpp) and
// the command-line front ends all set fields through that table, so a
// value gets the same check wherever it comes from. Experiments can be
// defined, versioned and shared without recompiling; see
// examples/scenarios/*.conf.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "scenario/scenario.hpp"

namespace dnsctx {
struct CliArgs;
}  // namespace dnsctx

namespace dnsctx::scenario {

/// One ScenarioConfig field.
struct Knob {
  std::string_view key;       ///< config-file key, e.g. "tuning.web_cdn_min"
  std::string_view pack_key;  ///< pack "section.key", e.g. "web.cdn_min"; empty: not in packs
  /// Parse `value`, range-check it and store it. Throws without naming
  /// the key or the place; callers add both.
  void (*parse)(ScenarioConfig& cfg, std::string_view value);
  /// The value as save_config writes it; parse() reads it back exactly.
  std::string (*text)(const ScenarioConfig& cfg);
  bool always;  ///< false: save_config writes it only when it differs from the default
  bool quoted;  ///< free text: a pack may double-quote the value
};

/// The row a pack's "section.key" sets, or nullptr.
[[nodiscard]] const Knob* find_pack_knob(std::string_view section_key);

/// Set the field with config key `key` from `value`: the setter the
/// command-line front ends share. Errors are std::runtime_error prefixed
/// with `where` (the flag or argument that carried the value).
void set_knob(ScenarioConfig& cfg, std::string_view key, std::string_view value,
              const std::string& where);

/// Set the knobs behind the run-shape flags `args` carries: --houses,
/// --hours, --seed, --start-hour, --shards, --threads, --transport and
/// --faults. Errors name the flag. Callers reject the flags they do not
/// accept before calling this.
void set_flag_knobs(ScenarioConfig& cfg, const CliArgs& args);

/// The cross-key checks a config file or pack runs once all its lines
/// are in: HouseProfileMix::validate and TrafficTuning::validate. A
/// failure names the last line that set a key of the failing group, or
/// only the source when no line did.
class EndOfFileChecks {
 public:
  explicit EndOfFileChecks(const std::string& source) : mix_at_{source}, tuning_at_{source} {}
  /// `knob` was just set at `where` ("file line N: key 'k'").
  void note(const Knob& knob, const std::string& where);
  void run(const ScenarioConfig& cfg) const;

 private:
  std::string mix_at_;
  std::string tuning_at_;
};

/// Leading/trailing blanks (and a trailing CR) of one line or value.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Serialise a config as key = value lines in table order. Doubles are
/// written in their shortest exact form, so a snapshot reloads to the
/// same config bit for bit. Tuning, transport, fault, truth and pack
/// keys are written only when they differ from the defaults, so classic
/// (pre-pack) configs keep their bytes.
void save_config(std::ostream& os, const ScenarioConfig& cfg);
void save_config_file(const std::string& path, const ScenarioConfig& cfg);

/// Parse a config. Unknown keys, malformed or out-of-range values and
/// failed end-of-file checks throw std::runtime_error naming `source`,
/// the line number and the key. Out-of-range numbers ("1e999"),
/// non-finite doubles ("inf", "nan") and trailing garbage are rejected,
/// never clamped. Keys not present keep their defaults. A retired key
/// that old snapshots carry loads at its no-op value and is refused at
/// any other.
[[nodiscard]] ScenarioConfig load_config(std::istream& is,
                                         const std::string& source = "config");
[[nodiscard]] ScenarioConfig load_config_file(const std::string& path);

}  // namespace dnsctx::scenario
