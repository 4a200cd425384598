// dnsctx — the scenario knob table and plain-text configuration files.
//
// Every ScenarioConfig field is one row of a knob table: its config key,
// one parse-and-range rule, and how save_config writes it. Config files
// and scenario packs are the same `key = value` format with `#` comments,
// read by one line loop; the command-line front ends set fields through
// the same table, so a value gets the same check wherever it comes from.
// Experiments can be defined, versioned and shared without recompiling;
// see examples/scenarios/*.conf.
//
// A scenario pack (examples/packs/*.pack) is a config file that names
// itself and leaves the run's shape to the caller:
//
//   # Smart-home saturated households: a comment carries the description.
//   pack = iot_heavy
//   tuning.iot_max = 8
//   tuning.diurnal_hours = flat
//   transport = dot
//
// `pack` is required there (1-64 chars of [A-Za-z0-9._-]), and a pack
// may not set a run-shape key (seed, houses, duration_hours, shards,
// threads, collect_truth): those stay with the flags and the config a
// pack is applied over. `tuning.diurnal_hours` takes residential,
// office, flat or 24 hour multipliers; `faults` takes the
// docs/FAULTS.md grammar.
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
  std::string_view key;  ///< config key, e.g. "tuning.web_cdn_min"
  /// Parse `value`, range-check it and store it. Throws without naming
  /// the key or the place; callers add both.
  void (*parse)(ScenarioConfig& cfg, std::string_view value);
  /// The value as save_config writes it; parse() reads it back exactly.
  std::string (*text)(const ScenarioConfig& cfg);
  bool always;     ///< false: save_config writes it only when it differs from the default
  bool run_shape;  ///< the run's seed, size, length or execution: a pack may not set it
};

/// The row with config key `key`, or nullptr.
[[nodiscard]] const Knob* find_knob(std::string_view key);

/// Set the field with config key `key` from `value`, then run the mix
/// and tuning checks a config file runs at its end: the setter the
/// command-line front ends share. Errors are std::runtime_error prefixed
/// with `where` (the flag or argument that carried the value).
void set_knob(ScenarioConfig& cfg, std::string_view key, std::string_view value,
              const std::string& where);

/// Set the knobs behind the run-shape flags `args` carries: --houses,
/// --hours, --seed, --start-hour, --shards, --threads, --transport and
/// --faults. Errors name the flag. Callers reject the flags they do not
/// accept before calling this.
void set_flag_knobs(ScenarioConfig& cfg, const CliArgs& args);

/// Serialise a config as key = value lines in table order. Doubles are
/// written in their shortest exact form, so a snapshot reloads to the
/// same config bit for bit. Tuning, transport, fault, truth and pack
/// keys are written only when they differ from the defaults, so classic
/// (pre-pack) configs keep their bytes.
void save_config(std::ostream& os, const ScenarioConfig& cfg);
void save_config_file(const std::string& path, const ScenarioConfig& cfg);

/// Parse a config. Unknown keys, `[section]` lines, malformed or
/// out-of-range values and failed end-of-file checks (mix and tuning)
/// throw std::runtime_error naming `source`, the line number and the
/// key. Out-of-range numbers ("1e999"), non-finite doubles ("inf",
/// "nan") and trailing garbage are rejected, never clamped. Keys not
/// present keep their defaults. A retired key that old snapshots carry
/// loads at its no-op value and is refused at any other.
[[nodiscard]] ScenarioConfig load_config(std::istream& is,
                                         const std::string& source = "config");
[[nodiscard]] ScenarioConfig load_config_file(const std::string& path);

/// Apply pack `text` over `cfg` with load_config's rules, plus two of
/// its own: the pack must set `pack`, and it may not set a run-shape
/// key. `source` names the origin in errors (the file path, or a
/// synthetic name for tests and fuzzing). Returns the pack name, which
/// is also cfg->pack. On an error `cfg` may be partly updated; treat it
/// as poisoned.
std::string apply_pack(std::string_view text, const std::string& source, ScenarioConfig* cfg);

/// Load a pack file and apply it (errors name the path).
std::string apply_pack_file(const std::string& path, ScenarioConfig* cfg);

}  // namespace dnsctx::scenario
