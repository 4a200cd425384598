// dnsctx — scenario packs: named, shareable query-composition presets.
//
// A pack is a sectioned INI/TOML-ish file that overrides the
// composition knobs of a ScenarioConfig — device population, app rates,
// web fanout, zone popularity, junk/NXDOMAIN rate, diurnal shape, and
// per-pack fault/transport defaults — without touching run-shape knobs
// (seed, houses, duration, shards, threads), which stay with the CLI.
// Every key but [pack] name/description and [diurnal] profile is a row
// of the knob table (config_io.hpp), so it gets its config key's rule.
// Unknown sections/keys, malformed or out-of-range values and
// structural errors all throw std::runtime_error naming the file and
// line. See examples/packs/.
//
//   [pack]
//   name = iot_heavy            # required, [A-Za-z0-9._-]
//   description = "..."         # optional
//   [devices]                   # TrafficTuning population knobs
//   iot_max = 6
//   [apps]                      # rates/probabilities
//   junk_queries_per_hour = 40
//   [web]                       # fanout ranges
//   cdn_max = 9
//   [zones]                     # ZoneDb population
//   web_sites = 120
//   [mix]                       # HouseProfileMix
//   isp_only = 0.3
//   [scenario]                  # composition knobs of ScenarioConfig
//   activity_scale = 1.5
//   [diurnal]
//   profile = flat              # residential | flat | office
//   hours = 1,1,...             # or an explicit 24-value table
//   [faults]
//   plan = "loss=0.01"          # docs/FAULTS.md grammar
//   [transport]
//   default = dot               # do53 | dot | doh | resolverless
#pragma once

#include <string>
#include <string_view>

#include "scenario/scenario.hpp"

namespace dnsctx::scenario {

/// Identity of a successfully applied pack.
struct PackInfo {
  std::string name;
  std::string description;
};

/// Parse pack `text` and apply its overrides onto `cfg`. `source` names
/// the origin in error messages (the file path, or "<pack>" for tests
/// and fuzzing). Throws std::runtime_error on any malformed input;
/// `cfg` may be partially updated when that happens — callers should
/// treat it as poisoned. On success, cfg->pack is set to the pack name
/// and the combined tuning/mix is re-validated.
PackInfo apply_pack(std::string_view text, const std::string& source,
                    ScenarioConfig* cfg);

/// Load a pack file and apply it (errors name the path).
PackInfo apply_pack_file(const std::string& path, ScenarioConfig* cfg);

}  // namespace dnsctx::scenario
