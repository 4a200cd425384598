// libFuzzer target for the scenario knob table's one line loop: every
// input is read as a scenario pack and as a config file. One contract
// for both: an input is either rejected with a std::runtime_error naming
// the source — never a crash, never a sanitizer fault — or accepted as a
// config that passes the scenario layer's own checks (mix + tuning) and
// whose save_config snapshot is a fixed point of save∘load. An accepted
// pack also returns the name it set.
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/config_io.hpp"

namespace {

namespace scn = dnsctx::scenario;

[[nodiscard]] std::string snapshot(const scn::ScenarioConfig& cfg) {
  std::ostringstream os;
  scn::save_config(os, cfg);
  return os.str();
}

/// Run one front end; when it accepts, hold the result to the contract.
template <typename Parse>
void check_front_end(Parse&& parse) {
  std::optional<scn::ScenarioConfig> cfg;
  try {
    cfg = parse();
  } catch (const std::runtime_error&) {
    return;  // rejection with a diagnostic is the contract
  }
  try {
    cfg->mix.validate();
    cfg->tuning.validate();
  } catch (...) {
    std::abort();  // an accepted input left an invalid config behind
  }
  // The whole snapshot must reload (an exception here escapes and is
  // reported as a crash) and write back byte for byte.
  const std::string first = snapshot(*cfg);
  std::istringstream is{first};
  if (snapshot(scn::load_config(is, "snapshot")) != first) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text{reinterpret_cast<const char*>(data), size};
  check_front_end([&text] {
    scn::ScenarioConfig cfg;
    const std::string name = scn::apply_pack(text, "fuzz.pack", &cfg);
    if (name.empty() || cfg.pack != name) std::abort();
    return cfg;
  });
  check_front_end([&text] {
    std::istringstream is{text};
    return scn::load_config(is, "fuzz.conf");
  });
  return 0;
}
