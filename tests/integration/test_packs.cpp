// dnsctx — scenario-pack regression tests.
//
// Three contracts:
//   1. Packs are PRESETS, not a new pipeline: a pack that overrides
//      nothing must produce a byte-identical capture to the no-pack
//      default, across seeds {1,7} × shards {1,4}.
//   2. The four shipped packs (examples/packs/) parse, run end to end,
//      and actually shift query composition the way their names claim —
//      junk_storm drives the NXDOMAIN fraction up by an order of
//      magnitude, enterprise_fanout switches the transport default. Each
//      reproduces the snapshot its sectioned form gave before packs were
//      written in config keys.
//   3. A pack is a config file read by the same line loop, with two
//      rules of its own (it names itself; it leaves the run shape alone),
//      and is as strict as the CLI flag layer: every malformed input is
//      rejected with an error naming the source and line.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "capture/logio.hpp"
#include "capture/records.hpp"
#include "scenario/config_io.hpp"
#include "scenario/scenario.hpp"
#include "traffic/diurnal.hpp"
#include "util/strings.hpp"

#ifndef DNSCTX_PACK_DIR
#error "DNSCTX_PACK_DIR must be defined by the build"
#endif

namespace dnsctx {
namespace {

[[nodiscard]] std::string pack_path(const std::string& name) {
  return std::string{DNSCTX_PACK_DIR} + "/" + name + ".pack";
}

[[nodiscard]] capture::Dataset simulate(const scenario::ScenarioConfig& cfg) {
  scenario::Town town{cfg};
  town.run();
  return town.harvest();
}

/// Full text serialization of a capture — the same Bro-flavoured logs
/// `dnsctx simulate` writes, so "byte-identical" here means what a user
/// diffing output directories would see.
[[nodiscard]] std::string render(const capture::Dataset& ds) {
  std::ostringstream os;
  capture::write_conn_log(os, ds.conns);
  capture::write_dns_log(os, ds.dns);
  capture::write_encflow_log(os, ds.encflows);
  return os.str();
}

[[nodiscard]] std::string snapshot(const scenario::ScenarioConfig& cfg) {
  std::ostringstream os;
  scenario::save_config(os, cfg);
  return os.str();
}

[[nodiscard]] double nxdomain_frac(const capture::Dataset& ds) {
  if (ds.dns.empty()) return 0.0;
  const auto nx = std::count_if(ds.dns.begin(), ds.dns.end(), [](const auto& d) {
    return d.rcode == dns::Rcode::kNxDomain;
  });
  return static_cast<double>(nx) / static_cast<double>(ds.dns.size());
}

// --- contract 1: a defaults-equivalent pack is a no-op --------------------

class PackGolden
    : public testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(PackGolden, DefaultsEquivalentPackIsByteIdentical) {
  const auto [seed, shards] = GetParam();
  scenario::ScenarioConfig base;
  base.houses = 10;
  base.duration = SimDuration::hours(2);
  base.seed = seed;
  base.shards = shards;

  scenario::ScenarioConfig packed = base;
  EXPECT_EQ(scenario::apply_pack("# overrides nothing\npack = noop\n", "noop.pack", &packed),
            "noop");
  EXPECT_EQ(packed.pack, "noop");

  const std::string a = render(simulate(base));
  const std::string b = render(simulate(packed));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "pack with no overrides perturbed the capture (seed " << seed
                  << ", shards " << shards << ")";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShards, PackGolden,
    testing::Combine(testing::Values(1ull, 7ull),
                     testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& param_info) {
      return strfmt("seed%llu_shards%zu",
                    static_cast<unsigned long long>(std::get<0>(param_info.param)),
                    std::get<1>(param_info.param));
    });

// --- contract 2: the shipped packs parse, run, and shift composition -----

TEST(ShippedPacks, AllParseAndRunEndToEnd) {
  for (const std::string name :
       {"iot_heavy", "mobile_streaming", "junk_storm", "enterprise_fanout"}) {
    scenario::ScenarioConfig cfg;
    cfg.houses = 4;
    cfg.duration = SimDuration::hours(1);
    cfg.seed = 3;
    EXPECT_EQ(scenario::apply_pack_file(pack_path(name), &cfg), name);
    EXPECT_EQ(cfg.pack, name);
    const auto ds = simulate(cfg);
    EXPECT_FALSE(ds.conns.empty()) << name << " produced no connections";
    if (cfg.transport == netsim::Transport::kDo53) {
      EXPECT_FALSE(ds.dns.empty()) << name << " produced no DNS transactions";
    } else {
      // Encrypted transports hide queries from the tap: the capture
      // carries encrypted resolver flows instead of a DNS log.
      EXPECT_FALSE(ds.encflows.empty()) << name << " produced no encrypted flows";
    }
  }
}

TEST(ShippedPacks, MatchTheSnapshotsOfTheirSectionedForms) {
  // save_config of each pack applied to a default ScenarioConfig, as
  // written when the packs still had [sections] and their own key names.
  const std::pair<std::string, std::string> kSnapshots[] = {
    {"iot_heavy", R"(# dnsctx scenario configuration
seed = 42
houses = 40
duration_hours = 8
start_hour = 15
shards = 1
threads = 1
activity_scale = 1
ttl_violation_prob = 0.2
dead_ntp_frac = 0.35
p2p_house_frac = 0.24
whole_house_cache_frac = 0
pack = iot_heavy
mix.isp_only = 0.12
mix.cloudflare = 0.045
mix.no_isp = 0.05
mix.opendns_in_mixed = 0.38
zones.web_sites = 600
zones.cdn_domains = 50
zones.ad_domains = 90
zones.tracker_domains = 60
zones.api_domains = 120
zones.video_sites = 25
zones.other_names = 150
zones.zipf_exponent = 0.95
zones.edges_per_cdn = 4
zones.hosting_pool_ips = 200
tuning.computers_max = 1
tuning.apple_prob = 0.3
tuning.tv_prob = 0.35
tuning.tv_prob_light = 0.25
tuning.iot_min = 3
tuning.iot_max = 8
tuning.alarm_prob = 0.6
tuning.browser_session_scale = 0.5
tuning.background_poll_scale = 3
tuning.conncheck_scale = 2
tuning.diurnal_hours = 1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1
)"},
    {"mobile_streaming", R"(# dnsctx scenario configuration
seed = 42
houses = 40
duration_hours = 8
start_hour = 15
shards = 1
threads = 1
activity_scale = 1
ttl_violation_prob = 0.2
dead_ntp_frac = 0.35
p2p_house_frac = 0.24
whole_house_cache_frac = 0
pack = mobile_streaming
mix.isp_only = 0.12
mix.cloudflare = 0.045
mix.no_isp = 0.05
mix.opendns_in_mixed = 0.38
zones.web_sites = 600
zones.cdn_domains = 90
zones.ad_domains = 90
zones.tracker_domains = 60
zones.api_domains = 120
zones.video_sites = 60
zones.other_names = 150
zones.zipf_exponent = 0.95
zones.edges_per_cdn = 8
zones.hosting_pool_ips = 200
tuning.android_extra_prob = 0.8
tuning.apple_prob = 0.9
tuning.apple_prob_light = 0.7
tuning.tv_prob = 0.9
tuning.tv_prob_light = 0.8
tuning.video_session_scale = 2.5
tuning.conncheck_scale = 2
tuning.web_cdn_min = 4
tuning.web_cdn_max = 8
)"},
    {"junk_storm", R"(# dnsctx scenario configuration
seed = 42
houses = 40
duration_hours = 8
start_hour = 15
shards = 1
threads = 1
activity_scale = 1
ttl_violation_prob = 0.2
dead_ntp_frac = 0.3
p2p_house_frac = 0.24
whole_house_cache_frac = 0
faults = nxdomain=0.02
pack = junk_storm
mix.isp_only = 0.12
mix.cloudflare = 0.045
mix.no_isp = 0.05
mix.opendns_in_mixed = 0.38
zones.web_sites = 600
zones.cdn_domains = 50
zones.ad_domains = 90
zones.tracker_domains = 60
zones.api_domains = 120
zones.video_sites = 25
zones.other_names = 150
zones.zipf_exponent = 0.95
zones.edges_per_cdn = 4
zones.hosting_pool_ips = 200
tuning.junk_probe_prob = 0.9
tuning.junk_queries_per_hour = 180
)"},
    {"enterprise_fanout", R"(# dnsctx scenario configuration
seed = 42
houses = 40
duration_hours = 8
start_hour = 15
shards = 1
threads = 1
activity_scale = 1
ttl_violation_prob = 0.2
dead_ntp_frac = 0.35
p2p_house_frac = 0.24
whole_house_cache_frac = 0
transport = dot
pack = enterprise_fanout
mix.isp_only = 0.7
mix.cloudflare = 0.2
mix.no_isp = 0.05
mix.opendns_in_mixed = 0.38
zones.web_sites = 900
zones.cdn_domains = 50
zones.ad_domains = 90
zones.tracker_domains = 60
zones.api_domains = 300
zones.video_sites = 25
zones.other_names = 150
zones.zipf_exponent = 0.95
zones.edges_per_cdn = 4
zones.hosting_pool_ips = 400
tuning.computers_min = 2
tuning.computers_max = 5
tuning.computers_light = 2
tuning.apple_prob = 0.6
tuning.tv_prob = 0.05
tuning.tv_prob_light = 0
tuning.iot_max = 0
tuning.alarm_prob = 0.05
tuning.pages_per_session_scale = 1.5
tuning.prefetch_prob = 0.95
tuning.household_site_prob = 0.1
tuning.web_cdn_min = 3
tuning.web_cdn_max = 7
tuning.web_api_min = 2
tuning.web_api_max = 6
tuning.web_links_min = 8
tuning.web_links_max = 18
tuning.diurnal_hours = 0.1,0.1,0.1,0.1,0.15,0.25,0.5,0.9,1.4,1.7,1.8,1.7,1.5,1.6,1.7,1.6,1.4,1,0.6,0.4,0.3,0.2,0.15,0.1
)"},
  };
  for (const auto& [name, expected] : kSnapshots) {
    scenario::ScenarioConfig cfg;
    (void)scenario::apply_pack_file(pack_path(name), &cfg);
    EXPECT_EQ(snapshot(cfg), expected) << name;
  }
}

TEST(ShippedPacks, JunkStormDrivesNxdomainFractionUp) {
  scenario::ScenarioConfig base;
  base.houses = 8;
  base.duration = SimDuration::hours(2);
  base.seed = 5;
  const double default_frac = nxdomain_frac(simulate(base));

  scenario::ScenarioConfig storm = base;
  scenario::apply_pack_file(pack_path("junk_storm"), &storm);
  const double storm_frac = nxdomain_frac(simulate(storm));

  // Junk names miss the ZoneDb, so the storm's NXDOMAIN share must be
  // both large in absolute terms and far above the default composition.
  EXPECT_GT(storm_frac, 0.05);
  EXPECT_GT(storm_frac, 3.0 * default_frac + 0.01)
      << "default=" << default_frac << " storm=" << storm_frac;
}

TEST(ShippedPacks, IotHeavySetsFlatDiurnalAndPopulation) {
  scenario::ScenarioConfig cfg;
  scenario::apply_pack_file(pack_path("iot_heavy"), &cfg);
  for (const double h : cfg.tuning.diurnal_hours) EXPECT_EQ(h, 1.0);
  EXPECT_EQ(cfg.tuning.iot_min, 3u);
  EXPECT_EQ(cfg.tuning.iot_max, 8u);
  EXPECT_EQ(cfg.tuning.computers_max, 1u);
  EXPECT_DOUBLE_EQ(cfg.tuning.background_poll_scale, 3.0);
}

TEST(ShippedPacks, MobileStreamingWidensCdnUniverse) {
  scenario::ScenarioConfig cfg;
  scenario::apply_pack_file(pack_path("mobile_streaming"), &cfg);
  EXPECT_EQ(cfg.zones.video_sites, 60u);
  EXPECT_EQ(cfg.zones.cdn_domains, 90u);
  EXPECT_EQ(cfg.zones.edges_per_cdn, 8u);
  EXPECT_EQ(cfg.tuning.web.cdn_min, 4u);
  EXPECT_EQ(cfg.tuning.web.cdn_max, 8u);
  EXPECT_DOUBLE_EQ(cfg.tuning.video_session_scale, 2.5);
}

TEST(ShippedPacks, EnterpriseFanoutSetsTransportMixAndOfficeHours) {
  scenario::ScenarioConfig cfg;
  scenario::apply_pack_file(pack_path("enterprise_fanout"), &cfg);
  EXPECT_EQ(cfg.transport, netsim::Transport::kDoT);
  EXPECT_DOUBLE_EQ(cfg.mix.isp_only, 0.7);
  EXPECT_EQ(cfg.tuning.web.links_min, 8u);
  EXPECT_EQ(cfg.tuning.web.links_max, 18u);
  EXPECT_EQ(cfg.tuning.iot_max, 0u);
  EXPECT_EQ(cfg.tuning.diurnal_hours, traffic::kOfficeHours);
  EXPECT_FALSE(cfg.faults.has_resolver_faults());
}

TEST(ShippedPacks, JunkStormCarriesAFaultPlanDefault) {
  scenario::ScenarioConfig cfg;
  scenario::apply_pack_file(pack_path("junk_storm"), &cfg);
  EXPECT_TRUE(cfg.faults.has_resolver_faults());
  EXPECT_DOUBLE_EQ(cfg.tuning.junk_queries_per_hour, 180.0);
  EXPECT_DOUBLE_EQ(cfg.dead_ntp_frac, 0.3);
}

// --- contract 3: one grammar, strict rejection with source + line --------

/// Applies `text` as a pack and asserts the thrown message contains every
/// needle — in particular the synthetic source name and a "line N" locator.
void expect_reject(const std::string& text, const std::vector<std::string>& needles) {
  scenario::ScenarioConfig cfg;
  try {
    scenario::apply_pack(text, "bad.pack", &cfg);
    FAIL() << "expected rejection of:\n" << text;
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message '" << msg << "' lacks '" << needle << "'";
    }
  }
}

TEST(PackParser, RejectsStructuralErrors) {
  // The retired sectioned grammar: refused, with the config-key spelling.
  expect_reject("[pack]\nname = x\n", {"bad.pack line 1", "sections are not read", "pack = NAME"});
  expect_reject("pack = x\n\n[web]\ncdn_min = 3\n",
                {"bad.pack line 3", "[web]", "tuning.web_KEY"});
  expect_reject("pack = x\n[diurnal]\nprofile = flat\n",
                {"bad.pack line 2", "tuning.diurnal_hours"});
  expect_reject("[nope]\n", {"bad.pack line 1", "sections are not read", "config keys"});
  // `;` comments went with the sections.
  expect_reject("; alt comment\npack = x\n", {"bad.pack line 1", "expected key = value"});
  expect_reject("pack = x\njust some words\n", {"bad.pack line 2", "expected key = value"});
  expect_reject("pack = x\ntuning.bogus_knob = 1\n",
                {"bad.pack line 2", "unknown key 'tuning.bogus_knob'"});
  // A pack's own key names are gone too: `name` is `pack`.
  expect_reject("name = x\n", {"bad.pack line 1", "unknown key 'name'"});
}

TEST(PackParser, RequiresAValidName) {
  expect_reject("tuning.prefetch_prob = 0.5\n", {"bad.pack", "a pack must set pack = NAME"});
  expect_reject("# only a comment\n", {"bad.pack", "a pack must set pack = NAME"});
  for (const std::string bad : {"bad/name", "\"quoted\"", "has space", ""}) {
    expect_reject("pack = " + bad + "\n", {"bad.pack line 1", "key 'pack'", "[A-Za-z0-9._-]"});
  }
  expect_reject("pack = " + std::string(65, 'a') + "\n", {"bad.pack line 1", "1-64 chars"});
  scenario::ScenarioConfig cfg;
  EXPECT_EQ(scenario::apply_pack("pack = " + std::string(64, 'a') + "\n", "ok.pack", &cfg),
            std::string(64, 'a'));
  // The rule is the knob's, so a config file gets it too.
  std::istringstream conf{"houses = 2\npack = bad/name\n"};
  EXPECT_THROW((void)scenario::load_config(conf, "bad.conf"), std::runtime_error);
}

TEST(PackParser, RefusesRunShapeKeys) {
  for (const char* key :
       {"seed", "houses", "duration_hours", "shards", "threads", "collect_truth"}) {
    expect_reject(strfmt("pack = x\n%s = 1\n", key),
                  {"bad.pack line 2", strfmt("key '%s'", key), "run shape"});
    // A config file sets the same keys.
    std::istringstream conf{strfmt("%s = 1\n", key)};
    EXPECT_NO_THROW((void)scenario::load_config(conf)) << key;
  }
  // A pack applied over a config leaves its run shape alone.
  scenario::ScenarioConfig cfg;
  cfg.houses = 3;
  cfg.seed = 9;
  scenario::apply_pack("pack = x\nstart_hour = 4\n", "ok.pack", &cfg);
  EXPECT_EQ(cfg.houses, 3u);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.start_hour, 4);
}

TEST(PackParser, RejectsMalformedNumbersWithLocation) {
  const std::string head = "pack = x\n";
  expect_reject(head + "tuning.conncheck_scale = 1.5x\n",
                {"bad.pack line 2", "key 'tuning.conncheck_scale'", "bad number '1.5x'"});
  expect_reject(head + "tuning.conncheck_scale = 1e999\n", {"bad.pack line 2", "out of range"});
  expect_reject(head + "tuning.conncheck_scale = inf\n", {"bad.pack line 2", "finite"});
  expect_reject(head + "tuning.junk_queries_per_hour = nan\n", {"bad.pack line 2", "finite"});
  expect_reject(head + "tuning.prefetch_prob = 1.2\n", {"bad.pack line 2", "must be in [0, 1]"});
  expect_reject(head + "tuning.background_poll_scale = 0\n",
                {"bad.pack line 2", "must be > 0"});
  expect_reject(head + "tuning.junk_queries_per_hour = -3\n",
                {"bad.pack line 2", "must be >= 0"});
  expect_reject(head + "zones.web_sites = 0\n", {"bad.pack line 2", "must be >= 1"});
  expect_reject(head + "start_hour = 24\n",
                {"bad.pack line 2", "start_hour must be in [0, 23]"});
}

TEST(PackParser, RejectsBadEnumsAndTables) {
  const std::string head = "pack = x\n";
  expect_reject(head + "tuning.diurnal_hours = weekend\n",
                {"bad.pack line 2", "unknown diurnal table 'weekend'"});
  expect_reject(head + "tuning.diurnal_hours = 1,2,3\n",
                {"bad.pack line 2", "exactly 24 hour values"});
  expect_reject(head + "transport = carrier-pigeon\n", {"bad.pack line 2", "unknown transport"});
  expect_reject(head + "faults = loss=2.0\n", {"bad.pack line 2", "key 'faults'"});
  // Values are not quoted any more.
  expect_reject(head + "faults = \"loss=0.01\"\n", {"bad.pack line 2", "key 'faults'"});
}

TEST(PackParser, ReadsNamedAndExplicitDiurnalTables) {
  std::array<double, 24> flat{};
  flat.fill(1.0);
  const std::pair<const char*, std::array<double, 24>> kTables[] = {
      {"residential", traffic::kResidentialHours},
      {"office", traffic::kOfficeHours},
      {"flat", flat},
      {"0.5,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,2",
       {0.5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}},
  };
  for (const auto& [value, hours] : kTables) {
    const std::string line = strfmt("tuning.diurnal_hours = %s\n", value);
    scenario::ScenarioConfig packed;
    scenario::apply_pack("pack = x\n" + line, "ok.pack", &packed);
    EXPECT_EQ(packed.tuning.diurnal_hours, hours) << value;
    std::istringstream conf{line};
    const scenario::ScenarioConfig loaded = scenario::load_config(conf);
    EXPECT_EQ(loaded.tuning.diurnal_hours, hours) << value;
  }
  // A snapshot writes the table as 24 numbers, and they read back.
  std::istringstream office{"tuning.diurnal_hours = office\n"};
  const std::string text = snapshot(scenario::load_config(office));
  EXPECT_NE(text.find("tuning.diurnal_hours = 0.1,0.1,0.1,0.1,0.15,"), std::string::npos)
      << text;
  std::istringstream again{text};
  EXPECT_EQ(scenario::load_config(again).tuning.diurnal_hours, traffic::kOfficeHours);
}

TEST(PackParser, RejectsCrossKeyViolationsAtEndOfFile) {
  // Mix probabilities individually valid but jointly claiming > 100%;
  // the error names the last line that set a mix key.
  expect_reject("pack = x\nmix.isp_only = 0.6\nmix.cloudflare = 0.3\nmix.no_isp = 0.2\n",
                {"bad.pack line 4", "key 'mix.no_isp'", "remainder"});
  // Fanout min > max only detectable once both keys are read.
  expect_reject("pack = x\ntuning.web_cdn_min = 9\ntuning.web_cdn_max = 2\n",
                {"bad.pack line 3", "key 'tuning.web_cdn_max'"});
  expect_reject("pack = x\ntuning.iot_min = 5\ntuning.iot_max = 1\n", {"bad.pack line 3"});
  // Key order does not matter: a later line can mend an earlier one.
  scenario::ScenarioConfig cfg;
  EXPECT_NO_THROW(scenario::apply_pack(
      "pack = x\ntuning.web_cdn_min = 9\ntuning.web_cdn_max = 12\n", "ok.pack", &cfg));
}

TEST(PackParser, MissingFileNamesThePath) {
  scenario::ScenarioConfig cfg;
  try {
    scenario::apply_pack_file("/nonexistent/dir/nope.pack", &cfg);
    FAIL() << "expected missing-file error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string{e.what()}.find("/nonexistent/dir/nope.pack"),
              std::string::npos);
  }
}

TEST(PackParser, AcceptsCommentsAndWhitespace) {
  scenario::ScenarioConfig cfg;
  const std::string name = scenario::apply_pack(
      "# leading comment\n"
      "   # indented comment\n"
      "  pack   =   tidy-1.0_x  \n"
      "\n"
      "\ttuning.prefetch_prob = 0.25  \r\n",
      "ok.pack", &cfg);
  EXPECT_EQ(name, "tidy-1.0_x");
  EXPECT_DOUBLE_EQ(cfg.tuning.prefetch_prob, 0.25);
}

}  // namespace
}  // namespace dnsctx
