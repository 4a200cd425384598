// dnsctx — scenario-pack regression tests.
//
// Three contracts:
//   1. Packs are PRESETS, not a new pipeline: a pack that overrides
//      nothing must produce a byte-identical capture to the no-pack
//      default, across seeds {1,7} × shards {1,4}.
//   2. The four shipped packs (examples/packs/) parse, run end to end,
//      and actually shift query composition the way their names claim —
//      junk_storm drives the NXDOMAIN fraction up by an order of
//      magnitude, enterprise_fanout switches the transport default.
//   3. The parser is as strict as the CLI flag layer: every malformed
//      input is rejected with an error naming the source and line.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture/logio.hpp"
#include "capture/records.hpp"
#include "scenario/pack.hpp"
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
  const auto info = scenario::apply_pack(
      "[pack]\nname = noop\ndescription = \"overrides nothing\"\n", "noop.pack",
      &packed);
  EXPECT_EQ(info.name, "noop");
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
    const auto info = scenario::apply_pack_file(pack_path(name), &cfg);
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.description.empty()) << name;
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

// --- contract 3: strict rejection with source + line ----------------------

/// Applies `text` and asserts the thrown message contains every needle —
/// in particular the synthetic source name and a "line N" locator.
void expect_reject(const std::string& text,
                   const std::vector<std::string>& needles) {
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
  expect_reject("[pack\nname = x\n", {"bad.pack line 1", "malformed section"});
  expect_reject("[nope]\n", {"bad.pack line 1", "unknown section '[nope]'"});
  expect_reject("name = x\n", {"bad.pack line 1", "before any [section]"});
  expect_reject("[pack]\nname = x\njust some words\n",
                {"bad.pack line 3", "expected key = value"});
  expect_reject("[pack]\nname = x\n[apps]\nbogus_knob = 1\n",
                {"bad.pack line 4", "unknown key 'bogus_knob'", "[apps]"});
  expect_reject("[apps]\nprefetch_prob = 0.5\n",
                {"bad.pack", "missing required [pack] name"});
  expect_reject("[pack]\nname = \"unterminated\n",
                {"bad.pack line 2", "key 'name'", "unterminated"});
  expect_reject("[pack]\nname = bad/name\n", {"bad.pack line 2", "[A-Za-z0-9._-]"});
}

TEST(PackParser, RejectsMalformedNumbersWithLocation) {
  const std::string head = "[pack]\nname = x\n[apps]\n";
  expect_reject(head + "conncheck_scale = 1.5x\n",
                {"bad.pack line 4", "key 'conncheck_scale'", "bad number '1.5x'"});
  expect_reject(head + "conncheck_scale = 1e999\n",
                {"bad.pack line 4", "out of range"});
  expect_reject(head + "conncheck_scale = inf\n", {"bad.pack line 4", "finite"});
  expect_reject(head + "junk_queries_per_hour = nan\n",
                {"bad.pack line 4", "finite"});
  expect_reject(head + "prefetch_prob = 1.2\n",
                {"bad.pack line 4", "must be in [0, 1]"});
  expect_reject(head + "background_poll_scale = 0\n",
                {"bad.pack line 4", "must be > 0"});
  expect_reject(head + "junk_queries_per_hour = -3\n",
                {"bad.pack line 4", "must be >= 0"});
  expect_reject("[pack]\nname = x\n[zones]\nweb_sites = 0\n",
                {"bad.pack line 4", "must be >= 1"});
  expect_reject("[pack]\nname = x\n[scenario]\nstart_hour = 24\n",
                {"bad.pack line 4", "start_hour must be in [0, 23]"});
}

TEST(PackParser, RejectsBadEnumsAndTables) {
  const std::string head = "[pack]\nname = x\n";
  expect_reject(head + "[diurnal]\nprofile = weekend\n",
                {"bad.pack line 4", "unknown diurnal profile 'weekend'"});
  expect_reject(head + "[diurnal]\nhours = 1,2,3\n",
                {"bad.pack line 4", "exactly 24 hour values"});
  expect_reject(head + "[transport]\ndefault = carrier-pigeon\n",
                {"bad.pack line 4", "unknown transport"});
  expect_reject(head + "[faults]\nplan = \"loss=2.0\"\n",
                {"bad.pack line 4", "key 'plan'"});
}

TEST(PackParser, RejectsCrossKeyViolationsAtEndOfFile) {
  // Mix probabilities individually valid but jointly claiming > 100%.
  expect_reject(
      "[pack]\nname = x\n[mix]\nisp_only = 0.6\ncloudflare = 0.3\nno_isp = 0.2\n",
      {"bad.pack", "remainder"});
  // Fanout min > max only detectable once both keys are read.
  expect_reject("[pack]\nname = x\n[web]\ncdn_min = 9\ncdn_max = 2\n",
                {"bad.pack"});
  expect_reject("[pack]\nname = x\n[devices]\niot_min = 5\niot_max = 1\n",
                {"bad.pack"});
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

TEST(PackParser, AcceptsCommentsWhitespaceAndQuotedStrings) {
  scenario::ScenarioConfig cfg;
  const auto info = scenario::apply_pack(
      "# leading comment\n"
      "; alt comment style\n"
      "  [pack]  \n"
      "  name   =   tidy-1.0_x  \n"
      "description = \"spaces; and [brackets] = fine inside quotes\"\n"
      "\n"
      "[apps]\n"
      "prefetch_prob = 0.25  \n",
      "ok.pack", &cfg);
  EXPECT_EQ(info.name, "tidy-1.0_x");
  EXPECT_EQ(info.description, "spaces; and [brackets] = fine inside quotes");
  EXPECT_DOUBLE_EQ(cfg.tuning.prefetch_prob, 0.25);
}

}  // namespace
}  // namespace dnsctx
