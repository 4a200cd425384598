// Unit tests for scenario config files.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "scenario/config_io.hpp"
#include "temp_dir.hpp"
#include "util/strings.hpp"

#ifndef DNSCTX_SCENARIO_DIR
#error "DNSCTX_SCENARIO_DIR must be defined by the build"
#endif

namespace dnsctx::scenario {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryKnob) {
  ScenarioConfig cfg;
  cfg.seed = 1'234;
  cfg.houses = 77;
  cfg.duration = SimDuration::hours(36);
  cfg.start_hour = 9;
  cfg.shards = 3;
  cfg.threads = 5;
  cfg.activity_scale = 1.5;
  cfg.ttl_violation_prob = 0.33;
  cfg.dead_ntp_frac = 0.1;
  cfg.p2p_house_frac = 0.42;
  cfg.transport = netsim::Transport::kDoT;
  cfg.whole_house_cache_frac = 0.6;
  cfg.mix.isp_only = 0.2;
  cfg.mix.cloudflare = 0.07;
  cfg.mix.no_isp = 0.03;
  cfg.mix.opendns_in_mixed = 0.5;
  cfg.zones.web_sites = 999;
  cfg.zones.zipf_exponent = 1.1;
  cfg.zones.hosting_pool_ips = 321;

  std::stringstream ss;
  save_config(ss, cfg);
  const ScenarioConfig back = load_config(ss);

  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.houses, cfg.houses);
  EXPECT_EQ(back.duration, cfg.duration);
  EXPECT_EQ(back.start_hour, cfg.start_hour);
  EXPECT_EQ(back.shards, cfg.shards);
  EXPECT_EQ(back.threads, cfg.threads);
  EXPECT_DOUBLE_EQ(back.activity_scale, cfg.activity_scale);
  EXPECT_DOUBLE_EQ(back.ttl_violation_prob, cfg.ttl_violation_prob);
  EXPECT_DOUBLE_EQ(back.dead_ntp_frac, cfg.dead_ntp_frac);
  EXPECT_DOUBLE_EQ(back.p2p_house_frac, cfg.p2p_house_frac);
  EXPECT_EQ(back.transport, cfg.transport);
  EXPECT_DOUBLE_EQ(back.whole_house_cache_frac, cfg.whole_house_cache_frac);
  EXPECT_DOUBLE_EQ(back.mix.isp_only, cfg.mix.isp_only);
  EXPECT_DOUBLE_EQ(back.mix.cloudflare, cfg.mix.cloudflare);
  EXPECT_DOUBLE_EQ(back.mix.no_isp, cfg.mix.no_isp);
  EXPECT_DOUBLE_EQ(back.mix.opendns_in_mixed, cfg.mix.opendns_in_mixed);
  EXPECT_EQ(back.zones.web_sites, cfg.zones.web_sites);
  EXPECT_DOUBLE_EQ(back.zones.zipf_exponent, cfg.zones.zipf_exponent);
  EXPECT_EQ(back.zones.hosting_pool_ips, cfg.zones.hosting_pool_ips);
}

TEST(ConfigIo, MissingKeysKeepDefaults) {
  std::stringstream ss{"houses = 5\n"};
  const ScenarioConfig cfg = load_config(ss);
  EXPECT_EQ(cfg.houses, 5u);
  EXPECT_EQ(cfg.seed, ScenarioConfig{}.seed);
  EXPECT_EQ(cfg.duration, ScenarioConfig{}.duration);
}

TEST(ConfigIo, CommentsAndBlanksIgnored) {
  std::stringstream ss{"# a comment\n\n  houses = 9  \n   # another\n"};
  EXPECT_EQ(load_config(ss).houses, 9u);
}

TEST(ConfigIo, UnknownKeyReportsLine) {
  std::stringstream ss{"houses = 5\nnot_a_knob = 1\n"};
  try {
    (void)load_config(ss);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("not_a_knob"), std::string::npos);
  }
}

TEST(ConfigIo, MalformedValueReportsLine) {
  std::stringstream ss{"houses = lots\n"};
  EXPECT_THROW((void)load_config(ss), std::runtime_error);
}

TEST(ConfigIo, MissingEqualsRejected) {
  std::stringstream ss{"houses 5\n"};
  EXPECT_THROW((void)load_config(ss), std::runtime_error);
}

/// Rejection table: every malformed numeric value must be refused with
/// an error naming the source, the line, and the offending key — never
/// silently clamped, wrapped, or parsed as a prefix.
TEST(ConfigIo, NumericRejectionTable) {
  struct Row {
    const char* line;     ///< the config line under test
    const char* key;      ///< key expected in the error message
    const char* why;      ///< fragment expected in the error message
  };
  const Row rows[] = {
      {"houses = 1e999", "houses", "bad number"},  // ints take no exponent
      {"seed = 99999999999999999999999999", "seed", "out of range"},
      {"activity_scale = 1e999", "activity_scale", "out of range"},
      {"activity_scale = inf", "activity_scale", "finite"},
      {"activity_scale = -inf", "activity_scale", "finite"},
      {"ttl_violation_prob = nan", "ttl_violation_prob", "finite"},
      {"houses = 1.5x", "houses", "bad number"},
      {"houses = 12 extra", "houses", "bad number"},
      {"activity_scale = 0.5garbage", "activity_scale", "bad number"},
      {"duration_hours = 2h", "duration_hours", "bad number"},
      {"mix.cloudflare = 1.01", "mix.cloudflare", "[0, 1]"},
      {"activity_scale = 0", "activity_scale", "> 0"},
      {"seed = 0x10", "seed", "bad number"},
      {"houses = ", "houses", "bad number"},
      {"tuning.prefetch_prob = 1.5", "tuning.prefetch_prob", "[0, 1]"},
      {"tuning.junk_queries_per_hour = nan", "tuning.junk_queries_per_hour",
       "finite"},
      {"tuning.diurnal_hours = 1,2,3", "tuning.diurnal_hours", "24"},
      // Rules packs or Town already enforced: one rule per field now.
      {"zones.web_sites = 0", "zones.web_sites", ">= 1"},
      {"zones.edges_per_cdn = 0", "zones.edges_per_cdn", ">= 1"},
      {"start_hour = 24", "start_hour", "[0, 23]"},
      {"tuning.computers_min = 0", "tuning.computers_min", ">= 1"},
      {"houses = 0", "houses", ">= 1"},
      {"duration_hours = -1", "duration_hours", ">= 1"},
      // With the default cloudflare and no_isp shares the triple tops 1.
      {"mix.isp_only = 0.95", "mix.isp_only", "exceeds 1.0"},
      {"tuning.diurnal_hours = 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
       "tuning.diurnal_hours", "must be > 0"},
      // Outage targets resolve when parsed, not when the town is built.
      {"faults = loss=0.01,outage=nosuch:0-10", "faults", "unknown outage target 'nosuch'"},
  };
  for (const Row& row : rows) {
    std::stringstream ss{std::string{row.line} + "\n"};
    try {
      (void)load_config(ss, "knobs.conf");
      FAIL() << "accepted: " << row.line;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("knobs.conf line 1"), std::string::npos)
          << row.line << " → " << msg;
      EXPECT_NE(msg.find(row.key), std::string::npos) << row.line << " → " << msg;
      EXPECT_NE(msg.find(row.why), std::string::npos) << row.line << " → " << msg;
    }
  }
}

TEST(ConfigIo, TuningRoundTripPreservesOverrides) {
  ScenarioConfig cfg;
  cfg.tuning.iot_max = 7;
  cfg.tuning.background_poll_scale = 2.5;
  cfg.tuning.junk_queries_per_hour = 120.0;
  cfg.tuning.web.links_max = 15;
  cfg.tuning.diurnal_hours = traffic::kOfficeHours;
  cfg.pack = "custom_pack";

  std::stringstream ss;
  save_config(ss, cfg);
  const ScenarioConfig back = load_config(ss);
  EXPECT_EQ(back.tuning, cfg.tuning);
  EXPECT_EQ(back.pack, "custom_pack");

  // Default tuning writes no tuning.* keys at all, keeping snapshots of
  // pre-pack configs byte-stable.
  std::stringstream plain;
  save_config(plain, ScenarioConfig{});
  EXPECT_EQ(plain.str().find("tuning."), std::string::npos);
  EXPECT_EQ(plain.str().find("pack"), std::string::npos);
}

TEST(ConfigIo, SnapshotsAreExact) {
  // The classic default snapshot keeps its bytes.
  std::stringstream plain;
  save_config(plain, ScenarioConfig{});
  EXPECT_EQ(plain.str(),
            "# dnsctx scenario configuration\n"
            "seed = 42\nhouses = 40\nduration_hours = 8\nstart_hour = 15\nshards = 1\n"
            "threads = 1\nactivity_scale = 1\nttl_violation_prob = 0.2\n"
            "dead_ntp_frac = 0.35\np2p_house_frac = 0.24\nwhole_house_cache_frac = 0\n"
            "mix.isp_only = 0.12\nmix.cloudflare = 0.045\nmix.no_isp = 0.05\n"
            "mix.opendns_in_mixed = 0.38\nzones.web_sites = 600\nzones.cdn_domains = 50\n"
            "zones.ad_domains = 90\nzones.tracker_domains = 60\nzones.api_domains = 120\n"
            "zones.video_sites = 25\nzones.other_names = 150\nzones.zipf_exponent = 0.95\n"
            "zones.edges_per_cdn = 4\nzones.hosting_pool_ips = 200\n");

  // Every double knob, each at a value that needs all 17 significant
  // digits: the snapshot must reload it bit for bit. Between 0.125 and
  // 0.5 the 16-digit grid is coarser than the doubles, so most values
  // there need 17.
  const auto doubles = [](ScenarioConfig& c) {
    auto& t = c.tuning;
    std::vector<double*> out = {
        &c.activity_scale,       &c.ttl_violation_prob,   &c.dead_ntp_frac,
        &c.p2p_house_frac,       &c.whole_house_cache_frac, &c.mix.isp_only,
        &c.mix.cloudflare,       &c.mix.no_isp,
        &c.mix.opendns_in_mixed, &c.zones.zipf_exponent,  &t.android_extra_prob,
        &t.apple_prob,           &t.apple_prob_light,     &t.tv_prob,
        &t.tv_prob_light,        &t.alarm_prob,           &t.browser_session_scale,
        &t.video_session_scale,  &t.background_poll_scale, &t.pages_per_session_scale,
        &t.conncheck_scale,      &t.prefetch_prob,        &t.household_site_prob,
        &t.junk_probe_prob,      &t.junk_queries_per_hour};
    for (double& h : t.diurnal_hours) out.push_back(&h);
    return out;
  };
  ScenarioConfig cfg;
  const auto knobs = doubles(cfg);
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    double v = 0.13 + 0.007 * static_cast<double>(i);
    do {
      v = std::nextafter(v, 1.0);
    } while (std::stod(strfmt("%.16g", v)) == v);
    *knobs[i] = v;
  }
  std::stringstream ss;
  save_config(ss, cfg);
  EXPECT_NE(ss.str().find("activity_scale = 0.13000000000000003\n"), std::string::npos)
      << ss.str();
  ScenarioConfig back = load_config(ss);
  const auto back_knobs = doubles(back);
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    EXPECT_EQ(*back_knobs[i], *knobs[i]) << "double knob #" << i;
  }
}

TEST(ConfigIo, RetiredEncryptedFracLoadsOnlyAsZero) {
  // The default snapshot as saved before the cleartext-853 adoption key
  // was retired: every snapshot of that time carries the key, at 0.
  std::stringstream old{
      "# dnsctx scenario configuration\n"
      "seed = 42\nhouses = 40\nduration_hours = 8\nstart_hour = 15\nshards = 1\n"
      "threads = 1\nactivity_scale = 1\nttl_violation_prob = 0.2\n"
      "dead_ntp_frac = 0.35\np2p_house_frac = 0.24\n"
      "encrypted_dns_device_frac = 0\nwhole_house_cache_frac = 0\n"
      "mix.isp_only = 0.12\nmix.cloudflare = 0.045\nmix.no_isp = 0.05\n"
      "mix.opendns_in_mixed = 0.38\nzones.web_sites = 600\nzones.cdn_domains = 50\n"
      "zones.ad_domains = 90\nzones.tracker_domains = 60\nzones.api_domains = 120\n"
      "zones.video_sites = 25\nzones.other_names = 150\nzones.zipf_exponent = 0.95\n"
      "zones.edges_per_cdn = 4\nzones.hosting_pool_ips = 200\n"};
  std::stringstream loaded, defaults;
  save_config(loaded, load_config(old, "old.conf"));
  save_config(defaults, ScenarioConfig{});
  EXPECT_EQ(loaded.str(), defaults.str());

  std::stringstream adopted{"houses = 4\nencrypted_dns_device_frac = 0.7\n"};
  try {
    (void)load_config(adopted, "old.conf");
    FAIL() << "a nonzero retired fraction was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "old.conf line 2: key 'encrypted_dns_device_frac' is retired and loads only "
                 "as 0 (encrypted DNS is now transport = dot)");
  }
}

TEST(ConfigIo, ShippedScenariosLoad) {
  const std::string dir = DNSCTX_SCENARIO_DIR;
  const ScenarioConfig paper = load_config_file(dir + "/paper_scale.conf");
  EXPECT_EQ(paper.houses, 100u);
  EXPECT_EQ(paper.duration, SimDuration::hours(168));
  EXPECT_EQ(paper.start_hour, 0);
  const ScenarioConfig future = load_config_file(dir + "/encrypted_future.conf");
  EXPECT_EQ(future.houses, 40u);
  EXPECT_EQ(future.duration, SimDuration::hours(12));
  EXPECT_EQ(future.transport, netsim::Transport::kDoT);
}

TEST(ConfigIo, FileRoundTrip) {
  ScenarioConfig cfg;
  cfg.houses = 13;
  const testutil::TempDir tmp{"dnsctx_config"};
  const std::string path = tmp.file("scenario.conf");
  save_config_file(path, cfg);
  EXPECT_EQ(load_config_file(path).houses, 13u);
  EXPECT_THROW((void)load_config_file("/no/such/file.conf"), std::runtime_error);
}

}  // namespace
}  // namespace dnsctx::scenario
