// Unit tests for the web page structure model and diurnal profile.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <set>
#include <stdexcept>

#include "traffic/diurnal.hpp"
#include "traffic/webmodel.hpp"

namespace dnsctx::traffic {
namespace {

[[nodiscard]] resolver::ZoneDbConfig zone_config() {
  resolver::ZoneDbConfig cfg;
  cfg.seed = 6;
  cfg.web_sites = 40;
  cfg.cdn_domains = 8;
  cfg.ad_domains = 8;
  cfg.tracker_domains = 6;
  cfg.api_domains = 8;
  cfg.video_sites = 4;
  cfg.other_names = 5;
  return cfg;
}

TEST(WebModel, EveryOriginHasAProfile) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel web{zones, 3};
  for (const auto origin : zones.ids_of(resolver::ServiceClass::kWebOrigin)) {
    const PageProfile& prof = web.page(origin);
    EXPECT_EQ(prof.origin, origin);
    EXPECT_GE(prof.asset_hosts.size(), 3u);   // ≥2 CDN + ≥1 ad/tracker
    EXPECT_LE(prof.asset_hosts.size(), 12u);
    EXPECT_GE(prof.links.size(), 2u);
  }
}

TEST(WebModel, AssetHostsAreInfrastructureNames) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel web{zones, 3};
  for (const auto origin : zones.ids_of(resolver::ServiceClass::kWebOrigin)) {
    for (const auto asset : web.page(origin).asset_hosts) {
      const auto service = zones.record(asset).service;
      EXPECT_TRUE(service == resolver::ServiceClass::kCdnAsset ||
                  service == resolver::ServiceClass::kAdNetwork ||
                  service == resolver::ServiceClass::kTracker ||
                  service == resolver::ServiceClass::kApi);
    }
  }
}

TEST(WebModel, LinksAreOtherWebOrigins) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel web{zones, 3};
  for (const auto origin : zones.ids_of(resolver::ServiceClass::kWebOrigin)) {
    for (const auto link : web.page(origin).links) {
      EXPECT_NE(link, origin);
      EXPECT_EQ(zones.record(link).service, resolver::ServiceClass::kWebOrigin);
    }
  }
}

TEST(WebModel, AssetHostsAreUniquePerPage) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel web{zones, 3};
  for (const auto origin : zones.ids_of(resolver::ServiceClass::kWebOrigin)) {
    const auto& assets = web.page(origin).asset_hosts;
    const std::set<resolver::NameId> uniq{assets.begin(), assets.end()};
    EXPECT_EQ(uniq.size(), assets.size());
  }
}

TEST(WebModel, PopularInfrastructureIsShared) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel web{zones, 3};
  // Some asset host must appear on many sites (the single tag manager
  // effect), driving cross-site cache hits.
  std::map<resolver::NameId, int> embed_counts;
  for (const auto origin : zones.ids_of(resolver::ServiceClass::kWebOrigin)) {
    for (const auto asset : web.page(origin).asset_hosts) ++embed_counts[asset];
  }
  int max_count = 0;
  for (const auto& [id, count] : embed_counts) max_count = std::max(max_count, count);
  EXPECT_GE(max_count, 10);
}

TEST(WebModel, DeterministicForSeed) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel a{zones, 5};
  const WebModel b{zones, 5};
  for (const auto origin : zones.ids_of(resolver::ServiceClass::kWebOrigin)) {
    EXPECT_EQ(a.page(origin).asset_hosts, b.page(origin).asset_hosts);
    EXPECT_EQ(a.page(origin).links, b.page(origin).links);
  }
}

TEST(WebModel, NonOriginLookupThrows) {
  const resolver::ZoneDb zones{zone_config()};
  const WebModel web{zones, 3};
  const auto cdn = zones.ids_of(resolver::ServiceClass::kCdnAsset)[0];
  EXPECT_THROW((void)web.page(cdn), std::invalid_argument);
}

TEST(Diurnal, ResidentialPeaksInTheEvening) {
  const auto prof = DiurnalProfile::residential();
  const auto at_hour = [&](int h) {
    return prof.factor(SimTime::origin() + SimDuration::hours(h));
  };
  EXPECT_GT(at_hour(20), at_hour(4));  // evening >> overnight
  EXPECT_GT(at_hour(20), at_hour(10));
  EXPECT_LT(at_hour(3), 0.5);
  EXPECT_GT(at_hour(19), 1.4);
}

TEST(Diurnal, WrapsAfterMidnight) {
  const auto prof = DiurnalProfile::residential();
  EXPECT_DOUBLE_EQ(prof.factor(SimTime::origin()),
                   prof.factor(SimTime::origin() + SimDuration::hours(24)));
  EXPECT_DOUBLE_EQ(prof.factor(SimTime::origin() + SimDuration::hours(3)),
                   prof.factor(SimTime::origin() + SimDuration::hours(27)));
}

TEST(Diurnal, StartHourShiftsPhase) {
  const auto base = DiurnalProfile::residential();
  const auto shifted = base.with_start_hour(20);
  EXPECT_DOUBLE_EQ(shifted.factor(SimTime::origin()),
                   base.factor(SimTime::origin() + SimDuration::hours(20)));
}

TEST(Diurnal, FlatIsFlat) {
  const auto flat = DiurnalProfile::flat();
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(flat.factor(SimTime::origin() + SimDuration::hours(h)), 1.0);
  }
}

TEST(Diurnal, HourBoundariesAreExact) {
  const auto prof = DiurnalProfile::residential();
  // One microsecond before an hour boundary still reads the old hour;
  // the boundary itself reads the new one — including the 23 → 0 wrap.
  for (int h = 1; h <= 24; ++h) {
    const SimTime boundary = SimTime::origin() + SimDuration::hours(h);
    EXPECT_DOUBLE_EQ(prof.factor(boundary - SimDuration::us(1)),
                     prof.factor(SimTime::origin() + SimDuration::hours(h - 1)))
        << "hour " << h;
    EXPECT_DOUBLE_EQ(prof.factor(boundary),
                     prof.factor(SimTime::origin() + SimDuration::hours(h % 24)))
        << "hour " << h;
  }
}

TEST(Diurnal, LateStartHoursWrapForDaysOnEnd) {
  // start_hour 23 + long runs: the lookup index must stay in [0, 24)
  // no matter how far the clock advances (floored, not truncated, mod).
  const auto prof = DiurnalProfile::residential().with_start_hour(23);
  const auto base = DiurnalProfile::residential();
  for (int h = 0; h < 24 * 8; ++h) {
    EXPECT_DOUBLE_EQ(prof.factor(SimTime::origin() + SimDuration::hours(h)),
                     base.factor(SimTime::origin() + SimDuration::hours((h + 23) % 24)))
        << "hour " << h;
  }
}

TEST(Diurnal, OfficePeaksMiddayNotEvening) {
  const auto prof = DiurnalProfile::office();
  const auto at_hour = [&](int h) {
    return prof.factor(SimTime::origin() + SimDuration::hours(h));
  };
  EXPECT_GT(at_hour(10), at_hour(20));  // work hours >> evening
  EXPECT_GT(at_hour(10), at_hour(3));
  EXPECT_LT(at_hour(23), 0.2);
}

TEST(Diurnal, CustomValidatesTheTable) {
  std::array<double, 24> hours{};
  hours.fill(1.0);
  EXPECT_NO_THROW((void)DiurnalProfile::custom(hours));

  // Zero-weight hours are legitimate (quiet periods) as long as some
  // hour carries load...
  hours[3] = 0.0;
  hours[4] = 0.0;
  EXPECT_NO_THROW((void)DiurnalProfile::custom(hours));
  const auto prof = DiurnalProfile::custom(hours);
  EXPECT_DOUBLE_EQ(prof.factor(SimTime::origin() + SimDuration::hours(3)), 0.0);

  // ...but an all-zero table would stall every app forever.
  std::array<double, 24> dead{};
  EXPECT_THROW((void)DiurnalProfile::custom(dead), std::invalid_argument);

  std::array<double, 24> negative{};
  negative.fill(1.0);
  negative[7] = -0.1;
  EXPECT_THROW((void)DiurnalProfile::custom(negative), std::invalid_argument);

  std::array<double, 24> infinite{};
  infinite.fill(1.0);
  infinite[12] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)DiurnalProfile::custom(infinite), std::invalid_argument);

  std::array<double, 24> notanumber{};
  notanumber.fill(1.0);
  notanumber[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)DiurnalProfile::custom(notanumber), std::invalid_argument);
}

TEST(WebModel, CustomFanoutBoundsAreRespected) {
  const resolver::ZoneDb zones{zone_config()};
  WebFanout fanout;
  fanout.cdn_min = fanout.cdn_max = 1;   // degenerate min == max draws
  fanout.ad_min = fanout.ad_max = 0;     // a category can be absent
  fanout.tracker_min = fanout.tracker_max = 0;
  fanout.api_min = fanout.api_max = 0;
  fanout.links_min = 2;
  fanout.links_max = 3;
  const WebModel model{zones, 11, fanout};
  for (std::size_t id = 0; id < zones.size(); ++id) {
    const auto nid = static_cast<resolver::NameId>(id);
    if (zones.record(nid).service != resolver::ServiceClass::kWebOrigin) continue;
    const PageProfile& page = model.page(nid);
    // Exactly one CDN asset, nothing else (duplicates collapse, so "at
    // most" for the upper bound and the single-CDN case is exact).
    EXPECT_EQ(page.asset_hosts.size(), 1u);
    EXPECT_LE(page.links.size(), 3u);  // self-links are dropped: no lower bound
  }
}

TEST(WebModel, InvertedFanoutIsRejected) {
  const resolver::ZoneDb zones{zone_config()};
  WebFanout bad;
  bad.cdn_min = 5;
  bad.cdn_max = 2;
  EXPECT_THROW((WebModel{zones, 11, bad}), std::invalid_argument);
}

TEST(WebModel, DefaultFanoutMatchesDefaultConstructedArgument) {
  // The default argument must reproduce the historical literals: same
  // seed + explicit default fanout ⇒ identical pages.
  const resolver::ZoneDb zones{zone_config()};
  const WebModel a{zones, 6};
  const WebModel b{zones, 6, WebFanout{}};
  for (std::size_t id = 0; id < zones.size(); ++id) {
    const auto nid = static_cast<resolver::NameId>(id);
    if (zones.record(nid).service != resolver::ServiceClass::kWebOrigin) continue;
    EXPECT_EQ(a.page(nid).asset_hosts, b.page(nid).asset_hosts);
    EXPECT_EQ(a.page(nid).links, b.page(nid).links);
  }
}

}  // namespace
}  // namespace dnsctx::traffic
