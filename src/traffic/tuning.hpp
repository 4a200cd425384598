// dnsctx — query-composition tuning knobs (scenario packs).
//
// Every knob defaults to the literal the code used before packs
// existed, and the default-constructed struct is applied through
// arithmetic identities (×1.0, ÷1.0, bounded() with identical bounds),
// so a default TrafficTuning reproduces the classic household mix byte
// for byte — the golden-output contract. Scenario packs (tuning.* keys,
// src/scenario/config_io.hpp) override these to model IoT-heavy homes,
// CDN-dominated streaming, junk/NXDOMAIN storms, or enterprise fanout.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "traffic/diurnal.hpp"

namespace dnsctx::traffic {

/// Per-origin fanout ranges for the static web model. Each page origin
/// draws its third-party dependencies uniformly from [min, max].
struct WebFanout {
  std::size_t cdn_min = 2, cdn_max = 5;
  std::size_t ad_min = 1, ad_max = 3;
  std::size_t tracker_min = 1, tracker_max = 2;
  std::size_t api_min = 0, api_max = 2;
  std::size_t links_min = 4, links_max = 10;

  bool operator==(const WebFanout&) const = default;
};

/// Composition knobs threaded from ScenarioConfig into house/device
/// population draws and per-app configs. Scales are activity
/// multipliers: 2.0 means twice as many sessions/polls per hour.
struct TrafficTuning {
  // --- device population (per-house inventory draws) ---
  std::size_t computers_min = 1, computers_max = 2;
  std::size_t computers_light = 1;     ///< fixed count in "light" houses
  double android_extra_prob = 0.25;    ///< chance of a second Android
  double apple_prob = 0.5, apple_prob_light = 0.3;
  double tv_prob = 0.65, tv_prob_light = 0.5;
  std::size_t iot_min = 0, iot_max = 1;
  double alarm_prob = 0.25;

  // --- app behaviour ---
  double browser_session_scale = 1.0;
  double video_session_scale = 1.0;
  double background_poll_scale = 1.0;
  double pages_per_session_scale = 1.0;
  double conncheck_scale = 1.0;
  double prefetch_prob = 0.9;          ///< non-OpenDNS houses (OpenDNS pins 0.2)
  double household_site_prob = 0.4;
  double junk_probe_prob = 0.35;
  /// Dedicated junk/NXDOMAIN app: mean queries per device-hour. 0
  /// disables the app entirely (no extra RNG streams — the default).
  double junk_queries_per_hour = 0.0;

  // --- web structure ---
  WebFanout web;

  // --- diurnal shape ---
  std::array<double, 24> diurnal_hours = kResidentialHours;

  bool operator==(const TrafficTuning&) const = default;

  /// Programmatic backstop behind the knob table's per-line checks:
  /// a tuning assembled in code (tests, future callers) gets the same
  /// rejection as one loaded from a malformed config or pack file.
  void validate() const {
    const auto range = [](std::size_t lo, std::size_t hi, const char* what) {
      if (lo > hi) {
        throw std::invalid_argument{std::string{"TrafficTuning: "} + what +
                                    " min exceeds max"};
      }
    };
    range(computers_min, computers_max, "computers");
    range(iot_min, iot_max, "iot");
    range(web.cdn_min, web.cdn_max, "web cdn");
    range(web.ad_min, web.ad_max, "web ad");
    range(web.tracker_min, web.tracker_max, "web tracker");
    range(web.api_min, web.api_max, "web api");
    range(web.links_min, web.links_max, "web links");
    if (computers_min < 1) {
      throw std::invalid_argument{
          "TrafficTuning: computers min must be >= 1 (every house browses)"};
    }
    const auto prob = [](double p, const char* what) {
      if (!(p >= 0.0 && p <= 1.0)) {  // negated to also catch NaN
        throw std::invalid_argument{std::string{"TrafficTuning: "} + what +
                                    " must be in [0, 1]"};
      }
    };
    prob(android_extra_prob, "android_extra_prob");
    prob(apple_prob, "apple_prob");
    prob(apple_prob_light, "apple_prob_light");
    prob(tv_prob, "tv_prob");
    prob(tv_prob_light, "tv_prob_light");
    prob(alarm_prob, "alarm_prob");
    prob(prefetch_prob, "prefetch_prob");
    prob(household_site_prob, "household_site_prob");
    prob(junk_probe_prob, "junk_probe_prob");
    const auto positive = [](double v, const char* what) {
      if (!(v > 0.0) || !std::isfinite(v)) {
        throw std::invalid_argument{std::string{"TrafficTuning: "} + what +
                                    " must be a positive finite number"};
      }
    };
    positive(browser_session_scale, "browser_session_scale");
    positive(video_session_scale, "video_session_scale");
    positive(background_poll_scale, "background_poll_scale");
    positive(pages_per_session_scale, "pages_per_session_scale");
    positive(conncheck_scale, "conncheck_scale");
    if (!(junk_queries_per_hour >= 0.0) ||
        !std::isfinite(junk_queries_per_hour)) {
      throw std::invalid_argument{
          "TrafficTuning: junk_queries_per_hour must be finite and >= 0"};
    }
    (void)DiurnalProfile::custom(diurnal_hours);  // throws on bad table
  }
};

}  // namespace dnsctx::traffic
