#include "scenario/scenario.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "resolver/forwarder.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace dnsctx::scenario {

namespace {

using resolver::well_known::kCloudflare1;
using resolver::well_known::kCloudflare2;
using resolver::well_known::kGoogle1;
using resolver::well_known::kGoogle2;
using resolver::well_known::kIspResolver1;
using resolver::well_known::kIspResolver2;
using resolver::well_known::kOpenDns1;

/// §5.1's hard-coded service addresses.
constexpr Ipv4Addr kDeadNtp{128, 138, 141, 172};          // retired public NTP
constexpr Ipv4Addr kLiveNtp[] = {{129, 6, 15, 28}, {216, 239, 35, 0}};
constexpr Ipv4Addr kOomaNtp[] = {{76, 8, 228, 10}, {76, 8, 228, 11}};
constexpr Ipv4Addr kAlarmNet[] = {{204, 141, 57, 10}, {204, 141, 57, 11}};

enum class DeviceKind { kComputer, kAndroid, kAppleMobile, kTv, kIot };

/// Seed-label index space per shard for platform streams. Shard 0 maps
/// onto indices 0..3 — the exact labels the single-simulator code used —
/// so `shards = 1` reproduces the legacy streams bit for bit.
constexpr std::size_t kPlatformSeedStride = 16;

/// Merge per-shard timestamp-sorted record streams into one. Adjacent
/// pairs are merged with std::merge, which takes from the left range on
/// ties — so records with equal timestamps keep (shard index, per-shard
/// sequence) order, the documented deterministic tie-break.
template <typename Rec, typename Key>
std::vector<Rec> merge_sorted_shards(std::vector<std::vector<Rec>> parts, Key key) {
  const auto before = [&](const Rec& a, const Rec& b) { return key(a) < key(b); };
  while (parts.size() > 1) {
    std::vector<std::vector<Rec>> next;
    next.reserve((parts.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      std::vector<Rec> merged;
      merged.reserve(parts[i].size() + parts[i + 1].size());
      std::merge(std::make_move_iterator(parts[i].begin()),
                 std::make_move_iterator(parts[i].end()),
                 std::make_move_iterator(parts[i + 1].begin()),
                 std::make_move_iterator(parts[i + 1].end()), std::back_inserter(merged),
                 before);
      next.push_back(std::move(merged));
    }
    if (parts.size() % 2 == 1) next.push_back(std::move(parts.back()));
    parts = std::move(next);
  }
  return parts.empty() ? std::vector<Rec>{} : std::move(parts.front());
}

[[nodiscard]] capture::Dataset merge_shard_datasets(std::vector<capture::Dataset> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  std::vector<std::vector<capture::ConnRecord>> conns;
  std::vector<std::vector<capture::DnsRecord>> dns;
  conns.reserve(parts.size());
  dns.reserve(parts.size());
  for (auto& p : parts) {
    conns.push_back(std::move(p.conns));
    dns.push_back(std::move(p.dns));
  }
  std::vector<std::vector<capture::EncFlowRecord>> encflows;
  encflows.reserve(parts.size());
  for (auto& p : parts) encflows.push_back(std::move(p.encflows));
  capture::Dataset out;
  out.conns = merge_sorted_shards(std::move(conns),
                                  [](const capture::ConnRecord& c) { return c.start; });
  out.dns =
      merge_sorted_shards(std::move(dns), [](const capture::DnsRecord& d) { return d.ts; });
  out.encflows = merge_sorted_shards(
      std::move(encflows), [](const capture::EncFlowRecord& e) { return e.start; });
  return out;
}

}  // namespace

struct Town::House {
  std::unique_ptr<netsim::HouseGateway> gateway;
  std::unique_ptr<resolver::WholeHouseForwarder> forwarder;
  std::vector<std::unique_ptr<traffic::Device>> devices;
  std::vector<std::unique_ptr<traffic::App>> apps;
};

/// One independently simulated partition of the neighborhood: its own
/// event loop, WAN, resolver-platform instances, server farm, monitor
/// tap, and a contiguous range of houses. Members are declared so the
/// houses (which reference the gateway/network) destroy first, and so
/// the simulator — whose still-pending events may hold PacketHandles —
/// destroys before the network that owns the packet arena. (These are
/// unique_ptrs filled in build_shard, so declaration order is free to
/// encode destruction order alone.)
struct Town::Shard {
  std::unique_ptr<netsim::Network> net;
  std::unique_ptr<netsim::Simulator> sim;
  std::unique_ptr<faults::PacketFaultInjector> injector;  ///< null for the empty plan
  std::vector<std::unique_ptr<resolver::RecursiveResolverPlatform>> platforms;
  std::unique_ptr<traffic::ServerFarm> farm;
  std::unique_ptr<capture::Monitor> monitor;
  std::unique_ptr<capture::TruthTap> truth_tap;  ///< null unless collect_truth
  std::unique_ptr<netsim::TapTee> tee;           ///< fans the tap to both
  std::vector<std::unique_ptr<House>> houses;
  GroundTruth truth;
};

std::vector<Ipv4Addr> resolve_outage_target(const std::string& target) {
  using namespace resolver::well_known;
  if (target == "isp" || target == "local") return {kIspResolver1, kIspResolver2};
  if (target == "upstream1") return {kIspResolver1};
  if (target == "upstream2") return {kIspResolver2};
  if (target == "google") return {kGoogle1, kGoogle2};
  if (target == "opendns") return {kOpenDns1, kOpenDns2};
  if (target == "cloudflare") return {kCloudflare1, kCloudflare2};
  if (const auto addr = Ipv4Addr::parse(target)) return {*addr};
  throw std::runtime_error{"fault plan: unknown outage target '" + target + "'"};
}

void HouseProfileMix::validate() const {
  const auto prob = [](double v, const char* name) {
    if (!(v >= 0.0 && v <= 1.0)) {  // negated comparison also rejects NaN
      throw std::runtime_error{std::string{"HouseProfileMix: "} + name +
                               " must be in [0, 1]"};
    }
  };
  prob(isp_only, "isp_only");
  prob(cloudflare, "cloudflare");
  prob(no_isp, "no_isp");
  prob(opendns_in_mixed, "opendns_in_mixed");
  const double sum = isp_only + cloudflare + no_isp;
  if (sum > 1.0 + 1e-9) {
    throw std::runtime_error{
        "HouseProfileMix: isp_only + cloudflare + no_isp = " + std::to_string(sum) +
        " exceeds 1.0 (the remainder is the mixed-profile share)"};
  }
}

Town::Town(const ScenarioConfig& cfg)
    : cfg_{cfg}, rng_{derive_seed(cfg.seed, "town")} {
  cfg_.mix.validate();
  cfg_.tuning.validate();
  cfg_.shards = std::clamp<std::size_t>(cfg_.shards, 1, std::max<std::size_t>(cfg_.houses, 1));

  resolver::ZoneDbConfig zone_cfg = cfg_.zones;
  if (zone_cfg.seed == resolver::ZoneDbConfig{}.seed) zone_cfg.seed = cfg_.seed;
  zones_ = std::make_unique<resolver::ZoneDb>(zone_cfg);
  web_ = std::make_unique<traffic::WebModel>(*zones_, cfg_.seed, cfg_.tuning.web);
  world_ = std::make_unique<traffic::AppWorld>(traffic::AppWorld{
      *zones_, *web_,
      traffic::DiurnalProfile::custom(cfg_.tuning.diurnal_hours)
          .with_start_hour(cfg_.start_hour)});

  // Endpoints every device polls (push hubs, vendor clouds): the three
  // most popular API names.
  {
    const auto& apis = zones_->ids_of(resolver::ServiceClass::kApi);
    auto universal = std::make_shared<std::vector<resolver::NameId>>();
    for (std::size_t i = 0; i < std::min<std::size_t>(3, apis.size()); ++i) {
      universal->push_back(apis[i]);
    }
    universal_services_ = std::move(universal);
  }

  // Shards are built sequentially — construction draws (profiles, house
  // inventories) must land in global house order — but each shard's
  // streams depend only on the master seed and its own indices, never on
  // the thread count used later.
  const auto profiles = assign_profiles();
  const auto p2p = assign_p2p();
  house_info_.reserve(cfg_.houses);
  shards_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    const std::size_t begin = s * cfg_.houses / cfg_.shards;
    const std::size_t end = (s + 1) * cfg_.houses / cfg_.shards;
    build_shard(s, begin, end, profiles, p2p);
  }
}

void Town::build_shard(std::size_t shard_idx, std::size_t house_begin, std::size_t house_end,
                       const std::vector<std::string>& profiles,
                       const std::vector<bool>& p2p) {
  auto shard = std::make_unique<Shard>();
  shard->sim = std::make_unique<netsim::Simulator>();

  // Shard 0 reuses the legacy (un-indexed) seed labels so a one-shard
  // town replays the historical byte stream; further shards derive
  // sibling streams off the same master seed.
  const std::uint64_t net_seed = shard_idx == 0
                                     ? derive_seed(cfg_.seed, "network")
                                     : derive_seed(cfg_.seed, "network", shard_idx);
  netsim::LatencyModel latency;
  shard->net = std::make_unique<netsim::Network>(*shard->sim, latency, net_seed);

  // Fault-plan wiring. Every fault stream lives under its own derive
  // label so an empty plan leaves all baseline streams untouched (the
  // injector is not even constructed then).
  if (cfg_.faults.has_packet_faults()) {
    shard->injector = std::make_unique<faults::PacketFaultInjector>(
        faults::PacketFaultConfig::from_plan(cfg_.faults),
        derive_seed(cfg_.seed, "faults/net", shard_idx));
    shard->net->set_fault_injector(shard->injector.get());
  }
  faults::ResolverFaultConfig resolver_faults;
  if (cfg_.faults.has_resolver_faults()) {
    resolver_faults.servfail_rate = cfg_.faults.servfail_rate;
    resolver_faults.nxdomain_rate = cfg_.faults.nxdomain_rate;
    for (const faults::Outage& o : cfg_.faults.outages) {
      for (const Ipv4Addr addr : resolve_outage_target(o.target)) {
        resolver_faults.outages.push_back(
            {addr, SimTime::origin() + SimDuration::sec(o.begin_sec),
             SimTime::origin() + SimDuration::sec(o.end_sec)});
      }
    }
  }

  for (auto& platform_cfg : resolver::default_platforms()) {
    for (const auto addr : platform_cfg.addrs) {
      shard->net->latency_mut().set_site(addr, platform_cfg.site);
      if (shard_idx == 0) resolver_addrs_.push_back(addr);
    }
    shard->platforms.push_back(std::make_unique<resolver::RecursiveResolverPlatform>(
        *shard->sim, *shard->net, *zones_, platform_cfg,
        derive_seed(cfg_.seed, "platform",
                    shard_idx * kPlatformSeedStride + shard->platforms.size())));
    if (resolver_faults.active()) {
      shard->platforms.back()->set_faults(
          resolver_faults,
          derive_seed(cfg_.seed, "faults/resolver",
                      shard_idx * kPlatformSeedStride + (shard->platforms.size() - 1)));
    }
  }

  const std::uint64_t farm_seed = shard_idx == 0 ? derive_seed(cfg_.seed, "farm")
                                                 : derive_seed(cfg_.seed, "farm", shard_idx);
  shard->farm = std::make_unique<traffic::ServerFarm>(*shard->sim, *shard->net, farm_seed);
  shard->farm->add_dead_ip(kDeadNtp);

  capture::MonitorConfig mon_cfg;
  mon_cfg.observe_encrypted_metadata = netsim::traits_for(cfg_.transport).encrypted;
  shard->monitor = std::make_unique<capture::Monitor>(mon_cfg);
  if (cfg_.collect_truth) {
    shard->truth_tap = std::make_unique<capture::TruthTap>(resolver_addrs_);
    shard->tee = std::make_unique<netsim::TapTee>(shard->monitor.get(),
                                                  shard->truth_tap.get());
    shard->net->set_tap(shard->tee.get());
  } else {
    shard->net->set_tap(shard->monitor.get());
  }

  shard->houses.reserve(house_end - house_begin);
  for (std::size_t i = house_begin; i < house_end; ++i) {
    build_house(*shard, i, profiles[i], p2p[i]);
  }
  for (const auto& p : shard->platforms) platform_view_.push_back(p.get());
  shards_.push_back(std::move(shard));
}

std::vector<bool> Town::assign_p2p() const {
  // Stratified like the profiles: the P2P-house share holds exactly.
  std::vector<bool> out(cfg_.houses, false);
  const auto quota = static_cast<std::size_t>(
      cfg_.p2p_house_frac * static_cast<double>(cfg_.houses) + 0.5);
  for (std::size_t i = 0; i < std::min(quota, out.size()); ++i) out[i] = true;
  Rng shuffle_rng{derive_seed(cfg_.seed, "p2p-houses")};
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j = shuffle_rng.bounded(i);
    const bool tmp = out[i - 1];
    out[i - 1] = out[j];
    out[j] = tmp;
  }
  return out;
}

std::vector<std::string> Town::assign_profiles() const {
  // Stratified assignment: the profile mix holds exactly (up to
  // rounding) at any neighborhood size, then the order is shuffled.
  std::vector<std::string> out;
  const HouseProfileMix& mix = cfg_.mix;
  const auto quota = [&](double frac) {
    return static_cast<std::size_t>(frac * static_cast<double>(cfg_.houses) + 0.5);
  };
  for (std::size_t i = 0; i < quota(mix.isp_only); ++i) out.emplace_back("isp_only");
  for (std::size_t i = 0; i < quota(mix.cloudflare); ++i) out.emplace_back("cloudflare");
  for (std::size_t i = 0; i < quota(mix.no_isp); ++i) out.emplace_back("no_isp");
  while (out.size() < cfg_.houses) out.emplace_back("mixed");
  out.resize(cfg_.houses);
  Rng shuffle_rng{derive_seed(cfg_.seed, "profiles")};
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[shuffle_rng.bounded(i)]);
  }
  return out;
}

Town::~Town() = default;

netsim::Simulator& Town::sim() { return *shards_.front()->sim; }

void Town::build_house(Shard& shard, std::size_t index, const std::string& profile,
                       bool p2p_house) {
  Rng house_rng{derive_seed(cfg_.seed, "house", index)};
  auto house = std::make_unique<House>();

  const Ipv4Addr house_ip{100, 66, static_cast<std::uint8_t>(1 + index / 250),
                          static_cast<std::uint8_t>(1 + index % 250)};
  shard.net->latency_mut().set_site(
      house_ip, {SimDuration::from_ms(house_rng.uniform(0.3, 0.8)), 0.1});
  house->gateway = std::make_unique<netsim::HouseGateway>(
      *shard.sim, *shard.net, house_ip, derive_seed(cfg_.seed, "gateway", index));
  if (house_rng.bernoulli(cfg_.whole_house_cache_frac)) {
    house->forwarder = std::make_unique<resolver::WholeHouseForwarder>(
        *shard.sim, *house->gateway, Ipv4Addr{192, 168, 1, 253}, dns::CacheConfig{});
  }

  // ----- profile ----------------------------------------------------------
  HouseInfo info;
  info.external_ip = house_ip;
  info.profile = profile;

  const Ipv4Addr isp_a = house_rng.bernoulli(0.5) ? kIspResolver1 : kIspResolver2;
  const Ipv4Addr isp_b = isp_a == kIspResolver1 ? kIspResolver2 : kIspResolver1;

  auto resolvers_for = [&](DeviceKind kind, bool opendns_device) -> std::vector<Ipv4Addr> {
    if (opendns_device) return {kOpenDns1, isp_a};
    if (info.profile == "isp_only") return {isp_a, isp_b};
    if (info.profile == "cloudflare") {
      return kind == DeviceKind::kAndroid ? std::vector<Ipv4Addr>{kGoogle1, kCloudflare1}
                                          : std::vector<Ipv4Addr>{kCloudflare1, kCloudflare2};
    }
    if (info.profile == "no_isp") return {kGoogle1, kGoogle2};
    // mixed
    if (kind == DeviceKind::kAndroid) return {kGoogle1, isp_a};
    return {isp_a, isp_b};
  };

  // ----- device inventory -------------------------------------------------
  struct Plan {
    DeviceKind kind;
    bool opendns = false;
    bool p2p = false;
    bool alarm = false;
    bool dead_ntp = false;
  };
  std::vector<Plan> plans;
  // Public-DNS-only households skew light and phone-centric; everyone
  // else gets the full inventory. All population knobs come from the
  // tuning block; the defaults collapse to the historical draws (same
  // bounded() arguments, same bernoulli draw count) so the default RNG
  // stream — and every golden — is untouched.
  const traffic::TrafficTuning& tun = cfg_.tuning;
  const bool light = info.profile == "no_isp";
  const std::size_t computers =
      light ? tun.computers_light
            : tun.computers_min +
                  house_rng.bounded(tun.computers_max - tun.computers_min + 1);
  for (std::size_t i = 0; i < computers; ++i) plans.push_back({DeviceKind::kComputer});
  if (info.profile != "isp_only") {
    const std::size_t androids =
        1 + (house_rng.bernoulli(tun.android_extra_prob) ? 1 : 0);
    for (std::size_t i = 0; i < androids; ++i) plans.push_back({DeviceKind::kAndroid});
    info.has_android = true;
  }
  if (house_rng.bernoulli(light ? tun.apple_prob_light : tun.apple_prob)) {
    plans.push_back({DeviceKind::kAppleMobile});
  }
  if (house_rng.bernoulli(light ? tun.tv_prob_light : tun.tv_prob)) {
    plans.push_back({DeviceKind::kTv});
  }
  const std::size_t iots =
      tun.iot_min + house_rng.bounded(tun.iot_max - tun.iot_min + 1);
  for (std::size_t i = 0; i < iots; ++i) {
    Plan p{DeviceKind::kIot};
    p.dead_ntp = house_rng.bernoulli(cfg_.dead_ntp_frac);
    plans.push_back(p);
  }
  if (house_rng.bernoulli(tun.alarm_prob)) {
    Plan p{DeviceKind::kIot};
    p.alarm = true;
    plans.push_back(p);
  }
  if (info.profile == "mixed" && house_rng.bernoulli(cfg_.mix.opendns_in_mixed)) {
    info.has_opendns = true;
    // OpenDNS households point one configured machine and usually the
    // streaming box at it (drives OpenDNS's conn/byte share exceeding
    // its lookup share, Table 1) — but another machine still uses the
    // ISP resolvers (§3: nearly every house touches them).
    if (computers < 2) plans.push_back({DeviceKind::kComputer});
    plans.front().opendns = true;
    for (auto& p : plans) {
      if (p.kind == DeviceKind::kTv && house_rng.bernoulli(0.75)) p.opendns = true;
    }
  }
  if (p2p_house) {
    plans.front().p2p = true;
    info.has_p2p = true;
  }
  info.devices = plans.size();

  // ----- build devices + apps --------------------------------------------
  // The household's shared favourites: every browser in the house draws
  // a share of its sessions from these (drives §8's whole-house wins).
  auto household_sites = std::make_shared<std::vector<resolver::NameId>>();
  const std::size_t n_favorites = 8 + house_rng.bounded(8);
  const auto& all_webs = zones_->ids_of(resolver::ServiceClass::kWebOrigin);
  for (std::size_t i = 0; i < n_favorites; ++i) {
    // Half the family favourites follow global popularity, half are the
    // household's own niche (the local school, a hobby forum): tail
    // names whose lookups miss even the shared resolver cache, which is
    // what gives a whole-house cache its R-class wins (§8).
    if (house_rng.bernoulli(0.5) || all_webs.empty()) {
      household_sites->push_back(zones_->sample_web_site(house_rng));
    } else {
      household_sites->push_back(all_webs[house_rng.bounded(all_webs.size())]);
    }
  }
  const double scale = std::max(cfg_.activity_scale, 1e-6);
  std::size_t dev_idx = 0;
  for (const Plan& plan : plans) {
    const Ipv4Addr internal{192, 168, 1, static_cast<std::uint8_t>(10 + dev_idx)};
    resolver::StubConfig stub_cfg;
    stub_cfg.resolver_addrs = resolvers_for(plan.kind, plan.opendns);
    stub_cfg.ttl_violation_prob = cfg_.ttl_violation_prob;
    stub_cfg.cache.capacity = plan.kind == DeviceKind::kIot ? 64 : 3'000;
    const bool can_encrypt = plan.kind == DeviceKind::kComputer ||
                             plan.kind == DeviceKind::kAndroid ||
                             plan.kind == DeviceKind::kAppleMobile;
    // A retired adoption knob drew here; the discarded draw keeps every
    // later draw, and so every output, where it was.
    if (can_encrypt) house_rng();
    // Transport scenario: capable devices move to the encrypted channel.
    // Structural (keyed on the device plan, no RNG draw), so the kDo53
    // stream is untouched. Resolverless keeps Do53 lookups — it changes
    // how records ARRIVE (server push below), not how queries travel.
    if (can_encrypt && netsim::traits_for(cfg_.transport).encrypted) {
      stub_cfg.transport = cfg_.transport;
    }
    // Dual-stack OSes race AAAA lookups next to A (IoT gear mostly not).
    if (plan.kind != DeviceKind::kIot) stub_cfg.aaaa_prob = 0.55;
    stub_cfg.retry_backoff = cfg_.faults.backoff;
    const std::uint64_t dev_seed = derive_seed(cfg_.seed, "device", index * 64 + dev_idx);
    auto device = std::make_unique<traffic::Device>(*shard.sim, *house->gateway, internal,
                                                    stub_cfg, dev_seed);
    device->set_ground_truth(&shard.truth);
    device->set_syn_backoff(cfg_.faults.backoff);

    auto add_app = [&](std::unique_ptr<traffic::App> app) {
      app->start();
      house->apps.push_back(std::move(app));
    };
    switch (plan.kind) {
      case DeviceKind::kComputer: {
        traffic::BrowserConfig bc;
        bc.household_sites = household_sites;
        bc.server_push = cfg_.transport == netsim::Transport::kResolverless;
        bc.session_gap_mean_sec /= scale * tun.browser_session_scale;
        bc.pages_per_session_mean *= tun.pages_per_session_scale;
        bc.household_site_prob = tun.household_site_prob;
        bc.junk_probe_prob = tun.junk_probe_prob;
        // OpenDNS-configured machines belong to privacy-minded users who
        // commonly disable speculative prefetching.
        bc.prefetch_prob = plan.opendns ? 0.2 : tun.prefetch_prob;
        add_app(std::make_unique<traffic::BrowserApp>(*device, *world_, bc,
                                                      derive_seed(dev_seed, "browser")));
        traffic::BackgroundConfig bg;
        bg.universal_services = universal_services_;
        bg.universal_period_min_sec /= tun.background_poll_scale;
        bg.universal_period_max_sec /= tun.background_poll_scale;
        bg.period_min_sec /= tun.background_poll_scale;
        bg.period_max_sec /= tun.background_poll_scale;
        add_app(std::make_unique<traffic::BackgroundApp>(*device, *world_, bg,
                                                         derive_seed(dev_seed, "bg")));
        if (plan.p2p) {
          add_app(std::make_unique<traffic::P2pApp>(*device, *world_, traffic::P2pConfig{},
                                                    derive_seed(dev_seed, "p2p")));
        }
        break;
      }
      case DeviceKind::kAndroid:
      case DeviceKind::kAppleMobile: {
        traffic::BrowserConfig bc;
        bc.household_sites = household_sites;
        bc.server_push = cfg_.transport == netsim::Transport::kResolverless;
        bc.session_gap_mean_sec =
            bc.session_gap_mean_sec * 5.0 / (scale * tun.browser_session_scale);
        bc.pages_per_session_mean = 3.0 * tun.pages_per_session_scale;
        bc.household_site_prob = tun.household_site_prob;
        bc.junk_probe_prob = tun.junk_probe_prob;
        bc.prefetch_prob = tun.prefetch_prob;
        add_app(std::make_unique<traffic::BrowserApp>(*device, *world_, bc,
                                                      derive_seed(dev_seed, "browser")));
        traffic::BackgroundConfig bg;
        bg.universal_services = universal_services_;
        bg.services_min = 1;
        bg.services_max = 2;
        bg.period_min_sec = 400 / tun.background_poll_scale;
        bg.period_max_sec = 2'400 / tun.background_poll_scale;
        bg.universal_period_min_sec /= tun.background_poll_scale;
        bg.universal_period_max_sec /= tun.background_poll_scale;
        add_app(std::make_unique<traffic::BackgroundApp>(*device, *world_, bg,
                                                         derive_seed(dev_seed, "bg")));
        if (plan.kind == DeviceKind::kAndroid) {
          traffic::ConnCheckConfig cc;
          cc.period_mean_sec /= tun.conncheck_scale;
          add_app(std::make_unique<traffic::ConnCheckApp>(*device, *world_, cc,
                                                          derive_seed(dev_seed, "cc")));
        }
        break;
      }
      case DeviceKind::kTv: {
        traffic::VideoConfig vc;
        vc.session_gap_mean_sec /= scale * tun.video_session_scale;
        add_app(std::make_unique<traffic::VideoApp>(*device, *world_, vc,
                                                    derive_seed(dev_seed, "video")));
        traffic::BackgroundConfig bg;
        bg.universal_services = universal_services_;
        bg.services_min = 1;
        bg.services_max = 2;
        bg.period_min_sec = 600 / tun.background_poll_scale;
        bg.universal_period_min_sec /= tun.background_poll_scale;
        bg.universal_period_max_sec /= tun.background_poll_scale;
        bg.period_max_sec /= tun.background_poll_scale;
        add_app(std::make_unique<traffic::BackgroundApp>(*device, *world_, bg,
                                                         derive_seed(dev_seed, "bg")));
        break;
      }
      case DeviceKind::kIot: {
        traffic::IotConfig ic;
        ic.ntp = true;
        if (plan.dead_ntp) {
          ic.ntp_server = kDeadNtp;
          ic.ntp_dead = true;
        } else if (house_rng.bernoulli(0.3)) {
          ic.ntp_server = kOomaNtp[house_rng.bounded(std::size(kOomaNtp))];
        } else {
          ic.ntp_server = kLiveNtp[house_rng.bounded(std::size(kLiveNtp))];
        }
        ic.alarm = plan.alarm;
        if (plan.alarm) {
          ic.alarm_server = kAlarmNet[house_rng.bounded(std::size(kAlarmNet))];
        }
        add_app(std::make_unique<traffic::IotApp>(*device, *world_, ic,
                                                  derive_seed(dev_seed, "iot")));
        break;
      }
    }
    // Junk/NXDOMAIN composition (B-Root-style storms, junk_storm pack).
    // Lives under its own derive label and is only constructed when the
    // knob is on, so default scenarios draw nothing new.
    if (tun.junk_queries_per_hour > 0.0 && plan.kind != DeviceKind::kIot &&
        plan.kind != DeviceKind::kTv) {
      traffic::JunkConfig jc;
      jc.queries_per_hour = tun.junk_queries_per_hour;
      add_app(std::make_unique<traffic::JunkApp>(*device, *world_, jc,
                                                 derive_seed(dev_seed, "junk")));
    }
    house->devices.push_back(std::move(device));
    ++dev_idx;
  }

  house_info_.push_back(info);
  shard.houses.push_back(std::move(house));
}

void Town::run() {
  if (ran_ < cfg_.duration) run_for(cfg_.duration - ran_);
  dataset_ = harvest();
}

SimTime Town::record_watermark() const {
  SimTime w = SimTime::max();
  for (const auto& shard : shards_) {
    w = std::min(w, shard->monitor->open_watermark(shard->sim->now()));
  }
  return w;
}

void Town::run_for(SimDuration amount) {
  // Each shard's event loop is fully self-contained (its own network,
  // platforms, farm, monitor); shards advance to the same end time in
  // whatever thread interleaving, with identical per-shard results.
  util::parallel_for_each(cfg_.threads, shards_.size(), [&](std::size_t s) {
    // Span label only materializes when metrics are on; the empty-string
    // span is the documented no-op.
    obs::StageSpan span{obs::enabled() ? "sim/shard" + std::to_string(s)
                                       : std::string{}};
    netsim::Simulator& sim = *shards_[s]->sim;
    sim.run_until(sim.now() + amount);
  });
  ran_ += amount;
  refresh_truth();
  forward_finalized();
}

void Town::forward_finalized() {
  if (record_sink_ == nullptr) return;
  // Shard by shard, each kind in finalization order: per kind, exactly
  // the sequence one sequential pass over the shards would deliver,
  // which is all a LiveFeed's (key, kind, arrival) order depends on.
  for (const auto& shard : shards_) {
    const capture::Dataset ds = shard->monitor->take_finalized();
    for (const auto& c : ds.conns) record_sink_->on_conn(c);
    for (const auto& d : ds.dns) record_sink_->on_dns(d);
    for (const auto& e : ds.encflows) record_sink_->on_encflow(e);
  }
}

capture::Dataset Town::harvest() {
  harvested_ = true;
  std::vector<capture::Dataset> parts(shards_.size());
  util::parallel_for_each(cfg_.threads, shards_.size(), [&](std::size_t s) {
    capture::Monitor& monitor = *shards_[s]->monitor;
    if (record_sink_ != nullptr) {
      monitor.flush(shards_[s]->sim->now());
    } else {
      parts[s] = monitor.harvest(shards_[s]->sim->now());
    }
  });
  refresh_truth();
  forward_finalized();
  capture::Dataset fresh = merge_shard_datasets(std::move(parts));
  // run() drains the monitors into dataset_ itself, so the natural
  // run()-then-harvest() sequence used to hit already-empty monitors
  // and silently return nothing. Hand the stored capture out instead;
  // dataset() afterwards reflects that it was taken.
  if (fresh.conns.empty() && fresh.dns.empty() && fresh.encflows.empty()) {
    return std::move(dataset_);
  }
  return fresh;
}

FaultStats Town::fault_stats() const {
  FaultStats out;
  for (const auto& shard : shards_) {
    if (shard->injector) {
      out.packets_dropped += shard->injector->drops();
      out.packets_dropped_unobserved += shard->injector->drops_unobserved();
      out.packets_duplicated += shard->injector->duplicates();
      out.packets_reordered += shard->injector->reorders();
    }
    for (const auto& platform : shard->platforms) {
      out.servfail_injected += platform->stats().servfail_injected;
      out.nxdomain_injected += platform->stats().nxdomain_injected;
      out.outage_dropped += platform->stats().outage_dropped;
    }
  }
  return out;
}

void Town::publish_metrics() const {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t taps = 0;
  std::uint64_t undeliverable = 0;
  std::uint64_t clamped = 0;
  std::uint64_t arena_live = 0;
  std::uint64_t arena_allocated = 0;
  std::size_t peak_pending = 0;
  double sim_sec = 0.0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    events += sh.sim->dispatched();
    packets += sh.net->packets_sent();
    taps += sh.net->tap_observations();
    undeliverable += sh.net->dropped();
    clamped += sh.sim->clamped_past();
    arena_live += sh.net->arena().live();
    arena_allocated += sh.net->arena().allocated();
    peak_pending = std::max(peak_pending, sh.sim->max_pending());
    sim_sec = std::max(sim_sec, sh.sim->now().to_sec());
    const std::string shard_label = "{shard=\"" + std::to_string(s) + "\"}";
    reg.gauge("sim_events_dispatched" + shard_label)
        .set(static_cast<double>(sh.sim->dispatched()));
    reg.gauge("sim_event_queue_peak" + shard_label)
        .set(static_cast<double>(sh.sim->max_pending()));
  }
  reg.gauge("sim_events_dispatched").set(static_cast<double>(events));
  reg.gauge("sim_event_queue_peak").set(static_cast<double>(peak_pending));
  // Release builds clamp past-dated at() calls to now(); a nonzero value
  // here means some model asked for time travel and should be fixed.
  reg.gauge("sim_events_clamped_past").set(static_cast<double>(clamped));
  reg.gauge("net_packet_arena_live").set(static_cast<double>(arena_live));
  reg.gauge("net_packet_arena_allocated").set(static_cast<double>(arena_allocated));
  reg.gauge("sim_seconds").set(sim_sec);
  reg.gauge("net_packets_sent").set(static_cast<double>(packets));
  reg.gauge("net_tap_observations").set(static_cast<double>(taps));
  reg.gauge("net_packets_undeliverable").set(static_cast<double>(undeliverable));
  reg.gauge("net_packets_per_sim_second")
      .set(sim_sec > 0.0 ? static_cast<double>(packets) / sim_sec : 0.0);

  // Per-platform resolver telemetry, summed across shards (platform_view_
  // is shard-major, each shard in Table 1 order, so names repeat).
  std::map<std::string, resolver::PlatformStats> by_platform;
  std::map<std::string, std::size_t> cached_by_platform;
  for (const resolver::RecursiveResolverPlatform* p : platform_view_) {
    resolver::PlatformStats& agg = by_platform[p->config().name];
    const resolver::PlatformStats& st = p->stats();
    agg.queries += st.queries;
    agg.shard_hits += st.shard_hits;
    agg.ambient_hits += st.ambient_hits;
    agg.auth_resolutions += st.auth_resolutions;
    agg.nxdomain += st.nxdomain;
    cached_by_platform[p->config().name] += p->cached_entries();
  }
  for (const auto& [name, st] : by_platform) {
    const std::string label = "{platform=\"" + name + "\"}";
    reg.gauge("resolver_queries" + label).set(static_cast<double>(st.queries));
    reg.gauge("resolver_cache_hit_rate" + label).set(st.cache_hit_rate());
    reg.gauge("resolver_auth_resolutions" + label)
        .set(static_cast<double>(st.auth_resolutions));
    reg.gauge("resolver_nxdomain" + label).set(static_cast<double>(st.nxdomain));
    reg.gauge("resolver_cached_entries" + label)
        .set(static_cast<double>(cached_by_platform[name]));
  }

  // DNS cache footprint by layer: entries held and the heap bytes of
  // the caches' containers. Walks every device, so only scrapes pay.
  struct CacheTally {
    std::size_t entries = 0;
    std::size_t bytes = 0;
    void add(const dns::DnsCache& c) {
      entries += c.size();
      bytes += c.bytes().total();
    }
  };
  CacheTally device_caches;
  CacheTally forwarder_caches;
  CacheTally platform_caches;
  for (const auto& shard : shards_) {
    for (const auto& house : shard->houses) {
      if (house->forwarder) forwarder_caches.add(house->forwarder->cache());
      for (const auto& dev : house->devices) {
        device_caches.add(std::as_const(*dev).stub().cache());
      }
    }
  }
  for (const resolver::RecursiveResolverPlatform* p : platform_view_) {
    platform_caches.entries += p->cached_entries();
    platform_caches.bytes += p->cached_bytes();
  }
  for (const auto& [layer, tally] :
       {std::pair{"device", device_caches}, std::pair{"forwarder", forwarder_caches},
        std::pair{"platform", platform_caches}}) {
    const std::string label = std::string{"{layer=\""} + layer + "\"}";
    reg.gauge("dns_cache_entries" + label).set(static_cast<double>(tally.entries));
    reg.gauge("dns_cache_bytes" + label).set(static_cast<double>(tally.bytes));
  }

  const FaultStats f = fault_stats();
  reg.gauge("faults_packets_dropped").set(static_cast<double>(f.packets_dropped));
  reg.gauge("faults_packets_dropped_unobserved")
      .set(static_cast<double>(f.packets_dropped_unobserved));
  reg.gauge("faults_packets_duplicated").set(static_cast<double>(f.packets_duplicated));
  reg.gauge("faults_packets_reordered").set(static_cast<double>(f.packets_reordered));
  reg.gauge("faults_servfail_injected").set(static_cast<double>(f.servfail_injected));
  reg.gauge("faults_nxdomain_injected").set(static_cast<double>(f.nxdomain_injected));
  reg.gauge("faults_outage_dropped").set(static_cast<double>(f.outage_dropped));
}

void Town::refresh_truth() {
  truth_ = GroundTruth{};
  for (const auto& shard : shards_) {
    truth_.fetches += shard->truth.fetches;
    truth_.fetch_cache_hits += shard->truth.fetch_cache_hits;
    truth_.fetch_cache_expired += shard->truth.fetch_cache_expired;
    truth_.fetch_blocked += shard->truth.fetch_blocked;
    truth_.prefetches += shard->truth.prefetches;
    truth_.no_dns_conns += shard->truth.no_dns_conns;
    truth_.fetch_pushed_hits += shard->truth.fetch_pushed_hits;
  }
}

std::vector<capture::TruthFlow> Town::truth_flows() const {
  std::vector<capture::TruthFlow> out;
  for (const auto& shard : shards_) {
    if (!shard->truth_tap) continue;
    const auto& flows = shard->truth_tap->flows();
    out.insert(out.end(), flows.begin(), flows.end());
  }
  // Canonical order: start time, shard index breaking ties (stable sort
  // over the shard-order concatenation).
  std::stable_sort(out.begin(), out.end(),
                   [](const capture::TruthFlow& a, const capture::TruthFlow& b) {
                     return a.start < b.start;
                   });
  return out;
}

}  // namespace dnsctx::scenario
