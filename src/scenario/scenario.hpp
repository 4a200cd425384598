// dnsctx — scenario assembly: the simulated Case-Connection-Zone-like
// neighborhood, end to end.
//
// A Town owns the event loop, the WAN, the resolver platforms, the
// authoritative universe, the server farm, every house (gateway +
// devices + apps) and the passive monitor at the aggregation point.
// run() produces the paper's two datasets; ground-truth counters stay
// available for validating the analysis heuristics.
//
// House profiles follow §3's population: most houses use the ISP's
// resolvers, most also have Android devices defaulting to Google DNS,
// a quarter have an OpenDNS-configured machine, a few percent route
// everything to Cloudflare, and ~16% are ISP-only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capture/monitor.hpp"
#include "capture/truth_tap.hpp"
#include "faults/plan.hpp"
#include "netsim/transport.hpp"
#include "resolver/recursive.hpp"
#include "traffic/apps.hpp"
#include "traffic/farm.hpp"
#include "traffic/tuning.hpp"

namespace dnsctx::scenario {

struct HouseProfileMix {
  double isp_only = 0.12;    ///< forwarder-style households (§3)
  double cloudflare = 0.045;  ///< whole-house Cloudflare users
  double no_isp = 0.05;      ///< public-DNS-only households
  /// Probability a mixed house has an OpenDNS-configured computer.
  double opendns_in_mixed = 0.38;

  /// Throws std::runtime_error when a fraction is outside [0, 1] or the
  /// three exclusive profiles claim more than the whole population
  /// (their sum must leave a non-negative remainder for "mixed").
  /// Called by the Town constructor so a broken mix fails loudly at
  /// build time instead of silently skewing assign_profiles' quotas.
  void validate() const;
};

struct ScenarioConfig {
  std::uint64_t seed = 42;
  std::size_t houses = 40;
  SimDuration duration = SimDuration::hours(8);
  resolver::ZoneDbConfig zones;
  HouseProfileMix mix;
  /// Multiplies all app activity rates (1.0 = calibrated default).
  double activity_scale = 1.0;
  /// Per-device-cache TTL violation probability (§5.2 behaviour).
  double ttl_violation_prob = 0.2; 
  /// Fraction of IoT NTP clients hard-coded to a dead server (§5.1).
  double dead_ntp_frac = 0.35;
  /// Fraction of houses with an active P2P box.
  double p2p_house_frac = 0.24;
  /// Local hour at simulation start (short runs should begin in the
  /// afternoon so they see representative diurnal activity).
  int start_hour = 15;
  /// Fraction of houses whose router runs a live caching DNS forwarder
  /// (the §8 what-if, deployed rather than trace-simulated).
  double whole_house_cache_frac = 0.0;
  /// Number of independent simulation partitions the houses are split
  /// across. This is a SEMANTIC knob: shard boundaries change which
  /// resolver-platform cache instances houses share, so different shard
  /// counts yield different (equally valid) neighborhoods. 1 = the
  /// legacy single-simulator stream, byte-identical to earlier releases.
  std::size_t shards = 1;
  /// Worker threads used to execute shards (0 = hardware concurrency).
  /// Execution-only: for a fixed `shards`, output is byte-identical for
  /// every thread count.
  unsigned threads = 1;
  /// Deterministic impairment plan (empty = perfect network, the
  /// byte-identical baseline). See docs/FAULTS.md for the grammar and
  /// the determinism contract.
  faults::FaultPlan faults;
  /// DNS transport scenario (docs/EXPERIMENTS.md). kDo53 is the classic
  /// byte-identical baseline. kDoT/kDoH move every capable device
  /// (computers, Android, Apple mobile) onto one padded encrypted channel
  /// per resolver and turn on the monitor's encrypted-flow metadata;
  /// kResolverless additionally has web servers push their asset records
  /// (Sy et al.) so asset lookups bypass the stub entirely. Assignment is
  /// structural — no extra randomness is drawn, so the kDo53 event
  /// stream matches builds without the knob bit for bit.
  netsim::Transport transport = netsim::Transport::kDo53;
  /// Ride a capture::TruthTap alongside the monitor and label every flow
  /// with its ground-truth class (truth_flows()). Observation-only: the
  /// packet stream, datasets, and all RNG draws are unchanged.
  bool collect_truth = false;
  /// Query-composition tuning (device population, app rates, web fanout,
  /// junk rate, diurnal table). The default reproduces the classic
  /// household mix byte for byte; scenario packs (config_io.hpp) override it.
  traffic::TrafficTuning tuning;
  /// Scenario-pack name for bench records and report labelling
  /// ("default" = no pack applied).
  std::string pack = "default";
};

/// Ground truth the monitor cannot see (defined beside Device, which
/// maintains it).
using GroundTruth = traffic::GroundTruth;

/// Injected-fault tallies aggregated across shards (ground truth for
/// validating the failure report; the monitor cannot see these).
struct FaultStats {
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_dropped_unobserved = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_reordered = 0;
  std::uint64_t servfail_injected = 0;
  std::uint64_t nxdomain_injected = 0;
  std::uint64_t outage_dropped = 0;
};

/// Map a fault-plan outage target to concrete service addresses:
/// "isp"/"local" (both ISP boxes), "upstream1"/"upstream2" (one each),
/// "google"/"opendns"/"cloudflare" (both anycast addresses), or a
/// dotted quad. Throws std::runtime_error for anything else.
[[nodiscard]] std::vector<Ipv4Addr> resolve_outage_target(const std::string& target);

struct HouseInfo {
  Ipv4Addr external_ip;
  std::size_t devices = 0;
  bool has_android = false;
  bool has_opendns = false;
  bool has_p2p = false;
  std::string profile;  ///< "isp_only" | "mixed" | "no_isp" | "cloudflare"
};

class Town {
 public:
  explicit Town(const ScenarioConfig& cfg);
  ~Town();
  Town(const Town&) = delete;
  Town& operator=(const Town&) = delete;

  /// Run the configured duration (minus whatever run_for() already
  /// covered) and harvest the datasets. Chunking with run_for() first
  /// and then calling run() dispatches the exact same event sequence.
  void run();

  /// Run incrementally (callable repeatedly); harvest() when done.
  void run_for(SimDuration amount);
  [[nodiscard]] capture::Dataset harvest();

  /// Stream records from every shard's monitor into `sink` instead of
  /// materializing datasets; harvest() then flushes open state to the
  /// sink and returns an empty Dataset. Shards still run on `threads`:
  /// each run_for()/harvest() call buffers its records per shard and
  /// delivers them on the calling thread before returning, shard by
  /// shard, each kind in finalization order — so memory is bounded by
  /// the caller's chunk size. Drive a stream::LiveFeed with
  /// record_watermark() after each chunk to recover the canonical
  /// time-sorted order. Pass nullptr to detach.
  void attach_record_sink(capture::RecordSink* sink) { record_sink_ = sink; }

  /// Reordering bound across all shards: no record emitted after this
  /// call carries a key time before it (min over shards of the
  /// monitors' open_watermark at their current clock).
  [[nodiscard]] SimTime record_watermark() const;

  [[nodiscard]] const capture::Dataset& dataset() const { return dataset_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] const GroundTruth& ground_truth() const { return truth_; }

  /// Ground-truth labelled flows from every shard's TruthTap, sorted by
  /// start time (shard order breaks ties). Empty unless
  /// ScenarioConfig::collect_truth was set.
  [[nodiscard]] std::vector<capture::TruthFlow> truth_flows() const;

  /// Resolver service addresses the town's platforms answer on (ground
  /// truth for the encrypted-flow classifier's confusion matrix).
  [[nodiscard]] const std::vector<Ipv4Addr>& resolver_service_addrs() const {
    return resolver_addrs_;
  }
  [[nodiscard]] const std::vector<HouseInfo>& houses() const { return house_info_; }
  [[nodiscard]] const resolver::ZoneDb& zones() const { return *zones_; }

  /// The first shard's event loop (every shard's clock advances in
  /// lockstep through run_for, so its `now()` is the town's clock).
  [[nodiscard]] netsim::Simulator& sim();

  /// Resolver platform instances, shard-major, each shard in Table 1
  /// order: Local, Google, OpenDNS, Cloudflare. With `shards = 1` this
  /// is exactly the four legacy platforms.
  [[nodiscard]] const std::vector<resolver::RecursiveResolverPlatform*>& platforms() const {
    return platform_view_;
  }

  /// Number of simulation partitions actually in use.
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Injected-fault counters summed over shards (all zero when the
  /// plan is empty).
  [[nodiscard]] FaultStats fault_stats() const;

  /// Publish deterministic run telemetry (event-loop depth, packet and
  /// tap counts, fault tallies — per shard and aggregated) into the
  /// process metrics registry as gauges. Idempotent: sets absolute
  /// values, so calling it at every scrape point never double-counts.
  /// No-op while metrics are disabled.
  void publish_metrics() const;

 private:
  struct House;
  struct Shard;
  void build_shard(std::size_t shard_idx, std::size_t house_begin, std::size_t house_end,
                   const std::vector<std::string>& profiles, const std::vector<bool>& p2p);
  void build_house(Shard& shard, std::size_t index, const std::string& profile,
                   bool p2p_house);
  void refresh_truth();
  /// Deliver every shard's newly finalized records to the attached sink.
  void forward_finalized();
  [[nodiscard]] std::vector<std::string> assign_profiles() const;
  [[nodiscard]] std::vector<bool> assign_p2p() const;

  ScenarioConfig cfg_;
  Rng rng_;
  std::unique_ptr<resolver::ZoneDb> zones_;
  std::unique_ptr<traffic::WebModel> web_;
  std::unique_ptr<traffic::AppWorld> world_;
  std::shared_ptr<const std::vector<resolver::NameId>> universal_services_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<resolver::RecursiveResolverPlatform*> platform_view_;
  std::vector<Ipv4Addr> resolver_addrs_;
  std::vector<HouseInfo> house_info_;
  GroundTruth truth_;
  capture::Dataset dataset_;
  SimDuration ran_;  ///< total simulated time covered by run_for() calls
  bool harvested_ = false;
  capture::RecordSink* record_sink_ = nullptr;
};

}  // namespace dnsctx::scenario
