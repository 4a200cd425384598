// dnsctx — deterministic fault-injection plans.
//
// A FaultPlan is the declarative description of an impairment scenario:
// packet-level loss/duplication/reordering on the WAN, resolver-side
// failures (SERVFAIL, NXDOMAIN, timed outages of individual service
// addresses), and the client-side recovery aggressiveness (retry
// backoff). Plans parse from and render to a compact `key=value` spec so
// they travel through config files, CLI flags and bench records; the
// round-trip is exact (doubles use shortest-round-trip formatting).
//
// Determinism contract: the empty plan is byte-identical to a build
// without the faults layer at all — no RNG stream is created or
// advanced, no event schedule changes. Non-empty plans draw from
// dedicated streams (`faults/net`, `faults/resolver`) derived from the
// scenario seed, so the same seed + plan always replays the same run.
// See docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dnsctx::faults {

/// A timed outage of one resolver service address: every packet to the
/// address in [begin_sec, end_sec) of simulated time is silently
/// dropped at the service — no SYN-ACK, no answer, exactly like a dead
/// or overloaded box. Targets are symbolic at plan level ("upstream1",
/// "google", a dotted quad); the scenario resolves them to addresses.
struct Outage {
  std::string target;
  std::int64_t begin_sec = 0;
  std::int64_t end_sec = 0;

  bool operator==(const Outage&) const = default;
};

struct FaultPlan {
  /// Probability any given WAN packet is dropped in flight.
  double loss = 0.0;
  /// Probability a delivered packet is duplicated (both copies arrive).
  double dup = 0.0;
  /// Probability a delivered packet is held back by an extra queueing
  /// delay, arriving out of order relative to its successors.
  double reorder = 0.0;
  /// Extra delay applied to reordered packets (milliseconds).
  double reorder_extra_ms = 30.0;
  /// Per-query probability a recursive resolver answers SERVFAIL.
  double servfail_rate = 0.0;
  /// Per-query probability a recursive resolver answers NXDOMAIN even
  /// for names it could resolve (upstream auth failure / lame zone).
  double nxdomain_rate = 0.0;
  /// Stub retry timeout multiplier per successive timeout (exponential
  /// backoff). 1.0 = fixed timeout, the historical behaviour.
  double backoff = 1.0;
  std::vector<Outage> outages;

  bool operator==(const FaultPlan&) const = default;

  /// True when the plan changes nothing (the byte-identity baseline).
  [[nodiscard]] bool empty() const { return *this == FaultPlan{}; }
  [[nodiscard]] bool has_packet_faults() const {
    return loss > 0.0 || dup > 0.0 || reorder > 0.0;
  }
  [[nodiscard]] bool has_resolver_faults() const {
    return servfail_rate > 0.0 || nxdomain_rate > 0.0 || !outages.empty();
  }

  /// Parse a spec like
  ///   "loss=0.01,dup=0.002,outage=upstream1:3600-4200,servfail=0.005"
  /// Unknown keys, malformed numbers, rates outside [0,1], backoff
  /// outside [1,64] and empty/inverted outage windows throw
  /// std::runtime_error. The empty string parses to the empty plan.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Render back to the spec grammar; only non-default fields appear,
  /// so the default plan renders as "". parse(to_string()) == *this.
  [[nodiscard]] std::string to_string() const;
};

/// Parse one outage clause ("target:begin-end", seconds), the value of
/// the plan grammar's `outage=` key.
[[nodiscard]] Outage parse_outage(std::string_view spec);

}  // namespace dnsctx::faults
