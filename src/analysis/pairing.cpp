#include "analysis/pairing.hpp"

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"
#include "util/flat_map.hpp"
#include "util/parallel.hpp"

namespace dnsctx::analysis {

namespace {

/// upper_bound order for a time against a list's candidates.
constexpr auto by_response = [](SimTime t, const Candidate& c) { return t < c.response; };

/// One house's share of the pairing: its answered, A-bearing lookups and
/// its connections (log indexes, in log order), and what pairing them
/// counted. Counters are summed in house order (integer sums — the
/// reduce is exact, so any thread count produces identical totals).
struct House {
  Ipv4Addr ip;
  std::vector<std::uint64_t> dns;
  std::vector<std::uint64_t> conns;
  PairingCounts counts;
  std::uint64_t candidates_scanned = 0;  ///< liveness-scan loop iterations
};

}  // namespace

bool CandidateList::insert(const Candidate& c) {
  // Every stored seq is smaller, so the slot follows all equal responses.
  const auto at =
      cands_.insert(std::upper_bound(cands_.begin(), cands_.end(), c.response, by_response), c);
  // The new pairs can only bring the due time forward: the pair they
  // replace, (prev, next), fell due no earlier than (prev, new), because
  // new.response <= next.response.
  SimTime due = due_;
  if (at != cands_.begin()) due = std::min(due, retired_at(*std::prev(at), *at));
  if (std::next(at) != cands_.end()) due = std::min(due, retired_at(*at, *std::next(at)));
  if (due >= due_) return false;
  due_ = due;
  return true;
}

Pick CandidateList::pick(std::span<const Candidate> cands, SimTime start, Rng* random) {
  Pick p;
  const auto upper = std::upper_bound(cands.begin(), cands.end(), start, by_response);
  if (upper == cands.begin()) return p;  // the answer arrived only after this connection
  p.scanned = static_cast<std::uint32_t>(upper - cands.begin());
  const Candidate* most_recent_live = nullptr;
  for (auto it = upper; it != cands.begin();) {
    if ((--it)->expires > start) {
      ++p.live;
      if (most_recent_live == nullptr) most_recent_live = &*it;
    }
  }
  if (p.live == 0) {
    p.chosen = &*std::prev(upper);  // most recent, expired
  } else if (random == nullptr) {
    p.chosen = most_recent_live;
  } else {
    // The draw's live candidate, counting down from the most recent.
    std::uint64_t k = random->bounded(p.live);
    for (auto it = upper; p.chosen == nullptr;) {
      if ((--it)->expires > start && k-- == 0) p.chosen = &*it;
    }
  }
  return p;
}

void PairingCounts::merge(const PairingCounts& other) {
  paired += other.paired;
  unpaired += other.unpaired;
  paired_expired += other.paired_expired;
  unique_candidate += other.unique_candidate;
  multiple_candidates += other.multiple_candidates;
  lookups += other.lookups;
  used_lookups += other.used_lookups;
}

PairingResult pair_connections(const capture::Dataset& ds, PairingPolicy policy,
                               std::uint64_t seed, unsigned threads) {
  PairingResult out;
  out.conns.resize(ds.conns.size());
  out.dns_use_count.assign(ds.dns.size(), 0);

  // ---- partition by house ------------------------------------------------
  // A connection can only pair with DNS from the same client address (the
  // house behind the NAT), so the work decomposes exactly per house:
  // every house's candidate lists, use counts, and first-use flags are
  // disjoint from every other house's.
  util::FlatMap<Ipv4Addr, std::uint32_t> slot_of;
  std::vector<House> houses;
  const auto house_of = [&](Ipv4Addr ip) -> House& {
    const auto [it, inserted] =
        slot_of.try_emplace(ip, static_cast<std::uint32_t>(houses.size()));
    if (inserted) houses.emplace_back().ip = ip;
    return houses[it->second];
  };
  std::uint64_t candidates_built = 0;
  for (std::size_t i = 0; i < ds.dns.size(); ++i) {
    const auto& d = ds.dns[i];
    if (!d.answered || d.answers.empty()) continue;
    house_of(d.client_ip).dns.push_back(i);
    candidates_built += d.answers.size();
  }
  for (std::size_t ci = 0; ci < ds.conns.size(); ++ci) {
    house_of(ds.conns[ci].orig_ip).conns.push_back(ci);
  }

  // ---- pair each house independently -------------------------------------
  // kRandom derives one stream per house from (seed, house address), so
  // draws never depend on how houses are scheduled across threads.
  const std::uint64_t random_base = derive_seed(seed, "pairing-random");
  util::parallel_for_each(threads, houses.size(), [&](std::size_t h) {
    House& house = houses[h];
    house.counts.lookups = house.dns.size();
    // The house's candidate lists back to back in one array, ordered by
    // answered address (the house is implicit) and within an address in
    // Candidate order: one sort, no allocation per list, and a directory
    // of each address's run.
    std::vector<std::pair<Ipv4Addr, Candidate>> entries;
    for (const std::uint64_t i : house.dns) {
      const auto& d = ds.dns[i];
      const SimTime response = d.response_time();
      for (const auto& a : d.answers) {
        entries.emplace_back(a.addr, Candidate{response, response + SimDuration::sec(a.ttl), i});
      }
    }
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second < b.second;
    });
    std::vector<Candidate> cands;
    cands.reserve(entries.size());
    util::FlatMap<Ipv4Addr, std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
    for (const auto& [addr, c] : entries) {
      ++runs.try_emplace(addr, cands.size(), cands.size()).first->second.second;
      cands.push_back(c);
    }

    Rng rng{derive_seed(random_base, "house", house.ip.to_u32())};
    Rng* const random = policy == PairingPolicy::kRandom ? &rng : nullptr;

    // The per-house connection list preserves global start order, so
    // first-use flags land chronologically, exactly as an online
    // DN-Hunter at the aggregation point would assign them.
    for (const std::uint64_t ci : house.conns) {
      const auto& conn = ds.conns[ci];
      const auto run = runs.find(conn.resp_ip);
      const Pick pick =
          run == runs.end()
              ? Pick{}
              : CandidateList::pick(std::span{cands}.subspan(run->second.first,
                                                             run->second.second - run->second.first),
                                    conn.start, random);
      house.counts.add(pick);
      house.candidates_scanned += pick.scanned;
      if (pick.chosen == nullptr) continue;
      PairedConn& pc = out.conns[ci];
      pc.dns_idx = static_cast<std::int64_t>(pick.chosen->seq);
      pc.expired_pairing = pick.expired();
      pc.live_candidates = pick.live;
      pc.gap = conn.start - pick.chosen->response;
      std::uint32_t& uses = out.dns_use_count[pick.chosen->seq];
      pc.first_use = uses++ == 0;
      if (pc.first_use) ++house.counts.used_lookups;
    }
  });

  std::uint64_t candidates_scanned = 0;
  for (const House& house : houses) {
    out.merge(house.counts);
    candidates_scanned += house.candidates_scanned;
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("pairing_candidates_built_total").add(candidates_built);
    reg.counter("pairing_candidates_scanned_total").add(candidates_scanned);
    reg.counter("pairing_houses_total").add(houses.size());
    reg.gauge("pairing_house_directory_load_factor").set(slot_of.load_factor());
    reg.gauge("pairing_house_directory_max_probe")
        .set(static_cast<double>(slot_of.max_probe_length()));
  }
  return out;
}

}  // namespace dnsctx::analysis
