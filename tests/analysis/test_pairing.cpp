// Unit tests for DN-Hunter pairing on hand-built datasets, and a
// brute-force oracle that re-derives every pairing from the §4 rule on
// random per-house streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/pairing.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dnsctx::analysis {
namespace {

constexpr Ipv4Addr kHouse{100, 66, 1, 1};
constexpr Ipv4Addr kHouse2{100, 66, 1, 2};
constexpr Ipv4Addr kServer{34, 1, 1, 1};
constexpr Ipv4Addr kResolver{100, 66, 250, 1};

[[nodiscard]] capture::DnsRecord dns_at(std::int64_t ms, Ipv4Addr client, Ipv4Addr answer,
                                        std::uint32_t ttl, const char* query = "a.com") {
  capture::DnsRecord d;
  d.ts = SimTime::origin() + SimDuration::ms(ms);
  d.duration = SimDuration::ms(2);
  d.client_ip = client;
  d.resolver_ip = kResolver;
  d.query = query;
  d.answered = true;
  d.answers = {{answer, ttl}};
  return d;
}

[[nodiscard]] capture::ConnRecord conn_at(std::int64_t ms, Ipv4Addr orig, Ipv4Addr resp) {
  capture::ConnRecord c;
  c.start = SimTime::origin() + SimDuration::ms(ms);
  c.duration = SimDuration::sec(1);
  c.orig_ip = orig;
  c.resp_ip = resp;
  c.orig_port = 10'000;
  c.resp_port = 443;
  return c;
}

TEST(Pairing, PicksMostRecentNonExpired) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse, kServer, 600));
  ds.dns.push_back(dns_at(5'000, kHouse, kServer, 600));
  ds.conns.push_back(conn_at(10'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  ASSERT_EQ(result.conns.size(), 1u);
  EXPECT_EQ(result.conns[0].dns_idx, 1);  // the later lookup
  EXPECT_FALSE(result.conns[0].expired_pairing);
  EXPECT_EQ(result.conns[0].live_candidates, 2u);
  EXPECT_EQ(result.paired, 1u);
  EXPECT_EQ(result.multiple_candidates, 1u);
}

TEST(Pairing, FallsBackToMostRecentExpired) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse, kServer, 1));      // expires at ~1 s
  ds.dns.push_back(dns_at(2'000, kHouse, kServer, 1));  // expires at ~3 s
  ds.conns.push_back(conn_at(60'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, 1);
  EXPECT_TRUE(result.conns[0].expired_pairing);
  EXPECT_EQ(result.conns[0].live_candidates, 0u);
  EXPECT_EQ(result.paired_expired, 1u);
  // Expired-fallback counts as a unique candidate (a single choice).
  EXPECT_EQ(result.unique_candidate, 1u);
}

TEST(Pairing, NoCandidateMeansUnpaired) {
  capture::Dataset ds;
  ds.conns.push_back(conn_at(1'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, -1);
  EXPECT_EQ(result.unpaired, 1u);
}

TEST(Pairing, AnswerAfterConnDoesNotPair) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(5'000, kHouse, kServer, 600));
  ds.conns.push_back(conn_at(1'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, -1);
}

TEST(Pairing, RespectsHouseBoundary) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse2, kServer, 600));  // another house's lookup
  ds.conns.push_back(conn_at(1'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, -1);
}

TEST(Pairing, RequiresAnswerContainingTheAddress) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse, Ipv4Addr{9, 9, 9, 9}, 600));
  ds.conns.push_back(conn_at(1'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, -1);
}

TEST(Pairing, FirstUseAssignedChronologically) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse, kServer, 600));
  ds.conns.push_back(conn_at(100, kHouse, kServer));
  ds.conns.push_back(conn_at(200, kHouse, kServer));
  ds.conns.push_back(conn_at(300, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_TRUE(result.conns[0].first_use);
  EXPECT_FALSE(result.conns[1].first_use);
  EXPECT_FALSE(result.conns[2].first_use);
  EXPECT_EQ(result.dns_use_count[0], 3u);
}

TEST(Pairing, GapIsConnStartMinusResponse) {
  capture::Dataset ds;
  auto d = dns_at(1'000, kHouse, kServer, 600);
  d.duration = SimDuration::ms(50);
  ds.dns.push_back(d);
  ds.conns.push_back(conn_at(1'500, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].gap, SimDuration::ms(450));
}

TEST(Pairing, UnansweredLookupsAreNeverCandidates) {
  capture::Dataset ds;
  auto d = dns_at(0, kHouse, kServer, 600);
  d.answered = false;
  d.answers.clear();
  ds.dns.push_back(d);
  ds.conns.push_back(conn_at(1'000, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, -1);
}

TEST(Pairing, MultiAddressAnswersIndexEveryAddress) {
  capture::Dataset ds;
  capture::DnsRecord d = dns_at(0, kHouse, kServer, 600);
  d.answers.push_back({Ipv4Addr{34, 1, 1, 2}, 600});
  ds.dns.push_back(d);
  ds.conns.push_back(conn_at(100, kHouse, Ipv4Addr{34, 1, 1, 2}));
  const auto result = pair_connections(ds);
  EXPECT_EQ(result.conns[0].dns_idx, 0);
}

TEST(Pairing, RandomPolicyChoosesAmongLiveCandidates) {
  capture::Dataset ds;
  for (int i = 0; i < 8; ++i) {
    ds.dns.push_back(dns_at(i * 100, kHouse, kServer, 3'600,
                            ("name" + std::to_string(i) + ".com").c_str()));
  }
  for (int i = 0; i < 200; ++i) {
    ds.conns.push_back(conn_at(1'000 + i, kHouse, kServer));
  }
  const auto random = pair_connections(ds, PairingPolicy::kRandom, 7);
  std::set<std::int64_t> chosen;
  for (const auto& pc : random.conns) {
    ASSERT_GE(pc.dns_idx, 0);
    chosen.insert(pc.dns_idx);
    EXPECT_EQ(pc.live_candidates, 8u);
  }
  EXPECT_GT(chosen.size(), 3u);  // spreads across candidates

  const auto most_recent = pair_connections(ds, PairingPolicy::kMostRecent);
  for (const auto& pc : most_recent.conns) EXPECT_EQ(pc.dns_idx, 7);
}

TEST(Pairing, RandomPolicyIsSeedDeterministic) {
  capture::Dataset ds;
  for (int i = 0; i < 4; ++i) {
    ds.dns.push_back(dns_at(i * 100, kHouse, kServer, 3'600,
                            strfmt("n%d.com", i).c_str()));
  }
  for (int i = 0; i < 50; ++i) ds.conns.push_back(conn_at(1'000 + i, kHouse, kServer));
  const auto a = pair_connections(ds, PairingPolicy::kRandom, 5);
  const auto b = pair_connections(ds, PairingPolicy::kRandom, 5);
  for (std::size_t i = 0; i < a.conns.size(); ++i) {
    EXPECT_EQ(a.conns[i].dns_idx, b.conns[i].dns_idx);
  }
}

TEST(Pairing, UnusedLookupFraction) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse, kServer, 600, "used.com"));
  ds.dns.push_back(dns_at(10, kHouse, Ipv4Addr{9, 9, 9, 9}, 600, "unused.com"));
  auto unanswered = dns_at(20, kHouse, kServer, 600, "failed.com");
  unanswered.answered = false;
  unanswered.answers.clear();
  ds.dns.push_back(unanswered);  // not eligible
  ds.conns.push_back(conn_at(100, kHouse, kServer));
  const auto result = pair_connections(ds);
  EXPECT_DOUBLE_EQ(result.unused_lookup_frac(), 0.5);
}

TEST(Pairing, UniqueCandidateFraction) {
  capture::Dataset ds;
  ds.dns.push_back(dns_at(0, kHouse, kServer, 3'600, "a.com"));
  ds.dns.push_back(dns_at(10, kHouse, kServer, 3'600, "b.com"));  // same IP: ambiguity
  ds.dns.push_back(dns_at(20, kHouse, Ipv4Addr{9, 9, 9, 9}, 3'600, "c.com"));
  ds.conns.push_back(conn_at(100, kHouse, kServer));              // two candidates
  ds.conns.push_back(conn_at(200, kHouse, Ipv4Addr{9, 9, 9, 9}));  // one candidate
  const auto result = pair_connections(ds);
  EXPECT_DOUBLE_EQ(result.unique_candidate_frac(), 0.5);
}

// ---- brute-force oracle ------------------------------------------------------
//
// For every connection the oracle scans every answered lookup of the
// connection's house, in log order, and applies §4's rule directly: the
// candidates are the answers naming the connection's address that
// arrived at or before its start; among those still unexpired the most
// recent (latest response, then latest log index) wins; with none live,
// the most recent expired one does. It shares no code with
// pair_connections. Under kRandom it checks that the choice is one of
// the live candidates, and everything that follows from the choice.

struct OracleCandidate {
  std::size_t dns_idx;
  SimTime response;
  bool live;
};

/// The oracle's candidates for `conn`, in (response, log index) order.
std::vector<OracleCandidate> oracle_candidates(const capture::Dataset& ds,
                                               const capture::ConnRecord& conn) {
  std::vector<OracleCandidate> out;
  for (std::size_t i = 0; i < ds.dns.size(); ++i) {
    const auto& d = ds.dns[i];
    if (!d.answered || d.client_ip != conn.orig_ip) continue;
    if (d.response_time() > conn.start) continue;
    for (const auto& a : d.answers) {
      if (a.addr != conn.resp_ip) continue;
      out.push_back({i, d.response_time(), d.response_time() + SimDuration::sec(a.ttl) > conn.start});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.response != b.response ? a.response < b.response : a.dns_idx < b.dns_idx;
  });
  return out;
}

void expect_matches_oracle(const capture::Dataset& ds, const PairingResult& result,
                           PairingPolicy policy) {
  ASSERT_EQ(result.conns.size(), ds.conns.size());
  ASSERT_EQ(result.dns_use_count.size(), ds.dns.size());
  std::vector<std::uint32_t> uses(ds.dns.size(), 0);
  std::uint64_t paired = 0, unpaired = 0, paired_expired = 0, unique = 0, multiple = 0;
  for (std::size_t ci = 0; ci < ds.conns.size(); ++ci) {
    SCOPED_TRACE(testing::Message() << "conn " << ci);
    const auto& conn = ds.conns[ci];
    const PairedConn& pc = result.conns[ci];
    const auto cands = oracle_candidates(ds, conn);
    if (cands.empty()) {
      ++unpaired;
      EXPECT_EQ(pc.dns_idx, -1);
      EXPECT_FALSE(pc.expired_pairing);
      EXPECT_FALSE(pc.first_use);
      EXPECT_EQ(pc.gap, SimDuration{});
      EXPECT_EQ(pc.live_candidates, 0u);
      continue;
    }
    std::uint32_t live = 0;
    std::set<std::int64_t> live_idx;
    std::int64_t most_recent_live = -1;
    for (const auto& c : cands) {
      if (!c.live) continue;
      ++live;
      live_idx.insert(static_cast<std::int64_t>(c.dns_idx));
      most_recent_live = static_cast<std::int64_t>(c.dns_idx);
    }
    const auto most_recent = static_cast<std::int64_t>(cands.back().dns_idx);
    if (live == 0) {
      EXPECT_EQ(pc.dns_idx, most_recent);
    } else if (policy == PairingPolicy::kMostRecent) {
      EXPECT_EQ(pc.dns_idx, most_recent_live);
    } else {
      EXPECT_TRUE(live_idx.contains(pc.dns_idx)) << "chose " << pc.dns_idx;
    }
    ASSERT_GE(pc.dns_idx, 0);
    const auto chosen = static_cast<std::size_t>(pc.dns_idx);
    EXPECT_EQ(pc.expired_pairing, live == 0);
    EXPECT_EQ(pc.live_candidates, live);
    EXPECT_EQ(pc.gap, conn.start - ds.dns[chosen].response_time());
    EXPECT_EQ(pc.first_use, uses[chosen] == 0);
    ++uses[chosen];
    ++paired;
    if (live == 0) ++paired_expired;
    if (live <= 1) {
      ++unique;
    } else {
      ++multiple;
    }
  }
  EXPECT_EQ(result.dns_use_count, uses);
  EXPECT_EQ(result.paired, paired);
  EXPECT_EQ(result.unpaired, unpaired);
  EXPECT_EQ(result.paired_expired, paired_expired);
  EXPECT_EQ(result.unique_candidate, unique);
  EXPECT_EQ(result.multiple_candidates, multiple);
}

/// Random lookups and connections of three houses over a few addresses.
/// Times sit on a coarse grid, so answers often share a response time
/// and connections often start exactly at a response or an expiry;
/// TTLs of 0–3 s leave many connections only expired candidates.
capture::Dataset random_streams(std::uint64_t seed) {
  Rng rng{seed};
  const Ipv4Addr houses[] = {kHouse, kHouse2, Ipv4Addr{100, 66, 1, 3}};
  const auto addr = [&] { return Ipv4Addr{34, 1, 1, static_cast<std::uint8_t>(1 + rng.bounded(4))}; };
  const auto house = [&] { return houses[rng.bounded(3)]; };
  capture::Dataset ds;
  for (int i = 0; i < 300; ++i) {
    capture::DnsRecord d;
    d.ts = SimTime::origin() + SimDuration::ms(250 * static_cast<std::int64_t>(rng.bounded(120)));
    d.duration = SimDuration::ms(250 * static_cast<std::int64_t>(rng.bounded(3)));
    d.client_ip = house();
    d.resolver_ip = kResolver;
    d.query = strfmt("n%d.com", i % 7);
    d.answered = !rng.bernoulli(0.1);
    const std::uint64_t answers = d.answered ? rng.bounded(4) : 0;  // 0: NODATA
    for (std::uint64_t a = 0; a < answers; ++a) {
      d.answers.push_back({addr(), static_cast<std::uint32_t>(rng.bounded(4))});
    }
    ds.dns.push_back(std::move(d));
  }
  for (int i = 0; i < 400; ++i) {
    ds.conns.push_back(conn_at(250 * static_cast<std::int64_t>(rng.bounded(140)), house(), addr()));
  }
  const auto by_ts = [](const auto& a, const auto& b) { return a.ts < b.ts; };
  std::stable_sort(ds.dns.begin(), ds.dns.end(), by_ts);
  std::stable_sort(ds.conns.begin(), ds.conns.end(),
                   [](const auto& a, const auto& b) { return a.start < b.start; });
  return ds;
}

TEST(PairingOracle, MostRecentMatchesBruteForceOnRandomStreams) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto ds = random_streams(seed);
    for (const unsigned threads : {1u, 3u}) {
      expect_matches_oracle(ds, pair_connections(ds, PairingPolicy::kMostRecent, 0, threads),
                            PairingPolicy::kMostRecent);
    }
  }
}

TEST(PairingOracle, RandomChoosesALiveCandidateOnRandomStreams) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto ds = random_streams(seed);
    const auto result = pair_connections(ds, PairingPolicy::kRandom, seed);
    expect_matches_oracle(ds, result, PairingPolicy::kRandom);
    // The draw is the seed's alone: the thread count does not change it.
    const auto threaded = pair_connections(ds, PairingPolicy::kRandom, seed, 3);
    for (std::size_t i = 0; i < ds.conns.size(); ++i) {
      EXPECT_EQ(threaded.conns[i].dns_idx, result.conns[i].dns_idx) << "conn " << i;
    }
  }
}

TEST(PairingOracle, RandomStreamsExerciseEveryCase) {
  // The streams above are only a test if they reach the rule's corners.
  std::uint64_t equal_responses = 0, expired = 0, multi = 0, unpaired = 0, at_expiry = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const auto ds = random_streams(seed);
    for (const auto& conn : ds.conns) {
      const auto cands = oracle_candidates(ds, conn);
      if (cands.empty()) ++unpaired;
      const auto live = std::count_if(cands.begin(), cands.end(), [](const auto& c) { return c.live; });
      if (!cands.empty() && live == 0) ++expired;
      if (live > 1) ++multi;
      for (std::size_t i = 1; i < cands.size(); ++i) {
        if (cands[i].response == cands[i - 1].response) ++equal_responses;
      }
    }
    for (const auto& d : ds.dns) {
      for (const auto& conn : ds.conns) {
        if (d.answered && !d.answers.empty() && d.client_ip == conn.orig_ip &&
            d.contains(conn.resp_ip) &&
            d.response_time() + SimDuration::sec(d.answers.front().ttl) == conn.start) {
          ++at_expiry;
        }
      }
    }
  }
  EXPECT_GT(equal_responses, 50u);
  EXPECT_GT(expired, 50u);
  EXPECT_GT(multi, 50u);
  EXPECT_GT(unpaired, 50u);
  EXPECT_GT(at_expiry, 5u);
}

}  // namespace
}  // namespace dnsctx::analysis
