// Unit tests for DN-Hunter pairing on hand-built datasets.
#include <gtest/gtest.h>

#include <set>

#include "analysis/pairing.hpp"
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
  EXPECT_DOUBLE_EQ(result.unused_lookup_frac(ds), 0.5);
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

}  // namespace
}  // namespace dnsctx::analysis
