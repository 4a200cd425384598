// Unit + property tests for the TTL-aware DNS cache.
#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <string>
#include <tuple>

#include "dns/cache.hpp"
#include "heap_in_use.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dnsctx::dns {
namespace {

[[nodiscard]] std::vector<ResourceRecord> answer(const char* name, std::uint32_t ttl) {
  return {ResourceRecord::a(DomainName::must(name), Ipv4Addr{1, 2, 3, 4}, ttl)};
}

[[nodiscard]] SimTime at(std::int64_t sec) {
  return SimTime::origin() + SimDuration::sec(sec);
}

TEST(DnsCache, HitWithinTtl) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 60), Rcode::kNoError,
               at(0));
  const auto hit = cache.lookup(DomainName::must("a.com"), RrType::kA, at(59));
  ASSERT_TRUE(hit);
  EXPECT_FALSE(hit->expired);
  EXPECT_EQ(hit->answers.size(), 1u);
  EXPECT_EQ(hit->expires_at, at(60));
}

TEST(DnsCache, MissAfterTtl) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 60), Rcode::kNoError,
               at(0));
  EXPECT_FALSE(cache.lookup(DomainName::must("a.com"), RrType::kA, at(60)));
  EXPECT_EQ(cache.size(), 0u);  // dropped lazily
}

TEST(DnsCache, MissOnUnknownName) {
  DnsCache cache;
  EXPECT_FALSE(cache.lookup(DomainName::must("nope.com"), RrType::kA, at(0)));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DnsCache, TypeIsPartOfTheKey) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 60), Rcode::kNoError,
               at(0));
  EXPECT_FALSE(cache.lookup(DomainName::must("a.com"), RrType::kAaaa, at(1)));
  EXPECT_TRUE(cache.lookup(DomainName::must("a.com"), RrType::kA, at(1)));
}

TEST(DnsCache, ExtraHoldServesStaleAndFlagsIt) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 60), Rcode::kNoError,
               at(0), SimDuration::sec(100));
  const auto hit = cache.lookup(DomainName::must("a.com"), RrType::kA, at(100));
  ASSERT_TRUE(hit);
  EXPECT_TRUE(hit->expired);
  EXPECT_EQ(cache.stats().expired_hits, 1u);
  EXPECT_FALSE(cache.lookup(DomainName::must("a.com"), RrType::kA, at(161)));
}

TEST(DnsCache, ConfigStaleWindowAppliesToAllEntries) {
  DnsCache cache{CacheConfig{.max_stale = SimDuration::sec(30)}};
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 10), Rcode::kNoError,
               at(0));
  const auto hit = cache.lookup(DomainName::must("a.com"), RrType::kA, at(20));
  ASSERT_TRUE(hit);
  EXPECT_TRUE(hit->expired);
  EXPECT_FALSE(cache.lookup(DomainName::must("a.com"), RrType::kA, at(41)));
}

TEST(DnsCache, TtlClamping) {
  DnsCache cache{CacheConfig{.min_ttl_sec = 30, .max_ttl_sec = 600}};
  cache.insert(DomainName::must("low.com"), RrType::kA, answer("low.com", 5), Rcode::kNoError,
               at(0));
  EXPECT_TRUE(cache.lookup(DomainName::must("low.com"), RrType::kA, at(29)));
  cache.insert(DomainName::must("high.com"), RrType::kA, answer("high.com", 86'400),
               Rcode::kNoError, at(0));
  EXPECT_FALSE(cache.lookup(DomainName::must("high.com"), RrType::kA, at(601)));
}

TEST(DnsCache, MinTtlAcrossAnswerSet) {
  DnsCache cache;
  std::vector<ResourceRecord> answers = answer("a.com", 300);
  answers.push_back(ResourceRecord::a(DomainName::must("a.com"), Ipv4Addr{5, 6, 7, 8}, 60));
  cache.insert(DomainName::must("a.com"), RrType::kA, std::move(answers), Rcode::kNoError,
               at(0));
  EXPECT_TRUE(cache.lookup(DomainName::must("a.com"), RrType::kA, at(59)));
  EXPECT_FALSE(cache.lookup(DomainName::must("a.com"), RrType::kA, at(61)));
}

TEST(DnsCache, ReinsertReplaces) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 10), Rcode::kNoError,
               at(0));
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 100), Rcode::kNoError,
               at(5));
  const auto hit = cache.lookup(DomainName::must("a.com"), RrType::kA, at(50));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->inserted_at, at(5));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DnsCache, LruEvictionPrefersLeastRecentlyUsed) {
  DnsCache cache{CacheConfig{.capacity = 2}};
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 600), Rcode::kNoError,
               at(0));
  cache.insert(DomainName::must("b.com"), RrType::kA, answer("b.com", 600), Rcode::kNoError,
               at(1));
  (void)cache.lookup(DomainName::must("a.com"), RrType::kA, at(2));  // touch a
  cache.insert(DomainName::must("c.com"), RrType::kA, answer("c.com", 600), Rcode::kNoError,
               at(3));  // evicts b
  EXPECT_TRUE(cache.peek(DomainName::must("a.com"), RrType::kA, at(4)));
  EXPECT_FALSE(cache.peek(DomainName::must("b.com"), RrType::kA, at(4)));
  EXPECT_TRUE(cache.peek(DomainName::must("c.com"), RrType::kA, at(4)));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(DnsCache, NegativeEntryKeepsRcode) {
  DnsCache cache{CacheConfig{.min_ttl_sec = 30}};
  cache.insert(DomainName::must("nx.com"), RrType::kA, {}, Rcode::kNxDomain, at(0));
  const auto hit = cache.lookup(DomainName::must("nx.com"), RrType::kA, at(10));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->rcode, Rcode::kNxDomain);
  EXPECT_TRUE(hit->answers.empty());
}

TEST(DnsCache, PeekDoesNotCountOrTouch) {
  DnsCache cache{CacheConfig{.capacity = 2}};
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 600), Rcode::kNoError,
               at(0));
  (void)cache.peek(DomainName::must("a.com"), RrType::kA, at(1));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(DnsCache, PurgeExpiredDropsOnlyDeadEntries) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 10), Rcode::kNoError,
               at(0));
  cache.insert(DomainName::must("b.com"), RrType::kA, answer("b.com", 600), Rcode::kNoError,
               at(0));
  cache.purge_expired(at(20));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.peek(DomainName::must("b.com"), RrType::kA, at(20)));
}

TEST(DnsCache, StatsHitRate) {
  DnsCache cache;
  cache.insert(DomainName::must("a.com"), RrType::kA, answer("a.com", 600), Rcode::kNoError,
               at(0));
  (void)cache.lookup(DomainName::must("a.com"), RrType::kA, at(1));
  (void)cache.lookup(DomainName::must("zzz.com"), RrType::kA, at(1));
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

// Property: under heavy churn the cache never exceeds capacity and never
// serves an entry beyond its servable lifetime.
class CacheChurnTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheChurnTest, CapacityAndLifetimeInvariants) {
  const std::size_t capacity = GetParam();
  DnsCache cache{CacheConfig{.capacity = capacity}};
  Rng rng{GetParam()};
  SimTime now = SimTime::origin();
  for (int step = 0; step < 5'000; ++step) {
    now += SimDuration::sec(static_cast<std::int64_t>(rng.bounded(20)));
    const auto name =
        DomainName::must("host" + std::to_string(rng.bounded(capacity * 3)) + ".com");
    if (rng.bernoulli(0.5)) {
      cache.insert(name, RrType::kA, answer(name.text().c_str(), 30 + static_cast<std::uint32_t>(rng.bounded(300))),
                   Rcode::kNoError, now);
    } else if (const auto hit = cache.lookup(name, RrType::kA, now)) {
      EXPECT_FALSE(hit->expired);  // no stale window configured
      EXPECT_GT(hit->expires_at, now);
    }
    EXPECT_LE(cache.size(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheChurnTest, ::testing::Values(4u, 16u, 64u));

// ---------------------------------------------------------------------
// Differential oracle: DnsCache against a reference model kept here — a
// map of answer vectors plus an explicit LRU list — driven by random
// operation sequences over a small name set. Every hit field, size()
// and stats() must agree after every step.

struct ModelHit {
  std::vector<ResourceRecord> answers;
  Rcode rcode = Rcode::kNoError;
  SimTime inserted_at;
  SimTime expires_at;
  bool expired = false;
  CacheOrigin origin = CacheOrigin::kQuery;
  bool first_use = false;
};

class ReferenceCache {
 public:
  explicit ReferenceCache(CacheConfig cfg) : cfg_{cfg} {}

  void insert(const DomainName& qname, RrType qtype, const std::vector<ResourceRecord>& answers,
              Rcode rcode, SimTime now, SimDuration extra_hold, CacheOrigin origin) {
    std::uint32_t ttl = 0;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (i == 0 || answers[i].ttl < ttl) ttl = answers[i].ttl;
    }
    if (cfg_.min_ttl_sec) ttl = std::max(ttl, cfg_.min_ttl_sec);
    if (cfg_.max_ttl_sec) ttl = std::min(ttl, cfg_.max_ttl_sec);
    const Key key{qname.text(), qtype};
    remove(key);
    if (cfg_.capacity > 0 && entries_.size() >= cfg_.capacity && !lru_.empty()) {
      const Key victim = lru_.back();  // remove() frees the list node
      remove(victim);
      ++stats_.evictions;
    }
    lru_.push_front(key);
    Entry& e = entries_[key];
    e.answers = answers;
    e.rcode = rcode;
    e.inserted_at = now;
    e.expires_at = now + SimDuration::sec(ttl);
    e.servable_until = e.expires_at + extra_hold + cfg_.max_stale;
    e.origin = origin;
    e.uses = 0;
    e.pos = lru_.begin();
    ++stats_.insertions;
  }

  std::optional<ModelHit> lookup(const DomainName& qname, RrType qtype, SimTime now) {
    const Key key{qname.text(), qtype};
    const auto it = entries_.find(key);
    if (it == entries_.end() || now >= it->second.servable_until) {
      remove(key);
      ++stats_.misses;
      return std::nullopt;
    }
    Entry& e = it->second;
    lru_.splice(lru_.begin(), lru_, e.pos);
    ++stats_.hits;
    ++e.uses;
    ModelHit hit = to_hit(e, now);
    hit.first_use = e.uses == 1;
    if (hit.expired) ++stats_.expired_hits;
    return hit;
  }

  [[nodiscard]] std::optional<ModelHit> peek(const DomainName& qname, RrType qtype,
                                             SimTime now) const {
    const auto it = entries_.find(Key{qname.text(), qtype});
    if (it == entries_.end() || now >= it->second.servable_until) return std::nullopt;
    ModelHit hit = to_hit(it->second, now);
    hit.first_use = it->second.uses == 0;
    return hit;
  }

  void purge_expired(SimTime now) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (now >= it->second.servable_until) {
        lru_.erase(it->second.pos);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  using Key = std::pair<std::string, RrType>;
  struct Entry {
    std::vector<ResourceRecord> answers;
    Rcode rcode = Rcode::kNoError;
    SimTime inserted_at;
    SimTime expires_at;
    SimTime servable_until;
    CacheOrigin origin = CacheOrigin::kQuery;
    std::uint64_t uses = 0;
    std::list<Key>::iterator pos;
  };

  static ModelHit to_hit(const Entry& e, SimTime now) {
    ModelHit hit;
    hit.answers = e.answers;
    hit.rcode = e.rcode;
    hit.inserted_at = e.inserted_at;
    hit.expires_at = e.expires_at;
    hit.expired = now >= e.expires_at;
    hit.origin = e.origin;
    return hit;
  }

  void remove(const Key& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    lru_.erase(it->second.pos);
    entries_.erase(it);
  }

  CacheConfig cfg_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< most recently used first
  CacheStats stats_;
};

void expect_same_hit(const std::optional<CacheHit>& got, const std::optional<ModelHit>& want,
                     const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->answers.records(), want->answers) << where;
  EXPECT_EQ(got->rcode, want->rcode) << where;
  EXPECT_EQ(got->inserted_at, want->inserted_at) << where;
  EXPECT_EQ(got->expires_at, want->expires_at) << where;
  EXPECT_EQ(got->expired, want->expired) << where;
  EXPECT_EQ(got->origin, want->origin) << where;
  EXPECT_EQ(got->first_use, want->first_use) << where;
}

void expect_same_stats(const CacheStats& got, const CacheStats& want, const std::string& where) {
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.expired_hits, want.expired_hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.insertions, want.insertions) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
}

[[nodiscard]] Ipv4Addr random_addr(Rng& rng) {
  return Ipv4Addr::from_u32(static_cast<std::uint32_t>(rng.bounded(0xffffffffULL)));
}

[[nodiscard]] std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.bounded(256));
  return out;
}

[[nodiscard]] ResourceRecord aaaa(DomainName owner, std::vector<std::uint8_t> v6,
                                  std::uint32_t ttl) {
  return ResourceRecord{std::move(owner), RrType::kAaaa, RrClass::kIn, ttl, std::move(v6)};
}

/// An answer set for `qname`: every shape the simulation inserts (empty,
/// one A, one AAAA, CNAME then A, two or three A, wide A pools) and
/// shapes it never makes (mixed TTLs, owners off the chain, other
/// types, raw rdata, other classes, longer chains, 40-record pools).
[[nodiscard]] std::vector<ResourceRecord> random_answers(Rng& rng, const DomainName& qname,
                                                         const std::vector<DomainName>& names) {
  const auto ttl = [&]() -> std::uint32_t {
    switch (rng.bounded(6)) {
      case 0: return 0;
      case 1: return static_cast<std::uint32_t>(1 + rng.bounded(20));
      case 2: return 86'400;
      default: return static_cast<std::uint32_t>(rng.bounded(400));
    }
  };
  const auto other = [&]() { return names[rng.bounded(names.size())]; };
  const auto v6 = [&]() { return random_bytes(rng, 16); };
  const std::uint32_t t = ttl();
  std::vector<ResourceRecord> out;
  switch (rng.bounded(20)) {
    case 0:
    case 1:
      break;  // empty: negative or NODATA
    case 2:
    case 3:
      out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
      break;
    case 4:
    case 5:
      out.push_back(aaaa(qname, v6(), t));
      break;
    case 6: {  // CNAME → edge, as the CDN names answer
      const DomainName target = other();
      out.push_back(ResourceRecord::cname(qname, target, t));
      out.push_back(ResourceRecord::a(target, random_addr(rng), t));
      break;
    }
    case 7:
    case 8: {
      const std::size_t n = 2 + rng.bounded(2);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
      }
      break;
    }
    case 9: {  // wide pool: 7..39 A records, or exactly 40
      const std::size_t n = rng.bernoulli(0.5) ? 40 : 7 + rng.bounded(33);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
      }
      break;
    }
    case 10:  // mixed TTLs
      out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
      out.push_back(ResourceRecord::a(qname, random_addr(rng), ttl()));
      break;
    case 11:  // an owner off the chain
      out.push_back(ResourceRecord::a(other(), random_addr(rng), t));
      if (rng.bernoulli(0.5)) out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
      break;
    case 12:
      out.push_back(ResourceRecord{qname, RrType::kTxt, RrClass::kIn, t,
                                   std::string{"v=spf1 include:"} + other().text()});
      break;
    case 13:
      out.push_back(ResourceRecord{qname, RrType::kMx, RrClass::kIn, t,
                                   MxData{static_cast<std::uint16_t>(rng.bounded(50)), other()}});
      break;
    case 14:
      out.push_back(ResourceRecord{qname, RrType::kSoa, RrClass::kIn, t,
                                   SoaData{other(), other(), 2019'02'06, 7'200, 900,
                                           1'209'600, t}});
      break;
    case 15:  // raw rdata: an unknown type, or an AAAA of the wrong length
      out.push_back(ResourceRecord{qname, rng.bernoulli(0.5) ? RrType::kHttps : RrType::kAaaa,
                                   RrClass::kIn, t, random_bytes(rng, rng.bounded(24))});
      break;
    case 16: {  // a longer chain, ending in AAAA or nothing
      DomainName owner = qname;
      const std::size_t hops = 1 + rng.bounded(3);
      for (std::size_t i = 0; i < hops; ++i) {
        const DomainName target = other();
        out.push_back(ResourceRecord::cname(owner, target, t));
        owner = target;
      }
      if (rng.bernoulli(0.5)) out.push_back(aaaa(owner, v6(), t));
      break;
    }
    case 17: {  // CNAME then two or three A; or A and AAAA mixed
      if (rng.bernoulli(0.5)) {
        const DomainName target = other();
        out.push_back(ResourceRecord::cname(qname, target, t));
        const std::size_t n = 2 + rng.bounded(2);
        for (std::size_t i = 0; i < n; ++i) {
          out.push_back(ResourceRecord::a(target, random_addr(rng), t));
        }
      } else {
        out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
        out.push_back(aaaa(qname, v6(), t));
      }
      break;
    }
    case 18: {  // several AAAA, or an A outside class IN
      if (rng.bernoulli(0.5)) {
        const std::size_t n = 2 + rng.bounded(3);
        for (std::size_t i = 0; i < n; ++i) out.push_back(aaaa(qname, v6(), t));
      } else {
        out.push_back(ResourceRecord{qname, RrType::kA, RrClass::kCh, t, random_addr(rng)});
      }
      break;
    }
    default: {  // CNAME to a name, then a record back at the query name
      const DomainName target = other();
      out.push_back(ResourceRecord::a(qname, random_addr(rng), t));
      out.push_back(ResourceRecord::cname(qname, target, t));
      out.push_back(ResourceRecord::a(target, random_addr(rng), t));
      break;
    }
  }
  return out;
}

struct OracleCase {
  std::size_t capacity;
  std::uint32_t min_ttl;
  std::uint32_t max_ttl;
  std::int64_t max_stale_sec;
  std::uint64_t seed;
};

class CacheOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CacheOracleTest, MatchesReferenceModel) {
  const OracleCase& c = GetParam();
  const CacheConfig cfg{.capacity = c.capacity,
                        .min_ttl_sec = c.min_ttl,
                        .max_ttl_sec = c.max_ttl,
                        .max_stale = SimDuration::sec(c.max_stale_sec)};
  DnsCache cache{cfg};
  ReferenceCache model{cfg};
  Rng rng{c.seed};

  std::vector<DomainName> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back(DomainName::must(strfmt("n%d.oracle.test", i)));
  }
  const RrType types[] = {RrType::kA, RrType::kAaaa, RrType::kTxt};
  const Rcode rcodes[] = {Rcode::kNoError, Rcode::kNoError, Rcode::kNxDomain,
                          Rcode::kServFail};
  const CacheOrigin origins[] = {CacheOrigin::kQuery, CacheOrigin::kSpeculative,
                                 CacheOrigin::kPushed};
  // Reads mostly go to recently inserted keys, so that hits, stale hits
  // and first uses happen at every capacity.
  std::vector<std::pair<std::size_t, std::size_t>> recent;

  SimTime now = SimTime::origin();
  for (int step = 0; step < 10'000; ++step) {
    now += SimDuration::us(static_cast<std::int64_t>(rng.bounded(4'000'000)));
    const std::uint64_t op = rng.bounded(1'000);
    std::pair<std::size_t, std::size_t> key{rng.bounded(names.size()),
                                            rng.bounded(std::size(types))};
    if (op >= 400 && !recent.empty() && rng.bernoulli(0.7)) {
      key = recent[rng.bounded(recent.size())];
    }
    const DomainName& name = names[key.first];
    const RrType type = types[key.second];
    const std::string where =
        strfmt("step %d %s/%s", step, name.text().c_str(), to_string(type).c_str());
    if (op < 400) {
      const auto answers = random_answers(rng, name, names);
      const Rcode rcode = rcodes[rng.bounded(std::size(rcodes))];
      const SimDuration hold = rng.bernoulli(0.3)
                                   ? SimDuration::us(static_cast<std::int64_t>(
                                         rng.bounded(600'000'000)))
                                   : SimDuration::zero();
      const CacheOrigin origin = origins[rng.bounded(std::size(origins))];
      cache.insert(name, type, answers, rcode, now, hold, origin);
      model.insert(name, type, answers, rcode, now, hold, origin);
      if (recent.size() < 4) {
        recent.push_back(key);
      } else {
        recent[rng.bounded(recent.size())] = key;
      }
    } else if (op < 880) {
      expect_same_hit(cache.lookup(name, type, now), model.lookup(name, type, now), where);
    } else if (op < 987) {
      expect_same_hit(cache.peek(name, type, now), model.peek(name, type, now), where);
    } else {
      cache.purge_expired(now);
      model.purge_expired(now);
    }
    ASSERT_EQ(cache.size(), model.size()) << where;
    expect_same_stats(cache.stats(), model.stats(), where);
    if (step % 250 == 0) {  // every key, without counting or touching
      for (const DomainName& n : names) {
        for (const RrType t : types) {
          expect_same_hit(cache.peek(n, t, now), model.peek(n, t, now), where + " sweep");
        }
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) return;  // first divergence only
  }
  // The sequence reached the paths it is meant to cover.
  EXPECT_GT(model.stats().hits, 300u);
  EXPECT_GT(model.stats().expired_hits, 0u);
  EXPECT_GT(model.stats().misses, 1'000u);
  if (c.capacity < 100) {
    EXPECT_GT(model.stats().evictions, 50u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheOracleTest,
    ::testing::Values(OracleCase{1, 0, 0, 0, 1}, OracleCase{1, 30, 600, 30, 2},
                      OracleCase{64, 0, 0, 0, 3}, OracleCase{64, 30, 600, 0, 4},
                      OracleCase{64, 10, 120, 30, 5}, OracleCase{3'000, 0, 0, 0, 6},
                      OracleCase{3'000, 30, 21'600, 15, 7}),
    [](const ::testing::TestParamInfo<OracleCase>& param) {
      const OracleCase& c = param.param;
      return "cap" + std::to_string(c.capacity) + "_min" + std::to_string(c.min_ttl) + "_max" +
             std::to_string(c.max_ttl) + "_stale" + std::to_string(c.max_stale_sec);
    });

#ifdef DNSCTX_HAVE_HEAP_IN_USE
TEST(DnsCacheMemory, HeldEntriesInTheSimulationsMixCostAtMost172Bytes) {
  // The answer sets a `city` run inserts, by share: 23.7 % empty, 22.5 %
  // one A, 19.3 % one AAAA, 6.9 % CNAME then A, 27.0 % two or three A,
  // 0.6 % wide pools (the zone database's 30..39 A). The names and sets
  // exist before the count starts, so only the cache's own bytes count.
  constexpr std::size_t kEntries = 20'000;
  std::vector<DomainName> names;
  std::vector<RrType> types;
  std::vector<std::vector<ResourceRecord>> sets;
  std::vector<DomainName> edges;
  for (int e = 0; e < 50; ++e) edges.push_back(DomainName::must(strfmt("e%d.cdn.test", e)));
  Rng rng{23};
  for (std::size_t i = 0; i < kEntries; ++i) {
    names.push_back(DomainName::must(strfmt("h%zu.census.test", i)));
    const DomainName& q = names.back();
    const std::size_t shape = i % 1'000;
    const auto addr = [&] { return random_addr(rng); };
    std::vector<ResourceRecord> set;
    RrType type = RrType::kA;
    if (shape < 237) {
      // empty: NODATA or NXDOMAIN
    } else if (shape < 462) {
      set.push_back(ResourceRecord::a(q, addr(), 300));
    } else if (shape < 655) {
      type = RrType::kAaaa;
      set.push_back(ResourceRecord{q, RrType::kAaaa, RrClass::kIn, 300, random_bytes(rng, 16)});
    } else if (shape < 724) {
      const DomainName& edge = edges[i % edges.size()];
      set.push_back(ResourceRecord::cname(q, edge, 60));
      set.push_back(ResourceRecord::a(edge, addr(), 60));
    } else if (shape < 994) {
      const std::size_t n = 2 + i % 2;
      for (std::size_t k = 0; k < n; ++k) set.push_back(ResourceRecord::a(q, addr(), 120));
    } else {
      const std::size_t n = 30 + i % 10;
      for (std::size_t k = 0; k < n; ++k) set.push_back(ResourceRecord::a(q, addr(), 3'600));
    }
    types.push_back(type);
    sets.push_back(std::move(set));
  }

  const std::size_t before = testutil::heap_in_use();
  DnsCache cache{CacheConfig{.capacity = kEntries}};
  for (std::size_t i = 0; i < kEntries; ++i) {
    cache.insert(names[i], types[i], sets[i], sets[i].empty() ? Rcode::kNxDomain : Rcode::kNoError,
                 at(static_cast<std::int64_t>(i)));
  }
  const std::size_t after = testutil::heap_in_use();
  if (after == before) GTEST_SKIP() << "allocations are not visible to mallinfo2";
  ASSERT_EQ(cache.size(), kEntries);
  const double per_entry = static_cast<double>(after - before) / static_cast<double>(kEntries);
  EXPECT_LE(per_entry, 172.0) << per_entry << " B per held entry";
  // What the cache reports (and /metrics publishes) is what it holds,
  // bar the allocator's chunk headers.
  const CacheBytes bytes = cache.bytes();
  EXPECT_LE(bytes.total(), after - before);
  EXPECT_GE(bytes.total(), (after - before) * 9 / 10);
}
#endif

}  // namespace
}  // namespace dnsctx::dns
