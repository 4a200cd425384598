// dnsctx — FlatMap / FlatSet unit tests: probe-length bounds across
// growth, backward-shift deletion (no tombstones), randomized parity
// against std::unordered_map, and the probe lengths the simulation's
// composite-key hashes give on realistic key streams.
#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/nat.hpp"
#include "util/rng.hpp"

namespace dnsctx::util {
namespace {

TEST(FlatMap, EmptyMapBasics) {
  FlatMap<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMap, InsertFindUpdate) {
  FlatMap<std::uint32_t, std::string> m;
  m[1] = "one";
  m[2] = "two";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(1), "one");
  m[1] = "uno";
  EXPECT_EQ(m.at(1), "uno");
  EXPECT_EQ(m.size(), 2u);
  const auto [it, inserted] = m.try_emplace(2, "zwei");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, "two");
  EXPECT_THROW((void)m.at(3), std::out_of_range);
}

TEST(FlatMap, EraseBackwardShiftKeepsProbeRunsReachable) {
  // Sequential integer keys through the splitmix hash land in pseudo-
  // random slots, forming wrapping probe runs. Erasing from the middle
  // of a run must backward-shift the followers so every remaining key
  // stays findable (the no-tombstone invariant).
  FlatMap<std::uint32_t, std::uint32_t> m;
  constexpr std::uint32_t kN = 4096;
  for (std::uint32_t k = 0; k < kN; ++k) m[k] = k * 3;
  for (std::uint32_t k = 0; k < kN; k += 2) EXPECT_EQ(m.erase(k), 1u);
  EXPECT_EQ(m.size(), kN / 2);
  for (std::uint32_t k = 0; k < kN; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(m.contains(k));
    } else {
      ASSERT_TRUE(m.contains(k)) << "key " << k << " lost after interleaved erase";
      EXPECT_EQ(m.at(k), k * 3);
    }
  }
}

TEST(FlatMap, ProbeLengthsStayBoundedAfterChurn) {
  // Tombstone-based deletion degrades probe lengths as churn accumulates;
  // backward-shift keeps them a function of the CURRENT load only. After
  // heavy insert/erase cycles at steady-state size, the max probe length
  // must stay small (far below the churn count).
  FlatMap<std::uint32_t, std::uint32_t> m;
  constexpr std::uint32_t kLive = 1024;
  for (std::uint32_t k = 0; k < kLive; ++k) m[k] = k;
  for (std::uint32_t round = 0; round < 64; ++round) {
    for (std::uint32_t i = 0; i < kLive; ++i) {
      m.erase(round * kLive + i);
      m[(round + 1) * kLive + i] = i;
    }
    EXPECT_EQ(m.size(), kLive);
  }
  // With ≤ 0.8 load and a well-mixed hash, expected max probe length is
  // O(log n); 64 is a generous ceiling that tombstones would blow past.
  EXPECT_LE(m.max_probe_length(), 64u);
}

TEST(FlatMap, GrowthPreservesContents) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 1; k <= 100000; ++k) m[k * 0x9e3779b9ULL] = k;
  EXPECT_EQ(m.size(), 100000u);
  for (std::uint64_t k = 1; k <= 100000; ++k) {
    ASSERT_TRUE(m.contains(k * 0x9e3779b9ULL));
    EXPECT_EQ(m.at(k * 0x9e3779b9ULL), k);
  }
}

TEST(FlatMap, IterationVisitsEveryElementOnce) {
  FlatMap<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t k = 0; k < 257; ++k) m[k] = k + 1;
  std::vector<std::uint32_t> seen;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(v, k + 1);
    seen.push_back(k);
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 257u);
  for (std::uint32_t k = 0; k < 257; ++k) EXPECT_EQ(seen[k], k);
}

TEST(FlatMap, RandomizedParityWithUnorderedMap) {
  // Drive both maps with the same random operation stream; they must
  // agree on size, membership, and values at every step.
  FlatMap<std::uint32_t, std::uint64_t> flat;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  Rng rng{0xf1a7f1a7};
  for (int step = 0; step < 200000; ++step) {
    const auto key = static_cast<std::uint32_t>(rng.bounded(512));  // dense → collisions
    switch (rng.bounded(4)) {
      case 0:
      case 1: {  // insert/overwrite
        const std::uint64_t val = rng();
        flat[key] = val;
        ref[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      }
      default: {  // lookup
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Final full sweep both directions.
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(flat.contains(k));
    ASSERT_EQ(flat.at(k), v);
  }
  for (const auto& [k, v] : flat) {
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(it->second, v);
  }
}

TEST(FlatMap, Ipv4AddrKeys) {
  FlatMap<Ipv4Addr, int> m;
  const Ipv4Addr a = Ipv4Addr::from_u32(0x0a000001);
  const Ipv4Addr b = Ipv4Addr::from_u32(0x0a000002);
  m[a] = 1;
  m[b] = 2;
  EXPECT_EQ(m.at(a), 1);
  EXPECT_EQ(m.at(b), 2);
  EXPECT_EQ(m.erase(a), 1u);
  EXPECT_FALSE(m.contains(a));
  EXPECT_TRUE(m.contains(b));
}

TEST(FlatMap, ClearAndReuse) {
  FlatMap<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 100; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(5));
  m[5] = 7;
  EXPECT_EQ(m.at(5), 7);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatSet, InsertContainsEraseForEach) {
  FlatSet<std::uint32_t> s;
  for (std::uint32_t k = 0; k < 100; ++k) s.insert(k);
  s.insert(50);  // duplicate
  EXPECT_EQ(s.size(), 100u);
  EXPECT_TRUE(s.contains(99));
  EXPECT_EQ(s.erase(99), 1u);
  EXPECT_FALSE(s.contains(99));
  std::uint64_t sum = 0;
  s.for_each([&](std::uint32_t k) { sum += k; });
  EXPECT_EQ(sum, 99u * 100u / 2u - 99u);
}

// A composite key's hash must let every field reach the low bits the
// table indexes with; otherwise keys that differ only in a port share a
// home slot and probes grow with the key count. These streams are the
// shapes the simulation produces.
constexpr std::size_t kMaxProbe = 32;

template <class K, class Hash>
[[nodiscard]] std::size_t max_probe_of(const std::vector<K>& keys) {
  FlatMap<K, int, Hash> m;
  for (const auto& k : keys) m[k] = 1;
  EXPECT_EQ(m.size(), keys.size());
  return m.max_probe_length();
}

TEST(HashQuality, FiveTupleSequentialPortsToOneServer) {
  // One house opening 2 000 connections to one server on port 443.
  std::vector<FiveTuple> keys;
  for (std::uint16_t i = 0; i < 2'000; ++i) {
    keys.push_back(FiveTuple{Ipv4Addr{100, 66, 0, 7}, Ipv4Addr{34, 1, 2, 3},
                             static_cast<std::uint16_t>(1'024 + i), 443, Proto::kTcp});
  }
  EXPECT_LE((max_probe_of<FiveTuple, FiveTupleHash>(keys)), kMaxProbe);
}

TEST(HashQuality, FiveTupleHousesTimesServers) {
  // 80 houses x 50 servers, two connections each, every house drawing
  // its source ports from its own sequential counter.
  std::vector<FiveTuple> keys;
  for (std::uint8_t h = 1; h <= 80; ++h) {
    std::uint16_t port = 1'024;
    for (std::uint8_t srv = 1; srv <= 50; ++srv) {
      for (int c = 0; c < 2; ++c) {
        keys.push_back(FiveTuple{Ipv4Addr{100, 66, 0, h}, Ipv4Addr{34, 1, srv, 1}, port++,
                                 443, Proto::kTcp});
      }
    }
  }
  EXPECT_LE((max_probe_of<FiveTuple, FiveTupleHash>(keys)), kMaxProbe);
}

TEST(HashQuality, NatInternalKeysSequentialPorts) {
  // One device's 4 000 sequential source ports, over UDP and TCP.
  std::vector<netsim::NatInternalKey> keys;
  for (const Proto proto : {Proto::kUdp, Proto::kTcp}) {
    for (std::uint16_t i = 0; i < 4'000; ++i) {
      keys.push_back({Ipv4Addr{192, 168, 1, 10}, static_cast<std::uint16_t>(20'000 + i), proto});
    }
  }
  EXPECT_LE((max_probe_of<netsim::NatInternalKey, netsim::NatInternalKeyHash>(keys)),
            kMaxProbe);
}

TEST(HashQuality, NatExternalKeysSequentialPorts) {
  std::vector<netsim::NatExternalKey> keys;
  for (const Proto proto : {Proto::kUdp, Proto::kTcp}) {
    for (std::uint16_t i = 0; i < 4'000; ++i) {
      keys.push_back({static_cast<std::uint16_t>(1'024 + i), proto});
    }
  }
  EXPECT_LE((max_probe_of<netsim::NatExternalKey, netsim::NatExternalKeyHash>(keys)),
            kMaxProbe);
}

}  // namespace
}  // namespace dnsctx::util
