// dnsctx — NameTable / InternedName unit tests: interning identity,
// reverse lookup, concurrent interning, and collision-heavy workloads.
#include "util/names.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace dnsctx::util {
namespace {

TEST(NameTable, EmptyStringIsIdZero) {
  NameTable table;
  EXPECT_EQ(table.intern(""), 0u);
  EXPECT_EQ(table.view(0), "");
  EXPECT_EQ(table.size(), 1u);  // the empty string is pre-seeded
}

TEST(NameTable, InternIsIdempotent) {
  NameTable table;
  const NameId a = table.intern("www.example.com");
  const NameId b = table.intern("www.example.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(NameTable, DistinctNamesGetDistinctIds) {
  NameTable table;
  const NameId a = table.intern("a.example.com");
  const NameId b = table.intern("b.example.com");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.view(a), "a.example.com");
  EXPECT_EQ(table.view(b), "b.example.com");
}

TEST(NameTable, ReverseLookupRoundTrips) {
  NameTable table;
  std::vector<std::pair<std::string, NameId>> interned;
  for (int i = 0; i < 1000; ++i) {
    std::string name = "host" + std::to_string(i) + ".example.com";
    interned.emplace_back(name, table.intern(name));
  }
  for (const auto& [name, id] : interned) {
    EXPECT_EQ(table.view(id), name);
  }
}

TEST(NameTable, ViewThrowsOnUnknownId) {
  NameTable table;
  EXPECT_THROW((void)table.view(12345), std::out_of_range);
}

TEST(NameTable, ViewsStayStableAcrossGrowth) {
  // The arena is a deque of strings: growth must not move earlier
  // entries, so a view taken early stays valid forever.
  NameTable table;
  const NameId first = table.intern("pinned.example.com");
  const std::string_view early = table.view(first);
  const char* data = early.data();
  for (int i = 0; i < 10000; ++i) {
    (void)table.intern("filler" + std::to_string(i) + ".example.com");
  }
  EXPECT_EQ(table.view(first).data(), data);
  EXPECT_EQ(table.view(first), "pinned.example.com");
}

TEST(NameTable, ConcurrentInterningAgreesOnIds) {
  // Many threads intern overlapping name sets; every thread must see the
  // SAME id for the same string, and reverse lookup must agree.
  NameTable table;
  constexpr int kThreads = 8;
  constexpr int kNames = 500;
  std::vector<std::vector<NameId>> per_thread(kThreads, std::vector<NameId>(kNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        // Interleave a shared set (same for all threads) with a few
        // thread-private names to force both lookup races and inserts.
        const std::string name = (i % 3 == 0)
                                     ? "private" + std::to_string(t) + "-" + std::to_string(i)
                                     : "shared" + std::to_string(i) + ".example.com";
        per_thread[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            table.intern(name);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < kNames; ++i) {
    if (i % 3 == 0) continue;
    const NameId expected = per_thread[0][static_cast<std::size_t>(i)];
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(per_thread[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)], expected)
          << "shared name " << i << " got different ids on threads 0 and " << t;
    }
    EXPECT_EQ(table.view(expected), "shared" + std::to_string(i) + ".example.com");
  }
  // shared names (i % 3 != 0) + kThreads * private names + the empty string
  std::set<NameId> all;
  for (const auto& ids : per_thread) all.insert(ids.begin(), ids.end());
  std::size_t shared = 0, priv = 0;
  for (int i = 0; i < kNames; ++i) (i % 3 == 0 ? priv : shared) += 1;
  EXPECT_EQ(all.size(), shared + priv * kThreads);
}

TEST(NameTable, CollisionHeavyNamesStayDistinct) {
  // Long names sharing long common prefixes/suffixes (worst case for a
  // weak string hash) must still intern to distinct ids.
  NameTable table;
  const std::string stem(200, 'x');
  std::set<NameId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.insert(table.intern(stem + std::to_string(i) + stem));
  }
  EXPECT_EQ(ids.size(), 2000u);
}

TEST(NameTable, InternStoredReturnsTheIdAndOneStableCopy) {
  NameTable table;
  const NameTable::Stored a = table.intern_stored("stored.example.com");
  EXPECT_EQ(a.id, table.intern("stored.example.com"));
  ASSERT_NE(a.text, nullptr);
  EXPECT_EQ(*a.text, "stored.example.com");
  EXPECT_EQ(table.view(a.id).data(), a.text->data());
  for (int i = 0; i < 10'000; ++i) (void)table.intern("grow" + std::to_string(i));
  const NameTable::Stored again = table.intern_stored("stored.example.com");
  EXPECT_EQ(again.id, a.id);
  EXPECT_EQ(again.text, a.text);  // the same stored string, never moved
  EXPECT_EQ(table.intern_stored("").id, 0u);
}

TEST(InternedName, DefaultIsEmpty) {
  InternedName name;
  EXPECT_TRUE(name.empty());
  EXPECT_EQ(name.id(), 0u);
  EXPECT_EQ(name.view(), "");
}

TEST(InternedName, ImplicitConversionAndEquality) {
  InternedName name = "cdn.example.com";
  EXPECT_EQ(name, "cdn.example.com");
  EXPECT_EQ(name, std::string{"cdn.example.com"});
  EXPECT_NE(name, "other.example.com");
  InternedName same{std::string_view{"cdn.example.com"}};
  EXPECT_EQ(name.id(), same.id());
}

TEST(InternedName, AssignAndClear) {
  InternedName name;
  name = "a.example.com";
  EXPECT_EQ(name.view(), "a.example.com");
  name.clear();
  EXPECT_TRUE(name.empty());
}

}  // namespace
}  // namespace dnsctx::util
