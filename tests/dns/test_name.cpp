// Unit tests for DNS domain names.
#include <gtest/gtest.h>

#include "dns/name.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace dnsctx::dns {
namespace {

TEST(DomainName, ParseNormalisesCase) {
  const auto n = DomainName::must("WWW.Example.COM");
  EXPECT_EQ(n.text(), "www.example.com");
}

TEST(DomainName, AcceptsTrailingDot) {
  EXPECT_EQ(DomainName::must("example.com.").text(), "example.com");
}

TEST(DomainName, RootForms) {
  const auto root = DomainName::must("");
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.label_count(), 0u);
  EXPECT_EQ(DomainName::must(".").text(), "");
}

struct NameCase {
  const char* text;
  bool ok;
};

// Prints the case's value rather than its raw bytes, which hold a pointer and
// padding: ctest names parameterized tests after this text, so it must not
// change from one build to the next.
void PrintTo(const NameCase& c, std::ostream* os) {
  *os << "(\"" << c.text << "\", " << (c.ok ? "true" : "false") << ')';
}

class NameParseTest : public ::testing::TestWithParam<NameCase> {};

TEST_P(NameParseTest, Validation) {
  EXPECT_EQ(DomainName::parse(GetParam().text).has_value(), GetParam().ok) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, NameParseTest,
    ::testing::Values(NameCase{"example.com", true}, NameCase{"a.b.c.d.e.f", true},
                      NameCase{"xn--bcher-kva.example", true},
                      NameCase{"_dmarc.example.com", true},
                      NameCase{"host-1.example.com", true},
                      NameCase{"a..b", false},               // empty label
                      NameCase{".leading.example", false},   // empty first label
                      NameCase{"bad label.example", false},  // space
                      NameCase{"exa$mple.com", false},       // charset
                      NameCase{"123.456.789.0", true}));     // numeric labels are legal names

TEST(DomainName, RejectsOverlongLabel) {
  const std::string label(64, 'a');
  EXPECT_FALSE(DomainName::parse(label + ".com"));
  const std::string ok_label(63, 'a');
  EXPECT_TRUE(DomainName::parse(ok_label + ".com"));
}

TEST(DomainName, RejectsOverlongName) {
  std::string name;
  for (int i = 0; i < 60; ++i) name += "abcd.";
  name += "com";  // > 253 chars
  EXPECT_FALSE(DomainName::parse(name));
}

TEST(DomainName, MustThrowsOnInvalid) {
  EXPECT_THROW((void)DomainName::must("bad..name"), std::invalid_argument);
}

TEST(DomainName, Labels) {
  const auto n = DomainName::must("www.example.com");
  const auto labels = n.labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "www");
  EXPECT_EQ(labels[1], "example");
  EXPECT_EQ(labels[2], "com");
  EXPECT_EQ(n.label_count(), 3u);
}

TEST(DomainName, FromLabels) {
  const std::string_view labels[] = {"api", "svc", "io"};
  const auto n = DomainName::from_labels(labels);
  ASSERT_TRUE(n);
  EXPECT_EQ(n->text(), "api.svc.io");
}

TEST(DomainName, Parent) {
  auto n = DomainName::must("a.b.c");
  n = n.parent();
  EXPECT_EQ(n.text(), "b.c");
  n = n.parent();
  EXPECT_EQ(n.text(), "c");
  n = n.parent();
  EXPECT_TRUE(n.is_root());
  EXPECT_TRUE(n.parent().is_root());
}

TEST(DomainName, IsWithin) {
  const auto zone = DomainName::must("example.com");
  EXPECT_TRUE(DomainName::must("example.com").is_within(zone));
  EXPECT_TRUE(DomainName::must("www.example.com").is_within(zone));
  EXPECT_FALSE(DomainName::must("notexample.com").is_within(zone));
  EXPECT_FALSE(DomainName::must("com").is_within(zone));
  EXPECT_TRUE(DomainName::must("anything.at.all").is_within(DomainName::must("")));
}

TEST(DomainName, Registrable) {
  EXPECT_EQ(DomainName::must("a.b.example.com").registrable().text(), "example.com");
  EXPECT_EQ(DomainName::must("example.com").registrable().text(), "example.com");
  EXPECT_EQ(DomainName::must("com").registrable().text(), "com");
}

TEST(DomainName, EqualityIsCaseInsensitiveViaNormalisation) {
  EXPECT_EQ(DomainName::must("A.B"), DomainName::must("a.b"));
  EXPECT_EQ(DomainNameHash{}(DomainName::must("A.B")), DomainNameHash{}(DomainName::must("a.b")));
}

TEST(DomainName, SameTextGivesEqualHandlesAndIds) {
  const auto a = DomainName::must("Handle.Example.com");
  const auto b = DomainName::must("handle.example.com.");
  const auto c = DomainName::parse("handle.example.com");
  ASSERT_TRUE(c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, *c);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.id(), c->id());
  EXPECT_NE(a.id(), 0u);
  EXPECT_EQ(&a.text(), &b.text());  // one stored copy per distinct name
  EXPECT_EQ(a.text(), util::NameTable::global().view(a.id()));
  EXPECT_NE(a, DomainName::must("other.example.com"));
  EXPECT_EQ(sizeof(DomainName), 16u);
}

TEST(DomainName, SortsByTextNotById) {
  // Intern in reverse text order so id order and text order disagree.
  const std::vector<std::string> texts = {"zz.sort-order.test", "mm.sort-order.test",
                                          "b.sort-order.test", "aa.sort-order.test",
                                          "a.sort-order.test", "sort-order.test"};
  std::vector<DomainName> names;
  for (const auto& t : texts) names.push_back(DomainName::must(t));
  std::sort(names.begin(), names.end());
  std::vector<std::string> sorted_texts = texts;
  std::sort(sorted_texts.begin(), sorted_texts.end());
  ASSERT_EQ(names.size(), sorted_texts.size());
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(names[i].text(), sorted_texts[i]);
  EXPECT_LT(DomainName::must("a.sort-order.test"), DomainName::must("zz.sort-order.test"));
  EXPECT_LT(DomainName{}, DomainName::must("a.sort-order.test"));
}

TEST(DomainName, RootIsIdZero) {
  const auto empty = DomainName::parse("");
  const auto dot = DomainName::parse(".");
  ASSERT_TRUE(empty);
  ASSERT_TRUE(dot);
  for (const DomainName& root : {DomainName{}, *empty, *dot}) {
    EXPECT_TRUE(root.is_root());
    EXPECT_EQ(root.id(), 0u);
    EXPECT_EQ(root.text(), "");
    EXPECT_EQ(root, DomainName{});
  }
  EXPECT_EQ(DomainNameHash{}(*empty), DomainNameHash{}(DomainName{}));
}

TEST(DomainName, ParentAndRegistrableEqualFreshlyParsedNames) {
  const auto n = DomainName::must("a.b.derived.example");
  EXPECT_EQ(n.parent(), DomainName::must("b.derived.example"));
  EXPECT_EQ(n.parent().parent(), DomainName::must("derived.example"));
  EXPECT_EQ(n.registrable(), DomainName::must("derived.example"));
  EXPECT_EQ(n.registrable().id(), DomainName::must("derived.example").id());
  EXPECT_EQ(DomainName::must("example").registrable(), DomainName::must("example"));
  EXPECT_EQ(DomainName::must("example").parent(), DomainName{});
}

TEST(DomainName, RejectedNamesNeverEnterTheTable) {
  const std::size_t before = util::NameTable::global().size();
  EXPECT_FALSE(DomainName::parse("rejected..never-interned.example"));
  EXPECT_FALSE(DomainName::parse("bad label.never-interned.example"));
  EXPECT_FALSE(DomainName::parse("never-interned$.example"));
  EXPECT_FALSE(DomainName::parse(std::string(64, 'x') + ".never-interned.example"));
  std::string overlong;
  for (int i = 0; i < 60; ++i) overlong += "nvri.";
  EXPECT_FALSE(DomainName::parse(overlong + "example"));
  const std::string_view bad_labels[] = {"never-interned", "", "example"};
  EXPECT_FALSE(DomainName::from_labels(bad_labels));
  EXPECT_THROW((void)DomainName::must("never..interned"), std::invalid_argument);
  EXPECT_EQ(util::NameTable::global().size(), before);
}

TEST(DomainName, ConcurrentParsesAgreeOnIdsAndTexts) {
  constexpr int kThreads = 4;
  constexpr int kNames = 1'000;
  std::vector<std::vector<DomainName>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      auto& out = per_thread[static_cast<std::size_t>(t)];
      for (int i = 0; i < kNames; ++i) {
        // Each thread walks the names from a different starting point,
        // so first interning of a name races between threads.
        const int k = (i + t * kNames / kThreads) % kNames;
        out.push_back(DomainName::must("host" + std::to_string(k) + ".concurrent.example"));
      }
      std::rotate(out.begin(), out.end() - t * kNames / kThreads, out.end());
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    const DomainName& ref = per_thread[0][static_cast<std::size_t>(i)];
    EXPECT_EQ(ref.text(), "host" + std::to_string(i) + ".concurrent.example");
    for (int t = 1; t < kThreads; ++t) {
      const DomainName& n = per_thread[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      EXPECT_EQ(n.id(), ref.id()) << "name " << i << " thread " << t;
      EXPECT_EQ(&n.text(), &ref.text());
    }
  }
}

}  // namespace
}  // namespace dnsctx::dns
