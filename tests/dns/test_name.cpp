// Unit tests for DNS domain names.
#include <gtest/gtest.h>

#include "dns/name.hpp"

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
  EXPECT_THROW(DomainName::must("bad..name"), std::invalid_argument);
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

}  // namespace
}  // namespace dnsctx::dns
