// Unit tests for IPv4 addressing and five-tuples.
#include <gtest/gtest.h>

#include "util/ip.hpp"

namespace dnsctx {
namespace {

TEST(Ipv4Addr, OctetConstruction) {
  const Ipv4Addr a{8, 8, 4, 4};
  EXPECT_EQ(a.to_u32(), 0x08080404u);
  EXPECT_EQ(a.to_string(), "8.8.4.4");
}

TEST(Ipv4Addr, DefaultIsUnspecified) {
  EXPECT_TRUE(Ipv4Addr{}.is_unspecified());
  EXPECT_FALSE(Ipv4Addr(1, 2, 3, 4).is_unspecified());
}

struct ParseCase {
  const char* text;
  bool ok;
};

// Prints the case's value rather than its raw bytes, which hold a pointer and
// padding: ctest names parameterized tests after this text, so it must not
// change from one build to the next.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << "(\"" << c.text << "\", " << (c.ok ? "true" : "false") << ')';
}

class Ipv4ParseTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4ParseTest, ParseValidation) {
  const auto& c = GetParam();
  const auto parsed = Ipv4Addr::parse(c.text);
  EXPECT_EQ(parsed.has_value(), c.ok) << c.text;
  if (parsed) {
    EXPECT_EQ(parsed->to_string(), c.text);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, Ipv4ParseTest,
                         ::testing::Values(ParseCase{"0.0.0.0", true},
                                           ParseCase{"255.255.255.255", true},
                                           ParseCase{"192.168.1.10", true},
                                           ParseCase{"1.2.3", false},
                                           ParseCase{"1.2.3.4.5", false},
                                           ParseCase{"256.1.1.1", false},
                                           ParseCase{"1..2.3", false},
                                           ParseCase{"a.b.c.d", false},
                                           ParseCase{"", false},
                                           ParseCase{"1.2.3.4 ", false}));

TEST(Ipv4Addr, RoundTripAllOctetEdges) {
  for (const auto v : {0u, 1u, 0x7f000001u, 0xffffffffu, 0x08080808u}) {
    const auto a = Ipv4Addr::from_u32(v);
    const auto parsed = Ipv4Addr::parse(a.to_string());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, a);
  }
}

TEST(Ipv4Addr, Ordering) {
  EXPECT_LT(Ipv4Addr(1, 0, 0, 0), Ipv4Addr(2, 0, 0, 0));
  EXPECT_EQ(Ipv4Addr(1, 2, 3, 4), Ipv4Addr(1, 2, 3, 4));
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  const FiveTuple t{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1'234, 443, Proto::kTcp};
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.orig_ip, t.resp_ip);
  EXPECT_EQ(r.resp_port, t.orig_port);
  EXPECT_EQ(r.proto, t.proto);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, HashDistinguishesDirections) {
  const FiveTuple t{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1'234, 443, Proto::kTcp};
  EXPECT_NE(FiveTupleHash{}(t), FiveTupleHash{}(t.reversed()));
}

TEST(FiveTuple, HashDistinguishesProto) {
  FiveTuple t{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1'234, 443, Proto::kTcp};
  FiveTuple u = t;
  u.proto = Proto::kUdp;
  EXPECT_NE(t, u);
  EXPECT_NE(FiveTupleHash{}(t), FiveTupleHash{}(u));
}

TEST(Proto, Names) {
  EXPECT_EQ(to_string(Proto::kTcp), "tcp");
  EXPECT_EQ(to_string(Proto::kUdp), "udp");
}

}  // namespace
}  // namespace dnsctx
