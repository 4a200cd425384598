// dnsctx — segment codec tests: CRC, single-record round trips, header
// fields. test_segment_v2.cpp covers the columnar payload in depth.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"

namespace dnsctx::stream {
namespace {

capture::ConnRecord sample_conn() {
  capture::ConnRecord c;
  c.start = SimTime::from_us(1'234'567);
  c.duration = SimDuration::ms(250);
  c.orig_ip = Ipv4Addr{10, 0, 0, 7};
  c.resp_ip = Ipv4Addr{93, 184, 216, 34};
  c.orig_port = 49152;
  c.resp_port = 443;
  c.proto = Proto::kTcp;
  c.orig_bytes = 1'024;
  c.resp_bytes = 1'048'576;
  c.state = capture::ConnState::kSf;
  return c;
}

capture::DnsRecord sample_dns() {
  capture::DnsRecord d;
  d.ts = SimTime::from_us(1'200'000);
  d.duration = SimDuration::ms(12);
  d.client_ip = Ipv4Addr{10, 0, 0, 7};
  d.client_port = 53123;
  d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
  d.query = "cdn.example.com";
  d.qtype = dns::RrType::kA;
  d.rcode = dns::Rcode::kNoError;
  d.answered = true;
  d.answers = {{Ipv4Addr{93, 184, 216, 34}, 300}, {Ipv4Addr{93, 184, 216, 35}, 60}};
  return d;
}

/// `rec` back out of a segment that holds only it.
template <typename Rec>
Rec round_trip(const Rec& rec, RecordKind kind) {
  SegmentView view = SegmentView::adopt(build_segment_v2(std::vector<Rec>{rec}), "test");
  EXPECT_EQ(view.kind(), kind);
  EXPECT_EQ(view.size(), 1u);
  Rec out;
  EXPECT_TRUE(view.next(out));
  Rec past_the_end;
  EXPECT_FALSE(view.next(past_the_end));
  return out;
}

TEST(Crc32, KnownVectorAndChaining) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  const std::string whole = "hello, segment world";
  EXPECT_EQ(crc32(whole.substr(5), crc32(whole.substr(0, 5))), crc32(whole));
}

/// The plain bitwise CRC-32 definition (reflected, poly 0xEDB88320).
std::uint32_t reference_crc32(std::string_view bytes, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const char ch : bytes) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseDefinitionAtEveryLengthAndAlignment) {
  // The eight-bytes-per-step loop must agree with the definition for
  // every tail length and start alignment, and when chained.
  std::string buf(4'097 + 8, '\0');
  std::uint32_t x = 0x12345678u;
  for (auto& c : buf) {
    x = x * 1'103'515'245u + 12'345u;
    c = static_cast<char>(x >> 24);
  }
  for (std::size_t align = 0; align <= 8; ++align) {
    for (std::size_t len = 0; align + len <= 4'097 + 8 && len <= 4'097; ++len) {
      const std::string_view bytes{buf.data() + align, len};
      ASSERT_EQ(crc32(bytes), reference_crc32(bytes)) << "len " << len << " align " << align;
    }
  }
  const std::string_view all{buf};
  EXPECT_EQ(crc32(all.substr(13), crc32(all.substr(0, 13))), reference_crc32(all));
}

TEST(Segment, ConnRoundTrip) {
  const auto orig = sample_conn();
  const auto c = round_trip(orig, RecordKind::kConn);
  EXPECT_EQ(c.start, orig.start);
  EXPECT_EQ(c.duration, orig.duration);
  EXPECT_EQ(c.orig_ip, orig.orig_ip);
  EXPECT_EQ(c.resp_ip, orig.resp_ip);
  EXPECT_EQ(c.orig_port, orig.orig_port);
  EXPECT_EQ(c.resp_port, orig.resp_port);
  EXPECT_EQ(c.proto, orig.proto);
  EXPECT_EQ(c.orig_bytes, orig.orig_bytes);
  EXPECT_EQ(c.resp_bytes, orig.resp_bytes);
  EXPECT_EQ(c.state, orig.state);
}

TEST(Segment, DnsRoundTrip) {
  const auto orig = sample_dns();
  const auto d = round_trip(orig, RecordKind::kDns);
  EXPECT_EQ(d.ts, orig.ts);
  EXPECT_EQ(d.duration, orig.duration);
  EXPECT_EQ(d.client_ip, orig.client_ip);
  EXPECT_EQ(d.client_port, orig.client_port);
  EXPECT_EQ(d.resolver_ip, orig.resolver_ip);
  EXPECT_EQ(d.query, orig.query);
  EXPECT_EQ(d.qtype, orig.qtype);
  EXPECT_EQ(d.rcode, orig.rcode);
  EXPECT_EQ(d.answered, orig.answered);
  EXPECT_EQ(d.answers, orig.answers);
}

TEST(Segment, UnansweredDnsRoundTrip) {
  auto orig = sample_dns();
  orig.answered = false;
  orig.answers.clear();
  orig.duration = SimDuration::zero();
  orig.rcode = dns::Rcode::kServFail;
  const auto d = round_trip(orig, RecordKind::kDns);
  EXPECT_FALSE(d.answered);
  EXPECT_TRUE(d.answers.empty());
  EXPECT_EQ(d.duration, SimDuration::zero());
  EXPECT_EQ(d.rcode, dns::Rcode::kServFail);
}

TEST(Segment, HeaderFieldsSurvive) {
  const auto a = sample_conn();
  auto b = sample_conn();
  b.start = a.start + SimDuration::sec(3);
  const auto blob = build_segment_v2(std::vector<capture::ConnRecord>{a, b});
  const std::string_view payload = std::string_view{blob}.substr(kSegmentHeaderBytes);
  const auto header = parse_segment_header(blob, "test");
  EXPECT_EQ(header.kind, RecordKind::kConn);
  EXPECT_EQ(header.record_count, 2u);
  EXPECT_EQ(header.first_ts, a.start);
  EXPECT_EQ(header.last_ts, b.start);
  EXPECT_EQ(header.payload_bytes, payload.size());
  EXPECT_EQ(header.payload_crc32, crc32(payload));
}

TEST(Segment, EmptySegmentRoundTrip) {
  const auto blob = build_segment_v2(std::vector<capture::DnsRecord>{});
  const auto header = parse_segment_header(blob, "test");
  EXPECT_EQ(header.kind, RecordKind::kDns);
  EXPECT_EQ(header.record_count, 0u);
  EXPECT_EQ(header.first_ts, SimTime::origin());
  EXPECT_EQ(header.last_ts, SimTime::origin());
  SegmentView view = SegmentView::parse(blob, "test");
  capture::DnsRecord rec;
  EXPECT_FALSE(view.next(rec));
}

}  // namespace
}  // namespace dnsctx::stream
