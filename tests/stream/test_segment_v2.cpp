// dnsctx — spool format v2 round-trip tests: varint/zigzag primitives,
// the LZ block codec, columnar encode→decode losslessness under both
// codecs, dictionary dedupe, the per-segment codec fallback, and the
// SegmentView cursor contract (rewind, deliver, kind checks, mmap
// readers).
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"
#include "temp_dir.hpp"

namespace dnsctx::stream {
namespace {

/// A fresh, empty directory `name` under this process's own temporary
/// root, which is removed at exit.
std::string temp_dir(const char* name) {
  static const testutil::TempDir root{"dnsctx_v2_test"};
  const auto dir = root.path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

capture::ConnRecord conn_at(std::int64_t us) {
  capture::ConnRecord c;
  c.start = SimTime::from_us(us);
  c.duration = SimDuration::ms(10);
  c.orig_ip = Ipv4Addr{10, 0, 0, 1};
  c.resp_ip = Ipv4Addr{93, 184, 216, 34};
  c.orig_port = 40000;
  c.resp_port = 443;
  c.proto = Proto::kTcp;
  c.state = capture::ConnState::kSf;
  c.orig_bytes = 1234;
  c.resp_bytes = 56789;
  return c;
}

capture::DnsRecord dns_at(std::int64_t us, std::string name = "example.com") {
  capture::DnsRecord d;
  d.ts = SimTime::from_us(us);
  d.duration = SimDuration::ms(5);
  d.client_ip = Ipv4Addr{10, 0, 0, 1};
  d.client_port = 50000;
  d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
  d.query = util::InternedName{name};
  d.qtype = dns::RrType::kA;
  d.rcode = dns::Rcode::kNoError;
  d.answered = true;
  d.answers = {{Ipv4Addr{1, 2, 3, 4}, 60}, {Ipv4Addr{5, 6, 7, 8}, 300}};
  return d;
}

void expect_conn_eq(const capture::ConnRecord& a, const capture::ConnRecord& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.orig_ip, b.orig_ip);
  EXPECT_EQ(a.resp_ip, b.resp_ip);
  EXPECT_EQ(a.orig_port, b.orig_port);
  EXPECT_EQ(a.resp_port, b.resp_port);
  EXPECT_EQ(a.proto, b.proto);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.orig_bytes, b.orig_bytes);
  EXPECT_EQ(a.resp_bytes, b.resp_bytes);
}

void expect_dns_eq(const capture::DnsRecord& a, const capture::DnsRecord& b) {
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.client_ip, b.client_ip);
  EXPECT_EQ(a.client_port, b.client_port);
  EXPECT_EQ(a.resolver_ip, b.resolver_ip);
  EXPECT_EQ(a.query.view(), b.query.view());
  EXPECT_EQ(a.qtype, b.qtype);
  EXPECT_EQ(a.rcode, b.rcode);
  EXPECT_EQ(a.answered, b.answered);
  EXPECT_EQ(a.answers, b.answers);
}

TEST(Varint, RoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16'383,
                                  16'384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::uint64_t(-1)};
  for (const auto v : values) {
    std::string buf;
    put_varint(buf, v);
    ASSERT_LE(buf.size(), 10u);
    const char* p = buf.data();
    const auto back = get_varint(&p, buf.data() + buf.size());
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(p, buf.data() + buf.size()) << "decoder must consume exactly the encoding";
  }
}

TEST(Varint, RejectsTruncatedAndOverlong) {
  std::string buf;
  put_varint(buf, std::uint64_t(-1));
  const char* p = buf.data();
  EXPECT_FALSE(get_varint(&p, buf.data() + buf.size() - 1).has_value());  // truncated

  // Ten continuation bytes whose final byte carries more than the one
  // bit a 64-bit value has left: not a canonical encoding of anything.
  const std::string overlong = std::string(9, '\x80') + '\x02';
  p = overlong.data();
  EXPECT_FALSE(get_varint(&p, overlong.data() + overlong.size()).has_value());

  const char* empty = buf.data();
  EXPECT_FALSE(get_varint(&empty, empty).has_value());
}

TEST(Varint, ZigzagRoundTrips) {
  const std::int64_t values[] = {0, -1, 1, -123'456, 123'456,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const auto v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the point of zigzag).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(LzCodec, RoundTripsRepetitiveAndShortInputs) {
  const BlockCodec& lz = codec(SegmentCodec::kLz);
  std::string repetitive;
  for (int i = 0; i < 1000; ++i) repetitive += "abcdefgh";
  std::string comp, back;
  lz.compress(repetitive, comp);
  EXPECT_LT(comp.size(), repetitive.size() / 4);
  ASSERT_TRUE(lz.decompress(comp, repetitive.size(), back));
  EXPECT_EQ(back, repetitive);

  // Every length through the "inputs shorter than 13 bytes are a single
  // literal run" boundary, plus empty.
  for (std::size_t n = 0; n <= 20; ++n) {
    const std::string raw(n, static_cast<char>('a' + n));
    lz.compress(raw, comp);
    ASSERT_TRUE(lz.decompress(comp, raw.size(), back)) << "length " << n;
    EXPECT_EQ(back, raw);
  }
}

TEST(LzCodec, RoundTripsIncompressibleInput) {
  // Deterministic LCG byte soup: no 4-byte window repeats within the
  // 64 KiB offset reach, so the compressor finds nothing.
  std::string raw(4096, '\0');
  std::uint32_t x = 0x12345678u;
  for (auto& ch : raw) {
    x = x * 1664525u + 1013904223u;
    ch = static_cast<char>(x >> 24);
  }
  const BlockCodec& lz = codec(SegmentCodec::kLz);
  std::string comp, back;
  lz.compress(raw, comp);
  EXPECT_GE(comp.size(), raw.size());  // pure literals cost a little extra
  ASSERT_TRUE(lz.decompress(comp, raw.size(), back));
  EXPECT_EQ(back, raw);
}

TEST(LzCodec, DecompressRejectsMalformedInput) {
  const BlockCodec& lz = codec(SegmentCodec::kLz);
  std::string out;
  // Literal run overruns the input.
  EXPECT_FALSE(lz.decompress(std::string{"\xf0"}, 100, out));
  // Match offset reaches before the start of the output (embedded NULs
  // force explicit-length construction).
  EXPECT_FALSE(lz.decompress(std::string("\x10" "a\x05\x00", 4), 10, out));
  // Offset zero is never valid.
  EXPECT_FALSE(lz.decompress(std::string("\x10" "a\x00\x00", 4), 10, out));
  // Decoded size disagrees with the framed raw length.
  std::string comp;
  lz.compress("hello world", comp);
  EXPECT_FALSE(lz.decompress(comp, 5, out));
  EXPECT_FALSE(lz.decompress(comp, 50, out));
}

TEST(SegmentV2, ConnRoundTripsLosslesslyUnderBothCodecs) {
  std::vector<capture::ConnRecord> recs;
  for (int i = 0; i < 50; ++i) {
    auto c = conn_at(1000 + 37 * i);
    c.orig_port = static_cast<std::uint16_t>(40000 + i);
    c.resp_port = i % 2 ? 443 : 80;
    c.proto = i % 3 ? Proto::kTcp : Proto::kUdp;
    c.state = static_cast<capture::ConnState>(i % 5);
    c.orig_bytes = static_cast<std::uint64_t>(i) << (i % 40);  // multi-byte varints
    const auto big = static_cast<std::uint64_t>(i) * std::uint64_t{0xdeadbeef};
    c.resp_bytes = i % 7 == 0 ? std::uint64_t{0} : big;
    c.duration = i % 4 == 0 ? SimDuration::zero() : SimDuration::us(i * 999);
    recs.push_back(c);
  }
  recs.push_back(conn_at(recs.back().start.count_us()));  // tied timestamps survive

  for (const auto requested : {SegmentCodec::kNone, SegmentCodec::kLz}) {
    const std::string blob = build_segment_v2(recs, requested);
    SegmentView view = SegmentView::parse(blob, "v2-conn.seg");
    EXPECT_EQ(view.kind(), RecordKind::kConn);
    ASSERT_EQ(view.size(), recs.size());
    EXPECT_EQ(view.header().first_ts, recs.front().start);
    EXPECT_EQ(view.header().last_ts, recs.back().start);
    capture::ConnRecord rec;
    for (const auto& expected : recs) {
      ASSERT_TRUE(view.next(rec));
      expect_conn_eq(rec, expected);
    }
    EXPECT_FALSE(view.next(rec));

    view.rewind();
    std::size_t again = 0;
    while (view.next(rec)) ++again;
    EXPECT_EQ(again, recs.size());
  }
}

TEST(SegmentV2, DnsRoundTripsWithDictionaryDedupe) {
  const char* names[] = {"netflix.com", "api.netflix.com", "example.org"};
  std::vector<capture::DnsRecord> recs;
  for (int i = 0; i < 30; ++i) {
    auto d = dns_at(2000 + 11 * i, names[i % 3]);
    d.qtype = i % 4 == 0 ? dns::RrType::kAaaa : dns::RrType::kA;
    d.rcode = i % 5 == 0 ? dns::Rcode::kNxDomain : dns::Rcode::kNoError;
    if (i % 6 == 0) {
      d.answered = false;
      d.answers.clear();
      d.duration = SimDuration::zero();
    } else {
      d.answers.resize(static_cast<std::size_t>(1 + i % 4),
                       {Ipv4Addr::from_u32(0x01020300u + static_cast<std::uint32_t>(i)),
                        60u * static_cast<std::uint32_t>(i)});
    }
    recs.push_back(d);
  }

  for (const auto requested : {SegmentCodec::kNone, SegmentCodec::kLz}) {
    const std::string blob = build_segment_v2(recs, requested);
    SegmentView view = SegmentView::parse(blob, "v2-dns.seg");
    ASSERT_EQ(view.size(), recs.size());
    capture::DnsRecord rec;
    for (const auto& expected : recs) {
      ASSERT_TRUE(view.next(rec));
      expect_dns_eq(rec, expected);
    }
    EXPECT_FALSE(view.next(rec));
  }

  // The dictionary stores each distinct qname once: in the uncompressed
  // blob, 10 occurrences of "netflix.com" appear as exactly one copy
  // (inside "api.netflix.com", which also appears once).
  const std::string blob = build_segment_v2(recs, SegmentCodec::kNone);
  std::size_t hits = 0;
  for (auto pos = blob.find("netflix.com"); pos != std::string::npos;
       pos = blob.find("netflix.com", pos + 1)) {
    ++hits;
  }
  EXPECT_EQ(hits, 2u);
}

TEST(SegmentV2, IncompressibleSegmentFallsBackToUncompressed) {
  // One record is a few dozen bytes of mostly-distinct values — the LZ
  // pass finds no 4-byte match, so the builder must store it raw (codec
  // id kNone) rather than pay the literal-run overhead.
  capture::ConnRecord c;
  c.start = SimTime::from_us(0x0102030405);
  c.duration = SimDuration::us(0x1122);
  c.orig_ip = Ipv4Addr::from_u32(0x21436587u);
  c.resp_ip = Ipv4Addr::from_u32(0xa9cbed0fu);
  c.orig_port = 0x3141;
  c.resp_port = 0x5926;
  c.orig_bytes = 0x0123456789abcdefull;
  c.resp_bytes = 0xfedcba9876543210ull;
  const std::string blob = build_segment_v2({c}, SegmentCodec::kLz);
  SegmentView view = SegmentView::parse(blob, "tiny.seg");
  EXPECT_EQ(view.stored_codec(), SegmentCodec::kNone);
  capture::ConnRecord back;
  ASSERT_TRUE(view.next(back));
  expect_conn_eq(back, c);
}

TEST(SegmentV2, CompressionShrinksRepetitiveRecords) {
  std::vector<capture::ConnRecord> recs;
  for (int i = 0; i < 500; ++i) recs.push_back(conn_at(1000 + i));
  // Every conn field at its natural width: 2 × i64, 2 × u32 address,
  // 2 × u16 port, 2 × u8, 2 × u64 byte count.
  constexpr std::size_t kFieldBytes = 46;
  const std::size_t fixed_width = recs.size() * kFieldBytes;
  const std::string v2_none = build_segment_v2(recs, SegmentCodec::kNone);
  const std::string v2_lz = build_segment_v2(recs, SegmentCodec::kLz);
  EXPECT_LT(v2_none.size(), fixed_width);  // columnar + varints alone shrink it
  EXPECT_LT(v2_lz.size() * 4, fixed_width);  // the headline ≥4× claim
  EXPECT_LT(v2_lz.size(), v2_none.size());
  SegmentView view = SegmentView::parse(v2_lz, "big.seg");
  EXPECT_EQ(view.stored_codec(), SegmentCodec::kLz);
  EXPECT_EQ(view.size(), 500u);
}

TEST(SegmentV2, SegmentsFromTheBucketedEncoderStillDecode) {
  // A 64-record lz conn segment written by the 32-way bucketed, lazily
  // matching encoder that preceded the single-probe one. The block format
  // and the decompressor are unchanged, so it must still decode.
  static constexpr char kBlob[] =
      "\x44\x43\x53\x47\x02\x00\x00\x00\x40\x00\x00\x00\xe8\x03\x00\x00"
      "\x00\x00\x00\x00\x6e\x41\x00\x00\x00\x00\x00\x00\x76\x00\x00\x00"
      "\x00\x00\x00\x00\x04\x65\x11\xbf\x01\x9b\x04\x00\x00\x00\x00\x00"
      "\x00\xff\x02\x03\x22\xd8\xb8\x5d\x01\x00\x00\x0a\x02\x00\x00\x0a"
      "\x7f\x00\xfa\x01\x02\x00\x69\xaf\xc0\x01\xa0\x9c\x01\xf0\xab\x01"
      "\xc0\xbb\x09\x00\xa5\x3f\x40\x01\x02\x02\x00\x2b\x2f\x40\x00\x01"
      "\x00\x2c\xaf\x80\x01\x40\x9c\x41\x9c\x42\x9c\x43\x9c\x08\x00\x65"
      "\x3f\x80\x01\xbb\x02\x00\x6c\x0f\x45\x01\x2e\x2f\x40\x01\x01\x00"
      "\x2c\x4f\x80\x01\xd2\x09\x02\x00\x6b\xbf\xc0\x01\xd5\xbb\x03\xdf"
      "\xbb\x03\xe9\xbb\x03\x09\x00\x9f\x50\xbb\x03\xd5\xbb\x03";
  SegmentView view = SegmentView::parse({kBlob, sizeof kBlob - 1}, "bucketed_lz.seg");
  EXPECT_EQ(view.stored_codec(), SegmentCodec::kLz);
  ASSERT_EQ(view.size(), 64u);
  capture::ConnRecord back;
  for (int i = 0; i < 64; ++i) {
    capture::ConnRecord c = conn_at(1000 + 250 * i);
    c.duration = SimDuration::ms(10 + i % 3);
    c.orig_ip = Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(1 + i % 2)};
    c.orig_port = static_cast<std::uint16_t>(40000 + i % 4);
    c.resp_bytes = 56789 + static_cast<std::uint64_t>(i % 3) * 10;
    ASSERT_TRUE(view.next(back));
    expect_conn_eq(back, c);
  }
  EXPECT_FALSE(view.next(back));
}

TEST(LzCodec, OutputStaysWithinTheBlockBound) {
  // |compress(x)| <= |x| + |x|/255 + 16 for any input, and the encoder is
  // deterministic.
  const auto& lz = codec(SegmentCodec::kLz);
  std::uint32_t x = 7;
  for (const std::size_t n : {0u, 1u, 12u, 13u, 100u, 255u, 4'096u, 70'000u}) {
    for (int mode = 0; mode < 3; ++mode) {
      std::string raw(n, '\0');
      for (std::size_t i = 0; i < n; ++i) {
        x = x * 1'103'515'245u + 12'345u;
        raw[i] = static_cast<char>(mode == 0 ? x >> 24 : mode == 1 ? i % 7 : (i / 300) & 1);
      }
      std::string comp;
      lz.compress(raw, comp);
      EXPECT_LE(comp.size(), n + n / 255 + 16) << "n " << n << " mode " << mode;
      std::string again;
      lz.compress(raw, again);
      EXPECT_EQ(comp, again);
      std::string back;
      ASSERT_TRUE(lz.decompress(comp, n, back));
      EXPECT_EQ(back, raw);
    }
  }
}

TEST(SegmentV2, EmptySegmentsRoundTrip) {
  for (const auto kind : {RecordKind::kConn, RecordKind::kDns}) {
    SegmentBuilderV2 b{kind};
    const std::string blob = b.build();
    SegmentView view = SegmentView::parse(blob, "empty.seg");
    EXPECT_EQ(view.size(), 0u);
    EXPECT_EQ(view.kind(), kind);
  }
}

TEST(SegmentV2, BuilderRejectsOutOfOrderAndWrongKind) {
  SegmentBuilderV2 b{RecordKind::kConn};
  b.add(conn_at(5000));
  EXPECT_THROW(b.add(conn_at(4000)), std::runtime_error);
  SegmentBuilderV2 d{RecordKind::kDns};
  EXPECT_THROW(d.add(conn_at(1000)), std::logic_error);
}

TEST(SegmentV2, MapFileAndAdoptRoundTrip) {
  const auto dir = temp_dir("dnsctx_v2_map");
  const std::vector<capture::ConnRecord> recs = {conn_at(1000), conn_at(2000)};
  const std::string blob = build_segment_v2(recs);
  write_segment_file(dir + "/conn-00000000.seg", blob);

  SegmentView mapped = SegmentView::map_file(dir + "/conn-00000000.seg");
  EXPECT_EQ(mapped.source(), dir + "/conn-00000000.seg");
  capture::ConnRecord rec;
  ASSERT_TRUE(mapped.next(rec));
  expect_conn_eq(rec, recs[0]);

  SegmentView adopted = SegmentView::adopt(std::string{blob}, "adopted");
  struct Counter final : capture::RecordSink {
    std::size_t conns = 0;
    void on_conn(const capture::ConnRecord&) override { ++conns; }
    void on_dns(const capture::DnsRecord&) override {}
  } sink;
  EXPECT_EQ(adopted.deliver(sink), 2u);
  EXPECT_EQ(sink.conns, 2u);
}

TEST(SegmentV2, CursorKindMismatchAndEmptyViewThrowLogicError) {
  SegmentView view = SegmentView::adopt(build_segment_v2({conn_at(1000)}), "kind.seg");
  capture::DnsRecord dns;
  EXPECT_THROW((void)view.next(dns), std::logic_error);

  SegmentView empty;
  EXPECT_THROW((void)empty.header(), std::logic_error);
  capture::ConnRecord rec;
  EXPECT_THROW((void)empty.next(rec), std::logic_error);
}

}  // namespace
}  // namespace dnsctx::stream
