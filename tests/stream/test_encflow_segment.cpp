// dnsctx — enc-segment tests: EncFlowRecord round-trips through the
// segment codec, the zero-copy view, spool rotation/replay with the
// three-way merge, and the text converters.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "capture/logio.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"
#include "stream/spool.hpp"
#include "stream/wire.hpp"
#include "temp_dir.hpp"

namespace dnsctx::stream {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] capture::EncFlowRecord sample_enc(std::int64_t start_us = 1'500'000) {
  capture::EncFlowRecord e;
  e.start = SimTime::from_us(start_us);
  e.duration = SimDuration::ms(420);
  e.client_ip = Ipv4Addr{100, 66, 3, 7};
  e.server_ip = Ipv4Addr{100, 66, 250, 1};
  e.client_port = 30'123;
  e.server_port = 853;
  e.up_msgs = 4;
  e.down_msgs = 5;
  e.up_bytes = 925;
  e.down_bytes = 13'370;
  e.first_up_bytes = 289;
  e.first_down_bytes = 3'295;
  e.pad_aligned_up = 3;
  e.pad_aligned_down = 4;
  return e;
}

/// Collects everything delivered, tagging each record's kind so merge
/// order is checkable.
struct CollectSink : capture::RecordSink {
  std::vector<capture::ConnRecord> conns;
  std::vector<capture::DnsRecord> dns;
  std::vector<capture::EncFlowRecord> encflows;
  std::string order;  ///< 'c'/'d'/'e' per delivery

  void on_conn(const capture::ConnRecord& rec) override {
    conns.push_back(rec);
    order += 'c';
  }
  void on_dns(const capture::DnsRecord& rec) override {
    dns.push_back(rec);
    order += 'd';
  }
  void on_encflow(const capture::EncFlowRecord& rec) override {
    encflows.push_back(rec);
    order += 'e';
  }
};

void expect_enc_eq(const capture::EncFlowRecord& e, const capture::EncFlowRecord& orig) {
  EXPECT_EQ(e.start, orig.start);
  EXPECT_EQ(e.duration, orig.duration);
  EXPECT_EQ(e.client_ip, orig.client_ip);
  EXPECT_EQ(e.server_ip, orig.server_ip);
  EXPECT_EQ(e.client_port, orig.client_port);
  EXPECT_EQ(e.server_port, orig.server_port);
  EXPECT_EQ(e.up_msgs, orig.up_msgs);
  EXPECT_EQ(e.down_msgs, orig.down_msgs);
  EXPECT_EQ(e.up_bytes, orig.up_bytes);
  EXPECT_EQ(e.down_bytes, orig.down_bytes);
  EXPECT_EQ(e.first_up_bytes, orig.first_up_bytes);
  EXPECT_EQ(e.first_down_bytes, orig.first_down_bytes);
  EXPECT_EQ(e.pad_aligned_up, orig.pad_aligned_up);
  EXPECT_EQ(e.pad_aligned_down, orig.pad_aligned_down);
}

/// Varied enc flows: a few clients and servers, extreme counter values
/// and a negative duration, so every column's range gets exercised.
std::vector<capture::EncFlowRecord> varied_encs(int n) {
  std::vector<capture::EncFlowRecord> out;
  for (int i = 0; i < n; ++i) {
    capture::EncFlowRecord e = sample_enc(1'000'000 + 37'000 * i);
    e.duration = SimDuration::us(i % 7 == 0 ? -5 : 1'000 * i);
    e.client_ip = Ipv4Addr{100, 66, 3, static_cast<std::uint8_t>(i % 5)};
    e.server_ip = Ipv4Addr{100, 66, 250, static_cast<std::uint8_t>(1 + i % 2)};
    e.client_port = static_cast<std::uint16_t>(30'000 + i);
    e.server_port = i % 2 == 0 ? 853 : 443;
    e.up_msgs = static_cast<std::uint32_t>(i);
    e.down_msgs = i == 3 ? 0xffff'ffffu : static_cast<std::uint32_t>(i + 1);
    e.up_bytes = 925u * static_cast<std::uint64_t>(i);
    e.down_bytes = i == 5 ? ~std::uint64_t{0} : 13'370u * static_cast<std::uint64_t>(i);
    e.first_up_bytes = 289;
    e.first_down_bytes = 3'295u + static_cast<std::uint64_t>(i);
    e.pad_aligned_up = static_cast<std::uint32_t>(i / 2);
    e.pad_aligned_down = i == 4 ? 0xffff'ffffu : static_cast<std::uint32_t>(i / 3);
    out.push_back(e);
  }
  return out;
}

using testutil::TempDir;

TEST(EncSegment, RoundTrip) {
  const auto orig = sample_enc();
  const auto blob = build_segment_v2(std::vector<capture::EncFlowRecord>{orig});
  SegmentView view = SegmentView::parse(blob, "test");
  EXPECT_EQ(view.kind(), RecordKind::kEncFlow);
  ASSERT_EQ(view.size(), 1u);
  capture::EncFlowRecord e;
  ASSERT_TRUE(view.next(e));
  expect_enc_eq(e, orig);
  EXPECT_FALSE(view.next(e));
}

TEST(EncSegment, KindNameIsEnc) { EXPECT_EQ(to_string(RecordKind::kEncFlow), "enc"); }

TEST(EncSegment, ViewIteratesInOrder) {
  const auto a = sample_enc(1'000'000);
  const auto b = sample_enc(2'000'000);
  const auto blob = build_segment_v2(std::vector<capture::EncFlowRecord>{a, b});
  SegmentView view = SegmentView::parse(blob, "test");
  EXPECT_EQ(view.kind(), RecordKind::kEncFlow);
  EXPECT_EQ(view.size(), 2u);
  capture::EncFlowRecord out;
  ASSERT_TRUE(view.next(out));
  EXPECT_EQ(out.start, a.start);
  ASSERT_TRUE(view.next(out));
  EXPECT_EQ(out.start, b.start);
  EXPECT_FALSE(view.next(out));
  view.rewind();
  CollectSink sink;
  EXPECT_EQ(view.deliver(sink), 2u);
  EXPECT_EQ(sink.order, "ee");
}

TEST(EncSegment, WrongKindCursorThrows) {
  const auto blob = build_segment_v2(std::vector<capture::EncFlowRecord>{sample_enc()});
  SegmentView view = SegmentView::parse(blob, "test");
  capture::ConnRecord conn;
  EXPECT_THROW((void)view.next(conn), std::logic_error);
}

TEST(EncSegment, TimestampDisorderRejected) {
  // A header whose range runs backwards (first_ts after last_ts) cannot
  // describe the records: decoding them against it fails.
  const auto a = sample_enc(1'000'000);
  const auto b = sample_enc(2'000'000);
  std::string blob = build_segment_v2(std::vector<capture::EncFlowRecord>{a, b});
  std::string first_ts;
  wire::put_i64(first_ts, 3'000'000);
  blob.replace(12, 8, first_ts);  // header: magic, version, kind, pad, count, first_ts
  EXPECT_THROW((void)SegmentView::parse(blob, "test"), std::runtime_error);
}

TEST(EncSegment, V2RoundTripsEveryFieldUnderBothCodecs) {
  const auto recs = varied_encs(300);
  for (const auto codec : {SegmentCodec::kNone, SegmentCodec::kLz}) {
    const std::string blob = build_segment_v2(recs, codec);
    SegmentView view = SegmentView::parse(blob, "enc_v2.seg");
    EXPECT_EQ(view.kind(), RecordKind::kEncFlow);
    EXPECT_EQ(view.stored_codec(), codec);
    EXPECT_EQ(view.header().first_ts, recs.front().start);
    EXPECT_EQ(view.header().last_ts, recs.back().start);
    ASSERT_EQ(view.size(), recs.size());
    capture::EncFlowRecord out;
    for (const auto& orig : recs) {
      ASSERT_TRUE(view.next(out));
      expect_enc_eq(out, orig);
    }
    EXPECT_FALSE(view.next(out));
  }
}

TEST(EncSegment, V2IsAFractionOfTheFieldWidths) {
  const auto recs = varied_encs(1'000);
  // Every enc field at its natural width: 2 × i64, 2 × u32 address,
  // 2 × u16 port, 4 × u32 counter, 4 × u64 byte count.
  constexpr std::size_t kFieldBytes = 76;
  const std::string v2 = build_segment_v2(recs);
  EXPECT_LT(v2.size() * 3, recs.size() * kFieldBytes);
}

TEST(EncSegment, V2BuilderRejectsOtherKindsAndDisorder) {
  SegmentBuilderV2 enc{RecordKind::kEncFlow};
  capture::ConnRecord c;
  EXPECT_THROW(enc.add(c), std::logic_error);
  enc.add(sample_enc(2'000'000));
  EXPECT_THROW(enc.add(sample_enc(1'000'000)), std::runtime_error);
  SegmentBuilderV2 conn{RecordKind::kConn};
  EXPECT_THROW(conn.add(sample_enc()), std::logic_error);
}

TEST(EncSegment, V2EmptySegmentRoundTrips) {
  SegmentBuilderV2 b{RecordKind::kEncFlow};
  const std::string blob = b.build();
  SegmentView view = SegmentView::parse(blob, "empty.seg");
  EXPECT_EQ(view.kind(), RecordKind::kEncFlow);
  EXPECT_EQ(view.size(), 0u);
}

TEST(EncSpool, WriterRotatesAndListsEncSegments) {
  TempDir dir{"dnsctx_enc_spool"};
  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;
  {
    SpoolWriter writer{dir.path().string(), cfg};
    for (int i = 0; i < 5; ++i) writer.on_encflow(sample_enc(1'000'000 + i * 1'000));
    writer.flush();
    EXPECT_EQ(writer.encflows_written(), 5u);
  }
  const auto listing = list_spool(dir.path().string());
  EXPECT_TRUE(listing.conn_segments.empty());
  EXPECT_TRUE(listing.dns_segments.empty());
  ASSERT_EQ(listing.enc_segments.size(), 3u);  // 2 + 2 + 1
  for (const auto& path : listing.enc_segments) {
    EXPECT_EQ(SegmentView::map_file(path).kind(), RecordKind::kEncFlow);
  }
}

TEST(EncSpool, ReplayMergesThreeKindsWithTieOrder) {
  TempDir dir{"dnsctx_enc_merge"};
  {
    SpoolWriter writer{dir.path().string(), SpoolConfig{}};
    // All three kinds at the same instant, written in "wrong" order: the
    // merged timeline must still deliver dns, conn, enc.
    capture::EncFlowRecord e = sample_enc(1'000'000);
    capture::ConnRecord c;
    c.start = SimTime::from_us(1'000'000);
    c.orig_ip = Ipv4Addr{100, 66, 3, 7};
    c.resp_ip = Ipv4Addr{1, 2, 3, 4};
    capture::DnsRecord d;
    d.ts = SimTime::from_us(1'000'000);
    d.client_ip = Ipv4Addr{100, 66, 3, 7};
    d.resolver_ip = Ipv4Addr{100, 66, 250, 1};
    d.query = "tie.example.com";
    writer.on_encflow(e);
    writer.on_conn(c);
    writer.on_dns(d);
    // A later enc record so the enc stream also interleaves after ties.
    writer.on_encflow(sample_enc(2'000'000));
    writer.flush();
  }
  CollectSink sink;
  const auto counts = replay_spool(dir.path().string(), sink);
  EXPECT_EQ(counts.conns, 1u);
  EXPECT_EQ(counts.dns, 1u);
  EXPECT_EQ(counts.encflows, 2u);
  EXPECT_EQ(sink.order, "dcee");
}

TEST(EncSpool, ReplayDatasetMatchesSpoolReplay) {
  capture::Dataset ds;
  ds.encflows = {sample_enc(1'000'000), sample_enc(3'000'000)};
  capture::ConnRecord c;
  c.start = SimTime::from_us(2'000'000);
  ds.conns = {c};
  CollectSink sink;
  const auto counts = replay_dataset(ds, sink);
  EXPECT_EQ(counts.conns, 1u);
  EXPECT_EQ(counts.encflows, 2u);
  EXPECT_EQ(sink.order, "ece");
}

TEST(EncSpool, TextConvertersRoundTripEncflowLog) {
  TempDir text{"dnsctx_enc_text"};
  TempDir spool{"dnsctx_enc_text_spool"};
  TempDir text2{"dnsctx_enc_text_back"};
  {
    capture::Dataset ds;
    ds.encflows = {sample_enc(1'000'000), sample_enc(2'000'000)};
    std::ofstream conn{text.file("conn.log")};
    std::ofstream dns{text.file("dns.log")};
    std::ofstream enc{text.file("encflow.log")};
    capture::write_conn_log(conn, ds.conns);
    capture::write_dns_log(dns, ds.dns);
    capture::write_encflow_log(enc, ds.encflows);
  }
  const auto in_counts = text_to_spool(text.path().string(), spool.path().string());
  EXPECT_EQ(in_counts.encflows, 2u);
  const auto out_counts = spool_to_text(spool.path().string(), text2.path().string());
  EXPECT_EQ(out_counts.encflows, 2u);
  std::ifstream a{text.file("encflow.log")};
  std::ifstream b{text2.file("encflow.log")};
  const std::string sa{std::istreambuf_iterator<char>{a}, {}};
  const std::string sb{std::istreambuf_iterator<char>{b}, {}};
  EXPECT_EQ(sa, sb);
  EXPECT_FALSE(sa.empty());
}

TEST(EncSpool, SpoolToTextOmitsEncflowLogWhenEmpty) {
  TempDir text{"dnsctx_noenc_text"};
  TempDir spool{"dnsctx_noenc_spool"};
  TempDir text2{"dnsctx_noenc_back"};
  {
    capture::ConnRecord c;
    c.start = SimTime::from_us(1'000'000);
    std::ofstream conn{text.file("conn.log")};
    std::ofstream dns{text.file("dns.log")};
    capture::write_conn_log(conn, {c});
    capture::write_dns_log(dns, {});
  }
  (void)text_to_spool(text.path().string(), spool.path().string());
  const auto counts = spool_to_text(spool.path().string(), text2.path().string());
  EXPECT_EQ(counts.encflows, 0u);
  // Cleartext spools convert to exactly the classic two files.
  EXPECT_FALSE(fs::exists(text2.file("encflow.log")));
  EXPECT_TRUE(fs::exists(text2.file("conn.log")));
}

}  // namespace
}  // namespace dnsctx::stream
