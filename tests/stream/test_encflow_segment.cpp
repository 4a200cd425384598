// dnsctx — enc-segment tests: EncFlowRecord round-trips through the v1
// segment codec, the zero-copy view, spool rotation/replay with the
// three-way merge, the v2 rejection rule, and the text converters.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "capture/logio.hpp"
#include "stream/segment.hpp"
#include "stream/segment_view.hpp"
#include "stream/spool.hpp"
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

using testutil::TempDir;

TEST(EncSegment, RoundTrip) {
  const auto orig = sample_enc();
  std::string payload;
  append_record(payload, orig);
  const auto blob = build_segment(RecordKind::kEncFlow, 1, orig.start, orig.start, payload);
  const auto data = parse_segment(blob, "test");
  EXPECT_EQ(data.header.kind, RecordKind::kEncFlow);
  ASSERT_EQ(data.encflows.size(), 1u);
  const auto& e = data.encflows[0];
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

TEST(EncSegment, KindNameIsEnc) { EXPECT_EQ(to_string(RecordKind::kEncFlow), "enc"); }

TEST(EncSegment, ViewIteratesInOrder) {
  const auto a = sample_enc(1'000'000);
  const auto b = sample_enc(2'000'000);
  std::string payload;
  append_record(payload, a);
  append_record(payload, b);
  const auto blob = build_segment(RecordKind::kEncFlow, 2, a.start, b.start, payload);
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
  const auto orig = sample_enc();
  std::string payload;
  append_record(payload, orig);
  const auto blob = build_segment(RecordKind::kEncFlow, 1, orig.start, orig.start, payload);
  SegmentView view = SegmentView::parse(blob, "test");
  capture::ConnRecord conn;
  EXPECT_THROW((void)view.next(conn), std::logic_error);
}

TEST(EncSegment, TimestampDisorderRejected) {
  const auto a = sample_enc(2'000'000);
  const auto b = sample_enc(1'000'000);  // goes backwards
  std::string payload;
  append_record(payload, a);
  append_record(payload, b);
  const auto blob = build_segment(RecordKind::kEncFlow, 2, b.start, a.start, payload);
  EXPECT_THROW((void)SegmentView::parse(blob, "test"), std::runtime_error);
}

TEST(EncSegment, V2EncSegmentsAreRejected) {
  // The columnar v2 format has no enc column set; a header claiming
  // version 2 + kind enc must fail loudly at the single choke point.
  std::string blob;
  append_segment_header(blob, kSegmentVersionV2, RecordKind::kEncFlow, 0,
                        SimTime::from_us(0), SimTime::from_us(0), 0, crc32(""));
  try {
    (void)parse_segment_header(blob, "evil.seg");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1-only"), std::string::npos) << what;
  }
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
  // Enc segments are v1 regardless of the configured (default v2) format.
  for (const auto& path : listing.enc_segments) {
    SegmentView view = SegmentView::map_file(path);
    EXPECT_EQ(view.header().version, kSegmentVersion);
    EXPECT_EQ(view.kind(), RecordKind::kEncFlow);
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
